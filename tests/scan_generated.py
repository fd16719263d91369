"""Scan generated configurations for work after the shift end.

Simulates every valid draw of ``configs.random_config`` for generator
seeds 11-16, 45 draws each. Prints the records logged for a specialist
between their ``shift_end`` and their next ``shift_start``, by type,
marking the types outside ``OFF_SHIFT_RECORD_TYPES``; the follow-up
surveys that answer a survey of an earlier shift; the ``reliability``
records; and every log that fails ``assert_log_conserved`` or logs its
``reliability`` records at other seconds than
``reliability_checkpoints``, or does not round-trip: written by
``EventLog.write_jsonl`` and read back by ``EventLog.from_jsonl``, it
must give the same records, seed and config hash, and the writer's
digest must equal ``log.digest()``. Exits 1 if any record is outside
the off-shift types or any log fails a check.

Too slow for the unit tests (about 10 s), so pytest does not collect it.
Run from the repository root::

    PYTHONPATH=src python tests/scan_generated.py
"""

from __future__ import annotations

import io
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frmsim.config import ConfigError, ScenarioConfig  # noqa: E402
from frmsim.events import EventLog  # noqa: E402
from frmsim.sim import run_scenario  # noqa: E402

from configs import random_config  # noqa: E402
from logchecks import (  # noqa: E402
    OFF_SHIFT_RECORD_TYPES,
    assert_log_conserved,
    carried_followups,
    off_shift_records,
    reliability_checkpoints,
)

GENERATOR_SEEDS = range(11, 17)
DRAWS_PER_SEED = 45


def round_trips(log: EventLog) -> bool:
    stream = io.BytesIO()
    written = log.write_jsonl(stream)
    stream.seek(0)
    again = EventLog.from_jsonl(stream)
    return (
        written.digest == log.digest()
        and (again.seed, again.config_hash) == (log.seed, log.config_hash)
        and list(again) == list(log)
    )


def main() -> int:
    valid = 0
    off_shift: Counter = Counter()
    carried = []
    reliability = 0
    failures = []
    for seed in GENERATOR_SEEDS:
        rng = random.Random(seed)
        for draw in range(DRAWS_PER_SEED):
            data = random_config(rng)
            try:
                cfg = ScenarioConfig.from_dict(data)
            except ConfigError:
                continue
            valid += 1
            log, _ = run_scenario(cfg)
            off_shift.update(event.type for event in off_shift_records(log))
            carried += [(seed, draw, event) for event in carried_followups(log)]
            times = [event.time for event in log if event.type == "reliability"]
            reliability += len(times)
            try:
                assert_log_conserved(log)
                assert times == reliability_checkpoints(cfg, log), (
                    "reliability records off the checkpoint seconds"
                )
            except AssertionError as exc:
                failures.append(f"{seed}/{draw}: {exc}")
            if not round_trips(log):
                failures.append(f"{seed}/{draw}: the log does not round-trip")

    print(f"valid draws: {valid}")
    print("records between a shift_end and the next shift_start (* = not allowed):")
    for type_, count in sorted(off_shift.items()):
        mark = " " if type_ in OFF_SHIFT_RECORD_TYPES else "*"
        print(f"  {mark} {type_}: {count}")
    print(f"follow-ups answering a survey of an earlier shift: {len(carried)}")
    for seed, draw, event in carried:
        print(
            f"  {seed}/{draw}: {event.data['record_id']} at t={event.time}, "
            f"triggered by {event.data['triggered_by']}"
        )
    print(f"reliability records: {reliability}")
    print(f"logs failing the checks: {len(failures)}")
    for failure in failures:
        print(f"  {failure}")
    stray = sum(n for t, n in off_shift.items() if t not in OFF_SHIFT_RECORD_TYPES)
    return 1 if stray or failures else 0


if __name__ == "__main__":
    sys.exit(main())
