"""Scan generated configurations for work after the shift end.

Simulates every valid draw of ``configs.random_config`` for generator
seeds 11-16, 45 draws each. Prints the records logged for a specialist
between their ``shift_end`` and their next ``shift_start``, by type,
marking the types outside ``OFF_SHIFT_RECORD_TYPES``; the follow-up
surveys that answer a survey of an earlier shift; the ``reliability``
records; and every log that fails ``assert_log_conserved`` or logs its
``reliability`` records at other seconds than
``reliability_checkpoints``, or does not round-trip: each run streams
its log into memory, as ``frmsim simulate`` does, and the checks read
it back with ``read_jsonl``; its header must carry the config's seed
and hash, and its records, streamed again, must give the same digest,
lines and size. Each valid draw's log digest must
equal its pin in ``scan_digests.json`` (keyed ``seed/draw``), so a
refactor that keeps behaviour keeps every generated log byte-identical;
a draw whose digest moved, or that is missing from or extra to the pins,
fails. Each draw is also run without and
with the state trace at 60 s (``assert_trace_observes_only``): the
traced run evaluates the fatigue state at every minute, while the
untraced one skips minutes on the ORD certificate and the hazard-rate
bound, so equal records show that neither skipped a change. The traced
runs' ``incautious`` counts, pooled over every draw, must lie within 4
SD of their summed per-minute hazard rates (``incautious_vs_hazard``),
and their ``dms_flag`` counts within 4 SD of the summed flag
probabilities of the minutes the detector observes
(``dms_vs_expected``); a single draw may expect well under one event,
so the draws are pooled rather than held one by one. Exits 1 if any
record is outside the off-shift types, any log fails a check or a
pooled count strays.

Too slow for the unit tests (about a minute), so pytest does not collect it.
Run from the repository root::

    PYTHONPATH=src python tests/scan_generated.py

A change that alters behaviour re-pins the digests in its own commit and
says why: ``PYTHONPATH=src python tests/scan_generated.py --rewrite``
writes every valid draw's digest to ``scan_digests.json`` and prints the
draws whose digest changed, then runs the scan against the new pins.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frmsim.config import ConfigError, ScenarioConfig  # noqa: E402
from frmsim.events import WrittenLog  # noqa: E402

from configs import random_config  # noqa: E402
from logchecks import (  # noqa: E402
    OFF_SHIFT_RECORD_TYPES,
    Discard,
    assert_log_conserved,
    assert_trace_observes_only,
    carried_followups,
    dms_vs_expected,
    incautious_vs_hazard,
    off_shift_records,
    read_log,
    reliability_checkpoints,
    restream,
    stream_run,
    z_score,
)

GENERATOR_SEEDS = range(11, 17)
DRAWS_PER_SEED = 45
MAX_POOLED_Z = 4.0
PINS_PATH = Path(__file__).with_name("scan_digests.json")


def round_trips(cfg: ScenarioConfig, header: dict, records: list, written: WrittenLog) -> bool:
    return (header["seed"], header["config_hash"]) == (cfg.seed, cfg.config_hash()) and (
        restream(header, records, Discard()) == written
    )


def draw_digests(pins: dict, digests: dict) -> list[str]:
    """Every draw whose log digest differs from its pin, with the draws
    pinned but not drawn and drawn but not pinned."""
    return [
        f"{key}: digest {digests.get(key, 'missing')}, pinned {pins.get(key, 'none')}"
        for key in sorted(pins.keys() | digests.keys())
        if pins.get(key) != digests.get(key)
    ]


def rewrite_pins(digests: dict) -> None:
    """Re-pin every draw's digest and print the draws whose digest changed."""
    old = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    PINS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    changed = draw_digests(old, digests)
    print(f"{len(changed)} of {len(digests)} pins changed")
    for line in changed:
        print(f"  {line}")


def main(rewrite: bool = False) -> int:
    valid = 0
    digests = {}
    off_shift: Counter = Counter()
    carried = []
    reliability = 0
    hazard = [0, 0.0, 0.0]
    detector = [0, 0.0, 0.0]
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
            log, _, data = stream_run(cfg)
            header, records = read_log(data)
            digests[f"{seed}/{draw}"] = log.written.digest
            off_shift.update(event.type for event in off_shift_records(records))
            carried += [(seed, draw, event) for event in carried_followups(records)]
            times = [event.time for event in records if event.type == "reliability"]
            reliability += len(times)
            try:
                assert_log_conserved(records)
                assert times == reliability_checkpoints(cfg, records), (
                    "reliability records off the checkpoint seconds"
                )
                traced = assert_trace_observes_only(cfg)
                for i, value in enumerate(incautious_vs_hazard(cfg.hazard, traced)):
                    hazard[i] += value
                for i, value in enumerate(dms_vs_expected(cfg, traced)):
                    detector[i] += value
            except AssertionError as exc:
                failures.append(f"{seed}/{draw}: {exc}")
            if not round_trips(cfg, header, records, log.written):
                failures.append(f"{seed}/{draw}: the log does not round-trip")

    if rewrite:
        rewrite_pins(digests)
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    failures += [f"{line} (pinned in {PINS_PATH.name})" for line in draw_digests(pins, digests)]
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
    for type_, counts, source in (
        ("incautious", hazard, "the hazard"),
        ("dms_flag", detector, "the detector's observations"),
    ):
        z = z_score(*counts)
        print(
            f"{type_} records in the traced runs: {counts[0]} against "
            f"{counts[1]:.1f} expected from {source} (z {z:+.2f})"
        )
        if abs(z) > MAX_POOLED_Z:
            failures.append(f"pooled {type_} count: |z| {abs(z):.2f} > {MAX_POOLED_Z:g}")
    print(f"logs failing the checks: {len(failures)}")
    for failure in failures:
        print(f"  {failure}")
    stray = sum(n for t, n in off_shift.items() if t not in OFF_SHIFT_RECORD_TYPES)
    return 1 if stray or failures else 0


if __name__ == "__main__":
    sys.exit(main(rewrite=sys.argv[1:] == ["--rewrite"]))
