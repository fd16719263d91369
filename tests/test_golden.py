"""Pinned log digests and work counters for a fixed matrix of scenarios.

A refactor that keeps behaviour must keep every digest here bit for bit;
a change that alters behaviour re-pins them in its own commit and says
why. The work counters (``stats()`` without ``events_by_type``, which the
digest already covers) are pinned the same way, so a change in the work
a run does shows as a diff of ``golden_stats.json``. Regenerate both
with ``PYTHONPATH=src python tests/test_golden.py``, which prints the
cases whose digest or counters changed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from frmsim.cli import main
from frmsim.config import ShiftConfig, SpecialistDef, Toggles, default_config
from frmsim.sim import run_scenario

from configs import (
    odd_shift_configs,
    peer_concern_config,
    pull_over_config,
    reassignment_config,
    retrieval_config,
)
from logchecks import (
    BLOCK_RECORD_TYPES,
    CORE_RECORD_TYPES,
    assert_log_conserved,
    assert_trace_observes_only,
    log_digest,
    only,
    reliability_checkpoints,
)

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
STATS_PATH = Path(__file__).with_name("golden_stats.json")
SEEDS = (0, 1)
# Every record type appears at least this often across the matrix, so
# the digests pin each path that logs one.
RECORD_TYPE_FLOOR = 10


def dual_fleet_config(seed: int):
    """Five dual specialists over three days (two shifts), with a
    scheduled break, so cross-shift state and break handling are pinned."""
    fleet = tuple(
        SpecialistDef(
            specialist_id=f"as-{i}",
            susceptibility=1.0 + 0.1 * i,
            initial_sleep_pressure=0.1 + 0.05 * i,
            dual=True,
        )
        for i in range(5)
    )
    return default_config(
        seed=seed,
        horizon_days=3,
        fleet=fleet,
        shift=ShiftConfig(scheduled_breaks=((240, 20),)),
    )


def escalation_config(seed: int):
    """Three highly susceptible specialists rated by raters who read high,
    so both escalation routes reach every outcome (route two through
    vehicle retrieval) and secondary alerts both clear and time out."""
    base = default_config(seed=seed)
    fleet = tuple(
        SpecialistDef(
            specialist_id=f"as-{i}",
            susceptibility=3.0 + 0.5 * i,
            initial_sleep_pressure=0.5,
            dual=i % 2 == 0,
        )
        for i in range(3)
    )
    cfg = dataclasses.replace(
        base,
        horizon_days=3,
        fleet=fleet,
        vigilance=dataclasses.replace(
            base.vigilance,
            qualification_match_threshold=0.5,
            periodic_cadence_min=10.0,
        ),
        raters=tuple(
            dataclasses.replace(r, bias=0.5, noise_sd=0.15) for r in base.raters
        ),
    )
    cfg.validate()
    return cfg


def matrix() -> dict:
    """Case name -> scenario config."""
    toggle_sets = {"all_on": Toggles.all_on(), "all_off": Toggles.all_off()}
    toggle_sets.update({f"{block}_only": only(block) for block in BLOCK_RECORD_TYPES})
    cases = {}
    for name, toggles in toggle_sets.items():
        for seed in SEEDS:
            cases[f"default/{name}/seed{seed}"] = default_config(seed=seed, toggles=toggles)
    cases["dual_fleet5/all_on/seed5"] = dual_fleet_config(seed=5)
    cases["escalation3/all_on/seed0"] = escalation_config(seed=0)
    cases["reassign1/seed1"] = reassignment_config(seed=1)
    cases["reassign6/seed0"] = reassignment_config(seed=0, specialists=6, horizon_days=3)
    cases["peer_concern5/seed0"] = peer_concern_config(seed=0)
    cases["pull_over5/seed0"] = pull_over_config(seed=0)
    cases["retrieval4/seed0"] = retrieval_config(seed=0)
    for i, cfg in enumerate(odd_shift_configs()):
        cases[f"odd_shift{i}/seed{cfg.seed}"] = cfg
    return cases


def work_counters(cfg) -> tuple[str, dict]:
    """The run's log digest and its ``stats()`` without ``events_by_type``."""
    stats = {}
    digest = log_digest(cfg, stats)
    del stats["events_by_type"]
    return digest, stats


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_stats() -> dict:
    return json.loads(STATS_PATH.read_text())


def test_golden_file_covers_the_matrix(golden, golden_stats):
    assert set(golden) == set(golden_stats) == set(matrix())


def test_every_record_type_appears_in_the_matrix_at_the_floor():
    counts = Counter()
    for cfg in matrix().values():
        stats = {}
        log_digest(cfg, stats)
        counts.update(stats["events_by_type"])
    types = CORE_RECORD_TYPES.union(*BLOCK_RECORD_TYPES.values())
    assert set(counts) <= types, "a record type belongs to no block and is not core"
    thin = {type_: counts[type_] for type_ in sorted(types) if counts[type_] < RECORD_TYPE_FLOOR}
    assert not thin, f"record types logged fewer than {RECORD_TYPE_FLOOR} times: {thin}"


def test_escalation_case_reaches_every_outcome():
    log, _ = run_scenario(escalation_config(seed=0))
    cases = {
        (e.data["route"], e.data["resolution"], e.data["supervisor_action"])
        for e in log
        if e.type == "escalation_resolved"
    }
    assert cases == {
        ("route_one", "confirmed", "invite_break"),
        ("route_one", "confirmed", "retrieve_vehicle"),
        ("route_one", "not_confirmed", None),
        ("route_two", "confirmed", "check_in"),
        ("route_two", "confirmed", "retrieve_vehicle"),
        ("route_two", "not_confirmed", "check_in"),
    }
    assert {e.data["outcome"] for e in log if e.type == "sa_resolved"} == {
        "cleared",
        "support_alerted",
    }


@pytest.mark.parametrize("name", sorted(matrix()))
def test_log_digest_matches_golden(name, golden):
    assert log_digest(matrix()[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(matrix()))
def test_work_counters_match_golden(name, golden_stats):
    assert work_counters(matrix()[name])[1] == golden_stats[name]


@pytest.mark.parametrize("name", sorted(matrix()))
def test_simulate_streams_the_golden_log(name, golden, golden_stats, tmp_path, capsys):
    # The CLI path: the streamed file, its manifest counters and the
    # metrics that report folds from it.
    config = tmp_path / "config.json"
    config.write_text(matrix()[name].to_json())
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    data = (out / "events.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == golden[name]
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    types = Counter(json.loads(line)["type"] for line in data.splitlines()[1:])
    assert stats.pop("events_by_type") == dict(sorted(types.items()))
    assert stats == golden_stats[name]
    capsys.readouterr()
    argv = ["report", "--log", str(out / "events.jsonl"), "--metrics", str(out / "metrics.csv")]
    assert main(argv) == 0
    assert "metrics match the stored file" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(matrix()))
def test_log_is_conserved(name):
    cfg = matrix()[name]
    log, _ = run_scenario(cfg)
    assert_log_conserved(log)
    times = [e.time for e in log if e.type == "reliability"]
    assert times == reliability_checkpoints(cfg, log)


@pytest.mark.parametrize("name", sorted(matrix()))
def test_ord_change_fold_matches_the_state_trace(name):
    assert_trace_observes_only(matrix()[name])


def _rewrite(path: Path, new: dict, what: str) -> None:
    old = json.loads(path.read_text()) if path.exists() else {}
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    changed = sorted(name for name in new | old if old.get(name) != new.get(name))
    print(f"{len(changed)} of {len(new)} {what} changed")
    for name in changed:
        print(f"  {name}")


def rewrite_golden() -> None:
    """Re-pin every digest and work counter and print the cases whose
    digest or counters changed."""
    pinned = {name: work_counters(cfg) for name, cfg in matrix().items()}
    _rewrite(GOLDEN_PATH, {name: d for name, (d, _) in pinned.items()}, "digests")
    _rewrite(STATS_PATH, {name: s for name, (_, s) in pinned.items()}, "work counters")


if __name__ == "__main__":
    rewrite_golden()
