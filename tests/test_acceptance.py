"""Acceptance suite: one numbered test per release criterion, each
printing a single PASS line at its stated tolerance. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines inline."""

import json
import math
import random
from typing import Iterable

import pytest

from frmsim.cli import main
from frmsim.config import ScenarioConfig, Toggles, default_config
from frmsim.engagement import (
    EngagementConfig,
    IctSchedulerState,
    ict_due,
    ict_issue,
    ict_resolve,
)
from frmsim.events import Event
from frmsim.fatigue import (
    FatigueContext,
    ModelParams,
    advance_components,
    compose_alertness,
    to_kss,
    to_ord_truth,
)
from frmsim.awareness import PfsAction, submit_pfs
from frmsim.scheduling import RotationConstraints, RotationDirection, plan_rotation
from frmsim.sim import calibrate_session_length_effect, run_scenario
from frmsim.vigilance import (
    Feed,
    OrdRating,
    RaterProfile,
    aggregate,
    assign_rating_tasks,
    rate,
)

from logchecks import (
    assert_log_conserved,
    batch_kappa,
    cfg_with,
    incautious_vs_hazard,
    read_log,
    z_score,
)

# Logs produced by criteria 7-9, swept by the conservation criterion.
PRODUCED_LOGS: list[tuple[str, Iterable[Event]]] = []


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {description}", flush=True)


def test_01_rotation_reproduction(capsys):
    plan = plan_rotation(8 * 60, 12 * 60, RotationConstraints(max_forward_step_per_day=120))
    assert len(plan.transitions) == 2
    assert all(
        t.direction is RotationDirection.FORWARD and t.step_min == 120
        for t in plan.transitions
    )
    assert [s.start_min for s in plan.shifts] == [480, 600, 720]
    assert main(["plan-rotation", "--current", "08:00", "--target", "12:00"]) == 0
    cli_out = capsys.readouterr().out
    assert cli_out.count("forward +120 min") == 2
    with capsys.disabled():
        _report(1, "08:00->12:00 plans exactly two +120 min transition days")


def test_02_pfs_threshold_behavior(capsys):
    for kss in range(1, 10):
        for is_followup in (False, True):
            _, outcome = submit_pfs(
                "as-0",
                kss,
                0.0,
                is_followup=is_followup,
                triggered_by="prior" if is_followup else None,
            )
            if kss < 6:
                assert outcome.action is PfsAction.NONE
            elif is_followup:
                assert outcome.action is PfsAction.SUPERVISOR_OUTREACH
            else:
                assert outcome.action is PfsAction.SUGGEST_BREAK_AND_FOLLOWUP
    with capsys.disabled():
        _report(2, "all 18 (kss, follow-up) outcome cases match the rules")


def test_03_ict_escalation_property(capsys):
    cfg = EngagementConfig(jitter=0.0)
    rng = random.Random(0xACCE97)
    sequences = 10_000
    for _ in range(sequences):
        state = IctSchedulerState(specialist_id="as-0")
        now = 0.0
        interventions = 0
        followup_deadline_misses = 0
        for _ in range(rng.randint(2, 12)):
            now += rng.uniform(1.0, 900.0)
            if state.pending is None:
                # Standing still: only the time gap can issue a prompt.
                due, trigger = ict_due(state, now, 0.0, 0.0, cfg)
                if due == now:
                    ict_issue(state, now, trigger, cfg)
                continue
            pending = state.pending
            was_followup = pending.is_followup
            signal = rng.choice(("responded", "deadline_passed", "demand_rose"))
            if signal == "responded":
                result = ict_resolve(
                    state,
                    signal,
                    min(now, pending.deadline),
                    cfg,
                    latency_s=rng.uniform(0.0, cfg.response_deadline_s - 1.0),
                )
            elif signal == "deadline_passed":
                result = ict_resolve(state, signal, pending.deadline + 1.0, cfg)
                now = max(now, pending.deadline + 1.0)
            else:
                result = ict_resolve(state, signal, now, cfg)
            if result.followup is not None:
                assert result.followup.issued_at > pending.deadline
            if signal == "deadline_passed" and was_followup:
                followup_deadline_misses += 1
                assert result.intervention is not None
            if result.intervention is not None:
                interventions += 1
                assert signal == "deadline_passed" and was_followup
            if signal == "demand_rose":
                assert result.intervention is None
                assert result.record.outcome.value == "voided_by_demand"
        assert interventions == followup_deadline_misses
    with capsys.disabled():
        _report(3, f"{sequences} sequences: intervention iff follow-up deadline miss")


def test_04_blinding_structural(capsys):
    rng = random.Random(4)
    pool = [RaterProfile(rater_id=f"r{i}") for i in range(5)]
    escalated = assign_rating_tasks(
        pool, [Feed("as-0", 0.0, 60.0, escalated=True)], 3, rng
    )[0].to_record()
    periodic = assign_rating_tasks(pool, [Feed("as-0", 60.0, 120.0)], 3, rng)[0].to_record()
    assert set(escalated.keys()) == set(periodic.keys())
    for record in (escalated, periodic):
        assert {type(v).__name__ for v in record.values()} <= {"str", "float", "list", "int"}
        blob = json.dumps(record).lower()
        for marker in ("escalat", "periodic", "origin", "route", "flag"):
            assert marker not in blob
    with capsys.disabled():
        _report(4, "escalated and periodic rating tasks serialize identically")


def test_05_multi_rater_dominance(capsys):
    rng = random.Random(5)
    raters = [RaterProfile(rater_id=f"r{i}", bias=0.0, noise_sd=0.8) for i in range(3)]
    trials = 1_000
    from frmsim.vigilance import RatingTask

    task = RatingTask(
        task_id="t",
        specialist_id="as-0",
        window_start=0.0,
        window_end=60.0,
        assigned_rater_ids=("r0", "r1", "r2"),
    )
    for true_level in range(1, 6):
        single_abs = 0.0
        aggregate_abs = 0.0
        for _ in range(trials):
            single_abs += abs(rate(raters[0], task, true_level, rng).level - true_level)
            trio = [rate(r, task, true_level, rng) for r in raters]
            aggregate_abs += abs(aggregate(trio) - true_level)
        assert aggregate_abs / trials < single_abs / trials, (
            f"aggregate MAE not below single-rater MAE at level {true_level}"
        )
    with capsys.disabled():
        _report(5, f"3-rater aggregate MAE < single-rater MAE at all 5 levels ({trials}/level)")


def test_06_reliability_statistic(capsys):
    rng = random.Random(6)
    identical = []
    for i in range(200):
        level = rng.randint(1, 5)
        for rater in ("a", "b", "c"):
            identical.append(
                OrdRating(rater_id=rater, task_id=f"t{i}", level=level, indicators=frozenset())
            )
    assert batch_kappa(identical) == 1.0

    independent = []
    for i in range(10_000):
        for rater in ("a", "b"):
            independent.append(
                OrdRating(
                    rater_id=rater,
                    task_id=f"u{i}",
                    level=rng.randint(1, 5),
                    indicators=frozenset(),
                )
            )
    statistic = batch_kappa(independent)
    assert abs(statistic) < 0.05
    with capsys.disabled():
        _report(6, f"identical raters -> 1.0 exactly; uniform raters -> |k|={abs(statistic):.4f}")


def test_07_session_length_calibration(capsys):
    cfg = default_config(seed=1).with_overrides(toggles=Toggles.all_off())
    result = calibrate_session_length_effect(cfg)
    assert result.converged
    assert abs(result.ratio - 6.0) <= 1e-4
    # The baseline run under the fitted hazard, traced every minute, shows
    # the fitted rates: its incautious count lies within 4 SD of their sum.
    # Its log feeds the conservation sweep.
    data = cfg.to_dict()
    data["hazard"] = {
        "base_per_min": result.hazard.base_per_min,
        "task_load_gain": result.hazard.task_load_gain,
        "alertness_gain": result.hazard.alertness_gain,
    }
    data["sample_period_s"] = 60
    log, metrics = run_scenario(ScenarioConfig.from_dict(data))
    assert metrics.time_at_ord_ge4_min > 0
    observed, expected, variance = incautious_vs_hazard(result.hazard, log)
    z = z_score(observed, expected, variance)
    assert abs(z) <= 4
    PRODUCED_LOGS.append(("calibration_baseline", log))
    with capsys.disabled():
        _report(
            7,
            "calibrated hazard: ratio %.4f; simulated incautious %d against %.1f expected (z %+.2f)"
            % (result.ratio, observed, expected, z),
        )


def _sign_test_p(wins: int, n: int) -> float:
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n


def test_08_ablation_direction(capsys):
    n_pairs = 20
    time_wins = 0
    rate_wins = 0
    off_times = []
    on_times = []
    off_rates = []
    on_rates = []
    for i in range(n_pairs):
        seed = 9000 + i
        off_cfg = default_config(seed=seed).with_overrides(toggles=Toggles.all_off())
        on_cfg = default_config(seed=seed)
        log_off, m_off = run_scenario(off_cfg)
        log_on, m_on = run_scenario(on_cfg)
        PRODUCED_LOGS.append((f"ablation_off_{seed}", log_off))
        PRODUCED_LOGS.append((f"ablation_on_{seed}", log_on))
        off_times.append(m_off.time_at_ord_ge4_min)
        on_times.append(m_on.time_at_ord_ge4_min)
        off_rates.append(m_off.incautious_rate_per_h)
        on_rates.append(m_on.incautious_rate_per_h)
        time_wins += m_on.time_at_ord_ge4_min < m_off.time_at_ord_ge4_min
        rate_wins += m_on.incautious_rate_per_h < m_off.incautious_rate_per_h
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(on_times) < mean(off_times)
    assert mean(on_rates) < mean(off_rates)
    assert time_wins == n_pairs or _sign_test_p(time_wins, n_pairs) < 0.01
    assert rate_wins == n_pairs or _sign_test_p(rate_wins, n_pairs) < 0.01
    with capsys.disabled():
        _report(
            8,
            "full FRM vs all-off over %d paired seeds: time %d/%d wins "
            "(mean %.1f vs %.1f min), incautious %d/%d wins"
            % (
                n_pairs,
                time_wins,
                n_pairs,
                mean(on_times),
                mean(off_times),
                rate_wins,
                n_pairs,
            ),
        )


def test_09_simulate_determinism(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(default_config(seed=77).to_json())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
    capsys.readouterr()
    bytes_a = (out_a / "events.jsonl").read_bytes()
    bytes_b = (out_b / "events.jsonl").read_bytes()
    assert bytes_a == bytes_b
    import hashlib

    digest_a = hashlib.sha256(bytes_a).hexdigest()
    digest_b = hashlib.sha256(bytes_b).hexdigest()
    assert digest_a == digest_b
    PRODUCED_LOGS.append(("determinism_a", read_log(bytes_a)[1]))
    PRODUCED_LOGS.append(("determinism_b", read_log(bytes_b)[1]))
    with capsys.disabled():
        _report(9, f"two simulate executions share digest {digest_a[:12]}...")


def test_10_conservation_suite(capsys):
    assert PRODUCED_LOGS, "criteria 7-9 must register their logs first"
    for name, log in PRODUCED_LOGS:
        assert_log_conserved(log)
    with capsys.disabled():
        _report(
            10,
            f"{len(PRODUCED_LOGS)} logs: every prompt/alert/case terminates once, "
            "timestamps non-decreasing",
        )


def test_11_fatigue_model_numerics(capsys):
    params = ModelParams()
    # Exponential recovery against the closed form, 1e-9 relative.
    ctx = FatigueContext(on_task=False, in_break=True)
    _, _, task_load = advance_components(0.2, 8.0, 1.0, 20 * 60, ctx, params)
    expected = math.exp(-1.0)
    assert abs(task_load - expected) / expected < 1e-9

    # Eight monotonous hours, 60 s steps, pointwise non-increasing.
    state = (0.1, 20.0, 0.0)
    ctx = FatigueContext(on_task=True, monotony=1.0)
    previous = compose_alertness(*state, params)
    for _ in range(8 * 60):
        state = advance_components(*state, 60, ctx, params)
        alertness = compose_alertness(*state, params)
        assert alertness <= previous + 1e-12
        previous = alertness

    # Self-report and observer scales: endpoints and monotonicity.
    quiet = ModelParams(report_noise_sd=0.0)
    rng = random.Random(0)
    assert to_kss(1.0, rng, quiet) == 1
    assert to_kss(0.0, rng, quiet) == 9
    assert to_ord_truth(1.0) == 1
    assert to_ord_truth(0.0) == 5
    last_kss, last_ord = 0, 0
    for i in range(101):
        kss = to_kss(1.0 - i / 100, rng, quiet)
        level = to_ord_truth(1.0 - i / 100)
        assert kss >= last_kss and level >= last_ord
        last_kss, last_ord = kss, level
    with capsys.disabled():
        _report(11, "recovery matches closed form at 1e-9; traces and scales monotone")
