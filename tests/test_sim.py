import dataclasses
import importlib.util
import json
import math
import random
import statistics
from pathlib import Path

import pytest

from frmsim.config import ConfigError, ScenarioConfig, Toggles, default_config
from frmsim.events import EventLog, LogParseError
from frmsim.metrics import DETECTION_GRACE_S, compute_metrics
from frmsim.sim import (
    ScenarioRunner,
    calibrate_session_length_effect,
    run_ablation,
    run_scenario,
    session_length_stats,
)

from configs import odd_shift_configs, random_config, reassignment_config
from logchecks import (
    BLOCK_RECORD_TYPES,
    assert_log_conserved,
    cfg_with,
    fold_state_samples,
    only,
)


def fatigued_cfg(seed=0, **extra):
    overrides = {
        "fleet": [
            {
                "specialist_id": "as-0",
                "susceptibility": 1.4,
                "initial_sleep_pressure": 0.5,
                "stage": "single_qualified",
                "dual": False,
            }
        ],
        "behavior.monotony": 1.0,
        "horizon_days": 2,
    }
    overrides.update(extra)
    return cfg_with(seed=seed, **overrides)


def generated_config(seed: int, draw: int) -> ScenarioConfig:
    """Draw ``draw`` (0-based) of ``random_config`` for generator ``seed``."""
    rng = random.Random(seed)
    for _ in range(draw + 1):
        data = random_config(rng)
    return ScenarioConfig.from_dict(data)


# -- determinism and replay ---------------------------------------------------


def test_identical_config_identical_log():
    cfg = default_config(seed=31)
    log_a, metrics_a = run_scenario(cfg)
    log_b, metrics_b = run_scenario(cfg)
    assert log_a.digest() == log_b.digest()
    assert metrics_a == metrics_b


def test_different_seed_different_log():
    a, _ = run_scenario(default_config(seed=1))
    b, _ = run_scenario(default_config(seed=2))
    assert a.digest() != b.digest()


def test_log_roundtrip_preserves_digest():
    log, _ = run_scenario(default_config(seed=5))
    parsed = EventLog.from_jsonl(log.to_jsonl())
    assert parsed.digest() == log.digest()


def test_horizon_zero_empty_log_zero_metrics():
    cfg = cfg_with(seed=0, horizon_days=0)
    log, metrics = run_scenario(cfg)
    assert len(log) == 0
    assert metrics.time_at_ord_ge4_min == 0
    assert metrics.incautious_events == 0
    assert metrics.fatigue_event_count == 0
    assert metrics.mean_detection_latency_s is None


def test_header_carries_seed_and_config_hash():
    cfg = default_config(seed=9)
    log, _ = run_scenario(cfg)
    header, *records = [json.loads(line) for line in log.to_jsonl().splitlines()]
    assert header == {
        "data": {"config_hash": cfg.config_hash(), "schema_version": 2, "seed": 9},
        "specialist": None,
        "t": 0,
        "type": "log_header",
    }
    assert len(records) == len(log)
    for record in records:
        assert record.keys() == {"data", "specialist", "t", "type"}


# -- conservation and ordering ------------------------------------------------


def test_generated_logs_are_conserved():
    for seed in (0, 1, 2):
        log, _ = run_scenario(fatigued_cfg(seed=seed))
        assert_log_conserved(log)
    log, _ = run_scenario(
        fatigued_cfg(seed=3, toggles=Toggles.all_off().__dict__)
    )
    assert_log_conserved(log)


def test_toggle_isolation_per_block():
    base = fatigued_cfg(seed=4)
    for block, owned_types in BLOCK_RECORD_TYPES.items():
        toggles = Toggles(**{name: name != block for name in BLOCK_RECORD_TYPES})
        cfg = base.with_overrides(toggles=toggles)
        log, _ = run_scenario(cfg)
        present = {e.type for e in log}
        assert not (present & owned_types), (
            f"{block} disabled but produced {present & owned_types}"
        )


def test_bench_block_table_matches_the_tests():
    # The benchmark checks block isolation with its own copy of the table.
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.BLOCK_RECORD_TYPES == BLOCK_RECORD_TYPES


def test_each_block_alone_produces_its_records():
    for block in ("awareness", "vigilance", "engagement", "scheduling"):
        cfg = fatigued_cfg(seed=5).with_overrides(toggles=only(block))
        log, _ = run_scenario(cfg)
        present = {e.type for e in log}
        assert present & BLOCK_RECORD_TYPES[block], f"{block} produced nothing"


def test_route_two_supervisor_action_precedes_validation_ratings():
    # Silence the detector so escalations only arise from periodic ratings.
    cfg = fatigued_cfg(
        seed=6,
        **{
            "dms.false_negative_rate": 1.0,
            "dms.false_positive_rate": 0.0,
            "vigilance.periodic_cadence_min": 10.0,
        },
    )
    log, _ = run_scenario(cfg)
    opened = {
        e.data["case_id"]: e.time
        for e in log
        if e.type == "escalation_opened" and e.data["route"] == "route_two"
    }
    assert opened, "no route-two case was exercised"
    actions = {
        e.data["case_id"]: e.time for e in log if e.type == "supervisor_action"
    }
    resolved = {
        e.data["case_id"]: e.time
        for e in log
        if e.type == "escalation_resolved" and e.data["route"] == "route_two"
    }
    for case_id, opened_at in opened.items():
        assert actions[case_id] == opened_at
        assert resolved[case_id] > actions[case_id]
    # Validation ratings land at resolution time, after the check-in.
    rating_times = [e.time for e in log if e.type == "rating"]
    for case_id in opened:
        later = [t for t in rating_times if t == resolved[case_id]]
        assert later, "validation ratings missing at resolution time"


def test_every_alert_names_three_modalities_once_per_flag():
    log, _ = run_scenario(fatigued_cfg(seed=2, **{"dms.false_positive_rate": 0.5}))
    flags = [(e.time, e.specialist, e.data["flag_id"]) for e in log if e.type == "dms_flag"]
    alerts = [e for e in log if e.type == "alert"]
    assert flags, "no detector flag was raised"
    assert [(e.time, e.specialist, e.data["flag_id"]) for e in alerts] == flags
    assert len({e.data["flag_id"] for e in alerts}) == len(alerts)
    for alert in alerts:
        assert alert.data["modalities"] == ["tone", "vibration", "light"]


def test_impromptu_break_and_reassignment_records():
    cfg = reassignment_config(seed=0)
    log, _ = run_scenario(cfg)
    changes = [e for e in log if e.type == "assignment_change"]
    assert changes, "no specialist was reassigned"
    for change in changes:
        assert change.data["from_assignment"] == "driving"
        assert change.data["to_assignment"] == "auxiliary"

    cfg = cfg.with_overrides(seed=1)
    cfg = dataclasses.replace(
        cfg,
        behavior=dataclasses.replace(cfg.behavior, impromptu_p=1.0, impromptu_kss_threshold=1),
    )
    log, _ = run_scenario(cfg)
    requested = [e.time for e in log if e.type == "impromptu_break"]
    starts = [
        e for e in log if e.type == "break_start" and e.data["reason"] == "self_assessed_fatigue"
    ]
    assert requested and [e.time for e in starts] == requested
    for start in starts:
        assert start.data["initiator"] == "self"
        assert start.data["duration_min"] == cfg.breaks.duration_min


# One-second breaks that start at every minute check.
BREAK_EVERY_MINUTE = {
    "breaks.duration_min": 1 / 60,
    "behavior.impromptu_check_min": 1.0,
    "behavior.impromptu_kss_threshold": 1,
    "behavior.impromptu_p": 1.0,
}


def test_break_request_due_as_a_break_ends_is_dropped():
    # A requested break falls due in the second an earlier break ends,
    # before that break's end item runs. It is dropped, so no break opens
    # inside another.
    log, _ = run_scenario(cfg_with(seed=0, **BREAK_EVERY_MINUTE))
    initiators = {e.data["initiator"] for e in log if e.type == "break_start"}
    assert {"self", "pfs"} <= initiators
    assert_log_conserved(log)


def test_items_a_guard_drops_count_as_stale():
    # With engagement off no item carries a generation token, so every
    # stale item is a break or survey item whose handler logs nothing.
    runner = ScenarioRunner(
        cfg_with(seed=0, **BREAK_EVERY_MINUTE, **{"toggles.engagement": False})
    )
    silent = 0

    def counted(handler):
        def run(t, **payload):
            nonlocal silent
            before = len(runner.log)
            handler(t, **payload)
            silent += len(runner.log) == before

        return run

    for kind in ("break_start", "break_end", "pfs_regular", "pfs_followup", "pfs_reminder"):
        name = "_on_" + kind
        setattr(runner, name, counted(getattr(runner, name)))
    runner.run()
    assert silent > 0
    assert runner.stats()["stale_items_dropped"] == silent


def test_followup_survey_is_not_carried_into_the_next_shift():
    # as-1 complied with a high self-report (pfs-as-1-154, t=91380) and
    # was on that break when the first shift ended. The first break end
    # of the next shift used to schedule a follow-up to it
    # (pfs-as-1-244, t=173940).
    log, _ = run_scenario(generated_config(11, 33))
    followups = [e for e in log if e.type == "pfs" and e.data["is_followup"]]
    assert followups
    assert "pfs-as-1-154" not in {e.data["triggered_by"] for e in followups}
    assert_log_conserved(log)


def test_secondary_alerts_stay_inside_the_shift():
    # 900 s alerts at 12 transitions an hour: some are still open when
    # the shift ends and resolve then, with the outcome drawn at the
    # transition; none is issued at or after the shift end.
    log, _ = run_scenario(list(odd_shift_configs())[4])
    starts = sorted({e.time for e in log if e.type == "shift_start"})
    ends = sorted({e.time for e in log if e.type == "shift_end"})
    shifts = list(zip(starts, ends))
    for e in log:
        if e.type == "sa_issued":
            assert any(start <= e.time < end for start, end in shifts), e
        elif e.type == "sa_resolved":
            assert any(start <= e.time <= end for start, end in shifts), e
    assert set(ends) & {e.time for e in log if e.type == "sa_resolved"}
    assert_log_conserved(log)


def test_self_reported_fatigue_preempts_pending_validation():
    # Long validation latency keeps cases pending; a high self-report
    # inside the window still takes its break without waiting.
    cfg = fatigued_cfg(
        seed=7,
        **{
            "dms.false_positive_rate": 1.0,
            "vigilance.rating_latency_s": 600.0,
            "vigilance.flag_cooldown_min": 1.0,
            "pfs.cadence_min": 20.0,
            "pfs.break_compliance": 1.0,
        },
    )
    log, _ = run_scenario(cfg)
    pending = []  # (open_t, resolve_t)
    opens = {
        e.data["case_id"]: e.time for e in log if e.type == "escalation_opened"
    }
    for e in log:
        if e.type == "escalation_resolved":
            pending.append((opens[e.data["case_id"]], e.time))
    breaks = [e.time for e in log if e.type == "break_start" and e.data["initiator"] == "pfs"]
    preempting = [
        b
        for b in breaks
        if any(open_t < b < resolve_t for open_t, resolve_t in pending)
    ]
    assert preempting, "no self-report break landed inside a pending validation"


# -- metrics -------------------------------------------------------------------


def _hand_log(records):
    log = EventLog(seed=0, config_hash="x")
    for time, type_, specialist, data in records:
        log.append(time, type_, specialist, **data)
    return log


def test_detection_latency_from_hand_built_log():
    log = _hand_log(
        [
            (0, "shift_start", "as-0", {"day": 0, "dual": False}),
            (0, "ord_change", "as-0", {"ord": 3, "on_task": True}),
            (60, "ord_change", "as-0", {"ord": 4, "on_task": True}),
            (
                150,
                "escalation_resolved",
                "as-0",
                {
                    "case_id": "c0",
                    "route": "route_one",
                    "trigger": "dms_flag",
                    "validated_level": 4,
                    "resolution": "confirmed",
                    "supervisor_action": "invite_break",
                },
            ),
            (180, "ord_change", "as-0", {"ord": 3, "on_task": True}),
            (180, "shift_end", "as-0", {}),
        ]
    )
    metrics = compute_metrics(log)
    assert metrics.mean_detection_latency_s == 90.0
    assert metrics.time_at_ord_ge4_min == 2.0


def test_ord_change_spans_run_to_the_next_change_or_the_shift_end():
    log = _hand_log(
        [
            (0, "shift_start", "as-0", {"day": 0, "dual": False}),
            (0, "ord_change", "as-0", {"ord": 4, "on_task": True}),
            (120, "ord_change", "as-0", {"ord": 4, "on_task": False}),
            (300, "ord_change", "as-0", {"ord": 5, "on_task": True}),
            (420, "shift_end", "as-0", {}),
        ]
    )
    metrics = compute_metrics(log)
    # 2 minutes, then 0 off task, then 2 minutes plus the shift end's tick.
    assert metrics.on_task_min == 5.0
    assert metrics.time_at_ord_ge4_min == 5.0


def test_episode_closes_at_the_shift_end():
    # as-0 reaches ORD 4 on task at t=22980 and is still there when the
    # first shift ends at t=23580; the next record of theirs is ORD 2 at
    # the next shift start, t=104160. The episode closes with the span,
    # at 23640, so only a confirmation within the grace after that
    # detects it, in the fold and in the oracle's fold of the trace.
    cfg = dataclasses.replace(generated_config(11, 28), sample_period_s=60)
    log, metrics = run_scenario(cfg)
    assert metrics.mean_detection_latency_s is None

    def latencies_with_confirmation_at(when):
        confirmed = EventLog(seed=log.seed, config_hash=log.config_hash)
        pending = True
        for event in log:
            if pending and event.time > when:
                pending = False
                confirmed.append(
                    when, "escalation_resolved", "as-0", resolution="confirmed"
                )
            confirmed.append(event.time, event.type, event.specialist, **event.data)
        return (
            compute_metrics(confirmed).mean_detection_latency_s,
            fold_state_samples(confirmed)["mean_detection_latency_s"],
        )

    assert latencies_with_confirmation_at(23640 + DETECTION_GRACE_S) == (960, 960)
    assert latencies_with_confirmation_at(23641 + DETECTION_GRACE_S) == (None, None)
    assert latencies_with_confirmation_at(104160) == (None, None)


@pytest.mark.parametrize(
    "records",
    [
        [(0, "shift_start", "as-0", {}), (60, "shift_end", "as-0", {})],
        [(0, "ord_change", "as-0", {"ord": 1, "on_task": True})],
    ],
    ids=["shift_without_ord_change", "span_without_shift_end"],
)
def test_unfoldable_ord_spans_rejected(records):
    with pytest.raises(ValueError):
        compute_metrics(_hand_log(records))


def test_empty_log_zero_metrics():
    metrics = compute_metrics(EventLog(seed=0, config_hash="x"))
    assert metrics.time_at_ord_ge4_min == 0.0
    assert metrics.incautious_events == 0
    assert metrics.on_task_min == 0.0


def test_metrics_recomputed_from_disk_match():
    cfg = fatigued_cfg(seed=8)
    log, metrics = run_scenario(cfg)
    again = compute_metrics(EventLog.from_jsonl(log.to_jsonl()))
    assert again == metrics


def test_malformed_record_rejected():
    log = _hand_log([(0, "ord_change", "as-0", {"on_task": True})])
    with pytest.raises(ValueError):
        compute_metrics(log)


def test_session_bucketing():
    log = _hand_log(
        [
            (0, "session_end", "as-0", {"duration_min": 10.0, "had_incautious": True, "cause": "x"}),
            (10, "session_end", "as-0", {"duration_min": 20.0, "had_incautious": False, "cause": "x"}),
            (20, "session_end", "as-0", {"duration_min": 45.0, "had_incautious": True, "cause": "x"}),
        ]
    )
    metrics = compute_metrics(log)
    stats = dict(metrics.incautious_by_session)
    assert stats["lt15"].sessions == 1 and stats["lt15"].with_event == 1
    assert stats["b15to30"].sessions == 1 and stats["b15to30"].with_event == 0
    assert stats["gt30"].sessions == 1 and stats["gt30"].with_event == 1


# -- event log --------------------------------------------------------------


def test_event_log_rejects_time_regression():
    log = EventLog(seed=0, config_hash="x")
    log.append(10, "a")
    with pytest.raises(ValueError):
        log.append(9, "b")


def test_parse_error_reports_line_number():
    log = EventLog(seed=0, config_hash="x")
    log.append(0, "a")
    log.append(1, "b")
    text = log.to_jsonl()
    truncated = text[:-20]
    with pytest.raises(LogParseError) as excinfo:
        EventLog.from_jsonl(truncated)
    # Line 1 is the header; "b" is on line 3.
    assert excinfo.value.line_number == 3


def test_parse_error_on_missing_fields():
    with pytest.raises(LogParseError) as excinfo:
        EventLog.from_jsonl('{"t": 0}\n')
    assert excinfo.value.line_number == 1


# -- ablation --------------------------------------------------------------


def test_ablation_pairs_seeds_and_shapes():
    cfg = default_config(seed=50)
    result = run_ablation(
        cfg,
        [("off", Toggles.all_off()), ("on", Toggles.all_on())],
        n_seeds=3,
    )
    assert result.seeds == (50, 51, 52)
    rows = result.deltas()
    assert len(rows) == len(result.metric_names) * 3
    csv_text = result.to_csv()
    assert csv_text.count("\n") == len(rows) + 1


def test_identical_toggle_sets_zero_deltas():
    cfg = default_config(seed=60)
    result = run_ablation(
        cfg,
        [("a", Toggles.all_on()), ("b", Toggles.all_on())],
        n_seeds=2,
    )
    assert all(row["delta"] == 0.0 for row in result.deltas())


def test_ablation_requires_two_sets():
    with pytest.raises(ValueError):
        run_ablation(default_config(seed=0), [("only", Toggles.all_on())], n_seeds=1)


def test_engagement_toggle_reduces_high_drowsiness_time():
    deltas = []
    for seed in range(70, 76):
        off = default_config(seed=seed).with_overrides(toggles=Toggles.all_off())
        ict = default_config(seed=seed).with_overrides(toggles=only("engagement"))
        _, m_off = run_scenario(off)
        _, m_ict = run_scenario(ict)
        deltas.append(m_ict.time_at_ord_ge4_min - m_off.time_at_ord_ge4_min)
    assert statistics.mean(deltas) < 0


# -- calibration --------------------------------------------------------------


def test_calibration_reaches_targets():
    cfg = default_config(seed=0).with_overrides(toggles=Toggles.all_off())
    result = calibrate_session_length_effect(cfg, sessions_per_bucket=2000)
    assert result.converged
    assert 5.0 <= result.ratio <= 7.0
    assert abs(result.exact_short - 0.11) < 1e-6
    assert abs(result.exact_long - 0.66) < 1e-6
    assert abs(result.mc_short - 0.11) < 0.08
    assert abs(result.mc_long - 0.66) < 0.08
    short, long_, ratio = session_length_stats(cfg, result.hazard)
    assert ratio == pytest.approx(result.ratio)


def test_flat_hazard_null_model_cannot_calibrate():
    cfg = default_config(seed=0).with_overrides(toggles=Toggles.all_off())
    result = calibrate_session_length_effect(
        cfg, sessions_per_bucket=500, task_load_gain_override=0.0
    )
    assert not result.converged
    assert result.ratio < 5.0
    assert result.hazard.task_load_gain == 0.0


def test_calibration_requires_countermeasures_off():
    with pytest.raises(ConfigError):
        calibrate_session_length_effect(default_config(seed=0))


# -- shift loop ---------------------------------------------------------------


def test_engagement_off_visits_only_minute_ticks_and_items():
    cfg = default_config(seed=0).with_overrides(toggles=Toggles(engagement=False))
    stats = {}
    run_scenario(cfg, stats=stats)
    minute_ticks = cfg.shift.duration_min + 1
    assert minute_ticks <= stats["seconds_visited"] < 2 * minute_ticks


def test_all_on_visits_only_minute_ticks_and_items():
    # Engagement work is scheduled too, so no second is visited for
    # anything but a minute tick or a heap item. The minute checks and
    # the scheduled breaks, which fall on minute ticks, are heap items
    # themselves, so the other items may add at most one second each.
    for cfg in (default_config(seed=0), *odd_shift_configs()):
        stats = {}
        run_scenario(cfg, stats=stats)
        breaks = stats["shifts_run"] * len(dict(cfg.shift.scheduled_breaks))
        assert stats["events_by_type"].get("ict_prompt", 0) > 0 or not cfg.toggles.engagement
        assert stats["seconds_visited"] <= stats["heap_items"] - breaks


def test_horizon_runs_only_shifts_that_drain_within_it():
    # The default 22:00 shift ends at 06:00 and drains until 06:30 the
    # next day, so two days hold one shift and three hold two.
    for days, shifts in ((1, 0), (2, 1), (3, 2)):
        stats = {}
        log, _ = run_scenario(default_config(seed=0, horizon_days=days), stats=stats)
        assert stats["shifts_run"] == shifts
        assert stats["shifts_skipped"] == days - shifts
        assert sum(1 for e in log if e.type == "shift_start") == shifts


def test_odometer_does_not_move_across_a_break():
    cfg = default_config(seed=0)
    runner = ScenarioRunner(cfg)
    agent = runner.agents[0]
    start = cfg.shift.start_min * 60
    runner._shift_end = start + cfg.shift.duration_min * 60
    runner._start_shift(agent, start)
    runner._start_break(agent, start + 600, 20, "scheduled", "scheduled")
    at_break = agent.current_odometer(start + 600)
    assert at_break == 600 * cfg.behavior.speed_mps
    runner._on_break_end(start + 1800, agent)
    assert agent.current_odometer(start + 1800) == at_break
    assert agent.current_odometer(start + 1860) == at_break + 60 * cfg.behavior.speed_mps


def test_response_deadline_under_a_second_counts_every_prompt_missed():
    # A response takes at least 1 s, so none can beat a 0.5 s deadline.
    log, _ = run_scenario(cfg_with(seed=0, **{"ict.response_deadline_s": 0.5}))
    outcomes = {e.data["outcome"] for e in log if e.type == "ict_outcome"}
    assert "missed" in outcomes
    assert "completed" not in outcomes


def _records_by_specialist(log):
    records = {}
    for e in log:
        records.setdefault(e.specialist, []).append((e.time, e.type, e.data))
    return records


def test_adding_a_specialist_leaves_the_others_unchanged():
    fleet = [
        {"specialist_id": f"as-{i}", "susceptibility": 0.9 + 0.1 * i, "dual": i == 1}
        for i in range(5)
    ]
    common = dict(
        seed=12,
        horizon_days=3,
        toggles=Toggles.all_off().__dict__,
        shift={"start_min": 1320, "duration_min": 480, "scheduled_breaks": [[240, 20]]},
    )
    four, _ = run_scenario(cfg_with(fleet=fleet[:4], **common))
    five, _ = run_scenario(cfg_with(fleet=fleet, **common))
    by_four, by_five = _records_by_specialist(four), _records_by_specialist(five)
    assert set(by_five) == set(by_four) | {"as-4"}
    for who, records in by_four.items():
        assert by_five[who] == records
    assert any(t == "incautious" for records in by_four.values() for _, t, _ in records)


@pytest.mark.parametrize(
    "section, field, value",
    [("sa", "issue_delay_s", 0.5), ("breaks", "duration_min", 0)],
)
def test_zero_delay_item_raises_instead_of_blocking_the_heap(monkeypatch, section, field, value):
    # Validation rejects these; bypass it to reach the loop's own guard.
    cfg = default_config(seed=3, horizon_days=4)
    bad = dataclasses.replace(
        cfg, **{section: dataclasses.replace(getattr(cfg, section), **{field: value})}
    )
    monkeypatch.setattr(ScenarioConfig, "validate", lambda self: None)
    with pytest.raises(RuntimeError, match="popped slot"):
        run_scenario(bad)


def test_item_outlasting_the_drain_raises(monkeypatch):
    # Validation rejects this; bypass it to reach the loop's own guard. A
    # validation latency longer than the shift carries every case past
    # the drain.
    cfg = default_config(seed=0, horizon_days=4)
    bad = dataclasses.replace(
        cfg, vigilance=dataclasses.replace(cfg.vigilance, rating_latency_s=36000.0)
    )
    monkeypatch.setattr(ScenarioConfig, "validate", lambda self: None)
    with pytest.raises(RuntimeError, match="outlast the drain"):
        run_scenario(bad)


# -- config ------------------------------------------------------------------


def test_config_json_roundtrip_preserves_hash():
    cfg = default_config(seed=123)
    restored = ScenarioConfig.from_json(cfg.to_json())
    assert restored == cfg
    assert restored.config_hash() == cfg.config_hash()


def test_config_rejects_duplicate_ids():
    data = default_config(seed=0).to_dict()
    data["fleet"] = data["fleet"] * 2
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


@pytest.mark.parametrize(
    "override",
    [
        # Delays and cadences that truncate to zero seconds, a delay that
        # is not finite, a cadence that is not a number, and a shift start
        # off the minute grid.
        {"sa.issue_delay_s": 0.5},
        {"breaks.duration_min": 0},
        {"vigilance.post_confirm_break_min": 0.01},
        {"pfs.followup_due_min": 0.01},
        {"sa.clear_timeout_s": 0.5},
        {"pfs.cadence_min": 0.001},
        {"sa.issue_delay_s": float("inf")},
        {"vigilance.periodic_cadence_min": "30"},
        {"shift": {"start_min": 1320.5, "duration_min": 480, "scheduled_breaks": []}},
        # Items that would fall due after the drain that follows a shift.
        {"sa.issue_delay_s": 1790.0, "sa.clear_timeout_s": 1790.0},
        {"vigilance.rating_latency_s": 1801.0},
        {"breaks.duration_min": 31.0},
        {"vigilance.post_confirm_break_min": 30.5},
        {"pfs.followup_due_min": 29.5},
        # Settings that are not finite, outside the whole-second checks.
        {"behavior.manual_period_s": float("inf")},
        {"vigilance.flag_cooldown_min": float("inf")},
        {"vigilance.rating_latency_s": float("nan")},
        {"raters": [{"rater_id": f"r{i}", "bias": float("nan") if i else 0.0} for i in range(6)]},
        {"horizon_days": float("inf")},
        # Demand windows need a period of at least 1 s, and the odometer
        # cannot run backwards.
        {"behavior.demand_period_min": 0},
        {"behavior.speed_mps": -1.0},
    ],
)
def test_config_rejects_settings_the_loop_cannot_honour(override):
    with pytest.raises(ConfigError):
        cfg_with(**override)


def test_config_rejects_unknown_fields():
    data = default_config(seed=0).to_dict()
    data["dms"]["mystery"] = 1
    with pytest.raises(ConfigError, match="config.dms.mystery"):
        ScenarioConfig.from_dict(data)


def test_generated_documents_round_trip_exactly():
    # Exactly: an integer in a float field stays an integer, so the
    # canonical JSON, and with it the config hash, is unchanged.
    rng = random.Random(23)
    valid = 0
    for _ in range(150):
        doc = random_config(rng)
        try:
            cfg = ScenarioConfig.from_dict(doc)
        except ConfigError:
            continue
        valid += 1
        assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(doc, sort_keys=True)
    assert valid >= 100
    doc = default_config(seed=0).to_dict()
    doc["behavior"]["speed_mps"] = 12
    cfg = ScenarioConfig.from_dict(doc)
    assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_omitted_field_takes_its_default():
    full = default_config(seed=0).to_dict()
    plain = ScenarioConfig()
    for name in full:
        if name in ("schema_version", "raters"):
            continue
        doc = {key: value for key, value in full.items() if key != name}
        assert getattr(ScenarioConfig.from_dict(doc), name) == getattr(plain, name)
    del full["fleet"][0]["susceptibility"]
    assert ScenarioConfig.from_dict(full).fleet[0].susceptibility == 1.0


def test_seed_override_changes_hash_only_via_dict():
    cfg = default_config(seed=1)
    other = cfg.with_overrides(seed=2)
    assert other.seed == 2
    assert other.config_hash() != cfg.config_hash()


def test_dual_flag_adds_peer_without_detection_benefit():
    single = fatigued_cfg(seed=9)
    data = single.to_dict()
    data["fleet"][0]["dual"] = True
    dual = ScenarioConfig.from_dict(data)
    log_s, m_s = run_scenario(single)
    log_d, m_d = run_scenario(dual)
    # The only new record type a peer can add is a concern ticket.
    extra_types = {e.type for e in log_d} - {e.type for e in log_s}
    assert extra_types <= {"concern"}


def test_baseline_high_drowsiness_matches_standalone_integration():
    # All countermeasures off, one specialist, an 8 h monotonous overnight
    # shift: time at ORD>=4 is positive and agrees with an independent
    # closed-form integration of the alertness dynamics.
    cfg = default_config(seed=0).with_overrides(toggles=Toggles.all_off())
    log, metrics = run_scenario(cfg)
    assert metrics.time_at_ord_ge4_min > 0

    m = cfg.model
    w1, w2, w3 = m.component_weights
    monotony = cfg.behavior.monotony
    start_h = cfg.shift.start_min / 60.0  # 22:00
    p0 = cfg.fleet[0].initial_sleep_pressure

    # Pre-shift: idle from midnight to sleep (9 h before start), 8 h of
    # sleep, one idle hour, each segment as one closed-form step.
    idle_h = start_h - 9.0
    pressure = 1.0 - (1.0 - p0) * math.exp(-idle_h / m.homeostat_rise_tau)
    pressure *= math.exp(-8.0 / m.homeostat_decay_tau)
    pressure = 1.0 - (1.0 - pressure) * math.exp(-1.0 / m.homeostat_rise_tau)

    expected_min = 0
    for k in range(cfg.shift.duration_min + 1):
        hours = k / 60.0
        p_k = 1.0 - (1.0 - pressure) * math.exp(-hours / m.homeostat_rise_tau)
        tl_k = 1.0 - math.exp(-m.task_load_rate * monotony * hours)
        phase = (start_h + hours) % 24.0
        dip = m.circadian_amplitude * 0.5 * (
            1.0 + math.cos(2.0 * math.pi * (phase - m.circadian_trough_hour) / 24.0)
        )
        alertness = 1.0 - min(1.0, w1 * p_k + w2 * dip + w3 * tl_k)
        if alertness < 0.4:
            expected_min += 1
    assert expected_min > 0
    assert abs(metrics.time_at_ord_ge4_min - expected_min) <= 2.0
