import json
import math
import random

import pytest

from frmsim.scheduling import (
    BreakPolicy,
    BreakSignalBundle,
    FatigueSeverity,
    InvalidTransitionError,
    LifecycleEvent,
    RotationConstraints,
    RotationDirection,
    ShiftSpec,
    SpecialistLifecycle,
    Stage,
    evaluate_break_triggers,
    lifecycle_step,
    plan_rotation,
    validate_rotation,
)

CONSTRAINTS = RotationConstraints()


# -- rotation planning --------------------------------------------------------


def test_four_hours_later_takes_two_even_steps():
    plan = plan_rotation(8 * 60, 12 * 60, CONSTRAINTS)
    assert len(plan.transitions) == 2
    assert all(t.direction is RotationDirection.FORWARD for t in plan.transitions)
    assert [t.step_min for t in plan.transitions] == [120, 120]
    assert [s.start_min for s in plan.shifts] == [480, 600, 720]
    assert [s.day_index for s in plan.shifts] == [0, 1, 2]


def test_equal_start_gives_empty_plan():
    plan = plan_rotation(8 * 60, 8 * 60, CONSTRAINTS)
    assert plan.transitions == ()
    assert len(plan.shifts) == 1


def test_backward_move_single_transition_with_extended_rest():
    plan = plan_rotation(8 * 60, 5 * 60, CONSTRAINTS)
    assert len(plan.transitions) == 1
    transition = plan.transitions[0]
    assert transition.direction is RotationDirection.BACKWARD
    assert transition.step_min == -180
    assert transition.extended_rest_min == 2880
    assert validate_rotation(plan, CONSTRAINTS) == []


def test_forward_plans_are_minimal_length():
    rng = random.Random(5)
    for _ in range(300):
        current = rng.randrange(0, 1440)
        max_step = rng.randrange(30, 300)
        delta = rng.randrange(1, 1440 - current) if current < 1439 else 1
        target = current + delta
        if target >= 1440:
            continue
        constraints = RotationConstraints(max_forward_step_per_day=max_step)
        plan = plan_rotation(current, target, constraints)
        assert len(plan.transitions) == math.ceil(delta / max_step)


def test_planner_output_always_validates():
    rng = random.Random(6)
    for _ in range(300):
        current = rng.randrange(0, 1440)
        target = rng.randrange(0, 1440)
        constraints = RotationConstraints(
            max_forward_step_per_day=rng.randrange(30, 300),
            min_extended_rest_min=rng.randrange(600, 4000),
            min_inter_shift_rest_min=rng.randrange(60, 720),
        )
        plan = plan_rotation(current, target, constraints)
        assert validate_rotation(plan, constraints) == []


def test_oversized_forward_step_flagged():
    from frmsim.scheduling import RotationPlan, Transition

    plan = RotationPlan(
        shifts=(
            ShiftSpec(day_index=0, start_min=480, end_min=960),
            ShiftSpec(day_index=1, start_min=720, end_min=1200),
        ),
        transitions=(
            Transition(direction=RotationDirection.FORWARD, step_min=240),
        ),
    )
    kinds = {v.kind for v in validate_rotation(plan, CONSTRAINTS)}
    assert "forward_step_too_large" in kinds


def test_backward_without_rest_flagged():
    from frmsim.scheduling import RotationPlan, Transition

    plan = RotationPlan(
        shifts=(
            ShiftSpec(day_index=0, start_min=480, end_min=960),
            ShiftSpec(day_index=1, start_min=300, end_min=780),
        ),
        transitions=(
            Transition(
                direction=RotationDirection.BACKWARD, step_min=-180, extended_rest_min=0
            ),
        ),
    )
    kinds = {v.kind for v in validate_rotation(plan, CONSTRAINTS)}
    assert "insufficient_extended_rest" in kinds


def test_short_inter_shift_rest_flagged():
    from frmsim.scheduling import RotationPlan, Transition

    # 14 h shifts back to back leave only 10 h minus the forward step.
    plan = RotationPlan(
        shifts=(
            ShiftSpec(day_index=0, start_min=480, end_min=(480 + 840) % 1440),
            ShiftSpec(day_index=1, start_min=580, end_min=(580 + 840) % 1440),
        ),
        transitions=(
            Transition(direction=RotationDirection.FORWARD, step_min=100),
        ),
    )
    constraints = RotationConstraints(min_inter_shift_rest_min=720)
    kinds = {v.kind for v in validate_rotation(plan, constraints)}
    assert "insufficient_inter_shift_rest" in kinds


def test_nonpositive_constraints_rejected():
    with pytest.raises(ValueError):
        RotationConstraints(max_forward_step_per_day=0)
    with pytest.raises(ValueError):
        RotationConstraints(min_extended_rest_min=-1)


def test_shift_spec_invariants():
    with pytest.raises(ValueError):
        ShiftSpec(day_index=0, start_min=480, end_min=480)  # zero length
    with pytest.raises(ValueError):
        ShiftSpec(day_index=0, start_min=0, end_min=900)  # 15 h
    with pytest.raises(ValueError):
        ShiftSpec(
            day_index=0, start_min=480, end_min=960, scheduled_breaks=((470, 20),)
        )
    wrap = ShiftSpec(day_index=0, start_min=1320, end_min=360)
    assert wrap.duration_min == 480


# -- smart breaks --------------------------------------------------------------


POLICY = BreakPolicy()


def test_high_kss_triggers_invited_break():
    offer = evaluate_break_triggers(
        BreakSignalBundle(latest_pfs_kss=6), POLICY, now_min=100.0
    )
    assert offer is not None
    assert offer.reason == "kss"


def test_benign_signals_no_break():
    assert (
        evaluate_break_triggers(BreakSignalBundle(), POLICY, now_min=100.0) is None
    )
    assert (
        evaluate_break_triggers(
            BreakSignalBundle(latest_pfs_kss=5, rater_level_recent=3),
            POLICY,
            now_min=100.0,
        )
        is None
    )


def test_each_signal_kind_triggers():
    for bundle, reason in (
        (BreakSignalBundle(rater_level_recent=4), "rater_level"),
        (BreakSignalBundle(dms_flag_recent=True), "dms_flag"),
        (BreakSignalBundle(ict_miss_rate_window=0.3), "ict_miss_rate"),
    ):
        offer = evaluate_break_triggers(bundle, POLICY, now_min=50.0)
        assert offer is not None and offer.reason == reason


def test_cooldown_debounces_invited_breaks():
    bundle = BreakSignalBundle(latest_pfs_kss=8)
    first = evaluate_break_triggers(bundle, POLICY, now_min=100.0)
    assert first is not None
    assert (
        evaluate_break_triggers(bundle, POLICY, now_min=130.0, last_invited_min=100.0)
        is None
    )
    later = evaluate_break_triggers(
        bundle, POLICY, now_min=161.0, last_invited_min=100.0
    )
    assert later is not None


# -- lifecycle ------------------------------------------------------------------


def test_trainee_cannot_skip_to_gateway():
    lc = SpecialistLifecycle(stage=Stage.TRAINEE)
    with pytest.raises(InvalidTransitionError):
        lifecycle_step(lc, LifecycleEvent.GATEWAY_PASSED)


def test_training_then_gateway_path():
    lc = SpecialistLifecycle(stage=Stage.TRAINEE)
    lc = lifecycle_step(lc, LifecycleEvent.TRAINING_COMPLETE)
    assert lc.stage is Stage.DUAL_QUALIFIED
    lc = lifecycle_step(lc, LifecycleEvent.GATEWAY_PASSED)
    assert lc.stage is Stage.SINGLE_QUALIFIED


def test_three_severe_events_force_retraining():
    lc = SpecialistLifecycle(stage=Stage.SINGLE_QUALIFIED)
    for day in (1.0, 2.0):
        lc = lifecycle_step(
            lc, LifecycleEvent.FATIGUE_EVENT, day, severity=FatigueSeverity.SEVERE
        )
        assert lc.stage is Stage.SINGLE_QUALIFIED
    lc = lifecycle_step(
        lc, LifecycleEvent.FATIGUE_EVENT, 3.0, severity=FatigueSeverity.SEVERE
    )
    assert lc.stage is Stage.RETRAINING
    assert lc.return_stage is Stage.SINGLE_QUALIFIED


def test_six_any_severity_events_force_retraining():
    lc = SpecialistLifecycle(stage=Stage.DUAL_QUALIFIED)
    for day in range(5):
        lc = lifecycle_step(
            lc,
            LifecycleEvent.FATIGUE_EVENT,
            float(day),
            severity=FatigueSeverity.MODERATE,
        )
        assert lc.stage is Stage.DUAL_QUALIFIED
    lc = lifecycle_step(
        lc, LifecycleEvent.FATIGUE_EVENT, 5.0, severity=FatigueSeverity.MODERATE
    )
    assert lc.stage is Stage.RETRAINING


def test_window_expires_old_events():
    lc = SpecialistLifecycle(stage=Stage.SINGLE_QUALIFIED)
    lc = lifecycle_step(
        lc, LifecycleEvent.FATIGUE_EVENT, 0.0, severity=FatigueSeverity.SEVERE
    )
    lc = lifecycle_step(
        lc, LifecycleEvent.FATIGUE_EVENT, 1.0, severity=FatigueSeverity.SEVERE
    )
    # Third severe event lands after the first two leave the 30-day window.
    lc = lifecycle_step(
        lc, LifecycleEvent.FATIGUE_EVENT, 40.0, severity=FatigueSeverity.SEVERE
    )
    assert lc.stage is Stage.SINGLE_QUALIFIED


def test_retraining_returns_to_prior_stage():
    lc = SpecialistLifecycle(stage=Stage.DUAL_QUALIFIED)
    for day in (0.0, 1.0, 2.0):
        lc = lifecycle_step(
            lc, LifecycleEvent.FATIGUE_EVENT, day, severity=FatigueSeverity.SEVERE
        )
    assert lc.stage is Stage.RETRAINING
    assert lc.return_stage is Stage.DUAL_QUALIFIED
    lc = lifecycle_step(lc, LifecycleEvent.RETRAINING_COMPLETE)
    assert lc.stage is Stage.DUAL_QUALIFIED


def test_supportive_actions_exhausted_suspends():
    lc = SpecialistLifecycle(stage=Stage.SINGLE_QUALIFIED)
    lc = lifecycle_step(lc, LifecycleEvent.SUPPORTIVE_ACTIONS_EXHAUSTED)
    assert lc.stage is Stage.SUSPENDED
    with pytest.raises(InvalidTransitionError):
        lifecycle_step(lc, LifecycleEvent.SUPPORTIVE_ACTIONS_EXHAUSTED)


def test_no_edge_into_single_qualified_except_gateway_and_return():
    # Exhaustively walk every (stage, event) pair; the only transitions
    # landing on single_qualified start from dual_qualified (gateway) or
    # retraining whose return stage is single_qualified.
    for stage in Stage:
        for event in LifecycleEvent:
            for return_stage in (None, Stage.DUAL_QUALIFIED, Stage.SINGLE_QUALIFIED):
                lc = SpecialistLifecycle(stage=stage, return_stage=return_stage)
                try:
                    result = lifecycle_step(
                        lc, event, 0.0, severity=FatigueSeverity.SEVERE
                    )
                except InvalidTransitionError:
                    continue
                except ValueError:
                    continue
                if result.stage is Stage.SINGLE_QUALIFIED and stage is not Stage.SINGLE_QUALIFIED:
                    assert (
                        stage is Stage.DUAL_QUALIFIED
                        and event is LifecycleEvent.GATEWAY_PASSED
                    ) or (
                        stage is Stage.RETRAINING
                        and event is LifecycleEvent.RETRAINING_COMPLETE
                        and return_stage is Stage.SINGLE_QUALIFIED
                    )


def test_rotation_plan_records_round_trip():
    from frmsim.scheduling import rotation_to_records

    rng = random.Random(17)
    for _ in range(50):
        current = rng.randrange(0, 1440)
        target = rng.randrange(0, 1440)
        plan = plan_rotation(current, target, CONSTRAINTS)
        records = json.loads(json.dumps(rotation_to_records(plan)))
        assert [
            (r["day_index"], r["start_min"], r["end_min"], r["scheduled_breaks"])
            for r in records
        ] == [
            (s.day_index, s.start_min, s.end_min, [list(b) for b in s.scheduled_breaks])
            for s in plan.shifts
        ]
        assert "transition" not in records[0]
        assert [r["transition"] for r in records[1:]] == [
            {
                "direction": t.direction.value,
                "step_min": t.step_min,
                "extended_rest_min": t.extended_rest_min,
            }
            for t in plan.transitions
        ]
