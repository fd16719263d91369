"""Adaptive scheduling: forward shift rotation planning, invited-break
triggers, and the specialist lifecycle with its fatigue-event gateways.

In the fleet run (``frmsim.sim``) the functions at the end of this
module take the runner as ``run``. Every five minutes a driving
specialist's recent fatigue signals (their last survey, a confirmed
escalation, their ICT misses) may bring an invited break offer, which
they may decline. On the impromptu cadence a specialist who feels
sleepy enough may take a break at once. Supervisor outreach may
reassign a specialist to auxiliary work, off the vehicle, for the rest
of the shift.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import engagement as eng
from .fatigue import Activity, to_kss

__all__ = [
    "BreakPolicy",
    "BreakSignalBundle",
    "FatigueSeverity",
    "InvalidTransitionError",
    "InvitedBreak",
    "LifecycleEvent",
    "RotationConstraints",
    "RotationDirection",
    "RotationPlan",
    "ShiftSpec",
    "SpecialistLifecycle",
    "Stage",
    "Transition",
    "Violation",
    "evaluate_break_triggers",
    "lifecycle_step",
    "plan_rotation",
    "rotation_to_records",
    "validate_rotation",
]

MINUTES_PER_DAY = 1440
MAX_SHIFT_MINUTES = 14 * 60
INVITED_CHECK_S = 300
SIGNAL_RECENCY_S = 1800
SIGNAL_ICT_OUTCOMES = 10
# A qualified specialist goes to retraining at this many severe fatigue
# events, or this many of any severity, within the window.
RETRAIN_SEVERE_EVENTS = 3
RETRAIN_ANY_EVENTS = 6
FATIGUE_WINDOW_DAYS = 30.0


class RotationDirection(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    NONE = "none"


@dataclass(frozen=True)
class ShiftSpec:
    day_index: int
    start_min: int
    end_min: int
    scheduled_breaks: tuple[tuple[int, int], ...] = ()

    @property
    def duration_min(self) -> int:
        # end may wrap past midnight
        return (self.end_min - self.start_min) % MINUTES_PER_DAY

    def __post_init__(self) -> None:
        if not 0 <= self.start_min < MINUTES_PER_DAY:
            raise ValueError("start_min must be within one day")
        if not 0 <= self.end_min < MINUTES_PER_DAY:
            raise ValueError("end_min must be within one day")
        duration = self.duration_min
        if duration == 0 or duration > MAX_SHIFT_MINUTES:
            raise ValueError("shift duration must be in (0, 14 h]")
        for offset, length in self.scheduled_breaks:
            if offset < 0 or length <= 0 or offset + length > duration:
                raise ValueError("scheduled break outside the shift")


@dataclass(frozen=True)
class Transition:
    direction: RotationDirection
    step_min: int
    extended_rest_min: int = 0


@dataclass(frozen=True)
class RotationPlan:
    shifts: tuple[ShiftSpec, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if len(self.transitions) != max(0, len(self.shifts) - 1):
            raise ValueError("one transition is required between adjacent shifts")


def rotation_to_records(plan: RotationPlan) -> list[dict]:
    """Structured records for export; one per shift, transitions inline."""
    records = []
    for i, shift in enumerate(plan.shifts):
        record: dict = {
            "day_index": shift.day_index,
            "start_min": shift.start_min,
            "end_min": shift.end_min,
            "scheduled_breaks": [list(b) for b in shift.scheduled_breaks],
        }
        if i > 0:
            transition = plan.transitions[i - 1]
            record["transition"] = {
                "direction": transition.direction.value,
                "step_min": transition.step_min,
                "extended_rest_min": transition.extended_rest_min,
            }
        records.append(record)
    return records


@dataclass(frozen=True)
class RotationConstraints:
    max_forward_step_per_day: int = 120
    min_extended_rest_min: int = 2880
    min_inter_shift_rest_min: int = 600

    def __post_init__(self) -> None:
        if self.max_forward_step_per_day <= 0:
            raise ValueError("max_forward_step_per_day must be positive")
        if self.min_extended_rest_min <= 0:
            raise ValueError("min_extended_rest_min must be positive")
        if self.min_inter_shift_rest_min <= 0:
            raise ValueError("min_inter_shift_rest_min must be positive")


@dataclass(frozen=True)
class Violation:
    kind: str
    transition_index: int
    detail: str


def _start_abs(shift: ShiftSpec) -> int:
    return shift.day_index * MINUTES_PER_DAY + shift.start_min


def plan_rotation(
    current_start_min: int,
    target_start_min: int,
    constraints: RotationConstraints,
    *,
    shift_duration_min: int = 480,
    extended_rest_min: Optional[int] = None,
) -> RotationPlan:
    """Plan the move from one shift start time to another.

    Later targets advance in daily forward steps capped at the
    constraint maximum; earlier targets take a single backward
    transition padded with extended time off. ``extended_rest_min``
    overrides the rest scheduled on a backward transition (the
    constraint minimum by default); validation still judges the result
    against the constraints.
    """
    for value in (current_start_min, target_start_min):
        if not 0 <= value < MINUTES_PER_DAY:
            raise ValueError("start times must be minutes within one day")
    if shift_duration_min <= 0 or shift_duration_min > MAX_SHIFT_MINUTES:
        raise ValueError("shift_duration_min must be in (0, 14 h]")
    if extended_rest_min is not None and extended_rest_min < 0:
        raise ValueError("extended_rest_min must be nonnegative")

    def shift_at(day: int, start: int) -> ShiftSpec:
        return ShiftSpec(
            day_index=day,
            start_min=start,
            end_min=(start + shift_duration_min) % MINUTES_PER_DAY,
        )

    delta = target_start_min - current_start_min
    shifts = [shift_at(0, current_start_min)]
    transitions: list[Transition] = []
    if delta == 0:
        return RotationPlan(shifts=tuple(shifts), transitions=())
    if delta > 0:
        day = 0
        start = current_start_min
        remaining = delta
        while remaining > 0:
            step = min(constraints.max_forward_step_per_day, remaining)
            day += 1
            start += step
            remaining -= step
            shifts.append(shift_at(day, start))
            transitions.append(
                Transition(direction=RotationDirection.FORWARD, step_min=step)
            )
        return RotationPlan(shifts=tuple(shifts), transitions=tuple(transitions))

    # Backward move: one transition separated by extended time off.
    rest = (
        constraints.min_extended_rest_min
        if extended_rest_min is None
        else extended_rest_min
    )
    end_abs = current_start_min + shift_duration_min
    day = 1
    while day * MINUTES_PER_DAY + target_start_min < end_abs + rest:
        day += 1
    shifts.append(shift_at(day, target_start_min))
    transitions.append(
        Transition(
            direction=RotationDirection.BACKWARD,
            step_min=delta,
            extended_rest_min=rest,
        )
    )
    return RotationPlan(shifts=tuple(shifts), transitions=tuple(transitions))


def validate_rotation(
    plan: RotationPlan, constraints: RotationConstraints
) -> list[Violation]:
    """Check a plan against rotation constraints; violations are data."""
    violations: list[Violation] = []
    for i, transition in enumerate(plan.transitions):
        prev, nxt = plan.shifts[i], plan.shifts[i + 1]
        if transition.direction is RotationDirection.FORWARD:
            if transition.step_min > constraints.max_forward_step_per_day:
                violations.append(
                    Violation(
                        kind="forward_step_too_large",
                        transition_index=i,
                        detail=(
                            f"step {transition.step_min} min exceeds "
                            f"{constraints.max_forward_step_per_day} min"
                        ),
                    )
                )
        elif transition.direction is RotationDirection.BACKWARD:
            if transition.extended_rest_min < constraints.min_extended_rest_min:
                violations.append(
                    Violation(
                        kind="insufficient_extended_rest",
                        transition_index=i,
                        detail=(
                            f"extended rest {transition.extended_rest_min} min below "
                            f"{constraints.min_extended_rest_min} min"
                        ),
                    )
                )
        rest = _start_abs(nxt) - (_start_abs(prev) + prev.duration_min)
        required = constraints.min_inter_shift_rest_min
        if transition.direction is RotationDirection.BACKWARD:
            required = max(required, transition.extended_rest_min)
        if rest < required:
            violations.append(
                Violation(
                    kind="insufficient_inter_shift_rest",
                    transition_index=i,
                    detail=f"rest {rest} min below required {required} min",
                )
            )
    return violations


@dataclass(frozen=True)
class BreakPolicy:
    kss_threshold: int = 6
    rater_level_threshold: int = 4
    ict_miss_rate_threshold: float = 0.2
    cooldown_min: float = 60.0
    duration_min: float = 15.0


@dataclass(frozen=True)
class BreakSignalBundle:
    """Most recent fatigue signals within the policy's recency window."""

    latest_pfs_kss: Optional[int] = None
    dms_flag_recent: bool = False
    rater_level_recent: Optional[int] = None
    ict_miss_rate_window: float = 0.0


@dataclass(frozen=True)
class InvitedBreak:
    duration_min: float
    reason: str


def evaluate_break_triggers(
    signals: BreakSignalBundle,
    policy: BreakPolicy,
    now_min: float,
    last_invited_min: Optional[float] = None,
) -> Optional[InvitedBreak]:
    """Offer an invited break when any fatigue signal fires, at most once
    per cool-down window."""
    if (
        last_invited_min is not None
        and now_min - last_invited_min < policy.cooldown_min
    ):
        return None
    reason = None
    if signals.latest_pfs_kss is not None and signals.latest_pfs_kss >= policy.kss_threshold:
        reason = "kss"
    elif (
        signals.rater_level_recent is not None
        and signals.rater_level_recent >= policy.rater_level_threshold
    ):
        reason = "rater_level"
    elif signals.dms_flag_recent:
        reason = "dms_flag"
    elif signals.ict_miss_rate_window >= policy.ict_miss_rate_threshold:
        reason = "ict_miss_rate"
    if reason is None:
        return None
    return InvitedBreak(duration_min=policy.duration_min, reason=reason)


class Stage(str, Enum):
    TRAINEE = "trainee"
    DUAL_QUALIFIED = "dual_qualified"
    SINGLE_QUALIFIED = "single_qualified"
    RETRAINING = "retraining"
    SUSPENDED = "suspended"


class FatigueSeverity(str, Enum):
    MODERATE = "moderate"
    SEVERE = "severe"


class LifecycleEvent(str, Enum):
    TRAINING_COMPLETE = "training_complete"
    GATEWAY_PASSED = "gateway_passed"
    FATIGUE_EVENT = "fatigue_event"
    SUPPORTIVE_ACTIONS_EXHAUSTED = "supportive_actions_exhausted"
    RETRAINING_COMPLETE = "retraining_complete"


class InvalidTransitionError(ValueError):
    pass


@dataclass(frozen=True)
class SpecialistLifecycle:
    stage: Stage = Stage.TRAINEE
    fatigue_events: tuple[tuple[float, FatigueSeverity], ...] = ()
    return_stage: Optional[Stage] = None

    def windowed_counts(self, now_days: float) -> tuple[int, int]:
        """(severe, all) fatigue events in the ``FATIGUE_WINDOW_DAYS`` up
        to ``now_days``."""
        recent = [
            sev for day, sev in self.fatigue_events if now_days - day <= FATIGUE_WINDOW_DAYS
        ]
        severe = sum(1 for sev in recent if sev is FatigueSeverity.SEVERE)
        return severe, len(recent)


_QUALIFIED = (Stage.DUAL_QUALIFIED, Stage.SINGLE_QUALIFIED)


def lifecycle_step(
    lifecycle: SpecialistLifecycle,
    event: LifecycleEvent,
    now_days: float = 0.0,
    *,
    severity: Optional[FatigueSeverity] = None,
) -> SpecialistLifecycle:
    """Apply one lifecycle event, enforcing the stage graph.

    The only paths into single-qualified are the dual-qualified gateway
    and completion of retraining that began there.
    """
    stage = lifecycle.stage
    if event is LifecycleEvent.TRAINING_COMPLETE:
        if stage is not Stage.TRAINEE:
            raise InvalidTransitionError(f"training_complete invalid from {stage.value}")
        return SpecialistLifecycle(
            stage=Stage.DUAL_QUALIFIED, fatigue_events=lifecycle.fatigue_events
        )
    if event is LifecycleEvent.GATEWAY_PASSED:
        if stage is not Stage.DUAL_QUALIFIED:
            raise InvalidTransitionError(f"gateway_passed invalid from {stage.value}")
        return SpecialistLifecycle(
            stage=Stage.SINGLE_QUALIFIED, fatigue_events=lifecycle.fatigue_events
        )
    if event is LifecycleEvent.FATIGUE_EVENT:
        if stage not in _QUALIFIED:
            raise InvalidTransitionError(f"fatigue_event invalid from {stage.value}")
        if severity is None:
            raise ValueError("fatigue_event requires a severity")
        events = lifecycle.fatigue_events + ((now_days, severity),)
        updated = SpecialistLifecycle(stage=stage, fatigue_events=events)
        severe, total = updated.windowed_counts(now_days)
        if severe >= RETRAIN_SEVERE_EVENTS or total >= RETRAIN_ANY_EVENTS:
            return SpecialistLifecycle(
                stage=Stage.RETRAINING, fatigue_events=events, return_stage=stage
            )
        return updated
    if event is LifecycleEvent.SUPPORTIVE_ACTIONS_EXHAUSTED:
        if stage is Stage.SUSPENDED:
            raise InvalidTransitionError("already suspended")
        return SpecialistLifecycle(
            stage=Stage.SUSPENDED, fatigue_events=lifecycle.fatigue_events
        )
    if event is LifecycleEvent.RETRAINING_COMPLETE:
        if stage is not Stage.RETRAINING or lifecycle.return_stage is None:
            raise InvalidTransitionError(
                f"retraining_complete invalid from {stage.value}"
            )
        return SpecialistLifecycle(
            stage=lifecycle.return_stage, fatigue_events=lifecycle.fatigue_events
        )
    raise InvalidTransitionError(f"unknown lifecycle event: {event!r}")


# -- the fleet run --------------------------------------------------------


def checks(cfg) -> list:
    """The minute check table's entries, as (cadence in seconds, check)."""
    return [
        (INVITED_CHECK_S, _invited_break_check),
        (int(cfg.behavior.impromptu_check_min * 60), _impromptu_check),
    ]


def _signal_bundle(agent, t: int) -> BreakSignalBundle:
    # Only the awareness block sets last_kss, only vigilance
    # last_confirmed, and only engagement fills the ICT outcomes.
    kss = None
    if agent.last_kss and t - agent.last_kss[0] <= SIGNAL_RECENCY_S:
        kss = agent.last_kss[1]
    rater_level = None
    dms_recent = False
    if agent.last_confirmed:
        when, level = agent.last_confirmed
        if t - when <= SIGNAL_RECENCY_S:
            rater_level = level
            dms_recent = True
    miss_rate = eng.ict_miss_rate(agent.ict, SIGNAL_ICT_OUTCOMES)
    return BreakSignalBundle(
        latest_pfs_kss=kss,
        dms_flag_recent=dms_recent,
        rater_level_recent=rater_level,
        ict_miss_rate_window=miss_rate or 0.0,
    )


def _invited_break_check(run, agent, t: int, _level: int) -> None:
    if agent.activity is not Activity.DRIVING:
        return
    cfg = run.cfg
    who = agent.spec.specialist_id
    offer = evaluate_break_triggers(
        _signal_bundle(agent, t),
        cfg.breaks,
        now_min=t / 60.0,
        last_invited_min=None
        if agent.last_invited_offer is None
        else agent.last_invited_offer / 60.0,
    )
    if offer is None:
        return
    agent.last_invited_offer = t
    run.log.append(
        t, "invited_break_offer", who, reason=offer.reason, duration_min=offer.duration_min
    )
    if agent.rng_breaks.random() < cfg.behavior.invited_decline_p:
        agent.declines_this_shift += 1
        run.log.append(t, "invited_break_declined", who, declines=agent.declines_this_shift)
        if agent.declines_this_shift == 2:
            run.log.append(t, "decline_outreach", who)
        return
    run.request_break(agent, t, offer.duration_min, "invited", offer.reason)


def _impromptu_check(run, agent, t: int, _level: int) -> None:
    if agent.activity is not Activity.DRIVING:
        return
    cfg = run.cfg
    perceived = to_kss(agent.alertness(t), agent.rng_breaks, agent.params)
    if perceived < cfg.behavior.impromptu_kss_threshold:
        return
    if agent.rng_breaks.random() >= cfg.behavior.impromptu_p:
        return
    run.log.append(
        t,
        "impromptu_break",
        agent.spec.specialist_id,
        perceived_kss=perceived,
        duration_min=cfg.breaks.duration_min,
    )
    run.start_break(agent, t, cfg.breaks.duration_min, "self", "self_assessed_fatigue")


def reassign(run, agent, t: int, reason: str) -> None:
    """Reassign the specialist to auxiliary work, off the vehicle (no
    monitoring, lighter load), for the rest of the shift."""
    run.log.append(
        t,
        "assignment_change",
        agent.spec.specialist_id,
        from_assignment="driving",
        to_assignment="auxiliary",
        reason=reason,
        restaffed=True,
    )
    run.leave_vehicle(agent, t, "reassigned", Activity.OFF_VEHICLE)
