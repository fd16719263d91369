"""Supplemental engagement: interactive cognitive task (ICT) scheduling
and secondary alerts (SA) after automated-to-manual control transitions.

Each specialist owns one ICT state machine: a prompt is issued after an
interactivity gap in time or distance, must be answered before a
deadline, a first miss triggers an immediate follow-up prompt, and a
missed follow-up triggers an intervention. Prompts are voided without
penalty whenever driving demand is high.

Every interaction starts a new gap and draws that gap's jitter once
(``record_interactivity``). The vehicle keeps a constant speed, so the
second at which the gap's prompt falls due has a closed form
(``ict_due``): the simulator computes it when the gap starts, or when an
input to it changes, and schedules the prompt as one event instead of
checking the gap every second. ``DemandPattern`` gives the recurring
high-demand windows in the same closed form, so a prompt is moved past
a window it would fall in, and a pending prompt is voided at the first
second of the next one.

In the fleet run (``frmsim.sim``) the functions at the end of this
module take the runner as ``run``. A driving specialist has at most one
live ICT item (the gap prompt, or the planned response, the deadline or
the demand-window voiding of the pending prompt) and one live control
item (the next control transition or the end of manual control). When
an input changes (an interaction, a frequency adaptation, a break,
manual control), the item is planned afresh and the agent's generation
token for it marks the one it supersedes, which its handler drops when
it falls due. A control transition draws the secondary-alert decision,
whose outcome ``sa_resolve`` fixes at once, so neither a break nor the
shift end changes it. No engagement item or secondary alert is
scheduled at or after the shift end.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .fatigue import Activity

__all__ = [
    "DemandPattern",
    "EngagementConfig",
    "IctOutcome",
    "IctPrompt",
    "IctRecord",
    "IctResolution",
    "IctSchedulerState",
    "IctTrigger",
    "Intervention",
    "SaAction",
    "SaConfig",
    "SaDecision",
    "SaDecisionInput",
    "SaResolution",
    "TransitionCause",
    "ict_adapt",
    "ict_due",
    "ict_issue",
    "ict_miss_rate",
    "ict_resolve",
    "record_interactivity",
    "sa_evaluate",
    "sa_resolve",
]

INTERVENTION_ACTIONS = ("contact_support", "start_video_stream", "hmi_alert")
# How many recent ICT outcomes a specialist's scheduler keeps; the
# adaptation window must fit within them.
ICT_OUTCOME_HISTORY = 50


class IctTrigger(str, Enum):
    GAP_TIME = "gap_time"
    GAP_DISTANCE = "gap_distance"
    FOLLOWUP = "followup"


class IctOutcome(str, Enum):
    COMPLETED = "completed"
    MISSED = "missed"
    VOIDED_BY_DEMAND = "voided_by_demand"


@dataclass(frozen=True)
class EngagementConfig:
    gap_time_s: float = 300.0
    gap_distance_m: float = 3000.0
    jitter: float = 0.2
    response_deadline_s: float = 30.0
    adapt_window: int = 10
    miss_rate_threshold: float = 0.2
    slow_latency_threshold_s: float = 15.0
    multiplier_floor: float = 0.25


@dataclass(frozen=True)
class IctPrompt:
    prompt_id: str
    issued_at: float
    deadline: float
    trigger: IctTrigger
    is_followup: bool = False
    followup_of: Optional[str] = None


@dataclass(frozen=True)
class IctRecord:
    prompt_id: str
    trigger: IctTrigger
    outcome: IctOutcome
    response_latency: Optional[float] = None
    followup_of: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trigger is IctTrigger.FOLLOWUP and self.followup_of is None:
            raise ValueError("follow-up records must reference the missed prompt")


@dataclass(frozen=True)
class Intervention:
    prompt_id: str
    actions: tuple[str, ...] = INTERVENTION_ACTIONS


@dataclass(frozen=True)
class IctResolution:
    record: IctRecord
    followup: Optional[IctPrompt] = None
    intervention: Optional[Intervention] = None
    pull_over_recommended: bool = False


@dataclass
class IctSchedulerState:
    specialist_id: str
    last_interactivity_time: float = 0.0
    last_interactivity_odometer: float = 0.0
    pending: Optional[IctPrompt] = None
    recent_outcomes: deque = field(
        default_factory=lambda: deque(maxlen=ICT_OUTCOME_HISTORY)
    )
    frequency_multiplier: float = 1.0
    interventions_this_shift: int = 0
    prompt_seq: int = 0
    # Threshold multiplier of the current gap, drawn once when it starts.
    jitter: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_multiplier <= 0:
            raise ValueError("frequency_multiplier must be positive")


def record_interactivity(
    state: IctSchedulerState,
    now: float,
    odometer: float,
    rng: random.Random,
    cfg: EngagementConfig,
) -> None:
    """Register specialist/vehicle interaction: a new gap starts, with
    its baselines reset and its jitter drawn from ``rng``. A pending
    prompt survives it: only its own response completes it, and rising
    demand voids it through ``ict_resolve``.
    """
    if now < state.last_interactivity_time:
        raise ValueError(
            f"time regression: {now} < {state.last_interactivity_time}"
        )
    if odometer < state.last_interactivity_odometer:
        raise ValueError(
            f"odometer regression: {odometer} < {state.last_interactivity_odometer}"
        )
    state.last_interactivity_time = now
    state.last_interactivity_odometer = odometer
    state.jitter = 1.0
    if cfg.jitter > 0:
        state.jitter = rng.uniform(1.0 - cfg.jitter, 1.0 + cfg.jitter)


@dataclass(frozen=True)
class DemandPattern:
    """Windows of high driving demand that recur every ``period_s``
    seconds from ``origin``: demand is high at a whole second ``t`` while
    ``start_s <= (t - origin) % period_s < end_s``."""

    period_s: int
    start_s: int
    end_s: int
    origin: int = 0

    @classmethod
    def from_minutes(
        cls, period_min: float, start_min: float, duration_min: float, origin: int = 0
    ) -> "DemandPattern":
        """The whole seconds a window given in minutes covers. The period
        is truncated to whole seconds and must keep at least one
        (``behavior.demand_period_min``'s bound)."""
        period_s = int(period_min * 60)
        start_s = min(period_s, max(0, math.ceil(start_min * 60)))
        end_s = min(period_s, max(start_s, math.ceil((start_min + duration_min) * 60)))
        return cls(period_s, start_s, end_s, origin)

    def next_quiet(self, t: int) -> Optional[int]:
        """The first second from ``t`` at which demand is not high, or
        None if it always is."""
        phase = (t - self.origin) % self.period_s
        if not self.start_s <= phase < self.end_s:
            return t
        if self.start_s == 0 and self.end_s == self.period_s:
            return None
        return t - phase + self.end_s

    def next_high(self, t: int) -> Optional[int]:
        """The first second from ``t`` at which demand is high, or None if
        it never is."""
        if self.start_s == self.end_s:
            return None
        phase = (t - self.origin) % self.period_s
        if phase < self.start_s:
            return t + self.start_s - phase
        if phase < self.end_s:
            return t
        return t - phase + self.period_s + self.start_s


def ict_due(
    state: IctSchedulerState,
    now: float,
    odometer: float,
    speed_mps: float,
    cfg: EngagementConfig,
    demand: Optional[DemandPattern] = None,
) -> Optional[tuple[float, IctTrigger]]:
    """When the current gap issues its prompt, driving on from ``now``
    (at ``odometer``) at a constant ``speed_mps``.

    Each gap threshold is the configured gap times the frequency
    multiplier times the gap's jitter. The prompt falls due at the first
    whole second from ``now`` at which the time or the distance gap
    reaches its threshold (the time gap wins a tie), moved past any
    window of ``demand``. Returns ``(time, trigger)``, or None while a
    prompt is pending or if demand never falls.
    """
    if state.pending is not None:
        return None
    scale = state.frequency_multiplier * state.jitter
    wait = math.ceil(state.last_interactivity_time + cfg.gap_time_s * scale - now)
    trigger = IctTrigger.GAP_TIME
    distance_left = (
        state.last_interactivity_odometer + cfg.gap_distance_m * scale - odometer
    )
    if distance_left <= 0 or speed_mps > 0:
        distance_wait = math.ceil(distance_left / speed_mps) if distance_left > 0 else 0
        if distance_wait < wait:
            wait, trigger = distance_wait, IctTrigger.GAP_DISTANCE
    due = now + max(0, wait)
    if demand is not None:
        due = demand.next_quiet(due)
        if due is None:
            return None
    return due, trigger


def ict_issue(
    state: IctSchedulerState, now: float, trigger: IctTrigger, cfg: EngagementConfig
) -> IctPrompt:
    """Issue the gap prompt that ``ict_due`` scheduled."""
    if state.pending is not None:
        raise ValueError("a prompt is already pending")
    return _new_prompt(state, now, trigger, cfg)


def _new_prompt(
    state: IctSchedulerState,
    now: float,
    trigger: IctTrigger,
    cfg: EngagementConfig,
    followup_of: Optional[str] = None,
) -> IctPrompt:
    prompt = IctPrompt(
        prompt_id=f"{state.specialist_id}-ict-{state.prompt_seq}",
        issued_at=now,
        deadline=now + cfg.response_deadline_s,
        trigger=trigger,
        is_followup=followup_of is not None,
        followup_of=followup_of,
    )
    state.prompt_seq += 1
    state.pending = prompt
    return prompt


def ict_resolve(
    state: IctSchedulerState,
    signal: str,
    now: float,
    cfg: EngagementConfig,
    latency_s: Optional[float] = None,
) -> IctResolution:
    """Terminate the pending prompt.

    ``signal`` is one of ``responded`` (with ``latency_s``),
    ``deadline_passed``, or ``demand_rose``. A missed first prompt
    spawns an immediate follow-up; a missed follow-up produces exactly
    one intervention, and a second intervention within the shift adds a
    pull-over recommendation.
    """
    pending = state.pending
    if pending is None:
        raise ValueError("no pending prompt to resolve")
    if signal == "deadline_passed" and now <= pending.deadline:
        raise ValueError("deadline has not passed yet")
    if signal == "responded":
        if latency_s is None or latency_s < 0:
            raise ValueError("responded signal requires a nonnegative latency")
        if now > pending.deadline:
            raise ValueError("response arrived after the deadline")
        record = IctRecord(
            prompt_id=pending.prompt_id,
            trigger=pending.trigger,
            outcome=IctOutcome.COMPLETED,
            response_latency=latency_s,
            followup_of=pending.followup_of,
        )
        state.pending = None
        state.recent_outcomes.append(record)
        return IctResolution(record=record)
    if signal == "demand_rose":
        record = IctRecord(
            prompt_id=pending.prompt_id,
            trigger=pending.trigger,
            outcome=IctOutcome.VOIDED_BY_DEMAND,
            followup_of=pending.followup_of,
        )
        state.pending = None
        state.recent_outcomes.append(record)
        return IctResolution(record=record)
    if signal != "deadline_passed":
        raise ValueError(f"unknown outcome signal: {signal!r}")

    record = IctRecord(
        prompt_id=pending.prompt_id,
        trigger=pending.trigger,
        outcome=IctOutcome.MISSED,
        followup_of=pending.followup_of,
    )
    state.recent_outcomes.append(record)
    if not pending.is_followup:
        followup = _new_prompt(
            state, now, IctTrigger.FOLLOWUP, cfg, followup_of=pending.prompt_id
        )
        return IctResolution(record=record, followup=followup)
    state.pending = None
    state.interventions_this_shift += 1
    intervention = Intervention(prompt_id=pending.prompt_id)
    return IctResolution(
        record=record,
        intervention=intervention,
        pull_over_recommended=state.interventions_this_shift >= 2,
    )


def ict_miss_rate(state: IctSchedulerState, window: int) -> Optional[float]:
    """Share of missed prompts among the last ``window`` outcomes, leaving
    out voided prompts, which carry no penalty; None if none is left."""
    if not state.recent_outcomes:
        return None
    outcomes = [r.outcome for r in list(state.recent_outcomes)[-window:]]
    considered = len(outcomes) - outcomes.count(IctOutcome.VOIDED_BY_DEMAND)
    if not considered:
        return None
    return outcomes.count(IctOutcome.MISSED) / considered


def ict_adapt(state: IctSchedulerState, cfg: EngagementConfig) -> float:
    """Retune prompt frequency from the recent outcome window.

    Misses or slow responses halve the multiplier (more frequent
    prompts); clean windows double it back toward 1.0. Voided prompts
    carry no penalty and are ignored.
    """
    miss_rate = ict_miss_rate(state, cfg.adapt_window)
    if miss_rate is None:
        return state.frequency_multiplier
    latencies = [
        r.response_latency
        for r in list(state.recent_outcomes)[-cfg.adapt_window :]
        if r.outcome is IctOutcome.COMPLETED and r.response_latency is not None
    ]
    slow = bool(latencies) and (
        sum(latencies) / len(latencies) > cfg.slow_latency_threshold_s
    )
    if miss_rate >= cfg.miss_rate_threshold or slow:
        state.frequency_multiplier = max(
            cfg.multiplier_floor, state.frequency_multiplier * 0.5
        )
    else:
        state.frequency_multiplier = min(1.0, state.frequency_multiplier * 2.0)
    return state.frequency_multiplier


class TransitionCause(str, Enum):
    BUTTON = "button"
    PEDAL = "pedal"
    STEERING = "steering"
    BRAKE = "brake"


class SaAction(str, Enum):
    NONE = "none"
    ISSUE = "issue"
    SUPPRESS_EMERGENCY = "suppress_emergency"


class SaResolution(str, Enum):
    CLEARED = "cleared"
    SUPPORT_ALERTED = "support_alerted"


@dataclass(frozen=True)
class SaConfig:
    cause_weights: tuple[tuple[str, float], ...] = (
        ("pedal", 0.5),
        ("steering", 0.35),
        ("brake", 0.35),
        ("button", 0.1),
    )
    no_input_before_weight: float = 0.2
    no_input_after_weight: float = 0.2
    speed_weight: float = 0.1
    speed_threshold_mps: float = 15.0
    issue_threshold: float = 0.6
    issue_delay_s: float = 5.0
    clear_timeout_s: float = 10.0

    def cause_weight(self, cause: TransitionCause) -> float:
        return dict(self.cause_weights)[cause.value]


@dataclass(frozen=True)
class SaDecisionInput:
    transition_cause: TransitionCause
    speed: float
    input_before: bool
    input_after: bool
    emergency: bool = False


@dataclass(frozen=True)
class SaDecision:
    action: SaAction
    rationale_score: float
    delay_s: Optional[float] = None


def sa_evaluate(inp: SaDecisionInput, cfg: SaConfig) -> SaDecision:
    """Decide whether a control transition warrants a secondary alert.

    The rationale score accumulates evidence that the transition was
    unintentional or unnoticed; emergencies suppress the alert outright.
    """
    score = cfg.cause_weight(inp.transition_cause)
    if not inp.input_before:
        score += cfg.no_input_before_weight
    if not inp.input_after:
        score += cfg.no_input_after_weight
    if inp.speed > cfg.speed_threshold_mps:
        score += cfg.speed_weight
    score = min(1.0, max(0.0, score))
    if inp.emergency:
        return SaDecision(action=SaAction.SUPPRESS_EMERGENCY, rationale_score=score)
    if score >= cfg.issue_threshold:
        return SaDecision(
            action=SaAction.ISSUE, rationale_score=score, delay_s=cfg.issue_delay_s
        )
    return SaDecision(action=SaAction.NONE, rationale_score=score)


def sa_resolve(
    decision: SaDecision, input_latency_s: Optional[float], cfg: SaConfig
) -> SaResolution:
    """Outcome of an issued alert: cleared by timely specialist input,
    otherwise support is alerted exactly once."""
    if decision.action is not SaAction.ISSUE:
        raise ValueError("cannot resolve an alert that was never issued")
    if input_latency_s is not None and input_latency_s <= cfg.clear_timeout_s:
        return SaResolution.CLEARED
    return SaResolution.SUPPORT_ALERTED


# -- the fleet run --------------------------------------------------------


def start_driving(run, agent, t: int) -> None:
    """A driving session starts: at the shift start the shift's first
    control transition is drawn; a new gap starts and the ICT and
    control items are planned."""
    if t == run.shift_start:
        agent.ict.interventions_this_shift = 0
        _draw_transition(run, agent, t)
    interact(run, agent, t)
    plan_ict(run, agent, t)
    _plan_control(run, agent, t)


def leave_driving(run, agent, t: int) -> None:
    """Void a pending prompt, end manual control and supersede the live
    items."""
    if agent.ict.pending is not None:
        _void_pending_prompt(run, agent, t)
    agent.manual_until = None
    agent.ict_gen += 1
    agent.control_gen += 1


def end_shift(run, agent, t: int) -> None:
    if agent.ict.recent_outcomes:
        multiplier = ict_adapt(agent.ict, run.cfg.ict)
        run.log.append(t, "ict_adapt", agent.spec.specialist_id, multiplier=round(multiplier, 6))


def interact(run, agent, t: int) -> None:
    """The specialist interacts with the vehicle at ``t``; a new gap starts."""
    record_interactivity(agent.ict, t, agent.current_odometer(t), agent.rng_ict, run.cfg.ict)


def plan_ict(run, agent, t: int) -> None:
    """Supersede the agent's ICT item with the next ICT event after
    second ``t``: the gap prompt, or the end of the pending prompt
    (demand rising, the planned response, or the deadline passing,
    in that order on a tie). Only a driving agent outside manual
    control has one."""
    agent.ict_gen += 1
    if agent.activity is not Activity.DRIVING or agent.manual_until is not None:
        return
    pending = agent.ict.pending
    after = t + 1
    if pending is None:
        due = ict_due(
            agent.ict, after, agent.current_odometer(after), agent.speed, run.cfg.ict, run.demand
        )
        if due is None:
            return
        at, arg = due
        handler = _on_ict_prompt
    else:
        at, arg = math.floor(pending.deadline) + 1, "deadline_passed"
        if agent.planned_response is not None:
            respond_at = math.ceil(agent.planned_response)
            if respond_at <= pending.deadline:
                at, arg = respond_at, "responded"
        rises_at = run.demand.next_high(after)
        if rises_at is not None and rises_at <= at:
            at, arg = rises_at, "demand_rose"
        handler = _on_ict_resolve
    if at < run.shift_end:
        run.schedule(at, run.PHASE_ENGAGEMENT, handler, agent, agent.ict_gen, arg)


def _plan_control(run, agent, t: int) -> None:
    """Supersede the agent's control item with the end of manual
    control or, outside it, the next control transition. Only a
    driving agent has one."""
    agent.control_gen += 1
    if agent.activity is not Activity.DRIVING:
        return
    if agent.manual_until is not None:
        at, handler = agent.manual_until, _on_manual_end
    elif agent.next_transition is not None:
        at, handler = max(agent.next_transition, t + 1), _on_transition
    else:
        return
    if at < run.shift_end:
        run.schedule(at, run.PHASE_ENGAGEMENT, handler, agent, agent.control_gen)


def _on_manual_end(run, t: int, agent, gen: int) -> None:
    if not run.live(gen == agent.control_gen):
        return
    agent.manual_until = None
    interact(run, agent, t)
    plan_ict(run, agent, t)
    _plan_control(run, agent, t)


def _on_ict_prompt(run, t: int, agent, gen: int, trigger: IctTrigger) -> None:
    if not run.live(gen == agent.ict_gen):
        return
    _log_ict_prompt(run, agent, t, ict_issue(agent.ict, t, trigger, run.cfg.ict))
    plan_ict(run, agent, t)


def _on_ict_resolve(run, t: int, agent, gen: int, signal: str) -> None:
    """End the pending prompt: the planned response arrives, the
    deadline passes, or demand rises."""
    if not run.live(gen == agent.ict_gen):
        return
    cfg = run.cfg
    latency = None
    if signal == "responded":
        latency = agent.planned_response - agent.ict.pending.issued_at
    resolution = ict_resolve(agent.ict, signal, t, cfg.ict, latency_s=latency)
    _log_ict_outcome(run, agent, t, resolution)
    if signal == "responded":
        # Completing an in-car task is itself engaging.
        agent.reanchor(t, agent.ctx, task_load_scale=1.0 - cfg.behavior.ict_relief)
        interact(run, agent, t)
    plan_ict(run, agent, t)


def _log_ict_prompt(run, agent, t: int, prompt: IctPrompt) -> None:
    """Log a prompt and plan the specialist's response to it: a miss, or
    a latency that grows with fatigue and ends before the deadline."""
    run.log.append(
        t,
        "ict_prompt",
        agent.spec.specialist_id,
        prompt_id=prompt.prompt_id,
        trigger=prompt.trigger.value,
        deadline=prompt.deadline,
        is_followup=prompt.is_followup,
        followup_of=prompt.followup_of,
    )
    b = run.cfg.behavior
    alertness = agent.alertness(t)
    miss_p = min(0.98, b.ict_miss_base_p + (1.0 - alertness) ** 3)
    if agent.rng_ict.random() < miss_p:
        agent.planned_response = None
        return
    latency = (
        b.ict_latency_base_s
        + b.ict_latency_fatigue_s * (1.0 - alertness)
        + agent.rng_ict.uniform(0.0, 3.0)
    )
    latency = min(latency, run.cfg.ict.response_deadline_s - 1.0)
    agent.planned_response = prompt.issued_at + max(1.0, latency)


def _log_ict_outcome(run, agent, t: int, resolution: IctResolution) -> None:
    cfg = run.cfg
    who = agent.spec.specialist_id
    record = resolution.record
    latency = record.response_latency
    agent.planned_response = None
    run.log.append(
        t,
        "ict_outcome",
        who,
        prompt_id=record.prompt_id,
        trigger=record.trigger.value,
        outcome=record.outcome.value,
        response_latency=None if latency is None else round(latency, 6),
        followup_of=record.followup_of,
    )
    agent.outcomes_since_adapt += 1
    if resolution.followup is not None:
        _log_ict_prompt(run, agent, t, resolution.followup)
    if resolution.intervention is not None:
        run.log.append(
            t,
            "ict_intervention",
            who,
            prompt_id=resolution.intervention.prompt_id,
            actions=list(resolution.intervention.actions),
        )
        run.record_fatigue_event(agent, t, "severe", "ict_intervention")
        agent.reanchor(t, agent.ctx, task_load_scale=1.0 - cfg.behavior.alert_relief)
        interact(run, agent, t)
        if resolution.pull_over_recommended:
            run.log.append(t, "pull_over", who, prompt_id=record.prompt_id)
            run.start_break(agent, t, cfg.breaks.duration_min, "pull_over", "pull_over")
        elif agent.rng_ict.random() < 0.9:
            run.request_break(agent, t, cfg.breaks.duration_min, "intervention", "ict_intervention")
    if agent.outcomes_since_adapt >= cfg.ict.adapt_window:
        agent.outcomes_since_adapt = 0
        multiplier = ict_adapt(agent.ict, cfg.ict)
        run.log.append(t, "ict_adapt", who, multiplier=round(multiplier, 6))


def _void_pending_prompt(run, agent, t: int) -> None:
    # The driving task went away (manual control, or the specialist
    # stopped driving); no penalty. The caller plans or supersedes
    # the agent's next ICT item.
    _log_ict_outcome(run, agent, t, ict_resolve(agent.ict, "demand_rose", t, run.cfg.ict))


def _draw_transition(run, agent, t: int) -> None:
    rate_per_s = run.cfg.behavior.transition_rate_per_h / 3600.0
    if rate_per_s <= 0:
        agent.next_transition = None
        return
    agent.next_transition = t + max(1, int(agent.rng_sa.expovariate(rate_per_s)))


def _on_transition(run, t: int, agent, gen: int) -> None:
    if not run.live(gen == agent.control_gen):
        return
    cfg = run.cfg
    b = cfg.behavior
    who = agent.spec.specialist_id
    alertness = agent.alertness(t)
    rng = agent.rng_sa
    cause = rng.choices(
        (
            TransitionCause.PEDAL,
            TransitionCause.BUTTON,
            TransitionCause.STEERING,
            TransitionCause.BRAKE,
        ),
        weights=(0.4, 0.2, 0.2, 0.2),
    )[0]
    responsive_p = min(0.95, max(0.1, alertness + 0.1))
    inp = SaDecisionInput(
        transition_cause=cause,
        speed=b.speed_mps + rng.uniform(0.0, 10.0),
        input_before=rng.random() < responsive_p,
        input_after=rng.random() < responsive_p,
        emergency=rng.random() < b.emergency_p,
    )
    run.log.append(
        t,
        "control_transition",
        who,
        cause=cause.value,
        speed=round(inp.speed, 3),
        input_before=inp.input_before,
        input_after=inp.input_after,
        emergency=inp.emergency,
    )
    agent.manual_until = t + max(1, int(b.manual_period_s))
    if agent.ict.pending is not None:
        # Taking manual control is peak driving demand.
        _void_pending_prompt(run, agent, t)
    interact(run, agent, t)
    decision = sa_evaluate(inp, cfg.sa)
    # An alert due at or after the shift end is never issued.
    issue_at = t + int(decision.delay_s or 0)
    issued = decision.action is SaAction.ISSUE and issue_at < run.shift_end
    run.log.append(
        t,
        "sa_decision",
        who,
        action=decision.action.value,
        rationale_score=round(decision.rationale_score, 6),
        issued=issued,
    )
    if issued:
        sa_id = f"sa-{run.sa_seq}"
        run.sa_seq += 1
        clear_p = min(0.98, b.sa_clear_base_p + 0.4 * alertness)
        if rng.random() < clear_p:
            input_latency = rng.uniform(1.0, cfg.sa.clear_timeout_s * 0.8)
        else:
            input_latency = None
        outcome = sa_resolve(decision, input_latency, cfg.sa)
        if outcome is SaResolution.CLEARED:
            resolve_delay_s = max(1, int(input_latency))
        else:
            resolve_delay_s = int(cfg.sa.clear_timeout_s)
        run.schedule(issue_at, run.PHASE_ITEM, _on_sa_issue, agent, sa_id, outcome, resolve_delay_s)
    _draw_transition(run, agent, t)
    plan_ict(run, agent, t)
    _plan_control(run, agent, t)


def _on_sa_issue(
    run, t: int, agent, sa_id: str, outcome: SaResolution, resolve_delay_s: int
) -> None:
    run.log.append(t, "sa_issued", agent.spec.specialist_id, sa_id=sa_id)
    resolve_at = min(t + resolve_delay_s, run.shift_end)
    run.schedule(resolve_at, run.PHASE_ITEM, _on_sa_resolve, agent, sa_id, outcome)


def _on_sa_resolve(run, t: int, agent, sa_id: str, outcome: SaResolution) -> None:
    run.log.append(t, "sa_resolved", agent.spec.specialist_id, sa_id=sa_id, outcome=outcome.value)
