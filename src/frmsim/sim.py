"""Deterministic fleet-shift simulator.

One scenario is a discrete-event loop over the horizon on a 1-second
time grid. Within a shift, time advances by events only: the loop pops
the next item off one heap, ordered by (second, phase, push order), and
calls the handler the item carries with the item's arguments. The
phases order the work that falls due in one second: ordinary items
(break ends, follow-up surveys, secondary alerts), then scheduled breaks
(all pushed when the shift starts), engagement items, the fleet's minute
checks (and, on the last minute, the shift end), and last the escalation
validations, which may fall due in the second their case opened. The
minute item runs every active specialist's minute: the ORD level, the
hazard draw, then the checks of the enabled blocks' check table (built
once per run, so a block that is off adds no check) that are due that
minute. Then it runs the fleet's reliability checkpoint (one
``reliability`` record) and re-schedules itself a minute later until the
shift end, so a run costs in proportion to its items, not to its
simulated seconds.

Each specialist does one thing at a time, their activity: off shift,
driving, on a break, or off the vehicle (retrieved, or reassigned to
auxiliary work, for the rest of the shift). A driving session starts at
the shift start and at each break end; the vehicle moves, engagement
items run and the driving checks apply only while the specialist drives.
A break starts only while they drive and lasts until its end item runs,
so a break request that falls due in that second is dropped. Leaving the
vehicle (retrieval, reassignment, the shift end) ends the session or the
open break at once; surveys, reminders and retrieval need the specialist
driving or on a break.

The minute item also samples each specialist's ground-truth ORD level
and whether they are on task (driving). It logs an
``ord_change`` record only when that pair differs from the one last
logged in the shift, and every shift logs one at its start; the metrics
fold on-task time and time at ORD >= 4 from these records. The fatigue
state is a closed form of its last anchor (``_Agent.state``), so the
minute item evaluates it only where a value is read: when the ORD
level's certificate (``fatigue.ord_hold_s``) has expired, when a hazard
draw falls under the bound on every hazard rate, and in the checks that
read alertness. A positive
``sample_period_s`` adds a full-state ``state_sample`` trace on the
minutes into the shift that are multiples of it; nothing folds the
trace, and it changes no other record.

Engagement work is scheduled like everything else. A driving specialist
has at most one live ICT item (the gap prompt, or the planned response,
the deadline or the demand-window voiding of the pending prompt) and one
live control item (the next control transition or the end of manual
control). Their due times have closed forms (see ``engagement``). When
an input changes (an interaction, a frequency adaptation, a break,
manual control), the item is computed afresh, and the agent's generation
token for that item marks the one it supersedes, which its handler drops
when it falls due. No engagement item or secondary alert is scheduled
at or after the shift end, which voids a pending prompt and resolves an
open alert. In the ``SHIFT_DRAIN_S`` seconds the loop runs after it,
only escalation validations (remote review of recorded footage) and
their consequences run; other items find the specialist off shift and
are dropped. Validation keeps every delay within the drain, so each
shift leaves an empty heap.

Randomness comes from independent substreams, one per purpose (hazard,
ict, raters, breaks, sa) per specialist plus one fleet stream for rater
qualification, each seeded from ``sha256`` of (seed, purpose, id).
Toggling a block or adding a specialist leaves every other stream's
draws unchanged, which gives paired runs common random numbers, and
identical configurations produce byte-identical event logs. Idle
off-shift periods are bridged with exact exponential jumps, which
consume no randomness.

The protocols themselves live in the block modules; the runner draws
their inputs, schedules and logs. An escalation is opened with
``vigilance.open_case``, carried on the heap across the rating latency,
and resolved with ``vigilance.resolve_case``; a secondary alert's outcome
is decided by ``engagement.sa_resolve`` at the control transition that
raises it, so neither a break nor the shift end changes it.

Also hosts the ablation driver and the session-length hazard
calibration.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import awareness as aw
from . import engagement as eng
from . import scheduling as sched
from . import vigilance as vig
from .config import SHIFT_DRAIN_S, ConfigError, HazardConfig, ScenarioConfig, Toggles
from .events import EventLog
from .fatigue import (
    BreakActivity,
    FatigueContext,
    ModelParams,
    advance_components,
    compose_alertness,
    ord_hold_s,
    to_kss,
    to_ord_truth,
)
from .metrics import Metrics, compute_metrics

__all__ = [
    "AblationResult",
    "CalibrationResult",
    "calibrate_session_length_effect",
    "run_ablation",
    "run_scenario",
    "session_length_stats",
]

INVITED_CHECK_S = 300
PEER_CHECK_S = 3600
SIGNAL_RECENCY_S = 1800
SIGNAL_ICT_OUTCOMES = 10
RETRAIN_SHIFTS_OFF = 1

_BREAK_ACTIVITIES = (BreakActivity.REST, BreakActivity.PHYSICAL, BreakActivity.SOCIAL)

# Phases order the items that fall due in the same second. A validation
# comes after the minute checks because a rating latency under a second
# schedules it into the second its case opened.
_PHASE_ITEM = 0
_PHASE_SCHEDULED_BREAK = 1
_PHASE_ENGAGEMENT = 2
_PHASE_MINUTE = 3
_PHASE_VALIDATION = 4

_IDLE = FatigueContext(on_task=False)
_ASLEEP = FatigueContext(on_task=False, asleep=True)


class Activity(Enum):
    """What a specialist is doing. Every change goes through
    ``_Agent.enter``."""

    OFF_SHIFT = "off_shift"
    DRIVING = "driving"
    ON_BREAK = "on_break"
    # Retrieved or reassigned to auxiliary work for the rest of the shift.
    OFF_VEHICLE = "off_vehicle"


# Driving or on a break: surveys run and may ask for a break or a
# reassignment, and a confirmed escalation may retrieve the vehicle.
_IN_VEHICLE = (Activity.DRIVING, Activity.ON_BREAK)


def _scaled_params(model: ModelParams, susceptibility: float) -> ModelParams:
    """Per-specialist susceptibility scales fatigue accumulation rates."""
    if susceptibility == 1.0:
        return model
    return ModelParams(
        homeostat_rise_tau=model.homeostat_rise_tau / susceptibility,
        homeostat_decay_tau=model.homeostat_decay_tau,
        circadian_amplitude=model.circadian_amplitude,
        circadian_trough_hour=model.circadian_trough_hour,
        task_load_rate=model.task_load_rate * susceptibility,
        task_recovery_tau=model.task_recovery_tau,
        component_weights=model.component_weights,
        report_noise_sd=model.report_noise_sd,
    )


def _substream(seed: int, purpose: str, ident: str) -> random.Random:
    """The generator for one purpose of one specialist (or of the fleet),
    seeded from sha256 of (seed, purpose, id)."""
    key = json.dumps([seed, purpose, ident]).encode("utf-8")
    return random.Random(int.from_bytes(hashlib.sha256(key).digest(), "big"))


class _Agent:
    """Mutable per-specialist runtime state."""

    def __init__(self, cfg: ScenarioConfig, spec) -> None:
        self.spec = spec
        self.params = _scaled_params(cfg.model, spec.susceptibility)
        who = spec.specialist_id
        # hazard: incautious-behavior draws. ict: ICT responses and the
        # break after an intervention. raters: detector observations and
        # every rating and validation draw. breaks: self-reports, break
        # compliance and activities, invited and impromptu breaks, peer
        # concerns. sa: control transitions and secondary alerts.
        self.rng_hazard = _substream(cfg.seed, "hazard", who)
        self.rng_ict = _substream(cfg.seed, "ict", who)
        self.rng_raters = _substream(cfg.seed, "raters", who)
        self.rng_breaks = _substream(cfg.seed, "breaks", who)
        self.rng_sa = _substream(cfg.seed, "sa", who)
        # The fatigue state is a closed form of its anchor: the components
        # (sleep pressure, circadian phase, task load) at second t0, from
        # which it evolves under ctx (see ``state``).
        self.t0 = 0
        self.anchor = (spec.initial_sleep_pressure, 0.0, 0.0)
        self.ctx = _IDLE
        # The last evaluation, (second, components), and how many
        # ``advance_components`` calls the evaluations made.
        self._evaluated = (0, self.anchor)
        self.evaluations = 0
        # The ORD level, certified to hold through second ord_until; a
        # re-anchor voids the certificate.
        self.ord_level = 0
        self.ord_until = -math.inf
        self.activity = Activity.OFF_SHIFT
        self.session_start = 0
        self.session_had_incautious = False
        self.speed = cfg.behavior.speed_mps
        # Distance up to moving_since; the vehicle moves from then on,
        # while the specialist drives.
        self.odometer = 0.0
        self.moving_since: Optional[int] = None
        self.ict = eng.IctSchedulerState(specialist_id=who)
        self.planned_response: Optional[float] = None
        self.outcomes_since_adapt = 0
        self.next_transition: Optional[int] = None
        self.manual_until: Optional[int] = None
        # Generation tokens of the live ICT and control items.
        self.ict_gen = 0
        self.control_gen = 0
        # Set only in the vehicle; leaving it drops the follow-up.
        self.pending_followup_for: Optional[str] = None
        self.last_kss: Optional[tuple[int, int]] = None  # (time, value)
        self.last_confirmed: Optional[tuple[int, int]] = None  # (time, level)
        self.last_invited_offer: Optional[int] = None
        self.declines_this_shift = 0
        self.dms_cooldown_until = 0
        self.lifecycle = sched.SpecialistLifecycle(stage=spec.stage)
        self.shifts_until_return = 0
        self.pfs_seq = 0
        # (ord, on_task) of the last ord_change record this shift.
        self.logged_pair: Optional[tuple[int, bool]] = None

    # -- fatigue state ---------------------------------------------------

    def state(self, t: int) -> tuple[float, float, float]:
        """The components at second ``t`` (at or after t0), in closed form
        from the anchor, so their bits do not depend on which seconds were
        evaluated before."""
        at, components = self._evaluated
        if t != at:
            components = advance_components(*self.anchor, t - self.t0, self.ctx, self.params)
            self._evaluated = (t, components)
            self.evaluations += 1
        return components

    def alertness(self, t: int) -> float:
        return compose_alertness(*self.state(t), self.params)

    def reanchor(
        self,
        t: int,
        ctx: FatigueContext,
        pressure_scale: float = 1.0,
        task_load_scale: float = 1.0,
    ) -> None:
        """Anchor the state at ``t`` under ``ctx``, scaling sleep pressure
        and task load there. Every context change and every direct edit of
        the state goes through here, and each voids the ORD certificate."""
        pressure, phase, task_load = self.state(t)
        self.t0 = t
        self.anchor = (pressure * pressure_scale, phase, task_load * task_load_scale)
        self._evaluated = (t, self.anchor)
        self.ctx = ctx
        self.ord_until = -math.inf

    def certify_ord(self, t: int) -> int:
        """Evaluate the ground-truth ORD level at ``t`` and certify it
        through the last second the level provably holds."""
        components = self.state(t)
        alertness = compose_alertness(*components, self.params)
        self.ord_level = to_ord_truth(alertness)
        self.ord_until = t + ord_hold_s(
            components[0], components[2], alertness, self.ctx, self.params
        )
        return self.ord_level

    def current_odometer(self, t: int) -> float:
        if self.moving_since is None:
            return self.odometer
        return self.odometer + self.speed * (t - self.moving_since)

    def enter(self, t: int, activity: Activity, ctx: FatigueContext) -> None:
        """Start ``activity`` at ``t``: bank the odometer, keep the vehicle
        moving only while the specialist drives, and switch the fatigue
        context."""
        self.odometer = self.current_odometer(t)
        self.moving_since = t if activity is Activity.DRIVING else None
        self.activity = activity
        self.reanchor(t, ctx)


class ScenarioRunner:
    def __init__(self, cfg: ScenarioConfig):
        cfg.validate()
        self.cfg = cfg
        self.log = EventLog(seed=cfg.seed, config_hash=cfg.config_hash())
        self.agents = [_Agent(cfg, spec) for spec in cfg.fleet]
        self._rng_qualification = _substream(cfg.seed, "qualification", "fleet")
        # The enabled blocks' cadenced checks, in their order within the
        # minute, each as (cadence in whole seconds, check); the minute
        # item calls a due check as check(self, agent, t, ORD level). The
        # checks are plain functions: bound methods here would make the
        # runner a reference cycle that outlives the run until the cyclic
        # garbage collector finds it. Validation keeps every cadence at
        # least a second.
        toggles = cfg.toggles
        runner = ScenarioRunner
        self._checks: list = []
        self._reliability_s = 0
        if toggles.vigilance:
            self._checks += [
                (int(cfg.dms.observation_period), runner._dms_check),
                (int(cfg.vigilance.periodic_cadence_min * 60), runner._periodic_rating),
            ]
            self._reliability_s = int(cfg.vigilance.reliability_interval_min * 60)
        if toggles.awareness:
            self._checks += [
                (int(cfg.pfs.cadence_min * 60), runner._pfs_check),
                (PEER_CHECK_S, runner._peer_check),
            ]
        if toggles.scheduling:
            self._checks += [
                (INVITED_CHECK_S, runner._invited_break_check),
                (int(cfg.behavior.impromptu_check_min * 60), runner._impromptu_check),
            ]
        # No rate exceeds this: the coefficients are nonnegative, task load
        # is at most 1, alertness at least 0, and IEEE rounding is monotone.
        self._hazard_bound = cfg.hazard.rate(1.0, 0.0)
        self.horizon_s = cfg.horizon_days * 86400
        self._heap: list = []
        self._heap_seq = 0
        self._heap_high_water = 0
        self._stale_dropped = 0
        self._visits = 0
        self._shifts_run = 0
        self._shifts_skipped = 0
        # Last (second, phase) slot the shift loop has processed;
        # scheduling into it or earlier would leave the item at the heap
        # head forever.
        self._popped = (-1, _PHASE_ITEM)
        # The running shift's bounds and demand windows.
        self._shift_start = 0
        self._shift_end = 0
        self._demand: Optional[eng.DemandPattern] = None
        self._task_seq = 0
        self._case_seq = 0
        self._flag_seq = 0
        self._sa_seq = 0
        self._ticket_seq = 0
        self._validation_ratings: list[vig.OrdRating] = []
        self._qualified_pool: list[vig.RaterProfile] = []
        self._qualified_done = False

    # -- helpers -------------------------------------------------------

    def _schedule(self, time: int, phase: int, handler, *args) -> None:
        """Push an item that calls ``handler(time, *args)`` when it falls due."""
        time = int(time)
        if (time, phase) <= self._popped:
            raise RuntimeError(
                f"{handler.__name__!r} scheduled into slot {(time, phase)}, "
                f"at or before the last popped slot {self._popped}"
            )
        heapq.heappush(self._heap, (time, phase, self._heap_seq, handler, args))
        self._heap_seq += 1
        if len(self._heap) > self._heap_high_water:
            self._heap_high_water = len(self._heap)

    def stats(self) -> dict:
        """What the run did and what it cost the loop: events per record
        type, heap items scheduled, the heap's high-water mark, stale items
        dropped (see ``_live``), seconds visited, closed-form fatigue state
        evaluations (``advance_components`` calls), and shifts run and
        skipped."""
        return {
            "events_by_type": dict(sorted(Counter(e.type for e in self.log).items())),
            "heap_items": self._heap_seq,
            "heap_high_water": self._heap_high_water,
            "stale_items_dropped": self._stale_dropped,
            "seconds_visited": self._visits,
            "fatigue_evaluations": sum(agent.evaluations for agent in self.agents),
            "shifts_run": self._shifts_run,
            "shifts_skipped": self._shifts_skipped,
        }

    # -- top-level run ---------------------------------------------------

    def run(self) -> tuple[EventLog, Metrics]:
        """Run one shift a day. A day's shift runs only if it ends, with
        the ``SHIFT_DRAIN_S`` drain after it, within the horizon
        (``horizon_days`` × 86400 s); later shifts are skipped and counted
        in ``stats()``. The default 22:00 eight-hour shift plus drain ends
        at 06:30 the next day, so ``horizon_days=2`` runs one shift."""
        cfg = self.cfg
        shift_len_s = cfg.shift.duration_min * 60
        for day in range(cfg.horizon_days):
            start = day * 86400 + cfg.shift.start_min * 60
            end = start + shift_len_s
            if end + SHIFT_DRAIN_S > self.horizon_s:
                self._shifts_skipped += 1
                continue
            self._shifts_run += 1
            self._fast_forward_to(start)
            self._run_shift(start, end)
        return self.log, compute_metrics(self.log)

    def _fast_forward_to(self, shift_start: int) -> None:
        """Jump each agent through idle/sleep segments up to shift start."""
        sleep_start = shift_start - 9 * 3600
        sleep_end = shift_start - 1 * 3600
        # Sleep-hygiene training buys a fuller overnight recovery.
        recovery = 1.0
        if self.cfg.toggles.education:
            recovery -= self.cfg.behavior.education_recovery_bonus
        for agent in self.agents:
            if agent.t0 < sleep_start:
                agent.reanchor(sleep_start, _ASLEEP)
            if agent.t0 < sleep_end:
                agent.reanchor(sleep_end, _IDLE, pressure_scale=recovery)
            # Also for a specialist who sits the shift out, so every
            # off-shift day is bridged in the same segments.
            agent.reanchor(shift_start, agent.ctx)

    # -- shift loop -------------------------------------------------------

    def _run_shift(self, shift_start: int, shift_end: int) -> None:
        cfg = self.cfg
        self._ensure_rater_pool(shift_start)
        self._shift_start = shift_start
        self._shift_end = shift_end
        b = cfg.behavior
        self._demand = eng.DemandPattern.from_minutes(
            b.demand_period_min, b.demand_start_min, b.demand_duration_min, shift_start
        )

        active = []
        for agent in self.agents:
            if agent.lifecycle.stage in (sched.Stage.RETRAINING, sched.Stage.SUSPENDED):
                if (
                    agent.lifecycle.stage is sched.Stage.RETRAINING
                    and agent.shifts_until_return <= 0
                ):
                    agent.lifecycle = sched.lifecycle_step(
                        agent.lifecycle,
                        sched.LifecycleEvent.RETRAINING_COMPLETE,
                        now_days=shift_start / 86400.0,
                    )
                    self.log.append(
                        shift_start,
                        "lifecycle",
                        agent.spec.specialist_id,
                        stage=agent.lifecycle.stage.value,
                        event="retraining_complete",
                    )
                else:
                    agent.shifts_until_return -= 1
                    continue
            active.append(agent)
            self._start_shift(agent, shift_start)

        if not active:
            return

        # A duplicated offset keeps its last duration.
        breaks = dict(cfg.shift.scheduled_breaks)
        for offset, duration in breaks.items():
            self._schedule(
                shift_start + offset * 60,
                _PHASE_SCHEDULED_BREAK,
                self._on_scheduled_break,
                active,
                duration,
            )
        self._schedule(shift_start, _PHASE_MINUTE, self._on_minute, active)

        heap = self._heap
        loop_end = shift_end + SHIFT_DRAIN_S
        visited = None
        while heap and heap[0][0] <= loop_end:
            t, phase, _, handler, args = heapq.heappop(heap)
            self._popped = (t, phase)
            if t != visited:
                visited = t
                self._visits += 1
            handler(t, *args)
        if heap:
            # Validation bounds every delay by the drain.
            raise RuntimeError(
                f"{len(heap)} items outlast the drain after the shift ending at {shift_end}"
            )

    def _on_scheduled_break(self, t: int, agents: list, duration_min: int) -> None:
        for agent in agents:
            self._start_break(agent, t, duration_min, "scheduled", "scheduled")

    def _on_minute(self, t: int, agents: list) -> None:
        """Every active agent's minute, then the fleet's reliability
        checkpoint; on the last minute, the shift end (shift lengths are
        whole minutes)."""
        elapsed = t - self._shift_start
        period = self.cfg.sample_period_s
        sample = period > 0 and elapsed % period == 0
        # Every check but the trace waits for its first cadence to pass.
        due = [check for cadence, check in self._checks if elapsed and elapsed % cadence == 0]
        for agent in agents:
            self._agent_minute(agent, t, sample, due)
        if self._reliability_s and elapsed and elapsed % self._reliability_s == 0:
            self._reliability_checkpoint(t)
        if t < self._shift_end:
            self._schedule(t + 60, _PHASE_MINUTE, self._on_minute, agents)
        else:
            for agent in agents:
                self._end_shift(agent, t)

    # -- shift boundaries ---------------------------------------------

    def _start_shift(self, agent: _Agent, t: int) -> None:
        cfg = self.cfg
        agent.declines_this_shift = 0
        agent.logged_pair = None
        agent.ict.interventions_this_shift = 0
        self.log.append(
            t, "shift_start", agent.spec.specialist_id, day=t // 86400, dual=agent.spec.dual
        )
        if cfg.toggles.engagement:
            self._draw_transition(agent, t)
        self._start_driving(agent, t)
        if cfg.toggles.awareness:
            self._submit_pfs(agent, t, is_followup=False)

    def _end_shift(self, agent: _Agent, t: int) -> None:
        self._leave_vehicle(agent, t, "shift_end", Activity.OFF_SHIFT)
        if agent.ict.recent_outcomes:
            multiplier = eng.ict_adapt(agent.ict, self.cfg.ict)
            self.log.append(
                t,
                "ict_adapt",
                agent.spec.specialist_id,
                multiplier=round(multiplier, 6),
            )
        self.log.append(t, "shift_end", agent.spec.specialist_id)

    # -- minute checks ----------------------------------------------------

    def _agent_minute(self, agent: _Agent, t: int, sample: bool, due: list) -> None:
        """The agent's minute ``t``: the ORD level (and, if ``sample``, the
        state trace), the hazard draw, then the ``due`` checks. The state
        is evaluated only where a value is read: once the ORD certificate
        has expired, for a hazard draw under the bound on every rate, and
        in the checks that read alertness. A traced minute evaluates both
        the ORD level and the hazard rate, so a traced run checks the
        certificate and the bound against the untraced one."""
        who = agent.spec.specialist_id
        driving = agent.activity is Activity.DRIVING

        if sample:
            pressure, _, task_load = components = agent.state(t)
            alertness = compose_alertness(*components, agent.params)
            level = to_ord_truth(alertness)
        elif t <= agent.ord_until:
            level = agent.ord_level
        else:
            level = agent.certify_ord(t)
        if (level, driving) != agent.logged_pair:
            agent.logged_pair = (level, driving)
            self.log.append(t, "ord_change", who, ord=level, on_task=driving)
        if sample:
            self.log.append(
                t,
                "state_sample",
                who,
                alertness=round(alertness, 6),
                ord=level,
                task_load=round(task_load, 6),
                pressure=round(pressure, 6),
                on_task=driving,
                period_s=self.cfg.sample_period_s,
            )

        if driving:
            # Incautious-behavior hazard accrues per driving minute.
            draw = agent.rng_hazard.random()
            if (draw < self._hazard_bound or sample) and draw < self.cfg.hazard.rate(
                agent.state(t)[2], agent.alertness(t)
            ):
                self.log.append(t, "incautious", who)
                agent.session_had_incautious = True
        for check in due:
            check(self, agent, t, level)

    # -- engagement items ---------------------------------------------------

    def _record_interactivity(self, agent: _Agent, t: int) -> None:
        eng.record_interactivity(
            agent.ict, t, agent.current_odometer(t), agent.rng_ict, self.cfg.ict
        )

    def _plan_ict(self, agent: _Agent, t: int) -> None:
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
            due = eng.ict_due(
                agent.ict,
                after,
                agent.current_odometer(after),
                agent.speed,
                self.cfg.ict,
                self._demand,
            )
            if due is None:
                return
            at, arg = due
            handler = self._on_ict_prompt
        else:
            at, arg = math.floor(pending.deadline) + 1, "deadline_passed"
            if agent.planned_response is not None:
                respond_at = math.ceil(agent.planned_response)
                if respond_at <= pending.deadline:
                    at, arg = respond_at, "responded"
            rises_at = self._demand.next_high(after)
            if rises_at is not None and rises_at <= at:
                at, arg = rises_at, "demand_rose"
            handler = self._on_ict_resolve
        if at < self._shift_end:
            self._schedule(at, _PHASE_ENGAGEMENT, handler, agent, agent.ict_gen, arg)

    def _plan_control(self, agent: _Agent, t: int) -> None:
        """Supersede the agent's control item with the end of manual
        control or, outside it, the next control transition. Only a
        driving agent has one."""
        agent.control_gen += 1
        if agent.activity is not Activity.DRIVING:
            return
        if agent.manual_until is not None:
            at, handler = agent.manual_until, self._on_manual_end
        elif agent.next_transition is not None:
            at, handler = max(agent.next_transition, t + 1), self._on_transition
        else:
            return
        if at < self._shift_end:
            self._schedule(at, _PHASE_ENGAGEMENT, handler, agent, agent.control_gen)

    def _live(self, live: bool) -> bool:
        """Whether a popped item still applies; a stale one (its token was
        superseded, or its agent left the activity it needs) is counted and dropped."""
        if not live:
            self._stale_dropped += 1
        return live

    def _on_manual_end(self, t: int, agent: _Agent, gen: int) -> None:
        if not self._live(gen == agent.control_gen):
            return
        agent.manual_until = None
        self._record_interactivity(agent, t)
        self._plan_ict(agent, t)
        self._plan_control(agent, t)

    def _on_ict_prompt(
        self, t: int, agent: _Agent, gen: int, trigger: eng.IctTrigger
    ) -> None:
        if not self._live(gen == agent.ict_gen):
            return
        self._log_ict_prompt(agent, t, eng.ict_issue(agent.ict, t, trigger, self.cfg.ict))
        self._plan_ict(agent, t)

    def _on_ict_resolve(self, t: int, agent: _Agent, gen: int, signal: str) -> None:
        """End the pending prompt: the planned response arrives, the
        deadline passes, or demand rises."""
        if not self._live(gen == agent.ict_gen):
            return
        cfg = self.cfg
        latency = None
        if signal == "responded":
            latency = agent.planned_response - agent.ict.pending.issued_at
        resolution = eng.ict_resolve(agent.ict, signal, t, cfg.ict, latency_s=latency)
        self._log_ict_outcome(agent, t, resolution)
        if signal == "responded":
            # Completing an in-car task is itself engaging.
            agent.reanchor(t, agent.ctx, task_load_scale=1.0 - cfg.behavior.ict_relief)
            self._record_interactivity(agent, t)
        self._plan_ict(agent, t)

    # -- ICT ---------------------------------------------------------------

    def _log_ict_prompt(self, agent: _Agent, t: int, prompt: eng.IctPrompt) -> None:
        self.log.append(
            t,
            "ict_prompt",
            agent.spec.specialist_id,
            prompt_id=prompt.prompt_id,
            trigger=prompt.trigger.value,
            deadline=prompt.deadline,
            is_followup=prompt.is_followup,
            followup_of=prompt.followup_of,
        )
        self._plan_ict_response(agent, t, prompt)

    def _plan_ict_response(self, agent: _Agent, t: int, prompt: eng.IctPrompt) -> None:
        b = self.cfg.behavior
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
        latency = min(latency, self.cfg.ict.response_deadline_s - 1.0)
        agent.planned_response = prompt.issued_at + max(1.0, latency)

    def _log_ict_outcome(
        self, agent: _Agent, t: int, resolution: eng.IctResolution
    ) -> None:
        cfg = self.cfg
        who = agent.spec.specialist_id
        record = resolution.record
        agent.planned_response = None
        self.log.append(
            t,
            "ict_outcome",
            who,
            prompt_id=record.prompt_id,
            trigger=record.trigger.value,
            outcome=record.outcome.value,
            response_latency=record.response_latency,
            followup_of=record.followup_of,
        )
        agent.outcomes_since_adapt += 1
        if resolution.followup is not None:
            self._log_ict_prompt(agent, t, resolution.followup)
        if resolution.intervention is not None:
            self.log.append(
                t,
                "ict_intervention",
                who,
                prompt_id=resolution.intervention.prompt_id,
                actions=list(resolution.intervention.actions),
            )
            self._record_fatigue_event(agent, t, "severe", "ict_intervention")
            agent.reanchor(t, agent.ctx, task_load_scale=1.0 - cfg.behavior.alert_relief)
            self._record_interactivity(agent, t)
            if resolution.pull_over_recommended:
                self.log.append(t, "pull_over", who, prompt_id=record.prompt_id)
                self._start_break(
                    agent, t, self.cfg.breaks.duration_min, "pull_over", "pull_over"
                )
            elif agent.rng_ict.random() < 0.9:
                self._request_break(
                    agent, t, cfg.breaks.duration_min, "intervention", "ict_intervention"
                )
        if agent.outcomes_since_adapt >= cfg.ict.adapt_window:
            agent.outcomes_since_adapt = 0
            multiplier = eng.ict_adapt(agent.ict, cfg.ict)
            self.log.append(t, "ict_adapt", who, multiplier=round(multiplier, 6))

    def _void_pending_prompt(self, agent: _Agent, t: int) -> None:
        # The driving task went away (manual control, or the specialist
        # stopped driving); no penalty. The caller plans or supersedes
        # the agent's next ICT item.
        resolution = eng.ict_resolve(agent.ict, "demand_rose", t, self.cfg.ict)
        self._log_ict_outcome(agent, t, resolution)

    # -- control transitions and secondary alerts ----------------------

    def _draw_transition(self, agent: _Agent, t: int) -> None:
        rate_per_s = self.cfg.behavior.transition_rate_per_h / 3600.0
        if rate_per_s <= 0:
            agent.next_transition = None
            return
        agent.next_transition = t + max(1, int(agent.rng_sa.expovariate(rate_per_s)))

    def _on_transition(self, t: int, agent: _Agent, gen: int) -> None:
        if not self._live(gen == agent.control_gen):
            return
        cfg = self.cfg
        b = cfg.behavior
        who = agent.spec.specialist_id
        alertness = agent.alertness(t)
        rng = agent.rng_sa
        cause = rng.choices(
            (
                eng.TransitionCause.PEDAL,
                eng.TransitionCause.BUTTON,
                eng.TransitionCause.STEERING,
                eng.TransitionCause.BRAKE,
            ),
            weights=(0.4, 0.2, 0.2, 0.2),
        )[0]
        responsive_p = min(0.95, max(0.1, alertness + 0.1))
        inp = eng.SaDecisionInput(
            transition_cause=cause,
            speed=b.speed_mps + rng.uniform(0.0, 10.0),
            input_before=rng.random() < responsive_p,
            input_after=rng.random() < responsive_p,
            emergency=rng.random() < b.emergency_p,
        )
        self.log.append(
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
            self._void_pending_prompt(agent, t)
        self._record_interactivity(agent, t)
        decision = eng.sa_evaluate(inp, cfg.sa)
        self.log.append(
            t,
            "sa_decision",
            who,
            action=decision.action.value,
            rationale_score=round(decision.rationale_score, 6),
        )
        if decision.action is eng.SaAction.ISSUE:
            sa_id = f"sa-{self._sa_seq}"
            self._sa_seq += 1
            clear_p = min(0.98, b.sa_clear_base_p + 0.4 * alertness)
            if rng.random() < clear_p:
                input_latency = rng.uniform(1.0, cfg.sa.clear_timeout_s * 0.8)
            else:
                input_latency = None
            outcome = eng.sa_resolve(decision, input_latency, cfg.sa)
            if outcome is eng.SaResolution.CLEARED:
                resolve_delay_s = max(1, int(input_latency))
            else:
                resolve_delay_s = int(cfg.sa.clear_timeout_s)
            issue_at = t + int(decision.delay_s or 0)
            if issue_at < self._shift_end:
                self._schedule(
                    issue_at, _PHASE_ITEM, self._on_sa_issue, agent, sa_id, outcome, resolve_delay_s
                )
        self._draw_transition(agent, t)
        self._plan_ict(agent, t)
        self._plan_control(agent, t)

    # -- vigilance ---------------------------------------------------------

    def _ensure_rater_pool(self, t: int) -> None:
        if self._qualified_done or not self.cfg.toggles.vigilance:
            return
        self._qualified_done = True
        policy = self.cfg.vigilance
        test_set = [
            (1 + i % 5, frozenset()) for i in range(policy.qualification_items)
        ]
        for rater in self.cfg.raters:
            if not rater.qualified:
                continue
            passed = vig.qualify_rater(
                rater,
                test_set,
                self._rng_qualification,
                exact_match_threshold=policy.qualification_match_threshold,
            )
            self.log.append(
                t, "rater_qualification", None, rater_id=rater.rater_id, passed=passed
            )
            if passed:
                self._qualified_pool.append(rater)
        if len(self._qualified_pool) < policy.k_validation_raters + 1:
            raise ConfigError(
                "too few raters passed qualification for validation coverage"
            )

    def _log_task(self, t: int, task: vig.RatingTask) -> None:
        self.log.append(t, "rating_task", task.specialist_id, **task.to_record())

    def _open_case(
        self,
        agent: _Agent,
        t: int,
        route: vig.Route,
        feed: vig.Feed,
        true_ord: int,
        trigger_rating: Optional[vig.OrdRating] = None,
    ) -> int:
        """Open a case, log it, and schedule its validation for the second
        the validators' ratings arrive, which it returns."""
        cfg = self.cfg
        case = vig.open_case(
            route,
            feed,
            self._qualified_pool,
            cfg.vigilance.k_validation_raters,
            true_ord,
            agent.rng_raters,
            case_id=f"case-{self._case_seq}",
            first_task_index=self._task_seq,
            trigger_rating=trigger_rating,
            high_threshold=cfg.vigilance.route_two_threshold,
            detect_threshold=cfg.dms.detect_threshold_ord,
        )
        self._case_seq += 1
        self._task_seq += 1
        who = case.specialist_id
        opened = {"case_id": case.case_id, "route": route.value, "trigger": case.trigger}
        if route is vig.Route.ROUTE_ONE:
            self._log_task(t, case.task)
            self.log.append(t, "escalation_opened", who, **opened)
        else:
            self.log.append(t, "escalation_opened", who, **opened)
            # Immediate supervisor action, before any validation rating.
            self.log.append(
                t,
                "supervisor_action",
                who,
                case_id=case.case_id,
                action=vig.SupervisorAction.CHECK_IN.value,
            )
            self._log_task(t, case.task)
        resolve_at = t + int(cfg.vigilance.rating_latency_s)
        self._schedule(resolve_at, _PHASE_VALIDATION, self._on_escalation_validate, agent, case)
        return resolve_at

    def _dms_check(self, agent: _Agent, t: int, true_ord: int) -> None:
        """The detector observes a driving agent out of its cooldown at
        ORD level ``true_ord``; a flag alerts them and opens a route-one
        case."""
        cfg = self.cfg
        if (
            agent.activity is not Activity.DRIVING
            or t < agent.dms_cooldown_until
            or not vig.dms_observe(true_ord, cfg.dms, agent.rng_raters)
        ):
            return
        who = agent.spec.specialist_id
        flag_id = f"flag-{self._flag_seq}"
        self._flag_seq += 1
        self.log.append(t, "dms_flag", who, flag_id=flag_id, true_ord=true_ord)
        self.log.append(
            t, "alert", who, flag_id=flag_id, modalities=list(vig.ALERT_MODALITIES)
        )
        if cfg.toggles.engagement:
            self._record_interactivity(agent, t)
            self._plan_ict(agent, t)
        agent.reanchor(t, agent.ctx, task_load_scale=1.0 - cfg.behavior.alert_relief)
        feed = vig.Feed(who, t - cfg.dms.observation_period, t, escalated=True)
        resolve_at = self._open_case(agent, t, vig.Route.ROUTE_ONE, feed, true_ord)
        agent.dms_cooldown_until = resolve_at + int(cfg.vigilance.flag_cooldown_min * 60)

    def _periodic_rating(self, agent: _Agent, t: int, _level: int) -> None:
        if agent.activity is not Activity.DRIVING:
            return
        cfg = self.cfg
        who = agent.spec.specialist_id
        true_ord = to_ord_truth(agent.alertness(t))
        window_start = t - cfg.vigilance.periodic_cadence_min * 60
        task = vig.assign_rating_tasks(
            self._qualified_pool,
            [vig.Feed(who, window_start, t)],
            cfg.vigilance.k_validation_raters,
            agent.rng_raters,
            first_task_index=self._task_seq,
        )[0]
        self._task_seq += 1
        self._log_task(t, task)
        rater = next(
            r for r in self._qualified_pool if r.rater_id == task.assigned_rater_ids[0]
        )
        rating = vig.rate(rater, task, true_ord, agent.rng_raters)
        self._log_rating(t, who, rating)
        if rating.level >= cfg.vigilance.route_two_threshold:
            feed = vig.Feed(who, window_start, t, escalated=True)
            self._open_case(agent, t, vig.Route.ROUTE_TWO, feed, true_ord, rating)

    def _log_rating(self, t: int, who: str, rating: vig.OrdRating) -> None:
        self.log.append(
            t,
            "rating",
            who,
            rater_id=rating.rater_id,
            task_id=rating.task_id,
            level=rating.level,
            indicators=sorted(rating.indicators),
            observations=sorted(rating.observations),
        )

    def _on_escalation_validate(
        self, t: int, agent: _Agent, case: vig.EscalationCase
    ) -> None:
        who = case.specialist_id
        outcome = vig.resolve_case(case, self._qualified_pool, agent.rng_raters)
        for rating in outcome.validation_ratings:
            self._log_rating(t, who, rating)
        # Only a case's validators share a task and so move the kappa.
        self._validation_ratings.extend(outcome.validation_ratings)
        level = outcome.validated_level
        action = outcome.supervisor_action
        self.log.append(
            t,
            "escalation_resolved",
            who,
            case_id=case.case_id,
            route=case.route.value,
            trigger=case.trigger,
            validated_level=level,
            resolution=outcome.resolution.value,
            supervisor_action=None if action is None else action.value,
        )
        if outcome.resolution is not vig.Resolution.CONFIRMED:
            return
        agent.last_confirmed = (t, level)
        self._record_fatigue_event(
            agent, t, "severe" if level >= 5 else "moderate", "escalation"
        )
        if level < 5:
            self._start_break(
                agent,
                t,
                self.cfg.vigilance.post_confirm_break_min,
                "supervisor",
                "confirmed_escalation",
            )
        elif agent.activity in _IN_VEHICLE:
            self.log.append(t, "vehicle_retrieved", who, case_id=case.case_id)
            self._leave_vehicle(agent, t, "vehicle_retrieved", Activity.OFF_VEHICLE)

    def _reliability_checkpoint(self, t: int) -> None:
        """Log the kappa over every validation rating so far and how many
        it folds, once two raters share a task."""
        try:
            kappa = vig.inter_rater_reliability(self._validation_ratings)
        except vig.NoSharedTasksError:
            return
        self.log.append(
            t,
            "reliability",
            None,
            kappa=round(kappa, 6),
            ratings=len(self._validation_ratings),
        )

    def _record_fatigue_event(
        self, agent: _Agent, t: int, severity: str, source: str
    ) -> None:
        self.log.append(
            t,
            "fatigue_event",
            agent.spec.specialist_id,
            severity=severity,
            source=source,
        )
        if not self.cfg.toggles.education:
            return
        if agent.lifecycle.stage not in (
            sched.Stage.DUAL_QUALIFIED,
            sched.Stage.SINGLE_QUALIFIED,
        ):
            return
        before = agent.lifecycle.stage
        agent.lifecycle = sched.lifecycle_step(
            agent.lifecycle,
            sched.LifecycleEvent.FATIGUE_EVENT,
            now_days=t / 86400.0,
            severity=sched.FatigueSeverity(severity),
        )
        if agent.lifecycle.stage is not before:
            agent.shifts_until_return = RETRAIN_SHIFTS_OFF
            self.log.append(
                t,
                "lifecycle",
                agent.spec.specialist_id,
                stage=agent.lifecycle.stage.value,
                event="fatigue_threshold",
            )

    # -- awareness -----------------------------------------------------------

    def _submit_pfs(self, agent: _Agent, t: int, is_followup: bool) -> None:
        cfg = self.cfg
        who = agent.spec.specialist_id
        kss = to_kss(agent.alertness(t), agent.rng_breaks, agent.params)
        record_id = f"pfs-{who}-{agent.pfs_seq}"
        agent.pfs_seq += 1
        record, outcome = aw.submit_pfs(
            who,
            kss,
            t,
            is_followup=is_followup,
            triggered_by=agent.pending_followup_for if is_followup else None,
            record_id=record_id,
        )
        self.log.append(
            t,
            "pfs",
            who,
            record_id=record.record_id,
            kss=record.kss,
            is_followup=record.is_followup,
            triggered_by=record.triggered_by,
            window_minutes=record.window_minutes,
            action=outcome.action.value,
        )
        agent.last_kss = (t, kss)
        if outcome.action is aw.PfsAction.SUGGEST_BREAK_AND_FOLLOWUP:
            if agent.rng_breaks.random() < cfg.pfs.break_compliance:
                agent.pending_followup_for = record.record_id
                self._request_break(agent, t, cfg.breaks.duration_min, "pfs", "high_kss")
        elif outcome.action is aw.PfsAction.SUPERVISOR_OUTREACH:
            agent.pending_followup_for = None
            self.log.append(
                t,
                "supervisor_outreach",
                who,
                record_id=record.record_id,
                tips=list(outcome.tips or ()),
            )
            if kss >= cfg.pfs.outreach_reassign_kss and cfg.toggles.scheduling:
                self._reassign_auxiliary(agent, t, "persistent_high_kss")
        else:
            if is_followup:
                agent.pending_followup_for = None

    def _pfs_check(self, agent: _Agent, t: int, _level: int) -> None:
        if agent.activity is Activity.DRIVING:
            self._submit_pfs(agent, t, is_followup=False)

    def _peer_check(self, agent: _Agent, t: int, _level: int) -> None:
        # A dual specialist's peer grants no detection benefit; once an
        # hour they may raise a concern ticket with small probability.
        if not agent.spec.dual:
            return
        b = self.cfg.behavior
        rng = agent.rng_breaks
        if to_ord_truth(agent.alertness(t)) >= 4 and rng.random() < b.peer_concern_p_per_h:
            channel = (
                aw.ConcernChannel.SUPERVISOR_DIRECT
                if rng.random() < 0.7
                else aw.ConcernChannel.ANONYMOUS_SURVEY
            )
            ticket = aw.open_concern(
                channel,
                "peer observed possible drowsiness",
                anonymous=channel is aw.ConcernChannel.ANONYMOUS_SURVEY,
                specialist_id=agent.spec.specialist_id,
                ticket_id=f"ticket-{self._ticket_seq}",
            )
            self._ticket_seq += 1
            self.log.append(t, "concern", ticket.specialist_id, **ticket.to_record())

    # -- scheduling ---------------------------------------------------------

    def _signal_bundle(self, agent: _Agent, t: int) -> sched.BreakSignalBundle:
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
        return sched.BreakSignalBundle(
            latest_pfs_kss=kss,
            dms_flag_recent=dms_recent,
            rater_level_recent=rater_level,
            ict_miss_rate_window=miss_rate or 0.0,
        )

    def _invited_break_check(self, agent: _Agent, t: int, _level: int) -> None:
        if agent.activity is not Activity.DRIVING:
            return
        cfg = self.cfg
        who = agent.spec.specialist_id
        offer = sched.evaluate_break_triggers(
            self._signal_bundle(agent, t),
            cfg.breaks,
            now_min=t / 60.0,
            last_invited_min=None
            if agent.last_invited_offer is None
            else agent.last_invited_offer / 60.0,
        )
        if offer is None:
            return
        agent.last_invited_offer = t
        self.log.append(
            t,
            "invited_break_offer",
            who,
            reason=offer.reason,
            duration_min=offer.duration_min,
        )
        if agent.rng_breaks.random() < cfg.behavior.invited_decline_p:
            agent.declines_this_shift += 1
            self.log.append(
                t, "invited_break_declined", who, declines=agent.declines_this_shift
            )
            if agent.declines_this_shift == 2:
                self.log.append(t, "decline_outreach", who)
            return
        self._request_break(agent, t, offer.duration_min, "invited", offer.reason)

    def _impromptu_check(self, agent: _Agent, t: int, _level: int) -> None:
        if agent.activity is not Activity.DRIVING:
            return
        cfg = self.cfg
        perceived = to_kss(agent.alertness(t), agent.rng_breaks, agent.params)
        if perceived < cfg.behavior.impromptu_kss_threshold:
            return
        if agent.rng_breaks.random() >= cfg.behavior.impromptu_p:
            return
        self.log.append(
            t,
            "impromptu_break",
            agent.spec.specialist_id,
            perceived_kss=perceived,
            duration_min=cfg.breaks.duration_min,
        )
        self._start_break(
            agent, t, cfg.breaks.duration_min, "self", "self_assessed_fatigue"
        )

    def _reassign_auxiliary(self, agent: _Agent, t: int, reason: str) -> None:
        self.log.append(
            t,
            "assignment_change",
            agent.spec.specialist_id,
            from_assignment="driving",
            to_assignment="auxiliary",
            reason=reason,
            restaffed=True,
        )
        # Auxiliary work is off the vehicle: no monitoring, lighter load.
        self._leave_vehicle(agent, t, "reassigned", Activity.OFF_VEHICLE)

    # -- activity changes ------------------------------------------------

    def _start_driving(self, agent: _Agent, t: int) -> None:
        """A driving session starts at ``t``: at the shift start or at the
        end of a break."""
        agent.session_start = t
        agent.session_had_incautious = False
        agent.enter(
            t,
            Activity.DRIVING,
            FatigueContext(on_task=True, monotony=self.cfg.behavior.monotony),
        )
        if self.cfg.toggles.engagement:
            self._record_interactivity(agent, t)
            self._plan_ict(agent, t)
            self._plan_control(agent, t)

    def _leave_driving(self, agent: _Agent, t: int, cause: str) -> None:
        """End the driving session at ``t``, if the agent drives: void a
        pending prompt, end manual control, supersede the live engagement
        items and log ``session_end``. The caller enters the next
        activity."""
        if agent.activity is not Activity.DRIVING:
            return
        if agent.ict.pending is not None:
            self._void_pending_prompt(agent, t)
        agent.manual_until = None
        agent.ict_gen += 1
        agent.control_gen += 1
        duration_min = (t - agent.session_start) / 60.0
        if duration_min > 0:
            self.log.append(
                t,
                "session_end",
                agent.spec.specialist_id,
                duration_min=round(duration_min, 4),
                had_incautious=agent.session_had_incautious,
                cause=cause,
            )

    def _leave_vehicle(self, agent: _Agent, t: int, cause: str, activity: Activity) -> None:
        """The agent leaves the vehicle at ``t`` for the rest of the shift,
        or at its end, and enters ``activity``: the driving session, the
        open break and a pending follow-up survey end."""
        self._leave_driving(agent, t, cause)
        if agent.activity is Activity.ON_BREAK:
            self.log.append(t, "break_end", agent.spec.specialist_id)
        agent.pending_followup_for = None
        agent.enter(t, activity, _IDLE)

    def _request_break(
        self, agent: _Agent, t: int, duration_min: float, initiator: str, reason: str
    ) -> None:
        """Ask for a break a minute from now."""
        self._schedule(
            t + 60, _PHASE_ITEM, self._on_break_start, agent, duration_min, initiator, reason
        )

    def _start_break(
        self, agent: _Agent, t: int, duration_min: float, initiator: str, reason: str
    ) -> None:
        """Start a break if the agent drives; a request that falls due
        while they are on a break, off the vehicle or off shift is
        dropped."""
        if agent.activity is not Activity.DRIVING:
            return
        self._leave_driving(agent, t, f"break:{initiator}")
        activity = agent.rng_breaks.choices(
            _BREAK_ACTIVITIES, weights=self.cfg.behavior.break_activity_weights
        )[0]
        agent.enter(
            t,
            Activity.ON_BREAK,
            FatigueContext(on_task=False, in_break=True, break_activity=activity),
        )
        self.log.append(
            t,
            "break_start",
            agent.spec.specialist_id,
            initiator=initiator,
            reason=reason,
            duration_min=duration_min,
            activity=activity.value,
        )
        self._schedule(t + int(duration_min * 60), _PHASE_ITEM, self._on_break_end, agent)

    def _on_break_end(self, t: int, agent: _Agent) -> None:
        if not self._live(agent.activity is Activity.ON_BREAK):
            return
        self.log.append(t, "break_end", agent.spec.specialist_id)
        self._start_driving(agent, t)
        if self.cfg.toggles.awareness:
            if agent.pending_followup_for is not None:
                if agent.rng_breaks.random() < self.cfg.pfs.followup_compliance:
                    self._schedule(t + 60, _PHASE_ITEM, self._on_pfs_followup, agent)
                else:
                    self._schedule(
                        t + int(self.cfg.pfs.followup_due_min * 60),
                        _PHASE_ITEM,
                        self._on_pfs_reminder,
                        agent,
                    )
            else:
                self._schedule(t + 60, _PHASE_ITEM, self._on_pfs_regular, agent)

    # -- ordinary items ----------------------------------------------------

    def _on_break_start(
        self, t: int, agent: _Agent, duration_min: float, initiator: str, reason: str
    ) -> None:
        if self._live(agent.activity is Activity.DRIVING):
            self._start_break(agent, t, duration_min, initiator, reason)

    def _on_pfs_followup(self, t: int, agent: _Agent) -> None:
        if self._live(agent.pending_followup_for is not None):
            self._submit_pfs(agent, t, is_followup=True)

    def _on_pfs_regular(self, t: int, agent: _Agent) -> None:
        if self._live(agent.activity in _IN_VEHICLE):
            self._submit_pfs(agent, t, is_followup=False)

    def _on_pfs_reminder(self, t: int, agent: _Agent) -> None:
        if self._live(agent.pending_followup_for is not None):
            self.log.append(
                t,
                "pfs_reminder",
                agent.spec.specialist_id,
                pending=agent.pending_followup_for,
            )
            self._schedule(t + 60, _PHASE_ITEM, self._on_pfs_followup, agent)

    def _on_sa_issue(
        self,
        t: int,
        agent: _Agent,
        sa_id: str,
        outcome: eng.SaResolution,
        resolve_delay_s: int,
    ) -> None:
        self.log.append(t, "sa_issued", agent.spec.specialist_id, sa_id=sa_id)
        self._schedule(
            min(t + resolve_delay_s, self._shift_end),
            _PHASE_ITEM,
            self._on_sa_resolve,
            agent,
            sa_id,
            outcome,
        )

    def _on_sa_resolve(
        self, t: int, agent: _Agent, sa_id: str, outcome: eng.SaResolution
    ) -> None:
        self.log.append(
            t, "sa_resolved", agent.spec.specialist_id, sa_id=sa_id, outcome=outcome.value
        )


def run_scenario(
    cfg: ScenarioConfig, stats: Optional[dict] = None
) -> tuple[EventLog, Metrics]:
    """Execute one scenario; identical configs yield identical logs. If
    ``stats`` is a dict, the run's ``ScenarioRunner.stats()`` go into it."""
    runner = ScenarioRunner(cfg)
    result = runner.run()
    if stats is not None:
        stats.update(runner.stats())
    return result


# -- ablation -----------------------------------------------------------


@dataclass(frozen=True)
class AblationResult:
    toggle_set_names: tuple[str, ...]
    seeds: tuple[int, ...]
    values: dict  # (set_name, seed) -> {metric: value}
    metric_names: tuple[str, ...] = (
        "time_at_ord_ge4_min",
        "incautious_rate_per_h",
        "incautious_events",
        "fatigue_event_count",
        "interventions",
        "invited_breaks",
        "impromptu_breaks",
    )

    def deltas(self) -> list[dict]:
        """Per-seed deltas of every set against the first set."""
        baseline = self.toggle_set_names[0]
        rows = []
        for name in self.toggle_set_names[1:]:
            for seed in self.seeds:
                for metric in self.metric_names:
                    rows.append(
                        {
                            "toggle_set": name,
                            "seed": seed,
                            "metric": metric,
                            "baseline": self.values[(baseline, seed)][metric],
                            "value": self.values[(name, seed)][metric],
                            "delta": self.values[(name, seed)][metric]
                            - self.values[(baseline, seed)][metric],
                        }
                    )
        return rows

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["toggle_set", "seed", "metric", "baseline", "value", "delta"]
        )
        for row in self.deltas():
            writer.writerow(
                [
                    row["toggle_set"],
                    row["seed"],
                    row["metric"],
                    f"{row['baseline']:.6f}",
                    f"{row['value']:.6f}",
                    f"{row['delta']:.6f}",
                ]
            )
        return out.getvalue()


def _metric_summary(metrics: Metrics) -> dict:
    return {name: float(getattr(metrics, name)) for name in AblationResult.metric_names}


def run_ablation(
    cfg: ScenarioConfig,
    toggle_sets: Sequence[tuple[str, Toggles]],
    n_seeds: int = 20,
    base_seed: Optional[int] = None,
) -> AblationResult:
    """Run every toggle set on the same seed list and pair the results."""
    if len(toggle_sets) < 2:
        raise ValueError("at least two toggle sets are required")
    if n_seeds < 1:
        raise ValueError("n_seeds must be positive")
    start = cfg.seed if base_seed is None else base_seed
    seeds = tuple(start + i for i in range(n_seeds))
    values = {}
    for name, toggles in toggle_sets:
        for seed in seeds:
            run_cfg = cfg.with_overrides(seed=seed, toggles=toggles)
            _, metrics = run_scenario(run_cfg)
            values[(name, seed)] = _metric_summary(metrics)
    return AblationResult(
        toggle_set_names=tuple(name for name, _ in toggle_sets),
        seeds=seeds,
        values=values,
    )


# -- session-length hazard calibration ---------------------------------


SHORT_SESSION_MIN = (5, 14)
LONG_SESSION_MIN = (31, 60)
# The calibration fits the hazard so that these are the exact
# probabilities of at least one event in a short and in a long session.
TARGET_SHORT = 0.11
TARGET_LONG = 0.66
MAX_CALIBRATION_ITERATIONS = 50


@dataclass(frozen=True)
class CalibrationResult:
    hazard: HazardConfig
    exact_short: float
    exact_long: float
    mc_short: float
    mc_long: float
    ratio: float
    converged: bool
    iterations: int
    sessions_per_bucket: int


def _session_trace(cfg: ScenarioConfig, minutes: int) -> list[tuple[float, float]]:
    """Per-minute (task_load, alertness) for a fresh driving session."""
    spec = cfg.fleet[0]
    params = _scaled_params(cfg.model, spec.susceptibility)
    ctx = FatigueContext(on_task=True, monotony=cfg.behavior.monotony)
    pressure = spec.initial_sleep_pressure
    phase = (cfg.shift.start_min / 60.0) % 24.0
    task_load = 0.0
    trace = []
    for _ in range(minutes):
        pressure, phase, task_load = advance_components(
            pressure, phase, task_load, 60.0, ctx, params
        )
        trace.append(
            (task_load, compose_alertness(pressure, phase, task_load, params))
        )
    return trace


def _bucket_probability(
    hazard: HazardConfig, trace: Sequence[tuple[float, float]], bucket: tuple[int, int]
) -> float:
    """Exact P(at least one event) averaged over bucket durations."""
    lo, hi = bucket
    survival = 1.0
    prefix = []
    for task_load, alertness in trace:
        survival *= 1.0 - hazard.rate(task_load, alertness)
        prefix.append(survival)
    values = [1.0 - prefix[d - 1] for d in range(lo, hi + 1)]
    return sum(values) / len(values)


def session_length_stats(
    cfg: ScenarioConfig, hazard: HazardConfig
) -> tuple[float, float, float]:
    """Exact (short probability, long probability, ratio) for a hazard."""
    trace = _session_trace(cfg, LONG_SESSION_MIN[1])
    p_short = _bucket_probability(hazard, trace, SHORT_SESSION_MIN)
    p_long = _bucket_probability(hazard, trace, LONG_SESSION_MIN)
    ratio = p_long / p_short if p_short > 0 else math.inf
    return p_short, p_long, ratio


def _monte_carlo_bucket(
    hazard: HazardConfig,
    trace: Sequence[tuple[float, float]],
    bucket: tuple[int, int],
    sessions: int,
    rng: random.Random,
) -> float:
    hits = 0
    rates = [hazard.rate(tl, al) for tl, al in trace]
    draw = rng.random
    for _ in range(sessions):
        duration = rng.randint(*bucket)
        # Stop at the first event, as the session would.
        for rate in rates[:duration]:
            if draw() < rate:
                hits += 1
                break
    return hits / sessions


def calibrate_session_length_effect(
    cfg: ScenarioConfig,
    target_ratio_range: tuple[float, float] = (5.0, 7.0),
    *,
    sessions_per_bucket: int = 5000,
    task_load_gain_override: Optional[float] = None,
) -> CalibrationResult:
    """Fit the incautious-event hazard so long sessions are several times
    likelier to contain an event than short ones.

    Solves the two hazard coefficients against the exact product-form
    session probabilities with full Newton steps on a finite-difference
    Jacobian, clamping each coefficient at zero, then verifies with a
    seeded Monte-Carlo run of ``sessions_per_bucket`` (at least 1)
    sessions per duration bucket. With ``task_load_gain_override`` the
    time-on-task coupling is frozen (e.g. at zero for a flat-hazard null
    model) and only the base rate is fitted, which cannot reach the
    targets.
    """
    if sessions_per_bucket < 1:
        raise ValueError(f"sessions_per_bucket must be at least 1, got {sessions_per_bucket}")
    if cfg.toggles.any_on():
        raise ConfigError("calibration requires a baseline with countermeasures off")
    trace = _session_trace(cfg, LONG_SESSION_MIN[1])
    al_gain = cfg.hazard.alertness_gain

    def probabilities(base: float, gain: float) -> tuple[float, float]:
        hz = HazardConfig(
            base_per_min=base, task_load_gain=gain, alertness_gain=al_gain
        )
        return (
            _bucket_probability(hz, trace, SHORT_SESSION_MIN),
            _bucket_probability(hz, trace, LONG_SESSION_MIN),
        )

    base, gain = cfg.hazard.base_per_min, cfg.hazard.task_load_gain
    if task_load_gain_override is not None:
        gain = task_load_gain_override
    iterations = 0
    eps = 1e-7
    for iterations in range(1, MAX_CALIBRATION_ITERATIONS + 1):
        p_short, p_long = probabilities(base, gain)
        f1 = p_short - TARGET_SHORT
        f2 = p_long - TARGET_LONG
        if abs(f1) < 1e-9 and abs(f2) < 1e-9:
            break
        if task_load_gain_override is not None:
            # One free parameter: secant step on the short-session target.
            d = (probabilities(base + eps, gain)[0] - p_short) / eps
            if d <= 0:
                break
            base = max(0.0, base - f1 / d)
            continue
        d11 = (probabilities(base + eps, gain)[0] - p_short) / eps
        d12 = (probabilities(base, gain + eps)[0] - p_short) / eps
        d21 = (probabilities(base + eps, gain)[1] - p_long) / eps
        d22 = (probabilities(base, gain + eps)[1] - p_long) / eps
        det = d11 * d22 - d12 * d21
        if abs(det) < 1e-18:
            break
        step_base = (f1 * d22 - f2 * d12) / det
        step_gain = (f2 * d11 - f1 * d21) / det
        base = max(0.0, base - step_base)
        gain = max(0.0, gain - step_gain)

    fitted = HazardConfig(
        base_per_min=base, task_load_gain=gain, alertness_gain=al_gain
    )
    exact_short, exact_long, ratio = session_length_stats(cfg, fitted)
    rng = random.Random(cfg.seed ^ 0x5E5510)
    mc_short = _monte_carlo_bucket(
        fitted, trace, SHORT_SESSION_MIN, sessions_per_bucket, rng
    )
    mc_long = _monte_carlo_bucket(
        fitted, trace, LONG_SESSION_MIN, sessions_per_bucket, rng
    )
    lo, hi = target_ratio_range
    converged = (
        abs(exact_short - TARGET_SHORT) < 1e-6
        and abs(exact_long - TARGET_LONG) < 1e-6
        and lo <= ratio <= hi
    )
    return CalibrationResult(
        hazard=fitted,
        exact_short=exact_short,
        exact_long=exact_long,
        mc_short=mc_short,
        mc_long=mc_long,
        ratio=ratio,
        converged=converged,
        iterations=iterations,
        sessions_per_bucket=sessions_per_bucket,
    )
