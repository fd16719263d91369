"""Deterministic fleet-shift simulator.

One scenario is a discrete-event loop over the horizon on a 1-second
time grid. Within a shift, time advances by events only: the loop pops
the next item off one heap, ordered by (second, phase, push order), and
calls the function the item carries as ``handler(runner, second,
*args)``. The phases order the work that falls due in one second:
ordinary items (break ends, follow-up surveys, secondary alerts), then
scheduled breaks (all pushed when the shift starts), engagement items,
the fleet's minute item (and, on the last minute, the shift end), and
last the escalation validations, which may fall due in the second their
case opened.

The minute item runs only on the minute ticks with work due, so a run
costs in proportion to its work, not to its simulated minutes. A tick
has work for every active specialist when a check of the enabled blocks
or the state trace falls due there. It has work for one specialist when
their ORD certificate has lapsed (every re-anchor of their fatigue state
lapses it, so each activity change brings a visit), or when their hazard
or detector candidate falls there. A visited specialist's minute takes
the ORD level, the hazard and the detector at a candidate, then the due
checks; then the item runs the fleet's checks (the reliability
checkpoint) and moves to the next tick with work, up to the shift end.
The shift's checks, fleet checks and trace ticks are planned once per
configuration shape (``_minute_plan``). A re-anchor between minute items
raises a flag the agents share with the runner; the loop checks it after
each item and pulls the minute item forward to the next tick not yet
run.

The hazard draws ahead on its own substream: one uniform per driving
minute, as a per-minute draw would take them, up to the first under the
bound on every rate (``hazard.rate(1, 0)``), whose tick is the
candidate. Only a candidate evaluates the rate and may log
``incautious``, so the draws and the records are those of a draw every
minute. The detector observes a driving specialist out of its cooldown
on the minute ticks a whole number of ``dms.observation_period`` into
the shift. It draws, on its own substream, the geometric number of such
observations up to its next flag at the flag probability of the
certified ORD level (Devroye, *Non-Uniform Random Variate Generation*,
1986), which keeps the law of a draw per observation. The gap is drawn
again when the level changes, when driving starts and after a flag.

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

A visited minute samples the specialist's ground-truth ORD level and
whether they are on task (driving). It logs an ``ord_change`` record
only when that pair differs from the one last logged in the shift, and
every shift logs one at its start; the pair cannot change at a tick
that is not visited. The metrics fold on-task time and time at ORD >= 4
from these records. The fatigue state is a closed form of its last
anchor (``_Agent.state``), so it is evaluated only where a value is
read: when the ORD level's certificate (``fatigue.ord_hold_s``) has
expired, at a hazard candidate, and in the checks that read alertness.
A positive ``sample_period_s`` adds a full-state ``state_sample`` trace
on the minutes into the shift that are multiples of it; nothing folds
the trace, and it changes no other record. A traced minute computes
the level from scratch and, while driving, the hazard rate, and raises
if the rate exceeds the bound, so a traced run checks the certificates
and the bound of the untraced one.

This module is the core of the run: the agent, the heap loop, the shift
boundaries, the activity changes, the minute's ORD level and hazard,
and education's two effects (a fuller overnight recovery, and
fatigue events that move a specialist's lifecycle). Every block but
education keeps its fleet-run code next to its protocol, in ``engagement``,
``vigilance``, ``awareness`` and ``scheduling``, as plain functions that
take the runner as ``run``. ``ScenarioRunner`` reads each toggle once,
when it is built, and lists the enabled blocks' minute checks, the
detector and hooks (shift opener, start driving, leave driving, shift
end), so a block that is off never runs. Two cross-block effects test
a toggle again: a detector alert restarts the engagement gap, and
survey outreach reassigns only with scheduling on.

No engagement item or secondary alert is scheduled at or after the
shift end. In the ``SHIFT_DRAIN_S`` seconds the loop runs after it, only
escalation validations (remote review of recorded footage) and their
consequences run; other items find the specialist off shift and are
dropped. Validation keeps every delay within the drain, so each shift
leaves an empty heap.

Randomness comes from independent substreams, one per purpose (hazard,
ict, dms, raters, breaks, sa) per specialist plus one fleet stream for
rater qualification, each seeded from ``sha256`` of (seed, purpose, id).
Toggling a block or adding a specialist leaves every other stream's
draws unchanged, which gives paired runs common random numbers, and
identical configurations produce byte-identical event logs. Idle
off-shift periods are bridged with exact exponential jumps, which
consume no randomness.

Also hosts the ablation driver and the session-length hazard
calibration.
"""

from __future__ import annotations

import csv
import functools
import heapq
import io
import math
from dataclasses import dataclass, replace
from typing import BinaryIO, ClassVar, Optional, Sequence

from . import awareness as aw
from . import engagement as eng
from . import scheduling as sched
from . import vigilance as vig
from .config import SHIFT_DRAIN_S, ConfigError, HazardConfig, ScenarioConfig, Toggles
from .events import EventLog
from .fatigue import (
    Activity,
    BreakActivity,
    FatigueContext,
    ModelParams,
    advance_components,
    compose_alertness,
    ord_hold_s,
    to_ord_truth,
)
from .metrics import Metrics, MetricsFold
from .substreams import substream

__all__ = [
    "AblationResult",
    "CalibrationResult",
    "calibrate_session_length_effect",
    "run_ablation",
    "run_scenario",
    "session_length_stats",
]

RETRAIN_SHIFTS_OFF = 1

_BREAK_ACTIVITIES = (BreakActivity.REST, BreakActivity.PHYSICAL, BreakActivity.SOCIAL)

_IDLE = FatigueContext(on_task=False)
_ASLEEP = FatigueContext(on_task=False, asleep=True)


@functools.lru_cache(maxsize=64)
def _minute_plan(checks: tuple, fleet_checks: tuple, sample_period_s: int, duration_min: int):
    """A shift's minute ticks, by minutes into the shift: the checks due,
    the fleet checks due, whether the trace samples, and the next minute
    with any of these or the shift end. A check falls due on the minute
    ticks that are a whole number of its cadence into the shift, but not
    at the start; the trace samples at the start too. Cached on the
    runner's tables, which every run of a configuration shares."""
    plan = []
    following = duration_min
    for minute in range(duration_min, -1, -1):
        elapsed = minute * 60
        due = tuple(check for cadence, check in checks if minute and elapsed % cadence == 0)
        fleet_due = tuple(
            check for cadence, check in fleet_checks if minute and elapsed % cadence == 0
        )
        sample = sample_period_s > 0 and elapsed % sample_period_s == 0
        plan.append((due, fleet_due, sample, following))
        if due or fleet_due or sample:
            following = minute
    plan.reverse()
    return tuple(plan)


def _scaled_params(model: ModelParams, susceptibility: float) -> ModelParams:
    """Per-specialist susceptibility scales fatigue accumulation rates."""
    if susceptibility == 1.0:
        return model
    return replace(
        model,
        homeostat_rise_tau=model.homeostat_rise_tau / susceptibility,
        task_load_rate=model.task_load_rate * susceptibility,
    )


class _Agent:
    """Mutable per-specialist runtime state."""

    def __init__(self, cfg: ScenarioConfig, spec, wake: list) -> None:
        self.spec = spec
        self.params = _scaled_params(cfg.model, spec.susceptibility)
        who = spec.specialist_id
        # hazard: incautious-behavior draws. ict: ICT responses and the
        # break after an intervention. dms: the detector's gaps. raters:
        # every rating and validation draw. breaks: self-reports, break
        # compliance and activities, invited and impromptu breaks, peer
        # concerns. sa: control transitions and secondary alerts.
        self.rng_hazard = substream(cfg.seed, "hazard", who)
        self.rng_ict = substream(cfg.seed, "ict", who)
        self.rng_dms = substream(cfg.seed, "dms", who)
        self.rng_raters = substream(cfg.seed, "raters", who)
        self.rng_breaks = substream(cfg.seed, "breaks", who)
        self.rng_sa = substream(cfg.seed, "sa", who)
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
        # The first minute tick with work for this agent (a lapsed
        # certificate, a hazard or detector candidate); -inf for the
        # first tick not yet run. A re-anchor sets it so and raises the
        # runner's ``wake`` flag, shared by every agent of the run.
        self.due = -math.inf
        self.wake = wake
        # The hazard draws ahead (``ScenarioRunner._draw_hazard``): of the
        # driving ticks counted from tick hazard_from, the first
        # hazard_left draw at or over the bound and the next draws
        # hazard_draw under it, at tick hazard_due while the agent drives.
        self.hazard_left = math.inf
        self.hazard_from = 0
        self.hazard_due = math.inf
        self.hazard_draw = 1.0
        # The detector flags at observed minute dms_due, a gap drawn at
        # the flag probability of level dms_level (None: draw at the next
        # visit).
        self.dms_level: Optional[int] = None
        self.dms_due = math.inf
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
        self.due = -math.inf
        self.wake[0] = True

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
    # Phases order the items that fall due in the same second. A validation
    # comes after the minute checks because a rating latency under a second
    # schedules it into the second its case opened.
    PHASE_ITEM = 0
    PHASE_SCHEDULED_BREAK = 1
    PHASE_ENGAGEMENT = 2
    PHASE_MINUTE = 3
    PHASE_VALIDATION = 4

    def __init__(self, cfg: ScenarioConfig, stream: Optional[BinaryIO] = None):
        cfg.validate()
        self.cfg = cfg
        # The log folds the metrics as the run appends it, and keeps its
        # records or streams them into ``stream`` (see ``run_scenario``).
        self._fold = MetricsFold()
        # Only a streamed log writes the config hash, in its header.
        self.log = EventLog(
            cfg.seed, None if stream is None else cfg.config_hash(), stream, self._fold
        )
        # Raised by an agent's re-anchor: the minute item may be due sooner.
        self._wake = [False]
        self.agents = [_Agent(cfg, spec, self._wake) for spec in cfg.fleet]
        # The enabled blocks' functions, listed once. The minute checks
        # keep their order within the minute, each as (cadence in whole
        # seconds, check): the minute item calls a due check as
        # check(self, agent, t, ORD level) and a due fleet check as
        # check(self, t). A shift opener is called as opener(self, t) and
        # the other hooks as hook(self, agent, t). They are plain
        # functions: bound methods here would make the runner a reference
        # cycle that outlives the run until the cyclic garbage collector
        # finds it. Validation keeps every cadence at least a second. The
        # detector, if on, is called as detector(self, agent, t, ORD level)
        # at each driving minute its agent is visited.
        toggles = cfg.toggles
        self.checks: list = []
        self.fleet_checks: list = []
        self.shift_openers: list = []
        self.start_driving_hooks: list = []
        self.leave_driving_hooks: list = []
        self.shift_end_hooks: list = []
        self.detector = None
        if toggles.engagement:
            self.start_driving_hooks.append(eng.start_driving)
            self.leave_driving_hooks.append(eng.leave_driving)
            self.shift_end_hooks.append(eng.end_shift)
        if toggles.vigilance:
            self.checks += vig.checks(cfg)
            self.fleet_checks += vig.fleet_checks(cfg)
            self.shift_openers.append(vig.qualify_raters)
            self.start_driving_hooks.append(vig.start_driving)
            self.detector = vig.detect
        if toggles.awareness:
            self.checks += aw.checks(cfg)
            self.start_driving_hooks.append(aw.start_driving)
        if toggles.scheduling:
            self.checks += sched.checks(cfg)
        # Sleep-hygiene training buys a fuller overnight recovery, and
        # fatigue events move a trained specialist's lifecycle.
        self._education = toggles.education
        self._recovery = 1.0 - cfg.behavior.education_recovery_bonus if toggles.education else 1.0
        # No rate exceeds this: the coefficients are nonnegative, task load
        # is at most 1, alertness at least 0, and IEEE rounding is monotone.
        self._hazard_bound = cfg.hazard.rate(1.0, 0.0)
        self.horizon_s = cfg.horizon_days * 86400
        # No run has more driving minutes than minute ticks, so a hazard
        # candidate further ahead than this never falls due.
        self._tick_cap = cfg.horizon_days * (cfg.shift.duration_min + 1)
        # Each agent's first candidate, in driving ticks from its first drive.
        for agent in self.agents:
            self._draw_hazard(agent)
        self._plan = _minute_plan(
            tuple(self.checks),
            tuple(self.fleet_checks),
            cfg.sample_period_s,
            cfg.shift.duration_min,
        )
        # The second the minute item runs next, and the seconds of the
        # minute items on the heap; a minute item that pops at another
        # second than _minute_at is stale.
        self._minute_at = math.inf
        self._minute_items: set = set()
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
        self._popped = (-1, self.PHASE_ITEM)
        # The running shift's bounds and demand windows.
        self.shift_start = 0
        self.shift_end = 0
        self.demand: Optional[eng.DemandPattern] = None
        # Fleet counters and the qualified rater pool, kept by the blocks.
        self.task_seq = 0
        self.case_seq = 0
        self.flag_seq = 0
        self.sa_seq = 0
        self.ticket_seq = 0
        self.agreement = vig.RaterAgreement()
        self.pool: list[vig.RaterProfile] = []

    # -- helpers -------------------------------------------------------

    def schedule(self, time: int, phase: int, handler, *args) -> None:
        """Push an item that calls ``handler(self, time, *args)`` when it
        falls due."""
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

    def live(self, live: bool) -> bool:
        """Whether a popped item still applies; a stale one (its token was
        superseded, a minute item was pulled forward past it, or its agent
        left the activity it needs) is counted and dropped."""
        if not live:
            self._stale_dropped += 1
        return live

    def stats(self) -> dict:
        """What the run did and what it cost the loop: events per record
        type, heap items scheduled, the heap's high-water mark, stale items
        dropped (see ``live``), seconds visited, closed-form fatigue state
        evaluations (``advance_components`` calls), and shifts run and
        skipped."""
        return {
            "events_by_type": dict(sorted(self.log.type_counts().items())),
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
        self.log.close()
        return self.log, self._fold.finish()

    def _fast_forward_to(self, shift_start: int) -> None:
        """Jump each agent through idle/sleep segments up to shift start."""
        sleep_start = shift_start - 9 * 3600
        sleep_end = shift_start - 1 * 3600
        for agent in self.agents:
            if agent.t0 < sleep_start:
                agent.reanchor(sleep_start, _ASLEEP)
            if agent.t0 < sleep_end:
                agent.reanchor(sleep_end, _IDLE, pressure_scale=self._recovery)
            # Also for a specialist who sits the shift out, so every
            # off-shift day is bridged in the same segments.
            agent.reanchor(shift_start, agent.ctx)

    # -- shift loop -------------------------------------------------------

    def _run_shift(self, shift_start: int, shift_end: int) -> None:
        cfg = self.cfg
        for opener in self.shift_openers:
            opener(self, shift_start)
        self.shift_start = shift_start
        self.shift_end = shift_end
        b = cfg.behavior
        self.demand = eng.DemandPattern.from_minutes(
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
            self.schedule(
                shift_start + offset * 60,
                self.PHASE_SCHEDULED_BREAK,
                ScenarioRunner._on_scheduled_break,
                active,
                duration,
            )
        self._schedule_minute(shift_start, active)

        heap = self._heap
        wake = self._wake
        wake[0] = False
        loop_end = shift_end + SHIFT_DRAIN_S
        visited = None
        while heap and heap[0][0] <= loop_end:
            t, phase, _, handler, args = heapq.heappop(heap)
            self._popped = (t, phase)
            if t != visited:
                visited = t
                self._visits += 1
            handler(self, t, *args)
            if wake[0]:
                # An agent re-anchored: its certificate lapsed, so it has
                # work at the first minute tick not yet run.
                wake[0] = False
                at = self._open_tick(t)
                if at < self._minute_at and at <= shift_end:
                    self._schedule_minute(at, active)
        if heap:
            # Validation bounds every delay by the drain.
            raise RuntimeError(
                f"{len(heap)} items outlast the drain after the shift ending at {shift_end}"
            )

    def _on_scheduled_break(self, t: int, agents: list, duration_min: int) -> None:
        for agent in agents:
            self.start_break(agent, t, duration_min, "scheduled", "scheduled")

    def _open_tick(self, t: int) -> int:
        """The first minute tick at or after second ``t`` whose minute
        item has not run."""
        if t % 60 == 0 and (t, self.PHASE_MINUTE) > self._popped:
            return t
        return (t // 60 + 1) * 60

    def _schedule_minute(self, t: int, agents: list) -> None:
        """Run the minute item next at tick ``t``, pushing it unless an item
        is on the heap for that second already."""
        self._minute_at = t
        if t not in self._minute_items:
            self._minute_items.add(t)
            self.schedule(t, self.PHASE_MINUTE, ScenarioRunner._on_minute, agents)

    def _on_minute(self, t: int, agents: list) -> None:
        """The minute of every active agent with work at tick ``t`` (all of
        them when a check or the trace falls due), then the fleet's
        checks; then the item moves to the first later tick with work: the
        plan's next, or an agent's own. On the last minute it ends the
        shift (shift lengths are whole minutes)."""
        self._minute_items.discard(t)
        if not self.live(t == self._minute_at):
            return
        due, fleet_due, sample, next_minute = self._plan[(t - self.shift_start) // 60]
        everyone = sample or due
        for agent in agents:
            if everyone or agent.due <= t:
                self._agent_minute(agent, t, sample, due)
        for check in fleet_due:
            check(self, t)
        if t == self.shift_end:
            self._minute_at = math.inf
            for agent in agents:
                self._end_shift(agent, t)
            return
        nearest = t + 60
        at = self.shift_start + 60 * next_minute
        if at > nearest:
            for agent in agents:
                if agent.due < at:
                    at = max(agent.due, nearest)
                    if at == nearest:
                        break
        self._schedule_minute(at, agents)

    # -- shift boundaries ---------------------------------------------

    def _start_shift(self, agent: _Agent, t: int) -> None:
        agent.declines_this_shift = 0
        agent.logged_pair = None
        self.log.append(
            t, "shift_start", agent.spec.specialist_id, day=t // 86400, dual=agent.spec.dual
        )
        self._start_driving(agent, t)

    def _end_shift(self, agent: _Agent, t: int) -> None:
        self.leave_vehicle(agent, t, "shift_end", Activity.OFF_SHIFT)
        for hook in self.shift_end_hooks:
            hook(self, agent, t)
        self.log.append(t, "shift_end", agent.spec.specialist_id)

    # -- minute checks ----------------------------------------------------

    def _agent_minute(self, agent: _Agent, t: int, sample: bool, due: list) -> None:
        """The agent's minute ``t``: the ORD level (and, if ``sample``, the
        state trace), the hazard and the detector at a candidate tick, then
        the ``due`` checks; then the agent's next tick with work. The state
        is evaluated only where a value is read: once the ORD certificate
        has expired, at a hazard candidate, and in the checks that read
        alertness. A traced minute computes the level from scratch and,
        while driving, the hazard rate, and raises if the rate exceeds the
        bound, so a traced run checks the certificate and the bound
        against the untraced one."""
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
            # Incautious-behavior hazard accrues per driving minute; only a
            # candidate tick, whose draw fell under the bound, reads the rate.
            if t == agent.hazard_due or sample:
                rate = self.cfg.hazard.rate(agent.state(t)[2], agent.alertness(t))
                if rate > self._hazard_bound:
                    raise RuntimeError(f"hazard rate {rate!r} of {who} at {t} exceeds its bound")
                if t == agent.hazard_due:
                    if agent.hazard_draw < rate:
                        self.log.append(t, "incautious", who)
                        agent.session_had_incautious = True
                    agent.hazard_from = t + 60
                    self._draw_hazard(agent)
            if self.detector is not None:
                self.detector(self, agent, t, level)
        for check in due:
            check(self, agent, t, level)

        # The next tick with work: the first past the certificate, or a
        # hazard or detector candidate while driving.
        until = agent.ord_until
        if until < t:
            next_due = t + 60
        elif until < math.inf:
            next_due = (int(until) // 60 + 1) * 60
        else:
            next_due = until
        if agent.activity is Activity.DRIVING:
            if agent.hazard_due < next_due:
                next_due = agent.hazard_due
            if agent.dms_due < next_due:
                next_due = agent.dms_due
        agent.due = next_due

    def _draw_hazard(self, agent: _Agent) -> None:
        """Draw the hazard ahead from ``agent.hazard_from``: uniforms until
        one falls under the bound, one per driving tick, as the per-minute
        draw would take them. A bound of 0, or a candidate past every tick
        the run has, leaves none."""
        bound = self._hazard_bound
        left = math.inf
        if bound > 0:
            draw = agent.rng_hazard.random
            for skipped in range(self._tick_cap + 1):
                value = draw()
                if value < bound:
                    agent.hazard_draw = value
                    left = skipped
                    break
        agent.hazard_left = left
        agent.hazard_due = agent.hazard_from + 60 * left

    def record_fatigue_event(
        self, agent: _Agent, t: int, severity: str, source: str
    ) -> None:
        self.log.append(
            t,
            "fatigue_event",
            agent.spec.specialist_id,
            severity=severity,
            source=source,
        )
        if not self._education:
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
        # The hazard counts driving ticks from the first one not yet run.
        agent.hazard_from = self._open_tick(t)
        agent.hazard_due = agent.hazard_from + 60 * agent.hazard_left
        for hook in self.start_driving_hooks:
            hook(self, agent, t)

    def _leave_driving(self, agent: _Agent, t: int, cause: str) -> None:
        """End the driving session at ``t``, if the agent drives, and log
        ``session_end``. The caller enters the next activity."""
        if agent.activity is not Activity.DRIVING:
            return
        # Bank the driving ticks run since hazard_from.
        agent.hazard_left -= (self._open_tick(t) - agent.hazard_from) // 60
        for hook in self.leave_driving_hooks:
            hook(self, agent, t)
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

    def leave_vehicle(self, agent: _Agent, t: int, cause: str, activity: Activity) -> None:
        """The agent leaves the vehicle at ``t`` for the rest of the shift,
        or at its end, and enters ``activity``: the driving session, the
        open break and a pending follow-up survey end."""
        self._leave_driving(agent, t, cause)
        if agent.activity is Activity.ON_BREAK:
            self.log.append(t, "break_end", agent.spec.specialist_id)
        agent.pending_followup_for = None
        agent.enter(t, activity, _IDLE)

    def request_break(
        self, agent: _Agent, t: int, duration_min: float, initiator: str, reason: str
    ) -> None:
        """Ask for a break a minute from now."""
        self.schedule(
            t + 60,
            self.PHASE_ITEM,
            ScenarioRunner._on_break_start,
            agent,
            duration_min,
            initiator,
            reason,
        )

    def start_break(
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
        self.schedule(
            t + int(duration_min * 60), self.PHASE_ITEM, ScenarioRunner._on_break_end, agent
        )

    def _on_break_start(
        self, t: int, agent: _Agent, duration_min: float, initiator: str, reason: str
    ) -> None:
        if self.live(agent.activity is Activity.DRIVING):
            self.start_break(agent, t, duration_min, initiator, reason)

    def _on_break_end(self, t: int, agent: _Agent) -> None:
        if not self.live(agent.activity is Activity.ON_BREAK):
            return
        self.log.append(t, "break_end", agent.spec.specialist_id)
        self._start_driving(agent, t)


def run_scenario(
    cfg: ScenarioConfig, stats: Optional[dict] = None, stream: Optional[BinaryIO] = None
) -> tuple[EventLog, Metrics]:
    """Execute one scenario; identical configs yield identical logs. If
    ``stats`` is a dict, the run's ``ScenarioRunner.stats()`` go into it.

    The metrics fold each record as the run appends it to its
    ``EventLog``. By default the log keeps its records in memory. Given
    a binary ``stream``, the log writes them there instead and keeps
    none; its ``written`` says what it wrote."""
    runner = ScenarioRunner(cfg, stream)
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
    # The metrics every ablation compares, in the CSV's order.
    metric_names: ClassVar[tuple[str, ...]] = (
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
    names = [name for name, _ in toggle_sets]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"toggle set name {name!r} is given more than once")
    if n_seeds < 1:
        raise ValueError("n_seeds must be positive")
    start = cfg.seed if base_seed is None else base_seed
    seeds = tuple(start + i for i in range(n_seeds))
    values = {}
    for name, toggles in toggle_sets:
        for seed in seeds:
            # run_scenario validates the run's config.
            _, metrics = run_scenario(replace(cfg, seed=seed, toggles=toggles))
            values[(name, seed)] = _metric_summary(metrics)
    return AblationResult(
        toggle_set_names=tuple(names),
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
MAX_STEP_HALVINGS = 30


@dataclass(frozen=True)
class CalibrationResult:
    hazard: HazardConfig
    exact_short: float
    exact_long: float
    ratio: float
    converged: bool
    iterations: int


def _session_trace(cfg: ScenarioConfig, minutes: int) -> list[tuple[float, float]]:
    """Per-minute (task_load, alertness) for a fresh driving session of
    the fleet's first specialist."""
    if not cfg.fleet:
        raise ConfigError("calibration needs a specialist: config.fleet is empty")
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


def calibrate_session_length_effect(cfg: ScenarioConfig) -> CalibrationResult:
    """Fit the two hazard coefficients ``base_per_min`` and
    ``task_load_gain`` so that a fresh session of the fleet's first
    specialist holds at least one event with probability ``TARGET_SHORT``
    when it lasts ``SHORT_SESSION_MIN`` and ``TARGET_LONG`` when it lasts
    ``LONG_SESSION_MIN`` (exact product-form probabilities, averaged over
    the durations of the bucket): a long session is six times likelier
    than a short one to contain an event.

    Newton steps on a finite-difference Jacobian, clamping each
    coefficient at zero and halving a step until the squared residual
    shrinks; a start where every rate clamps at 1 (a singular Jacobian)
    stops unconverged. ``converged`` says whether both probabilities lie
    within 1e-6 of their targets. The fit is checked against the
    simulator elsewhere: a traced run's ``incautious`` count matches the
    summed per-minute rates (``tests/logchecks.incautious_vs_hazard``).
    """
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
    iterations = 0
    eps = 1e-7
    p_short, p_long = probabilities(base, gain)
    for iterations in range(1, MAX_CALIBRATION_ITERATIONS + 1):
        f1 = p_short - TARGET_SHORT
        f2 = p_long - TARGET_LONG
        if abs(f1) < 1e-9 and abs(f2) < 1e-9:
            break
        d11 = (probabilities(base + eps, gain)[0] - p_short) / eps
        d12 = (probabilities(base, gain + eps)[0] - p_short) / eps
        d21 = (probabilities(base + eps, gain)[1] - p_long) / eps
        d22 = (probabilities(base, gain + eps)[1] - p_long) / eps
        det = d11 * d22 - d12 * d21
        if abs(det) < 1e-18:
            break
        step_base = (f1 * d22 - f2 * d12) / det
        step_gain = (f2 * d11 - f1 * d21) / det
        # Backtracking line search (Nocedal & Wright, Numerical
        # Optimization, ch. 3): halve the step until the squared residual
        # shrinks, so a far start cannot jump to where every rate clamps
        # at 1 and the Jacobian is singular. A full step that shrinks it
        # is taken as it is.
        for halvings in range(MAX_STEP_HALVINGS + 1):
            scale = 0.5**halvings
            trial = (max(0.0, base - scale * step_base), max(0.0, gain - scale * step_gain))
            p_short, p_long = probabilities(*trial)
            if (p_short - TARGET_SHORT) ** 2 + (p_long - TARGET_LONG) ** 2 < f1 * f1 + f2 * f2:
                break
        else:
            break
        base, gain = trial

    fitted = HazardConfig(
        base_per_min=base, task_load_gain=gain, alertness_gain=al_gain
    )
    exact_short, exact_long, ratio = session_length_stats(cfg, fitted)
    converged = (
        abs(exact_short - TARGET_SHORT) < 1e-6 and abs(exact_long - TARGET_LONG) < 1e-6
    )
    return CalibrationResult(
        hazard=fitted,
        exact_short=exact_short,
        exact_long=exact_long,
        ratio=ratio,
        converged=converged,
        iterations=iterations,
    )
