"""Real-time vigilance assessment.

Covers the automated drowsiness detector (a stochastic stand-in for a
camera-based monitoring system), blinded rating-task assignment to
remote human raters, the two escalation routes, safety-conservative
aggregation of ordinal ratings, rater qualification, and inter-rater
reliability.

An escalation is two pure steps: ``open_case`` assigns the validators
and ``resolve_case`` rates the case and decides the supervisor's
follow-up.

Rating tasks deliberately carry no field that reveals whether they were
escalated or drawn by routine periodic sampling; blinding is structural.

In the fleet run (``frmsim.sim``) the functions at the end of this
module take the runner as ``run``. The fleet's raters are qualified once,
at the first shift's start. Each minute the detector observes every
driving specialist at their ORD level, and on its cadence a rater
rates a recent window of each one's video. A detector flag alerts the
specialist and opens a route-one case, and a single high rating a
route-two case; the case is carried on the heap across the rating
latency and resolved then, possibly after the shift end. A confirmed
case sends the specialist on a break, or at level 5 retrieves the
vehicle. The fleet's reliability checkpoint logs the kappa over every
validation rating so far, from running per-pair counts
(``run.agreement``).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import engagement as eng
from .fatigue import IN_VEHICLE, Activity, _round_half_up, to_ord_truth
from .substreams import substream

__all__ = [
    "ALERT_MODALITIES",
    "CaseOutcome",
    "DmsConfig",
    "DROWSINESS_INDICATORS",
    "EscalationCase",
    "Feed",
    "InsufficientRatersError",
    "NoSharedTasksError",
    "OBSERVATION_ITEMS",
    "OrdRating",
    "RaterAgreement",
    "RaterProfile",
    "RatingTask",
    "Resolution",
    "Route",
    "SupervisorAction",
    "UnqualifiedRaterError",
    "aggregate",
    "assign_rating_tasks",
    "dms_observe",
    "open_case",
    "qualification",
    "qualify_rater",
    "rate",
    "resolve_case",
]

ALERT_MODALITIES = ("tone", "vibration", "light")

# Visible drowsiness mannerisms per level, grouped by body region.
DROWSINESS_INDICATORS: dict[int, dict[str, tuple[str, ...]]] = {
    1: {
        "eyes": ("fast_blinking", "short_glances"),
        "face_head": ("alert_expression",),
        "body": ("occasional_gestures",),
    },
    2: {
        "eyes": ("longer_glances", "slower_blinks"),
        "face_head": ("less_sharp_look",),
        "body": (),
    },
    3: {
        "eyes": ("eye_rubbing", "fixed_stare"),
        "face_head": ("face_rubbing", "facial_contortions", "subdued_expression"),
        "body": ("restless_movements", "scratching"),
    },
    4: {
        "eyes": ("eyelid_closure_2s", "eye_rolling"),
        "face_head": (),
        "body": ("reduced_activity",),
    },
    5: {
        "eyes": ("eyelid_closure_over_4s",),
        "face_head": ("dozing_transitions",),
        "body": ("inactivity_periods", "large_postural_shifts"),
    },
}

# Secondary-task observations; recorded but never part of the drowsiness level.
OBSERVATION_ITEMS = ("device_use", "hands_placement")

_ALL_INDICATOR_NAMES = frozenset(
    name
    for by_cat in DROWSINESS_INDICATORS.values()
    for names in by_cat.values()
    for name in names
)

# Per level, the names a rating draws for, in draw order: the level's own
# names sorted as one list, and the neighbouring levels' names, sorted
# within each body region.
_OWN_NAMES = {
    level: tuple(sorted(name for names in by_region.values() for name in names))
    for level, by_region in DROWSINESS_INDICATORS.items()
}
_ADJACENT_NAMES = {
    level: tuple(
        name
        for adjacent in (level - 1, level + 1)
        for names in DROWSINESS_INDICATORS.get(adjacent, {}).values()
        for name in sorted(names)
    )
    for level in DROWSINESS_INDICATORS
}

# Probability a rater marks an indicator belonging to the emitted level,
# and one belonging to an adjacent level.
LEVEL_INDICATOR_P = 0.7
ADJACENT_INDICATOR_P = 0.2
OBSERVATION_P = 0.05

# Levels of the observer rating of drowsiness (ORD) scale, 1..ORD_LEVELS.
ORD_LEVELS = 5
# A candidate rater qualifies only if their mean absolute error over the
# test set is at most this many levels.
QUALIFICATION_MAX_MEAN_ABS_ERROR = 0.5


class Route(str, Enum):
    ROUTE_ONE = "route_one"
    ROUTE_TWO = "route_two"


class Resolution(str, Enum):
    CONFIRMED = "confirmed"
    NOT_CONFIRMED = "not_confirmed"


class SupervisorAction(str, Enum):
    CHECK_IN = "check_in"
    INVITE_BREAK = "invite_break"
    RETRIEVE_VEHICLE = "retrieve_vehicle"


class InsufficientRatersError(ValueError):
    pass


class UnqualifiedRaterError(ValueError):
    pass


class NoSharedTasksError(ValueError):
    pass


@dataclass(frozen=True)
class DmsConfig:
    detect_threshold_ord: int = 4
    false_positive_rate: float = 0.01
    false_negative_rate: float = 0.1
    observation_period: float = 60.0


@dataclass(frozen=True)
class Feed:
    """A rateable video window. ``escalated`` steers assignment only and
    is never copied onto the resulting task."""

    specialist_id: str
    window_start: float
    window_end: float
    escalated: bool = False


@dataclass(frozen=True)
class RatingTask:
    task_id: str
    specialist_id: str
    window_start: float
    window_end: float
    assigned_rater_ids: tuple[str, ...]

    def to_record(self) -> dict:
        """Serialized form; identical schema for periodic and escalated."""
        return {
            "task_id": self.task_id,
            "specialist_id": self.specialist_id,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "assigned_rater_ids": list(self.assigned_rater_ids),
        }


@dataclass(frozen=True)
class OrdRating:
    rater_id: str
    task_id: str
    level: int
    indicators: frozenset[str] = frozenset()
    observations: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not 1 <= self.level <= 5:
            raise ValueError("level must be in 1..5")
        unknown = self.indicators - _ALL_INDICATOR_NAMES
        if unknown:
            raise ValueError(f"unknown indicators: {sorted(unknown)}")
        bad_obs = self.observations - set(OBSERVATION_ITEMS)
        if bad_obs:
            raise ValueError(f"unknown observations: {sorted(bad_obs)}")


@dataclass(frozen=True)
class RaterProfile:
    rater_id: str
    bias: float = 0.0
    noise_sd: float = 0.0
    qualified: bool = True


@dataclass(frozen=True)
class EscalationCase:
    """An open escalation, waiting for its validators' ratings."""

    case_id: str
    route: Route
    trigger: str
    specialist_id: str
    task: RatingTask
    true_ord: int
    threshold: int


@dataclass(frozen=True)
class CaseOutcome:
    validation_ratings: tuple[OrdRating, ...]
    validated_level: int
    resolution: Resolution
    supervisor_action: Optional[SupervisorAction]


def dms_observe(true_ord: int, cfg: DmsConfig, rng: random.Random) -> bool:
    """Whether a single noisy detector observation of the ground-truth
    level flags the specialist; one draw either way."""
    if not 1 <= true_ord <= 5:
        raise ValueError("true_ord must be in 1..5")
    if true_ord >= cfg.detect_threshold_ord:
        return rng.random() >= cfg.false_negative_rate
    return rng.random() < cfg.false_positive_rate


def assign_rating_tasks(
    pool: Sequence[RaterProfile],
    feeds: Sequence[Feed],
    k: int,
    rng: random.Random,
    *,
    first_task_index: int = 0,
) -> list[RatingTask]:
    """Assign feeds to raters: k distinct qualified raters per escalated
    feed, one per periodic feed. Task records carry no origin marker."""
    if k < 2:
        raise ValueError("k must be at least 2 for escalated feeds")
    qualified = [r for r in pool if r.qualified]
    tasks = []
    index = first_task_index
    for feed in feeds:
        n = k if feed.escalated else 1
        if len(qualified) < n:
            raise InsufficientRatersError(
                f"need {n} qualified raters, pool has {len(qualified)}"
            )
        chosen = rng.sample(qualified, n)
        tasks.append(
            RatingTask(
                task_id=f"task-{index:06d}",
                specialist_id=feed.specialist_id,
                window_start=feed.window_start,
                window_end=feed.window_end,
                assigned_rater_ids=tuple(r.rater_id for r in chosen),
            )
        )
        index += 1
    return tasks


def _emit_level(rater: RaterProfile, true_ord: int, rng: random.Random) -> int:
    value = float(true_ord) + rater.bias
    if rater.noise_sd > 0:
        value += rng.gauss(0.0, rater.noise_sd)
    return max(1, min(5, _round_half_up(value)))


def _sample_indicators(
    level: int, rng: random.Random
) -> tuple[frozenset[str], frozenset[str]]:
    own = _OWN_NAMES[level]
    picked = {name for name in own if rng.random() < LEVEL_INDICATOR_P}
    picked.update(name for name in _ADJACENT_NAMES[level] if rng.random() < ADJACENT_INDICATOR_P)
    if picked.isdisjoint(own):
        # A rating always cites at least one mannerism of its own level.
        picked.add(rng.choice(own))
    observations = frozenset(
        item for item in OBSERVATION_ITEMS if rng.random() < OBSERVATION_P
    )
    return frozenset(picked), observations


def rate(
    rater: RaterProfile, task: RatingTask, true_ord: int, rng: random.Random
) -> OrdRating:
    """One independent blinded rating of a feed with known ground truth."""
    if not rater.qualified:
        raise UnqualifiedRaterError(f"rater {rater.rater_id} is not qualified")
    if not 1 <= true_ord <= 5:
        raise ValueError("true_ord must be in 1..5")
    level = _emit_level(rater, true_ord, rng)
    indicators, observations = _sample_indicators(level, rng)
    return OrdRating(
        rater_id=rater.rater_id,
        task_id=task.task_id,
        level=level,
        indicators=indicators,
        observations=observations,
    )


def aggregate(ratings: Sequence[OrdRating]) -> int:
    """Median rating level; even counts resolve to the drowsier middle."""
    if not ratings:
        raise ValueError("cannot aggregate an empty rating list")
    levels = sorted(r.level for r in ratings)
    return levels[len(levels) // 2]


def open_case(
    route: Route,
    feed: Feed,
    pool: Sequence[RaterProfile],
    k: int,
    true_ord: int,
    rng: random.Random,
    *,
    case_id: str,
    first_task_index: int,
    trigger_rating: Optional[OrdRating] = None,
    high_threshold: int,
    detect_threshold: int,
) -> EscalationCase:
    """Open an escalation: assign the escalated ``feed`` to k blinded
    validators.

    Route one follows a detector flag and is confirmed at
    ``detect_threshold``. Route two follows a single periodic rating of at
    least ``high_threshold`` (the supervisor checks in at once), is
    confirmed at that threshold, and leaves out the trigger rating's rater.
    """
    if not feed.escalated:
        raise ValueError("validation needs an escalated feed")
    if route is Route.ROUTE_ONE:
        trigger, threshold, validators = "dms_flag", detect_threshold, pool
    else:
        if trigger_rating is None or trigger_rating.level < high_threshold:
            raise ValueError(
                f"route two needs a trigger rating of at least {high_threshold}"
            )
        trigger, threshold = "single_high_rating", high_threshold
        validators = [r for r in pool if r.rater_id != trigger_rating.rater_id]
    task = assign_rating_tasks(
        validators, [feed], k, rng, first_task_index=first_task_index
    )[0]
    return EscalationCase(
        case_id=case_id,
        route=route,
        trigger=trigger,
        specialist_id=feed.specialist_id,
        task=task,
        true_ord=true_ord,
        threshold=threshold,
    )


def resolve_case(
    case: EscalationCase, pool: Sequence[RaterProfile], rng: random.Random
) -> CaseOutcome:
    """Rate an open case with its validators and decide the supervisor's
    follow-up: retrieve the vehicle at a confirmed level 5; otherwise
    invite a break on a confirmed route-one case. Route two keeps the
    check-in it opened with."""
    by_id = {r.rater_id: r for r in pool}
    ratings = tuple(
        rate(by_id[rater_id], case.task, case.true_ord, rng)
        for rater_id in case.task.assigned_rater_ids
    )
    level = aggregate(ratings)
    confirmed = level >= case.threshold
    action = None
    if confirmed and level >= 5:
        action = SupervisorAction.RETRIEVE_VEHICLE
    elif case.route is Route.ROUTE_TWO:
        action = SupervisorAction.CHECK_IN
    elif confirmed:
        action = SupervisorAction.INVITE_BREAK
    return CaseOutcome(
        validation_ratings=ratings,
        validated_level=level,
        resolution=Resolution.CONFIRMED if confirmed else Resolution.NOT_CONFIRMED,
        supervisor_action=action,
    )


class _PairCounts:
    """What the linearly weighted kappa of one rater pair needs, counted
    as their paired levels arrive: the summed agreement weights, the
    first rater's and the second rater's count of each level, and the
    number of pairs."""

    __slots__ = ("observed", "row", "col", "n")

    def __init__(self) -> None:
        self.observed = 0.0
        self.row = [0.0] * ORD_LEVELS
        self.col = [0.0] * ORD_LEVELS
        self.n = 0

    def add(self, a: int, b: int) -> None:
        self.observed += 1.0 - abs(a - b) / (ORD_LEVELS - 1)
        self.row[a - 1] += 1.0
        self.col[b - 1] += 1.0
        self.n += 1

    def kappa(self) -> float:
        n = self.n
        span = ORD_LEVELS - 1
        row, col = self.row, self.col
        p_obs = self.observed / n
        p_exp = 0.0
        for i in range(ORD_LEVELS):
            for j in range(ORD_LEVELS):
                weight = 1.0 - abs(i - j) / span
                p_exp += weight * (row[i] / n) * (col[j] / n)
        if p_exp >= 1.0:
            # Degenerate marginals: agreement is complete or undefined.
            return 1.0 if p_obs >= 1.0 else 0.0
        return (p_obs - p_exp) / (1.0 - p_exp)


class RaterAgreement:
    """Running inter-rater reliability: the mean pairwise linearly
    weighted kappa (Cohen 1968) over raters sharing tasks, from per-pair
    counts that grow with the rater pairs, not with the ratings.
    ``ratings`` counts the ratings added."""

    def __init__(self) -> None:
        self.ratings = 0
        self._pairs: dict[tuple[str, str], _PairCounts] = {}

    def add_task(self, ratings: Sequence[OrdRating]) -> None:
        """Add every rating of one task; a rater's later rating of the
        task replaces their earlier one."""
        self.ratings += len(ratings)
        levels = {rating.rater_id: rating.level for rating in ratings}
        rater_ids = sorted(levels)
        for i, a in enumerate(rater_ids):
            for b in rater_ids[i + 1 :]:
                counts = self._pairs.get((a, b))
                if counts is None:
                    counts = self._pairs[(a, b)] = _PairCounts()
                counts.add(levels[a], levels[b])

    def kappa(self) -> float:
        if not self._pairs:
            raise NoSharedTasksError("no pair of raters shares a task")
        kappas = [self._pairs[pair].kappa() for pair in sorted(self._pairs)]
        return sum(kappas) / len(kappas)


def qualify_rater(
    rater: RaterProfile,
    test_set: Sequence[tuple[int, frozenset[str]]],
    rng: random.Random,
    *,
    exact_match_threshold: float = 0.8,
) -> bool:
    """Score a candidate against a vetted test set of known levels."""
    if not test_set:
        raise ValueError("test set must be non-empty")
    matches = 0
    abs_error = 0.0
    for true_ord, _expected_indicators in test_set:
        emitted = _emit_level(rater, true_ord, rng)
        if emitted == true_ord:
            matches += 1
        abs_error += abs(emitted - true_ord)
    n = len(test_set)
    return (
        matches / n >= exact_match_threshold
        and abs_error / n <= QUALIFICATION_MAX_MEAN_ABS_ERROR
    )


# -- the fleet run --------------------------------------------------------


def checks(cfg) -> list:
    """The minute check table's entries, as (cadence in seconds, check)."""
    return [
        (int(cfg.dms.observation_period), _detector_check),
        (int(cfg.vigilance.periodic_cadence_min * 60), _periodic_rating),
    ]


def fleet_checks(cfg) -> list:
    """The fleet's minute checks, as (cadence in seconds, check)."""
    return [(int(cfg.vigilance.reliability_interval_min * 60), _reliability_checkpoint)]


@functools.lru_cache(maxsize=1024)
def qualification(
    seed: int, raters: tuple[RaterProfile, ...], policy
) -> tuple[tuple[RaterProfile, bool], ...]:
    """Each rater not marked unqualified, with whether they pass the
    policy's vetted test set, drawn in order from the fleet's
    qualification substream of ``seed``. Cached on its (hashable)
    arguments: configuration validation and the run's first shift ask
    for the same result."""
    rng = substream(seed, "qualification", "fleet")
    test_set = [(1 + i % 5, frozenset()) for i in range(policy.qualification_items)]
    threshold = policy.qualification_match_threshold
    return tuple(
        (rater, qualify_rater(rater, test_set, rng, exact_match_threshold=threshold))
        for rater in raters
        if rater.qualified
    )


def qualify_raters(run, t: int) -> None:
    """Qualify the fleet's raters into ``run.pool`` at the first shift's
    start; later shifts keep the pool. Validation has checked that
    enough of them pass."""
    if run.pool:
        return
    cfg = run.cfg
    for rater, passed in qualification(cfg.seed, cfg.raters, cfg.vigilance):
        run.log.append(t, "rater_qualification", None, rater_id=rater.rater_id, passed=passed)
        if passed:
            run.pool.append(rater)


def _log_task(run, t: int, task: RatingTask) -> None:
    run.log.append(t, "rating_task", task.specialist_id, **task.to_record())


def _open_case(
    run,
    agent,
    t: int,
    route: Route,
    feed: Feed,
    true_ord: int,
    trigger_rating: Optional[OrdRating] = None,
) -> int:
    """Open a case, log it, and schedule its validation for the second
    the validators' ratings arrive, which it returns."""
    cfg = run.cfg
    case = open_case(
        route,
        feed,
        run.pool,
        cfg.vigilance.k_validation_raters,
        true_ord,
        agent.rng_raters,
        case_id=f"case-{run.case_seq}",
        first_task_index=run.task_seq,
        trigger_rating=trigger_rating,
        high_threshold=cfg.vigilance.route_two_threshold,
        detect_threshold=cfg.dms.detect_threshold_ord,
    )
    run.case_seq += 1
    run.task_seq += 1
    who = case.specialist_id
    opened = {"case_id": case.case_id, "route": route.value, "trigger": case.trigger}
    if route is Route.ROUTE_ONE:
        _log_task(run, t, case.task)
        run.log.append(t, "escalation_opened", who, **opened)
    else:
        run.log.append(t, "escalation_opened", who, **opened)
        # Immediate supervisor action, before any validation rating.
        run.log.append(
            t,
            "supervisor_action",
            who,
            case_id=case.case_id,
            action=SupervisorAction.CHECK_IN.value,
        )
        _log_task(run, t, case.task)
    resolve_at = t + int(cfg.vigilance.rating_latency_s)
    run.schedule(resolve_at, run.PHASE_VALIDATION, _on_validate, agent, case)
    return resolve_at


def _detector_check(run, agent, t: int, true_ord: int) -> None:
    """The detector observes a driving agent out of its cooldown at
    ORD level ``true_ord``; a flag alerts them and opens a route-one
    case."""
    cfg = run.cfg
    if (
        agent.activity is not Activity.DRIVING
        or t < agent.dms_cooldown_until
        or not dms_observe(true_ord, cfg.dms, agent.rng_raters)
    ):
        return
    who = agent.spec.specialist_id
    flag_id = f"flag-{run.flag_seq}"
    run.flag_seq += 1
    run.log.append(t, "dms_flag", who, flag_id=flag_id, true_ord=true_ord)
    run.log.append(t, "alert", who, flag_id=flag_id, modalities=list(ALERT_MODALITIES))
    if cfg.toggles.engagement:
        # The alert is an interaction: the engagement gap restarts.
        eng.interact(run, agent, t)
        eng.plan_ict(run, agent, t)
    agent.reanchor(t, agent.ctx, task_load_scale=1.0 - cfg.behavior.alert_relief)
    feed = Feed(who, t - cfg.dms.observation_period, t, escalated=True)
    resolve_at = _open_case(run, agent, t, Route.ROUTE_ONE, feed, true_ord)
    agent.dms_cooldown_until = resolve_at + int(cfg.vigilance.flag_cooldown_min * 60)


def _periodic_rating(run, agent, t: int, _level: int) -> None:
    if agent.activity is not Activity.DRIVING:
        return
    cfg = run.cfg
    who = agent.spec.specialist_id
    true_ord = to_ord_truth(agent.alertness(t))
    window_start = t - cfg.vigilance.periodic_cadence_min * 60
    task = assign_rating_tasks(
        run.pool,
        [Feed(who, window_start, t)],
        cfg.vigilance.k_validation_raters,
        agent.rng_raters,
        first_task_index=run.task_seq,
    )[0]
    run.task_seq += 1
    _log_task(run, t, task)
    rater = next(r for r in run.pool if r.rater_id == task.assigned_rater_ids[0])
    rating = rate(rater, task, true_ord, agent.rng_raters)
    _log_rating(run, t, who, rating)
    if rating.level >= cfg.vigilance.route_two_threshold:
        feed = Feed(who, window_start, t, escalated=True)
        _open_case(run, agent, t, Route.ROUTE_TWO, feed, true_ord, rating)


def _log_rating(run, t: int, who: str, rating: OrdRating) -> None:
    run.log.append(
        t,
        "rating",
        who,
        rater_id=rating.rater_id,
        task_id=rating.task_id,
        level=rating.level,
        indicators=sorted(rating.indicators),
        observations=sorted(rating.observations),
    )


def _on_validate(run, t: int, agent, case: EscalationCase) -> None:
    who = case.specialist_id
    outcome = resolve_case(case, run.pool, agent.rng_raters)
    for rating in outcome.validation_ratings:
        _log_rating(run, t, who, rating)
    # Only a case's validators share a task and so move the kappa. They
    # rate it together and task ids are unique, so adding each case's
    # ratings as it resolves sums the pairs in the batch fold's order.
    run.agreement.add_task(outcome.validation_ratings)
    level = outcome.validated_level
    action = outcome.supervisor_action
    run.log.append(
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
    if outcome.resolution is not Resolution.CONFIRMED:
        return
    agent.last_confirmed = (t, level)
    run.record_fatigue_event(agent, t, "severe" if level >= 5 else "moderate", "escalation")
    if level < 5:
        run.start_break(
            agent, t, run.cfg.vigilance.post_confirm_break_min, "supervisor", "confirmed_escalation"
        )
    elif agent.activity in IN_VEHICLE:
        run.log.append(t, "vehicle_retrieved", who, case_id=case.case_id)
        run.leave_vehicle(agent, t, "vehicle_retrieved", Activity.OFF_VEHICLE)


def _reliability_checkpoint(run, t: int) -> None:
    """Log the kappa over every validation rating so far and how many
    it folds, once two raters share a task."""
    try:
        kappa = run.agreement.kappa()
    except NoSharedTasksError:
        return
    run.log.append(t, "reliability", None, kappa=round(kappa, 6), ratings=run.agreement.ratings)
