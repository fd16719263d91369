import json
import random

import pytest

from frmsim import vigilance
from frmsim.config import Toggles, default_config
from frmsim.sim import run_scenario
from frmsim.vigilance import (
    DROWSINESS_INDICATORS,
    DmsConfig,
    Feed,
    InsufficientRatersError,
    NoSharedTasksError,
    OrdRating,
    RaterAgreement,
    RaterProfile,
    RatingTask,
    Resolution,
    Route,
    SupervisorAction,
    UnqualifiedRaterError,
    aggregate,
    assign_rating_tasks,
    dms_observe,
    open_case,
    qualify_rater,
    rate,
    resolve_case,
)


def make_pool(n=5, noise=0.0, bias=0.0):
    return [RaterProfile(rater_id=f"r{i}", bias=bias, noise_sd=noise) for i in range(n)]


def make_task(task_id="t0", raters=("r0",)):
    return RatingTask(
        task_id=task_id,
        specialist_id="as-0",
        window_start=0.0,
        window_end=60.0,
        assigned_rater_ids=tuple(raters),
    )


# -- detector ---------------------------------------------------------------


def test_dms_zero_error_sensor():
    rng = random.Random(0)
    always = DmsConfig(false_positive_rate=0.0, false_negative_rate=0.0)
    assert dms_observe(5, always, rng) is True
    assert dms_observe(4, always, rng) is True
    assert dms_observe(1, always, rng) is False
    assert dms_observe(3, always, rng) is False


def test_dms_false_positive_rate_binomial():
    # 10k observations of an alert driver; empirical rate near fp=0.05.
    rng = random.Random(42)
    cfg = DmsConfig(false_positive_rate=0.05, false_negative_rate=0.0)
    flags = sum(1 for _ in range(10_000) if dms_observe(1, cfg, rng))
    assert 0.04 <= flags / 10_000 <= 0.06


def test_dms_false_negative_rate_binomial():
    rng = random.Random(43)
    cfg = DmsConfig(false_positive_rate=0.0, false_negative_rate=0.3)
    flags = sum(1 for _ in range(10_000) if dms_observe(5, cfg, rng))
    assert 0.68 <= flags / 10_000 <= 0.72


# -- assignment and blinding ---------------------------------------------


def test_escalated_feed_gets_k_distinct_qualified_raters():
    rng = random.Random(1)
    pool = make_pool(5)
    tasks = assign_rating_tasks(pool, [Feed("as-0", 0, 60, escalated=True)], 3, rng)
    assert len(tasks) == 1
    assert len(set(tasks[0].assigned_rater_ids)) == 3


def test_periodic_feed_gets_one_rater():
    rng = random.Random(2)
    tasks = assign_rating_tasks(make_pool(5), [Feed("as-0", 0, 60)], 3, rng)
    assert len(tasks[0].assigned_rater_ids) == 1


def test_insufficient_qualified_raters():
    rng = random.Random(3)
    pool = make_pool(2) + [RaterProfile(rater_id="rq", qualified=False)]
    with pytest.raises(InsufficientRatersError):
        assign_rating_tasks(pool, [Feed("as-0", 0, 60, escalated=True)], 3, rng)


def test_unqualified_raters_never_receive_tasks():
    rng = random.Random(4)
    pool = make_pool(4) + [RaterProfile(rater_id="bad", qualified=False)]
    for _ in range(50):
        tasks = assign_rating_tasks(pool, [Feed("as-0", 0, 60, escalated=True)], 3, rng)
        assert "bad" not in tasks[0].assigned_rater_ids


def test_blinding_serialized_tasks_share_exact_field_set():
    rng = random.Random(5)
    pool = make_pool(5)
    escalated = assign_rating_tasks(pool, [Feed("as-0", 0, 60, escalated=True)], 3, rng)[0]
    periodic = assign_rating_tasks(pool, [Feed("as-1", 60, 120)], 3, rng)[0]
    rec_a, rec_b = escalated.to_record(), periodic.to_record()
    assert set(rec_a) == set(rec_b)
    for record in (rec_a, rec_b):
        blob = json.dumps(record)
        for marker in ("escalat", "periodic", "origin", "route"):
            assert marker not in blob


# -- ratings ---------------------------------------------------------------


def test_noiseless_rater_reproduces_truth_with_own_level_indicator():
    rng = random.Random(6)
    rater = RaterProfile(rater_id="r0")
    rating = rate(rater, make_task(), 4, rng)
    assert rating.level == 4
    level4 = {
        name for names in DROWSINESS_INDICATORS[4].values() for name in names
    }
    assert rating.indicators & level4


def test_noiseless_rater_level_one():
    rng = random.Random(7)
    assert rate(RaterProfile(rater_id="r0"), make_task(), 1, rng).level == 1


def test_positive_bias_clamps_at_five():
    rng = random.Random(8)
    rater = RaterProfile(rater_id="r0", bias=1.0)
    assert rate(rater, make_task(), 5, rng).level == 5


def test_unqualified_rater_rejected():
    rng = random.Random(9)
    with pytest.raises(UnqualifiedRaterError):
        rate(RaterProfile(rater_id="r0", qualified=False), make_task(), 3, rng)


def test_observations_never_change_level():
    rng = random.Random(10)
    rater = RaterProfile(rater_id="r0")
    for true_ord in range(1, 6):
        for _ in range(20):
            assert rate(rater, make_task(), true_ord, rng).level == true_ord


# -- aggregation -----------------------------------------------------------


def _ratings(levels):
    return [
        OrdRating(rater_id=f"r{i}", task_id="t", level=lvl, indicators=frozenset())
        for i, lvl in enumerate(levels)
    ]


def _oracle_median_tie_high(levels):
    ordered = sorted(levels)
    return ordered[len(ordered) // 2]


def test_aggregate_examples():
    assert aggregate(_ratings([3, 3, 5])) == _oracle_median_tie_high([3, 3, 5]) == 3
    assert aggregate(_ratings([2, 4])) == 4
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_matches_sorted_middle_oracle():
    rng = random.Random(11)
    for _ in range(500):
        levels = [rng.randint(1, 5) for _ in range(rng.randint(1, 9))]
        assert aggregate(_ratings(levels)) == _oracle_median_tie_high(levels)


def test_aggregate_never_below_floor_median():
    rng = random.Random(12)
    for _ in range(500):
        levels = [rng.randint(1, 5) for _ in range(rng.randint(1, 9))]
        ordered = sorted(levels)
        floor_median = ordered[(len(ordered) - 1) // 2]
        assert aggregate(_ratings(levels)) >= floor_median


def test_multi_rater_aggregate_beats_single_rater():
    rng = random.Random(13)
    noisy = [RaterProfile(rater_id=f"r{i}", noise_sd=0.8) for i in range(3)]
    task = make_task(raters=tuple(r.rater_id for r in noisy))
    for true_ord in range(1, 6):
        single_err = 0.0
        agg_err = 0.0
        trials = 400
        for _ in range(trials):
            single_err += abs(rate(noisy[0], task, true_ord, rng).level - true_ord)
            trio = [rate(r, task, true_ord, rng) for r in noisy]
            agg_err += abs(aggregate(trio) - true_ord)
        assert agg_err / trials < single_err / trials


# -- escalation routes -------------------------------------------------------


def run_route_one(pool, true_ord, rng):
    """Validate a detector flag raised at t=100 s with three raters."""
    feed = Feed("as-0", 40.0, 100.0, escalated=True)
    case = open_case(
        Route.ROUTE_ONE, feed, pool, 3, true_ord, rng,
        case_id="case-0", first_task_index=0, high_threshold=4, detect_threshold=4,
    )
    return case, resolve_case(case, pool, rng)


def run_route_two(trigger, pool, true_ord, rng, high_threshold):
    feed = Feed("as-0", 0.0, 60.0, escalated=True)
    case = open_case(
        Route.ROUTE_TWO, feed, pool, 3, true_ord, rng,
        case_id="case-0", first_task_index=0, trigger_rating=trigger,
        high_threshold=high_threshold, detect_threshold=4,
    )
    return case, resolve_case(case, pool, rng)


def test_route_one_confirms_true_fatigue():
    rng = random.Random(14)
    case, outcome = run_route_one(make_pool(5), 4, rng)
    assert case.route is Route.ROUTE_ONE
    assert outcome.resolution is Resolution.CONFIRMED
    assert outcome.validated_level == 4
    assert outcome.supervisor_action is SupervisorAction.INVITE_BREAK
    assert len(outcome.validation_ratings) == 3


def test_route_one_rejects_false_positive():
    rng = random.Random(15)
    _, outcome = run_route_one(make_pool(5), 1, rng)
    assert outcome.resolution is Resolution.NOT_CONFIRMED
    assert outcome.supervisor_action is None


def test_route_one_confirmed_level_five_requests_vehicle_retrieval():
    rng = random.Random(19)
    _, outcome = run_route_one(make_pool(5), 5, rng)
    assert outcome.resolution is Resolution.CONFIRMED
    assert outcome.validated_level == 5
    assert outcome.supervisor_action is SupervisorAction.RETRIEVE_VEHICLE


def test_route_two_checks_in_and_validates():
    rng = random.Random(16)
    trigger = OrdRating(rater_id="r9", task_id="t9", level=4, indicators=frozenset())
    case, outcome = run_route_two(trigger, make_pool(5), 4, rng, 4)
    assert case.route is Route.ROUTE_TWO
    assert outcome.supervisor_action is SupervisorAction.CHECK_IN
    assert len(outcome.validation_ratings) == 3
    assert all(r.rater_id != "r9" for r in outcome.validation_ratings)


def test_route_two_leaves_out_the_trigger_rater():
    rng = random.Random(20)
    trigger = OrdRating(rater_id="r0", task_id="t9", level=4, indicators=frozenset())
    for _ in range(20):
        case, _ = run_route_two(trigger, make_pool(4), 4, rng, 4)
        assert sorted(case.task.assigned_rater_ids) == ["r1", "r2", "r3"]


def test_open_case_needs_an_escalated_feed():
    with pytest.raises(ValueError):
        open_case(
            Route.ROUTE_ONE, Feed("as-0", 0.0, 60.0), make_pool(5), 3, 4,
            random.Random(21), case_id="case-0", first_task_index=0,
            high_threshold=4, detect_threshold=4,
        )


def test_route_two_rejects_low_rating():
    rng = random.Random(17)
    trigger = OrdRating(rater_id="r9", task_id="t9", level=2, indicators=frozenset())
    with pytest.raises(ValueError):
        run_route_two(trigger, make_pool(5), 2, rng, 4)


def test_confirmed_level_five_requests_vehicle_retrieval():
    rng = random.Random(18)
    trigger = OrdRating(rater_id="r9", task_id="t9", level=5, indicators=frozenset())
    _, outcome = run_route_two(trigger, make_pool(5), 5, rng, 4)
    assert outcome.resolution is Resolution.CONFIRMED
    assert outcome.supervisor_action is SupervisorAction.RETRIEVE_VEHICLE


# -- reliability -------------------------------------------------------------


def _kappa(task_levels):
    """The reliability of ``{task: {rater: level}}``, folded one task at
    a time."""
    agreement = RaterAgreement()
    for task_id, by_rater in task_levels.items():
        agreement.add_task(
            [OrdRating(rater, task_id, level) for rater, level in by_rater.items()]
        )
    return agreement.kappa()


def test_identical_raters_give_exactly_one():
    rng = random.Random(19)
    history = {}
    for i in range(100):
        level = rng.randint(1, 5)
        history[f"t{i}"] = {"a": level, "b": level, "c": level}
    assert _kappa(history) == 1.0


def test_independent_uniform_raters_near_zero():
    rng = random.Random(20)
    history = {
        f"t{i}": {"a": rng.randint(1, 5), "b": rng.randint(1, 5)}
        for i in range(10_000)
    }
    assert abs(_kappa(history)) < 0.05


def test_reliability_symmetric_under_rater_swap():
    rng = random.Random(21)
    base = {
        f"t{i}": {"a": rng.randint(1, 5), "b": rng.randint(1, 5), "c": rng.randint(1, 5)}
        for i in range(200)
    }
    swapped = {
        task: {"b": lv["a"], "a": lv["b"], "c": lv["c"]} for task, lv in base.items()
    }
    assert _kappa(base) == pytest.approx(_kappa(swapped))


def test_reliability_requires_shared_tasks():
    history = {"t0": {"a": 3}, "t1": {"b": 2}}
    with pytest.raises(NoSharedTasksError):
        _kappa(history)


def test_weighted_kappa_perfect_disagreement_is_negative():
    # Every pair is (1, 5) or (5, 1): no agreement weight is observed,
    # while the marginals (half 1, half 5 each) expect weight 1/2, so
    # kappa = (0 - 1/2) / (1 - 1/2) = -1.
    history = {f"t{i}": {"a": 1, "b": 5} if i % 2 else {"a": 5, "b": 1} for i in range(100)}
    assert _kappa(history) == -1.0


# -- qualification -----------------------------------------------------------


def test_noiseless_rater_passes_any_test_set():
    rng = random.Random(22)
    test_set = [(1 + i % 5, frozenset()) for i in range(25)]
    assert qualify_rater(RaterProfile(rater_id="r0"), test_set, rng)


def test_biased_rater_fails():
    # bias +2 on truths 1..3 emits 3..5: zero exact matches, MAE 2.
    rng = random.Random(23)
    test_set = [(level, frozenset()) for level in (1, 2, 3) for _ in range(5)]
    assert not qualify_rater(RaterProfile(rater_id="r0", bias=2.0), test_set, rng)


def test_strict_threshold_single_mismatch_fails():
    rng = random.Random(24)
    test_set = [(1, frozenset())] * 9 + [(3, frozenset())]
    # Bias +0.4 rounds level-1 truths to 1 but level-3 truth to 3; use a
    # rater whose bias flips exactly the last item.
    rater = RaterProfile(rater_id="r0", bias=0.6)
    assert not qualify_rater(rater, test_set, rng, exact_match_threshold=1.0)


def test_empty_test_set_rejected():
    with pytest.raises(ValueError):
        qualify_rater(RaterProfile(rater_id="r0"), [], random.Random(0))


def test_a_run_qualifies_its_raters_once_and_logs_what_validation_saw(monkeypatch):
    tested = []
    real = vigilance.qualify_rater

    def counting(rater, *args, **kwargs):
        tested.append(rater.rater_id)
        return real(rater, *args, **kwargs)

    monkeypatch.setattr(vigilance, "qualify_rater", counting)
    vigilance.qualification.cache_clear()
    cfg = default_config(seed=31)  # validates
    log, _ = run_scenario(cfg.with_overrides(toggles=Toggles.all_on()))  # validates twice
    run_scenario(cfg)
    ids = [rater.rater_id for rater in cfg.raters]
    assert tested == ids
    logged = [(e.data["rater_id"], e.data["passed"]) for e in log if e.type == "rater_qualification"]
    expected = vigilance.qualification(cfg.seed, cfg.raters, cfg.vigilance)
    assert logged == [(rater.rater_id, passed) for rater, passed in expected]
    # Another seed draws again.
    default_config(seed=32)
    assert tested == ids * 2


def test_rating_vocabulary_is_enforced():
    with pytest.raises(ValueError):
        OrdRating(rater_id="r0", task_id="t", level=3, indicators=frozenset({"made_up"}))
    with pytest.raises(ValueError):
        OrdRating(rater_id="r0", task_id="t", level=6)
