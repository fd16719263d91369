import random
import statistics

import pytest

from frmsim.config import BehaviorConfig
from frmsim.engagement import (
    DemandPattern,
    EngagementConfig,
    IctOutcome,
    IctSchedulerState,
    IctTrigger,
    SaAction,
    SaConfig,
    SaDecisionInput,
    SaResolution,
    TransitionCause,
    ict_adapt,
    ict_due,
    ict_issue,
    ict_miss_rate,
    ict_resolve,
    record_interactivity,
    sa_evaluate,
    sa_resolve,
)

CFG = EngagementConfig()
NO_JITTER = EngagementConfig(jitter=0.0)
SPEED = BehaviorConfig().speed_mps


def make_state(t=0.0, odo=0.0):
    return IctSchedulerState(
        specialist_id="as-0", last_interactivity_time=t, last_interactivity_odometer=odo
    )


def tick(state, now, odometer=0.0, cfg=NO_JITTER, demand=None):
    """Issue the gap prompt if the gap rule makes it due at ``now``, with
    the vehicle at ``odometer`` and standing still."""
    due = ict_due(state, now, odometer, 0.0, cfg, demand)
    if due is None or due[0] != now:
        return None
    return ict_issue(state, now, due[1], cfg)


def interact(state, now, odometer, cfg=NO_JITTER):
    record_interactivity(state, now, odometer, random.Random(0), cfg)


# -- interactivity ------------------------------------------------------------


def test_interactivity_resets_baselines():
    state = make_state()
    interact(state, 120.0, 500.0, CFG)
    assert state.last_interactivity_time == 120.0
    assert state.last_interactivity_odometer == 500.0
    assert 1.0 - CFG.jitter <= state.jitter <= 1.0 + CFG.jitter


def test_interactivity_does_not_clear_pending_prompt():
    state = make_state()
    prompt = tick(state, 400.0)
    assert prompt is not None
    interact(state, 401.0, 10.0)
    assert state.pending is not None


def test_time_and_odometer_regression_rejected():
    state = make_state(t=100.0, odo=50.0)
    with pytest.raises(ValueError):
        interact(state, 99.0, 60.0)
    with pytest.raises(ValueError):
        interact(state, 101.0, 40.0)


# -- prompt triggering --------------------------------------------------------


def test_zero_gap_no_prompt():
    state = make_state()
    assert tick(state, 0.0) is None


def test_time_gap_threshold_arithmetic():
    # T=300 s, no jitter, unit multiplier: gap 301 fires, 299 does not.
    state = make_state()
    assert ict_due(state, 0.0, 0.0, 0.0, NO_JITTER) == (300.0, IctTrigger.GAP_TIME)
    assert tick(state, 299.0) is None
    prompt = tick(state, 301.0)
    assert prompt is not None
    assert prompt.trigger is IctTrigger.GAP_TIME


def test_distance_gap_triggers():
    state = make_state()
    prompt = tick(state, 10.0, 3500.0)
    assert prompt is not None
    assert prompt.trigger is IctTrigger.GAP_DISTANCE
    # At 12 m/s the 3000 m gap closes after 250 s, before the 300 s one.
    assert ict_due(make_state(), 0.0, 0.0, SPEED, NO_JITTER) == (
        250.0,
        IctTrigger.GAP_DISTANCE,
    )


def test_high_demand_blocks_prompts():
    always = DemandPattern(period_s=60, start_s=0, end_s=60)
    assert ict_due(make_state(), 9999.0, 99999.0, SPEED, NO_JITTER, always) is None
    # A prompt due inside a window moves to the window's end.
    window = DemandPattern(period_s=3600, start_s=240, end_s=540)
    assert ict_due(make_state(), 0.0, 0.0, SPEED, NO_JITTER, window) == (
        540,
        IctTrigger.GAP_DISTANCE,
    )


def test_at_most_one_pending_prompt():
    state = make_state()
    assert tick(state, 400.0) is not None
    assert ict_due(state, 900.0, 9000.0, SPEED, NO_JITTER) is None
    with pytest.raises(ValueError):
        ict_issue(state, 900.0, IctTrigger.GAP_TIME, NO_JITTER)


def test_jitter_never_fires_before_lower_bound():
    rng = random.Random(31)
    cfg = EngagementConfig(jitter=0.2)
    lower = cfg.gap_time_s * (1.0 - cfg.jitter)
    for _ in range(2000):
        state = make_state()
        record_interactivity(state, 0.0, 0.0, rng, cfg)
        gap = rng.uniform(0, lower - 1e-6)
        assert tick(state, gap, cfg=cfg) is None


def test_jitter_is_drawn_once_per_gap():
    # Default settings at 12 m/s: the 3000 m distance gap (250 s) closes
    # first, so with 20% jitter every gap lasts 200-300 s and 250 s on
    # average. Redrawing the jitter every second instead would end each
    # gap at the first redraw that crosses, about 212 s in.
    rng = random.Random(6)
    cfg = EngagementConfig()
    state = make_state()
    gaps = []
    now, odometer = 0, 0.0
    for _ in range(10_000):
        record_interactivity(state, now, odometer, rng, cfg)
        due, trigger = ict_due(state, now, odometer, SPEED, cfg)
        assert trigger is IctTrigger.GAP_DISTANCE
        gaps.append(due - now)
        odometer += SPEED * (due - now)
        now = due
    assert 200 <= min(gaps) and max(gaps) <= 300
    assert abs(statistics.mean(gaps) - 250.0) <= 0.02 * 250.0


def test_due_time_is_the_first_second_a_per_second_check_fires():
    # The closed form against the gap rule checked second by second:
    # driving at a constant speed from the gap start, outside demand. The
    # trigger is the gap that crossed first, the time gap on a tie.
    rng = random.Random(8)
    for _ in range(300):
        cfg = EngagementConfig(
            gap_time_s=rng.uniform(30, 400), gap_distance_m=rng.uniform(100, 5000)
        )
        speed = rng.choice((0.0, rng.uniform(1, 30)))
        demand = DemandPattern.from_minutes(
            rng.uniform(2, 30), rng.uniform(0, 10), rng.uniform(0, 5), origin=rng.randrange(100)
        )
        state = make_state()
        state.frequency_multiplier = rng.choice((0.25, 0.5, 1.0))
        start = rng.randrange(1000)
        record_interactivity(state, start, 7.0, rng, cfg)
        scale = state.frequency_multiplier * state.jitter
        t = start
        trigger = None
        while True:
            if trigger is None:
                if t - start >= cfg.gap_time_s * scale:
                    trigger = IctTrigger.GAP_TIME
                elif speed * (t - start) >= cfg.gap_distance_m * scale:
                    trigger = IctTrigger.GAP_DISTANCE
            phase = (t - demand.origin) % demand.period_s
            if trigger is not None and not demand.start_s <= phase < demand.end_s:
                break
            t += 1
        assert ict_due(state, start, 7.0, speed, cfg, demand) == (t, trigger)


def test_demand_pattern_next_seconds_match_its_predicate():
    rng = random.Random(9)
    for _ in range(200):
        demand = DemandPattern.from_minutes(
            rng.uniform(0.5, 10), rng.uniform(-1, 10), rng.uniform(-1, 10), origin=rng.randrange(600)
        )
        span = range(1200)
        high = [
            demand.start_s <= (t - demand.origin) % demand.period_s < demand.end_s
            for t in span
        ]
        for t in range(0, 600, 7):
            quiet = next((u for u in span[t:] if not high[u]), None)
            rise = next((u for u in span[t:] if high[u]), None)
            assert demand.next_quiet(t) == quiet
            assert demand.next_high(t) == rise


def test_multiplier_scales_threshold():
    state = make_state()
    state.frequency_multiplier = 0.5
    prompt = tick(state, 151.0)
    assert prompt is not None


# -- resolution state machine -------------------------------------------------


def _issue(state, now=400.0):
    prompt = tick(state, now)
    assert prompt is not None
    return prompt


def test_response_completes_prompt():
    state = make_state()
    _issue(state)
    result = ict_resolve(state, "responded", 402.0, CFG, latency_s=2.0)
    assert result.record.outcome is IctOutcome.COMPLETED
    assert result.record.response_latency == 2.0
    assert result.intervention is None
    assert state.pending is None


def test_first_miss_spawns_followup():
    state = make_state()
    prompt = _issue(state)
    with pytest.raises(ValueError):
        ict_resolve(state, "deadline_passed", prompt.deadline, CFG)
    result = ict_resolve(state, "deadline_passed", prompt.deadline + 1, CFG)
    assert result.record.outcome is IctOutcome.MISSED
    assert result.intervention is None
    followup = result.followup
    assert followup is not None
    assert followup.is_followup
    assert followup.trigger is IctTrigger.FOLLOWUP
    assert followup.followup_of == prompt.prompt_id
    assert followup.issued_at > prompt.deadline
    assert state.pending is followup


def test_missed_followup_triggers_exactly_one_intervention():
    state = make_state()
    prompt = _issue(state)
    first = ict_resolve(state, "deadline_passed", prompt.deadline + 1, CFG)
    second = ict_resolve(state, "deadline_passed", first.followup.deadline + 1, CFG)
    assert second.record.outcome is IctOutcome.MISSED
    assert second.intervention is not None
    assert set(second.intervention.actions) == {
        "contact_support",
        "start_video_stream",
        "hmi_alert",
    }
    assert not second.pull_over_recommended
    assert state.pending is None


def test_second_intervention_recommends_pull_over():
    state = make_state()
    for expected_pull_over in (False, True):
        prompt = tick(
            state,
            state.last_interactivity_time + 400.0,
            state.last_interactivity_odometer,
        )
        first = ict_resolve(state, "deadline_passed", prompt.deadline + 1, CFG)
        second = ict_resolve(state, "deadline_passed", first.followup.deadline + 1, CFG)
        assert second.pull_over_recommended is expected_pull_over
        interact(state, first.followup.deadline + 2, state.last_interactivity_odometer)


def test_demand_rose_voids_without_penalty():
    state = make_state()
    _issue(state)
    result = ict_resolve(state, "demand_rose", 405.0, CFG)
    assert result.record.outcome is IctOutcome.VOIDED_BY_DEMAND
    assert result.followup is None
    assert result.intervention is None


def test_resolve_without_pending_rejected():
    with pytest.raises(ValueError):
        ict_resolve(make_state(), "responded", 10.0, CFG, latency_s=1.0)


def test_randomized_sequences_intervention_iff_followup_miss():
    # Property: exactly one intervention per missed follow-up, never for
    # voided prompts, across randomized outcome sequences.
    rng = random.Random(77)
    for _ in range(500):
        state = make_state()
        now = 0.0
        interventions = 0
        followup_misses = 0
        for _ in range(rng.randint(1, 40)):
            now += rng.uniform(1, 600)
            if state.pending is None:
                tick(state, now)
                continue
            pending = state.pending
            was_followup = pending.is_followup
            signal = rng.choice(("responded", "deadline_passed", "demand_rose"))
            if signal == "responded":
                latency = rng.uniform(0, CFG.response_deadline_s - 1)
                result = ict_resolve(
                    state,
                    signal,
                    min(now, pending.deadline),
                    CFG,
                    latency_s=latency,
                )
            elif signal == "deadline_passed":
                result = ict_resolve(state, signal, pending.deadline + 1, CFG)
                now = max(now, pending.deadline + 1)
            else:
                result = ict_resolve(state, signal, now, CFG)
            if result.followup is not None:
                assert result.followup.issued_at > pending.deadline
            if result.intervention is not None:
                interventions += 1
                assert signal == "deadline_passed" and was_followup
            if signal == "deadline_passed" and was_followup:
                followup_misses += 1
            if signal == "demand_rose":
                assert result.intervention is None
        assert interventions == followup_misses


# -- adaptation ---------------------------------------------------------------


def _run_outcomes(state, outcomes, latency=2.0):
    now = state.last_interactivity_time
    for outcome in outcomes:
        now += 400.0
        prompt = tick(state, now)
        if prompt is None:
            prompt = state.pending
        if outcome == "completed":
            ict_resolve(state, "responded", now + latency, CFG, latency_s=latency)
        elif outcome == "voided":
            ict_resolve(state, "demand_rose", now + 1, CFG)
        else:
            result = ict_resolve(state, "deadline_passed", prompt.deadline + 1, CFG)
            if result.followup is not None:
                ict_resolve(state, "demand_rose", prompt.deadline + 2, CFG)
        now = state.last_interactivity_time = max(now, state.last_interactivity_time)


def test_two_misses_in_window_halve_multiplier():
    state = make_state()
    _run_outcomes(state, ["completed"] * 8 + ["missed"] * 2)
    ict_adapt(state, CFG)
    assert state.frequency_multiplier == 0.5


def test_clean_window_restores_multiplier():
    state = make_state()
    state.frequency_multiplier = 0.5
    _run_outcomes(state, ["completed"] * 10)
    ict_adapt(state, CFG)
    assert state.frequency_multiplier == 1.0


def test_multiplier_clamped_to_floor_and_one():
    state = make_state()
    _run_outcomes(state, ["missed"] * 10)
    for _ in range(5):
        ict_adapt(state, CFG)
    assert state.frequency_multiplier == CFG.multiplier_floor
    state2 = make_state()
    _run_outcomes(state2, ["completed"] * 10)
    for _ in range(5):
        ict_adapt(state2, CFG)
    assert state2.frequency_multiplier == 1.0


def test_voided_outcomes_do_not_count_against_multiplier():
    state = make_state()
    _run_outcomes(state, ["voided"] * 6 + ["completed"] * 4)
    ict_adapt(state, CFG)
    assert state.frequency_multiplier == 1.0


def test_miss_rate_leaves_out_voided_outcomes_in_its_window():
    state = make_state()
    assert ict_miss_rate(state, 10) is None
    # A miss also voids its follow-up: missed, voided, completed,
    # completed, voided.
    _run_outcomes(state, ["missed", "completed", "completed", "voided"])
    assert ict_miss_rate(state, 10) == 1 / 3
    assert ict_miss_rate(state, 3) == 0.0
    assert ict_miss_rate(state, 1) is None


def test_slow_responses_tighten_frequency():
    state = make_state()
    _run_outcomes(state, ["completed"] * 10, latency=20.0)
    ict_adapt(state, CFG)
    assert state.frequency_multiplier == 0.5


# -- secondary alerts ---------------------------------------------------------

SA = SaConfig()


def _oracle_score(inp: SaDecisionInput) -> float:
    # Independent reimplementation of the weighted factor sum.
    weights = {"pedal": 0.5, "steering": 0.35, "brake": 0.35, "button": 0.1}
    score = weights[inp.transition_cause.value]
    score += 0.2 if not inp.input_before else 0.0
    score += 0.2 if not inp.input_after else 0.0
    score += 0.1 if inp.speed > 15.0 else 0.0
    return min(1.0, score)


def test_sa_evaluate_matches_scoring_oracle_over_domain():
    for cause in TransitionCause:
        for before in (False, True):
            for after in (False, True):
                for speed in (5.0, 20.0):
                    for emergency in (False, True):
                        inp = SaDecisionInput(
                            transition_cause=cause,
                            speed=speed,
                            input_before=before,
                            input_after=after,
                            emergency=emergency,
                        )
                        decision = sa_evaluate(inp, SA)
                        score = _oracle_score(inp)
                        assert decision.rationale_score == pytest.approx(score)
                        if emergency:
                            assert decision.action is SaAction.SUPPRESS_EMERGENCY
                        elif score >= SA.issue_threshold:
                            assert decision.action is SaAction.ISSUE
                            assert decision.delay_s == SA.issue_delay_s
                        else:
                            assert decision.action is SaAction.NONE


def test_button_with_prior_input_stays_silent():
    inp = SaDecisionInput(
        transition_cause=TransitionCause.BUTTON,
        speed=20.0,
        input_before=True,
        input_after=False,
    )
    assert sa_evaluate(inp, SA).action is SaAction.NONE


def test_pothole_pedal_tap_issues_alert():
    inp = SaDecisionInput(
        transition_cause=TransitionCause.PEDAL,
        speed=20.0,
        input_before=False,
        input_after=False,
    )
    decision = sa_evaluate(inp, SA)
    assert decision.action is SaAction.ISSUE


def test_emergency_suppression_is_absolute():
    for cause in TransitionCause:
        inp = SaDecisionInput(
            transition_cause=cause,
            speed=30.0,
            input_before=False,
            input_after=False,
            emergency=True,
        )
        assert sa_evaluate(inp, SA).action is SaAction.SUPPRESS_EMERGENCY


def test_sa_resolution_paths():
    issued = sa_evaluate(
        SaDecisionInput(
            transition_cause=TransitionCause.PEDAL,
            speed=20.0,
            input_before=False,
            input_after=False,
        ),
        SA,
    )
    assert sa_resolve(issued, 3.0, SA) is SaResolution.CLEARED
    assert sa_resolve(issued, None, SA) is SaResolution.SUPPORT_ALERTED
    assert sa_resolve(issued, 11.0, SA) is SaResolution.SUPPORT_ALERTED
    silent = sa_evaluate(
        SaDecisionInput(
            transition_cause=TransitionCause.BUTTON,
            speed=5.0,
            input_before=True,
            input_after=True,
        ),
        SA,
    )
    with pytest.raises(ValueError):
        sa_resolve(silent, 3.0, SA)
