import math
import random

import pytest

from frmsim.fatigue import (
    DEFAULT_ORD_EDGES,
    BreakActivity,
    FatigueContext,
    ModelParams,
    advance_components,
    circadian_dip,
    compose_alertness,
    ord_hold_s,
    to_kss,
    to_ord_truth,
)

PARAMS = ModelParams()


def make_state(pressure=0.2, phase=8.0, task_load=0.3):
    """Model components: (sleep pressure, circadian phase, task load)."""
    return pressure, phase, task_load


def step(state, dt, ctx):
    return advance_components(*state, dt, ctx, PARAMS)


def alertness(state):
    return compose_alertness(*state, PARAMS)


def test_zero_step_is_identity():
    # Up to the rounding of 1 - (1 - x) in the closed forms.
    state = make_state()
    ctx = FatigueContext(on_task=True, monotony=0.5)
    assert step(state, 0, ctx) == pytest.approx(state, abs=1e-15)


def test_break_recovery_matches_closed_form():
    # One recovery-tau of rest decays task load by exactly e^-1.
    state = make_state(task_load=1.0)
    ctx = FatigueContext(on_task=False, in_break=True)
    _, _, task_load = step(state, 20 * 60, ctx)
    expected = 1.0 * math.exp(-1.0)
    assert abs(task_load - expected) / expected < 1e-9


def test_break_recovery_closed_form_any_duration():
    # Exponential-decay oracle evaluated independently per duration.
    ctx = FatigueContext(on_task=False, in_break=True)
    for minutes in (1, 5, 20, 45, 90):
        state = make_state(task_load=0.7)
        _, _, task_load = step(state, minutes * 60, ctx)
        expected = 0.7 * math.exp(-minutes / PARAMS.task_recovery_tau)
        assert abs(task_load - expected) <= 1e-9 * max(expected, 1e-12)


def test_eight_hour_monotonous_trace_non_increasing():
    # Overnight window: all three sleepiness components are non-decreasing,
    # so alertness can only fall.
    state = make_state(pressure=0.1, phase=20.0, task_load=0.0)
    ctx = FatigueContext(on_task=True, monotony=1.0)
    previous = alertness(state)
    for _ in range(8 * 60):
        state = step(state, 60, ctx)
        assert alertness(state) <= previous + 1e-12
        previous = alertness(state)


def test_boundedness_under_random_step_sequences():
    rng = random.Random(1234)
    contexts = [
        FatigueContext(on_task=True, monotony=1.0),
        FatigueContext(on_task=True, monotony=0.2),
        FatigueContext(on_task=False),
        FatigueContext(on_task=False, in_break=True, break_activity=BreakActivity.PHYSICAL),
        FatigueContext(on_task=False, asleep=True),
    ]
    for _ in range(200):
        state = make_state(
            pressure=rng.random(), phase=rng.uniform(0, 24) % 24, task_load=rng.random()
        )
        for _ in range(50):
            state = step(state, rng.uniform(0, 7200), rng.choice(contexts))
            pressure, phase, task_load = state
            assert 0.0 <= pressure <= 1.0
            assert 0.0 <= phase < 24.0
            assert 0.0 <= task_load <= 1.0
            assert 0.0 <= alertness(state) <= 1.0


def test_break_strictly_decreases_task_load():
    rng = random.Random(99)
    ctx = FatigueContext(on_task=False, in_break=True)
    for _ in range(100):
        load = rng.uniform(1e-6, 1.0)
        state = make_state(task_load=load)
        _, _, task_load = step(state, rng.uniform(1, 3600), ctx)
        assert task_load < load


def test_homeostat_direction():
    awake = FatigueContext(on_task=False)
    asleep = FatigueContext(on_task=False, asleep=True)
    state = make_state(pressure=0.5)
    assert step(state, 3600, awake)[0] > 0.5
    assert step(state, 3600, asleep)[0] < 0.5


def test_circadian_phase_wraps():
    state = make_state(phase=23.5)
    ctx = FatigueContext(on_task=False)
    _, phase, _ = step(state, 3600, ctx)
    assert 0.0 <= phase < 1.0


def _oracle_kss(alertness: float) -> int:
    # Independent quantizer: affine map of sleepiness onto 1..9, half-up.
    value = math.floor(1.0 + 8.0 * (1.0 - alertness) + 0.5)
    return max(1, min(9, value))


def test_kss_endpoints_and_midpoint():
    quiet = ModelParams(report_noise_sd=0.0)
    rng = random.Random(0)
    assert to_kss(1.0, rng, quiet) == 1
    assert to_kss(0.0, rng, quiet) == 9
    assert to_kss(0.5, rng, quiet) == _oracle_kss(0.5)


def test_kss_matches_quantizer_oracle_noiseless():
    quiet = ModelParams(report_noise_sd=0.0)
    rng = random.Random(0)
    for i in range(101):
        level = i / 100
        assert to_kss(level, rng, quiet) == _oracle_kss(level)


def test_kss_monotone_noiseless():
    quiet = ModelParams(report_noise_sd=0.0)
    rng = random.Random(0)
    previous = None
    for i in range(101):
        value = to_kss(1.0 - i / 100, rng, quiet)
        if previous is not None:
            assert value >= previous
        previous = value


def test_kss_noise_is_clamped_and_deterministic():
    level = alertness(make_state())
    values_a = [to_kss(level, random.Random(5), PARAMS) for _ in range(3)]
    values_b = [to_kss(level, random.Random(5), PARAMS) for _ in range(3)]
    assert values_a == values_b
    base = _oracle_kss(level)
    limit = math.ceil(8 * 3 * PARAMS.report_noise_sd) + 1
    rng = random.Random(77)
    for _ in range(500):
        assert abs(to_kss(level, rng, PARAMS) - base) <= limit


def test_ord_endpoints_and_monotone_sweep():
    assert to_ord_truth(1.0) == 1
    assert to_ord_truth(0.0) == 5
    previous = 0
    for i in range(101):
        level = to_ord_truth(1.0 - i / 100)
        assert 1 <= level <= 5
        assert level >= previous
        previous = level


def test_ord_edges_are_four_descending_values():
    assert len(DEFAULT_ORD_EDGES) == 4
    assert all(hi > lo for hi, lo in zip(DEFAULT_ORD_EDGES, DEFAULT_ORD_EDGES[1:]))


def test_additive_components_never_raise_alertness():
    rng = random.Random(7)
    for _ in range(300):
        pressure = rng.uniform(0, 0.7)
        load = rng.uniform(0, 0.7)
        phase = rng.uniform(0, 24) % 24
        bump_p = rng.uniform(0, 1 - pressure)
        bump_l = rng.uniform(0, 1 - load)
        both = compose_alertness(pressure + bump_p, phase, load + bump_l, PARAMS)
        only_pressure = compose_alertness(pressure + bump_p, phase, load, PARAMS)
        only_load = compose_alertness(pressure, phase, load + bump_l, PARAMS)
        assert both <= only_pressure + 1e-12
        assert both <= only_load + 1e-12


def test_circadian_dip_peaks_at_trough_hour():
    assert circadian_dip(PARAMS.circadian_trough_hour, PARAMS) == pytest.approx(
        PARAMS.circadian_amplitude
    )
    assert circadian_dip((PARAMS.circadian_trough_hour + 12) % 24, PARAMS) == pytest.approx(0.0)


def test_params_validation():
    # ModelParams ranges are the configuration's (``test_cli``'s
    # ``_UNRUNNABLE``); a step's context checks itself.
    with pytest.raises(ValueError):
        FatigueContext(on_task=True, asleep=True)
    with pytest.raises(ValueError):
        FatigueContext(on_task=True, in_break=True)


def test_step_determinism():
    state = make_state()
    ctx = FatigueContext(on_task=True, monotony=0.8)
    a = step(state, 330, ctx)
    b = step(state, 330, ctx)
    assert a == b


def test_ord_level_holds_through_its_certified_span():
    # Brute force over random anchors, contexts and parameters (with the
    # susceptibility scaling of the simulator): the ORD level at every
    # minute inside the certified span equals the level at its start.
    rng = random.Random(16)
    contexts = [
        FatigueContext(on_task=True, monotony=0.9),
        FatigueContext(on_task=True, monotony=1.0),
        *(FatigueContext(on_task=False, in_break=True, break_activity=a) for a in BreakActivity),
        FatigueContext(on_task=False),
        FatigueContext(on_task=False, asleep=True),
    ]
    spans = []
    for _ in range(300):
        susceptibility = rng.uniform(0.5, 3.0)
        weights = [rng.random() for _ in range(3)]
        params = ModelParams(
            homeostat_rise_tau=18.0 / susceptibility,
            task_load_rate=0.3 * susceptibility,
            circadian_amplitude=rng.random(),
            circadian_trough_hour=rng.uniform(0, 24) % 24,
            component_weights=tuple(w / sum(weights) for w in weights),
        )
        ctx = rng.choice(contexts)
        anchor = (rng.random(), rng.uniform(0, 24) % 24, rng.random())
        start = rng.randrange(1, 4 * 3600)
        pressure, phase, task_load = advance_components(*anchor, start, ctx, params)
        start_alertness = compose_alertness(pressure, phase, task_load, params)
        level = to_ord_truth(start_alertness)
        span = ord_hold_s(pressure, task_load, start_alertness, ctx, params)
        spans.append(span)
        for minute in range(1, int(min(span, 12 * 3600) // 60) + 1):
            later = advance_components(*anchor, start + 60 * minute, ctx, params)
            assert to_ord_truth(compose_alertness(*later, params)) == level
    # The spans are neither all empty nor all unbounded.
    assert sum(60 <= span < 3600 for span in spans) > 50
    assert sum(span >= 3600 for span in spans) > 20
