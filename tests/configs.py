"""Scenario configurations shared by the golden pins and the loop tests."""

from __future__ import annotations

import random

from frmsim.config import Toggles, default_config

from logchecks import cfg_with, only


def odd_shift_configs():
    """Off-minute starts, scheduled breaks, frequent control transitions
    with manual periods that end mid-minute, and breaks and secondary
    alerts as long as the drain allows (their items fall due after the
    shift ends), across mixed toggles."""
    for seed, toggles, manual_s, break_min, sa_s in (
        (0, Toggles.all_on(), 7.5, 15.0, 1.5),
        (1, Toggles(vigilance=False), 61.0, 30.0, 1.5),
        (2, Toggles(awareness=False, scheduling=False), 1.0, 5.0, 1.5),
        (3, Toggles.all_off(), 60.0, 15.0, 1.5),
        (4, Toggles.all_on(), 60.0, 15.0, 900.0),
    ):
        yield cfg_with(
            seed=seed,
            horizon_days=3,
            fleet=[
                {"specialist_id": f"as-{i}", "susceptibility": 1.0 + 0.2 * i, "dual": i == 1}
                for i in range(3)
            ],
            shift={"start_min": 1333, "duration_min": 300, "scheduled_breaks": [[97, 13]]},
            toggles=toggles.__dict__,
            sample_period_s=90,
            **{
                "behavior.transition_rate_per_h": 12.0,
                "behavior.manual_period_s": manual_s,
                "behavior.demand_start_min": 10.5,
                "breaks.duration_min": break_min,
                "vigilance.periodic_cadence_min": 7.25,
                "sa.issue_delay_s": sa_s,
                "sa.clear_timeout_s": sa_s,
            },
        )
    # One specialist, so no other driver keeps the loop stepping: a
    # 7.5-minute break ends between minute ticks, and its end item alone
    # wakes the loop there.
    yield cfg_with(
        seed=0,
        horizon_days=4,
        **{
            "sa.issue_delay_s": 900.0,
            "sa.clear_timeout_s": 900.0,
            "behavior.transition_rate_per_h": 20.0,
            "breaks.duration_min": 7.5,
            "behavior.impromptu_check_min": 5.0,
            "behavior.impromptu_kss_threshold": 5,
            "behavior.impromptu_p": 1.0,
        },
    )


def reassignment_config(seed: int, specialists: int = 1, horizon_days: int = 2):
    """Highly susceptible specialists who start the shift tired, with
    self-reports every 20 minutes, full break compliance and 1-minute
    breaks, so a persistent high self-report reassigns them to auxiliary
    work."""
    return cfg_with(
        seed=seed,
        horizon_days=horizon_days,
        fleet=[
            {"specialist_id": f"as-{i}", "susceptibility": 3.5, "initial_sleep_pressure": 0.6}
            for i in range(specialists)
        ],
        **{
            "behavior.monotony": 1.0,
            "pfs.cadence_min": 20.0,
            "pfs.outreach_reassign_kss": 6,
            "pfs.break_compliance": 1.0,
            "breaks.duration_min": 1.0,
        },
    )


def _tired_fleet(n: int, susceptibility: float, pressure: float, dual: bool) -> list:
    return [
        {
            "specialist_id": f"as-{i}",
            "susceptibility": susceptibility + 0.1 * i,
            "initial_sleep_pressure": pressure,
            "dual": dual,
        }
        for i in range(n)
    ]


def peer_concern_config(seed: int):
    """Five tired dual specialists over three shifts, with no detector
    or engagement to relieve them: at ORD >= 4 their peers raise a
    concern every hour, surveys every 30 minutes send them on short
    breaks whose follow-ups mostly go unanswered (a reminder) or stay
    high (supervisor outreach), and every invited break is declined, so
    each shift's second decline brings outreach."""
    return cfg_with(
        seed=seed,
        horizon_days=4,
        fleet=_tired_fleet(5, 2.5, 0.5, dual=True),
        toggles=Toggles(vigilance=False, engagement=False).__dict__,
        **{
            "behavior.peer_concern_p_per_h": 1.0,
            "behavior.invited_decline_p": 1.0,
            "pfs.cadence_min": 30.0,
            "pfs.followup_compliance": 0.3,
            "breaks.duration_min": 5.0,
        },
    )


def pull_over_config(seed: int):
    """Five specialists over four days who miss half their engagement
    prompts, so missed follow-ups bring interventions, a shift's second
    one a pull-over, and the fatigue events retrain them (education on)."""
    return cfg_with(
        seed=seed,
        horizon_days=4,
        fleet=_tired_fleet(5, 1.5, 0.3, dual=False),
        toggles=Toggles(awareness=False, vigilance=False, scheduling=False).__dict__,
        **{"behavior.ict_miss_base_p": 0.5},
    )


def retrieval_config(seed: int):
    """Four highly susceptible specialists, with vigilance alone, rated
    every 10 minutes by raters who read high, so confirmed level-5 cases
    retrieve vehicles."""
    raters = default_config(seed=seed).to_dict()["raters"]
    return cfg_with(
        seed=seed,
        horizon_days=3,
        fleet=_tired_fleet(4, 3.5, 0.6, dual=False),
        toggles=only("vigilance").__dict__,
        raters=[dict(rater, bias=0.5, noise_sd=0.15) for rater in raters],
        **{
            "vigilance.periodic_cadence_min": 10.0,
            "vigilance.qualification_match_threshold": 0.5,
        },
    )


def traced_fleet_config(seed: int, toggles: Toggles):
    """Five specialists of susceptibility 0.8 to 1.2 over three night
    shifts, each with one scheduled break, traced every minute."""
    return cfg_with(
        seed=seed,
        horizon_days=3,
        fleet=[
            {
                "specialist_id": f"as-{i}",
                "susceptibility": 0.8 + 0.1 * i,
                "initial_sleep_pressure": 0.05 + 0.03 * i,
                "dual": i % 4 == 0,
            }
            for i in range(5)
        ],
        toggles=toggles.__dict__,
        sample_period_s=60,
        **{"shift.scheduled_breaks": [[240, 20]]},
    )


def random_config(rng: random.Random) -> dict:
    """A configuration document drawn from ``rng``: a small fleet over two
    or three days with mixed toggles, an off-minute shift start, scheduled
    breaks (a repeated offset among them), and cadences, delays, demand
    windows and control periods from one second up to the drain. A few
    draws let a secondary alert outlast the drain, which validation
    rejects."""
    data = default_config(seed=rng.randrange(1000)).to_dict()
    duration = rng.choice((60, 97, 180, 300))
    breaks = [
        [rng.randrange(duration - 10), rng.randint(1, 10)] for _ in range(rng.randint(0, 2))
    ]
    if breaks and rng.random() < 0.3:
        breaks.append([breaks[0][0], rng.randint(1, 10)])
    data["horizon_days"] = rng.randint(2, 3)
    data["fleet"] = [
        {
            "specialist_id": f"as-{i}",
            "susceptibility": rng.uniform(0.5, 3.0),
            "initial_sleep_pressure": rng.uniform(0.0, 0.6),
            "stage": rng.choice(("single_qualified", "dual_qualified", "trainee")),
            "dual": rng.random() < 0.5,
        }
        for i in range(rng.randint(1, 3))
    ]
    data["shift"] = {
        "start_min": rng.randrange(1440),
        "duration_min": duration,
        "scheduled_breaks": breaks,
    }
    data["toggles"] = {name: rng.random() < 0.6 for name in data["toggles"]}
    data["sample_period_s"] = rng.choice((0, 1, 45, 60, 90, 600))
    data["dms"]["observation_period"] = rng.choice((1.0, 45.0, 60.0, 150.0))
    data["vigilance"].update(
        periodic_cadence_min=rng.choice((0.5, 7.25, 30.0)),
        rating_latency_s=rng.choice((0.5, 1.0, 30.0, 1800.0)),
        flag_cooldown_min=rng.choice((0.0, 10.0)),
        reliability_interval_min=rng.choice((1.0, 60.0)),
        post_confirm_break_min=rng.choice((1 / 60, 15.0, 30.0)),
    )
    data["ict"].update(
        gap_time_s=rng.uniform(1.0, 600.0),
        gap_distance_m=rng.uniform(1.0, 6000.0),
        jitter=rng.choice((0.0, 0.2, 0.9)),
        response_deadline_s=rng.choice((0.5, 5.0, 30.0, 4000.0)),
        adapt_window=rng.randint(1, 10),
    )
    sa_s = rng.choice((1.0, 1.5, 5.0, 900.0, 1000.0))
    data["sa"].update(issue_delay_s=sa_s, clear_timeout_s=rng.choice((1.0, 10.0, sa_s)))
    data["breaks"].update(
        duration_min=rng.choice((1 / 60, 7.5, 15.0, 30.0)),
        cooldown_min=rng.choice((0.0, 60.0)),
    )
    data["pfs"].update(
        cadence_min=rng.choice((1.0, 17.5, 120.0)),
        followup_due_min=rng.choice((1 / 60, 5.0, 29.0)),
    )
    data["behavior"].update(
        monotony=rng.random(),
        impromptu_check_min=rng.choice((1.0, 5.0, 15.0)),
        impromptu_kss_threshold=rng.randint(1, 9),
        impromptu_p=rng.random(),
        transition_rate_per_h=rng.choice((0.0, 1.0, 20.0)),
        manual_period_s=rng.choice((0.5, 7.5, 60.0, 3000.0)),
        demand_period_min=rng.choice((0.5, 7.0, 60.0)),
        demand_start_min=rng.uniform(0.0, 60.0),
        demand_duration_min=rng.uniform(0.0, 60.0),
        speed_mps=rng.choice((0.0, 12.0, 30.0)),
    )
    return data
