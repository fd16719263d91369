"""Continuous alertness model for a single specialist.

Tracks three components: sleep pressure that builds while awake and
discharges during sleep, a 24-hour sinusoidal sleepiness rhythm, and
task-related load that accumulates during monotonous supervision and
relaxes during breaks. Composite alertness is the complement of a
weighted sum of the three components, and maps onto the 9-point
self-report sleepiness scale (KSS) and the 5-level observer drowsiness
scale (ORD).

All update equations are exact exponential solutions, so a single step
of length dt equals any subdivision of it under constant context.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "IN_VEHICLE",
    "Activity",
    "BreakActivity",
    "FatigueContext",
    "ModelParams",
    "DEFAULT_ORD_EDGES",
    "advance_components",
    "circadian_dip",
    "compose_alertness",
    "ord_hold_s",
    "to_kss",
    "to_ord_truth",
]

# Bands on the alertness axis separating ORD levels 1..5 (descending).
DEFAULT_ORD_EDGES = (0.8, 0.6, 0.4, 0.2)

# What ``ord_hold_s`` keeps between alertness and an ORD edge, far above
# the rounding error of a composed alertness (about 1e-15), so that a
# certified span holds for the computed values as well as the exact ones.
_ORD_EDGE_SLACK = 1e-9


class Activity(Enum):
    """What a specialist is doing. Every change goes through the
    simulator's ``_Agent.enter``."""

    OFF_SHIFT = "off_shift"
    DRIVING = "driving"
    ON_BREAK = "on_break"
    # Retrieved or reassigned to auxiliary work for the rest of the shift.
    OFF_VEHICLE = "off_vehicle"


# Driving or on a break: surveys run and may ask for a break or a
# reassignment, and a confirmed escalation may retrieve the vehicle.
IN_VEHICLE = (Activity.DRIVING, Activity.ON_BREAK)


class BreakActivity(str, Enum):
    REST = "rest"
    PHYSICAL = "physical"
    SOCIAL = "social"


# Active breaks recover task load faster than passive rest.
_RECOVERY_TAU_SCALE = {
    BreakActivity.REST: 1.0,
    BreakActivity.PHYSICAL: 0.6,
    BreakActivity.SOCIAL: 0.7,
}


@dataclass(frozen=True)
class ModelParams:
    """Fixed parameters of the alertness model.

    Taus are time constants of the exponential component updates:
    ``homeostat_rise_tau`` and ``homeostat_decay_tau`` in hours,
    ``task_recovery_tau`` in minutes. ``task_load_rate`` is the per-hour
    rate constant of task-load accumulation at full monotony.
    ``component_weights`` weigh (sleep pressure, circadian dip, task
    load) and must sum to 1.
    """

    homeostat_rise_tau: float = 18.0
    homeostat_decay_tau: float = 4.0
    circadian_amplitude: float = 1.0
    circadian_trough_hour: float = 4.0
    task_load_rate: float = 0.3
    task_recovery_tau: float = 20.0
    component_weights: tuple[float, float, float] = (0.4, 0.2, 0.4)
    report_noise_sd: float = 0.05


@dataclass(frozen=True)
class FatigueContext:
    """What the specialist is doing during a model step."""

    on_task: bool
    monotony: float = 0.0
    in_break: bool = False
    asleep: bool = False
    break_activity: BreakActivity = BreakActivity.REST

    def __post_init__(self) -> None:
        if not 0.0 <= self.monotony <= 1.0:
            raise ValueError("monotony must be in [0, 1]")
        if self.asleep and self.on_task:
            raise ValueError("asleep implies not on_task")
        if self.in_break and self.on_task:
            raise ValueError("in_break implies not on_task")


def circadian_dip(phase: float, params: ModelParams) -> float:
    """Sleepiness contribution of the 24 h rhythm, peaking at the trough hour."""
    angle = 2.0 * math.pi * (phase - params.circadian_trough_hour) / 24.0
    return params.circadian_amplitude * 0.5 * (1.0 + math.cos(angle))


def compose_alertness(
    pressure: float, phase: float, task_load: float, params: ModelParams
) -> float:
    w1, w2, w3 = params.component_weights
    sleepiness = w1 * pressure + w2 * circadian_dip(phase, params) + w3 * task_load
    return 1.0 - min(1.0, max(0.0, sleepiness))


def advance_components(
    pressure: float,
    phase: float,
    task_load: float,
    dt_s: float,
    ctx: FatigueContext,
    params: ModelParams,
) -> tuple[float, float, float]:
    """Advance (sleep pressure, circadian phase, task load) by ``dt_s``
    seconds under a constant context; each component stays in its range
    ([0, 1], [0, 24) and [0, 1]). Compose the result with
    :func:`compose_alertness`."""
    hours = dt_s / 3600.0
    if ctx.asleep:
        pressure = pressure * math.exp(-hours / params.homeostat_decay_tau)
    else:
        pressure = 1.0 - (1.0 - pressure) * math.exp(-hours / params.homeostat_rise_tau)
    phase = (phase + hours) % 24.0
    if ctx.on_task:
        rate = params.task_load_rate * ctx.monotony
        if rate > 0:
            task_load = 1.0 - (1.0 - task_load) * math.exp(-rate * hours)
    else:
        tau_min = params.task_recovery_tau
        if ctx.in_break:
            tau_min *= _RECOVERY_TAU_SCALE[ctx.break_activity]
        task_load = task_load * math.exp(-(dt_s / 60.0) / tau_min)
    return min(1.0, max(0.0, pressure)), phase, min(1.0, max(0.0, task_load))


def ord_hold_s(
    pressure: float,
    task_load: float,
    alertness: float,
    ctx: FatigueContext,
    params: ModelParams,
) -> float:
    """Seconds from now over which the ORD level of ``alertness`` (the
    composition of ``pressure``, ``task_load`` and any phase) cannot change
    while ``ctx`` holds; ``math.inf`` if alertness cannot move.

    The span is the distance to the nearest ORD edge over a bound on the
    slope of alertness. Under a constant context, sleep pressure and task
    load are monotone exponentials, so each moves fastest now: pressure
    at ``(1 - pressure) / homeostat_rise_tau`` per hour awake or
    ``pressure / homeostat_decay_tau`` asleep, task load at
    ``rate * (1 - task_load)`` on task or ``task_load / tau`` off it. The
    circadian dip's slope is at most ``circadian_amplitude * pi / 24`` per
    hour. Alertness moves at most the weighted sum of these, since the
    clamp in :func:`compose_alertness` cannot speed it up.
    """
    w1, w2, w3 = params.component_weights
    if ctx.asleep:
        pressure_slope = pressure / params.homeostat_decay_tau
    else:
        pressure_slope = (1.0 - pressure) / params.homeostat_rise_tau
    if ctx.on_task:
        load_slope = params.task_load_rate * ctx.monotony * (1.0 - task_load)
    else:
        tau_min = params.task_recovery_tau
        if ctx.in_break:
            tau_min *= _RECOVERY_TAU_SCALE[ctx.break_activity]
        load_slope = 60.0 * task_load / tau_min
    slope_per_h = (
        w1 * pressure_slope
        + w2 * params.circadian_amplitude * math.pi / 24.0
        + w3 * load_slope
    )
    # The level rises once alertness falls below the highest edge at or
    # under it, and falls once alertness reaches the lowest edge above it.
    below, above = -math.inf, math.inf
    for edge in DEFAULT_ORD_EDGES:  # descending
        if edge <= alertness:
            below = edge
            break
        above = edge
    margin = min(alertness - below, above - alertness) - _ORD_EDGE_SLACK
    if margin <= 0.0:
        return 0.0
    if slope_per_h <= 0.0:
        return math.inf
    return 3600.0 * margin / slope_per_h


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def to_kss(alertness: float, rng: random.Random, params: ModelParams) -> int:
    """Self-reported sleepiness on the 9-point scale (1 alert .. 9 sleepy).

    Quantizes (1 - alertness) affinely onto 1..9, adds report noise
    clamped at three standard deviations, rounds, and clamps to [1, 9].
    """
    sleepiness = 1.0 - alertness
    if params.report_noise_sd > 0:
        limit = 3.0 * params.report_noise_sd
        noise = rng.gauss(0.0, params.report_noise_sd)
        sleepiness += max(-limit, min(limit, noise))
    kss = _round_half_up(1.0 + 8.0 * sleepiness)
    return max(1, min(9, kss))


def to_ord_truth(alertness: float) -> int:
    """Ground-truth observer drowsiness level 1..5 from the alertness
    bands of ``DEFAULT_ORD_EDGES``."""
    level = 1
    for edge in DEFAULT_ORD_EDGES:
        if alertness < edge:
            level += 1
    return level
