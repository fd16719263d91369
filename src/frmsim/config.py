"""Scenario configuration: fleet, policies, countermeasure toggles, and
deterministic hashing. Configurations round-trip through a versioned
JSON document; the hash of the canonical form stamps every output.
``ScenarioConfig.validate`` checks every numeric leaf against one table,
``BOUNDS``, and then the few rules that span fields."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Any, NamedTuple, Optional, get_args, get_origin, get_type_hints

from .engagement import ICT_OUTCOME_HISTORY, EngagementConfig, SaConfig, TransitionCause
from .fatigue import ModelParams
from .scheduling import MAX_SHIFT_MINUTES, MINUTES_PER_DAY, BreakPolicy, Stage
from .vigilance import DmsConfig, RaterProfile, qualification

__all__ = [
    "BOUNDS",
    "SHIFT_DRAIN_S",
    "BehaviorConfig",
    "Bound",
    "ConfigError",
    "ConfigParseError",
    "HazardConfig",
    "PfsPolicy",
    "ScenarioConfig",
    "ShiftConfig",
    "SpecialistDef",
    "Toggles",
    "VigilancePolicy",
    "default_config",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

# After a shift ends, the simulator runs this long to let scheduled items
# (break ends, secondary alerts, validation ratings, survey follow-ups)
# fall due; validation keeps every delay within it.
SHIFT_DRAIN_S = 1800


class ConfigError(ValueError):
    pass


class ConfigParseError(ConfigError):
    """The configuration document is not valid JSON at all."""


@dataclass(frozen=True)
class SpecialistDef:
    specialist_id: str
    susceptibility: float = 1.0
    initial_sleep_pressure: float = 0.1
    stage: Stage = Stage.SINGLE_QUALIFIED
    dual: bool = False


@dataclass(frozen=True)
class ShiftConfig:
    start_min: int = 1320  # 22:00, where monotony and the circadian dip overlap
    duration_min: int = 480
    scheduled_breaks: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Toggles:
    """Independent on/off switches for the five countermeasure blocks."""

    education: bool = True
    awareness: bool = True
    vigilance: bool = True
    engagement: bool = True
    scheduling: bool = True

    @classmethod
    def all_on(cls) -> "Toggles":
        return cls()

    @classmethod
    def all_off(cls) -> "Toggles":
        return cls(
            education=False,
            awareness=False,
            vigilance=False,
            engagement=False,
            scheduling=False,
        )

    def any_on(self) -> bool:
        return any(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class VigilancePolicy:
    k_validation_raters: int = 3
    periodic_cadence_min: float = 30.0
    route_two_threshold: int = 4
    rating_latency_s: float = 30.0
    flag_cooldown_min: float = 10.0
    reliability_interval_min: float = 240.0
    qualification_items: int = 20
    qualification_match_threshold: float = 0.8
    post_confirm_break_min: float = 15.0


@dataclass(frozen=True)
class PfsPolicy:
    cadence_min: float = 120.0
    followup_due_min: float = 5.0
    break_compliance: float = 0.9
    followup_compliance: float = 0.9
    outreach_reassign_kss: int = 8


@dataclass(frozen=True)
class BehaviorConfig:
    """Parameters of the simulated specialist and vehicle behavior."""

    monotony: float = 0.9
    ict_miss_base_p: float = 0.01
    ict_latency_base_s: float = 3.0
    ict_latency_fatigue_s: float = 12.0
    ict_relief: float = 0.004
    alert_relief: float = 0.02
    impromptu_check_min: float = 15.0
    impromptu_kss_threshold: int = 7
    impromptu_p: float = 0.5
    invited_decline_p: float = 0.1
    break_activity_weights: tuple[float, float, float] = (0.6, 0.3, 0.1)
    transition_rate_per_h: float = 1.0
    emergency_p: float = 0.05
    manual_period_s: float = 60.0
    sa_clear_base_p: float = 0.6
    demand_period_min: float = 60.0
    demand_start_min: float = 40.0
    demand_duration_min: float = 5.0
    speed_mps: float = 12.0
    peer_concern_p_per_h: float = 0.05
    education_recovery_bonus: float = 0.2


@dataclass(frozen=True)
class HazardConfig:
    """Per-minute incautious-behavior hazard while driving on task.

    Defaults come from the packaged session-length calibration run
    (see ``calibrate_session_length_effect``); they make long sessions
    several times likelier than short ones to contain an event.
    """

    base_per_min: float = 0.0068037910
    task_load_gain: float = 0.1568490388
    alertness_gain: float = 0.01

    def rate(self, task_load: float, alertness: float) -> float:
        raw = (
            self.base_per_min
            + self.task_load_gain * task_load
            + self.alertness_gain * (1.0 - alertness)
        )
        return min(1.0, max(0.0, raw))


class Bound(NamedTuple):
    """The values one numeric config leaf may take: from ``lo`` to ``hi``,
    an end included unless it is open, whole numbers only if ``integer``.
    The ends of a time in units of ``unit_s`` seconds are in seconds: the
    loop runs in whole seconds, and items due after a shift ends must
    fall due within its ``SHIFT_DRAIN_S``-second drain. On a list of
    (name, weight) pairs, ``names`` are the names it holds, each once."""

    lo: float = -math.inf
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False
    integer: bool = False
    unit_s: float = 0.0
    names: tuple[str, ...] = ()

    def fault(self, value: float) -> Optional[str]:
        """What a number outside the bound must be, worded to follow
        "must be"; None for one inside it."""
        if not math.isfinite(value):
            return f"finite, got {value!r}"
        x = value * self.unit_s if self.unit_s else value
        if (
            self.lo <= x <= self.hi
            and not (self.open_lo and x == self.lo)
            and not (self.open_hi and x == self.hi)
            and not (self.integer and x != int(x))
        ):
            return None
        kind = "an integer in" if self.integer else "a time in" if self.unit_s else "in"
        left = "([" [not self.open_lo and self.lo > -math.inf]
        right = ")]" [not self.open_hi and self.hi < math.inf]
        unit = " s" if self.unit_s else ""
        return f"{kind} {left}{self.lo:g}, {self.hi:g}{right}{unit}, got {x!r}{unit}"


def _each(bound: Bound, *keys: str) -> dict[str, Bound]:
    return dict.fromkeys(keys, bound)


# Each numeric leaf's bound, by the codec's dotted path with "[]" for a
# list item. A leaf not listed may be any finite number.
BOUNDS: dict[str, Bound] = {
    # Counts and levels. The shift starts, ends and breaks on a minute
    # tick; the ICT scheduler keeps ICT_OUTCOME_HISTORY outcomes.
    **_each(Bound(0, integer=True), "horizon_days", "sample_period_s", "shift.scheduled_breaks[][]"),
    "shift.start_min": Bound(0, MINUTES_PER_DAY - 1, integer=True),
    "shift.duration_min": Bound(1, MAX_SHIFT_MINUTES, integer=True),
    "vigilance.qualification_items": Bound(1, integer=True),
    "vigilance.k_validation_raters": Bound(2, integer=True),
    "ict.adapt_window": Bound(1, ICT_OUTCOME_HISTORY, integer=True),
    "dms.detect_threshold_ord": Bound(2, 5, integer=True),
    **_each(Bound(1, 5, integer=True), "vigilance.route_two_threshold", "breaks.rater_level_threshold"),
    **_each(
        Bound(1, 9, integer=True),
        "breaks.kss_threshold", "pfs.outreach_reassign_kss", "behavior.impromptu_kss_threshold",
    ),
    # Probabilities, shares and thresholds on them.
    **_each(
        Bound(0.0, 1.0),
        "fleet[].initial_sleep_pressure", "model.circadian_amplitude", "model.component_weights[]",
        "dms.false_positive_rate", "dms.false_negative_rate",
        "vigilance.qualification_match_threshold", "ict.miss_rate_threshold",
        "breaks.ict_miss_rate_threshold", "pfs.break_compliance", "pfs.followup_compliance",
        "behavior.monotony", "behavior.ict_miss_base_p", "behavior.ict_relief",
        "behavior.alert_relief", "behavior.impromptu_p", "behavior.invited_decline_p",
        "behavior.emergency_p", "behavior.sa_clear_base_p", "behavior.peer_concern_p_per_h",
        "behavior.education_recovery_bonus",
    ),
    "ict.jitter": Bound(0.0, 1.0, open_hi=True),
    "ict.multiplier_floor": Bound(0.0, 1.0, open_lo=True),
    "model.circadian_trough_hour": Bound(0.0, 24.0, open_hi=True),
    # Rates, weights, durations and offsets. The odometer cannot run backwards.
    **_each(
        Bound(0.0),
        "model.task_load_rate", "model.report_noise_sd", "raters[].noise_sd",
        "vigilance.flag_cooldown_min", "ict.slow_latency_threshold_s", "sa.cause_weights[][]",
        "sa.no_input_before_weight", "sa.no_input_after_weight", "sa.speed_weight",
        "sa.speed_threshold_mps", "breaks.cooldown_min", "behavior.ict_latency_base_s",
        "behavior.ict_latency_fatigue_s", "behavior.break_activity_weights[]",
        "behavior.transition_rate_per_h", "behavior.demand_start_min",
        "behavior.demand_duration_min", "behavior.speed_mps", "hazard.base_per_min",
        "hazard.task_load_gain", "hazard.alertness_gain",
    ),
    **_each(
        Bound(0.0, open_lo=True),
        "fleet[].susceptibility", "model.homeostat_rise_tau", "model.homeostat_decay_tau",
        "model.task_recovery_tau", "ict.gap_time_s", "ict.gap_distance_m",
        "ict.response_deadline_s", "behavior.manual_period_s",
    ),
    # Cadences and delays, and delays that may outlast the shift.
    **_each(Bound(1, unit_s=1.0), "dms.observation_period", "sa.issue_delay_s", "sa.clear_timeout_s"),
    **_each(
        Bound(1, unit_s=60.0),
        "vigilance.periodic_cadence_min", "vigilance.reliability_interval_min", "pfs.cadence_min",
        "pfs.followup_due_min", "behavior.impromptu_check_min", "behavior.demand_period_min",
    ),
    **_each(
        Bound(1, SHIFT_DRAIN_S, unit_s=60.0),
        "vigilance.post_confirm_break_min", "breaks.duration_min",
    ),
    "vigilance.rating_latency_s": Bound(0, SHIFT_DRAIN_S, open_lo=True, unit_s=1.0),
    # A control transition looks up its cause's weight.
    "sa.cause_weights": Bound(names=tuple(cause.value for cause in TransitionCause)),
}


def _default_raters() -> tuple[RaterProfile, ...]:
    noises = (0.2, 0.25, 0.3, 0.2, 0.25, 0.3)
    return tuple(
        RaterProfile(rater_id=f"rater-{i}", bias=0.0, noise_sd=noise)
        for i, noise in enumerate(noises)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    horizon_days: int = 2
    fleet: tuple[SpecialistDef, ...] = (SpecialistDef(specialist_id="as-0"),)
    shift: ShiftConfig = ShiftConfig()
    model: ModelParams = ModelParams()
    dms: DmsConfig = DmsConfig()
    raters: tuple[RaterProfile, ...] = ()
    vigilance: VigilancePolicy = VigilancePolicy()
    ict: EngagementConfig = EngagementConfig()
    sa: SaConfig = SaConfig()
    breaks: BreakPolicy = BreakPolicy()
    pfs: PfsPolicy = PfsPolicy()
    behavior: BehaviorConfig = BehaviorConfig()
    hazard: HazardConfig = HazardConfig()
    toggles: Toggles = Toggles()
    # Period of the opt-in full-state ``state_sample`` trace; 0 is off.
    sample_period_s: int = 0

    def validate(self) -> None:
        """Check every number against ``BOUNDS`` (each must be finite),
        then the rules that span fields; with vigilance on, enough raters
        must pass the seeded qualification. What validates, simulates.
        Raises ``ConfigError`` naming the dotted path at fault."""
        fault = _checker(ScenarioConfig, "")(self)
        if fault is not None:
            raise ConfigError(f"config{fault[0]} must be {fault[1]}")
        for path, ids in (
            ("config.fleet", [s.specialist_id for s in self.fleet]),
            ("config.raters", [r.rater_id for r in self.raters]),
        ):
            if len(set(ids)) != len(ids):
                raise ConfigError(f"{path} must have unique ids, got {ids}")
        for i, (offset, length) in enumerate(self.shift.scheduled_breaks):
            if length < 1 or offset + length > self.shift.duration_min:
                raise ConfigError(f"config.shift.scheduled_breaks[{i}] must lie inside the shift")
        # A break draws its activity with these weights.
        if sum(self.behavior.break_activity_weights) == 0:
            raise ConfigError("config.behavior.break_activity_weights must have a positive sum")
        if abs(sum(self.model.component_weights) - 1.0) > 1e-9:
            raise ConfigError("config.model.component_weights must sum to 1")
        # An item scheduled by the end of a shift must fall due within the
        # drain that follows it.
        for name, seconds in (
            ("config.sa.issue_delay_s + config.sa.clear_timeout_s", self.sa.issue_delay_s + self.sa.clear_timeout_s),
            ("config.pfs.followup_due_min + 1 min", self.pfs.followup_due_min * 60 + 60),
        ):
            if seconds > SHIFT_DRAIN_S:
                raise ConfigError(f"{name} must be at most {SHIFT_DRAIN_S} s, got {seconds:g} s")
        # A case's validators are more than k raters who passed qualification.
        if self.toggles.vigilance:
            need = self.vigilance.k_validation_raters + 1
            if len(self.raters) < need:
                raise ConfigError(
                    "vigilance requires more config.raters than "
                    f"config.vigilance.k_validation_raters, got {len(self.raters)}"
                )
            passed = sum(ok for _, ok in qualification(self.seed, self.raters, self.vigilance))
            if passed < need:
                raise ConfigError(
                    "too few raters passed qualification for validation coverage: "
                    f"{passed} pass config.vigilance.qualification_items at "
                    f"config.vigilance.qualification_match_threshold (seed {self.seed}), "
                    f"and config.vigilance.k_validation_raters needs {need}"
                )

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **_encode(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build and validate a configuration from its plain document. At
        every level an unknown key, a non-integer ``int`` field or a
        boolean number is an error naming its dotted path
        (``config.fleet[0].dual``), and an omitted field takes its default."""
        try:
            if not isinstance(data, dict):
                raise ConfigError("config must be an object")
            body = dict(data)
            version = body.pop("schema_version", None)
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ConfigError(f"unsupported schema_version {version!r}")
            cfg = _decode(cls, body, "config")
            cfg.validate()
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed configuration: {exc}") from exc
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "ScenarioConfig":
        """Parse and validate a configuration document; bytes are read as
        UTF-8. A document that is not UTF-8 or not JSON raises
        ``ConfigParseError``."""
        try:
            if isinstance(text, bytes):
                text = text.decode("utf-8")
            data = json.loads(text)
        except UnicodeDecodeError as exc:
            raise ConfigParseError(
                f"configuration is not UTF-8: {exc.reason} at byte {exc.start}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ConfigParseError(
                f"configuration is not valid JSON: {exc.msg}"
            ) from exc
        return cls.from_dict(data)

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_overrides(
        self, seed: Optional[int] = None, toggles: Optional[Toggles] = None
    ) -> "ScenarioConfig":
        changes: dict[str, Any] = {}
        if seed is not None:
            changes["seed"] = seed
        if toggles is not None:
            changes["toggles"] = toggles
        cfg = replace(self, **changes)
        cfg.validate()
        return cfg


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """A dataclass's field types by name, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


@functools.cache
def _checker(tp: Any, key: str):
    """The check of a value of type ``tp`` at table key ``key``, or None
    if no number lies under such a value. The check returns the first
    number under the value that is not finite or lies outside its bound,
    as (its path below the value, what it must be), or None."""
    if tp is float or tp is int:
        bound = BOUNDS.get(key, Bound())

        def check_number(value):
            fault = bound.fault(value)
            return fault and ("", fault)

        return check_number
    if is_dataclass(tp):
        steps = [
            (name, check)
            for name, field_tp in _field_types(tp).items()
            if (check := _checker(field_tp, f"{key}.{name}" if key else name))
        ]

        def check_fields(value):
            for name, check in steps:
                found = check(getattr(value, name))
                if found:
                    return f".{name}{found[0]}", found[1]
            return None

        return check_fields
    if get_origin(tp) is tuple:
        item_tps = [item_tp for item_tp in get_args(tp) if item_tp is not Ellipsis]
        checks = [_checker(item_tp, f"{key}[]") for item_tp in item_tps]
        names = BOUNDS[key].names if key in BOUNDS else ()

        def check_items(value):
            if names and sorted(name for name, _ in value) != sorted(names):
                return "", f"a list naming each of {', '.join(names)} once, got {_encode(value)}"
            for i, item in enumerate(value):
                check = checks[i % len(checks)]
                found = check and check(item)
                if found:
                    return f"[{i}]{found[0]}", found[1]
            return None

        return check_items if names or any(checks) else None
    return None


def _encode(value: Any) -> Any:
    """The plain JSON form of a config value: a dataclass becomes a dict
    of its fields, a tuple a list, an enum its value."""
    if type(value) in _KINDS:
        return value
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value):
        return {name: _encode(getattr(value, name)) for name in _field_types(type(value))}
    return value


def _decode(tp: Any, value: Any, path: str) -> Any:
    """The value of type ``tp`` whose plain JSON form is ``value``; errors
    name ``path``. Numbers are kept as given, so an integer in a float
    field encodes back unchanged."""
    kind = _KINDS.get(tp)
    if kind is not None:
        valid = isinstance(value, (int, float) if tp is float else tp)
        if not valid or (isinstance(value, bool) and tp is not bool):
            raise ConfigError(f"{path} must be {kind}, got {value!r}")
        return value
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path} must be an object")
        types = _field_types(tp)
        for key in value:
            if key not in types:
                raise ConfigError(f"{path}.{key} is not a known field")
        kwargs = {key: _decode(types[key], item, f"{path}.{key}") for key, item in value.items()}
        try:
            return tp(**kwargs)
        except TypeError as exc:  # a missing required field
            raise ConfigError(f"{path}: {exc}") from exc
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path} must have {len(args)} items")
        return tuple(
            _decode(item_tp, item, f"{path}[{i}]")
            for i, (item_tp, item) in enumerate(zip(args, value))
        )
    if not (isinstance(tp, type) and issubclass(tp, Enum)):
        raise TypeError(f"{path} has unsupported type {tp!r}")
    try:
        return tp(value)
    except ValueError:
        choices = ", ".join(member.value for member in tp)
        raise ConfigError(f"{path} must be one of {choices}, got {value!r}") from None


def default_config(seed: int = 0, **overrides) -> ScenarioConfig:
    """A one-specialist night-shift scenario with every block enabled."""
    cfg = ScenarioConfig(seed=seed, raters=_default_raters(), **overrides)
    cfg.validate()
    return cfg
