"""Scenario configuration: fleet, policies, countermeasure toggles, and
deterministic hashing. Configurations round-trip through a versioned
JSON document; the hash of the canonical form stamps every output."""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Any, Optional, get_args, get_origin, get_type_hints

from .engagement import ICT_OUTCOME_HISTORY, EngagementConfig, SaConfig
from .fatigue import ModelParams
from .scheduling import BreakPolicy, Stage
from .vigilance import DmsConfig, RaterProfile

__all__ = [
    "SHIFT_DRAIN_S",
    "BehaviorConfig",
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

    def __post_init__(self) -> None:
        if self.susceptibility <= 0:
            raise ConfigError("susceptibility must be positive")
        if not 0.0 <= self.initial_sleep_pressure <= 1.0:
            raise ConfigError("initial_sleep_pressure must be in [0, 1]")


@dataclass(frozen=True)
class ShiftConfig:
    start_min: int = 1320  # 22:00, where monotony and the circadian dip overlap
    duration_min: int = 480
    scheduled_breaks: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # The simulator visits minute ticks relative to the shift start and
        # relies on the start, end and scheduled breaks falling on them.
        minutes = [self.start_min, self.duration_min]
        for offset, length in self.scheduled_breaks:
            minutes += [offset, length]
        if any(value != int(value) for value in minutes):
            raise ConfigError("shift times must be whole minutes")
        if not 0 <= self.start_min < 1440:
            raise ConfigError("start_min must be within one day")
        if not 0 < self.duration_min <= 840:
            raise ConfigError("duration_min must be in (0, 14 h]")
        for offset, length in self.scheduled_breaks:
            if offset < 0 or length <= 0 or offset + length > self.duration_min:
                raise ConfigError("scheduled break outside the shift")


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

    def __post_init__(self) -> None:
        if self.k_validation_raters < 2:
            raise ConfigError("k_validation_raters must be at least 2")
        if not 1 <= self.route_two_threshold <= 5:
            raise ConfigError("route_two_threshold must be in 1..5")
        if self.rating_latency_s <= 0:
            raise ConfigError("rating_latency_s must be positive")


@dataclass(frozen=True)
class PfsPolicy:
    cadence_min: float = 120.0
    followup_due_min: float = 5.0
    break_compliance: float = 0.9
    followup_compliance: float = 0.9
    outreach_reassign_kss: int = 8

    def __post_init__(self) -> None:
        if self.cadence_min <= 0:
            raise ConfigError("cadence_min must be positive")
        for name in ("break_compliance", "followup_compliance"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")


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

    def __post_init__(self) -> None:
        if not 0.0 <= self.monotony <= 1.0:
            raise ConfigError("monotony must be in [0, 1]")
        for name in (
            "ict_miss_base_p",
            "ict_relief",
            "alert_relief",
            "impromptu_p",
            "invited_decline_p",
            "emergency_p",
            "sa_clear_base_p",
            "peer_concern_p_per_h",
            "education_recovery_bonus",
        ):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.speed_mps < 0:
            raise ConfigError("speed_mps must be nonnegative")


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

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"{f.name} must be nonnegative")


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
        if self.horizon_days < 0:
            raise ConfigError("config.horizon_days must be nonnegative")
        if self.sample_period_s < 0:
            raise ConfigError("config.sample_period_s must be nonnegative")
        ids = [s.specialist_id for s in self.fleet]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate specialist ids")
        rater_ids = [r.rater_id for r in self.raters]
        if len(set(rater_ids)) != len(rater_ids):
            raise ConfigError("duplicate rater ids")
        path = _non_finite_path(self.to_dict())
        if path is not None:
            raise ConfigError(f"{path} must be finite")
        if self.vigilance.qualification_items < 1:
            raise ConfigError("config.vigilance.qualification_items must be at least 1")
        if not 0.0 <= self.vigilance.qualification_match_threshold <= 1.0:
            raise ConfigError(
                "config.vigilance.qualification_match_threshold must be in [0, 1]"
            )
        # The ICT scheduler keeps only the last ICT_OUTCOME_HISTORY outcomes.
        if not 1 <= self.ict.adapt_window <= ICT_OUTCOME_HISTORY:
            raise ConfigError(
                f"config.ict.adapt_window must be in 1..{ICT_OUTCOME_HISTORY}"
            )
        # A break draws its activity with these weights.
        weights = self.behavior.break_activity_weights
        if min(weights) < 0 or sum(weights) == 0:
            raise ConfigError(
                "config.behavior.break_activity_weights must be nonnegative with a positive "
                f"sum, got {list(weights)}"
            )
        if self.toggles.vigilance and len(self.raters) <= self.vigilance.k_validation_raters:
            raise ConfigError(
                "vigilance requires more raters than k_validation_raters"
            )
        # The simulator truncates these to whole seconds. The cadences are
        # moduli of the time into the shift; the delays are offsets from a
        # time slot already processed, so a zero offset would be lost.
        for name, seconds in (
            ("config.dms.observation_period", self.dms.observation_period),
            ("config.vigilance.periodic_cadence_min", self.vigilance.periodic_cadence_min * 60),
            ("config.vigilance.reliability_interval_min", self.vigilance.reliability_interval_min * 60),
            ("config.pfs.cadence_min", self.pfs.cadence_min * 60),
            ("config.behavior.impromptu_check_min", self.behavior.impromptu_check_min * 60),
            ("config.behavior.demand_period_min", self.behavior.demand_period_min * 60),
            ("config.sa.issue_delay_s", self.sa.issue_delay_s),
            ("config.sa.clear_timeout_s", self.sa.clear_timeout_s),
            ("config.breaks.duration_min", self.breaks.duration_min * 60),
            ("config.vigilance.post_confirm_break_min", self.vigilance.post_confirm_break_min * 60),
            ("config.pfs.followup_due_min", self.pfs.followup_due_min * 60),
        ):
            if not (math.isfinite(seconds) and seconds >= 1):
                raise ConfigError(
                    f"{name} must be a finite time of at least 1 s, got {seconds:g} s"
                )
        # An item scheduled by the end of a shift must fall due within the
        # drain that follows it.
        for name, seconds in (
            ("config.sa.issue_delay_s + config.sa.clear_timeout_s", self.sa.issue_delay_s + self.sa.clear_timeout_s),
            ("config.vigilance.rating_latency_s", self.vigilance.rating_latency_s),
            ("config.breaks.duration_min", self.breaks.duration_min * 60),
            ("config.vigilance.post_confirm_break_min", self.vigilance.post_confirm_break_min * 60),
            ("config.pfs.followup_due_min + 1 min", self.pfs.followup_due_min * 60 + 60),
        ):
            if seconds > SHIFT_DRAIN_S:
                raise ConfigError(
                    f"{name} must be at most {SHIFT_DRAIN_S} s, got {seconds:g} s"
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


def _non_finite_path(node: Any, path: str = "config") -> Optional[str]:
    """Path of the first number in a plain document that is not finite,
    named as the codec names paths (``config.raters[1].bias``), or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else path
    if isinstance(node, dict):
        items = ((f"{path}.{key}", value) for key, value in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        return None
    for item_path, value in items:
        found = _non_finite_path(value, item_path)
        if found is not None:
            return found
    return None


@functools.cache
def _field_types(cls: type) -> dict[str, Any]:
    """A dataclass's field types by name, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


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
        except (TypeError, ValueError) as exc:  # a missing field, or a check
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
