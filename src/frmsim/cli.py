"""Command-line entry point.

Exit codes: 0 success, 1 validation or domain failure, 2 I/O or parse
failure. All commands are deterministic given their inputs; run
manifests record the invocation time in a field excluded from digests.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .awareness import PfsRecord, pfs_trend, trend_to_csv
from .config import (
    ConfigError,
    ConfigParseError,
    ScenarioConfig,
    Toggles,
    default_config,
)
from .events import SCHEMA_VERSION, EventLog, LogParseError
from .metrics import compute_metrics, metrics_to_csv
from .scheduling import (
    RotationConstraints,
    RotationDirection,
    plan_rotation,
    rotation_to_records,
    validate_rotation,
)
from .sim import calibrate_session_length_effect, run_ablation, run_scenario

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

_PACKAGE_VERSION = "0.1.0"


def _load_config(path: str) -> ScenarioConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliIoError(f"cannot read config {path}: {exc}") from exc
    return ScenarioConfig.from_json(text)


class _CliIoError(Exception):
    pass


def _parse_hhmm(value: str) -> int:
    parts = value.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected HH:MM, got {value!r}")
    hours, minutes = int(parts[0]), int(parts[1])
    if not (0 <= hours < 24 and 0 <= minutes < 60):
        raise ValueError(f"time out of range: {value!r}")
    return hours * 60 + minutes


def _fmt_hhmm(minutes: int) -> str:
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def _parse_toggle_spec(spec: str) -> Toggles:
    """``all``, ``none``, or a comma list of blocks to enable."""
    if spec == "all":
        return Toggles.all_on()
    if spec == "none":
        return Toggles.all_off()
    blocks = {name.strip() for name in spec.split(",") if name.strip()}
    valid = {"education", "awareness", "vigilance", "engagement", "scheduling"}
    unknown = blocks - valid
    if unknown:
        raise ValueError(f"unknown toggle blocks: {sorted(unknown)}")
    return Toggles(**{name: name in blocks for name in valid})


def _write_manifest(out_dir: Path, cfg: ScenarioConfig, extra: dict) -> None:
    manifest = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "package_version": _PACKAGE_VERSION,
        # Excluded from all digests; recorded for provenance only.
        "invoked_at_unix": int(time.time()),
    }
    manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = cfg.with_overrides(seed=args.seed)
    if args.toggles is not None:
        cfg = cfg.with_overrides(toggles=_parse_toggle_spec(args.toggles))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats: dict = {}
    started = time.perf_counter()
    log, metrics = run_scenario(cfg, stats=stats)
    ran = time.perf_counter()
    # Encode once, line by line: the file, the manifest and the printed
    # line share the bytes' digest (the same value as ``log.digest()``).
    events_path = out_dir / "events.jsonl"
    try:
        with events_path.open("wb") as stream:
            written = log.write_jsonl(stream)
    except OSError as exc:
        raise _CliIoError(f"cannot write log {events_path}: {exc}") from exc
    wrote = time.perf_counter()
    (out_dir / "metrics.csv").write_text(
        metrics_to_csv(metrics, cfg.config_hash(), cfg.seed)
    )
    _write_manifest(
        out_dir,
        cfg,
        {
            "schema_version": SCHEMA_VERSION,
            "events": written.records,
            "log_bytes": written.size,
            "log_digest": written.digest,
            "stats": stats,
            # Wall times vary from run to run; no digest covers them.
            "wall_s": {"run": ran - started, "write_log": wrote - ran},
        },
    )
    print(f"wrote {events_path} ({written.records} events)")
    print(f"log digest: {written.digest}")
    return EXIT_OK


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    toggle_sets = []
    for spec in args.set:
        if ":" not in spec:
            raise ConfigError(f"--set must be NAME:SPEC, got {spec!r}")
        name, raw = spec.split(":", 1)
        toggle_sets.append((name, _parse_toggle_spec(raw)))
    result = run_ablation(
        cfg, toggle_sets, n_seeds=args.seeds, base_seed=args.base_seed
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablation.csv").write_text(result.to_csv())
    _write_manifest(out_dir, cfg, {"toggle_sets": [n for n, _ in toggle_sets]})
    print(f"wrote {out_dir / 'ablation.csv'}")
    summary: dict[tuple[str, str], list[float]] = {}
    for row in result.deltas():
        summary.setdefault((row["toggle_set"], row["metric"]), []).append(row["delta"])
    for (name, metric), deltas in sorted(summary.items()):
        mean = sum(deltas) / len(deltas)
        print(f"{name} vs {result.toggle_set_names[0]}: mean delta {metric} = {mean:+.4f}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    if cfg.toggles.any_on():
        cfg = cfg.with_overrides(toggles=Toggles.all_off())
    result = calibrate_session_length_effect(
        cfg,
        target_ratio_range=(args.ratio_min, args.ratio_max),
        sessions_per_bucket=args.sessions,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "hazard": {
            "base_per_min": result.hazard.base_per_min,
            "task_load_gain": result.hazard.task_load_gain,
            "alertness_gain": result.hazard.alertness_gain,
        },
        "exact_short": result.exact_short,
        "exact_long": result.exact_long,
        "mc_short": result.mc_short,
        "mc_long": result.mc_long,
        "ratio": result.ratio,
        "converged": result.converged,
        "iterations": result.iterations,
        "sessions_per_bucket": result.sessions_per_bucket,
    }
    (out_dir / "calibration.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if not result.converged:
        print("calibration did not converge", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _cmd_plan_rotation(args: argparse.Namespace) -> int:
    current = _parse_hhmm(args.current)
    target = _parse_hhmm(args.target)
    constraints = RotationConstraints(
        max_forward_step_per_day=args.max_step,
        min_extended_rest_min=args.min_rest,
        min_inter_shift_rest_min=args.min_daily_rest,
    )
    plan = plan_rotation(
        current, target, constraints, extended_rest_min=args.rest
    )
    print(f"{'day':>4}  {'start':>6}  {'end':>6}  transition")
    for i, shift in enumerate(plan.shifts):
        if i == 0:
            note = "-"
        else:
            tr = plan.transitions[i - 1]
            note = f"{tr.direction.value} {tr.step_min:+d} min"
            if tr.direction is RotationDirection.BACKWARD:
                note += f", extended rest {tr.extended_rest_min} min"
        print(
            f"{shift.day_index:>4}  {_fmt_hhmm(shift.start_min):>6}  "
            f"{_fmt_hhmm(shift.end_min):>6}  {note}"
        )
    if args.export is not None:
        Path(args.export).write_text(
            json.dumps(rotation_to_records(plan), indent=2) + "\n"
        )
    violations = validate_rotation(plan, constraints)
    if violations:
        for v in violations:
            print(f"violation[{v.transition_index}] {v.kind}: {v.detail}")
        return EXIT_DOMAIN
    print("plan valid")
    return EXIT_OK


def _cmd_validate_config(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    cfg.validate()
    print(f"config ok (hash {cfg.config_hash()[:12]})")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.log, "rb") as lines:
            log = EventLog.from_jsonl(lines)
    except OSError as exc:
        raise _CliIoError(f"cannot read log {args.log}: {exc}") from exc
    metrics = compute_metrics(log)
    csv_text = metrics_to_csv(metrics, log.config_hash, log.seed)
    print("== metrics ==")
    print(csv_text, end="")
    if args.metrics is not None:
        try:
            stored = Path(args.metrics).read_text()
        except OSError as exc:
            raise _CliIoError(f"cannot read metrics {args.metrics}: {exc}") from exc
        if stored != csv_text:
            print("recomputed metrics do not match the stored metrics file")
            return EXIT_DOMAIN
        print("metrics match the stored file")

    pfs_records = [
        PfsRecord(
            record_id=e.data["record_id"],
            specialist_id=e.specialist or "",
            timestamp=e.time,
            kss=e.data["kss"],
            is_followup=e.data["is_followup"],
            triggered_by=e.data.get("triggered_by"),
        )
        for e in log
        if e.type == "pfs"
    ]
    horizon = log.last_time
    print("== self-report trend ==")
    print(trend_to_csv(pfs_trend(pfs_records, (0, horizon))), end="")

    print("== escalations ==")
    outcomes: dict[tuple[str, str], int] = {}
    for e in log:
        if e.type == "escalation_resolved":
            key = (e.data["route"], e.data["resolution"])
            outcomes[key] = outcomes.get(key, 0) + 1
    print("route,resolution,count")
    for (route, resolution), count in sorted(outcomes.items()):
        print(f"{route},{resolution},{count}")

    if args.ablation is not None:
        try:
            print("== ablation deltas ==")
            print(Path(args.ablation).read_text(), end="")
        except OSError as exc:
            raise _CliIoError(f"cannot read ablation {args.ablation}: {exc}") from exc
    return EXIT_OK


def _cmd_init_config(args: argparse.Namespace) -> int:
    cfg = default_config(seed=args.seed)
    Path(args.out).write_text(cfg.to_json())
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frmsim",
        description=(
            "Deterministic fatigue-risk-management engine and fleet-shift "
            "simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write its outputs")
    p.add_argument("--config", required=True, help="scenario configuration JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument(
        "--toggles",
        default=None,
        help="override countermeasure toggles: all, none, or comma list",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ablate", help="run paired-seed toggle-set comparisons")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--set",
        action="append",
        required=True,
        help="NAME:SPEC where SPEC is all, none, or a comma list of blocks",
    )
    p.add_argument("--seeds", type=int, default=20, help="number of paired seeds")
    p.add_argument("--base-seed", type=int, default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("calibrate", help="fit the session-length hazard")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ratio-min", type=float, default=5.0)
    p.add_argument("--ratio-max", type=float, default=7.0)
    p.add_argument("--sessions", type=int, default=5000)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("plan-rotation", help="plan and validate a shift rotation")
    p.add_argument("--current", required=True, help="current start time HH:MM")
    p.add_argument("--target", required=True, help="target start time HH:MM")
    p.add_argument("--max-step", type=int, default=120, help="max forward step per day")
    p.add_argument(
        "--rest",
        type=int,
        default=0,
        help="extended rest (minutes) to schedule on a backward move",
    )
    p.add_argument(
        "--min-rest",
        type=int,
        default=2880,
        help="minimum extended rest the validator requires for backward moves",
    )
    p.add_argument("--min-daily-rest", type=int, default=600)
    p.add_argument("--export", default=None, help="write the plan as JSON records")
    p.set_defaults(func=_cmd_plan_rotation)

    p = sub.add_parser("validate-config", help="parse and validate a configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_validate_config)

    p = sub.add_parser("report", help="summarize a persisted event log")
    p.add_argument("--log", required=True, help="events.jsonl path")
    p.add_argument(
        "--metrics", default=None, help="metrics.csv to cross-check exactly"
    )
    p.add_argument("--ablation", default=None, help="ablation.csv to include")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("init-config", help="write a default scenario configuration")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_init_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliIoError, ConfigParseError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except LogParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
