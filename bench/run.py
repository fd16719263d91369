#!/usr/bin/env python3
"""frmsim benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout and imports frmsim from its ``src``
directory (standard library only, one process, no threads). ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` runs
one untraced ``simulate`` and then one traced round of every operation,
and reports per-layer metrics plus the tracing overhead. Every
operation's output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record (environment, samples, behaviour fingerprint) is written
to ``--results-dir``. See ``bench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Metric name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "simulate_cpu_s": "s",
    "sim_hours_per_s": "h/s",
    "report_s": "s",
    "log_mb": "MiB",
    "peak_rss_mb": "MiB",
    "ablate_s": "s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "calibrate_s": "s",
    "ablation_delta_sd": "1/h",
}

PER_LAYER = {
    "cli.busy_s": "s",
    "config.busy_s": "s",
    "config.with_overrides.calls": "count",
    "config.with_overrides.busy_s": "s",
    "config.config_hash.calls": "count",
    "config.config_hash.busy_s": "s",
    "config.validate.calls": "count",
    "sim.busy_s": "s",
    "sim.rng_draws": "count",
    "sim.us_per_event": "us",
    "sim.calibrate.busy_s": "s",
    "fatigue.busy_s": "s",
    "fatigue.advance.calls": "count",
    "fatigue.compose.calls": "count",
    "fatigue.state_builds": "count",
    "engagement.busy_s": "s",
    "engagement.ict_tick.calls": "count",
    "engagement.ict_tick.busy_s": "s",
    "engagement.tick_yield": "ratio",
    "vigilance.busy_s": "s",
    "vigilance.irr.calls": "count",
    "vigilance.irr.busy_s": "s",
    "vigilance.irr.ratings_folded": "count",
    "vigilance.irr.errors": "count",
    "vigilance.reliability_per_ts": "ratio",
    "vigilance.rate.calls": "count",
    "vigilance.dms_observe.calls": "count",
    "vigilance.kappa.calls": "count",
    "awareness.busy_s": "s",
    "awareness.submit_pfs.calls": "count",
    "awareness.submit_pfs.busy_s": "s",
    "scheduling.busy_s": "s",
    "scheduling.evaluate_break_triggers.calls": "count",
    "scheduling.evaluate_break_triggers.busy_s": "s",
    "scheduling.lifecycle_step.calls": "count",
    "events.busy_s": "s",
    "events.append.calls": "count",
    "events.encode_s": "s",
    "events.digest_s": "s",
    "events.decode_s": "s",
    "events.bytes": "bytes",
    "events.encodes_per_simulate": "count",
    "metrics.busy_s": "s",
    "metrics.compute.calls": "count",
    "metrics.compute.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.valid": "bool",
    "trace.wrapper_us": "us",
}

# Set-up probes before the first round; one more follows every round.
SETUP_REPS = 3

# Runs in a fresh interpreter: what a user pays before the first
# simulated second (import plus config load and validation).
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import frmsim.cli
from frmsim.config import ScenarioConfig
with open(sys.argv[2]) as f:
    cfg = ScenarioConfig.from_json(f.read())
cfg.validate()
print(time.perf_counter() - t0)
"""


class BenchSetupError(Exception):
    pass


def import_frmsim():
    """Import frmsim from this checkout's ``src`` and nowhere else."""
    init = SRC / "frmsim" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"no frmsim sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import frmsim
    import frmsim.cli  # noqa: F401  (imports every layer module)

    if Path(frmsim.__file__).resolve().parent != init.parent.resolve():
        raise BenchSetupError(f"imported frmsim from {frmsim.__file__}, not {SRC}")
    return frmsim


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class RunTimer:
    """Times every ``run_scenario`` call that ``run_ablation`` makes and
    checks each returned log. Check time is kept apart so it can be
    taken out of the operation's wall time."""

    def __init__(self, sim_module):
        self.sim = sim_module
        self.run_s: list[float] = []
        self.check_s = 0.0
        self.problems: list[str] = []

    def __enter__(self):
        self.original = original = self.sim.run_scenario

        def timed(cfg):
            start = time.perf_counter()
            result = original(cfg)
            end = time.perf_counter()
            self.run_s.append(end - start)
            summary = checks.summarize(
                checks.log_records(result[0]), checks.disabled_blocks(cfg.toggles)
            )
            self.problems.extend(f"ablation seed {cfg.seed}: {p}" for p in summary.problems)
            self.check_s += time.perf_counter() - end
            return result

        self.sim.run_scenario = timed
        return self

    def __exit__(self, *exc):
        self.sim.run_scenario = self.original
        return False


class Bench:
    def __init__(self, frmsim, workload, seed: int, work_dir: Path):
        self.frmsim = frmsim
        self.wl = workload
        self.seed = seed
        self.work = work_dir
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint: dict = {}
        self.deltas: list[float] = []
        self.run_ms: list[float] = []
        self.sim_summary = None
        self.sim_digest = None
        self.log_bytes = 0
        self.ablate_index = 0

        scenario = workload.scenario(seed)
        self.scenario_path = work_dir / "scenario.json"
        self.scenario_path.write_text(scenario.to_json())
        self.scenario = scenario
        base = frmsim.default_config(seed=seed)
        self.default_path = work_dir / "default.json"
        self.default_path.write_text(base.to_json())
        self.fingerprint["config_hash"] = scenario.config_hash()
        self.fingerprint["ablation_config_hash"] = base.config_hash()

    # -- plumbing ----------------------------------------------------------

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.frmsim.cli.main([str(a) for a in argv])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        if code != 0:
            self.problems.append(f"frmsim {argv[0]} exited {code}: {err.getvalue().strip()[:300]}")
        return code, out.getvalue()

    def _op(self, fn, *args) -> bool:
        """Run one operation; any exception or failed check counts as a
        failed operation."""
        self.attempted += 1
        before = len(self.problems)
        try:
            fn(*args)
        except Exception:
            self.problems.append(f"{fn.__name__}: " + traceback.format_exc(limit=3))
        if len(self.problems) > before:
            self.failed += 1
            return False
        return True

    # -- operations --------------------------------------------------------

    def setup(self) -> None:
        probe = [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(self.scenario_path)]
        result = subprocess.run(probe, capture_output=True, text=True, timeout=60)
        if result.returncode != 0:
            self.problems.append(f"setup probe failed: {result.stderr.strip()[-300:]}")
            return
        self._sample("setup_s", float(result.stdout.strip()))

    def simulate(self) -> None:
        out = self.work / "sim"
        cpu0 = time.process_time()
        start = time.perf_counter()
        code, stdout = self._cli(["simulate", "--config", self.scenario_path, "--out", out])
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        if code != 0:
            return
        events_path = out / "events.jsonl"
        printed = [line.split(": ", 1)[1] for line in stdout.splitlines()
                   if line.startswith("log digest: ")]
        manifest = json.loads((out / "manifest.json").read_text())
        digest = sha256_file(events_path)
        if printed != [digest] or manifest.get("log_digest") != digest:
            self.problems.append("simulate: printed, manifest and file digests disagree")
        if self.sim_summary is None:
            summary = checks.summarize(
                checks.jsonl_records(events_path),
                checks.disabled_blocks(self.scenario.toggles),
            )
            self.problems.extend(f"simulate: {p}" for p in summary.problems)
            if summary.events != manifest.get("events"):
                self.problems.append("simulate: manifest event count differs from the log")
            self.sim_summary = summary
            self.sim_digest = digest
            self.fingerprint.update({
                "log_digest": digest,
                "events": summary.events,
                "events_by_type": dict(sorted(summary.type_counts.items())),
                "on_shift_hours": summary.on_shift_hours,
            })
        elif digest != self.sim_digest:
            self.problems.append("simulate: log digest changed between repetitions")
        self.log_bytes = events_path.stat().st_size
        self._sample("simulate_s", elapsed)
        self._sample("simulate_cpu_s", cpu)
        self._sample("sim_hours_per_s", self.sim_summary.on_shift_hours / elapsed)

    def report(self) -> None:
        out = self.work / "sim"
        start = time.perf_counter()
        code, stdout = self._cli([
            "report", "--log", out / "events.jsonl", "--metrics", out / "metrics.csv",
        ])
        elapsed = time.perf_counter() - start
        if code != 0:
            return
        if "metrics match the stored file" not in stdout:
            self.problems.append("report: metrics cross-check line missing")
            return
        self._sample("report_s", elapsed)

    def ablate(self) -> None:
        wl = self.wl
        base_seed = wl.ablation_base_seed(self.seed, self.ablate_index)
        self.ablate_index += 1
        out = self.work / "ablate"
        argv = ["ablate", "--config", self.default_path, "--out", out,
                "--seeds", wl.ablation_seeds, "--base-seed", base_seed]
        for spec in wl.ablation_sets:
            argv += ["--set", spec]
        with RunTimer(self.frmsim.sim) as timer:
            start = time.perf_counter()
            code, _ = self._cli(argv)
            elapsed = time.perf_counter() - start
        self.problems.extend(timer.problems)
        if code != 0:
            return
        expected_runs = wl.ablation_seeds * len(wl.ablation_sets)
        if len(timer.run_s) != expected_runs:
            self.problems.append(f"ablate: {len(timer.run_s)} runs, expected {expected_runs}")
            return
        with open(out / "ablation.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        metric_names = {r["metric"] for r in rows}
        if (len(rows) != (len(wl.ablation_sets) - 1) * wl.ablation_seeds * len(metric_names)
                or "incautious_rate_per_h" not in metric_names):
            self.problems.append(f"ablate: unexpected ablation.csv shape ({len(rows)} rows)")
            return
        on_name = wl.ablation_sets[-1].split(":", 1)[0]
        deltas = [float(r["delta"]) for r in rows
                  if r["metric"] == "incautious_rate_per_h" and r["toggle_set"] == on_name]
        self.deltas.extend(deltas)
        self.fingerprint.setdefault("ablation_csv_sha256", sha256_file(out / "ablation.csv"))
        self.run_ms.extend(s * 1000.0 for s in timer.run_s)
        self._sample("ablate_s", elapsed - timer.check_s)

    def calibrate(self) -> None:
        out = self.work / "calibrate"
        start = time.perf_counter()
        code, _ = self._cli(["calibrate", "--config", self.default_path, "--out", out])
        elapsed = time.perf_counter() - start
        if code != 0:
            return
        payload = json.loads((out / "calibration.json").read_text())
        if payload.get("converged") is not True:
            self.problems.append("calibrate: did not converge")
            return
        self.fingerprint.setdefault("calibration", {
            "hazard": payload["hazard"], "ratio": payload["ratio"],
            "iterations": payload["iterations"],
        })
        self._sample("calibrate_s", elapsed)

    def round(self) -> None:
        # The short operations (calibrate, report, set-up, and simulate
        # on ablation_sweep) are spread over the round, on both sides of
        # the long ablate, rather than run back to back, so their samples
        # cover the whole run: the hosts this was tuned on change speed
        # for seconds at a time, and a median of samples taken in one
        # burst measures the host's state at that moment.
        reps = self.wl.simulate_reps
        self._simulate_block(reps - reps // 2)
        self._op(self.calibrate)
        self._op(self.ablate)
        self._op(self.calibrate)
        self._simulate_block(reps // 2)
        self._op(self.setup)

    def _simulate_block(self, reps: int) -> None:
        for _ in range(reps):
            if self._op(self.simulate):
                for _ in range(2):
                    self._op(self.calibrate)
                    self._op(self.report)

    # -- runs ----------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """Untraced run: set-up probes, then closed-loop rounds until the
        next round would end more than half a round past ``seconds``."""
        for _ in range(SETUP_REPS):
            self._op(self.setup)
        start = time.perf_counter()
        rounds = 0
        while True:
            self.round()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / rounds > seconds:
                break
        self.fingerprint["rounds"] = rounds
        return self.end_to_end()

    def end_to_end(self) -> dict:
        s = self.samples
        values = {}
        for name in ("setup_s", "simulate_s", "simulate_cpu_s", "sim_hours_per_s",
                     "report_s", "ablate_s", "calibrate_s"):
            if s.get(name):
                values[name] = (statistics.median(s[name]), len(s[name]))
        if self.sim_summary is not None:
            values["log_mb"] = (self.log_bytes / 2**20, 1)
        if self.run_ms:
            values["run_ms_p50"] = (statistics.median(self.run_ms), len(self.run_ms))
            values["run_ms_p90"] = (quantile(self.run_ms, 90), len(self.run_ms))
        if len(self.deltas) >= 2:
            values["ablation_delta_sd"] = (statistics.stdev(self.deltas), len(self.deltas))
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        return values

    def trace(self, spans_path: Path) -> dict:
        """One untraced simulate as the reference, then one traced round.
        The round's length is fixed, so every count is per round."""
        wrapper_us = tracing.wrapper_cost_us()
        self._op(self.simulate)
        untraced_s = self.samples.get("simulate_s", [0.0])[-1]
        reference = self.sim_digest
        self.sim_summary = None
        tracer = tracing.Tracer()
        tracer.install()
        try:
            simulated = self._op(self.simulate)
            at_simulate = tracer.snapshot()
            draws_at_simulate = tracer.rng_draws
            if simulated:
                self._op(self.report)
            self._op(self.ablate)
            self._op(self.calibrate)
        finally:
            tracer.uninstall()
        traced_s = self.samples.get("simulate_s", [0.0])[-1]
        valid = simulated and self.sim_digest == reference
        if not valid:
            self.problems.append("trace: traced simulate log digest differs from the untraced one")
            self.failed += 1
        self.fingerprint["trace_valid"] = valid
        self.fingerprint["trace_missing_functions"] = tracer.missing
        self.fingerprint["spans_kept"] = tracer.write_spans(spans_path)
        return self.per_layer(tracer, at_simulate, draws_at_simulate,
                              traced_s - untraced_s, valid, wrapper_us)

    def per_layer(self, tracer, at_simulate, draws_at_simulate, overhead_s,
                  valid, wrapper_us) -> dict:
        agg = tracer.snapshot()

        def calls(name, snap=agg):
            return snap.get(name, (0, 0.0, 0.0))[0]

        def total(name, snap=agg):
            return snap.get(name, (0, 0.0, 0.0))[1]

        def self_time(name, snap=agg):
            return snap.get(name, (0, 0.0, 0.0))[2]

        layer_self = {}
        for name, (_, _, own) in agg.items():
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        summary = self.sim_summary
        sim_events = summary.events if summary else 0
        prompts = summary.type_counts.get("ict_prompt", 0) if summary else 0
        ticks = calls("engagement.ict_tick", at_simulate)
        rel = summary.reliability_times if summary else []
        v = {
            "cli.busy_s": layer_self.get("cli", 0.0),
            "config.with_overrides.calls": calls("config.with_overrides"),
            "config.with_overrides.busy_s": total("config.with_overrides"),
            "config.config_hash.calls": calls("config.config_hash"),
            "config.config_hash.busy_s": total("config.config_hash"),
            "config.validate.calls": calls("config.validate"),
            "sim.busy_s": self_time("sim.run_scenario"),
            "sim.rng_draws": draws_at_simulate,
            "sim.us_per_event": (self_time("sim.run_scenario", at_simulate) / sim_events * 1e6
                                 if sim_events else 0.0),
            "sim.calibrate.busy_s": total("sim.calibrate"),
            "fatigue.advance.calls": calls("fatigue.advance"),
            "fatigue.compose.calls": calls("fatigue.compose"),
            "fatigue.state_builds": calls("fatigue.state_build"),
            "engagement.ict_tick.calls": calls("engagement.ict_tick"),
            "engagement.ict_tick.busy_s": total("engagement.ict_tick"),
            "engagement.tick_yield": prompts / ticks if ticks else 0.0,
            "vigilance.irr.calls": calls("vigilance.irr"),
            "vigilance.irr.busy_s": total("vigilance.irr"),
            "vigilance.irr.ratings_folded": tracer.arg_sums.get("vigilance.irr", 0),
            "vigilance.irr.errors": (tracer.error_count("vigilance.irr", "NoSharedTasksError")
                                     if "vigilance.irr" in agg else 0),
            "vigilance.reliability_per_ts": len(rel) / len(set(rel)) if rel else 0.0,
            "vigilance.rate.calls": calls("vigilance.rate"),
            "vigilance.dms_observe.calls": calls("vigilance.dms_observe"),
            "vigilance.kappa.calls": calls("vigilance.kappa"),
            "awareness.submit_pfs.calls": calls("awareness.submit_pfs"),
            "awareness.submit_pfs.busy_s": total("awareness.submit_pfs"),
            "scheduling.evaluate_break_triggers.calls": calls("scheduling.evaluate_break_triggers"),
            "scheduling.evaluate_break_triggers.busy_s": total("scheduling.evaluate_break_triggers"),
            "scheduling.lifecycle_step.calls": calls("scheduling.lifecycle_step"),
            "events.append.calls": calls("events.append"),
            "events.encode_s": total("events.to_jsonl"),
            "events.digest_s": self_time("events.digest"),
            "events.decode_s": total("events.from_jsonl"),
            "events.bytes": self.log_bytes,
            "events.encodes_per_simulate": calls("events.to_jsonl", at_simulate),
            "metrics.compute.calls": calls("metrics.compute"),
            "metrics.compute.busy_s": total("metrics.compute"),
            "trace.overhead_s": overhead_s,
            "trace.valid": 1 if valid else 0,
            "trace.wrapper_us": wrapper_us,
        }
        for layer in ("config", "fatigue", "engagement", "vigilance", "awareness",
                      "scheduling", "events", "metrics"):
            v[f"{layer}.busy_s"] = layer_self.get(layer, 0.0)
        return {name: (value, 1) for name, value in v.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results-dir", default=str(ROOT / ".bench_out"),
                        help="where the full result record is written")
    parser.add_argument("--tiny", action="store_true",
                        help="toy-scale workload, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        frmsim = import_frmsim()
    except (BenchSetupError, ImportError) as exc:
        print(f"bench: cannot import frmsim: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()

    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}" + ("-trace" if args.trace else "")
    work = ROOT / ".bench_out" / f"work-{stem}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(frmsim, workload, args.seed, work)
        if args.trace:
            values = bench.trace(results_dir / f"{stem}.spans.jsonl")
            units = PER_LAYER
        else:
            values = bench.measure(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in units if name not in values]
    for name in missing:
        bench.problems.append(f"metric {name} has no samples")
    correct = not bench.problems
    metrics = {name: {"value": values.get(name, (0.0, 0))[0], "unit": unit}
               for name, unit in units.items()}
    share = bench.failed / bench.attempted if bench.attempted else 1.0

    record = {
        "benchmark": "frmsim",
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "workload_definition": {
            "fleet_size": workload.fleet_size or 1,
            "horizon_days": workload.horizon_days,
            "toggles": dataclasses.asdict(workload.toggles),
            "ablation_sets": list(workload.ablation_sets),
            "ablation_seeds": workload.ablation_seeds,
            "simulate_reps": workload.simulate_reps,
        },
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "ops_failed_share": share,
        "problems": bench.problems,
        "metrics": {name: {"value": values.get(name, (0.0, 0))[0], "unit": unit,
                           "samples": values.get(name, (0.0, 0))[1]}
                    for name, unit in units.items()},
        "fingerprint": bench.fingerprint,
        "samples": bench.samples,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    for problem in bench.problems:
        print(f"PROBLEM {problem}")
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={bench.attempted} failed={bench.failed} ops_failed_share={share:.4f}")
    for name, unit in units.items():
        value, count = values.get(name, (0.0, 0))
        print(f"  {name:44s} {value:>16.6f} {unit:6s} n={count}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
