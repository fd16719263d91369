#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy scale.

    python3 bench/smoke.py

Runs every workload of ``BENCHMARK.json`` with ``--tiny`` in both modes
and checks the result line: exactly the contract's keys, a correct run,
and every metric ``BENCHMARK.json`` names present with its unit (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check_run(workload: str, trace: int, expected: list[dict], results_dir: str) -> list[str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
           "--results-dir", results_dir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"run not correct: {proc.stdout[-800:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number of at least 1")
    metrics = result.get("metrics", {})
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        errors.append(f"metric names differ: missing {sorted(names - set(metrics))}, "
                      f"extra {sorted(set(metrics) - names)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(got.get("value"), (int, float)) or isinstance(got.get("value"), bool):
            errors.append(f"{m['name']}: value {got.get('value')!r} is not a number")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                errors = check_run(workload, trace, spec[key], tmp)
                status = "PASS" if not errors else "FAIL"
                print(f"{status} {workload} --trace {trace}")
                for error in errors:
                    print(f"    {error}")
                failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
