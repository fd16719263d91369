#!/usr/bin/env python3
"""The benchmark's own output checks, over seeds 0-9.

    python3 tests/bench_seeds.py

Runs ``bench/run.py --workload W --seed S --seconds 1 --trace 0 --tiny``
for every workload of ``BENCHMARK.json`` and every seed 0-9, and exits 1
unless every run exits 0 and its result line reads ``"correct": true``
and ``"failed": 0``. ``bench/run.py`` itself exits 0 when its checks
fail, and each seed draws other scenario seeds, so a defect that shows
on some seeds only is caught here.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)


def check(workload: str, seed: int, results_dir: str) -> str | None:
    """What is wrong with one tiny run, or None."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0", "--tiny",
           "--results-dir", results_dir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        return f"correct {result.get('correct')}, failed {result.get('failed')}: {proc.stdout[-800:]}"
    return None


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    failures = 0
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload in workloads:
            for seed in SEEDS:
                error = check(workload, seed, tmp)
                print(f"{'FAIL' if error else 'PASS'} {workload} --seed {seed}")
                if error:
                    print(f"    {error}")
                    failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
