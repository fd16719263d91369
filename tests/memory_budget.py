"""Memory budget of ``frmsim simulate`` and ``frmsim report`` at scale.

    PYTHONPATH=src python tests/memory_budget.py

Runs ``frmsim simulate`` on an 80-specialist, 28-day fleet with every
block on (``bench/workloads.fleet_config(0, 80, 28, all_on)``, a log of
about 90 MiB) and then ``frmsim report`` on its log, each in a child
process, and checks after each that the peak resident set size of the
children (``RUSAGE_CHILDREN``, the largest child's) is under 40 MiB.
Both commands stream the log, so their memory follows the fleet, not
the log. Exits 1 if a command fails or a peak is over the budget. Takes
about 20 s.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from frmsim.config import Toggles  # noqa: E402
from workloads import fleet_config  # noqa: E402

BUDGET_MIB = 40.0


def children_peak_mib() -> float:
    """The largest peak RSS of the children waited for so far (Linux
    reports it in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(fleet_config(0, 80, 28, Toggles.all_on()).to_json())
        out = Path(tmp) / "run"
        for command in (
            ["simulate", "--config", str(config), "--out", str(out)],
            ["report", "--log", str(out / "events.jsonl"), "--metrics", str(out / "metrics.csv")],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "frmsim.cli", *command],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            peak = children_peak_mib()
            ok = proc.returncode == 0 and peak < BUDGET_MIB
            print(
                f"{'PASS' if ok else 'FAIL'} frmsim {command[0]}: exit {proc.returncode}, "
                f"children's peak RSS {peak:.1f} MiB (budget {BUDGET_MIB:.0f} MiB)"
            )
            if proc.returncode != 0:
                print(proc.stderr.strip()[-500:])
            failures += not ok
        size = (out / "events.jsonl").stat().st_size if (out / "events.jsonl").exists() else 0
        print(f"log: {size / 2**20:.1f} MiB")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
