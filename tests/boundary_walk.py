"""Walk the bounds table over more seeds and toggle sets than the unit
test does: with every block on and every block off, at seeds 0-2, set
each table entry's leaf to each finite bound and one step outside it
(``test_bounds.walk_bounds``). Rater qualification depends on the seed,
so what validation accepts does too. Prints each case that went wrong
and exits 1 if there is one.

Too slow for the unit tests (about half a minute), so pytest does not
collect it. Run from the repository root::

    PYTHONPATH=src python tests/boundary_walk.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frmsim.config import Toggles  # noqa: E402

from test_bounds import walk_bounds  # noqa: E402


def main() -> int:
    failures = []
    for name, toggles in (("all-on", Toggles.all_on()), ("all-off", Toggles.all_off())):
        for seed in range(3):
            with tempfile.TemporaryDirectory() as work_dir:
                found = walk_bounds(toggles, seed, Path(work_dir))
            print(f"{name}, seed {seed}: {len(found)} failing cases")
            failures += [f"{name}, seed {seed}: {line}" for line in found]
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
