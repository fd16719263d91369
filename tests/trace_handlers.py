"""Run the golden matrix under the stdlib ``trace`` module and list the
run code it never reaches.

The run code is every method of ``ScenarioRunner`` (the heap items'
handlers and the hooks the blocks call back) and every function of
``engagement``, ``vigilance``, ``awareness`` and ``scheduling`` whose
first parameter is ``run``. A function the matrix never calls is either
dead or on a path that no pinned digest covers; both are worth knowing
before a refactor. Prints each function that never ran and exits 1 if
there is one.

Run from the repository root::

    PYTHONPATH=src python tests/trace_handlers.py
"""

from __future__ import annotations

import inspect
import sys
import trace
import types
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from frmsim import awareness, engagement, scheduling, vigilance  # noqa: E402
from frmsim.sim import ScenarioRunner  # noqa: E402

from logchecks import log_digest  # noqa: E402
from test_golden import matrix  # noqa: E402

BLOCK_MODULES = (engagement, vigilance, awareness, scheduling)


def run_code() -> list:
    """Every function the matrix should reach."""
    methods = [
        fn
        for name, fn in vars(ScenarioRunner).items()
        if inspect.isfunction(fn) and not name.startswith("__")
    ]
    block_functions = [
        fn
        for module in BLOCK_MODULES
        for fn in vars(module).values()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and next(iter(inspect.signature(fn).parameters), None) == "run"
    ]
    return methods + block_functions


def code_names(path: str) -> Counter:
    """How many functions of the file at ``path`` carry each name,
    nested ones included."""
    names: Counter = Counter()
    stack = [compile(Path(path).read_text(), path, "exec")]
    while stack:
        code = stack.pop()
        names[code.co_name] += 1
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return names


def main() -> int:
    functions = run_code()
    tracer = trace.Trace(count=0, trace=0, countfuncs=1)
    for cfg in matrix().values():
        tracer.runfunc(log_digest, cfg, {})
    # ``trace`` names a called function by its file and code name (with
    # its class when it can find one); within a file, a name is
    # unambiguous only if one function carries it.
    called = {
        (filename, funcname.rsplit(".", 1)[-1])
        for filename, _, funcname in tracer.results().calledfuncs
    }
    names = {}
    problems = []
    for fn in functions:
        path = fn.__code__.co_filename
        if path not in names:
            names[path] = code_names(path)
        label = f"{fn.__module__}.{fn.__qualname__}"
        if names[path][fn.__name__] != 1:
            problems.append(f"{label}: its name is not unique in its file")
        elif (path, fn.__name__) not in called:
            problems.append(f"{label}: never ran")
    print(f"run code: {len(functions)} functions, {len(matrix())} golden cases")
    print(f"functions the matrix does not reach: {len(problems)}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
