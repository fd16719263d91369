"""The bounds table (``frmsim.config.BOUNDS``) against the codec and the
simulator: the table covers every numeric leaf, and at each finite bound
of each entry, and one step outside it, a configuration that
``validate-config`` accepts simulates, and one it rejects makes
``validate-config`` and ``simulate`` both exit 1 naming the leaf.
``tests/boundary_walk.py`` runs the same walk over more seeds and
toggle sets."""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import is_dataclass
from pathlib import Path
from typing import Any, Iterator, get_args, get_origin

from frmsim.cli import main
from frmsim.config import BOUNDS, Bound, ScenarioConfig, Toggles, default_config
from frmsim.config import _field_types

# Numeric leaves that may be any finite number.
ANY_FINITE = {"seed", "raters[].bias", "sa.issue_threshold"}

# Leaves the default configuration leaves out, and a list that holds one.
SAMPLES = {"shift.scheduled_breaks[][]": (("shift", "scheduled_breaks"), [[60, 15]])}


def _key_types(tp: Any, key: str = "") -> Iterator[tuple[str, Any]]:
    """(table key, declared type) for every field and list item under a
    value of type ``tp``."""
    if is_dataclass(tp):
        for name, field_tp in _field_types(tp).items():
            child = f"{key}.{name}" if key else name
            yield child, field_tp
            yield from _key_types(field_tp, child)
    elif get_origin(tp) is tuple:
        for item_tp in get_args(tp):
            if item_tp is not Ellipsis:
                yield f"{key}[]", item_tp
                yield from _key_types(item_tp, f"{key}[]")


def _doc_leaves(node: Any, path: tuple = ()) -> Iterator[tuple[tuple, str]]:
    """(path, table key) for every number in a configuration document."""
    if isinstance(node, dict):
        for name, value in node.items():
            yield from _doc_leaves(value, (*path, name))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _doc_leaves(value, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        key = "".join("[]" if isinstance(part, int) else f".{part}" for part in path)
        yield path, key.lstrip(".")


def test_the_table_covers_every_numeric_leaf():
    types = dict(_key_types(ScenarioConfig))
    numeric = {key for key, tp in types.items() if tp in (int, float)}
    for key, bound in BOUNDS.items():
        if bound.names:
            assert get_origin(types.get(key)) is tuple, key
        else:
            assert key in numeric, f"{key} names no numeric leaf"
    assert numeric == {key for key, bound in BOUNDS.items() if not bound.names} | ANY_FINITE
    document = default_config().to_dict()
    del document["schema_version"]
    assert {key for _, key in _doc_leaves(document)} <= numeric


def _edges(bound: Bound) -> Iterator[tuple[float, bool]]:
    """(value, inside) at each finite end of ``bound``: the end, or just
    inside it if it is open, then one step outside it."""

    for end, is_open, outward in ((bound.lo, bound.open_lo, -1), (bound.hi, bound.open_hi, 1)):
        if math.isfinite(end):
            if bound.unit_s:
                end /= bound.unit_s
            step = 1 if bound.integer else 1e-6 * max(1.0, abs(end))
            yield (end - outward * step if is_open else end), True
            yield (end if is_open else end + outward * step), False


def _set(document: dict, path: tuple, value: Any) -> None:
    node = document
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def walk_bounds(toggles: Toggles, seed: int, work_dir: Path, horizon_days: int = 4) -> list[str]:
    """Set each table entry's leaf, one at a time, to each finite bound
    and one step outside it, on the default configuration with these
    toggles and seed. Returns what went wrong, one line per case: a value
    outside the table that ``validate-config`` accepts, an accepted value
    that does not simulate, or a rejected one that ``simulate`` runs or
    whose error does not name the leaf."""
    base = json.dumps(default_config(seed=seed, horizon_days=horizon_days, toggles=toggles).to_dict())
    config, out = work_dir / "config.json", work_dir / "run"
    failures = []
    for key, bound in BOUNDS.items():
        if bound.names:
            continue
        document = json.loads(base)
        if key in SAMPLES:
            _set(document, *SAMPLES[key])
        path = next(path for path, leaf in _doc_leaves(document) if leaf == key)
        named = "config" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        for value, inside in _edges(bound):
            _set(document, path, value)
            config.write_text(json.dumps(document))
            case = f"{named} = {value!r}"
            valid, why = _run(["validate-config", "--config", str(config)])
            code, err = _run(["simulate", "--config", str(config), "--out", str(out)])
            if valid == 0:
                if not inside:
                    failures.append(f"{case}: outside the table, but validate-config accepts it")
                if code != 0:
                    failures.append(f"{case}: validates, but simulate exits {code}: {err.strip()}")
            elif valid != 1 or code != 1:
                failures.append(f"{case}: validate-config exits {valid}, simulate {code}")
            # An item of a list may fail a rule over the whole list.
            elif named not in why and not (named.endswith("]") and named.rsplit("[", 1)[0] in why):
                failures.append(f"{case}: the error does not name it: {why.strip()}")
    return failures


def test_each_bound_and_one_step_outside_it_validate_as_they_simulate(tmp_path):
    assert walk_bounds(Toggles.all_on(), 3, tmp_path) == []
