"""Span tracer that wraps frmsim's layer functions from outside.

The tracer edits no frmsim source. It replaces each layer function with
a timing wrapper in the defining module or class, and also in every
frmsim module that imported the function by name (``frmsim.sim`` holds
its own ``advance_components``, ``frmsim.cli`` its own
``run_scenario``), then puts everything back on ``uninstall``.

Every call is a span with a name, a start, an end and a parent. Counts,
inclusive time and self time (duration minus the time covered by child
spans) are kept for every call. Full span records are kept in memory
for the first ``keep_per_name`` calls of each name whose parent was
kept, so a hot leaf such as ``ict_tick`` (millions of calls) cannot
exhaust memory; the aggregates still count every call. The kept spans
are written out by ``write_spans`` after the run.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import types
from time import perf_counter

# (module, attribute path, span name). The span name's first part is the
# layer, which is the frmsim module the function is defined in.
LAYER_FUNCTIONS = (
    ("frmsim.cli", "main", "cli.main"),
    ("frmsim.config", "ScenarioConfig.with_overrides", "config.with_overrides"),
    ("frmsim.config", "ScenarioConfig.config_hash", "config.config_hash"),
    ("frmsim.config", "ScenarioConfig.validate", "config.validate"),
    ("frmsim.config", "ScenarioConfig.to_dict", "config.to_dict"),
    ("frmsim.config", "ScenarioConfig.from_dict", "config.from_dict"),
    ("frmsim.config", "ScenarioConfig.to_json", "config.to_json"),
    ("frmsim.config", "ScenarioConfig.from_json", "config.from_json"),
    ("frmsim.sim", "run_scenario", "sim.run_scenario"),
    ("frmsim.sim", "calibrate_session_length_effect", "sim.calibrate"),
    ("frmsim.fatigue", "advance_components", "fatigue.advance"),
    ("frmsim.fatigue", "compose_alertness", "fatigue.compose"),
    ("frmsim.fatigue", "AlertnessState.from_components", "fatigue.state_build"),
    ("frmsim.fatigue", "to_kss", "fatigue.to_kss"),
    ("frmsim.fatigue", "to_ord_truth", "fatigue.to_ord_truth"),
    ("frmsim.engagement", "ict_tick", "engagement.ict_tick"),
    ("frmsim.engagement", "ict_resolve", "engagement.ict_resolve"),
    ("frmsim.engagement", "ict_adapt", "engagement.ict_adapt"),
    ("frmsim.engagement", "record_interactivity", "engagement.record_interactivity"),
    ("frmsim.engagement", "sa_evaluate", "engagement.sa_evaluate"),
    ("frmsim.engagement", "sa_resolve", "engagement.sa_resolve"),
    ("frmsim.vigilance", "inter_rater_reliability", "vigilance.irr"),
    ("frmsim.vigilance", "linear_weighted_kappa", "vigilance.kappa"),
    ("frmsim.vigilance", "rate", "vigilance.rate"),
    ("frmsim.vigilance", "dms_observe", "vigilance.dms_observe"),
    ("frmsim.vigilance", "issue_multimodal_alert", "vigilance.alert"),
    ("frmsim.vigilance", "assign_rating_tasks", "vigilance.assign_rating_tasks"),
    ("frmsim.vigilance", "aggregate", "vigilance.aggregate"),
    ("frmsim.vigilance", "qualify_rater", "vigilance.qualify_rater"),
    ("frmsim.awareness", "submit_pfs", "awareness.submit_pfs"),
    ("frmsim.awareness", "open_concern", "awareness.open_concern"),
    ("frmsim.awareness", "pfs_trend", "awareness.pfs_trend"),
    ("frmsim.awareness", "trend_to_csv", "awareness.trend_to_csv"),
    ("frmsim.scheduling", "evaluate_break_triggers", "scheduling.evaluate_break_triggers"),
    ("frmsim.scheduling", "lifecycle_step", "scheduling.lifecycle_step"),
    ("frmsim.scheduling", "request_impromptu_break", "scheduling.request_impromptu_break"),
    ("frmsim.scheduling", "reassign_auxiliary", "scheduling.reassign_auxiliary"),
    ("frmsim.events", "EventLog.append", "events.append"),
    ("frmsim.events", "EventLog.to_jsonl", "events.to_jsonl"),
    ("frmsim.events", "EventLog.from_jsonl", "events.from_jsonl"),
    ("frmsim.events", "EventLog.digest", "events.digest"),
    ("frmsim.metrics", "compute_metrics", "metrics.compute"),
    ("frmsim.metrics", "metrics_to_csv", "metrics.to_csv"),
)

# Extra per-call measures: span name -> function of the call's
# positional arguments whose value is summed over calls.
ARG_MEASURES = {
    "vigilance.irr": lambda args: len(args[0]) if hasattr(args[0], "__len__") else 0,
}


class Tracer:
    def __init__(self, keep_per_name: int = 2000):
        self.keep_per_name = keep_per_name
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.errors: list[dict] = []
        self.arg_sums: dict[str, float] = {}
        # Kept span records: (span id, name id, start, end, parent id).
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._kept_by_name: list[int] = []
        self._next_id = 0
        # Open frames: [name id, start, child time, span id or -1].
        self._stack: list[list] = [[-1, 0.0, 0.0, -1]]
        self._restore: list[tuple[object, str, object]] = []
        self.rng_draws = 0
        # Layer functions this frmsim version does not have; their
        # metrics read zero.
        self.missing: list[str] = []

    # -- aggregates ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        self.errors.append({})
        self._kept_by_name.append(0)
        return len(self.names) - 1

    def snapshot(self) -> dict:
        """Per-name aggregates so far: name -> (calls, total_s, self_s)."""
        return {
            name: (self.calls[i], self.total_s[i], self.self_s[i])
            for i, name in enumerate(self.names)
        }

    def error_count(self, name: str, exc_name: str) -> int:
        return self.errors[self.names.index(name)].get(exc_name, 0)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        stack = self._stack
        calls = self.calls
        total_s = self.total_s
        self_s = self.self_s
        errors = self.errors
        kept = self._kept_by_name
        spans = self.spans
        keep = self.keep_per_name
        measure = ARG_MEASURES.get(name)
        arg_sums = self.arg_sums
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = -1
            if kept[nid] < keep and (parent[3] >= 0 or parent[0] < 0):
                kept[nid] += 1
                span_id = tracer._next_id
                tracer._next_id += 1
            if measure is not None:
                arg_sums[name] = arg_sums.get(name, 0) + measure(args)
            frame = [nid, 0.0, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = type(exc).__name__
                errors[nid][key] = errors[nid].get(key, 0) + 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[nid] += 1
                total_s[nid] += duration
                self_s[nid] += duration - frame[2]
                parent[2] += duration
                if span_id >= 0:
                    spans.append((span_id, nid, start, end, parent[3]))

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every layer function and count draws of frmsim.sim's
        generators. Call ``uninstall`` to restore the originals."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "frmsim" or n.startswith("frmsim.")]
        for module_name, path, span_name in LAYER_FUNCTIONS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
                raw = getattr(owner, "__dict__", {}).get(attr)
                if raw is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(raw.__func__, span_name))
                else:
                    replacement = self._wrap(raw, span_name)
                self._set(owner, attr, replacement)
                continue
            original = getattr(module, path, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(original, span_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        sim = sys.modules["frmsim.sim"]
        if "random" in vars(sim):
            self._set(sim, "random", self._counting_random_module())
        else:
            self.missing.append("frmsim.sim.random")

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _counting_random_module(self) -> types.ModuleType:
        """A stand-in for the ``random`` module whose ``Random`` counts
        draws. It overrides ``random`` and ``getrandbits``, the two
        primitives every other method is built on, so the sequence of
        values is unchanged."""
        tracer = self

        class CountingRandom(random.Random):
            def random(self):
                tracer.rng_draws += 1
                return super().random()

            def getrandbits(self, k):
                tracer.rng_draws += 1
                return super().getrandbits(k)

        shim = types.ModuleType("random")
        shim.__dict__.update(random.__dict__)
        shim.Random = CountingRandom
        return shim

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write kept spans as JSON lines, then the per-name aggregates."""
        with open(path, "w") as out:
            for span_id, nid, start, end, parent in sorted(self.spans):
                out.write(json.dumps({
                    "id": span_id,
                    "name": self.names[nid],
                    "start": start,
                    "end": end,
                    "parent": parent if parent >= 0 else None,
                }) + "\n")
            for name, (calls, total, self_time) in sorted(self.snapshot().items()):
                out.write(json.dumps({
                    "aggregate": name,
                    "calls": calls,
                    "total_s": total,
                    "self_s": self_time,
                }) + "\n")
        return len(self.spans)


def wrapper_cost_us(samples: int = 200_000) -> float:
    """Measured cost of one traced call of an empty function, in µs."""
    tracer = Tracer(keep_per_name=0)

    def empty():
        return None

    traced = tracer._wrap(empty, "probe")
    start = perf_counter()
    for _ in range(samples):
        empty()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, (perf_counter() - start - bare) / samples * 1e6)
