"""Spans around nevlab's public functions, installed from the benchmark's side.

``Tracer.install`` replaces every public module-level function of each layer
module (and any by-name import of one in another nevlab module) with a
wrapper that records a span, and does the same for the two evaluator
``__call__`` methods.  Calls inside a module resolve through the module's
globals, so nested calls are caught too.  Spans stay in memory as parallel
arrays (name, start, end, parent, unit) until ``aggregate`` folds them into
per-layer totals; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("matnum", "herglotz", "pairs", "relations", "invariance", "analysis",
          "examples", "document", "runner", "reports", "cli")
EVALUATORS = (("herglotz", "FamilyEvaluator"), ("pairs", "PairEvaluator"))
DECOMPOSITIONS = ("singular_values", "spectral_norm", "null_space", "range_space",
                  "orthonormal_complement", "is_psd", "eig_hermitian", "solve")
UNIT_SPAN = "bench.unit"


def _dir_bytes(args, kwargs) -> int:
    """Bytes in the directory handed to ``reports.write_reports``; fresh per unit."""
    out = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else "."))
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.start, self.end = array("d"), array("d")
        self.parent, self.name, self.unit = array("q"), array("q"), array("q")
        self.stack = [-1]
        self.unit_id = -1
        self.evaluated = {layer: set() for layer, _ in EVALUATORS}
        self._alive: dict[int, object] = {}
        self.errors.clear()
        self.counters.clear()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, qualname: str, fn, evaluated: set | None = None, count=None):
        nid = self._intern(qualname)
        tracer, perf = self, time.perf_counter
        start, end, parent, name, unit, stack = (
            self.start, self.end, self.parent, self.name, self.unit, self.stack)

        def wrapper(*args, **kwargs):
            if evaluated is not None:  # (evaluator, z) pairs seen in this unit
                tracer._alive[id(args[0])] = args[0]
                evaluated.add((id(args[0]), complex(args[1])))
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            unit.append(tracer.unit_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[qualname] += 1
                raise
            finally:
                end[idx] = perf()
                stack.pop()
            if count is not None:
                tracer.counters[count[0]] += count[1](args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules; arrays are reset first."""
        self.clear()
        modules = {layer: importlib.import_module(f"nevlab.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    count = (("reports.bytes_written", _dir_bytes)
                             if (layer, attr) == ("reports", "write_reports") else None)
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, count=count)
        for mod in modules.values():  # by-name imports, e.g. relations.pair_kernel
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for layer, cls_name in EVALUATORS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__["__call__"]
            self._saved.append((cls, "__call__", original))
            cls.__call__ = self._wrap(f"{layer}.{cls_name}.__call__", original,
                                      evaluated=self.evaluated[layer])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_unit(self, unit_id: int) -> None:
        self.unit_id = unit_id
        idx = len(self.start)
        self.parent.append(-1)
        self.name.append(self._intern(UNIT_SPAN))
        self.unit.append(unit_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())

    def end_unit(self) -> None:
        idx = self.stack.pop()
        self.end[idx] = time.perf_counter()
        for layer, seen in self.evaluated.items():
            self.counters[f"{layer}.distinct_evals"] += len(seen)
            seen.clear()
        self._alive.clear()

    def aggregate(self) -> dict:
        """Per-name calls and self time, plus the counts the per-layer metrics need."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))

        # subspace distances taken inside an invariance check, found by walking
        # spans in start order: a parent always precedes its children
        is_check = [n.startswith("invariance.check_") for n in self.names]
        distance = self._ids.get("matnum.subspace_distance", -1)
        inside, in_check = [], 0
        for p, n in zip(parent.tolist(), name.tolist()):
            inside.append(is_check[n] or (p >= 0 and inside[p]))
            in_check += n == distance and inside[-1]
        return {
            "calls": {n: int(c) for n, c in zip(self.names, calls) if c},
            "self_s": {n: float(s) for n, s, c in zip(self.names, self_time, calls) if c},
            "errors": dict(self.errors),
            "counters": {**self.counters, "invariance.distances_in_checks": int(in_check)},
        }

    def spans(self) -> tuple:
        """The span arrays in memory; ``install`` starts new ones, leaving these intact."""
        return (self.start, self.end, self.parent, self.name, self.unit)

    def dump(self, path: Path, spans: tuple) -> None:
        """Write spans as gzipped JSON lines: name, start, end, parent index, unit id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for start, end, parent, name, unit in zip(*spans):
                fh.write(json.dumps([self.names[name], start, end, parent, unit]) + "\n")


def merge(total: dict, part: dict) -> dict:
    """Sum two ``aggregate`` results."""
    out = {}
    for key in ("calls", "self_s", "errors", "counters"):
        merged = Counter(total.get(key, {}))
        merged.update(part[key])
        out[key] = dict(merged)
    return out


def layer_metrics(agg: dict, units: int) -> dict:
    """Per-layer metrics per traced unit, named as in BENCHMARK.json."""
    calls, self_s, counters = agg["calls"], agg["self_s"], agg["counters"]

    def layer_self(layer):
        return sum(s for n, s in self_s.items() if n.startswith(layer + "."))

    def layer_calls(layer):
        return sum(c for n, c in calls.items() if n.startswith(layer + "."))

    def ratio(a, b):
        return a / b if b else 0.0

    family_calls = calls.get("herglotz.FamilyEvaluator.__call__", 0)
    pair_calls = calls.get("pairs.PairEvaluator.__call__", 0)
    checks = sum(c for n, c in calls.items() if n.startswith("invariance.check_"))
    out = {f"{layer}.self_s": layer_self(layer) / units for layer in LAYERS}
    out.update({
        "matnum.calls": layer_calls("matnum") / units,
        "matnum.us_per_call": 1e6 * ratio(layer_self("matnum"), layer_calls("matnum")),
        "matnum.as_matrix.calls": calls.get("matnum.as_matrix", 0) / units,
        "matnum.decomp.calls": sum(calls.get(f"matnum.{f}", 0) for f in DECOMPOSITIONS) / units,
        "matnum.subspace_distance.calls": calls.get("matnum.subspace_distance", 0) / units,
        "herglotz.family_calls": family_calls / units,
        "herglotz.evaluate.calls": calls.get("herglotz.evaluate", 0) / units,
        "herglotz.unique_eval_ratio": ratio(counters.get("herglotz.distinct_evals", 0),
                                            family_calls),
        "pairs.pair_calls": pair_calls / units,
        "pairs.unique_eval_ratio": ratio(counters.get("pairs.distinct_evals", 0), pair_calls),
        "relations.calls": layer_calls("relations") / units,
        "invariance.checks": checks / units,
        "invariance.distances_per_check": ratio(
            counters.get("invariance.distances_in_checks", 0), checks),
        "analysis.harnack_constants.calls": calls.get("analysis.harnack_constants", 0) / units,
        "runner.tasks": calls.get("runner.run_task", 0) / units,
        "runner.task_errors": agg["errors"].get("runner.run_task", 0) / units,
        "reports.bytes_written": counters.get("reports.bytes_written", 0) / units,
    })
    return out
