"""Span and counter tracing of sawlab, installed from outside the package.

`Tracer.install` patches the benchmark process only:

- every public function of the sawlab modules is replaced, in every
  sawlab namespace that holds it (so `from .graphs import ball` in
  another module is traced too), by a wrapper that records a span
  [id, parent id, name, start, end];
- `neighbors` of every oracle class and `at`/`step` of every height class
  get call counters instead of spans, because they run millions of times
  a pass;
- the walk enumerator's ProcessPoolExecutor becomes a subclass that
  records executor construction and shutdown and the time blocked in
  `map` as spans, counts map calls, tasks and pickled task bytes, and
  reads each worker's peak RSS before shutting it down.

Spans stay in memory until the benchmark writes them out. A forked pool
worker uninstalls the patches, so work inside workers is not traced:
there only the pool counters and the nodes reported back are visible.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List

MODULES = ("cli", "graphs", "heights", "saw", "locality", "presentations", "_linalg")

# Inclusive time of the outermost spans among these names.
_INCLUSIVE = {
    "saw.count_s": ("saw.count_saws", "saw.count_bridges"),
    "saw.bounds_s": ("saw.mu_bounds",),
    "saw.pool_start_s": ("saw.pool_start",),
    "saw.pool_wait_s": ("saw.pool_wait",),
    "graphs.ball_s": ("graphs.ball",),
    "graphs.resolve_s": ("graphs.resolve_model",),
    "heights.height_table_s": ("heights.height_table",),
    "heights.verify_s": ("heights.verify_height_axioms", "heights.verify_harmonic",
                         "heights.compute_d"),
    "heights.repair_s": ("heights.increase_repair",),
    "linalg.root_s": ("_linalg.nth_root_decimal", "_linalg.root_compare"),
    "linalg.solve_s": ("_linalg.bareiss_rank", "_linalg.rref",
                       "_linalg.integer_kernel", "_linalg.solve_unique"),
}
# Self time (span minus its child spans) of these names.
_SELF = {
    "locality.iso_self_s": ("locality.ball_iso",),
    "locality.scan_self_s": ("locality.locality_scan",),
}
# Number of spans with this name.
_CALLS = {
    "graphs.ball_calls": "graphs.ball",
    "locality.iso_calls": "locality.ball_iso",
}
COUNTERS = ("saw.nodes", "saw.pool_map_calls", "saw.pool_tasks",
            "saw.pool_task_bytes", "graphs.neighbors_calls",
            "graphs.ball_vertices", "heights.height_evals")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._patches: List[tuple] = []
        self.pool_peak_rss_kb = 0
        os.register_at_fork(after_in_child=self.uninstall)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1], name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[4] = clock()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"sawlab.{name}") for name in MODULES}
        counts = self.counts

        def add_nodes(table):
            counts["saw.nodes"] += table.nodes_used

        def add_ball(b):
            counts["graphs.ball_vertices"] += b.vertex_count()

        hooks = {"saw.count_saws": add_nodes, "saw.count_bridges": add_nodes,
                 "graphs.ball": add_ball}
        wrapped = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[value] = self.span(name, value, hooks.get(name))
        namespaces = [importlib.import_module("sawlab"), *modules.values()]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])

        graphs, heights = modules["graphs"], modules["heights"]
        for value in list(vars(graphs).values()):
            if (isinstance(value, type) and issubclass(value, graphs.GraphOracle)
                    and "neighbors" in value.__dict__):
                self._patch(value, "neighbors",
                            self.counted("graphs.neighbors_calls", value.__dict__["neighbors"]))
        for value in list(vars(heights).values()):
            if isinstance(value, type) and issubclass(value, heights.HeightFunction):
                for method in ("at", "step"):
                    if method in value.__dict__:
                        self._patch(value, method,
                                    self.counted("heights.height_evals", value.__dict__[method]))

        self._patch(modules["saw"], "ProcessPoolExecutor", self._traced_pool())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.span("saw.pool_start", super().__init__)(*args, **kwargs)

            def map(self, fn, items, **kwargs):
                items = list(items)
                tracer.counts["saw.pool_map_calls"] += 1
                tracer.counts["saw.pool_tasks"] += len(items)
                tracer.counts["saw.pool_task_bytes"] += sum(
                    len(pickle.dumps(item)) for item in items)
                wait = tracer.span("saw.pool_wait", lambda: list(super(TracedPool, self).map(
                    fn, items, **kwargs)))
                return iter(wait())

            def shutdown(self, *args, **kwargs):
                for pid in list(self._processes or ()):
                    tracer.pool_peak_rss_kb = max(tracer.pool_peak_rss_kb, _peak_rss_kb(pid))
                tracer.span("saw.pool_start", super().shutdown)(*args, **kwargs)

        return TracedPool

    # -- results -----------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def _peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        pass
    return 0


def layer_metrics(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one pass from its spans and counter deltas.

    `spans` must hold every span of the pass and their parents must lie in
    the same list (a pass starts with an empty span stack)."""
    by_id = {rec[0]: rec for rec in spans}
    child_time: Dict[int, float] = {}
    for sid, parent, _name, start, end in spans:
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def has_ancestor_in(rec, names) -> bool:
        parent = by_id.get(rec[1])
        while parent is not None:
            if parent[2] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    def self_time(rec) -> float:
        return rec[4] - rec[3] - child_time.get(rec[0], 0.0)

    out: Dict[str, float] = {}
    for metric, names in _INCLUSIVE.items():
        out[metric] = sum((rec[4] - rec[3] for rec in spans
                           if rec[2] in names and not has_ancestor_in(rec, names)), 0.0)
    for metric, names in _SELF.items():
        out[metric] = sum((self_time(rec) for rec in spans if rec[2] in names), 0.0)
    for metric, name in _CALLS.items():
        out[metric] = sum(1 for rec in spans if rec[2] == name)
    pres = [rec for rec in spans if rec[2].startswith("presentations.")]
    pres_names = {rec[2] for rec in pres}
    out["presentations.s"] = sum((rec[4] - rec[3] for rec in pres
                                  if not has_ancestor_in(rec, pres_names)), 0.0)
    out["cli.self_s"] = sum((self_time(rec) for rec in spans if rec[2].startswith("cli.")), 0.0)
    out.update(counts)
    out["saw.serial_s"] = out["saw.count_s"] - out["saw.pool_wait_s"]
    out["saw.nodes_per_s"] = (out["saw.nodes"] / out["saw.count_s"]
                              if out["saw.count_s"] else 0.0)
    return out
