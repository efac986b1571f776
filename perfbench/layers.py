"""Outside-in tracing and counter snapshots for the per-layer metrics.

The engine itself carries no tracing.  For a traced run the benchmark
installs class-level wrappers around the public functions of each layer
(named after the repository's modules) before the engine is constructed,
records one span per call -- name, start, end, parent and the id of the
timed operation it ran under -- and removes the wrappers afterwards.
Spans stay in memory until the run ends.

Alongside the spans, :func:`snapshot_counters` reads the engine's own
statistics objects so that the per-layer work counters are taken as the
difference between two snapshots around a measured phase.
"""

from __future__ import annotations

import functools
import gc
import gzip
import os
import sys
from array import array
from time import perf_counter
from types import FunctionType

from repro.compute.scheduler import ComputeScheduler
from repro.engine.cache import LRUCellCache
from repro.engine.dataspread import DataSpread
from repro.formula.aggregates import AggregateStore
from repro.formula.dependencies import DependencyGraph
from repro.formula.evaluator import Evaluator
from repro.models.hybrid import HybridDataModel
from repro.positional.base import PositionalMapping
from repro.query.executor import QueryResult
from repro.service.workspace import Session, Workspace
from repro.storage.heap import HeapFile
from repro.storage.wal import WALWriter

#: Class-level hooks: (layer, class, public methods).  Subclasses that
#: override a listed method are wrapped too.
CLASS_HOOKS: tuple[tuple[str, type, tuple[str, ...]], ...] = (
    ("positional", PositionalMapping,
     ("fetch", "fetch_range", "insert_at", "delete_at", "replace_at")),
    ("models", HybridDataModel,
     ("get_values", "get_values_dense", "get_cells", "update_cell", "update_cells",
      "insert_row_after", "insert_column_after", "delete_row", "delete_column")),
    ("storage.heap", HeapFile, ("read", "insert", "update", "delete")),
    ("formula.dependencies", DependencyGraph,
     ("register", "unregister", "direct_dependents", "affected_set",
      "apply_structural_edit")),
    ("compute", ComputeScheduler, ("mark_dirty", "run", "drain_for", "ensure")),
    ("formula.evaluator", Evaluator, ("evaluate", "evaluate_node", "parse")),
    ("formula.aggregates", AggregateStore, ("apply_edit", "build", "apply_structural_edit")),
    ("engine.cache", LRUCellCache, ("get", "put", "flush_pending")),
    ("storage.wal", WALWriter, ("append", "begin", "commit")),
    ("query", QueryResult, ("to_table",)),
)

#: Classes whose every public method is a hook of the named layer.
API_HOOKS: tuple[tuple[str, type], ...] = (
    ("engine", DataSpread),
    ("service", Session),
    ("service", Workspace),
)

#: Module-level functions, replaced wherever the repository's modules hold
#: a reference to them (imports by name and dispatch tables alike).
FUNCTION_HOOKS: tuple[tuple[str, str, str], ...] = (
    ("decomposition", "repro.decomposition", "decompose_aggressive"),
    ("decomposition", "repro.decomposition", "decompose_greedy"),
    ("decomposition", "repro.decomposition", "decompose_dp"),
    ("query", "repro.query.planner", "compile_select"),
    ("query", "repro.query.executor", "run_plan"),
    ("storage.snapshot", "repro.storage.snapshot", "write_snapshot"),
    ("storage.snapshot", "repro.storage.snapshot", "load_snapshot"),
    ("storage.recovery", "repro.storage.recovery", "recover"),
)

#: Every layer the trace reports, in report order.
LAYERS: tuple[str, ...] = (
    "positional", "models", "storage.heap", "decomposition", "formula.dependencies",
    "compute", "formula.evaluator", "formula.aggregates", "engine", "engine.cache",
    "service", "query", "storage.wal", "storage.snapshot", "storage.recovery",
)


class Tracer:
    """In-memory span recorder with per-layer self-time accounting.

    Only calls made inside a timed operation (``op_id > 0``) are recorded.

    Spans nest on one thread, so a span's children are disjoint and the
    part of its interval they cover is the sum of their durations.
    """

    def __init__(self) -> None:
        self.op_id = 0  # 0 = outside any timed operation
        self._layer_index = {name: index for index, name in enumerate(LAYERS)}
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        # Columnar span store: name, start, end, parent (-1 = root), op id.
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._stack_layers: list[int] = []
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        #: Inclusive time of calls that enter a layer from outside it,
        #: keyed by qualified function name.
        self.entry_s: dict[str, float] = {}
        self.entry_count: dict[str, int] = {}
        self._restore: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, qualname: str, function):
        layer_id = self._layer_index[layer]
        name_id = self._name_index.setdefault(qualname, len(self._names))
        if name_id == len(self._names):
            self._names.append(qualname)
        stack, child_time, stack_layers = self._stack, self._child_time, self._stack_layers
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        calls, self_s = self.calls, self.self_s
        entry_s, entry_count = self.entry_s, self.entry_count
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer.op_id == 0:
                # Outside a timed operation (input checks, untimed drains):
                # no span.  Timed operations start at top level, so no span
                # ever straddles the boundary.
                return function(*args, **kwargs)
            index = len(starts)
            parent = stack[-1] if stack else -1
            outer_layer = stack_layers[-1] if stack_layers else -1
            names.append(name_id)
            parents.append(parent)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(index)
            child_time.append(0.0)
            stack_layers.append(layer_id)
            start = perf_counter()
            starts.append(start)
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[index] = end
                stack.pop()
                stack_layers.pop()
                duration = end - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                calls[layer_id] += 1
                self_s[layer_id] += duration - children
                if outer_layer != layer_id:
                    entry_s[qualname] = entry_s.get(qualname, 0.0) + duration
                    entry_count[qualname] = entry_count.get(qualname, 0) + 1

        return traced

    def install(self) -> None:
        """Wrap every hook; call before the engine under test is built."""
        for layer, base, methods in CLASS_HOOKS:
            for cls in _with_subclasses(base):
                for method in methods:
                    if method in vars(cls):
                        self._patch(cls, method, layer, f"{cls.__name__}.{method}")
            self.missing.extend(
                f"{base.__name__}.{m}" for m in methods if not hasattr(base, m))
        for layer, cls in API_HOOKS:
            for name, member in list(vars(cls).items()):
                if not name.startswith("_") and isinstance(
                        member, (FunctionType, staticmethod, classmethod)):
                    self._patch(cls, name, layer, f"{cls.__name__}.{name}")
        for layer, module_name, name in FUNCTION_HOOKS:
            function = getattr(sys.modules.get(module_name), name, None)
            if function is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            self._patch_everywhere(function, layer, name)

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._restore):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    def _patch(self, cls: type, method: str, layer: str, qualname: str) -> None:
        original = vars(cls)[method]
        if isinstance(original, (staticmethod, classmethod)):
            wrapped = type(original)(self.wrap(layer, qualname, original.__func__))
        else:
            wrapped = self.wrap(layer, qualname, original)
        self._restore.append((cls, method, original, False))
        setattr(cls, method, wrapped)

    def _patch_everywhere(self, function, layer: str, name: str) -> None:
        wrapped = self.wrap(layer, name, function)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is function:
                    self._restore.append((module, key, function, False))
                    setattr(module, key, wrapped)
                elif isinstance(value, dict):
                    for entry, item in list(value.items()):
                        if item is function:
                            self._restore.append((value, entry, function, True))
                            value[entry] = wrapped

    # ------------------------------------------------------------------ #
    def span_count(self) -> int:
        return len(self.span_start)

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.calls`` and ``<layer>.self_ms`` over the timed operations."""
        metrics: dict[str, float] = {}
        for index, layer in enumerate(LAYERS):
            metrics[f"{layer}.calls"] = self.calls[index]
            metrics[f"{layer}.self_ms"] = self.self_s[index] * 1e3
        return metrics

    def entry_ms(self, *qualnames: str) -> float:
        """Inclusive milliseconds spent in calls entering a layer via these names."""
        return sum(self.entry_s.get(name, 0.0) for name in qualnames) * 1e3

    def entry_calls(self, *qualnames: str) -> int:
        """Calls entering a layer via these names."""
        return sum(self.entry_count.get(name, 0) for name in qualnames)

    def attributed_s(self) -> float:
        return sum(self.self_s)

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line of a gzip file."""
        names = self._names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tparent\top\tname\tstart_s\tend_s\n")
            for index in range(len(self.span_start)):
                out.write(
                    f"{index}\t{self.span_parent[index]}\t{self.span_op[index]}\t"
                    f"{names[self.span_name[index]]}\t{self.span_start[index]:.9f}\t"
                    f"{self.span_end[index]:.9f}\n"
                )


def _with_subclasses(base: type) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


# ---------------------------------------------------------------------- #
# counter snapshots
# ---------------------------------------------------------------------- #
def _heap_totals() -> dict[str, float]:
    totals = {"inserts": 0, "reads": 0, "pages": 0, "used_bytes": 0, "dead_bytes": 0}
    for obj in gc.get_objects():
        if isinstance(obj, HeapFile):
            stats = obj.stats
            totals["inserts"] += stats["inserts"]
            totals["reads"] += stats["reads"]
            totals["pages"] += stats["pages"]
            # HeapFile exposes no dead-byte total; its pages do.
            for page in obj._pages:
                totals["used_bytes"] += page.used_bytes
                totals["dead_bytes"] += page.dead_bytes
    return totals


def snapshot_counters(engine: DataSpread) -> dict[str, float]:
    """Every work counter the engine's own stats objects expose, flattened."""
    counters: dict[str, float] = {}
    for prefix, stats in (
        ("graph", engine.dependency_graph.stats),
        ("aggregates", engine.aggregate_store.stats),
        ("compute", engine.compute_scheduler.stats),
    ):
        for key, value in vars(stats).items():
            counters[f"{prefix}.{key}"] = value
    parse = engine.evaluator.parse_cache_stats()
    counters["parse.hits"] = parse.hits
    counters["parse.misses"] = parse.misses
    counters["cache.hits"] = engine.cache.hits
    counters["cache.misses"] = engine.cache.misses
    counters["model.bulk_reads"] = engine.model.bulk_reads
    counters["model.cells_read"] = engine.model.cells_read
    counters["engine.recompute_passes"] = engine.recompute_passes
    counters["engine.stale_serves"] = engine.stale_serves
    backend = engine.storage_backend
    counters["wal.frames_appended"] = getattr(backend, "frames_appended", 0)
    counters["wal.durable_commits"] = backend.durable_commits
    counters["wal.retries"] = getattr(backend, "io_retries", 0)
    counters["wal.log_bytes"] = (
        os.path.getsize(backend.log_path) if hasattr(backend, "log_path") else 0)
    for key, value in _heap_totals().items():
        counters[f"heap.{key}"] = value
    return counters


def counter_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}
