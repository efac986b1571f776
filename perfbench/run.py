"""The repository benchmark: one command, three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sheet-navigate --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs it untraced and then again with the layer
wrappers installed, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced end-to-end values).  Earlier lines of
standard output are a human-readable report, one metric per line with its
unit and sample count; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
with 1 when any output disagrees with its oracle.  Every reported time is
process CPU time (see ``workloads.Loop``); the report lines also print the
timed ops' wall-time p50 and p90, which are not gated.

``perfbench/spec.json`` records why each workload exists, each metric's
direction and minimum sample count, the per-layer metric -> end-to-end
metric map and the WAL flush policy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Where durable workspaces and written-out spans go (inside the checkout).
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

#: A p90 is reported only with at least this many samples (ten beyond it).
MIN_SAMPLES = 100
TIMED_OPS = ("edit_ack", "read", "structural", "fresh", "query")
#: Units of the workloads' scalar metrics.
UNITS = {"setup_s": "s", "ingest_cells_per_s": "cells/s", "recovery_s": "s",
         "storage_bytes_per_cell": "B/cell"}


def _load_program():
    """Import the engine from ``src/`` next to this directory, or exit 2."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no engine sources at {source}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, source)
    sys.path.insert(0, HERE)
    import layers
    import workloads
    return layers, workloads


def end_to_end(run, *, min_samples: int = MIN_SAMPLES) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric the run's ops produced: name -> (value, unit, samples)."""
    metrics: dict[str, tuple[float, str, int]] = {}
    for kind in TIMED_OPS:
        samples = run.samples.get(kind, [])
        if not samples:
            continue
        if len(samples) < min_samples:
            raise ValueError(f"{kind}: {len(samples)} samples, a p90 needs {min_samples}")
        metrics[f"{kind}_ms_p50"] = (statistics.median(samples), "ms", len(samples))
        metrics[f"{kind}_ms_p90"] = (statistics.quantiles(samples, n=10)[8], "ms", len(samples))
    for name, value in run.scalars.items():
        if name in UNITS:
            metrics[name] = (value, UNITS[name], run.scalar_samples.get(name, 1))
    metrics["failed_op_ratio"] = (run.failed / max(run.attempted, 1), "ratio", run.attempted)
    return metrics


def wall_clock(run) -> dict[str, tuple[float, str, int]]:
    """The timed ops' wall-time p50 and p90, printed beside the CPU-time metrics."""
    metrics = {}
    for kind in TIMED_OPS:
        samples = run.wall_samples.get(kind, [])
        if len(samples) >= 2:
            metrics[f"{kind}_wall_ms_p50"] = (statistics.median(samples), "ms", len(samples))
            metrics[f"{kind}_wall_ms_p90"] = (
                statistics.quantiles(samples, n=10)[8], "ms", len(samples))
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run, tracer, untraced: dict, traced: dict,
              loaded: tuple[str, ...]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, plus the tracing overhead.

    ``loaded`` names the layers the workload exists to load.
    """
    c = run.counters
    entry = tracer.entry_ms
    metrics = {name: (value, "count" if name.endswith(".calls") else "ms")
               for name, value in tracer.layer_metrics().items()}
    edits = len(run.samples.get("edit_ack", []))
    returned = sum(run.extra.get("cells_returned", []))
    query_rows = sum(run.extra.get("query_rows", []))
    heap_used = run.final_counters.get("heap.used_bytes", 0)
    metrics.update({
        "models.read_ms": (entry("HybridDataModel.get_values", "HybridDataModel.get_values_dense",
                                 "HybridDataModel.get_cells"), "ms"),
        "models.write_ms": (entry("HybridDataModel.update_cell",
                                  "HybridDataModel.update_cells"), "ms"),
        "models.structural_ms": (entry(
            "HybridDataModel.insert_row_after", "HybridDataModel.insert_column_after",
            "HybridDataModel.delete_row", "HybridDataModel.delete_column"), "ms"),
        "models.cells_read_per_cell_returned": (_ratio(c["model.cells_read"], returned), "ratio"),
        "models.regions": (run.scalars["regions"], "count"),
        "storage.heap.update_ms": (entry("HeapFile.update"), "ms"),
        "storage.heap.pages": (run.final_counters.get("heap.pages", 0), "count"),
        "storage.heap.dead_bytes_ratio": (
            _ratio(run.final_counters.get("heap.dead_bytes", 0), heap_used), "ratio"),
        "decomposition.regions": (run.scalars.get("decomposition_regions", 0), "count"),
        "formula.dependencies.range_probes_per_lookup": (
            _ratio(c["graph.range_probes"], c["graph.lookups"]), "ratio"),
        "formula.dependencies.index_rebuilds": (c["graph.index_rebuilds"], "count"),
        "compute.mark_dirty_ms": (entry("ComputeScheduler.mark_dirty"), "ms"),
        "compute.scheduled_per_edit": (_ratio(c["compute.scheduled"], edits), "ratio"),
        "compute.coalesced": (c["compute.coalesced"], "count"),
        "compute.evaluated": (c["compute.evaluated"], "count"),
        "compute.queue_depth_p90": (
            statistics.quantiles(run.extra["queue_depth"], n=10)[8]
            if len(run.extra.get("queue_depth", [])) >= 2 else 0.0, "count"),
        "compute.shed": (c["compute.shed"], "count"),
        "formula.evaluator.evaluations": (
            tracer.entry_calls("Evaluator.evaluate", "Evaluator.evaluate_node"), "count"),
        "formula.evaluator.parse_hit_ratio": (
            _ratio(c["parse.hits"], c["parse.hits"] + c["parse.misses"]), "ratio"),
        "formula.aggregates.deltas": (c["aggregates.deltas"], "count"),
        "formula.aggregates.builds": (c["aggregates.builds"], "count"),
        "formula.aggregates.fallbacks": (c["aggregates.fallbacks"], "count"),
        "formula.aggregates.hit_ratio": (_ratio(
            c["aggregates.hits"],
            c["aggregates.hits"] + c["aggregates.builds"] + c["aggregates.fallbacks"]), "ratio"),
        "engine.recompute_passes": (c["engine.recompute_passes"], "count"),
        "engine.cache.hit_ratio": (
            _ratio(c["cache.hits"], c["cache.hits"] + c["cache.misses"]), "ratio"),
        "engine.cache.misses": (c["cache.misses"], "count"),
        "service.stale_serves": (c["engine.stale_serves"], "count"),
        "query.plan_ms": (entry("compile_select"), "ms"),
        "query.exec_ms": (entry("run_plan", "QueryResult.to_table"), "ms"),
        "query.cells_read_per_row_returned": (
            _ratio(sum(run.extra.get("query_cells_read", [])), query_rows), "ratio"),
        "storage.wal.fsyncs": (c["wal.durable_commits"], "count"),
        "storage.wal.bytes_per_cell": (sum(run.extra.get("wal_bytes_per_cell", [])), "B/cell"),
        "storage.wal.retries": (c["wal.retries"], "count"),
        "storage.snapshot.bytes": (sum(run.extra.get("snapshot_bytes", [])), "B"),
        "trace.attributed_ratio": (_ratio(tracer.attributed_s(), run.scalars["timed_s"]),
                                   "ratio"),
        "trace.loaded_layers_ratio": (_ratio(
            sum(metrics[f"{layer}.self_ms"][0] for layer in loaded) / 1e3,
            run.scalars["timed_s"]), "ratio"),
        "trace.spans": (tracer.span_count(), "count"),
    })
    for name, (value, unit, _) in untraced.items():
        if unit in ("ms", "s") and name in traced:
            metrics[f"trace.overhead.{name}"] = (traced[name][0] - value, unit)
    return metrics


def _print_report(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        samples = f"  samples={entry[2]}" if len(entry) > 2 else ""
        print(f"{name:48s} {value:16.6f} {unit}{samples}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    layers, workloads = _load_program()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")

    def execute(tracer=None):
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            return workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, tracer=tracer, work_dir=work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    run = execute()
    untraced = end_to_end(run)
    untraced["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"inputs {run.inputs_digest}")
    _print_report("end-to-end (untraced)", untraced)
    _print_report("wall clock (untraced, not gated)", wall_clock(run))
    attempted, failed, errors = run.attempted, run.failed, list(run.errors)
    if args.trace:
        del run
        gc.collect()
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced_run = execute(tracer)
        finally:
            tracer.uninstall()
        traced = end_to_end(traced_run)
        _print_report("end-to-end (traced)", traced)
        layer_metrics = per_layer(traced_run, tracer, untraced, traced,
                                  workloads.LOADED_LAYERS[args.workload])
        _print_report("per-layer (traced)", layer_metrics)
        if tracer.missing:
            print("hooks not found: " + ", ".join(tracer.missing))
        os.makedirs(WORK_DIR, exist_ok=True)
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.tsv.gz")
        tracer.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
        attempted += traced_run.attempted
        failed += traced_run.failed
        errors += traced_run.errors
        reported = {m["name"]: layer_metrics[m["name"]] for m in declared["per_layer"]}
    else:
        reported = {m["name"]: untraced[m["name"]][:2] for m in declared["end_to_end"]}
    for message in errors:
        print(f"oracle: {message}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
