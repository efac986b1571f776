"""The benchmark's own checks, run at a tiny scale with every oracle on.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from repro.engine.dataspread import DataSpread  # noqa: E402

TINY = {
    "NAV_ROWS": 120, "NAV_COLUMNS": 12, "NAV_FORMULAS": 20, "NAV_SETUPS": 1,
    "NAV_STEPS_PER_SECOND": 24,
    "FAN_ROWS": 200, "FAN_HOT": 300, "FAN_SECOND": 150, "FAN_SETUPS": 1,
    "FAN_WINDOWS_PER_SECOND": 2,
    "ING_ROWS": 1_200, "ING_BLOCK": 300, "ING_SETUPS": 1, "ING_TAIL": 5,
    "ING_RECOVERIES": 1, "ING_BLOCKS_PER_SECOND": 1,
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)

    def run_workload(name: str, seed: int = 3, tracer=None):
        work_dir = str(tmp_path / f"{name}-{seed}")
        shutil.rmtree(work_dir, ignore_errors=True)
        return workloads.WORKLOADS[name](seed, 1, work_dir=work_dir, tracer=tracer)

    return run_workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_oracle(tiny, name):
    run = tiny(name)
    assert run.failed == 0, run.errors
    assert run.attempted > 0
    metrics = bench.end_to_end(run, min_samples=1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    missing = {m["name"] for m in declared["end_to_end"]} - set(metrics) - {"peak_rss_mb"}
    assert not missing
    assert metrics["failed_op_ratio"][0] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_planted_wrong_value_fails_the_oracle(tiny, monkeypatch, name):
    original = DataSpread.get_range_values
    planted = []

    def corrupted(self, region):
        grid = original(self, region)
        if not planted:
            planted.append(region)
            grid[0][0] = "planted"
        return grid

    monkeypatch.setattr(DataSpread, "get_range_values", corrupted)
    run = tiny(name)
    assert planted
    assert run.failed >= 1
    assert bench.end_to_end(run, min_samples=1)["failed_op_ratio"][0] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_inputs_and_counters(tiny, name):
    first, second = tiny(name, seed=5), tiny(name, seed=5)
    assert first.inputs_digest == second.inputs_digest
    assert first.counters == second.counters
    assert first.attempted == second.attempted
    assert {k: len(v) for k, v in first.samples.items()} == {
        k: len(v) for k, v in second.samples.items()}
    assert tiny(name, seed=6).inputs_digest != first.inputs_digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_loads_its_layers_and_restores_the_classes(tiny, name):
    set_value = DataSpread.__dict__["set_value"]
    tracer = layers.Tracer()
    tracer.install()
    try:
        run = tiny(name, tracer=tracer)
    finally:
        tracer.uninstall()
    assert DataSpread.__dict__["set_value"] is set_value
    assert not tracer.missing
    assert run.failed == 0, run.errors
    metrics = bench.per_layer(run, tracer, {}, {}, workloads.LOADED_LAYERS[name])
    for layer in workloads.LOADED_LAYERS[name]:
        assert metrics[f"{layer}.calls"][0] > 0, layer
    # Self times never exceed the timed operations they ran in.
    assert 0.5 < metrics["trace.attributed_ratio"][0] <= 1.0
    assert 0 < metrics["trace.loaded_layers_ratio"][0] <= metrics["trace.attributed_ratio"][0]


def test_self_time_excludes_children():
    tracer = layers.Tracer()

    def child():
        return sum(range(20_000))

    traced_child = tracer.wrap("models", "child", child)

    def parent():
        return traced_child() + traced_child()

    traced_parent = tracer.wrap("engine", "parent", parent)
    tracer.op_id = 1
    traced_parent()
    tracer.op_id = 0
    traced_parent()  # outside a timed operation: not recorded
    starts, ends = tracer.span_start, tracer.span_end
    assert tracer.span_count() == 3
    assert list(tracer.span_parent) == [-1, 0, 0]
    total = ends[0] - starts[0]
    children = (ends[1] - starts[1]) + (ends[2] - starts[2])
    engine = layers.LAYERS.index("engine")
    assert tracer.self_s[engine] == pytest.approx(total - children)
    assert tracer.calls == [2 if i == layers.LAYERS.index("models") else 1 if i == engine else 0
                            for i in range(len(layers.LAYERS))]


def test_p90_needs_enough_samples(tiny):
    run = tiny("formula-fanout")
    with pytest.raises(ValueError):
        bench.end_to_end(run)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sheet-navigate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout
