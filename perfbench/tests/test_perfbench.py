"""Tests of the benchmark's own arithmetic, wrapping and seed plumbing."""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import Layer, Recorder, Span, covered, install, layer_metrics, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, sid, parent, start, end, **attrs):
    return Span(name, sid, parent, 0, start, end, attrs)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1, 2), (4, 6)], 0, 10) == pytest.approx(3.0)
    assert covered([(1, 5), (2, 3), (4, 7)], 0, 10) == pytest.approx(6.0)
    assert covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span("op", 1, None, 0.0, 10.0),
        _span("a", 2, 1, 1.0, 4.0),
        _span("b", 3, 1, 3.0, 6.0),  # overlaps a (a thread running beside it)
        _span("c", 4, 2, 2.0, 3.0),  # nested inside a
        _span("d", 5, 1, 9.0, 12.0),  # outlives its parent
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)  # a∪b covers 1..6, d covers 9..10
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(3.0)


def test_layer_metrics_busy_time_counts_recursion_once():
    spans = [
        _span("op", 1, None, 0.0, 10.0),
        _span("gp.fit", 2, 1, 1.0, 5.0),
        _span("gp.fit", 3, 2, 2.0, 3.0),
        _span("engine.run_batch", 4, 1, 6.0, 8.0, requests=4),
        _span("executors.auto", 5, 4, 6.5, 7.5, lanes=4, choice="sharded"),
        _span("executors.sharded", 6, 5, 6.6, 7.4, lanes=4),
    ]
    metrics = layer_metrics(spans)
    assert metrics["gp.fit.calls"] == 2
    assert metrics["gp.fit.s"] == pytest.approx(4.0)
    assert metrics["engine.run_batch.self_s"] == pytest.approx(1.0)
    assert metrics["engine.requests"] == 4
    assert metrics["engine.lanes.p50"] == 4
    assert metrics["executors.auto.choice.sharded"] == 1
    assert metrics["executors.sharded.s"] == pytest.approx(0.8)
    assert metrics["unattributed_s"] == pytest.approx(10.0 - 4.0 - 2.0)


@pytest.mark.parametrize(
    "n, level",
    [(0, None), (19, None), (20, 50), (99, 50), (100, 90), (199, 90), (200, 95),
     (999, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, level):
    assert tail_percentile(n) == level


def test_install_patches_from_imports_and_follows_threads():
    import repro.core.acquisition as acquisition
    import repro.core.simulator_learning as stage1

    original = acquisition.expected_improvement
    recorder = Recorder()
    uninstall = install(recorder, [Layer("acquisition", "repro.core.acquisition", "expected_improvement")])
    try:
        assert stage1.expected_improvement is acquisition.expected_improvement
        assert stage1.expected_improvement is not original

        async def in_thread():
            return await asyncio.to_thread(stage1.expected_improvement, [0.0], [1.0], 0.0)

        with recorder.op(7) as root:
            asyncio.run(in_thread())
    finally:
        uninstall()
    assert stage1.expected_improvement is original
    (span,) = [s for s in recorder.spans if s.name == "acquisition"]
    assert span.parent == root.id and span.op == 7


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs(name):
    workload = WORKLOADS[name]
    assert workload.inputs(3) == workload.inputs(3)
    assert workload.inputs(3) != workload.inputs(4)


def test_same_seed_gives_same_outputs(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from run import isolate

    workload = WORKLOADS["eval-catalog"]
    outcomes = []
    for index in range(2):
        isolate()
        workdir = tmp_path / str(index)
        workdir.mkdir()
        outcomes.append(workload.inspect(5, workdir, workload.op(5, workdir)))
    isolate()
    assert outcomes[0].problems == outcomes[1].problems == []
    assert outcomes[0].digest == outcomes[1].digest
