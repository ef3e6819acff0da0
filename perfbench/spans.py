"""Span recording from outside the program, and the arithmetic over spans.

The benchmark wraps public functions of the ``repro`` modules at run time
(:func:`install`), so the program itself carries no tracing code.  Each call
of a wrapped function becomes one :class:`Span`: a name, start and end on the
``time.perf_counter`` clock, the span that was open when it started (its
parent) and the id of the benchmark op it belongs to.  The parent is kept in
a context variable, so spans opened in a thread started with
``asyncio.to_thread`` (the service daemon's jobs) nest under the span that
started the thread.

A span's self time is its duration minus the part of its interval that its
child spans cover; children may overlap each other (threads), so the covered
part is the length of the union of their intervals.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = [
    "Layer",
    "LAYERS",
    "Recorder",
    "Span",
    "covered",
    "install",
    "layer_metrics",
    "self_times",
    "tail_percentile",
    "traced_op",
]


@dataclass
class Span:
    """One recorded call of a wrapped function."""

    name: str
    id: int
    parent: int | None
    op: int | None
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Wall seconds from start to end."""
        return self.end - self.start


class Recorder:
    """Collects spans in memory; one recorder per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._op: int | None = None

    def open(self, name: str) -> tuple[Span, contextvars.Token]:
        """Start a span under the current one and make it current."""
        span = Span(name, next(self._ids), self._current.get(), self._op)
        token = self._current.set(span.id)
        span.start = time.perf_counter()
        return span, token

    def close(self, span: Span, token: contextvars.Token) -> None:
        """End ``span`` and restore the span that was current before it."""
        span.end = time.perf_counter()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Record one benchmark op as the root span ``op`` of its spans."""
        self._op = op_id
        span, token = self.open("op")
        try:
            yield span
        finally:
            self.close(span, token)
            self._op = None

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` wrapped so that each call records a span named ``name``.

        ``observe(args, kwargs)`` runs before the call and returns a function
        of the call's result that returns the span's attributes.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = observe(args, kwargs) if observe is not None else None
            span, token = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span, token)
            if finish is not None:
                span.attrs = finish(result)
            return result

        return wrapper


# ---------------------------------------------------------------- the layers
# Batches and dispatches return one result per request, in order.
def _observe_requests(args, kwargs):
    return lambda result: {"requests": len(result)}


def _observe_dispatch(args, kwargs):
    executor = args[0]
    return lambda result: {"lanes": len(result), "choice": getattr(executor, "last_choice", None)}


def _observe_lookup(args, kwargs):
    return lambda result: {"hit": result is not None}


def _observe_store(args, kwargs):
    stats = args[0].stats
    before = (stats.bytes_read, stats.bytes_written)
    return lambda result: {
        "hit": result is not None,
        "bytes_read": stats.bytes_read - before[0],
        "bytes_written": stats.bytes_written - before[1],
    }


@dataclass(frozen=True)
class Layer:
    """A public function of a ``repro`` module that the traced run wraps."""

    span: str
    module: str
    attr: str
    observe: Callable | None = None


_ACQUISITION = (
    "expected_improvement",
    "probability_of_improvement",
    "upper_confidence_bound",
    "gp_ucb_beta",
    "crgp_ucb_kappa",
    "crgp_ucb_beta",
)

#: Every wrapped function, by layer.
LAYERS: tuple[Layer, ...] = (
    Layer("engine.run_batch", "repro.engine.engine", "MeasurementEngine.run_batch", _observe_requests),
    Layer("executors.auto", "repro.engine.executors", "AutoExecutor.map_requests", _observe_dispatch),
    Layer("executors.vectorized", "repro.engine.executors", "VectorizedExecutor.map_requests", _observe_dispatch),
    Layer("executors.sharded", "repro.engine.executors", "ShardedExecutor.map_requests", _observe_dispatch),
    Layer("sim.simulate_batch", "repro.sim.batch", "simulate_batch"),
    Layer("gp.fit", "repro.models.gp", "GaussianProcessRegressor.fit"),
    Layer("gp.predict", "repro.models.gp", "GaussianProcessRegressor.predict"),
    Layer("bnn.fit", "repro.models.bnn", "BayesianNeuralNetwork.fit"),
    Layer("bnn.predict", "repro.models.bnn", "BayesianNeuralNetwork.predict"),
    Layer("bnn.sample_predict", "repro.models.bnn", "BayesianNeuralNetwork.sample_predict"),
    *(Layer("acquisition", "repro.core.acquisition", name) for name in _ACQUISITION),
    Layer("stage1", "repro.core.simulator_learning", "SimulatorParameterSearch.run"),
    Layer("stage2", "repro.core.offline_training", "OfflineConfigurationTrainer.run"),
    Layer("stage3", "repro.core.online_learning", "OnlineConfigurationLearner.run"),
    Layer("eval.run_seed", "repro.evalharness.runner", "EvalRunner.run_seed"),
    Layer("eval.gate", "repro.evalharness.gate", "run_gate"),
    Layer("cache.get", "repro.engine.cache", "MeasurementCache.get", _observe_lookup),
    Layer("cache.put", "repro.engine.cache", "MeasurementCache.put"),
    Layer("store.get", "repro.service.store", "ResultStore.get", _observe_store),
    Layer("store.put", "repro.service.store", "ResultStore.put", _observe_store),
    Layer("jobs.execute", "repro.service.jobs", "execute_job"),
)


def install(recorder: Recorder, layers: Sequence[Layer] = LAYERS) -> Callable[[], None]:
    """Wrap every layer function for ``recorder``; returns the undo function.

    A method is replaced on its class.  A module-level function is replaced
    in its own module and in every loaded ``repro`` module that bound it by
    name (``from x import y``), since those modules call their own binding.
    """
    undo: list[Callable[[], None]] = []
    for layer in layers:
        module = importlib.import_module(layer.module)
        owner_name, _, attr = layer.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, recorder.wrap(layer.span, original, layer.observe))
            undo.append(functools.partial(setattr, owner, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = recorder.wrap(layer.span, original, layer.observe)
        for name, loaded in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapper)
                    undo.append(functools.partial(setattr, loaded, binding, original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


@contextlib.contextmanager
def traced_op(recorder: Recorder, op_id: int):
    """Run one op with every layer wrapped, recorded under op ``op_id``."""
    uninstall = install(recorder)
    try:
        with recorder.op(op_id):
            yield
    finally:
        uninstall()


# --------------------------------------------------------------- arithmetic
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the time its children cover, by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def tail_percentile(n_samples: int, levels: Sequence[float] = (50, 90, 95, 99, 99.9)) -> float | None:
    """The highest of ``levels`` with at least ten of ``n_samples`` beyond it.

    The samples beyond the ``p``-th percentile are the ``n - ceil(n * p /
    100)`` largest ones; ``None`` when not even the median has ten beyond it.
    """
    best = None
    for level in sorted(levels):
        if n_samples - math.ceil(n_samples * level / 100.0 - 1e-9) >= 10:
            best = level
    return best


_CHOICES = ("vectorized", "sharded", "serial", "process")
_COUNTED = ("gp.fit", "gp.predict", "bnn.fit", "bnn.predict", "bnn.sample_predict",
            "sim.simulate_batch", "cache.get", "cache.put", "store.get", "store.put")
_BUSY = ("executors.vectorized", "executors.sharded", "sim.simulate_batch", "gp.fit",
         "gp.predict", "bnn.fit", "bnn.predict", "bnn.sample_predict", "acquisition",
         "eval.gate", "cache.get", "cache.put", "store.get", "store.put")
_SELF = ("engine.run_batch", "stage1", "stage2", "stage3", "eval.run_seed", "jobs.execute")


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (the op span included).

    ``.calls`` counts spans, ``.s`` is busy time (the union of the layer's
    span intervals, so recursion is not counted twice), ``.self_s`` sums
    self times, and ``unattributed_s`` is the part of the op that no span
    covers.
    """
    root = next(span for span in spans if span.name == "op")
    inner = [span for span in spans if span is not root]
    by_name: dict[str, list[Span]] = {}
    for span in inner:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)

    def busy(name: str) -> float:
        return covered(((s.start, s.end) for s in by_name.get(name, ())), root.start, root.end)

    metrics: dict[str, float] = {}
    batches = by_name.get("engine.run_batch", [])
    metrics["engine.run_batch.calls"] = float(len(batches))
    metrics["engine.requests"] = float(sum(s.attrs.get("requests", 0) for s in batches))
    batch_ids = {s.id for s in batches}
    lanes = [
        s.attrs["lanes"]
        for s in inner
        if s.name.startswith("executors.") and s.parent in batch_ids and "lanes" in s.attrs
    ]
    metrics["engine.lanes.p50"] = float(statistics.median(lanes)) if lanes else 0.0
    for choice in _CHOICES:
        metrics[f"executors.auto.choice.{choice}"] = float(
            sum(1 for s in by_name.get("executors.auto", ()) if s.attrs.get("choice") == choice)
        )
    for name in _COUNTED:
        metrics[f"{name}.calls"] = float(len(by_name.get(name, ())))
    for name in _BUSY:
        metrics[f"{name}.s"] = busy(name)
    for name in _SELF:
        metrics[f"{name}.self_s"] = sum(own[s.id] for s in by_name.get(name, ()))
    for tier in ("cache", "store"):
        gets = by_name.get(f"{tier}.get", [])
        hits = sum(1 for s in gets if s.attrs.get("hit"))
        metrics[f"{tier}.hit_ratio"] = hits / len(gets) if gets else 0.0
    store_spans = by_name.get("store.get", []) + by_name.get("store.put", [])
    metrics["store.bytes_read"] = float(sum(s.attrs.get("bytes_read", 0) for s in store_spans))
    metrics["store.bytes_written"] = float(sum(s.attrs.get("bytes_written", 0) for s in store_spans))
    metrics["unattributed_s"] = root.duration - covered(
        ((s.start, s.end) for s in inner), root.start, root.end
    )
    return metrics
