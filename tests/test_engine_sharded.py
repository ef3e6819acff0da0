"""Tests for the sharded parallel-vectorized executor and adaptive selection.

Four contracts are pinned here:

* **Shard equivalence** — a sharded batch is *byte-identical* to the
  whole-batch vectorized pass, on every catalog scenario (the per-lane
  seed-stream slicing contract of :mod:`repro.sim.batch`).
* **Shard-count determinism** — results do not depend on how many shards
  the batch is split into (1, 2, 3, or one per request).
* **Cache composition** — partial cache hits shrink the dispatched shards,
  and fully-cached batches never touch (or spawn) a process pool; sharded
  and vectorized results share cache entries and serve each other.
* **Adaptive selection** — :func:`choose_executor` and the ``auto`` kind
  pick vectorized for tiny batches and sharded for large batches on
  multi-core machines, and the persistent worker pools are reused across
  batches, environments and engines rather than respawned, and always run
  against the caller's current environment.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    MeasurementCache,
    MeasurementEngine,
    MeasurementRequest,
    choose_executor,
    pool_diagnostics,
    shutdown_worker_pools,
)
from repro.engine import executors as executors_module
from repro.engine.executors import ShardedExecutor
from repro.scenarios import list_scenarios
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario

DURATION = 6.0


def _requests(config, n=6, duration=DURATION, base_seed=0):
    return [
        MeasurementRequest(config=config, traffic=1, duration=duration, seed=base_seed + seed)
        for seed in range(n)
    ]


def _results_identical(a, b) -> bool:
    return (
        np.array_equal(a.latencies_ms, b.latencies_ms)
        and a.frames_generated == b.frames_generated
        and a.frames_completed == b.frames_completed
        and a.duration_s == b.duration_s
        and a.config == b.config
        and a.traffic == b.traffic
        and a.ul_throughput_mbps == b.ul_throughput_mbps
        and a.dl_throughput_mbps == b.dl_throughput_mbps
        and a.ul_packet_error_rate == b.ul_packet_error_rate
        and a.dl_packet_error_rate == b.dl_packet_error_rate
        and a.ping_delay_ms == b.ping_delay_ms
        and a.stage_breakdown_ms == b.stage_breakdown_ms
    )


class _OffsetEnvironment:
    """A fingerprint-less environment whose latency offset is mutable.

    ``run_requests`` runs each request through the scalar ``run`` so the
    sharded executor dispatches it to the pool, and the in-process
    vectorized kind stays the byte-identical reference for every other
    kind.
    """

    def __init__(self, simulator):
        self.simulator = simulator
        self.offset_ms = 0.0

    def run(self, config, traffic=None, duration=None, seed=None):
        result = self.simulator.run(config, traffic=traffic, duration=duration, seed=seed)
        result.latencies_ms = result.latencies_ms + self.offset_ms
        return result

    def run_requests(self, requests):
        return [
            self.run(request.config, request.traffic, request.duration, request.seed)
            for request in requests
        ]


def _sharded_engine(environment, shards, max_workers=None, cache=False):
    """An engine whose sharded executor is forced to use exactly ``shards``."""
    engine = MeasurementEngine(
        environment,
        executor="sharded",
        max_workers=max_workers if max_workers is not None else max(1, shards),
        cache=cache,
    )
    engine.executor.shards = shards
    return engine


class TestShardedEquivalence:
    @pytest.mark.parametrize(
        "spec", list_scenarios(), ids=lambda spec: spec.name
    )
    def test_byte_identical_to_vectorized_on_every_catalog_scenario(self, spec):
        simulator = spec.primary.make_simulator(seed=3)
        config = spec.primary.deployed_config
        requests = [
            MeasurementRequest(config=config, duration=DURATION, seed=seed) for seed in range(6)
        ]
        vectorized = MeasurementEngine(simulator, executor="vectorized", cache=False)
        sharded = _sharded_engine(simulator, shards=3)
        for a, b in zip(vectorized.run_batch(requests), sharded.run_batch(requests)):
            assert _results_identical(a, b)

    def test_request_overrides_cross_the_shard_boundary(self, simulator, default_config):
        # traffic/duration/scenario overrides resolve inside the worker's
        # vectorized pass exactly as they do in the whole-batch pass.
        other = Scenario(traffic=2, duration_s=DURATION)
        requests = [
            MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=1),
            MeasurementRequest(config=default_config, traffic=2, duration=DURATION, seed=2),
            MeasurementRequest(config=default_config, duration=DURATION / 2, seed=3),
            MeasurementRequest(config=default_config, duration=DURATION, seed=4, scenario=other),
        ]
        vectorized = MeasurementEngine(simulator, executor="vectorized", cache=False)
        sharded = _sharded_engine(simulator, shards=2)
        for a, b in zip(vectorized.run_batch(requests), sharded.run_batch(requests)):
            assert _results_identical(a, b)

    def test_real_network_batches_shard_through_prepare_batch(self, default_config):
        from repro.prototype.testbed import RealNetwork

        scenario = Scenario(traffic=1, duration_s=10.0)
        requests = _requests(default_config)
        vectorized = MeasurementEngine(
            RealNetwork(scenario=scenario, seed=1), executor="vectorized", cache=False
        )
        real = RealNetwork(scenario=scenario, seed=1)
        sharded = _sharded_engine(real, shards=3)
        for a, b in zip(vectorized.run_batch(requests), sharded.run_batch(requests)):
            assert _results_identical(a, b)
        # Domain-manager history is still recorded in the parent process.
        assert len(real.applied_history) == len(requests)


class TestShardCountDeterminism:
    def test_any_shard_count_yields_identical_results(self, simulator, default_config):
        requests = _requests(default_config, n=7)
        reference = _sharded_engine(simulator, shards=1).run_batch(requests)
        for shards in (2, 3, len(requests)):
            results = _sharded_engine(simulator, shards=shards).run_batch(requests)
            for a, b in zip(reference, results):
                assert _results_identical(a, b)

    def test_single_shard_runs_inline_without_pool(self, simulator, default_config, monkeypatch):
        def no_pool(*args, **kwargs):  # pragma: no cover - assertion helper
            raise AssertionError("single-shard batches must not touch the process pool")

        monkeypatch.setattr(executors_module, "_dispatch_to_pool", no_pool)
        engine = _sharded_engine(simulator, shards=1)
        engine.run_batch(_requests(default_config, n=4))
        assert engine.executor.last_shards == 1

    def test_plan_degenerates_on_single_core(self, monkeypatch):
        monkeypatch.setattr(executors_module, "available_parallelism", lambda: 1)
        assert ShardedExecutor(max_workers=4).plan_shards(64) == 1

    def test_plan_scales_with_cores_and_lane_floor(self, monkeypatch):
        monkeypatch.setattr(executors_module, "available_parallelism", lambda: 8)
        executor = ShardedExecutor(max_workers=4)
        assert executor.plan_shards(64) == 4  # capped by max_workers
        assert executor.plan_shards(8) == 2  # lane floor: >= 4 lanes per shard
        assert executor.plan_shards(3) == 1  # too small to amortise dispatch


class TestShardedCacheComposition:
    def test_partial_hits_shrink_the_dispatched_shards(self, simulator, default_config):
        cache = MeasurementCache()
        engine = _sharded_engine(simulator, shards=2, cache=cache)
        requests = _requests(default_config, n=8)
        engine.run_batch(requests[:4])  # prime half the batch
        dispatched: list[int] = []
        original = engine.executor.map_requests

        def recording(environment, pending):
            pending = list(pending)
            dispatched.append(len(pending))
            return original(environment, pending)

        engine.executor.map_requests = recording
        results = engine.run_batch(requests)
        assert dispatched == [4]  # only the misses reached the executor
        assert cache.stats.hits == 4
        assert engine.executed_requests == 8
        fresh = _sharded_engine(simulator, shards=2).run_batch(requests)
        for a, b in zip(results, fresh):
            assert _results_identical(a, b)

    def test_sharded_and_vectorized_share_cache_entries(self, simulator, default_config):
        cache = MeasurementCache()
        requests = _requests(default_config, n=4)
        _sharded_engine(simulator, shards=2, cache=cache).run_batch(requests)
        assert cache.stats.misses == 4
        vectorized = MeasurementEngine(simulator, executor="vectorized", cache=cache)
        vectorized.run_batch(requests)
        assert cache.stats.hits == 4  # every request served from the sharded entries

    @pytest.mark.parametrize("kind", ["sharded", "auto"])
    def test_fully_cached_batches_never_touch_the_pool(
        self, simulator, default_config, kind, monkeypatch
    ):
        cache = MeasurementCache()
        requests = _requests(default_config, n=8)
        # Prime through the in-process executor.
        MeasurementEngine(simulator, executor="vectorized", cache=cache).run_batch(requests)

        def no_pool(*args, **kwargs):  # pragma: no cover - assertion helper
            raise AssertionError("fully-cached batches must not touch the process pool")

        monkeypatch.setattr(executors_module, "_acquire_process_pool", no_pool)
        engine = MeasurementEngine(simulator, executor=kind, max_workers=2, cache=cache)
        if kind == "sharded":
            engine.executor.shards = 2
        else:
            engine.executor.sharded.shards = 2
        results = engine.run_batch(requests)
        assert len(results) == len(requests)
        assert engine.executed_requests == 0

    def test_empty_and_single_request_fast_paths(self, simulator, default_config, monkeypatch):
        def no_pool(*args, **kwargs):  # pragma: no cover - assertion helper
            raise AssertionError("empty/single batches must not touch the process pool")

        monkeypatch.setattr(executors_module, "_acquire_process_pool", no_pool)
        for kind in ("sharded", "auto"):
            engine = MeasurementEngine(simulator, executor=kind, max_workers=2, cache=False)
            assert engine.run_batch([]) == []
            [result] = engine.run_batch(_requests(default_config, n=1))
            assert result.latencies_ms.size > 0


class TestAdaptiveSelection:
    def test_policy_table(self, simulator):
        scalar_only = object()
        # vector-capable environments
        assert choose_executor(1, cores=8, environment=simulator) == "vectorized"
        assert choose_executor(7, cores=8, environment=simulator) == "vectorized"
        assert choose_executor(8, cores=8, environment=simulator) == "sharded"
        assert choose_executor(256, cores=1, environment=simulator) == "vectorized"
        # scalar-only environments have nothing to shard: in-process fallback
        assert choose_executor(2, cores=8, environment=scalar_only) == "vectorized"
        assert choose_executor(64, cores=8, environment=scalar_only) == "vectorized"
        assert choose_executor(64, cores=1, environment=scalar_only) == "vectorized"
        # no environment: assume vector-capable
        assert choose_executor(16, cores=4) == "sharded"

    def test_auto_picks_vectorized_for_tiny_and_sharded_for_large(
        self, simulator, default_config, monkeypatch
    ):
        monkeypatch.setattr(executors_module, "available_parallelism", lambda: 4)
        engine = MeasurementEngine(simulator, executor="auto", max_workers=4, cache=False)
        engine.executor.sharded.shards = 2  # force the pool on any host
        engine.run_batch(_requests(default_config, n=2))
        assert engine.executor.last_choice == "vectorized"
        engine.run_batch(_requests(default_config, n=8, base_seed=50))
        assert engine.executor.last_choice == "sharded"

        class ScalarOnly:
            scenario = Scenario()

            def __init__(self, inner):
                self._inner = inner

            def run(self, config, traffic=None, duration=None, seed=None):
                return self._inner.run(config, traffic=traffic, duration=duration, seed=seed)

            def collect_latencies(self, config, **kwargs):
                return self._inner.collect_latencies(config, **kwargs)

            def fingerprint(self):
                return ("scalar-only",) + self._inner.fingerprint()

        scalar_engine = MeasurementEngine(
            ScalarOnly(simulator), executor="auto", max_workers=4, cache=False
        )
        requests = _requests(default_config, n=8, base_seed=90)
        results = scalar_engine.run_batch(requests)
        assert scalar_engine.executor.last_choice == "vectorized"
        for request, result in zip(requests, results):
            direct = simulator.run(
                request.config, traffic=request.traffic, duration=request.duration,
                seed=request.seed,
            )
            assert _results_identical(direct, result)

    def test_auto_shares_cache_entries_with_vectorized(self, simulator, default_config):
        cache = MeasurementCache()
        requests = _requests(default_config, n=4)
        MeasurementEngine(simulator, executor="vectorized", cache=cache).run_batch(requests)
        auto = MeasurementEngine(simulator, executor="auto", cache=cache)
        auto.run_batch(requests)
        assert cache.stats.hits == 4

    def test_default_engine_kind_is_auto(self, simulator, monkeypatch):
        monkeypatch.delenv("ATLAS_ENGINE_EXECUTOR", raising=False)
        assert MeasurementEngine(simulator, cache=False).executor_kind == "auto"


class TestPersistentPools:
    def test_pools_survive_batches_engines_and_shutdown(self, default_config, monkeypatch):
        monkeypatch.setattr(executors_module, "available_parallelism", lambda: 2)
        shutdown_worker_pools()
        scenario = Scenario(traffic=1, duration_s=10.0)
        simulator = NetworkSimulator(scenario=scenario, seed=7)
        created_before = pool_diagnostics()["pools_created"]
        engine = _sharded_engine(simulator, shards=2, max_workers=2)
        engine.run_batch(_requests(default_config, n=4))
        engine.run_batch(_requests(default_config, n=4, base_seed=100))
        engine.shutdown()  # engine-level shutdown must leave the pool warm
        # A different engine (and executor kind) with the same worker count
        # and an equal-content environment reuses the very same pool.
        auto = MeasurementEngine(
            NetworkSimulator(scenario=scenario, seed=7),
            executor="auto",
            max_workers=2,
            cache=False,
        )
        auto.run_batch(_requests(default_config, n=8, base_seed=200))
        assert auto.executor.last_choice == "sharded"
        diagnostics = pool_diagnostics()
        assert diagnostics["pools_created"] == created_before + 1
        assert diagnostics["live_pools"] >= 1
        shutdown_worker_pools()
        assert pool_diagnostics()["live_pools"] == 0

    def test_environment_change_reuses_the_pool(self, default_config):
        shutdown_worker_pools()
        scenario = Scenario(traffic=1, duration_s=10.0)
        environments = [NetworkSimulator(scenario=scenario, seed=seed) for seed in (1, 2)]
        created_before = pool_diagnostics()["pools_created"]
        for environment in environments:
            expected = MeasurementEngine(
                environment, executor="vectorized", cache=False
            ).run_batch(_requests(default_config, n=4))
            results = _sharded_engine(environment, shards=2).run_batch(
                _requests(default_config, n=4)
            )
            # Each batch runs against its own environment, byte for byte.
            for a, b in zip(expected, results):
                assert _results_identical(a, b)
        assert pool_diagnostics()["pools_created"] == created_before + 1
        shutdown_worker_pools()

    @pytest.mark.parametrize("kind", ["sharded", "auto"])
    def test_environment_mutated_in_place_is_never_stale(self, kind, default_config):
        # No fingerprint(), same object every batch: workers must still see
        # each batch's offset, not the one the pool first ran with.
        shutdown_worker_pools()
        environment = _OffsetEnvironment(
            NetworkSimulator(scenario=Scenario(traffic=1, duration_s=10.0), seed=3)
        )
        engine = MeasurementEngine(environment, executor=kind, max_workers=2, cache=False)
        # Whenever the batch is sharded, use the pool even on one core.
        sharded = engine.executor if kind == "sharded" else engine.executor.sharded
        sharded.shards = 2
        reference = MeasurementEngine(environment, executor="vectorized", cache=False)
        for offset_ms in (0.0, 10.0, 20.0, 30.0):
            environment.offset_ms = offset_ms
            requests = _requests(default_config, n=8)
            for a, b in zip(reference.run_batch(requests), engine.run_batch(requests)):
                assert _results_identical(a, b)
        shutdown_worker_pools()


class TestResultPacking:
    def test_pack_unpack_round_trip(self, simulator, default_config):
        requests = _requests(default_config, n=3)
        results = simulator.run_requests(requests)
        payload = executors_module._pack_results(results)
        assert payload[0] == "packed"
        rebuilt = executors_module._unpack_results(payload, requests)
        for a, b in zip(results, rebuilt):
            assert _results_identical(a, b)

    def test_unknown_breakdown_falls_back_to_pickle(self, simulator, default_config):
        results = simulator.run_requests(_requests(default_config, n=1))
        results[0].stage_breakdown_ms["warp_drive"] = 1.0
        payload = executors_module._pack_results(results)
        assert payload[0] == "pickled"
        assert executors_module._unpack_results(payload, [None]) is payload[1]
