"""Tests for the unified measurement engine.

Covers the :class:`Environment` protocol conformance of both concrete
environments, determinism of the executor kinds (vectorized == sharded ==
auto for identical seeds), cache hit/miss accounting, the engine's
deterministic auto-seeding, and the deterministic ``seed=None`` stream of the
simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EXECUTOR_KINDS,
    Environment,
    MeasurementCache,
    MeasurementEngine,
    MeasurementRequest,
    make_executor,
    shared_cache,
)
from repro.prototype.testbed import RealNetwork
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters
from repro.sim.scenario import Scenario

DURATION = 6.0


def _requests(config, n=4, duration=DURATION):
    return [
        MeasurementRequest(config=config, traffic=1, duration=duration, seed=seed)
        for seed in range(n)
    ]


def _results_equal(a, b) -> bool:
    return (
        np.array_equal(a.latencies_ms, b.latencies_ms)
        and a.frames_generated == b.frames_generated
        and a.frames_completed == b.frames_completed
        and a.ping_delay_ms == b.ping_delay_ms
        and a.ul_throughput_mbps == b.ul_throughput_mbps
        and a.stage_breakdown_ms == b.stage_breakdown_ms
    )


class TestEnvironmentProtocol:
    def test_network_simulator_conforms(self, simulator):
        assert isinstance(simulator, Environment)

    def test_real_network_conforms(self, real_network):
        assert isinstance(real_network, Environment)

    def test_non_environment_rejected(self):
        class NotAnEnvironment:
            pass

        assert not isinstance(NotAnEnvironment(), Environment)

    @pytest.mark.parametrize("factory", [NetworkSimulator, RealNetwork])
    def test_fingerprint_is_hashable_and_content_keyed(self, factory):
        scenario = Scenario(traffic=1, duration_s=10.0)
        first = factory(scenario=scenario, seed=3)
        second = factory(scenario=scenario, seed=3)
        different = factory(scenario=scenario, seed=4)
        assert hash(first.fingerprint()) == hash(second.fingerprint())
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != different.fingerprint()


class TestExecutorDeterminism:
    @pytest.mark.parametrize("kind", ["sharded", "auto"])
    def test_executors_match_vectorized_byte_for_byte(self, simulator, default_config, kind):
        requests = _requests(default_config, n=8)
        vectorized = MeasurementEngine(simulator, executor="vectorized", cache=False)
        parallel = MeasurementEngine(simulator, executor=kind, max_workers=2, cache=False)
        try:
            vectorized_results = vectorized.run_batch(requests)
            parallel_results = parallel.run_batch(requests)
        finally:
            parallel.shutdown()
        for a, b in zip(vectorized_results, parallel_results):
            assert _results_equal(a, b)

    @pytest.mark.parametrize("kind", ["vectorized", "sharded", "auto"])
    def test_params_override_matches_with_params(self, simulator, default_config, kind):
        params = SimulationParameters(compute_time=15.0, backhaul_delay=5.0)
        engine = MeasurementEngine(simulator, executor=kind, cache=False)
        via_override = engine.run(default_config, traffic=1, duration=DURATION, seed=2, params=params)
        request = MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=2)
        direct = simulator.with_params(params).run_requests([request])[0]
        assert _results_equal(via_override, direct)

    def test_params_override_requires_with_params(self, default_config):
        class Minimal:
            scenario = Scenario()

            def run(self, config, traffic=None, duration=None, seed=None):
                raise AssertionError("should not be reached")

            def collect_latencies(self, config, traffic=None, duration=None, seed=None):
                return np.zeros(0)

            def fingerprint(self):
                return ("minimal",)

        engine = MeasurementEngine(Minimal(), cache=False)
        with pytest.raises(TypeError, match="with_params"):
            engine.run(default_config, seed=1, params=SimulationParameters())

    @pytest.mark.parametrize("kind", ["quantum", "serial", "thread", "process"])
    def test_unknown_executor_kind_raises(self, simulator, kind):
        assert sorted(EXECUTOR_KINDS) == ["auto", "sharded", "vectorized"]
        with pytest.raises(ValueError, match="unknown executor"):
            MeasurementEngine(simulator, executor=kind)
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor(kind)

    def test_auto_seeds_are_deterministic_per_engine_seed(self, simulator, default_config):
        requests = [MeasurementRequest(config=default_config, traffic=1, duration=DURATION)] * 3
        first = MeasurementEngine(simulator, cache=False, seed=11).run_batch(requests)
        second = MeasurementEngine(simulator, cache=False, seed=11).run_batch(requests)
        other = MeasurementEngine(simulator, cache=False, seed=12).run_batch(requests)
        for a, b in zip(first, second):
            assert _results_equal(a, b)
        assert not all(_results_equal(a, c) for a, c in zip(first, other))
        # Identical unseeded requests in one batch get distinct seeds.
        assert not _results_equal(first[0], first[1])


class TestMeasurementCache:
    def test_hit_and_miss_accounting(self, simulator, default_config):
        cache = MeasurementCache()
        engine = MeasurementEngine(simulator, cache=cache)
        requests = _requests(default_config)
        fresh = engine.run_batch(requests)
        assert cache.stats.misses == len(requests)
        assert cache.stats.hits == 0
        cached = engine.run_batch(requests)
        assert cache.stats.hits == len(requests)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert engine.executed_requests == len(requests)
        for a, b in zip(fresh, cached):
            assert _results_equal(a, b)

    def test_cached_results_are_isolated_copies(self, simulator, default_config):
        engine = MeasurementEngine(simulator, cache=MeasurementCache())
        first = engine.run(default_config, traffic=1, duration=DURATION, seed=1)
        first.latencies_ms[:] = -1.0
        second = engine.run(default_config, traffic=1, duration=DURATION, seed=1)
        assert not np.array_equal(first.latencies_ms, second.latencies_ms)
        assert np.all(second.latencies_ms >= 0)

    def test_key_is_content_sensitive(self, simulator, default_config):
        cache = MeasurementCache()
        engine = MeasurementEngine(simulator, cache=cache)
        engine.run(default_config, traffic=1, duration=DURATION, seed=1)
        engine.run(default_config, traffic=1, duration=DURATION, seed=2)
        engine.run(default_config, traffic=2, duration=DURATION, seed=1)
        engine.run(
            default_config,
            traffic=1,
            duration=DURATION,
            seed=1,
            params=SimulationParameters(compute_time=3.0),
        )
        assert cache.stats.hits == 0
        assert cache.stats.misses == 4

    def test_disabled_cache_executes_every_request(self, simulator, default_config):
        engine = MeasurementEngine(simulator, cache=False)
        requests = _requests(default_config, n=2)
        engine.run_batch(requests)
        engine.run_batch(requests)
        assert engine.cache is None
        assert engine.executed_requests == 4
        assert engine.cache_stats.lookups == 0

    def test_lru_eviction_is_bounded(self, simulator, default_config):
        cache = MeasurementCache(max_entries=2)
        engine = MeasurementEngine(simulator, cache=cache)
        engine.run_batch(_requests(default_config, n=4))
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_shared_cache_is_process_wide_default(self, simulator):
        engine = MeasurementEngine(simulator)
        assert engine.cache is shared_cache()

    def test_invalid_max_entries_raises(self):
        with pytest.raises(ValueError):
            MeasurementCache(max_entries=0)


class TestRealNetworkThroughEngine:
    def test_matches_direct_batch(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        via_engine = MeasurementEngine(
            RealNetwork(scenario=scenario, seed=1), cache=False
        ).run(default_config, traffic=1, duration=DURATION, seed=5)
        network = RealNetwork(scenario=scenario, seed=1)
        request = MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=5)
        simulator, resolved = network.prepare_batch([request])
        direct = simulator.run_requests(resolved)[0]
        assert _results_equal(via_engine, direct)
        assert via_engine.config == network.applied_history[-1].applied

    def test_applied_history_logged_even_on_cache_hits(self, real_network, default_config):
        engine = MeasurementEngine(real_network, cache=MeasurementCache())
        request = MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=1)
        engine.run_batch([request])
        engine.run_batch([request])
        assert engine.cache_stats.hits == 1
        assert len(real_network.applied_history) == 2
        assert real_network.measurement_count == 2


class TestSimulatorSeedStream:
    def test_unseeded_runs_differ_but_replay_deterministically(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        first = NetworkSimulator(scenario=scenario, seed=0)
        second = NetworkSimulator(scenario=scenario, seed=0)
        a1 = first.collect_latencies(default_config, duration=DURATION)
        a2 = first.collect_latencies(default_config, duration=DURATION)
        b1 = second.collect_latencies(default_config, duration=DURATION)
        b2 = second.collect_latencies(default_config, duration=DURATION)
        assert not np.array_equal(a1, a2)
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)

    def test_explicit_seed_unaffected_by_prior_unseeded_runs(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        clean = NetworkSimulator(scenario=scenario, seed=0)
        dirty = NetworkSimulator(scenario=scenario, seed=0)
        for _ in range(3):
            dirty.collect_latencies(default_config, duration=DURATION)
        assert np.array_equal(
            clean.collect_latencies(default_config, duration=DURATION, seed=9),
            dirty.collect_latencies(default_config, duration=DURATION, seed=9),
        )

    def test_unseeded_runs_do_not_collide_with_explicit_seeds(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        simulator = NetworkSimulator(scenario=scenario, seed=0)
        unseeded = simulator.collect_latencies(default_config, duration=DURATION)
        explicit = [
            NetworkSimulator(scenario=scenario, seed=0).collect_latencies(
                default_config, duration=DURATION, seed=s
            )
            for s in range(1, 4)
        ]
        assert not any(np.array_equal(unseeded, run) for run in explicit)


class TestStageDeterminismAcrossExecutors:
    def test_parameter_search_identical_under_sharded_executor(self, default_config):
        from repro.core.simulator_learning import ParameterSearchConfig, SimulatorParameterSearch

        scenario = Scenario(traffic=1, duration_s=8.0)
        real = RealNetwork(scenario=scenario, seed=1)
        collection = real.collect_latencies(default_config, traffic=1, duration=8.0, seed=1)
        config = ParameterSearchConfig(
            iterations=2,
            initial_random=1,
            parallel_queries=2,
            candidate_pool=60,
            measurement_duration_s=6.0,
            surrogate_epochs=5,
            seed=0,
        )

        def run_search(executor: str):
            simulator = NetworkSimulator(scenario=scenario, seed=0)
            engine = MeasurementEngine(simulator, executor=executor, max_workers=2, cache=False)
            if executor == "sharded":
                # Two-query batches are below the adaptive shard threshold;
                # force the pool so the comparison crosses processes.
                engine.executor.shards = 2
            return SimulatorParameterSearch(
                simulator=simulator,
                real_collection=collection,
                deployed_config=default_config,
                config=config,
                engine=engine,
            ).run()

        vectorized_result = run_search("vectorized")
        sharded_result = run_search("sharded")
        assert (
            vectorized_result.best_weighted_discrepancy
            == sharded_result.best_weighted_discrepancy
        )
        assert [r.parameters for r in vectorized_result.history] == [
            r.parameters for r in sharded_result.history
        ]
