"""Tests for the vectorized batch simulation path.

Covers the scalar-vs-vectorized numerical-equivalence gate on every catalog
scenario (the two paths sample the same distributions but consume their
random streams in a different order, so agreement is statistical, within
tolerance — see :mod:`repro.sim.batch`), exact equivalence of the vectorized
LTE helpers against their scalar counterparts, per-request determinism under
arbitrary batch composition, the ``vectorized`` engine executor (partial
cache hits, per-request scenario/params overrides, scalar fallback for
environments without the batch hook, the real network's ``prepare_batch``
resolution), and the batched multi-slice round API.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MeasurementCache, MeasurementEngine, MeasurementRequest
from repro.prototype.testbed import RealNetwork
from repro.scenarios import list_scenarios
from repro.sim import lte
from repro.sim.config import SliceConfig
from repro.sim.multislice import ResourceBudget, SliceRun
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters
from repro.sim.scenario import Scenario

#: Seeds pooled per workload by the equivalence gate.  More seeds tighten the
#: statistical comparison but grow the scalar (discrete-event) side's runtime.
EQUIVALENCE_SEEDS = tuple(range(6))
EQUIVALENCE_DURATION = 20.0

# Tolerances of the scalar-vs-vectorized gate, calibrated with margin over
# the observed deviations at the pooled sample size above (the worst catalog
# workload deviates ~3.5% in mean latency and ~0.025 in QoE).
MEAN_LATENCY_RTOL = 0.08
P95_LATENCY_RTOL = 0.15
QOE_ATOL = 0.08
PING_RTOL = 0.05
THROUGHPUT_RTOL = 0.10
ERROR_RATE_ATOL = 0.01
FRAMES_RTOL = 0.08


def _results_equal(a, b) -> bool:
    return (
        np.array_equal(a.latencies_ms, b.latencies_ms)
        and a.frames_generated == b.frames_generated
        and a.frames_completed == b.frames_completed
        and a.ping_delay_ms == b.ping_delay_ms
        and a.ul_throughput_mbps == b.ul_throughput_mbps
        and a.ul_packet_error_rate == b.ul_packet_error_rate
        and a.stage_breakdown_ms == b.stage_breakdown_ms
    )


# --------------------------------------------------------------------------
# Vectorized LTE helpers: exact equivalence with the scalar functions.
# --------------------------------------------------------------------------
class TestVectorizedLteHelpers:
    SINRS = np.linspace(-12.0, 40.0, 53)

    @pytest.mark.parametrize("offset", [0.0, -2.0, 3.5])
    def test_select_mcs_matches_scalar(self, offset):
        scalar = [lte.select_mcs(s, offset) for s in self.SINRS]
        batched = lte.select_mcs_array(self.SINRS, np.full_like(self.SINRS, offset))
        assert batched.tolist() == scalar

    def test_spectral_efficiency_matches_scalar(self):
        mcs = np.arange(0, lte.MAX_MCS + 1)
        scalar = [lte.spectral_efficiency(m) for m in mcs]
        assert np.allclose(lte.spectral_efficiency_array(mcs), scalar, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("floor", [2e-3, 4e-3])
    def test_block_error_rate_matches_scalar(self, floor):
        mcs = lte.select_mcs_array(self.SINRS, np.zeros_like(self.SINRS))
        scalar = [lte.block_error_rate(s, int(m), floor) for s, m in zip(self.SINRS, mcs)]
        batched = lte.block_error_rate_array(self.SINRS, mcs, np.full_like(self.SINRS, floor))
        assert np.allclose(batched, scalar, rtol=0, atol=1e-12)

    def test_expected_transmissions_matches_scalar(self):
        blers = np.linspace(0.0, 1.0, 21)
        scalar = [lte.expected_transmissions(b) for b in blers]
        assert np.allclose(lte.expected_transmissions_array(blers), scalar, rtol=0, atol=1e-12)


# --------------------------------------------------------------------------
# The equivalence gate: scalar vs vectorized on every catalog scenario.
# --------------------------------------------------------------------------
_workload_comparison_cache: dict[tuple, dict] = {}


def _compare_workload(workload):
    """Pooled scalar-vs-vectorized metrics of one slice workload (memoised).

    Several catalog entries share a workload (the dynamic and multi-slice
    entries reuse the base scenarios); the pooled runs are cached on the
    workload's content so the gate still covers every entry without
    re-simulating identical setups.
    """
    key = (workload.scenario, workload.sla, workload.deployed_config)
    if key in _workload_comparison_cache:
        return _workload_comparison_cache[key]
    simulator = NetworkSimulator(scenario=workload.scenario, seed=0)
    config = workload.deployed_config
    scalar = [
        simulator.run(config, duration=EQUIVALENCE_DURATION, seed=seed)
        for seed in EQUIVALENCE_SEEDS
    ]
    batched = simulator.run_batch(
        [config] * len(EQUIVALENCE_SEEDS),
        duration=EQUIVALENCE_DURATION,
        seeds=list(EQUIVALENCE_SEEDS),
    )
    threshold = workload.sla.latency_threshold_ms

    def pooled(results):
        latencies = np.concatenate([r.latencies_ms for r in results])
        return {
            "mean_latency": float(np.mean(latencies)),
            "p95_latency": float(np.percentile(latencies, 95)),
            "qoe": float(np.mean([r.qoe(threshold) for r in results])),
            "ping": float(np.mean([r.ping_delay_ms for r in results])),
            "ul_throughput": float(np.mean([r.ul_throughput_mbps for r in results])),
            "dl_throughput": float(np.mean([r.dl_throughput_mbps for r in results])),
            "ul_per": float(np.mean([r.ul_packet_error_rate for r in results])),
            "dl_per": float(np.mean([r.dl_packet_error_rate for r in results])),
            "frames": sum(r.frames_completed for r in results),
        }

    comparison = {"scalar": pooled(scalar), "vectorized": pooled(batched)}
    _workload_comparison_cache[key] = comparison
    return comparison


@pytest.mark.parametrize("spec", list_scenarios(), ids=lambda spec: spec.name)
class TestScalarVectorizedEquivalence:
    def test_catalog_scenario_agrees_within_tolerance(self, spec):
        for workload in spec.slices:
            comparison = _compare_workload(workload)
            scalar, batched = comparison["scalar"], comparison["vectorized"]
            label = f"{spec.name}/{workload.name}"
            assert batched["mean_latency"] == pytest.approx(
                scalar["mean_latency"], rel=MEAN_LATENCY_RTOL
            ), label
            assert batched["p95_latency"] == pytest.approx(
                scalar["p95_latency"], rel=P95_LATENCY_RTOL
            ), label
            assert batched["qoe"] == pytest.approx(scalar["qoe"], abs=QOE_ATOL), label
            assert batched["ping"] == pytest.approx(scalar["ping"], rel=PING_RTOL), label
            assert batched["ul_throughput"] == pytest.approx(
                scalar["ul_throughput"], rel=THROUGHPUT_RTOL
            ), label
            assert batched["dl_throughput"] == pytest.approx(
                scalar["dl_throughput"], rel=THROUGHPUT_RTOL
            ), label
            assert batched["ul_per"] == pytest.approx(scalar["ul_per"], abs=ERROR_RATE_ATOL), label
            assert batched["dl_per"] == pytest.approx(scalar["dl_per"], abs=ERROR_RATE_ATOL), label
            assert batched["frames"] == pytest.approx(scalar["frames"], rel=FRAMES_RTOL), label


# --------------------------------------------------------------------------
# Per-request determinism of the batch path.
# --------------------------------------------------------------------------
class TestBatchDeterminism:
    DURATION = 8.0

    def test_results_independent_of_batch_composition(self, simulator, default_config):
        alone = simulator.run_batch(
            [default_config] * 3, traffic=2, duration=self.DURATION, seeds=[1, 2, 3]
        )
        surrounded = simulator.run_batch(
            [default_config] * 7, traffic=2, duration=self.DURATION, seeds=[9, 1, 2, 3, 4, 5, 6]
        )
        for a, b in zip(alone, surrounded[1:4]):
            assert _results_equal(a, b)

    def test_repeated_batches_are_identical(self, simulator, default_config):
        first = simulator.run_batch([default_config] * 2, duration=self.DURATION, seeds=[4, 5])
        second = simulator.run_batch([default_config] * 2, duration=self.DURATION, seeds=[4, 5])
        for a, b in zip(first, second):
            assert _results_equal(a, b)

    def test_int_seed_broadcasts_to_every_lane(self, simulator, default_config):
        broadcast = simulator.run_batch([default_config] * 3, duration=self.DURATION, seeds=7)
        explicit = simulator.run_batch([default_config] * 3, duration=self.DURATION, seeds=[7, 7, 7])
        for a, b in zip(broadcast, explicit):
            assert _results_equal(a, b)

    def test_seed_length_mismatch_raises(self, simulator, default_config):
        with pytest.raises(ValueError, match="expected 2 seeds"):
            simulator.run_batch([default_config] * 2, seeds=[1, 2, 3])

    def test_empty_batch_returns_empty_list(self, simulator):
        assert simulator.run_batch([]) == []


# --------------------------------------------------------------------------
# The vectorized engine executor: caching, overrides, fallback.
# --------------------------------------------------------------------------
class TestVectorizedExecutor:
    DURATION = 8.0

    def _requests(self, config, seeds, **overrides):
        return [
            MeasurementRequest(config=config, traffic=2, duration=self.DURATION, seed=seed, **overrides)
            for seed in seeds
        ]

    def test_partial_cache_hits_shrink_the_batch(self, simulator, default_config):
        engine = MeasurementEngine(simulator, executor="vectorized", cache=MeasurementCache())
        first = engine.run_batch(self._requests(default_config, [0, 1, 2]))
        assert engine.executed_requests == 3
        combined = engine.run_batch(self._requests(default_config, [0, 1, 2, 3, 4]))
        # The three cached requests are served without re-execution; only the
        # two new ones reach the vectorized pass.
        assert engine.executed_requests == 5
        assert engine.cache_stats.hits == 3
        assert engine.cache_stats.misses == 5
        for a, b in zip(first, combined[:3]):
            assert _results_equal(a, b)
        # Per-request determinism: the shrunk two-lane pass produces the same
        # results the requests would get in any other batch composition.
        fresh = MeasurementEngine(simulator, executor="vectorized", cache=False).run_batch(
            self._requests(default_config, [3, 4])
        )
        for a, b in zip(fresh, combined[3:]):
            assert _results_equal(a, b)

    def test_scenario_override_matches_singleton_batches(self, simulator, default_config):
        other = Scenario(traffic=3, distance_m=120.0, duration_s=12.0)
        engine = MeasurementEngine(simulator, executor="vectorized", cache=False)
        mixed = engine.run_batch(
            [
                MeasurementRequest(config=default_config, duration=self.DURATION, seed=1),
                MeasurementRequest(
                    config=default_config, duration=self.DURATION, seed=1, scenario=other
                ),
            ]
        )
        alone = [
            engine.run_batch([MeasurementRequest(config=default_config, duration=self.DURATION, seed=1)])[0],
            engine.run_batch(
                [
                    MeasurementRequest(
                        config=default_config, duration=self.DURATION, seed=1, scenario=other
                    )
                ]
            )[0],
        ]
        for a, b in zip(mixed, alone):
            assert _results_equal(a, b)
        # The override actually took effect: different scenarios, different runs.
        assert not np.array_equal(mixed[0].latencies_ms, mixed[1].latencies_ms)

    def test_params_override_matches_singleton_batches(self, simulator, default_config):
        params = SimulationParameters(compute_time=15.0, backhaul_delay=5.0)
        engine = MeasurementEngine(simulator, executor="vectorized", cache=False)
        mixed = engine.run_batch(
            [
                MeasurementRequest(config=default_config, duration=self.DURATION, seed=2),
                MeasurementRequest(
                    config=default_config, duration=self.DURATION, seed=2, params=params
                ),
            ]
        )
        alone = engine.run_batch(
            [MeasurementRequest(config=default_config, duration=self.DURATION, seed=2, params=params)]
        )[0]
        assert _results_equal(mixed[1], alone)
        assert not np.array_equal(mixed[0].latencies_ms, mixed[1].latencies_ms)

    @pytest.mark.parametrize("kind", ["vectorized", "sharded", "auto"])
    def test_falls_back_to_scalar_without_batch_hook(self, default_config, kind):
        class ScalarOnlyEnvironment:
            """Environment with the protocol surface but no ``run_requests``."""

            def __init__(self):
                self._simulator = NetworkSimulator(scenario=Scenario(traffic=2), seed=0)
                self.scenario = self._simulator.scenario

            def run(self, config, traffic=None, duration=None, seed=None):
                return self._simulator.run(config, traffic=traffic, duration=duration, seed=seed)

            def collect_latencies(self, config, traffic=None, duration=None, seed=None):
                return self.run(config, traffic=traffic, duration=duration, seed=seed).latencies_ms

            def fingerprint(self):
                return ("scalar-only",) + self._simulator.fingerprint()

        environment = ScalarOnlyEnvironment()
        engine = MeasurementEngine(environment, executor=kind, max_workers=2, cache=False)
        requests = self._requests(default_config, range(8))
        direct = [
            environment.run(r.config, traffic=r.traffic, duration=r.duration, seed=r.seed)
            for r in requests
        ]
        for a, b in zip(engine.run_batch(requests), direct):
            assert _results_equal(a, b)

    def test_real_network_resolves_through_prepare_batch(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        real = RealNetwork(scenario=scenario, seed=1)
        engine = MeasurementEngine(real, executor="vectorized", cache=False)
        results = engine.run_batch(self._requests(default_config, [1, 2, 3]))
        assert len(results) == 3
        # The domain managers logged every applied configuration in order.
        assert len(real.applied_history) == 3
        # Reproducible: a fresh testbed measuring the same batch agrees.
        again = MeasurementEngine(
            RealNetwork(scenario=scenario, seed=1), executor="vectorized", cache=False
        ).run_batch(self._requests(default_config, [1, 2, 3]))
        for a, b in zip(results, again):
            assert _results_equal(a, b)


# --------------------------------------------------------------------------
# Batched multi-slice rounds.
# --------------------------------------------------------------------------
class TestRunSlicesBatch:
    DURATION = 6.0

    def _rounds(self):
        embb = Scenario(traffic=2, frame_size_mean_bytes=60_000)
        urllc = Scenario(traffic=1, frame_size_mean_bytes=2_000, compute_time_mean_ms=3.0)
        demanding = SliceConfig(bandwidth_ul=40, bandwidth_dl=40, backhaul_bw=60, cpu_ratio=1.0)
        modest = SliceConfig(bandwidth_ul=25, bandwidth_dl=20, backhaul_bw=50, cpu_ratio=0.8)
        return [
            [
                SliceRun(name="embb", config=demanding, scenario=embb, seed=1),
                SliceRun(name="urllc", config=modest, scenario=urllc, seed=2),
            ],
            [
                SliceRun(name="embb", config=modest, scenario=embb, seed=3),
                SliceRun(name="urllc", config=demanding, scenario=urllc, seed=4),
            ],
        ]

    def test_matches_per_round_run_slices(self, simulator):
        budget = ResourceBudget()
        batched = simulator.run_slices_batch(self._rounds(), budget=budget, duration=self.DURATION)
        assert len(batched) == 2
        for round_runs, batch_result in zip(self._rounds(), batched):
            single = simulator.run_slices(round_runs, budget=budget, duration=self.DURATION)
            assert batch_result.allocated == single.allocated
            for a, b in zip(batch_result.results, single.results):
                assert _results_equal(a, b)

    def test_vectorized_engine_executes_all_rounds_in_one_batch(self, simulator):
        engine = MeasurementEngine(simulator, executor="vectorized", cache=False)
        batched = simulator.run_slices_batch(
            self._rounds(), duration=self.DURATION, engine=engine
        )
        assert engine.submitted_batches == 1
        assert engine.executed_requests == 4
        for result in batched:
            assert len(result.results) == 2
            for measured in result.results:
                assert measured.frames_completed >= 0
                assert np.all(np.isfinite(measured.latencies_ms))

    def test_engine_environment_mismatch_raises(self, simulator):
        foreign = MeasurementEngine(NetworkSimulator(seed=99))
        with pytest.raises(ValueError, match="engine must wrap the environment"):
            simulator.run_slices_batch(self._rounds(), engine=foreign)

    def test_contention_conserves_budget_per_round(self, simulator):
        budget = ResourceBudget()
        for result in simulator.run_slices_batch(self._rounds(), budget=budget, duration=self.DURATION):
            for dimension in ("bandwidth_ul", "bandwidth_dl", "backhaul_bw", "cpu_ratio"):
                total = sum(getattr(config, dimension) for config in result.allocated)
                assert total <= budget.total(dimension) + 1e-9
