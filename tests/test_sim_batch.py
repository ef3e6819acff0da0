"""Tests for the vectorized batch simulation path.

Covers the scalar-vs-vectorized numerical-equivalence gate on every catalog
scenario (the two paths sample the same distributions but consume their
random streams in a different order, so agreement is statistical, within
tolerance — see :mod:`repro.sim.batch`), exact equivalence of the vectorized
LTE helpers against their scalar counterparts, per-request determinism under
arbitrary batch composition, the ``vectorized`` engine executor (partial
cache hits, per-request scenario/params overrides, scalar fallback for
environments without the batch hook, the real network's ``prepare_batch``
resolution), the batched multi-slice round API, bit-identity of the two
layouts of the closed-loop recurrence, and the per-lane stop rule that keeps
a lane's result independent of its batch.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MeasurementCache, MeasurementEngine, MeasurementRequest
from repro.prototype.testbed import RealNetwork
from repro.scenarios import list_scenarios
from repro.sim import batch, lte
from repro.sim.config import SliceConfig
from repro.sim.imperfections import Imperfections
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
        and a.dl_throughput_mbps == b.dl_throughput_mbps
        and a.ul_packet_error_rate == b.ul_packet_error_rate
        and a.dl_packet_error_rate == b.dl_packet_error_rate
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

    def test_scalar_fields_are_python_numbers(self, simulator, default_config):
        # Results are JSON-encoded and content-hashed downstream, where a
        # NumPy scalar would encode differently from (or fail unlike) a
        # Python number.
        result = simulator.run_batch([default_config], duration=self.DURATION, seeds=[1])[0]
        for name in ("frames_generated", "frames_completed", "traffic"):
            assert type(getattr(result, name)) is int, name
        for name in (
            "duration_s", "ul_throughput_mbps", "dl_throughput_mbps", "ul_packet_error_rate",
            "dl_packet_error_rate", "ping_delay_ms",
        ):
            assert type(getattr(result, name)) is float, name
        assert all(type(value) is float for value in result.stage_breakdown_ms.values())


# --------------------------------------------------------------------------
# The two layouts of the recurrence and the per-lane stop rule.
# --------------------------------------------------------------------------
#: Imperfections whose latency spikes often make a frame complete after its
#: successor — the case where a lane can miss a frame and create the next.
SPIKY = replace(Imperfections(), spike_probability=0.3, spike_ms_range=(5.0, 60.0))

#: ``_SCALAR_MAX_LANES`` values forcing each layout: vector throughout, vector
#: until at most two lanes still run and scalar after, scalar throughout.
LAYOUTS = {"vector": 0, "mixed": 2, "scalar": 10**6}

#: Lane durations of the layout tests: lanes finish at different frames, and
#: on every catalog workload the longest outlives the first 256-frame block,
#: so the "mixed" layout really switches from vector to scalar.
LAYOUT_DURATIONS = (1.5, 4.0, 0.3, 6.0, 30.0, 60.0)


def _assert_layouts_agree(monkeypatch, simulator, requests):
    by_layout = {}
    for layout, scalar_max in LAYOUTS.items():
        monkeypatch.setattr(batch, "_SCALAR_MAX_LANES", scalar_max)
        by_layout[layout] = simulator.run_requests(requests)
    for layout, results in by_layout.items():
        for request, a, b in zip(requests, results, by_layout["vector"]):
            assert _results_equal(a, b), (layout, request)


class TestRecurrenceLayouts:
    @pytest.mark.parametrize("spec", list_scenarios(), ids=lambda spec: spec.name)
    def test_catalog_scenario_is_bit_identical_in_both_layouts(self, spec, monkeypatch):
        for workload in spec.slices:
            simulator = NetworkSimulator(scenario=workload.scenario, seed=0)
            requests = [
                MeasurementRequest(config=workload.deployed_config, duration=duration, seed=seed)
                for seed, duration in enumerate(LAYOUT_DURATIONS)
            ]
            _assert_layouts_agree(monkeypatch, simulator, requests)

    @pytest.mark.parametrize("traffic", [1, 2, 3, 4])
    def test_spike_heavy_lanes_are_bit_identical_in_both_layouts(
        self, traffic, default_config, monkeypatch
    ):
        simulator = NetworkSimulator(scenario=Scenario(traffic=traffic), imperfections=SPIKY, seed=0)
        requests = [
            MeasurementRequest(
                config=SliceConfig.maximum() if seed % 2 else default_config,
                duration=duration,
                seed=seed,
            )
            for seed, duration in enumerate(LAYOUT_DURATIONS)
        ]
        _assert_layouts_agree(monkeypatch, simulator, requests)

    def test_mixed_traffic_batch_is_bit_identical_in_both_layouts(self, monkeypatch):
        simulator = NetworkSimulator(imperfections=SPIKY, seed=0)
        requests = [
            MeasurementRequest(
                config=SliceConfig.maximum(), traffic=1 + seed % 4, duration=duration, seed=seed
            )
            for seed, duration in enumerate(LAYOUT_DURATIONS)
        ]
        _assert_layouts_agree(monkeypatch, simulator, requests)


def _resuming_lane_alone_and_batched():
    """Minimized counterexample to a batch-wide stop rule.

    With traffic 2 a spiked frame completes after its successor, so the lane
    misses one frame and still creates the next.  Stopping the batch at the
    first frame every lane missed dropped that frame when the lane ran alone
    (25 frames generated), but not beside a longer-lived companion (26).
    """
    simulator = NetworkSimulator(
        scenario=Scenario(traffic=2, duration_s=2.0), imperfections=SPIKY, seed=0
    )
    lane = MeasurementRequest(config=SliceConfig.maximum(), seed=13)
    companion = MeasurementRequest(config=SliceConfig.maximum(), seed=10_000, duration=4.0)
    return simulator.run_requests([lane])[0], simulator.run_requests([lane, companion])[0]


class TestPerLaneStop:
    def test_lane_resuming_after_a_missed_frame_is_batch_independent(self):
        alone, batched = _resuming_lane_alone_and_batched()
        assert alone.frames_generated == batched.frames_generated
        assert _results_equal(alone, batched)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_each_layout_keeps_a_lane_resuming_after_a_missed_frame(self, layout, monkeypatch):
        monkeypatch.setattr(batch, "_SCALAR_MAX_LANES", LAYOUTS[layout])
        alone, batched = _resuming_lane_alone_and_batched()
        assert _results_equal(alone, batched)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_lane_whose_duration_admits_no_frame_ends_empty(
        self, layout, default_config, monkeypatch
    ):
        # No completion lies within a NaN duration, so the lane creates no
        # frame and is finished at once instead of running to the runaway guard.
        monkeypatch.setattr(batch, "_SCALAR_MAX_LANES", LAYOUTS[layout])
        simulator = NetworkSimulator(scenario=Scenario(traffic=2), seed=0)
        request = MeasurementRequest(config=default_config, duration=float("nan"), seed=1)
        result = simulator.run_requests([request])[0]
        assert result.frames_generated == 0
        assert result.latencies_ms.size == 0

    def test_finished_lane_draws_no_further_blocks(self, simulator, default_config):
        def short_lane_generator(durations):
            rngs = [np.random.default_rng(seed) for seed in range(len(durations))]
            n = len(durations)
            batch.simulate_batch(
                [default_config] * n,
                [simulator.scenario] * n,
                [simulator.params] * n,
                simulator.imperfections,
                durations,
                rngs,
            )
            return rngs[0].bit_generator.state

        # The companion runs ~550 frames: three blocks to the short lane's one.
        assert short_lane_generator([1.0]) == short_lane_generator([1.0, 120.0])


_PROPERTY_SIMULATOR = NetworkSimulator(imperfections=SPIKY, seed=0)


@given(
    lanes=st.lists(
        st.tuples(
            st.integers(0, 10_000),
            st.integers(1, 4),
            st.floats(0.05, 5.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_lane_results_ignore_batch_composition_and_partition(lanes, data):
    requests = [
        MeasurementRequest(
            config=SliceConfig.maximum() if maximum else SliceConfig(),
            traffic=traffic,
            duration=duration,
            seed=seed,
        )
        for seed, traffic, duration, maximum in lanes
    ]
    shards = data.draw(
        st.lists(st.integers(0, 2), min_size=len(requests), max_size=len(requests)),
        label="shard of each lane",
    )
    scalar_max = data.draw(st.sampled_from([0, 2, batch._SCALAR_MAX_LANES]), label="layout")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch, "_SCALAR_MAX_LANES", scalar_max)
        whole = _PROPERTY_SIMULATOR.run_requests(requests)
        for shard in set(shards):
            members = [i for i, s in enumerate(shards) if s == shard]
            parts = _PROPERTY_SIMULATOR.run_requests([requests[i] for i in members])
            for i, result in zip(members, parts):
                assert _results_equal(result, whole[i]), requests[i]


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
