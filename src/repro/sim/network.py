"""Simulator facade: assemble the end-to-end slice path and run measurements.

:class:`NetworkSimulator` is the offline environment Atlas' stages 1 and 2
query: given a slice configuration, a traffic level and a duration it runs
the discrete-event simulation and returns the latency collection plus the
networking metrics reported in Table 1 (ping delay, saturation throughput,
packet error rates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.metrics.qoe import qoe_from_latencies
from repro.sim.config import SliceConfig
from repro.sim.core_network import CoreNetwork
from repro.sim.edge import EdgeServer
from repro.sim.events import EventScheduler
from repro.sim.imperfections import Imperfections
from repro.sim.application import OffloadingApplication
from repro.sim.parameters import SimulationParameters
from repro.sim.multislice import (
    MultiSliceResult,
    ResourceBudget,
    SliceRun,
    run_contended,
    run_contended_batch,
)
from repro.sim.ran import RadioAccessNetwork
from repro.sim.scenario import Scenario
from repro.sim.transport import BackhaulLink, BASE_PROPAGATION_DELAY_MS
from repro.sim.core_network import BASE_FORWARDING_DELAY_MS

__all__ = ["NetworkSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of one 60-second (by default) measurement run."""

    latencies_ms: np.ndarray
    frames_generated: int
    frames_completed: int
    duration_s: float
    config: SliceConfig
    traffic: int
    ul_throughput_mbps: float
    dl_throughput_mbps: float
    ul_packet_error_rate: float
    dl_packet_error_rate: float
    ping_delay_ms: float
    stage_breakdown_ms: dict[str, float] = field(default_factory=dict)

    def qoe(self, threshold_ms: float) -> float:
        """Slice QoE ``Pr(latency <= threshold)`` over all generated frames."""
        if self.frames_generated == 0:
            return 0.0
        # Frames still in flight at the end of the run are not SLA violations;
        # QoE is computed over completed frames, but a run that completes
        # nothing has zero QoE.
        if self.latencies_ms.size == 0:
            return 0.0
        return qoe_from_latencies(self.latencies_ms, threshold_ms)

    @property
    def mean_latency_ms(self) -> float:
        """Mean latency of completed frames (``nan`` if none completed)."""
        if self.latencies_ms.size == 0:
            return float("nan")
        return float(np.mean(self.latencies_ms))


class NetworkSimulator:
    """Parameterised end-to-end network simulator (the NS-3 stand-in).

    Parameters
    ----------
    params:
        Simulation parameters (Table 3); stage 1 searches over these.
    scenario:
        Workload/environment description (traffic, distance, mobility...).
    imperfections:
        Un-modelled effects; the ideal simulator leaves them at their neutral
        defaults, the real-network substitute overrides them.
    seed:
        Base seed; every run derives its own stream from this seed, the
        configuration and the explicit per-run seed so results are
        reproducible yet varied across runs.
    isolation:
        Whether slice isolation is enforced in the RAN.
    """

    def __init__(
        self,
        params: SimulationParameters | None = None,
        scenario: Scenario | None = None,
        imperfections: Imperfections | None = None,
        seed: int = 0,
        isolation: bool = True,
    ) -> None:
        self.params = params if params is not None else SimulationParameters.defaults()
        self.scenario = scenario if scenario is not None else Scenario()
        self.imperfections = imperfections if imperfections is not None else Imperfections.none()
        self.seed = int(seed)
        self.isolation = isolation
        # Auto-seed stream for seed=None runs: spawning from a SeedSequence is
        # deterministic per instance and cannot collide with explicit per-run
        # seeds (which previously shared the counter's key space).
        self._auto_seed_stream = np.random.SeedSequence([self.seed, 0x5EED])

    # ----------------------------------------------------------------- helpers
    def with_params(self, params: SimulationParameters) -> "NetworkSimulator":
        """A copy of this simulator with different simulation parameters."""
        return NetworkSimulator(
            params=params,
            scenario=self.scenario,
            imperfections=self.imperfections,
            seed=self.seed,
            isolation=self.isolation,
        )

    def with_scenario(self, scenario: Scenario) -> "NetworkSimulator":
        """A copy of this simulator with a different scenario."""
        return NetworkSimulator(
            params=self.params,
            scenario=scenario,
            imperfections=self.imperfections,
            seed=self.seed,
            isolation=self.isolation,
        )

    def with_imperfections(self, imperfections: Imperfections) -> "NetworkSimulator":
        """A copy of this simulator under different un-modelled effects.

        The hook :class:`~repro.sim.faults.FaultedEnvironment` uses to apply
        storm-window degradation; the copy's fingerprint differs, so faulted
        measurements can never share cache entries with clean ones.
        """
        return NetworkSimulator(
            params=self.params,
            scenario=self.scenario,
            imperfections=imperfections,
            seed=self.seed,
            isolation=self.isolation,
        )

    def _make_rng(self, seed: int | None) -> np.random.Generator:
        if seed is None:
            # Unseeded runs draw from a per-instance spawn stream: results are
            # reproducible given construction + call order, and explicit-seed
            # runs are unaffected by how many unseeded runs preceded them (the
            # old mutable run counter broke both properties and was unsafe
            # under parallel execution; the engine resolves seeds before
            # dispatch so None never reaches a worker).
            return np.random.default_rng(self._auto_seed_stream.spawn(1)[0])
        return np.random.default_rng(np.random.SeedSequence([self.seed, int(seed) & 0x7FFFFFFF]))

    def fingerprint(self) -> tuple:
        """Content identity of this simulator (engine cache key component)."""
        return ("sim", self.params, self.scenario, self.imperfections, self.seed, self.isolation)

    # --------------------------------------------------------------------- run
    def run(
        self,
        config: SliceConfig,
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> SimulationResult:
        """Run one measurement under ``config`` and return the collected metrics."""
        scenario = self.scenario
        if traffic is not None:
            scenario = scenario.replace(traffic=int(traffic))
        run_duration = float(duration) if duration is not None else scenario.duration_s
        rng = self._make_rng(seed)

        scheduler = EventScheduler()
        ran = RadioAccessNetwork(
            scheduler, scenario, self.params, config, self.imperfections, rng, self.isolation
        )
        backhaul = BackhaulLink(scheduler, self.params, config, rng)
        core = CoreNetwork(scheduler, rng)
        edge = EdgeServer(scheduler, scenario, self.params, config, self.imperfections, rng)
        app = OffloadingApplication(
            scheduler, scenario, self.params, ran, backhaul, core, edge, self.imperfections, rng
        )
        app.start()
        scheduler.run(until=run_duration)
        app.stop()

        latencies = app.completed_latencies_ms()
        return SimulationResult(
            latencies_ms=latencies,
            frames_generated=len(app.records),
            frames_completed=int(latencies.size),
            duration_s=run_duration,
            config=config,
            traffic=scenario.traffic,
            ul_throughput_mbps=ran.saturation_throughput_mbps(uplink=True),
            dl_throughput_mbps=ran.saturation_throughput_mbps(uplink=False),
            ul_packet_error_rate=ran.uplink_packet_error_rate(),
            dl_packet_error_rate=ran.downlink_packet_error_rate(),
            ping_delay_ms=self._ping_delay_ms(ran, backhaul, rng),
            stage_breakdown_ms=app.stage_breakdown_ms(),
        )

    def collect_latencies(
        self,
        config: SliceConfig,
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> np.ndarray:
        """Convenience wrapper returning only the latency collection."""
        return self.run(config, traffic=traffic, duration=duration, seed=seed).latencies_ms

    # -------------------------------------------------------------- batched run
    def run_requests(self, requests) -> "list[SimulationResult]":
        """Evaluate a batch of engine requests in one vectorized pass.

        The hook the ``vectorized`` engine executor dispatches to: every
        :class:`~repro.engine.protocol.MeasurementRequest` becomes one lane
        of :func:`repro.sim.batch.simulate_batch`, with per-request
        ``params``/``scenario``/``traffic``/``duration`` overrides resolved
        exactly like the scalar path resolves them and per-request seeds
        mapped onto the same ``SeedSequence([base_seed, seed])`` streams —
        so a request's result is reproducible regardless of which other
        requests share the batch.  Results are statistically equivalent to,
        not byte-identical with, the scalar discrete-event path (see
        :mod:`repro.sim.batch`).
        """
        from repro.sim.batch import simulate_batch

        configs, scenarios, params, durations, rngs = [], [], [], [], []
        for request in requests:
            scenario = request.scenario if request.scenario is not None else self.scenario
            if request.traffic is not None:
                scenario = scenario.replace(traffic=int(request.traffic))
            configs.append(request.config)
            scenarios.append(scenario)
            params.append(request.params if request.params is not None else self.params)
            durations.append(
                float(request.duration) if request.duration is not None else scenario.duration_s
            )
            rngs.append(self._make_rng(request.seed))
        return simulate_batch(
            configs,
            scenarios,
            params,
            self.imperfections,
            durations,
            rngs,
            isolation=self.isolation,
        )

    def run_batch(
        self,
        configs: "Sequence[SliceConfig]",
        traffic: int | None = None,
        duration: float | None = None,
        seeds: "Sequence[int | None] | int | None" = None,
        scenario: Scenario | None = None,
    ) -> "list[SimulationResult]":
        """Evaluate N configurations in one vectorized pass.

        Parameters
        ----------
        configs:
            The slice configurations to measure, one lane each.
        traffic, duration, scenario:
            Shared overrides, with the same ``None`` semantics as
            :meth:`run` (``scenario`` replaces this simulator's scenario
            for every lane before the ``traffic`` override is applied).
        seeds:
            Per-lane seeds.  A sequence gives each lane its own seed
            (``None`` entries draw from the auto-seed stream like
            :meth:`run` with ``seed=None``); a single ``int`` reuses that
            seed for every lane — the batched equivalent of calling
            :meth:`run` with the same seed per configuration; ``None``
            draws every lane from the auto-seed stream.
        """
        from repro.engine.protocol import MeasurementRequest

        configs = list(configs)
        if seeds is None or isinstance(seeds, (int, np.integer)):
            seeds = [seeds] * len(configs)
        elif len(seeds) != len(configs):
            raise ValueError(f"expected {len(configs)} seeds, got {len(seeds)}")
        return self.run_requests(
            [
                MeasurementRequest(
                    config=config, traffic=traffic, duration=duration, seed=seed, scenario=scenario
                )
                for config, seed in zip(configs, seeds)
            ]
        )

    # ------------------------------------------------------------- multi-slice
    def run_slices(
        self,
        runs: "list[SliceRun] | tuple[SliceRun, ...]",
        budget: ResourceBudget | None = None,
        duration: float | None = None,
        engine=None,
    ) -> MultiSliceResult:
        """Measure several slices concurrently under shared-resource contention.

        The requested configurations are first resolved against ``budget``
        (proportional fair sharing, see
        :func:`repro.sim.multislice.resolve_contention`), then every slice is
        measured under its own scenario as one
        :class:`~repro.engine.engine.MeasurementEngine` batch — so
        multi-slice rounds parallelise across executor workers and hit the
        result cache exactly like single-slice measurements.

        Parameters
        ----------
        runs:
            One :class:`~repro.sim.multislice.SliceRun` per slice (name,
            requested config, scenario, optional SLA and seed).
        budget:
            Shared physical totals; defaults to one 10 MHz carrier, 100 Mbps
            transport and a dual-core edge host.
        duration:
            Measurement duration override (defaults to each slice scenario's
            ``duration_s``).
        engine:
            Engine to batch through; must wrap this environment.  A private
            default engine is created when omitted.
        """
        return run_contended(self, runs, budget=budget, duration=duration, engine=engine)

    def run_slices_batch(
        self,
        rounds: "Sequence[Sequence[SliceRun]]",
        budget: ResourceBudget | None = None,
        duration: float | None = None,
        engine=None,
    ) -> "list[MultiSliceResult]":
        """Measure many contended multi-slice rounds as one batch.

        Each round's requested configurations are resolved against
        ``budget`` with the same proportional-fair contention solver as
        :meth:`run_slices`; the slices of every round are then measured as
        one engine batch (one vectorized pass under the ``vectorized``
        executor).  Returns one
        :class:`~repro.sim.multislice.MultiSliceResult` per round, in
        order.  ``engine`` must wrap this simulator; a private engine is
        created when omitted.
        """
        return run_contended_batch(self, rounds, budget=budget, duration=duration, engine=engine)

    # ------------------------------------------------------------------- ping
    def _ping_delay_ms(
        self,
        ran: RadioAccessNetwork,
        backhaul: BackhaulLink,
        rng: np.random.Generator,
    ) -> float:
        """Round-trip time of a 64-byte ICMP echo through RAN + TN + CN."""
        ping_bytes = 64.0
        uplink = ran.uplink_adaptation()
        downlink = ran.downlink_adaptation()
        if uplink.rate_bps <= 0 or downlink.rate_bps <= 0:
            return float("inf")
        # LTE scheduling grant + HARQ round trip dominate small-packet RTT.
        scheduling_grant_ms = 24.0
        air_ms = (ping_bytes * 8.0 / uplink.rate_bps + ping_bytes * 8.0 / downlink.rate_bps) * 1e3
        transport_ms = 2.0 * (
            ping_bytes * 8.0 / (backhaul.capacity_mbps * 1e6) * 1e3
            + BASE_PROPAGATION_DELAY_MS
            + self.params.backhaul_delay
        )
        core_ms = 2.0 * BASE_FORWARDING_DELAY_MS
        overhead_ms = self.imperfections.per_frame_overhead_ms * 0.25
        jitter_ms = abs(rng.normal(0.0, 1.0))
        return float(scheduling_grant_ms + air_ms + transport_ms + core_ms + overhead_ms + jitter_ms)
