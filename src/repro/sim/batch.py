"""Vectorized batch evaluation of the network simulator.

The scalar path (:meth:`repro.sim.network.NetworkSimulator.run`) walks every
frame through a discrete-event calendar — flexible, but each of the N
configurations a stage evaluates per iteration pays the full Python event
loop.  This module evaluates the N lanes of a batch together:

* every per-frame quantity (frame sizes, link adaptation, HARQ/ARQ
  penalties, compute times, jitters) is precomputed as an ``(n, B)`` array
  for a block of ``B`` frame indices at a time, in one NumPy pass over the
  n lanes still running, and
* the closed-loop pipeline itself — UE loading, radio uplink, backhaul,
  core, edge compute, core/backhaul/radio downlink, with ``traffic`` frames
  kept in flight — collapses to the Lindley recurrence of a tandem of seven
  FIFO servers, evaluated frame by frame.

Two layouts of one recurrence
    The recurrence only adds and takes maxima, in a fixed order, and IEEE
    ``+`` and ``max`` give the same double whether NumPy or Python applies
    them.  It therefore runs in either of two layouts with bit-identical
    results:

    * the *vector* layout walks a block frame by frame with ``(n,)``-wide
      operations over the running lanes — about thirty NumPy calls per
      frame, which cost nearly the same for 1 lane as for 30;
    * the *scalar* layout walks each lane on its own, on Python floats
      converted with ``tolist()`` once per block, and stops each lane at its
      own last frame.

    Each block picks its layout from the number of lanes still running:
    at most ``_SCALAR_MAX_LANES`` run scalar, wider blocks run vectorized.
    A wide batch whose lanes finish at different times thus ends in the
    scalar layout.

Per-lane stop rule
    Frame ``g`` of a lane with ``traffic`` frames in flight is created when
    frame ``g - traffic`` completes (the first ``traffic`` frames are
    spaced 5 ms apart), and only if that happens within the lane's
    ``duration``.  A frame that is never created carries ``inf``
    timestamps, which poison the lane's server states: no later frame of
    the lane completes.  With ``traffic >= 2`` a latency spike can make a
    frame complete after its successor, so a lane can miss frame ``g`` and
    still create frame ``g + 1``.  A lane is therefore finished at frame
    ``g`` only once its last ``traffic`` completions all lie past its
    ``duration``; from then on none of its frames can be created.  A
    finished lane draws no further blocks.  The rule looks at the lane
    alone, never at the rest of the batch.

Numerical contract
    The vectorized path samples the *same distributions* as the scalar
    discrete-event path and applies the same queueing discipline, but it
    consumes its per-lane random stream in a different (fixed, batched)
    order.  Results for one request are therefore statistically equivalent
    to — not byte-identical with — the scalar path; the equivalence gate in
    ``tests/test_sim_batch.py`` pins the agreement on every catalog
    scenario.  The only behavioural approximation is frame re-ordering:
    the scalar path spawns a new frame on every *completion event*, while
    the vectorized recurrence assumes frame ``j`` is spawned by the
    completion of frame ``j - traffic``.  The two differ only when latency
    spikes reorder completions, which perturbs per-frame pairings but not
    the latency distribution.

Determinism and shard invariance
    Each lane draws from its own generator, seeded exactly like the scalar
    path (``SeedSequence([base_seed, request_seed])``), on a fixed schedule:
    the post-run draws (ping, saturation throughput) first, then one
    ``(_VARS, _BLOCK_FRAMES)`` block of normals/uniforms per block of frame
    indices it runs.  A lane's draws, its recurrence and its stop rule
    depend only on its own request, never on which other requests share
    the batch, so ``run_batch`` results are reproducible per request under
    any batch composition.

    This is a load-bearing contract: any *partition* of a batch evaluates
    byte-identically to the whole batch.  The ``sharded`` engine executor
    (``repro/engine/executors.py``) relies on exactly this to split one
    large batch across worker processes, each running this pass over its
    shard, with results byte-identical to the single whole-batch pass;
    ``tests/test_engine_sharded.py`` gates the equivalence on every catalog
    scenario and ``tests/test_sim_batch.py`` checks both layouts against
    each other.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.sim import ran as _ran
from repro.sim.channel import PRB_BANDWIDTH_HZ
from repro.sim.config import SliceConfig
from repro.sim.core_network import BASE_FORWARDING_DELAY_MS
from repro.sim.edge import MINIMUM_CPU_RATIO
from repro.sim.imperfections import Imperfections
from repro.sim.lte import (
    block_error_rate_array,
    expected_transmissions_array,
    select_mcs_array,
    spectral_efficiency_array,
)
from repro.sim.transport import BASE_PROPAGATION_DELAY_MS, MINIMUM_BACKHAUL_MBPS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import SimulationResult
    from repro.sim.parameters import SimulationParameters
    from repro.sim.scenario import Scenario

__all__ = ["simulate_batch"]

#: Frame indices evaluated per precomputation block.  Part of the per-lane
#: random-draw schedule: changing it re-shuffles the vectorized streams
#: (like changing a seed derivation would), so treat it as a constant.
_BLOCK_FRAMES = 256

#: Widest block, in lanes still running, whose recurrence runs in the scalar
#: layout; wider blocks run in the vector layout.  The measured crossover
#: (docs/performance.md, "Simulation layer").
_SCALAR_MAX_LANES = 16

#: Hard cap on frame indices per lane — a runaway guard, far above any
#: realistic closed-loop run (the paper's 60 s runs complete ~10^3 frames).
_MAX_FRAMES = 2_000_000

#: Thermal noise density (dBm/Hz), mirroring :mod:`repro.sim.channel`.
_THERMAL_NOISE_DBM_PER_HZ = -174.0

#: Core-network defaults mirrored from :class:`repro.sim.core_network.CoreNetwork`
#: (the simulator facade always builds it with default arguments).
_CORE_SERVICE_S = 0.1 / 1e3
_CORE_JITTER_MS = 0.2
#: Backhaul propagation jitter mirrored from :class:`repro.sim.transport.BackhaulLink`.
_BACKHAUL_JITTER_MS = 0.3

# Normal-draw rows of one precomputation block (fixed schedule, see module
# docstring).
_N_FRAME, _N_RESULT, _N_LOADING, _N_UL_FADE, _N_BH_UL, _N_CORE_UL, _N_COMPUTE, \
    _N_CORE_DL, _N_BH_DL, _N_DL_FADE = range(10)
# Uniform-draw rows.
_U_UL_DIST, _U_UL_DEEP, _U_UL_ERR, _U_UL_ARQ, _U_DL_DIST, _U_DL_DEEP, _U_DL_ERR, \
    _U_DL_ARQ, _U_SPIKE, _U_SPIKE_MAG = range(10)

# Columns of a lane's timeline: the timestamps of each frame (one row per frame).
_CREATED, _ARR_UL, _START_UL, _FIN_UL, _ARR_CORE, _ARR_EDGE, _FIN_EDGE, _ARR_RAN_DL, \
    _START_DL, _COMPLETED = range(10)
_TIMESTAMPS = 10

#: Stage-breakdown spans: (stage, timeline column it starts at, column it ends at).
_STAGE_SPANS = (
    ("loading", _CREATED, _ARR_UL),
    ("uplink", _ARR_UL, _FIN_UL),
    ("backhaul_ul", _FIN_UL, _ARR_CORE),
    ("core_ul", _ARR_CORE, _ARR_EDGE),
    ("compute", _ARR_EDGE, _FIN_EDGE),
    ("backhaul_dl", _FIN_EDGE, _ARR_RAN_DL),
    ("downlink", _ARR_RAN_DL, _COMPLETED),
)


def _per_lane(values, dtype=float) -> np.ndarray:
    return np.asarray(list(values), dtype=dtype)


def _available_prbs(configured: np.ndarray, isolation: bool, extra_users: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`RadioAccessNetwork._available_prbs`."""
    if isolation:
        return configured
    stolen = np.minimum(configured * 0.2 * extra_users, configured * 0.8)
    return np.where(extra_users > 0, configured - stolen, configured)


def _adaptation(
    *,
    prbs: np.ndarray,
    tx_power_dbm: np.ndarray,
    noise_figure_db: np.ndarray,
    baseline_loss: np.ndarray,
    distance: np.ndarray,
    fading_db: np.ndarray,
    mcs_offset: np.ndarray,
    efficiency_factor: float,
    rate_derate: float,
    bler_floor: float,
):
    """Vectorized link adaptation: SINR -> MCS -> rate/BLER for one direction.

    All inputs broadcast, so the same routine serves the per-frame
    ``(n, B)`` arrays of a block and the ``(4, N)`` post-run draws (one row
    per saturation-throughput or ping direction).
    """
    pathloss = baseline_loss + 30.0 * np.log10(np.maximum(distance, 1.0))
    bandwidth_hz = np.maximum(prbs, 1.0) * PRB_BANDWIDTH_HZ
    noise_dbm = _THERMAL_NOISE_DBM_PER_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db
    sinr = tx_power_dbm - pathloss - fading_db - noise_dbm
    mcs = select_mcs_array(sinr, mcs_offset)
    rate = np.where(
        prbs > 0,
        prbs * PRB_BANDWIDTH_HZ * spectral_efficiency_array(mcs) * efficiency_factor,
        0.0,
    ) * rate_derate
    bler = block_error_rate_array(sinr, mcs, bler_floor)
    return sinr, rate, bler


def _transmission_time_s(
    size_bytes: np.ndarray,
    rate_bps: np.ndarray,
    bler: np.ndarray,
    arq_uniform: np.ndarray,
) -> np.ndarray:
    """Vectorized :meth:`RadioAccessNetwork._transmission_time_s`."""
    retx = expected_transmissions_array(bler)
    safe_rate = np.where(rate_bps > 0, rate_bps, 1.0)
    airtime = size_bytes * 8.0 / safe_rate
    harq_penalty = (retx - 1.0) * _ran._HARQ_RTT_MS / 1e3
    arq_penalty = np.where(arq_uniform < bler**4, _ran._ARQ_RECOVERY_MS / 1e3, 0.0)
    return np.where(rate_bps > 0, airtime * retx + harq_penalty + arq_penalty, 2.0)


def _sample_distance(
    uniform: np.ndarray, distance_m: np.ndarray, random_walk: np.ndarray
) -> np.ndarray:
    """Vectorized :meth:`RadioAccessNetwork._current_distance`."""
    spread = np.maximum(1.0, distance_m)
    walked = 0.5 + uniform * (distance_m + spread - 0.5)
    return np.where(random_walk, walked, distance_m)


def _block_inputs(
    lane: dict[str, np.ndarray],
    normals: np.ndarray,
    uniforms: np.ndarray,
    imp: Imperfections,
    ul_floor: float,
    dl_floor: float,
):
    """Per-frame inputs of one block for the lanes whose constants ``lane`` holds.

    ``lane`` maps each per-lane constant to an ``(n, 1)`` column; ``normals``
    and ``uniforms`` are the lanes' ``(n, 10, B)`` draws.  Returns the eleven
    ``(n, B)`` per-frame inputs of the recurrence, in the order the rollouts
    unpack them, and the ``(2, n, B)`` uplink/downlink error flags.
    """
    frame_mean = lane["frame_mean"]
    result_mean = lane["result_mean"]
    base_loading = lane["base_loading"]
    compute_mean = lane["compute_mean"]
    serialization_denominator = lane["serialization_denominator"]

    frame_bytes = np.maximum(
        frame_mean + lane["frame_std"] * normals[:, _N_FRAME], 0.2 * frame_mean
    )
    result_bytes = np.maximum(
        result_mean * (1.0 + 0.1 * normals[:, _N_RESULT]), 0.2 * result_mean
    )
    loading_s = (
        base_loading
        + lane["loading_extra_ms"]
        + np.abs(normals[:, _N_LOADING]) * 0.1 * base_loading
    ) / 1e3

    ul_fading = imp.fading_std_db * normals[:, _N_UL_FADE] + np.where(
        uniforms[:, _U_UL_DEEP] < imp.deep_fade_probability, imp.deep_fade_db, 0.0
    )
    _, ul_rate, ul_bler = _adaptation(
        prbs=lane["ul_prbs"],
        tx_power_dbm=lane["ue_tx"],
        noise_figure_db=lane["enb_nf"],
        baseline_loss=lane["baseline_loss"],
        distance=_sample_distance(
            uniforms[:, _U_UL_DIST], lane["distance_m"], lane["random_walk"]
        ),
        fading_db=ul_fading,
        mcs_offset=lane["mcs_off_ul"],
        efficiency_factor=_ran.UL_EFFICIENCY_FACTOR,
        rate_derate=imp.ul_rate_derate,
        bler_floor=ul_floor,
    )
    ul_service = _transmission_time_s(frame_bytes, ul_rate, ul_bler, uniforms[:, _U_UL_ARQ])
    ul_error = uniforms[:, _U_UL_ERR] < ul_bler

    dl_fading = imp.fading_std_db * normals[:, _N_DL_FADE] + np.where(
        uniforms[:, _U_DL_DEEP] < imp.deep_fade_probability, imp.deep_fade_db, 0.0
    )
    _, dl_rate, dl_bler = _adaptation(
        prbs=lane["dl_prbs"],
        tx_power_dbm=lane["enb_tx"],
        noise_figure_db=lane["ue_nf"],
        baseline_loss=lane["baseline_loss"],
        distance=_sample_distance(
            uniforms[:, _U_DL_DIST], lane["distance_m"], lane["random_walk"]
        ),
        fading_db=dl_fading,
        mcs_offset=lane["mcs_off_dl"],
        efficiency_factor=_ran.DL_EFFICIENCY_FACTOR,
        rate_derate=imp.dl_rate_derate,
        bler_floor=dl_floor,
    )
    dl_service = _transmission_time_s(result_bytes, dl_rate, dl_bler, uniforms[:, _U_DL_ARQ])
    dl_error = uniforms[:, _U_DL_ERR] < dl_bler

    bh_ul_service = frame_bytes * 8.0 / serialization_denominator
    bh_dl_service = result_bytes * 8.0 / serialization_denominator
    bh_ul_post = (
        BASE_PROPAGATION_DELAY_MS
        + lane["p_backhaul_delay"]
        + np.abs(normals[:, _N_BH_UL]) * _BACKHAUL_JITTER_MS
    ) / 1e3
    bh_dl_post = (
        BASE_PROPAGATION_DELAY_MS
        + lane["p_backhaul_delay"]
        + np.abs(normals[:, _N_BH_DL]) * _BACKHAUL_JITTER_MS
    ) / 1e3
    core_ul_post = (
        BASE_FORWARDING_DELAY_MS + np.abs(normals[:, _N_CORE_UL]) * _CORE_JITTER_MS
    ) / 1e3
    core_dl_post = (
        BASE_FORWARDING_DELAY_MS + np.abs(normals[:, _N_CORE_DL]) * _CORE_JITTER_MS
    ) / 1e3
    compute_s = (
        np.maximum(
            compute_mean + lane["compute_std"] * normals[:, _N_COMPUTE],
            0.2 * compute_mean,
        )
        / lane["cpu_ratio"]
        + lane["p_compute"]
    ) / 1e3
    spike_lo, spike_hi = imp.spike_ms_range
    spike_s = np.where(
        uniforms[:, _U_SPIKE] < imp.spike_probability,
        (spike_lo + uniforms[:, _U_SPIKE_MAG] * (spike_hi - spike_lo)) / 1e3,
        0.0,
    )
    inputs = (
        loading_s, ul_service, bh_ul_service, bh_ul_post, core_ul_post, compute_s,
        core_dl_post, bh_dl_service, bh_dl_post, dl_service, spike_s,
    )
    return inputs, np.stack([ul_error, dl_error])


def _finished(history: np.ndarray, traffic: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Lanes none of whose last ``traffic`` completions lies within ``duration``.

    Only such a completion can create a frame, so these lanes create no
    more.  ``history`` holds completion times frame-major — one row per
    frame, oldest first, one column per lane — with at least
    ``traffic.max()`` rows (see :func:`_scalar_rollout` for the rows before
    frame 0).
    """
    depth = int(traffic.max())
    age = np.arange(depth, 0, -1)[:, None]
    creating = (history[len(history) - depth:] <= duration) & (age <= traffic)
    return ~np.any(creating, axis=0)


def _scalar_rollout(traffic, duration, servers, tail, inputs):
    """Run one block of the recurrence lane by lane on Python floats.

    ``servers`` holds each lane's seven "previous service finished at"
    states and ``tail`` its last completions, oldest first.  Frame ``g`` is
    created when frame ``g - traffic`` completes, so before frame 0 the tail
    holds the opening schedule instead: the creation times of frames
    ``0, ..., traffic - 1``.  Returns each lane's ``(frames, _TIMESTAMPS)``
    timeline for the block, the updated ``servers`` and ``tail``, and which
    lanes finished.  Every lane stops at its own last frame.
    """
    depth = tail.shape[1]
    inf = math.inf
    core = _CORE_SERVICE_S
    columns = [values.tolist() for values in inputs]
    server_rows = servers.tolist()
    tail_rows = tail.tolist()
    timelines = []
    finished = []
    for k, (in_flight, end) in enumerate(zip(traffic.tolist(), duration.tolist())):
        fin_ul, fin_bh_ul, fin_core_ul, fin_edge, fin_core_dl, fin_bh_dl, fin_dl = server_rows[k]
        completions = tail_rows[k]  # grows by one entry per frame below
        late = 0  # trailing run of completions that create no frame
        for value in reversed(completions[depth - in_flight:]):
            if value <= end:
                break
            late += 1
        record: list[float] = []
        for (created, loading, ul_service, bh_ul_service, bh_ul_post, core_ul_post, compute,
             core_dl_post, bh_dl_service, bh_dl_post, dl_service, spike) in zip(
            islice(completions, depth - in_flight, None), *(c[k] for c in columns)
        ):
            if late >= in_flight:
                break
            if not created <= end:
                created = inf
            arr_ul = created + loading
            start_ul = arr_ul if arr_ul > fin_ul else fin_ul
            fin_ul = start_ul + ul_service
            fin_bh_ul = (fin_ul if fin_ul > fin_bh_ul else fin_bh_ul) + bh_ul_service
            arr_core = fin_bh_ul + bh_ul_post
            fin_core_ul = (arr_core if arr_core > fin_core_ul else fin_core_ul) + core
            arr_edge = fin_core_ul + core_ul_post
            fin_edge = (arr_edge if arr_edge > fin_edge else fin_edge) + compute
            fin_core_dl = (fin_edge if fin_edge > fin_core_dl else fin_core_dl) + core
            arr_bh_dl = fin_core_dl + core_dl_post
            fin_bh_dl = (arr_bh_dl if arr_bh_dl > fin_bh_dl else fin_bh_dl) + bh_dl_service
            arr_ran_dl = fin_bh_dl + bh_dl_post
            start_dl = arr_ran_dl if arr_ran_dl > fin_dl else fin_dl
            fin_dl = start_dl + dl_service
            completed = fin_dl + spike
            completions.append(completed)
            late = 0 if completed <= end else late + 1
            # In timeline-column order, _CREATED to _COMPLETED.
            record.extend((created, arr_ul, start_ul, fin_ul, arr_core, arr_edge, fin_edge,
                           arr_ran_dl, start_dl, completed))
        timelines.append(np.array(record).reshape(-1, _TIMESTAMPS))
        server_rows[k] = [fin_ul, fin_bh_ul, fin_core_ul, fin_edge, fin_core_dl, fin_bh_dl, fin_dl]
        tail_rows[k] = completions[len(completions) - depth:]
        finished.append(late >= in_flight)
    return timelines, np.array(server_rows), np.array(tail_rows), np.array(finished)


def _vector_rollout(traffic, duration, servers, tail, inputs):
    """Run one block of the recurrence frame by frame over all lanes at once.

    Same contract as :func:`_scalar_rollout`.  Lanes that finish mid-block
    keep producing ``inf`` frames until every lane has finished or the
    block ends.
    """
    # Frame-major copies, so every per-frame read and write is one contiguous row.
    (loading_s, ul_service, bh_ul_service, bh_ul_post, core_ul_post, compute_s,
     core_dl_post, bh_dl_service, bh_dl_post, dl_service, spike_s) = (
        np.ascontiguousarray(values.T) for values in inputs
    )
    n, depth = tail.shape
    block = len(loading_s)
    history = np.empty((depth + block, n))
    history[:depth] = tail.T
    # Frame j of the block is created by history row lag + j.
    lag = depth - traffic
    shared_lag = int(lag[0]) if np.all(lag == lag[0]) else None
    lanes = np.arange(n)
    fin_ul, fin_bh_ul, fin_core_ul, fin_edge, fin_core_dl, fin_bh_dl, fin_dl = servers.T
    timeline = np.empty((block, _TIMESTAMPS, n))
    frames = block
    for j in range(block):
        created = history[shared_lag + j] if shared_lag is not None else history[lag + j, lanes]
        live = created <= duration
        if not live.any() and np.all(_finished(history[: depth + j], traffic, duration)):
            frames = j
            break
        created = np.where(live, created, np.inf)

        arr_ul = created + loading_s[j]
        start_ul = np.maximum(arr_ul, fin_ul)
        fin_ul = start_ul + ul_service[j]
        fin_bh_ul = np.maximum(fin_ul, fin_bh_ul) + bh_ul_service[j]
        arr_core = fin_bh_ul + bh_ul_post[j]
        fin_core_ul = np.maximum(arr_core, fin_core_ul) + _CORE_SERVICE_S
        arr_edge = fin_core_ul + core_ul_post[j]
        fin_edge = np.maximum(arr_edge, fin_edge) + compute_s[j]
        fin_core_dl = np.maximum(fin_edge, fin_core_dl) + _CORE_SERVICE_S
        arr_bh_dl = fin_core_dl + core_dl_post[j]
        fin_bh_dl = np.maximum(arr_bh_dl, fin_bh_dl) + bh_dl_service[j]
        arr_ran_dl = fin_bh_dl + bh_dl_post[j]
        start_dl = np.maximum(arr_ran_dl, fin_dl)
        fin_dl = start_dl + dl_service[j]
        completed = fin_dl + spike_s[j]

        history[depth + j] = completed
        row = timeline[j]
        row[_CREATED] = created
        row[_ARR_UL] = arr_ul
        row[_START_UL] = start_ul
        row[_FIN_UL] = fin_ul
        row[_ARR_CORE] = arr_core
        row[_ARR_EDGE] = arr_edge
        row[_FIN_EDGE] = fin_edge
        row[_ARR_RAN_DL] = arr_ran_dl
        row[_START_DL] = start_dl
        row[_COMPLETED] = completed

    history = history[: depth + frames]
    servers = np.stack([fin_ul, fin_bh_ul, fin_core_ul, fin_edge, fin_core_dl, fin_bh_dl, fin_dl],
                       axis=1)
    per_lane = np.ascontiguousarray(timeline[:frames].transpose(2, 0, 1))
    return list(per_lane), servers, history[frames:].T, _finished(history, traffic, duration)


def simulate_batch(
    configs: Sequence[SliceConfig],
    scenarios: Sequence["Scenario"],
    params: Sequence["SimulationParameters"],
    imperfections: Imperfections,
    durations: Sequence[float],
    rngs: Sequence[np.random.Generator],
    isolation: bool = True,
) -> list["SimulationResult"]:
    """Evaluate N ``(config, scenario, params, duration, rng)`` lanes in one pass.

    The entry point the simulator facade (and through it the ``vectorized``
    engine executor) uses; all sequences must have equal length N.  Returns
    one :class:`~repro.sim.network.SimulationResult` per lane, in order.
    """
    from repro.sim.network import SimulationResult

    n = len(configs)
    if not (len(scenarios) == len(params) == len(durations) == len(rngs) == n):
        raise ValueError("all per-lane sequences must have the same length")
    if n == 0:
        return []
    imp = imperfections

    # ------------------------------------------------- per-lane constants (N,)
    traffic = _per_lane((s.traffic for s in scenarios), dtype=np.int64)
    duration = _per_lane(durations)
    distance_m = _per_lane(s.distance_m for s in scenarios)
    random_walk = np.array([s.mobility == "random_walk" for s in scenarios])
    extra_users = _per_lane(s.extra_users for s in scenarios)
    ue_tx = _per_lane(s.ue_tx_power_dbm for s in scenarios)
    enb_tx = _per_lane(s.enb_tx_power_dbm for s in scenarios)

    baseline_loss = _per_lane(p.baseline_loss for p in params)
    enb_nf = _per_lane(p.enb_noise_figure for p in params)
    ue_nf = _per_lane(p.ue_noise_figure for p in params)
    p_backhaul_delay = _per_lane(p.backhaul_delay for p in params)

    ul_prbs = _available_prbs(
        _per_lane(c.effective_uplink_prbs() for c in configs), isolation, extra_users
    )
    dl_prbs = _available_prbs(
        _per_lane(c.effective_downlink_prbs() for c in configs), isolation, extra_users
    )
    mcs_off_ul = _per_lane(c.mcs_offset_ul for c in configs)
    mcs_off_dl = _per_lane(c.mcs_offset_dl for c in configs)
    capacity_mbps = np.maximum(
        _per_lane(c.backhaul_bw for c in configs) + _per_lane(p.backhaul_bw for p in params),
        MINIMUM_BACKHAUL_MBPS,
    )
    ul_floor = 4e-3 * max(imp.error_floor_scale, 1e-6)
    dl_floor = 2e-3 * max(imp.error_floor_scale, 1e-6)

    # The constants of the per-block precompute, as (N, 1) columns.
    columns = {
        "frame_mean": _per_lane(s.frame_size_mean_bytes for s in scenarios),
        "frame_std": _per_lane(s.frame_size_std_bytes for s in scenarios),
        "result_mean": _per_lane(s.result_size_bytes for s in scenarios),
        "base_loading": _per_lane(s.base_loading_time_ms for s in scenarios),
        "loading_extra_ms": (
            _per_lane(p.loading_time for p in params)
            + imp.per_frame_overhead_ms
            + imp.per_traffic_overhead_ms * np.maximum(traffic - 1, 0)
        ),
        "ul_prbs": ul_prbs,
        "dl_prbs": dl_prbs,
        "ue_tx": ue_tx,
        "enb_tx": enb_tx,
        "enb_nf": enb_nf,
        "ue_nf": ue_nf,
        "baseline_loss": baseline_loss,
        "distance_m": distance_m,
        "random_walk": random_walk,
        "mcs_off_ul": mcs_off_ul,
        "mcs_off_dl": mcs_off_dl,
        "serialization_denominator": capacity_mbps * 1e6,
        "p_backhaul_delay": p_backhaul_delay,
        "compute_mean": (
            _per_lane(s.compute_time_mean_ms for s in scenarios) * imp.compute_slowdown
        ),
        "compute_std": (
            _per_lane(s.compute_time_std_ms for s in scenarios) * imp.compute_jitter_scale
        ),
        "cpu_ratio": np.maximum(_per_lane(c.cpu_ratio for c in configs), MINIMUM_CPU_RATIO),
        "p_compute": _per_lane(p.compute_time for p in params),
    }
    columns = {name: values[:, None] for name, values in columns.items()}

    # Post-run draws come first on each lane's schedule so their position —
    # and therefore the ping/saturation metrics — cannot depend on how many
    # frame blocks the lane consumes.
    post_normals = np.stack([rng.standard_normal(5) for rng in rngs])  # (N, 5)
    post_uniforms = np.stack([rng.random(8) for rng in rngs])  # (N, 8)

    # ----------------------------------------------------- closed-loop rollout
    # Per-server "previous service finished at" state of the Lindley
    # recurrence, and each lane's last completions, right-aligned.  These
    # start as the lane's opening schedule: frame k < traffic is created at
    # k * 5 ms.  Columns left of a lane's own traffic are never read.
    servers = np.zeros((n, 7))
    depth = int(traffic.max())
    opening = np.arange(depth) - (depth - traffic[:, None])
    tail = np.where(opening >= 0, opening * 0.005, -np.inf)
    timelines: list[list[np.ndarray]] = [[] for _ in range(n)]
    errors: list[list[np.ndarray]] = [[] for _ in range(n)]
    active = np.arange(n)
    lane = columns
    start = 0
    while active.size:
        if start >= _MAX_FRAMES:  # pragma: no cover - runaway guard
            raise RuntimeError(
                f"vectorized lane exceeded {_MAX_FRAMES} frame indices; "
                "check the duration/traffic inputs"
            )
        normals = np.stack([rngs[i].standard_normal((10, _BLOCK_FRAMES)) for i in active])
        uniforms = np.stack([rngs[i].random((10, _BLOCK_FRAMES)) for i in active])
        inputs, flags = _block_inputs(lane, normals, uniforms, imp, ul_floor, dl_floor)
        rollout = _scalar_rollout if active.size <= _SCALAR_MAX_LANES else _vector_rollout
        block_timelines, servers[active], tail[active], finished = rollout(
            traffic[active], duration[active], servers[active], tail[active], inputs
        )
        for k, i in enumerate(active.tolist()):
            timelines[i].append(block_timelines[k])
            errors[i].append(flags[:, k, : len(block_timelines[k])])
        if finished.any():
            active = active[~finished]
            lane = {name: values[active] for name, values in columns.items()}
        start += _BLOCK_FRAMES

    # ------------------------------------------------------- post-run metrics
    # Four link adaptations, one per row: uplink and downlink saturation
    # throughput (full carrier, no MCS offset), then uplink and downlink ping
    # rate (the configured slice).  Row k uses post-run draws k and 4 + k.
    uplink = np.array([True, False, True, False])[:, None]
    full_prbs = _available_prbs(
        np.full(n, float(SliceConfig.maximum().bandwidth_ul)), isolation, extra_users
    )
    zeros = np.zeros(n)
    _, rate, bler = _adaptation(
        prbs=np.stack([full_prbs, full_prbs, ul_prbs, dl_prbs]),
        tx_power_dbm=np.where(uplink, ue_tx, enb_tx),
        noise_figure_db=np.where(uplink, enb_nf, ue_nf),
        baseline_loss=baseline_loss,
        distance=_sample_distance(post_uniforms[:, 4:].T, distance_m, random_walk),
        fading_db=imp.fading_std_db * post_normals[:, :4].T + np.where(
            post_uniforms[:, :4].T < imp.deep_fade_probability, imp.deep_fade_db, 0.0
        ),
        mcs_offset=np.stack([zeros, zeros, mcs_off_ul, mcs_off_dl]),
        efficiency_factor=np.where(uplink, _ran.UL_EFFICIENCY_FACTOR, _ran.DL_EFFICIENCY_FACTOR),
        rate_derate=np.where(uplink, imp.ul_rate_derate, imp.dl_rate_derate),
        bler_floor=np.where(uplink, ul_floor, dl_floor),
    )
    ul_throughput, dl_throughput = rate[:2] * (1.0 - bler[:2]) / 1e6
    ping_rates = rate[2:]
    ping_bytes = 64.0
    with np.errstate(divide="ignore"):
        air_ms = (ping_bytes * 8.0 / ping_rates[0] + ping_bytes * 8.0 / ping_rates[1]) * 1e3
    transport_ms = 2.0 * (
        ping_bytes * 8.0 / (capacity_mbps * 1e6) * 1e3
        + BASE_PROPAGATION_DELAY_MS
        + p_backhaul_delay
    )
    ping_ms = np.where(
        (ping_rates[0] > 0) & (ping_rates[1] > 0),
        24.0
        + air_ms
        + transport_ms
        + 2.0 * BASE_FORWARDING_DELAY_MS
        + imp.per_frame_overhead_ms * 0.25
        + np.abs(post_normals[:, 4]),
        np.inf,
    )

    # --------------------------------------------------------------- results
    results: list[SimulationResult] = []
    stages = [stage for stage, _, _ in _STAGE_SPANS]
    begins = [begin for _, begin, _ in _STAGE_SPANS]
    ends = [end for _, _, end in _STAGE_SPANS]
    for i in range(n):
        timeline = np.concatenate(timelines[i])
        ul_error, dl_error = np.concatenate(errors[i], axis=1)
        generated = np.isfinite(timeline[:, _CREATED])
        ok = generated & (timeline[:, _COMPLETED] <= duration[i])
        started_ul = generated & (timeline[:, _START_UL] <= duration[i])
        started_dl = generated & (timeline[:, _START_DL] <= duration[i])
        kept = timeline[ok]
        latencies = (kept[:, _COMPLETED] - kept[:, _CREATED]) * 1e3
        breakdown: dict[str, float] = {}
        if len(kept):
            # One contiguous row per stage: a row-wise sum adds in the same
            # (pairwise) order as np.mean over that stage's spans.
            spans = np.ascontiguousarray(((kept[:, ends] - kept[:, begins]) * 1e3).T)
            breakdown = dict(zip(stages, (np.add.reduce(spans, axis=1) / len(kept)).tolist()))
        ul_blocks = int(np.sum(started_ul))
        dl_blocks = int(np.sum(started_dl))
        results.append(
            SimulationResult(
                latencies_ms=latencies,
                frames_generated=int(np.sum(generated)),
                frames_completed=int(latencies.size),
                duration_s=float(duration[i]),
                config=configs[i],
                traffic=int(traffic[i]),
                ul_throughput_mbps=float(ul_throughput[i]),
                dl_throughput_mbps=float(dl_throughput[i]),
                ul_packet_error_rate=(
                    float(np.sum(ul_error & started_ul) / ul_blocks) if ul_blocks else 0.0
                ),
                dl_packet_error_rate=(
                    float(np.sum(dl_error & started_dl) / dl_blocks) if dl_blocks else 0.0
                ),
                ping_delay_ms=float(ping_ms[i]),
                stage_breakdown_ms=breakdown,
            )
        )
    return results
