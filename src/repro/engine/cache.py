"""Content-keyed measurement cache with hit/miss accounting.

Results are keyed on the full content of a query — environment fingerprint
(simulation parameters, scenario, imperfections, base seed, isolation) plus
the request (config, traffic, duration, per-run seed, parameter override) —
so a cached entry is, by construction, byte-identical to what re-running
the measurement would produce: every executor kind produces the same bytes
(see :mod:`repro.engine.executors`), so the executor is not part of the
key.  Sweep experiments that revisit identical queries (the Fig. 15
heatmap grid, the Fig. 18/19 availability and threshold sweeps
re-collecting the same DLDA grid) therefore get them for free.

A single process-wide cache (:func:`shared_cache`) is used by default so
independent engines — e.g. one per experiment runner — share results; pass a
private :class:`MeasurementCache` to an engine for isolated accounting.

Two tiers
    A cache may additionally carry a persistent second tier — a
    :class:`~repro.service.store.ResultStore` (disk-backed,
    content-addressed, shared across processes).  Memory misses fall
    through to the store; store hits are promoted into memory and counted
    separately (``stats.store_hits``), and every insert is written through
    to the store.  Because the store addresses blobs by the *same* cache
    key — fingerprint and request — the persistent tier inherits
    fault-fingerprint honesty from the key, and a stored entry is
    byte-identical to recomputation by construction.
    Attach a store to the process-wide cache with
    :func:`attach_shared_store` or the ``ATLAS_STORE_DIR`` environment
    variable; store failures (I/O errors, unencodable keys) degrade to
    misses and are counted in ``stats.store_errors``, never raised into
    the measurement path.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from threading import Lock
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.store import ResultStore
    from repro.sim.network import SimulationResult

__all__ = [
    "CacheStats",
    "MeasurementCache",
    "STORE_ENV_VAR",
    "attach_shared_store",
    "shared_cache",
]

#: Environment variable naming a persistent-store directory to attach to the
#: process-wide shared cache on first use (the daemon sets it for workers).
STORE_ENV_VAR = "ATLAS_STORE_DIR"

#: Default bound of the shared cache (LRU-evicted beyond this).
DEFAULT_MAX_ENTRIES = 20_000


@dataclass
class CacheStats:
    """Hit/miss counters of one cache, split by serving tier.

    ``hits`` counts lookups served from the in-memory tier, ``store_hits``
    lookups served from the persistent store tier (and promoted), and
    ``misses`` lookups served by neither.  ``store_errors`` counts store
    operations that failed and were degraded to miss/skip semantics.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    store_hits: int = 0
    store_errors: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.store_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.store_hits) / self.lookups

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = self.evictions = 0
        self.store_hits = self.store_errors = 0

    def as_dict(self) -> dict[str, float]:
        """Counters plus the derived hit rate, for logging/benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "store_hits": self.store_hits,
            "store_errors": self.store_errors,
            "hit_rate": self.hit_rate,
        }


def _copy_result(result: "SimulationResult") -> "SimulationResult":
    """Defensive copy so callers can never mutate a cached entry."""
    return replace(
        result,
        latencies_ms=np.array(result.latencies_ms, copy=True),
        stage_breakdown_ms=dict(result.stage_breakdown_ms),
    )


@dataclass
class MeasurementCache:
    """Bounded LRU cache of :class:`~repro.sim.network.SimulationResult`.

    Thread safe: the engine's thread executor may insert results
    concurrently with lookups from other engines sharing the cache.

    ``store`` optionally attaches a persistent second tier (see the module
    docstring); memory stays the first tier, so hot keys never touch disk.
    """

    max_entries: int | None = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)
    store: "ResultStore | None" = None

    def __post_init__(self) -> None:
        """Validate field values after dataclass initialisation."""
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self._entries: OrderedDict[tuple, "SimulationResult"] = OrderedDict()
        self._lock = Lock()

    def __len__(self) -> int:
        """Number of cached results."""
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        """Whether ``key`` has a cached result."""
        return key in self._entries

    def attach_store(self, store: "ResultStore | None") -> None:
        """Attach (or detach, with ``None``) the persistent second tier."""
        self.store = store

    def get(self, key: tuple) -> "SimulationResult | None":
        """Return a copy of the entry under ``key``, recording a hit or miss.

        Memory first; on a memory miss the persistent tier (when attached)
        is consulted, a hit promoted into memory and counted as
        ``store_hits``.  Store failures degrade to a plain miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return _copy_result(entry)
        if self.store is not None:
            try:
                value = self.store.get(key)
            except Exception:
                value = None
                self.stats.store_errors += 1
            if value is not None:
                with self._lock:
                    self.stats.store_hits += 1
                    self._insert(key, value)
                return _copy_result(value)
        with self._lock:
            self.stats.misses += 1
        return None

    def _insert(self, key: tuple, result: "SimulationResult") -> None:
        # Callers hold self._lock.
        self._entries[key] = _copy_result(result)
        self._entries.move_to_end(key)
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def put(self, key: tuple, result: "SimulationResult") -> None:
        """Store ``result`` under ``key`` (evicting the LRU entry if full).

        With a persistent tier attached the entry is also written through
        to disk, so it survives this process and is visible to others.
        """
        with self._lock:
            self._insert(key, result)
        if self.store is not None:
            try:
                self.store.put(key, result)
            except Exception:
                self.stats.store_errors += 1

    def clear(self) -> None:
        """Drop every in-memory entry and reset the counters.

        The persistent tier is deliberately left intact — it is shared
        with other processes; call ``cache.store.clear()`` to wipe it.
        """
        with self._lock:
            self._entries.clear()
            self.stats.reset()


#: The process-wide cache shared by engines built with ``cache=True``.
_SHARED_CACHE = MeasurementCache()

#: Whether the ATLAS_STORE_DIR auto-attach was already attempted.
_ENV_STORE_CHECKED = False


def attach_shared_store(store: "ResultStore | str | os.PathLike | None") -> "ResultStore | None":
    """Attach a persistent store to the process-wide cache (``None`` detaches).

    Accepts a ready :class:`~repro.service.store.ResultStore` or a
    directory path (a store is opened there).  Returns the attached store —
    the daemon and CLI use this to share one handle with the cost ledger.
    """
    if store is not None and not hasattr(store, "get"):
        from repro.service.store import ResultStore

        store = ResultStore(store)
    _SHARED_CACHE.attach_store(store)
    return store


def shared_cache() -> MeasurementCache:
    """The process-wide measurement cache (engines default to it).

    On first use, a persistent store is attached automatically when
    :data:`STORE_ENV_VAR` names a directory — the mechanism by which every
    engine in a service worker process shares the daemon's store.
    """
    global _ENV_STORE_CHECKED
    if not _ENV_STORE_CHECKED:
        _ENV_STORE_CHECKED = True
        store_dir = os.environ.get(STORE_ENV_VAR)
        if store_dir and _SHARED_CACHE.store is None:
            try:
                attach_shared_store(store_dir)
            except OSError:
                pass  # unusable store directory: run with memory only
    return _SHARED_CACHE
