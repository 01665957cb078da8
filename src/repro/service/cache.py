"""Bounded LRU cache of completed analyses, keyed by pattern fingerprint.

A cache entry owns a :class:`~repro.core.SparseSolver` whose analyze phase
has run (ordering + symbolic factorization). Hits skip straight to the
numeric phase through the solver's ``update_values``/``refactor`` path.

:class:`AnalysisCache` itself is a plain synchronous structure; eviction
is strict LRU on *use*, and every transition is counted so the metrics
report can show hit rate and eviction pressure. The fleet wraps it in a
:class:`ShardedAnalysisCache` — shard = pattern-fingerprint hash — whose
per-shard mutexes make lookups safe under concurrent serving workers
while keeping hot shards from evicting cold shards' entries.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from repro.core.solver import SparseSolver
from repro.exec.pool import make_lock
from repro.service.fingerprint import PatternFingerprint
from repro.util.errors import ShapeError


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`AnalysisCache`."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def merged(cls, parts: Iterable["CacheStats"]) -> "CacheStats":
        """Sum of several shards' counters (the fleet-wide view)."""
        out = cls()
        for p in parts:
            out.hits += p.hits
            out.misses += p.misses
            out.inserts += p.inserts
            out.evictions += p.evictions
        return out


@dataclass
class AnalysisEntry:
    """One cached analysis: an analyzed solver (which owns the parallel
    plans derived from it)."""

    fingerprint: PatternFingerprint
    solver: SparseSolver
    hits: int = 0


class AnalysisCache:
    """Bounded LRU map ``PatternFingerprint -> AnalysisEntry``."""

    def __init__(self, capacity: int = 32):
        if capacity < 1:
            raise ShapeError("cache capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple, AnalysisEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fp: PatternFingerprint) -> bool:
        return fp.key in self._entries

    def get(self, fp: PatternFingerprint) -> AnalysisEntry | None:
        """Look up an analysis; counts a hit or miss and refreshes LRU."""
        entry = self._entries.get(fp.key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(fp.key)
        self.stats.hits += 1
        entry.hits += 1
        return entry

    def put(self, entry: AnalysisEntry) -> AnalysisEntry:
        """Insert (or replace) an analysis, evicting the LRU tail if full."""
        key = entry.fingerprint.key
        if key not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats.inserts += 1
        return entry

    def clear(self) -> None:
        self._entries.clear()


class ShardedAnalysisCache:
    """Fingerprint-hash sharded analysis cache for the serving fleet.

    The shard of a pattern is a deterministic function of its fingerprint
    digest (``shard_of``), so every request for one pattern — from any
    worker, in any order — lands on the same shard. Each shard is an
    independent :class:`AnalysisCache` (own LRU list, own
    :class:`CacheStats`) guarded by its own mutex from
    :func:`repro.exec.pool.make_lock`, giving the fleet:

    * **isolation** — a hot shard's eviction pressure never touches the
      entries (or stats) of another shard;
    * **lock granularity** — workers serving different shards never
      contend on cache metadata.

    *capacity* is the total entry budget; it is split evenly
    (``ceil(capacity / shards)`` per shard, so the effective total may
    round up). ``shards=1`` degenerates to one locked LRU — the
    single-executor service uses exactly that.

    The sharded cache only serializes *metadata* (lookup / insert / LRU
    order). Two workers may still race on one *entry's* solver if they
    execute the same pattern concurrently; the fleet scheduler prevents
    that by never dispatching two batches with the same fingerprint at
    once (per-fingerprint in-flight exclusion).
    """

    def __init__(self, capacity: int = 32, shards: int = 1):
        if shards < 1:
            raise ShapeError("shard count must be >= 1")
        per_shard = max(1, math.ceil(capacity / shards))
        self.n_shards = shards
        self.capacity = per_shard * shards
        self._shards = [AnalysisCache(per_shard) for _ in range(shards)]
        self._locks = [make_lock() for _ in range(shards)]

    def shard_of(self, fp: PatternFingerprint) -> int:
        """Deterministic shard index of *fp* (leading digest bits)."""
        return int(fp.digest[:15], 16) % self.n_shards

    def __len__(self) -> int:
        return sum(len(s) for s in self._shards)

    def __contains__(self, fp: PatternFingerprint) -> bool:
        i = self.shard_of(fp)
        with self._locks[i]:
            return fp in self._shards[i]

    def get(self, fp: PatternFingerprint) -> AnalysisEntry | None:
        i = self.shard_of(fp)
        with self._locks[i]:
            return self._shards[i].get(fp)

    def put(self, entry: AnalysisEntry) -> AnalysisEntry:
        i = self.shard_of(entry.fingerprint)
        with self._locks[i]:
            return self._shards[i].put(entry)

    def clear(self) -> None:
        for i, shard in enumerate(self._shards):
            with self._locks[i]:
                shard.clear()

    @property
    def stats(self) -> CacheStats:
        """Merged (fleet-wide) transition counters across all shards."""
        return CacheStats.merged(s.stats for s in self._shards)

    def shard_stats(self) -> list[CacheStats]:
        """Per-shard counters, indexed by shard."""
        return [s.stats for s in self._shards]

    def shard_sizes(self) -> list[int]:
        """Resident entry count per shard."""
        return [len(s) for s in self._shards]
