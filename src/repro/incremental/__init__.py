"""Incremental analysis: a content-addressed summary cache with
callgraph-closure invalidation (warm-start PATA).

The subsystem splits into four modules:

* :mod:`.fingerprint` — key derivation: canonical-print function
  fingerprints, SCC-condensed transitive closure keys, the
  indirect-dispatch pool stamp, checker-spec and config fingerprints;
* :mod:`.store` — the on-disk object store: one pack file per commit
  and an in-memory key index, checksummed reads, staged single-writer
  atomic commits, a bounded pack count, versioned header;
* :mod:`.coords` — stable instruction coordinates and the one codec
  that carries an outcome across a boundary: the worker pool names
  instructions by uid, the cache by coordinate (uids are
  process-local);
* :mod:`.engine` — orchestration: :class:`IncrementalContext` drives
  plan/load/stage/commit inside :meth:`repro.core.pata.PATA.analyze`;
  :func:`compile_with_cache` is the frontend (layer-0) cache.

Cache layers (one row each in :data:`.engine.LAYERS`): compiled
modules and per-entry P2 outcomes, whose bugs carry their P3 verdicts;
an entry P1.5 skips stores a skip verdict as its outcome.  P1 facts, the P1.5 pre-analysis and the
whole-program products (the P1.7 partition, P1.8 must-alias facts,
P2.6 module summaries) are rebuilt by any run that needs them.
Corruption, version skew, and stale coordinates all degrade to warned
misses — a cache can make a run faster, never wrong.
"""

from .coords import CoordIndex, StaleEntry, renumber_program
from .engine import (
    IncrementalContext,
    IncrementalPlan,
    compile_with_cache,
    open_incremental,
)
from .fingerprint import (
    TransitiveKeys,
    engine_config_fingerprint,
    function_fingerprints,
    spec_fingerprint,
)
from .store import CACHE_FORMAT, CacheStore, open_store

__all__ = [
    "CACHE_FORMAT",
    "CacheStore",
    "CoordIndex",
    "IncrementalContext",
    "IncrementalPlan",
    "StaleEntry",
    "TransitiveKeys",
    "compile_with_cache",
    "engine_config_fingerprint",
    "function_fingerprints",
    "open_incremental",
    "open_store",
    "renumber_program",
    "spec_fingerprint",
]
