"""The resident (in-memory) halves of the incremental cache.

A resident session keeps its cache in two places:

* :class:`ModuleTable` holds layer 0, the compiled modules, *live*: one
  :class:`~repro.incremental.engine.CompiledModule` per filename,
  reused in place while the file's source is unchanged.  On a
  linux-shaped tree of 85 files (2 vCPUs), unpickling every module for
  every request cost 0.08 s of a 0.50 s traced one-file diff, and the
  next request's full collection took 0.19 s, against 0.07 s without
  those copies to free.
* :class:`ResidentStore` holds the per-entry P2 outcomes (P1.5 skip
  verdicts and the bugs' P3 verdicts included) as the codec's bytes
  (:mod:`repro.incremental.coords`), a few KB per edited entry.  It
  speaks the same surface as :class:`repro.incremental.store.CacheStore` —
  ``get``/``put``/``contains``/``reject``/``commit``, the ``mode``
  attribute, and the ``hits``/``misses``/``corrupt`` counters — but
  keeps every object in RAM, so a long-lived session pays no disk I/O.

The two layers differ in what an analysis does to them.  An outcome
is stored as bytes and every fetch decodes a *fresh* one onto the
current program's instructions, as with the disk store, so what an
analysis does to a fetched outcome (it marks the stats row cached)
never reaches the copy the next request reads.  A module is mutated in
exactly three ways, each re-established before reuse: uids and
cross-module interface marks are rewritten by every assembly
(:func:`repro.incremental.engine.assemble_program`), and the table
restores each function's compile-time ``is_interface`` flag and drops
the programs that linked the module before.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
import threading
import weakref
from typing import Any, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .. import heap
from ..incremental.engine import CompiledModule, compile_module
from ..incremental.store import dumps

log = logging.getLogger("repro.serve")


class ResidentStore:
    """An in-memory, always-``rw`` cache store for one resident session.

    Thread-safe for the daemon's mixed access pattern (the scheduler
    thread analyzes while connection threads read occupancy for
    ``status`` responses); the single-writer commit discipline of the
    disk store is kept — ``put`` stages, ``commit`` publishes.
    """

    mode = "rw"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._objects: Dict[str, bytes] = {}
        self._staged: Dict[str, bytes] = {}
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # -- CacheStore surface --------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        with self._lock:
            blob = self._staged.get(key)
            if blob is None:
                blob = self._objects.get(key)
        if blob is None:
            self.misses += 1
            return None
        try:
            value = pickle.loads(blob)
        except Exception as exc:
            # Unpicklable resident objects should be impossible (we
            # pickled them ourselves), but mirror the disk store's
            # degrade-to-miss contract rather than crash a request.
            log.warning("resident store: undecodable object %s (%s); "
                        "treating as a miss", key[:12], exc)
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return value

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._staged or key in self._objects

    def reject(self, key: str) -> None:
        """Recount the hit ``get`` just served for ``key`` as a miss and
        drop the object, so the next ``put`` replaces it."""
        with self._lock:
            self.hits -= 1
            self.misses += 1
            self._objects.pop(key, None)
            self._staged.pop(key, None)

    def put(self, key: str, value: Any) -> None:
        if self.contains(key):
            return
        blob = dumps(value)
        if blob is None:
            return
        with self._lock:
            self._staged[key] = blob

    def commit(self) -> int:
        with self._lock:
            written = len(self._staged)
            self._objects.update(self._staged)
            self._staged.clear()
        return written

    # -- occupancy (status endpoint) -----------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._objects)

    def occupancy(self) -> Dict[str, int]:
        """Resident-object count and byte footprint, for ``status``."""
        with self._lock:
            return {
                "objects": len(self._objects),
                "staged": len(self._staged),
                "bytes": sum(len(b) for b in self._objects.values()),
            }


class _Resident(NamedTuple):
    """One table entry: the source digest, the live payload, and the
    functions that were interfaces when the module was compiled."""

    digest: bytes
    compiled: CompiledModule
    interfaces: FrozenSet[str]


class ModuleTable:
    """Layer 0 of a resident session: one live compiled module per
    filename, replaced when the file's source changes.

    The modules sit in the collector's frozen generation, so each one
    the table replaces or clears, and every one a discarded table held,
    is counted as dropped (:func:`repro.heap.drop_resident`) for the
    next thaw to free.

    Unlocked: a session serves one request at a time, the daemon's
    scheduler answers ``status`` between requests, and a timed-out
    request keeps running against its abandoned session's own table.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _Resident] = {}
        # A discarded table (a session reset or replaced) drops all its
        # modules at once.
        weakref.finalize(self, _drop_all, self._entries)

    def take(self, sources: Iterable[Tuple[str, str]]) -> List[CompiledModule]:
        """The compiled modules for one request's ``(filename, source)``
        pairs, compiling only files whose source changed, inside the
        resident-heap step (:func:`repro.heap.resident_heap`).  A
        filename repeated within one request gets a fresh, untabled
        module for each repeat, as a one-shot run compiles it twice: one
        module object must not be linked twice into one program."""
        for entry in self._entries.values():
            # Unlink every earlier program, from the modules this
            # request skips too, so none of them stays reachable from
            # the frozen generation.
            entry.compiled.module._owners.clear()
        taken = set()
        compiled = []
        with heap.resident_heap(len(self._entries)):
            for filename, source in sources:
                if filename in taken:
                    # Frozen with the rest, garbage after this request.
                    heap.drop_resident(1)
                    compiled.append(compile_module(filename, source))
                    continue
                taken.add(filename)
                compiled.append(self._get(filename, source))
        return compiled

    def _get(self, filename: str, source: str) -> CompiledModule:
        digest = hashlib.sha256(source.encode("utf-8", "surrogatepass")).digest()
        entry = self._entries.get(filename)
        if entry is not None and entry.digest == digest:
            for func in entry.compiled.module.functions.values():
                func.is_interface = func.name in entry.interfaces
            return entry.compiled
        compiled = compile_module(filename, source)
        interfaces = frozenset(
            func.name for func in compiled.module.functions.values()
            if func.is_interface
        )
        if entry is not None:
            heap.drop_resident(1)
        self._entries[filename] = _Resident(digest, compiled, interfaces)
        return compiled

    def clear(self) -> None:
        """Drop every module: the next request compiles from scratch."""
        _drop_all(self._entries)
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


def _drop_all(entries: Dict[str, _Resident]) -> None:
    heap.drop_resident(len(entries))
