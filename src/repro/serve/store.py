"""The resident (in-memory) half of the incremental cache.

:class:`ResidentStore` speaks the same surface as
:class:`repro.incremental.store.CacheStore` — ``get``/``put``/
``contains``/``reject``/``commit``, the ``mode`` attribute, and the
``hits``/``misses``/``corrupt`` counters — but keeps every object in
RAM, so a long-lived session pays neither disk I/O nor cold-start
deserialization of a cache directory.

Objects are stored as pickled blobs, not live object graphs, on
purpose: the disk store hands every ``get`` a *fresh* unpickled copy,
and rehydration (:func:`repro.incremental.coords.rehydrate_records`)
mutates that copy in place to point at the current program.  Returning
live objects instead would let one request's in-place rehydration
corrupt the resident copy the next request reads.  The pickle
round-trip preserves the disk store's semantics exactly; only the
filesystem (and its latency) is gone.
"""

from __future__ import annotations

import logging
import pickle
import threading
from typing import Any, Dict, Optional

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
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
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
