"""The on-disk half of the incremental cache: a content-addressed object
store with a versioned header, atomic commits, and checksummed reads.

Layout under ``cache_dir``::

    meta.json                  # {"format": N, "engine": "x.y.z"} header
    objects/ab/abcdef....bin   # one object per key (sha256 hex)

Every object file is ``MAGIC ‖ sha256(payload) ‖ payload``; a read
re-hashes the payload and any mismatch (truncation, bit rot, a torn
write from a crashed run) is **a miss with a one-line warning — never a
crash and never a wrong result**.  Writes are staged in memory and only
flushed by :meth:`CacheStore.commit` — the *single-writer* protocol: the
parent process commits once after the deterministic merge, worker
processes open the store read-only.  Each flush writes to a tempfile in
the objects tree and ``os.replace``\\ s it into place, so a concurrent
reader sees either the old object or the new one, never a torn file.

The engine version and cache-format version are folded into every key
(:meth:`CacheStore.object_key`), so objects written by an incompatible
engine simply never match — ``meta.json`` records the versions for
humans and lets an engine flag the mismatch loudly.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from .. import __version__ as ENGINE_VERSION

log = logging.getLogger("repro.incremental")

#: bump when the pickled payload schema changes incompatibly
#: (2: P1.7 partition layer + sharpened relevance-mask payloads;
#: 3: P1.8 must-alias-facts layer + taint-sharpened relevance masks;
#: 4: P2.6 xtaint module-summary layer + TaintFlow records in cached
#: outcomes' access lists; 5: typed payloads from the engine's layer
#: table, no facts or plan bundles)
CACHE_FORMAT = 5
_MAGIC = b"PATACHE1"
_DIGEST_BYTES = 32


class CacheStore:
    """One open cache directory in ``"ro"`` or ``"rw"`` mode.

    ``get``/``put`` speak *object keys* (already-derived hex keys from
    :meth:`object_key`); values are arbitrary picklable objects.  In
    ``rw`` mode, ``put`` stages; nothing touches disk until ``commit``.
    """

    def __init__(self, cache_dir: str, mode: str = "ro"):
        if mode not in ("ro", "rw"):
            raise ValueError(f"cache mode must be 'ro' or 'rw', not {mode!r}")
        self.root = Path(cache_dir)
        self.mode = mode
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self._staged: Dict[str, bytes] = {}
        #: keys whose on-disk object verified during this handle's reads
        #: — lets `put` skip re-reading them without trusting mere
        #: file existence (a corrupt object must be re-written)
        self._known_good: set = set()
        #: keys whose verified object the caller could not use — `put`
        #: must overwrite them
        self._rejected: set = set()
        self._objects = self.root / "objects"
        if mode == "rw":
            self._objects.mkdir(parents=True, exist_ok=True)
        self._check_header()

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def object_key(*parts: str) -> str:
        """Derive an object key from labelled parts.  The engine and
        format versions participate, so a cache directory can hold
        objects from several engine versions side by side without any
        possibility of cross-version payload confusion."""
        h = hashlib.sha256()
        for part in (f"format={CACHE_FORMAT}", f"engine={ENGINE_VERSION}", *parts):
            h.update(part.encode("utf-8", "surrogatepass"))
            h.update(b"\x00")
        return h.hexdigest()

    # -- header --------------------------------------------------------------

    def _check_header(self) -> None:
        meta_path = self.root / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            return
        except Exception as exc:
            log.warning("cache %s: unreadable meta.json (%s); continuing — "
                        "object checksums still protect every read", self.root, exc)
            return
        if meta.get("format") != CACHE_FORMAT or meta.get("engine") != ENGINE_VERSION:
            log.warning(
                "cache %s was written by engine %s (format %s); this is engine "
                "%s (format %s) — existing entries will read as misses",
                self.root, meta.get("engine"), meta.get("format"),
                ENGINE_VERSION, CACHE_FORMAT,
            )

    # -- read path -----------------------------------------------------------

    def _path_of(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.bin"

    def get(self, key: str) -> Optional[Any]:
        """The object stored under ``key``, or None (a miss).  Corrupt,
        truncated, or unpicklable objects are misses with a warning."""
        staged = self._staged.get(key)
        if staged is not None:
            self.hits += 1
            return pickle.loads(staged[len(_MAGIC) + _DIGEST_BYTES:])
        try:
            blob = self._path_of(key).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            log.warning("cache %s: unreadable object %s (%s); treating as a miss",
                        self.root, key[:12], exc)
            self.misses += 1
            return None
        payload = self._verify(key, blob)
        if payload is None:
            self.misses += 1
            return None
        try:
            value = pickle.loads(payload)
        except Exception as exc:
            log.warning("cache %s: undecodable object %s (%s); treating as a miss",
                        self.root, key[:12], exc)
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        self._known_good.add(key)
        return value

    def _verify(self, key: str, blob: bytes) -> Optional[bytes]:
        if len(blob) < len(_MAGIC) + _DIGEST_BYTES or not blob.startswith(_MAGIC):
            log.warning("cache %s: corrupt object %s (bad magic/truncated); "
                        "treating as a miss", self.root, key[:12])
            self.corrupt += 1
            return None
        digest = blob[len(_MAGIC):len(_MAGIC) + _DIGEST_BYTES]
        payload = blob[len(_MAGIC) + _DIGEST_BYTES:]
        if hashlib.sha256(payload).digest() != digest:
            log.warning("cache %s: corrupt object %s (checksum mismatch); "
                        "treating as a miss", self.root, key[:12])
            self.corrupt += 1
            return None
        return payload

    def contains(self, key: str) -> bool:
        """Whether ``key`` would hit, without counting a hit/miss or
        decoding the payload (checksum still verified)."""
        if key in self._staged:
            return True
        if key in self._rejected:
            return False
        if key in self._known_good:
            return True
        try:
            blob = self._path_of(key).read_bytes()
        except OSError:
            return False
        if self._verify(key, blob) is None:
            return False
        self._known_good.add(key)
        return True

    def reject(self, key: str) -> None:
        """The caller could not use what :meth:`get` just returned for
        ``key`` (wrong payload shape, stale coordinates): recount that
        hit as a miss, and let the next :meth:`put` overwrite the
        object."""
        self.hits -= 1
        self.misses += 1
        self._known_good.discard(key)
        self._rejected.add(key)

    # -- write path (single writer) -------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Stage ``value`` under ``key``; a later :meth:`commit` flushes.
        No-op in ``ro`` mode, and for keys whose on-disk object
        *verifies* (same key ⇒ same content, by construction) — mere
        file existence is not enough, or a corrupt object would never
        heal."""
        if self.mode != "rw":
            return
        if self.contains(key):
            return
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._staged[key] = _MAGIC + hashlib.sha256(payload).digest() + payload

    def commit(self) -> int:
        """Atomically flush every staged object (tempfile + rename, one
        object at a time) and refresh ``meta.json``.  Returns the number
        of objects written.  The cache stays consistent under crashes:
        an interrupted commit leaves fully-written objects and tempfiles
        that later runs ignore."""
        if self.mode != "rw" or not self._staged:
            return 0
        written = 0
        for key, blob in self._staged.items():
            target = self._path_of(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, target)
                written += 1
            except OSError as exc:
                log.warning("cache %s: failed to write object %s (%s)",
                            self.root, key[:12], exc)
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        self._staged.clear()
        meta_path = self.root / "meta.json"
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump({"format": CACHE_FORMAT, "engine": ENGINE_VERSION}, handle)
            os.replace(tmp, meta_path)
        except OSError as exc:
            log.warning("cache %s: failed to write meta.json (%s)", self.root, exc)
        return written


def open_store(cache_dir: Optional[str], cache_mode: str) -> Optional[CacheStore]:
    """CacheStore for the configured (dir, mode), or None when caching is
    off or the directory cannot be opened (warned, never fatal)."""
    if not cache_dir or cache_mode not in ("ro", "rw"):
        return None
    try:
        return CacheStore(cache_dir, cache_mode)
    except Exception as exc:
        log.warning("cache disabled: cannot open %s in mode %s (%s)",
                    cache_dir, cache_mode, exc)
        return None
