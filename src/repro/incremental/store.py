"""The on-disk half of the incremental cache: a content-addressed object
store with a versioned header, one pack file per commit, and checksummed
reads.

Layout under ``cache_dir``::

    meta.json                   # {"format": N, "engine": "x.y.z"} header
    packs/<stamp>-<tag>.pack    # one pack per commit; names sort by age

A pack is a fixed header (:data:`PACK_MAGIC`, entry count), an index
table of ``(32-byte key, offset, length)`` entries, then the records.  A
record is ``sha256(key ‖ payload) ‖ payload``.  Opening a store reads
every pack's header and index (two reads per pack) into one in-memory
dict, newest pack last, so the newest copy of a key wins.  A key that is
not in the index is a miss without a system call; a hit is one
positioned read.  Because the checksum covers the key, a damaged index
entry can only cause a miss — it can never return another key's object.

Damage of any kind (a malformed header or index, a pack cut short, a
record that fails its check, a payload that does not unpickle) is **a
miss with a one-line warning — never a crash and never a wrong
result**.  A record that fails is warned and counted once and leaves the
handle's index, so no later read retries it.

Writes are staged in memory and only flushed by :meth:`CacheStore.commit`
— the *single-writer* protocol: the parent process commits, worker
processes never open the store.  A commit streams the staged records
into a tempfile in ``packs/`` and ``os.replace``\\ s it into place, so a
concurrent reader sees the whole pack or none of it.  A commit that
would leave more than :data:`PACK_LIMIT` packs, or that follows damage
to a pack's header or index, writes one merged pack instead: every indexed object that verifies plus
the staged ones, copied one record at a time.  It then unlinks only the
packs its own handle indexed, so a concurrent writer's pack is never
deleted; at worst two merged packs hold the same objects.

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
import struct
import tempfile
import time
import weakref
from itertools import chain
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .. import __version__ as ENGINE_VERSION

log = logging.getLogger("repro.incremental")

#: bump when the pickled payload schema or the on-disk layout changes
#: incompatibly (2: P1.7 partition layer + sharpened relevance-mask
#: payloads; 3: P1.8 must-alias-facts layer + taint-sharpened relevance
#: masks; 4: P2.6 xtaint module-summary layer + TaintFlow records in
#: cached outcomes' access lists; 5: typed payloads from the engine's
#: layer table, no facts or plan bundles; 6: one pack file per commit
#: instead of one file per object; 7: no partition, flow-facts or
#: module-summary layers; 8: cached outcomes' bugs carry P3 verdicts,
#: and outcome keys fold the P3 knobs; 9: an outcome is stored as the
#: codec's bytes, its instructions named by coordinate, and a function
#: pickles its blocks' terminators after all of its blocks; 10: P2 arms
#: checkers per entry at every alias tier, so an ``off`` outcome's
#: work counters change; 11: IR values and types are slotted and pickle
#: by constructor)
CACHE_FORMAT = 11
#: most packs a commit may leave behind; past it the commit merges
PACK_LIMIT = 8
PACK_DIR = "packs"
PACK_SUFFIX = ".pack"
PACK_MAGIC = b"PATAPAK1"
DIGEST_BYTES = 32
#: a pack's header: magic, entry count
_HEADER = struct.Struct("<8sQ")
#: one index entry: key, record offset, record length
_ENTRY = struct.Struct("<32sQQ")
#: bits for a record's offset and for its length in an index location
_FIELD = 40
_MASK = (1 << _FIELD) - 1
_FD_SHIFT = 2 * _FIELD + 1


def checksummed(key: bytes, payload: bytes) -> bytes:
    """One record: ``sha256(key ‖ payload) ‖ payload``."""
    digest = hashlib.sha256(key)
    digest.update(payload)
    return digest.digest() + payload


def pack_paths(cache_dir) -> List[Path]:
    """Every pack under ``cache_dir``, oldest first."""
    packs = Path(cache_dir) / PACK_DIR
    try:
        names = os.listdir(packs)
    except FileNotFoundError:
        return []
    return [packs / name for name in sorted(names) if name.endswith(PACK_SUFFIX)]


def read_index(fd: int) -> Tuple[Iterator[Tuple[bytes, int, int]], int]:
    """The ``(key, offset, length)`` entries of the pack open on ``fd``,
    and the pack's size in bytes.  Two reads: the header, then the
    index.  Raises :class:`ValueError` on a malformed header or index."""
    size = os.fstat(fd).st_size
    head = os.pread(fd, _HEADER.size, 0)
    if len(head) < _HEADER.size:
        raise ValueError("truncated header")
    magic, count = _HEADER.unpack(head)
    if magic != PACK_MAGIC:
        raise ValueError("bad magic")
    length = count * _ENTRY.size
    table = os.pread(fd, length, _HEADER.size) if _HEADER.size + length <= size else b""
    if len(table) != length:
        raise ValueError("truncated index")
    return _ENTRY.iter_unpack(table), size


def pack_records(path) -> List[Tuple[bytes, bytes]]:
    """Every ``(key, record)`` of the pack at ``path``, in index order,
    unverified — for tools and tests that inspect or rewrite a cache."""
    fd = os.open(path, os.O_RDONLY)
    try:
        entries, _ = read_index(fd)
        return [(key, os.pread(fd, length, offset)) for key, offset, length in entries]
    finally:
        os.close(fd)


def write_pack(out: BinaryIO, records: Iterable[Tuple[bytes, bytes]], slots: int) -> bytearray:
    """Write ``(key, record)`` pairs to the new, empty file ``out`` as one
    pack, and return its index table.  The table is reserved for
    ``slots`` entries up front, so the records stream straight to the
    file and ``records`` may yield fewer of them (a merge skips those
    that fail their check)."""
    table = bytearray()
    offset = _HEADER.size + slots * _ENTRY.size
    out.seek(offset)
    for key, record in records:
        out.write(record)
        table += _ENTRY.pack(key, offset, len(record))
        offset += len(record)
    count = len(table) // _ENTRY.size
    if count > slots:
        raise ValueError(f"{count} records for {slots} index slots")
    out.seek(0)
    out.write(_HEADER.pack(PACK_MAGIC, count))
    out.write(table)
    return table


def _location(fd: int, offset: int, length: int) -> int:
    """An index value: the pack's open file descriptor, the record's
    offset and length, and a low bit set once the record verified."""
    return ((fd << _FIELD | offset) << _FIELD | length) << 1


def _close_packs(packs: Dict[int, str]) -> None:
    for fd in packs:
        os.close(fd)
    packs.clear()


class CacheStore:
    """One open cache directory in ``"ro"`` or ``"rw"`` mode.

    ``get``/``put`` speak *object keys* (already-derived hex keys from
    :meth:`object_key`); values are arbitrary picklable objects.  In
    ``rw`` mode, ``put`` stages; nothing touches disk until ``commit``.
    The handle keeps every pack it indexed open until :meth:`close` (or
    until it is garbage-collected).
    """

    def __init__(self, cache_dir: str, mode: str = "ro"):
        if mode not in ("ro", "rw"):
            raise ValueError(f"cache mode must be 'ro' or 'rw', not {mode!r}")
        self.root = Path(cache_dir)
        self.mode = mode
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        #: binary key -> record, flushed by `commit`
        self._staged: Dict[bytes, bytes] = {}
        #: binary key -> location (see `_location`) of its newest record
        self._index: Dict[bytes, int] = {}
        #: open file descriptor -> name of every pack the index points into
        self._packs: Dict[int, str] = {}
        #: names of packs whose header or index failed a check, or cut
        #: short; the next commit merges and deletes them (a record that
        #: fails is shadowed by its rewrite and needs no merge)
        self._damaged: Set[str] = set()
        #: creation stamp of the newest pack seen; a new pack sorts after it
        self._stamp = 0
        self._dir = self.root / PACK_DIR
        if mode == "rw":
            self._dir.mkdir(parents=True, exist_ok=True)
        self._check_header()
        self._close = weakref.finalize(self, _close_packs, self._packs)
        for path in pack_paths(self.root):
            self._open_pack(path)

    def close(self) -> None:
        """Close every pack this handle holds open.  Staged objects are
        not flushed; call :meth:`commit` first."""
        self._close()
        self._index.clear()

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

    # -- header and packs ------------------------------------------------------

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

    def _open_pack(self, path: Path) -> None:
        stamp = path.name.partition("-")[0]
        if stamp.isdigit():
            self._stamp = max(self._stamp, int(stamp))
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            return  # a concurrent merge removed it since the listing
        except OSError as exc:
            self._damage(path.name, str(exc))
            return
        try:
            entries, size = read_index(fd)
        except (OSError, ValueError) as exc:
            os.close(fd)
            self._damage(path.name, str(exc))
            return
        self._packs[fd] = path.name
        cut = 0
        for key, offset, length in entries:
            if offset + length <= size:
                self._index[key] = _location(fd, offset, length)
            else:
                self._index.pop(key, None)
                cut += 1
        if cut:
            self._damage(path.name, "cut short", f"the {cut} records past its end", cut)

    def _damage(self, name: str, problem: str, lost: str = "every object it holds",
                objects: int = 1) -> None:
        log.warning("cache %s: corrupt pack %s (%s); treating as a miss %s",
                    self.root, name, problem, lost)
        self.corrupt += objects
        self._damaged.add(name)

    # -- read path -----------------------------------------------------------

    def _record(self, key: bytes) -> Optional[bytes]:
        """The verified record of indexed ``key``, or None.  A record
        that fails its check is warned, counted and dropped from the
        index, once."""
        location = self._index.get(key)
        if location is None:
            return None
        offset = (location >> (_FIELD + 1)) & _MASK
        try:
            record = os.pread(location >> _FD_SHIFT, (location >> 1) & _MASK, offset)
        except OSError as exc:
            self._drop(key, f"unreadable: {exc}")
            return None
        digest = hashlib.sha256(key)
        digest.update(memoryview(record)[DIGEST_BYTES:])
        if digest.digest() != record[:DIGEST_BYTES]:
            self._drop(key, "checksum mismatch")
            return None
        self._index[key] = location | 1
        return record

    def _drop(self, key: bytes, problem: str) -> None:
        log.warning("cache %s: corrupt object %s (%s); treating as a miss",
                    self.root, key.hex()[:12], problem)
        self.corrupt += 1
        self._index.pop(key, None)

    def get(self, key: str) -> Optional[Any]:
        """The object stored under ``key``, or None (a miss).  Corrupt,
        truncated, or unpicklable objects are misses with a warning."""
        raw = bytes.fromhex(key)
        record = self._staged.get(raw)
        if record is None:
            record = self._record(raw)
        if record is None:
            self.misses += 1
            return None
        try:
            value = pickle.loads(memoryview(record)[DIGEST_BYTES:])
        except Exception as exc:
            self._drop(raw, f"undecodable: {exc}")
            self.misses += 1
            return None
        self.hits += 1
        return value

    def _contains(self, key: bytes) -> bool:
        if key in self._staged:
            return True
        location = self._index.get(key)
        if location is None:
            return False
        return bool(location & 1) or self._record(key) is not None

    def contains(self, key: str) -> bool:
        """Whether ``key`` would hit, without counting a hit/miss or
        decoding the payload (checksum still verified)."""
        return self._contains(bytes.fromhex(key))

    def reject(self, key: str) -> None:
        """The caller could not use what :meth:`get` just returned for
        ``key`` (wrong payload shape, stale coordinates): recount that
        hit as a miss, and drop the object so the next :meth:`put`
        rewrites it."""
        self.hits -= 1
        self.misses += 1
        raw = bytes.fromhex(key)
        self._index.pop(raw, None)
        self._staged.pop(raw, None)

    # -- write path (single writer) -------------------------------------------

    def put(self, key: str, value: Any) -> None:
        """Stage ``value`` under ``key``; a later :meth:`commit` flushes.
        No-op in ``ro`` mode, and for keys whose stored object
        *verifies* (same key ⇒ same content, by construction) — an
        index entry alone is not enough, or a corrupt object would never
        heal."""
        if self.mode != "rw":
            return
        raw = bytes.fromhex(key)
        if self._contains(raw):
            return
        payload = dumps(value)
        if payload is not None:
            self._staged[raw] = checksummed(raw, payload)

    def commit(self) -> int:
        """Flush every staged object as one new pack (tempfile + rename)
        and refresh ``meta.json``.  Returns the number of objects
        written.  Past :data:`PACK_LIMIT` packs, or after damage to a
        pack, the new pack is a merge of every object this handle can
        still verify.  An interrupted commit leaves a tempfile that
        later runs ignore."""
        if self.mode != "rw" or not self._staged:
            return 0
        records: Iterable[Tuple[bytes, bytes]] = self._staged.items()
        slots = len(self._staged)
        merge = bool(self._damaged) or len(self._packs) + 1 > PACK_LIMIT
        if merge:
            keys = list(self._index)
            kept = ((key, record) for key in keys
                    if (record := self._record(key)) is not None)
            records, slots = chain(kept, records), slots + len(keys)
        written = 0
        try:
            pack, name, table = self._write(records, slots)
        except OSError as exc:
            log.warning("cache %s: failed to write a pack (%s)", self.root, exc)
        else:
            written = len(self._staged)
            if merge:
                self._retire()
            self._packs[pack] = name
            for key, offset, length in _ENTRY.iter_unpack(table):
                self._index[key] = _location(pack, offset, length) | 1
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

    def _write(self, records: Iterable[Tuple[bytes, bytes]],
               slots: int) -> Tuple[int, str, bytearray]:
        """Stream ``records`` into a new pack named after a stamp newer
        than every pack seen.  Returns the pack's descriptor (kept open
        for reads), its name and its index table."""
        stamp = max(time.time_ns(), self._stamp + 1)
        fd, tmp = tempfile.mkstemp(prefix=f"{stamp:020d}-", suffix=".tmp", dir=str(self._dir))
        try:
            with open(fd, "wb", closefd=False) as out:
                table = write_pack(out, records, slots)
            path = tmp[:-len(".tmp")] + PACK_SUFFIX
            os.replace(tmp, path)
        except BaseException:
            os.close(fd)
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._stamp = stamp
        return fd, os.path.basename(path), table

    def _retire(self) -> None:
        """After a merge: close and unlink every pack this handle indexed
        or found damaged — never one it did not see."""
        names = set(self._packs.values()) | self._damaged
        _close_packs(self._packs)
        self._damaged.clear()
        for name in names:
            try:
                os.unlink(self._dir / name)
            except OSError:
                pass  # a concurrent merge removed it first


def dumps(value: Any) -> Optional[bytes]:
    """``value`` pickled for a store, or ``None`` with a warning when its
    object graph nests too deeply to pickle: the object is not cached,
    and the next run misses it.  A safety net: a function pickles its
    blocks' terminators after all of its blocks, so a chain of blocks
    does not nest, and an outcome reaches the store as the codec's
    bytes (:mod:`.coords`)."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except RecursionError:
        log.warning("cache: %s object nests too deeply to pickle; not storing it",
                    type(value).__name__)
        return None


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
