"""Orchestration glue between the cache primitives and the PATA pipeline.

:class:`IncrementalContext` is what :meth:`repro.core.pata.PATA.analyze`
actually talks to.  Opened once per analysis (when the config enables
caching and the checker set is spec-addressable), it:

* derives every function's transitive key (:mod:`.fingerprint`) once,
  and names instructions through :class:`~.coords.CoordNaming`, which
  reads a coordinate off each instruction's parent links: an outcome is
  stored as bytes with each instruction written as its coordinate, and
  decoded onto the current program's own instructions;
* serves every cache layer through one :meth:`~IncrementalContext.load`
  and one :meth:`~IncrementalContext.stage`, both driven by the
  declarative :data:`LAYERS` table;
* partitions the entry list into cache hits, cached skips, and dirty
  entries (:meth:`~IncrementalContext.plan`);
* after P3, stages one outcome per explored entry, its bugs carrying
  their P3 verdicts, and one per skipped entry — a P1.5 skip verdict is
  an outcome whose stats say ``skipped`` — and flushes everything with
  the store's single
  :meth:`~.store.CacheStore.commit` — the parent process is the only
  store client: worker processes never open it (they inherit the
  parent's explorer world, see :mod:`repro.core.parallel`).
"""

from __future__ import annotations

import importlib
import logging
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..cfg import CallGraph
from ..ir import Function, Program
from .coords import CoordNaming, StaleEntry, decode, encode, renumber_program
from .fingerprint import TransitiveKeys, _sha, engine_config_fingerprint, spec_fingerprint
from .store import CacheStore, open_store

log = logging.getLogger("repro.incremental")


class CompiledModule(NamedTuple):
    """Layer-0 payload: a compiled module and its function fingerprints."""

    module: Any
    fingerprints: Dict[str, str]


@lru_cache(maxsize=None)
def _resolve(path: str) -> type:
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class Layer:
    """One row of the layer table."""

    #: key tag, also the layer's name in :data:`LAYERS`
    tag: str
    #: context fingerprints folded into the key on top of the object's
    #: own parts
    folds: Tuple[str, ...]
    #: ``"module:Class"`` of the payload, imported on first use
    payload: str
    #: whether the row stores the codec's bytes, instructions named by
    #: coordinate (:class:`~.coords.CoordNaming`), rather than the payload
    coded: bool = False

    def key(self, *parts: str) -> str:
        return CacheStore.object_key(self.tag, *parts)

    def accepts(self, value) -> bool:
        return isinstance(value, _resolve(self.payload))


#: Every cache layer, one per unit of work in the paper's framework
#: (§4): a compiled module, keyed by its filename and source digest,
#: and an entry function's P2 outcome, keyed by the entry's name and
#: transitive key; each key also folds the engine and cache-format
#: versions (see :meth:`~.store.CacheStore.object_key`).  An entry
#: P1.5 skips stores an outcome whose stats say ``skipped``: the
#: verdict depends only on the entry's closure, the spec and config
#: knobs the outcome key already folds.  An explored entry's bugs carry
#: their P3 verdicts: the key fixes each bug's trace, and with it the
#: translation and the solver's answer under the folded P3 knobs (pair
#: findings are matched after the merge and carry none).  No layer holds a product of
#: the whole program (the P1.7 partition, the P1.8 flow facts, the
#: P2.6 module summaries): its key would fold every function, so any
#: edit anywhere would miss it.  Each run rebuilds those, and P1's
#: may-return facts.
LAYERS: Dict[str, Layer] = {row.tag: row for row in (
    Layer("module", (), "repro.incremental.engine:CompiledModule"),
    Layer("outcome", ("spec_fp", "engine_fp"), "repro.core.parallel:EntryOutcome",
          coded=True),
)}


def _fetch(store, row: Layer, key: str, coords: Optional[CoordNaming] = None):
    """The one load path: get, decode, shape-check.  A wrong-typed
    payload, undecodable bytes or a stale coordinate is a warned miss —
    never a crash, never a report against the wrong instructions — and
    the store lets the next stage of the key overwrite the object."""
    stored = store.get(key)
    if stored is None:
        return None
    value, problem = stored, "unexpected payload shape"
    if row.coded:
        try:
            value = decode(stored, coords.resolve)
        except StaleEntry as exc:
            # The transitive key should make this unreachable; if key
            # derivation ever misses a dependency, degrade to a miss.
            value, problem = None, f"stale coordinates ({exc})"
        except Exception as exc:
            value, problem = None, f"undecodable payload ({exc})"
    if row.accepts(value):
        return value
    log.warning("cache: %s object %s: %s; treating as a miss", row.tag, key[:12], problem)
    store.reject(key)
    return None


@dataclass
class IncrementalPlan:
    """The per-entry partition one warm-start run works from."""

    #: entry name -> decoded cached outcome of an explored entry
    cached: Dict[str, object] = field(default_factory=dict)
    #: entries whose cached outcome says P1.5 skipped them
    skipped: List[str] = field(default_factory=list)
    #: entries this run must explore, in entry-list order
    dirty: List[Function] = field(default_factory=list)


class IncrementalContext:
    """One analysis run's view of the cache (see module docstring)."""

    def __init__(self, store: CacheStore, program: Program, config, checker_spec: str,
                 callgraph: CallGraph):
        # Fingerprints print the `interface` flag: building `callgraph`
        # marked the interfaces, so it must exist before the keys do.
        self.store = store
        self.keys = TransitiveKeys(
            program,
            fingerprints=getattr(program, "_pata_fingerprints", None),
            callgraph=callgraph,
        )
        self.spec_fp = spec_fingerprint(checker_spec)
        self.engine_fp = engine_config_fingerprint(config)
        self.coords = CoordNaming(program)

    # -- the generic layer path -----------------------------------------------

    def _key(self, row: Layer, name: str) -> str:
        folds = [getattr(self, fp) for fp in row.folds]
        return row.key(*folds, name, self.keys.key(name))

    def load(self, layer: str, name: str):
        """Layer ``layer``'s payload for ``name``, holding the current
        program's instructions, or ``None`` on a miss."""
        row = LAYERS[layer]
        return _fetch(self.store, row, self._key(row, name), self.coords)

    def stage(self, layer: str, value, name: str) -> None:
        """Stage ``value`` for the next commit (``put`` skips keys staged
        or on disk, so warm runs write nothing)."""
        if self.store.mode != "rw":
            return
        row = LAYERS[layer]
        key = self._key(row, name)
        if row.coded:
            if self.store.contains(key):
                return
            try:
                value = encode(value, self.coords.name)
            except StaleEntry as exc:  # pragma: no cover - defensive
                log.warning("cache: not storing %s object (%s)", row.tag, exc)
                return
        self.store.put(key, value)

    # -- the outcome layer: entry partition ------------------------------------

    def plan(self, entry_list: List[Function]) -> IncrementalPlan:
        plan = IncrementalPlan()
        for entry in entry_list:
            outcome = self.load("outcome", entry.name)
            if outcome is None:
                plan.dirty.append(entry)
            elif outcome.stats.skipped:
                plan.skipped.append(entry.name)
            else:
                # A cached entry's phase timing is 0 by definition — the
                # stored wall time belongs to the run that produced it.
                outcome.stats.wall_seconds = 0.0
                outcome.stats.cached = True
                plan.cached[entry.name] = outcome
        return plan

    # -- commit (parent process, single writer) ------------------------------

    def commit(
        self,
        analyzed: List[Function],
        outcomes: Dict[str, object],
        skipped_names: List[str],
    ) -> int:
        """Stage an outcome for every entry this run explored and a skip
        verdict for every entry it skipped, then flush atomically."""
        if self.store.mode != "rw":
            return 0
        from ..core.parallel import EntryOutcome
        from ..core.report import EntryStats

        for entry in analyzed:
            outcome = outcomes.get(entry.name)
            if outcome is not None and not outcome.stats.cached:
                self.stage("outcome", outcome, entry.name)
        for name in skipped_names:
            self.stage("outcome", EntryOutcome(EntryStats(name, skipped=True)), name)
        return self.store.commit()


def open_incremental(program: Program, config, checker_spec: Optional[str],
                     callgraph: CallGraph, store: Optional[CacheStore] = None):
    """The :class:`IncrementalContext` for one analysis, or ``None`` with
    a one-line warning when caching is configured but cannot apply
    (live checker objects, unopenable directory).  Mirrors the parallel fallback contract: degraded modes
    warn, they never crash and never change results.

    ``callgraph`` is the run's :class:`~repro.cfg.CallGraph`; the keys
    fold over it.  ``store`` bypasses directory resolution with a
    caller-owned store (any object speaking the
    :class:`~.store.CacheStore` surface — the resident session's
    in-memory store rides this); the caller keeps ownership and its
    commit discipline."""
    if store is None and not getattr(config, "cache_dir", None):
        return None
    if checker_spec is None:
        log.warning(
            "incremental cache disabled: custom checker objects cannot be "
            "fingerprinted; pass a checker_spec string"
        )
        return None
    if store is None:
        store = open_store(config.cache_dir, config.cache_mode)
    if store is None:
        return None
    try:
        return IncrementalContext(store, program, config, checker_spec, callgraph)
    except Exception as exc:
        log.warning("incremental cache disabled: %s", exc)
        return None


# -- layer 0: frontend module cache ------------------------------------------


def compile_module(filename: str, source: str) -> CompiledModule:
    """Compile one file into its layer-0 payload.  The fingerprints are
    printed *before* interface marking: marking resolves registrations
    across modules, so per-module objects cannot soundly cache it
    (:func:`assemble_program` re-prints the marked few)."""
    from ..lang import compile_source
    from .fingerprint import module_fingerprints

    module = compile_source(source, filename)
    return CompiledModule(module, module_fingerprints(module))


def compile_with_cache(sources, store: Optional[CacheStore]) -> Program:
    """Compile ``(filename, source)`` pairs, reusing cached modules for
    unchanged files, and assemble them (:func:`assemble_program`).  The
    caller owns the store's commit.

    Each payload also carries the module's function fingerprints so a
    warm :class:`TransitiveKeys` need not re-print unchanged functions."""
    row = LAYERS["module"]
    compiled: List[CompiledModule] = []
    for filename, source in sources:
        cached = None
        if store is not None:
            key = row.key(filename, _sha("src", source))
            cached = _fetch(store, row, key)
        if cached is None:
            cached = compile_module(filename, source)
            if store is not None:
                store.put(key, cached)
        compiled.append(cached)
    return assemble_program(compiled)


def assemble_program(compiled: Iterable[CompiledModule]) -> Program:
    """Link layer-0 payloads into one program, ready for analysis.

    Every uid is renumbered from 1 (cached modules carry a dead
    process's uids, reused ones the previous request's), registrations
    are resolved across modules, and the functions that marking flips
    to interfaces get their fingerprints re-printed.  A module may pass
    through here again once its compile-time interface flags are
    restored and its earlier programs unlinked
    (:class:`repro.serve.store.ModuleTable` does both)."""
    from ..cfg import mark_interface_functions
    from ..ir.printer import canonical_function_print, canonical_module_environment

    program = Program()
    fingerprints: Dict[str, str] = {}
    for item in compiled:
        program.add_module(item.module)
        fingerprints.update(item.fingerprints)
    renumber_program(program)
    mark_interface_functions(program)
    for module in program.modules:
        marked = [func for func in module.functions.values()
                  if func.is_interface and not func.is_declaration]
        if marked:
            env = canonical_module_environment(module)
            for func in marked:
                fingerprints[func.name] = _sha(
                    "fn", env, canonical_function_print(func)
                )
    program._pata_fingerprints = fingerprints
    return program
