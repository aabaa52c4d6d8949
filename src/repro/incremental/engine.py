"""Orchestration glue between the cache primitives and the PATA pipeline.

:class:`IncrementalContext` is what :meth:`repro.core.pata.PATA.analyze`
actually talks to.  Opened once per analysis (when the config enables
caching and the checker set is spec-addressable), it:

* derives every function's transitive key (:mod:`.fingerprint`) once,
  and names instructions through :class:`~.coords.CoordNaming`, which
  reads a coordinate off each instruction's parent links: an outcome is
  stored as bytes with each instruction written as its coordinate, and
  decoded onto the current program's own instructions;
* serves the entry list's cached outcomes as one name → outcome map
  (:meth:`~IncrementalContext.plan`): an explored entry's record, or a
  P1.5 skip verdict — an outcome whose stats say ``skipped``;
* after P3, stages the run's whole outcome map — each explored entry's
  bugs carrying their P3 verdicts, each skip verdict as it is — and
  flushes everything with the store's single
  :meth:`~.store.CacheStore.commit` — the parent process is the only
  store client: worker processes never open it (they inherit the
  parent's explorer world, see :mod:`repro.core.parallel`).

There are two cache layers, one per unit of work in the paper's
framework (§4), and each is a key and a fetch through :func:`_fetch`: a
compiled module (layer 0, :func:`compile_with_cache`), keyed by its
filename and source digest, and an entry function's P2 outcome, keyed
by the entry's name and transitive key, the checker spec and the engine
config; every key also folds the engine and cache-format versions (see
:meth:`~.store.CacheStore.object_key`).  A skip verdict depends only on
the entry's closure, the spec and the config knobs the outcome key
already folds.  An explored entry's bugs carry their P3 verdicts: the
key fixes each bug's trace, and with it the translation and the
solver's answer under the folded P3 knobs (pair findings are matched
after the merge and carry none).  No layer holds a product of the whole
program (the P1.7 partition, the P1.8 flow facts, the P2.6 module
summaries): its key would fold every function, so any edit anywhere
would miss it.  Each run rebuilds those, and P1's may-return facts.
"""

from __future__ import annotations

import logging
from typing import Any, Dict, Iterable, List, NamedTuple, Optional

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


def _fetch(store, tag: str, key: str, payload: type,
           coords: Optional[CoordNaming] = None):
    """The one load path: get, decode (when ``coords`` names the
    stored bytes' instructions), shape-check.  A wrong-typed payload,
    undecodable bytes or a stale coordinate is a warned miss — never a
    crash, never a report against the wrong instructions — and the store
    lets the next stage of the key overwrite the object."""
    stored = store.get(key)
    if stored is None:
        return None
    value, problem = stored, "unexpected payload shape"
    if coords is not None:
        try:
            value = decode(stored, coords.resolve)
        except StaleEntry as exc:
            # The transitive key should make this unreachable; if key
            # derivation ever misses a dependency, degrade to a miss.
            value, problem = None, f"stale coordinates ({exc})"
        except Exception as exc:
            value, problem = None, f"undecodable payload ({exc})"
    if isinstance(value, payload):
        return value
    log.warning("cache: %s object %s: %s; treating as a miss", tag, key[:12], problem)
    store.reject(key)
    return None


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

    # -- the outcome layer -----------------------------------------------------

    def _key(self, name: str) -> str:
        return CacheStore.object_key(
            "outcome", self.spec_fp, self.engine_fp, name, self.keys.key(name)
        )

    def plan(self, entry_list: List[Function]) -> Dict[str, Any]:
        """Entry name -> its cached :class:`~repro.core.parallel.EntryOutcome`,
        holding the current program's instructions, for every entry the
        cache serves; the run explores or P1.5-skips the rest."""
        # Imported here: repro.incremental cannot load while repro does.
        from ..core.parallel import EntryOutcome

        served: Dict[str, Any] = {}
        for entry in entry_list:
            outcome = _fetch(self.store, "outcome", self._key(entry.name),
                             EntryOutcome, self.coords)
            if outcome is None:
                continue
            if not outcome.stats.skipped:
                # A cached entry's phase timing is 0 by definition — the
                # stored wall time belongs to the run that produced it.
                outcome.stats.wall_seconds = 0.0
                outcome.stats.cached = True
            served[entry.name] = outcome
        return served

    # -- commit (parent process, single writer) ------------------------------

    def commit(self, outcomes: Dict[str, Any]) -> int:
        """Stage every outcome of ``outcomes`` the cache did not serve —
        explored entries' records and P1.5 skip verdicts — then flush
        atomically.  A key already staged or on disk is skipped before
        encoding, so a served skip verdict writes nothing."""
        if self.store.mode != "rw":
            return 0
        for name, outcome in outcomes.items():
            if outcome.stats.cached:
                continue
            key = self._key(name)
            if self.store.contains(key):
                continue
            try:
                data = encode(outcome, self.coords.name)
            except StaleEntry as exc:  # pragma: no cover - defensive
                log.warning("cache: not storing outcome object (%s)", exc)
                continue
            self.store.put(key, data)
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
    compiled: List[CompiledModule] = []
    for filename, source in sources:
        cached = None
        if store is not None:
            key = CacheStore.object_key("module", filename, _sha("src", source))
            cached = _fetch(store, "module", key, CompiledModule)
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
