"""Parallel entry-function analysis — the paper's per-entry-thread P2 (§4).

The paper analyzes each entry function on its own thread; this module
streams the entry list through persistent worker *processes* (CPython
threads would serialize on the GIL for this CPU-bound walk).  The
protocol:

* each worker initializes **once** — inheriting the parent's
  :class:`~repro.ir.Program`, :class:`~repro.core.collector.
  InformationCollector`, and P1.5 relevance handle zero-copy via fork
  where the platform allows it, or unpickling one program copy (seeded
  with the parent's collector facts and precomputed dead-block masks)
  under spawn — and then pulls small entry *batches* from the pool's
  shared call queue until it drains.  Work-stealing by construction: a
  pathological entry delays only the batch it sits in, never a whole
  per-worker shard;
* the parent sorts entries by instruction count, largest first, so the
  expensive entries dispatch while every worker is still busy and the
  cheap tail levels the finish;
* each batch returns a small ``(entry name, EntryOutcome)`` chunk —
  bounding peak pickle size to one batch, never a whole shard — and the
  parent folds chunks into its outcome map as they complete;
* live checker objects never cross the process boundary: workers rebuild
  their checker set from a *spec name* (see
  :func:`repro.typestate.checkers.checkers_from_spec`) at initialization;
* the final merge (:func:`merge_outcomes`) visits entries in
  ``entry_list`` order regardless of completion order, deduplicating
  with the same ``dedup_key`` logic the sequential explorer applies
  in-process — instruction uids survive both fork and pickling, so
  cross-worker duplicates collapse exactly as they do today.

Determinism: every field of the merged result except wall-clock timings
is identical to the sequential run's, byte for byte.  Any failure to
parallelize (unpicklable program, pool setup failure, worker crash) logs
a one-line warning, cancels every not-yet-started batch
(``cancel_futures`` — surviving workers must not burn CPU the
sequential fallback is about to need), and the caller falls back to the
in-process path — never a crash.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .. import heap
from ..ir import Function, Program
from ..races.shared import SharedAccess
from ..typestate import PossibleBug
from ..typestate.checkers import checkers_from_spec, configure_checkers
from .analyzer import PathExplorer
from .collector import InformationCollector
from .config import AnalysisConfig
from .report import AnalysisStats, EntryStats

log = logging.getLogger("repro.parallel")

#: test-only crash injection: a worker raises when a batch contains this
#: entry name (see tests/test_parallel.py's cancel-on-failure regression)
_CRASH_ENV = "REPRO_PARALLEL_TEST_CRASH_ENTRY"
#: test-only observability: workers touch one file per completed batch
#: under this directory, so tests can count how many batches actually ran
_TOUCH_ENV = "REPRO_PARALLEL_TEST_TOUCH_DIR"


def _fork_available() -> bool:
    """Whether workers can inherit the parent's memory (Linux/BSD fork)."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


@dataclass
class EntryOutcome:
    """One entry function's exploration record: its stats row plus the
    bugs *first sighted* while exploring it (after per-entry dedup), and
    the shared-state accesses the race checker recorded there (empty
    unless a race checker is registered).

    The three counters are this entry's *deltas* of the explorer's
    cumulative typestate/repeat counters — each is a deterministic
    function of the entry alone, which is what lets the incremental
    cache serve a single entry's outcome and still reproduce the
    whole-run ``--stats`` totals exactly."""

    stats: EntryStats
    bugs: List[PossibleBug] = field(default_factory=list)
    accesses: List[SharedAccess] = field(default_factory=list)
    aware_updates: int = 0
    unaware_updates: int = 0
    repeated_bugs: int = 0


@dataclass
class ParallelRun:
    """What :func:`run_parallel` hands back: every explored entry's
    outcome (keyed by entry name), plus how the run was shaped."""

    outcomes: Dict[str, EntryOutcome] = field(default_factory=dict)
    workers: int = 1
    batches: int = 0


def explore_entries(
    explorer: PathExplorer,
    entries: Sequence[Function],
    per_entry_dedup: bool = False,
) -> List[EntryOutcome]:
    """Walk ``entries`` in order through ``explorer``, slicing the shared
    ``possible_bugs`` list per entry.  Used by both the in-process path
    and the worker processes, so their per-entry records agree exactly.

    ``per_entry_dedup`` resets the explorer's cross-entry seen-key sets
    before each entry, making every outcome's bug/access lists a function
    of that entry *alone* — required whenever outcomes may be cached or
    produced by different workers (a cumulative list would silently omit
    bugs first sighted under an entry that happened to run earlier in the
    same process).  The merged result is identical either way:
    :func:`merge_outcomes` re-applies first-sighting-in-entry-order
    dedup, and every drop it performs there is counted in the same
    ``dropped_repeated_bugs`` total the cumulative mode produces."""
    outcomes: List[EntryOutcome] = []
    for entry in entries:
        if per_entry_dedup:
            explorer.seen_bug_keys.clear()
            explorer.seen_access_keys.clear()
        before = len(explorer.possible_bugs)
        accesses_before = len(explorer.shared_accesses)
        aware_before = explorer.store.aware_updates
        unaware_before = explorer.store.unaware_updates
        repeated_before = explorer.repeated_bugs
        started = time.perf_counter()
        explorer.explore(entry)
        outcomes.append(
            EntryOutcome(
                stats=EntryStats(
                    name=entry.name,
                    paths=explorer.paths,
                    steps=explorer.steps,
                    wall_seconds=time.perf_counter() - started,
                    budget_exhausted=explorer.budget_exhausted,
                    paths_pruned=explorer.paths_pruned,
                    blocks_pruned=explorer.blocks_pruned,
                ),
                bugs=explorer.possible_bugs[before:],
                accesses=explorer.shared_accesses[accesses_before:],
                aware_updates=explorer.store.aware_updates - aware_before,
                unaware_updates=explorer.store.unaware_updates - unaware_before,
                repeated_bugs=explorer.repeated_bugs - repeated_before,
            )
        )
    return outcomes


# ---------------------------------------------------------------------------
# Worker side: initialize-once world, then stream batches
# ---------------------------------------------------------------------------


class PrecomputedRelevance:
    """A read-only stand-in for
    :class:`~repro.presolve.prune.RelevancePreAnalysis` built from
    dead-block uid sets (and per-entry armed checker names) computed
    earlier: by the parent for spawned workers, or read from the
    incremental cache's layer-(b) masks.  Same ``dead_blocks``/
    ``armed_names`` surface the explorer consumes, none of the
    summary-index build cost.  Block uids are assigned at IR
    construction and survive both fork and pickling, so the sets index
    a worker's program copy exactly.  The cache path only builds one
    when *every* entry it will be asked about has a cached mask."""

    supported = True

    def __init__(
        self,
        masks: Dict[str, FrozenSet[int]],
        armed: Optional[Dict[str, Optional[FrozenSet[str]]]] = None,
    ):
        self._masks = masks
        self._armed = armed or {}

    def dead_blocks(self, entry: Function) -> FrozenSet[int]:
        return self._masks.get(entry.name, frozenset())

    def armed_names(self, entry: Function) -> Optional[FrozenSet[str]]:
        return self._armed.get(entry.name)


@dataclass
class _WorkerInit:
    """Everything one worker needs to build its world, exactly once.

    Fork mode passes the live objects (``program``/``collector``/
    ``relevance``) — initargs reach forked children through inherited
    memory, never the pickle machinery.  Spawn mode passes the program
    as bytes pickled *once in the parent* (so an unpicklable program
    fails fast, before any process starts) plus the parent collector's
    may-return facts and precomputed dead-block masks, sparing every
    spawned worker the P1 fixpoint re-derivation and the entire P1.5
    summary-index build."""

    config: AnalysisConfig
    checker_spec: str
    program: Optional[Program] = None
    collector: Optional[InformationCollector] = None
    relevance: Optional[object] = None
    program_bytes: Optional[bytes] = None
    cached_facts: Optional[Dict[str, Tuple[bool, bool]]] = None
    dead_masks: Optional[Dict[str, FrozenSet[int]]] = None
    armed_masks: Optional[Dict[str, Optional[FrozenSet[str]]]] = None
    #: P1.7 may-alias partition.  One field serves both modes: fork
    #: inherits the live object zero-copy, spawn pickles it with the
    #: initargs (MayAliasPartition defines ``__reduce__``); either way
    #: workers never re-run the unification pass.
    partition: Optional[object] = None
    #: P1.8 must-alias facts, shipped the same way (MustAliasFacts also
    #: defines ``__reduce__``; its memo tables rebuild lazily per worker)
    flow_facts: Optional[object] = None


@dataclass
class _WorkerWorld:
    """The per-process state every batch reuses."""

    program: Program
    config: AnalysisConfig
    checkers: list
    collector: InformationCollector
    relevance: Optional[object]
    partition: Optional[object] = None
    flow_facts: Optional[object] = None


#: built by :func:`_init_worker` when the process starts, read by every
#: batch that process executes
_WORLD: Optional[_WorkerWorld] = None


def _init_worker(init: _WorkerInit) -> None:
    """Pool initializer: runs once per worker process, before any batch.
    A worker does nothing but analysis, so it keeps the analysis heap
    policy for its whole life."""
    global _WORLD
    heap.adopt()
    if init.program is not None:
        program = init.program
        collector = init.collector
        relevance = init.relevance
    else:
        program = pickle.loads(init.program_bytes)
        collector = InformationCollector(program, cached_facts=init.cached_facts)
        relevance = (
            PrecomputedRelevance(init.dead_masks, init.armed_masks)
            if init.dead_masks is not None
            else None
        )
    checkers = configure_checkers(
        checkers_from_spec(init.checker_spec, collector), init.config
    )
    _WORLD = _WorkerWorld(
        program, init.config, checkers, collector, relevance, init.partition,
        init.flow_facts,
    )


def _run_batch(entry_names: List[str]) -> List[Tuple[str, EntryOutcome]]:
    """Worker-process batch body: explore one small batch of entries
    against the initialize-once world and return its outcome chunk.

    Each batch gets a **fresh** :class:`PathExplorer` (construction is
    cheap; the expensive state — program, collector facts, relevance —
    lives in the world) running with per-entry dedup, so every returned
    outcome is a function of its entry alone, independent of which
    worker pulled which batch in which order."""
    world = _WORLD
    assert world is not None, "worker batch before initializer ran"
    crash = os.environ.get(_CRASH_ENV)
    if crash and crash in entry_names:
        raise RuntimeError(f"injected test crash on entry {crash!r}")
    entries = []
    for name in entry_names:
        func = world.program.lookup(name)
        if func is None:  # pragma: no cover - names come from this program
            raise KeyError(f"entry function {name!r} not found in worker program")
        entries.append(func)
    explorer = PathExplorer(
        world.program,
        world.config,
        world.checkers,
        indirect_resolver=(
            world.collector.indirect_targets
            if world.config.resolve_function_pointers
            else None
        ),
        relevance=world.relevance,
        partition=world.partition,
        flow_facts=world.flow_facts,
    )
    outcomes = explore_entries(explorer, entries, per_entry_dedup=True)
    touch_dir = os.environ.get(_TOUCH_ENV)
    if touch_dir:
        with open(os.path.join(touch_dir, f"batch-{os.getpid()}-{entry_names[0]}"), "w"):
            pass
    return list(zip(entry_names, outcomes))


# ---------------------------------------------------------------------------
# Parent side: size-sorted batching, streaming dispatch, incremental fold
# ---------------------------------------------------------------------------


def _entry_cost(func: Function) -> int:
    """Dispatch-order cost proxy: the entry's own instruction count.
    Exact path-explosion cost is unknowable up front; instruction count
    is free (already computed for P1's function database) and correlates
    well enough that the big entries land in the first batches."""
    return func.instruction_count()


def _make_batches(
    entry_list: Sequence[Function], batch_size: int
) -> List[List[str]]:
    """Size-sorted (largest first, ties in entry-list order — the sort is
    stable) name batches of at most ``batch_size`` entries each."""
    ordered = sorted(entry_list, key=lambda func: -_entry_cost(func))
    return [
        [func.name for func in ordered[start : start + batch_size]]
        for start in range(0, len(ordered), batch_size)
    ]


def run_parallel(
    program: Program,
    config: AnalysisConfig,
    checker_spec: str,
    entry_list: Sequence[Function],
    collector: Optional[InformationCollector] = None,
    relevance: Optional[object] = None,
    partition: Optional[object] = None,
    flow_facts: Optional[object] = None,
) -> Optional[ParallelRun]:
    """Stream ``entry_list`` through a pool of persistent workers.

    Returns a :class:`ParallelRun` with one outcome per entry, or
    ``None`` when parallel execution is unavailable or fails mid-run
    (the caller then runs the in-process path; a one-line warning
    explains why — never a crash).  On a mid-run worker failure every
    not-yet-started batch is cancelled before falling back, so the pool
    does not race the sequential re-run for CPU.
    """
    workers = min(config.resolved_workers(), len(entry_list))
    use_fork = _fork_available() and config.parallel_start_method != "spawn"
    if use_fork:
        init = _WorkerInit(
            config=config,
            checker_spec=checker_spec,
            program=program,
            collector=collector or InformationCollector(program),
            relevance=relevance,
            partition=partition,
            flow_facts=flow_facts,
        )
    else:
        # Spawned workers must receive the program by value; an
        # unpicklable program cannot be analyzed in parallel.  (Worker
        # crashes — e.g. unpicklable *results* — surface from
        # future.result() below and take the same fallback.)
        try:
            program_bytes = pickle.dumps(program)
        except Exception as exc:
            log.warning(
                "parallel analysis disabled: program does not pickle (%s); "
                "falling back to sequential", exc,
            )
            return None
        cached_facts = None
        if collector is not None:
            cached_facts = {
                name: (info.may_return_negative, info.may_return_zero)
                for name, info in collector.functions.items()
            }
        dead_masks = None
        armed_masks = None
        if config.prune and relevance is not None:
            dead_masks = {
                func.name: frozenset(relevance.dead_blocks(func))
                for func in entry_list
            }
            armed_of = getattr(relevance, "armed_names", None)
            if armed_of is not None:
                armed_masks = {func.name: armed_of(func) for func in entry_list}
        init = _WorkerInit(
            config=config,
            checker_spec=checker_spec,
            program_bytes=program_bytes,
            cached_facts=cached_facts,
            dead_masks=dead_masks,
            armed_masks=armed_masks,
            partition=partition,
            flow_facts=flow_facts,
        )
    batch_size = config.resolved_batch_size(len(entry_list), workers)
    batches = _make_batches(entry_list, batch_size)
    outcomes: Dict[str, EntryOutcome] = {}
    # Imported here: a run with one worker never starts a pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    try:
        mp_context = multiprocessing.get_context("fork" if use_fork else "spawn")
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=mp_context,
            initializer=_init_worker,
            initargs=(init,),
        ) as pool:
            futures = [pool.submit(_run_batch, batch) for batch in batches]
            try:
                for future in as_completed(futures):
                    for name, outcome in future.result():
                        outcomes[name] = outcome
            except BaseException:
                # One failed batch fails the whole parallel attempt; the
                # queued remainder must not keep running (double work —
                # the sequential fallback re-explores everything).
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    except Exception as exc:
        log.warning("parallel analysis failed (%s); falling back to sequential", exc)
        return None
    if len(outcomes) != len(entry_list):  # pragma: no cover - defensive
        log.warning(
            "parallel analysis returned %d/%d outcomes; falling back to sequential",
            len(outcomes), len(entry_list),
        )
        return None
    return ParallelRun(outcomes=outcomes, workers=workers, batches=len(batches))


# ---------------------------------------------------------------------------
# Deterministic merge
# ---------------------------------------------------------------------------


def merge_outcomes(
    entry_list: Sequence[Function],
    outcome_by_entry: Dict[str, EntryOutcome],
    stats: AnalysisStats,
) -> Tuple[List[PossibleBug], List[SharedAccess]]:
    """Fold per-entry outcomes into ``stats`` and one deduplicated bug
    list plus one deduplicated shared-access list, visiting entries in
    ``entry_list`` order regardless of which process (or completion
    order) produced them.

    Dedup bookkeeping mirrors the sequential explorer exactly: a bug's
    (or access's) first sighting in global entry order is kept; every
    later sighting — whether already dropped where the outcome was
    produced (counted in that outcome's ``repeated_bugs`` delta) or
    dropped here — is a repeat.  Cross-process access dedup matters
    because each worker's explorer only saw its own batches: two workers
    can both record e.g. an access inside a helper inlined from entries
    they explored independently.
    """
    merged: List[PossibleBug] = []
    merged_accesses: List[SharedAccess] = []
    seen_bug_keys = set()
    seen_access_keys = set()
    repeated = 0
    aware = 0
    unaware = 0
    for entry in entry_list:
        outcome = outcome_by_entry[entry.name]
        stats.per_entry.append(outcome.stats)
        stats.explored_paths += outcome.stats.paths
        stats.executed_steps += outcome.stats.steps
        if outcome.stats.budget_exhausted:
            stats.budget_exhausted_entries += 1
        stats.blocks_pruned += outcome.stats.blocks_pruned
        stats.paths_pruned += outcome.stats.paths_pruned
        repeated += outcome.repeated_bugs
        aware += outcome.aware_updates
        unaware += outcome.unaware_updates
        for bug in outcome.bugs:
            key = bug.dedup_key
            if key in seen_bug_keys:
                repeated += 1
                continue
            seen_bug_keys.add(key)
            merged.append(bug)
        for access in outcome.accesses:
            access_key = access.dedup_key
            if access_key in seen_access_keys:
                continue
            seen_access_keys.add(access_key)
            merged_accesses.append(access)
    stats.typestates_aware = aware
    stats.typestates_unaware = unaware
    stats.dropped_repeated_bugs = repeated
    return merged, merged_accesses

