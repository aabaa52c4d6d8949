"""Parallel entry-function analysis — the paper's per-entry-thread P2 (§4).

The paper analyzes each entry function on its own thread; this module
streams the entry list through persistent worker *processes* (CPython
threads would serialize on the GIL for this CPU-bound walk).  The
protocol:

* the parent builds one :class:`World` — the program, the config, the
  live checker objects, the indirect-call resolver, the P1.5 relevance
  handle, the P1.7 partition and the P1.8 flow facts — and forks the
  pool; each worker's initializer adopts that world from inherited
  memory, so nothing is pickled on the way in and nothing is rebuilt.
  Workers then pull small entry *batches* from the pool's shared call
  queue until it drains.  Work-stealing by construction: a pathological
  entry delays only the batch it sits in, never a whole per-worker
  shard;
* the parent sorts entries by instruction count, largest first, so the
  expensive entries dispatch while every worker is still busy and the
  cheap tail levels the finish;
* each batch returns a small ``(entry name, EntryOutcome)`` chunk —
  bounding peak pickle size to one batch, never a whole shard — and the
  parent folds chunks into its outcome map as they complete.  A chunk
  goes through the codec and the naming the cache uses
  (:mod:`repro.incremental.coords`): every instruction and terminator
  is written as its coordinate, and each ``heap#<uid>`` root with its
  allocation's coordinate; the parent resolves each back to its own
  object, so a result never carries a copy of the IR;
* the final merge (:func:`merge_outcomes`) folds one outcome per entry
  — explored here, served from the cache, or skipped by P1.5 — in
  ``entry_list`` order regardless of completion order, deduplicating
  with the same ``dedup_key`` logic the sequential explorer applies
  in-process, on the parent's own instructions.

Determinism: every field of the merged result except wall-clock timings
is identical to the sequential run's, byte for byte.  Any failure to
parallelize (no fork on this platform, pool setup failure, worker
crash) logs a one-line warning, cancels every not-yet-started batch
(``cancel_futures`` — surviving workers must not burn CPU the
sequential fallback is about to need), and the caller falls back to the
in-process path — never a crash.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import heap
from ..ir import Function, Program
from ..races.shared import SharedAccess
from ..typestate import Checker, PossibleBug
from .analyzer import PathExplorer
from .config import AnalysisConfig
from .report import AnalysisStats, EntryStats

log = logging.getLogger("repro.parallel")

#: the number of batches each worker pulls over a parallel run; higher =
#: finer-grained stealing, more queue round trips
DISPATCH_FACTOR = 4

#: test-only crash injection: a worker raises when a batch contains this
#: entry name (see tests/test_parallel.py's cancel-on-failure regression)
_CRASH_ENV = "REPRO_PARALLEL_TEST_CRASH_ENTRY"
#: test-only observability: workers touch one file per completed batch
#: under this directory, so tests can count how many batches actually ran
_TOUCH_ENV = "REPRO_PARALLEL_TEST_TOUCH_DIR"


@dataclass
class EntryOutcome:
    """One entry function's P2 result, the one thing P2 hands downstream:
    its stats row plus the bugs *first sighted* while exploring it
    (after per-entry dedup), and the cross-entry records the race and
    xtaint checkers made there (empty unless one is registered).  An
    entry P1.5 skips is an outcome whose row says ``skipped``, live or
    served from the cache; a served explored outcome's row says
    ``cached``.

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
    outcome (keyed by entry name, in entry-list order), plus how the run
    was shaped."""

    outcomes: Dict[str, EntryOutcome] = field(default_factory=dict)
    workers: int = 1
    batches: int = 0


@dataclass
class World:
    """Everything P2 explores against, built once by the parent.  The
    in-process path and every forked worker build their explorers from
    it (:meth:`explorer`); construction is cheap, the expensive state
    lives here."""

    program: Program
    config: AnalysisConfig
    checkers: List[Checker]
    indirect_resolver: Optional[Callable] = None
    relevance: Optional[object] = None
    partition: Optional[object] = None
    flow_facts: Optional[object] = None

    def explorer(self) -> PathExplorer:
        """A fresh explorer over this world."""
        return PathExplorer(
            self.program,
            self.config,
            self.checkers,
            indirect_resolver=self.indirect_resolver,
            relevance=self.relevance,
            partition=self.partition,
            flow_facts=self.flow_facts,
        )


def explore_entries(
    explorer: PathExplorer, entries: Sequence[Function]
) -> List[EntryOutcome]:
    """Walk ``entries`` in order through ``explorer``, slicing the shared
    ``possible_bugs`` list per entry.  Used by both the in-process path
    and the worker processes, so their per-entry records agree exactly.

    The explorer's cross-entry seen-key sets are reset before each
    entry, so every outcome's bug/access lists are a function of that
    entry *alone* — whichever worker, batch or cache produced it.
    :func:`merge_outcomes` re-applies first-sighting-in-entry-order
    dedup and counts every drop it performs there as a repeat."""
    outcomes: List[EntryOutcome] = []
    for entry in entries:
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
# Worker side: adopt the inherited world, then stream batches
# ---------------------------------------------------------------------------

#: the parent's world, adopted by :func:`_init_worker` when the process
#: starts and read by every batch that process executes
_WORLD: Optional[World] = None


def _init_worker(world: World) -> None:
    """Pool initializer: runs once per worker process, before any batch.
    A worker does nothing but analysis, so it keeps the analysis heap
    policy for its whole life."""
    global _WORLD
    heap.adopt()
    _WORLD = world


def _run_batch(entry_names: List[str]) -> bytes:
    """Worker-process batch body: explore one small batch of entries on
    a fresh explorer over the inherited world and return its outcome
    chunk, one per-entry-pure outcome per name, in batch order, encoded
    with the cache's naming (the parent decodes it with
    :meth:`~repro.incremental.coords.CoordNaming.resolve`)."""
    # Imported here: repro.incremental cannot load while repro does.
    from ..incremental.coords import CoordNaming, encode

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
    outcomes = explore_entries(world.explorer(), entries)
    touch_dir = os.environ.get(_TOUCH_ENV)
    if touch_dir:
        with open(os.path.join(touch_dir, f"batch-{os.getpid()}-{entry_names[0]}"), "w"):
            pass
    return encode(list(zip(entry_names, outcomes)), CoordNaming(world.program).name)


# ---------------------------------------------------------------------------
# Parent side: size-sorted batching, streaming dispatch, incremental fold
# ---------------------------------------------------------------------------


def _entry_cost(func: Function) -> int:
    """Dispatch-order cost proxy: the entry's own instruction count.
    Exact path-explosion cost is unknowable up front; instruction count
    is free (already computed for P1's function database) and correlates
    well enough that the big entries land in the first batches."""
    return func.instruction_count()


def batch_size(entry_count: int, workers: int) -> int:
    """Entries per batch: enough batches that each worker pulls about
    ``DISPATCH_FACTOR`` of them, so one slow batch steals at most
    ``1/DISPATCH_FACTOR`` of a worker's fair share of wall-clock, while
    a tiny entry list still dispatches one entry per batch (maximum
    stealing) rather than one fat shard per worker."""
    return max(1, -(-entry_count // (max(1, workers) * DISPATCH_FACTOR)))


def _make_batches(
    entry_list: Sequence[Function], size: int
) -> List[List[str]]:
    """Size-sorted (largest first, ties in entry-list order — the sort is
    stable) name batches of at most ``size`` entries each."""
    ordered = sorted(entry_list, key=lambda func: -_entry_cost(func))
    return [
        [func.name for func in ordered[start : start + size]]
        for start in range(0, len(ordered), size)
    ]


def run_parallel(world: World, entry_list: Sequence[Function]) -> Optional[ParallelRun]:
    """Stream ``entry_list`` through a pool of forked workers that
    inherit ``world``.

    Returns a :class:`ParallelRun` with one outcome per entry, or
    ``None`` when parallel execution is unavailable or fails mid-run
    (the caller then runs the in-process path; a one-line warning
    explains why — never a crash).  On a mid-run worker failure every
    not-yet-started batch is cancelled before falling back, so the pool
    does not race the sequential re-run for CPU.
    """
    workers = min(world.config.resolved_workers(), len(entry_list))
    batches = _make_batches(entry_list, batch_size(len(entry_list), workers))
    outcomes: Dict[str, EntryOutcome] = {}
    # Imported here: a run with one worker never starts a pool.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    from ..incremental.coords import CoordNaming, decode

    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(world,),
        ) as pool:
            futures = [pool.submit(_run_batch, batch) for batch in batches]
            try:
                naming = CoordNaming(world.program)
                for future in as_completed(futures):
                    outcomes.update(decode(future.result(), naming.resolve))
            except BaseException:
                # One failed batch fails the whole parallel attempt; the
                # queued remainder must not keep running (double work —
                # the sequential fallback re-explores everything).
                pool.shutdown(wait=False, cancel_futures=True)
                raise
    except Exception as exc:
        log.warning("parallel analysis failed (%s); falling back to sequential", exc)
        return None
    if len(outcomes) != len(entry_list):
        log.warning(
            "parallel analysis returned %d/%d outcomes; falling back to sequential",
            len(outcomes), len(entry_list),
        )
        return None
    # Entry-list order, not completion order: the cache commit stages in
    # map order, so a pool run writes what a sequential run writes.
    in_order = {func.name: outcomes[func.name] for func in entry_list}
    return ParallelRun(outcomes=in_order, workers=workers, batches=len(batches))


# ---------------------------------------------------------------------------
# Deterministic merge
# ---------------------------------------------------------------------------


def merge_outcomes(
    entry_list: Sequence[Function],
    outcomes: Dict[str, EntryOutcome],
    stats: AnalysisStats,
) -> Tuple[List[PossibleBug], List[SharedAccess]]:
    """Fold each entry's outcome — explored, served from the cache or
    skipped by P1.5 — into ``stats`` and one deduplicated bug list plus
    one deduplicated record list, visiting entries in ``entry_list``
    order regardless of which process (or completion order) produced
    them.  ``per_entry`` gets one row per entry, and the skipped and
    cached entries are counted from those rows.

    Dedup bookkeeping mirrors one explorer walking every entry in order:
    a bug's (or access's) first sighting in global entry order is kept;
    every later sighting — whether already dropped where the outcome was
    produced (counted in that outcome's ``repeated_bugs`` delta) or
    dropped here — is a repeat.  Cross-entry access dedup matters
    because each outcome only saw its own entry: two entries can both
    record e.g. an access inside a helper they both inline.
    """
    merged: List[PossibleBug] = []
    merged_accesses: List[SharedAccess] = []
    seen_bug_keys = set()
    seen_access_keys = set()
    repeated = 0
    aware = 0
    unaware = 0
    for entry in entry_list:
        outcome = outcomes[entry.name]
        row = outcome.stats
        stats.per_entry.append(row)
        if row.skipped:
            stats.entries_skipped += 1
        elif row.cached:
            stats.entries_cached += 1
        stats.explored_paths += row.paths
        stats.executed_steps += row.steps
        if row.budget_exhausted:
            stats.budget_exhausted_entries += 1
        stats.blocks_pruned += row.blocks_pruned
        stats.paths_pruned += row.paths_pruned
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
