"""The PATA framework facade (Fig. 10): compile → collect → analyze →
filter → report.

Typical use::

    from repro import PATA, compile_program

    program = compile_program([("drv.c", source)])
    result = PATA().analyze(program)
    for report in result.reports:
        print(report.render())
"""

from __future__ import annotations

import logging
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..cfg import CallGraph
from ..ir import Function, Program
from ..lang import compile_program
from ..typestate import Checker, checkers_from_spec, configure_checkers
from .collector import InformationCollector
from .config import AnalysisConfig
from .filter import BugFilter
from .parallel import World, explore_entries, merge_outcomes, run_parallel
from .report import AnalysisResult, AnalysisStats, EntryStats

log = logging.getLogger("repro.pata")


def _duplicate_definitions(program: Program) -> Dict[str, List[str]]:
    """Function name -> the files defining it, for every name defined in
    more than one module.  Calls, P1.5 summaries, P2 outcomes and every
    cache layer resolve functions by name alone, so each such name
    stands for one of its definitions only."""
    files: Dict[str, List[str]] = {}
    for module in program.modules:
        for func in module.defined_functions():
            files.setdefault(func.name, []).append(module.name)
    return {name: where for name, where in files.items() if len(where) > 1}


class PATA:
    """Path-sensitive and Alias-aware Typestate Analysis.

    ``checkers`` defaults to the paper's three primary checkers (NPD, UVA,
    ML, §5.1); pass ``PATA.with_all_checkers()`` for the §5.5 set, a
    ``checker_spec`` string (any form accepted by
    :func:`repro.typestate.checkers.checkers_from_spec`, e.g.
    ``"npd,ml,taint"``), or any custom :class:`~repro.typestate.Checker`
    list.  Only spec strings key the incremental cache; live objects run
    with the cache off.
    """

    def __init__(
        self,
        checkers: Optional[List[Checker]] = None,
        config: Optional[AnalysisConfig] = None,
        checker_spec: Optional[str] = None,
        store=None,
    ):
        if checkers is not None and checker_spec is not None:
            raise ValueError("pass either live checkers or a checker_spec, not both")
        self.config = config or AnalysisConfig()
        self._checkers = checkers
        if checker_spec is not None:
            # Validate eagerly so a bad spec fails at construction, not
            # midway through an analysis.
            checkers_from_spec(checker_spec)
        self._spec = checker_spec
        #: a pre-opened cache store (e.g. a resident session's in-memory
        #: store) overriding ``config.cache_dir`` resolution; ``None``
        #: for the normal disk-backed (or cache-off) path
        self._store = store

    @classmethod
    def with_all_checkers(cls, config: Optional[AnalysisConfig] = None) -> "PATA":
        """PATA with the six shipped checkers; the collector wires the
        may-return-negative/zero facts in at analysis time."""
        instance = cls(checkers=None, config=config)
        instance._use_all = True
        return instance

    # -- pipeline -----------------------------------------------------------------

    def analyze(self, program: Program, entries: Optional[List[Function]] = None) -> AnalysisResult:
        started = time.monotonic()
        if self.config.optimize_ir:
            from ..incremental.coords import renumber_program
            from ..ir import optimize_program

            optimize_program(program)
            # Compile-time fingerprints print the unoptimized IR; after
            # rewriting, they would poison every cache key.  Rewriting
            # also mints fresh uids from the process counters, so
            # renumber to keep uid-derived report text deterministic.
            program.__dict__.pop("_pata_fingerprints", None)
            renumber_program(program)
        duplicates = _duplicate_definitions(program)
        if duplicates:
            log.warning(
                "function names defined in more than one file: %s; each name "
                "resolves to one definition and the incremental cache is off "
                "for this run",
                "; ".join(f"{name} ({', '.join(where)})"
                          for name, where in duplicates.items()),
            )
        # P1: the run's one call graph (building it marks the interface
        # functions) and the function database.  Entry discovery, the
        # cache keys, P1.5, P1.7 and P1.8 all read this graph.
        phase_started = time.monotonic()
        callgraph = CallGraph(program, self.config.resolve_function_pointers)
        collector = InformationCollector(program, callgraph)
        stats = AnalysisStats(
            analyzed_files=len(program.modules),
            analyzed_lines=program.total_source_lines(),
        )
        entry_list = entries if entries is not None else collector.entry_functions()
        stats.entry_functions = len(entry_list)
        # Incremental cache (opt-in): key every function over the graph
        # and open the outcome store.  `incr` stays None when caching is
        # off or cannot apply (live checker objects, a function name
        # defined in two files) — every later cache branch collapses to
        # today's behaviour.
        incr = None
        if (self.config.cache_active() or self._store is not None) and not duplicates:
            from ..incremental import open_incremental

            incr = open_incremental(
                program, self.config, self._checker_spec(), callgraph, store=self._store
            )
        # Checker construction is P1 work too: the race and xtaint
        # checkers compute the shared-heap universe here.
        checkers = self._resolve_checkers(collector)
        stats.time_collect_seconds = time.monotonic() - phase_started

        # P1.5: checker-relevance pre-analysis.  Entry pruning happens
        # here, *before* dispatch, so skipped entries never reach a
        # worker; block pruning happens inside each explorer through the
        # `relevance` handle (forked workers inherit it with the rest of
        # the P2 world — see parallel.py).  With a warm cache the
        # per-entry outcomes partition the entries first: a cached
        # outcome is either an explored entry's record or a skip verdict,
        # and the pre-analysis is built only when some entry is left to
        # explore.
        phase_started = time.monotonic()
        relevance = None
        analyzed_list = list(entry_list)
        skipped_names: List[str] = []
        cached_outcomes = {}
        if incr is not None:
            plan = incr.plan(entry_list)
            cached_outcomes = plan.cached
            skipped_names = plan.skipped
            analyzed_list = plan.dirty
        if self.config.prune and analyzed_list:
            from ..presolve import RelevancePreAnalysis, ScanContext

            relevance = RelevancePreAnalysis(
                program,
                checkers,
                ScanContext(
                    may_return_negative=collector.may_return_negative,
                    may_return_zero=collector.may_return_zero,
                ),
                callgraph=callgraph,
            )
            analyzed_list, live_skipped = relevance.partition_entries(analyzed_list)
            skipped_names.extend(live_skipped)
        stats.entries_skipped = len(skipped_names)
        stats.time_presolve_seconds = time.monotonic() - phase_started

        # P1.7: tiered may-alias pre-pass.  One whole-program Steensgaard
        # unification proves the singletons the explorer's per-path
        # graphs keep node-free.  Report- and work-preserving:
        # `--alias-tier off` gives the same reports and counters.  Every
        # run builds it: it depends on every function, so no cache key
        # could survive an edit.
        partition = None
        if self.config.alias_tier_level() >= 1 and self.config.alias_aware:
            phase_started = time.monotonic()
            from ..pointsto.steensgaard import build_partition

            partition = build_partition(program, callgraph)
            stats.singletons_proven = len(partition.singletons)
            stats.alias_cells = partition.cell_count
            stats.time_unify_seconds = time.monotonic() - phase_started

        # P1.8: per-entry skip sets.  One walk records, per function,
        # the names its instructions mention and the names they put
        # through a state-dependent alias-graph operation; the explorer
        # resolves a per-entry skip set from it (closure occurrences
        # minus disqualifications, plus the P1.7 singletons that occur).
        # Built every run, like the partition.
        flow_facts = None
        if partition is not None and self.config.alias_tier_level() >= 2:
            phase_started = time.monotonic()
            from ..pointsto.flow_tier import compute_flow_facts

            flow_facts = compute_flow_facts(program, partition, callgraph)
            stats.time_flow_seconds = time.monotonic() - phase_started

        # P2: explore every entry against one world — the program, the
        # config, the checkers, the resolver and the P1.5/P1.7/P1.8
        # products — streamed in size-sorted batches through forked
        # workers that inherit it when configured (the paper's
        # thread-per-entry, §4), in-process otherwise.  Both paths
        # produce per-entry outcomes merged by the same deterministic
        # entry-order fold, so reports and stats are identical either way
        # (timings aside).
        phase_started = time.monotonic()
        world = World(
            program,
            self.config,
            checkers,
            indirect_resolver=(
                collector.indirect_targets if self.config.resolve_function_pointers else None
            ),
            relevance=relevance,
            partition=partition,
            flow_facts=flow_facts,
        )
        outcome_by_name = None
        if self.config.resolved_workers() > 1 and len(analyzed_list) > 1:
            run = run_parallel(world, analyzed_list)
            if run is not None:
                outcome_by_name = run.outcomes
                stats.workers_used = run.workers
                stats.batches_dispatched = run.batches
        if outcome_by_name is None:
            outcomes = explore_entries(world.explorer(), analyzed_list)
            outcome_by_name = {
                func.name: outcome for func, outcome in zip(analyzed_list, outcomes)
            }
        stats.time_explore_seconds = time.monotonic() - phase_started
        if incr is not None:
            stats.entries_reanalyzed = len(analyzed_list)
        merge_map = outcome_by_name
        merge_list = analyzed_list
        if cached_outcomes:
            # Splice the cache hits straight into the outcome map; the
            # deterministic entry-order merge below then treats them
            # exactly like freshly explored outcomes, so mixed
            # cached/fresh runs dedup — and race-match — identically to
            # a cold run.
            merge_map = {**outcome_by_name, **cached_outcomes}
            explored = {func.name for func in analyzed_list}
            merge_list = [
                func for func in entry_list
                if func.name in explored or func.name in cached_outcomes
            ]
            stats.entries_cached = len(merge_list) - len(analyzed_list)
        possible_bugs, merged_records = merge_outcomes(merge_list, merge_map, stats)
        # The access channel carries two record families: SharedAccess
        # (P2.5 race input) and TaintFlow (P2.6 cross-module taint
        # input).  Partition once; each matcher sees only its own.
        shared_accesses = merged_records
        taint_flows = []
        if merged_records:
            from ..xtaint import TaintFlow

            taint_flows = [r for r in merged_records if isinstance(r, TaintFlow)]
            if taint_flows:
                shared_accesses = [
                    r for r in merged_records if not isinstance(r, TaintFlow)
                ]
        # P2.5: cross-entry race matching.  Accesses only exist when a
        # race checker is registered; the matcher pairs same-key accesses
        # from different entries with disjoint locksets (≥1 write) into
        # stage-1 candidates carrying *both* path snapshots, which the
        # P3 validator conjoins (translate_trace_pair).
        phase_started = time.monotonic()
        if shared_accesses:
            from ..races import match_races

            race_bugs = match_races(shared_accesses)
            stats.shared_accesses = len(shared_accesses)
            stats.race_pairs_matched = len(race_bugs)
            possible_bugs.extend(race_bugs)
        stats.time_match_seconds = time.monotonic() - phase_started
        # P2.6: cross-module taint matching.  Flows only exist when the
        # xtaint checker is registered.  Per-module interface summaries
        # condense the merged flows (cached entries' flows included, so
        # a warm run condenses the same list); the fixpoint matcher
        # stitches export-in-module-A to sink-in-module-B, and every
        # pair re-discharges in P3 with both path conditions conjoined.
        phase_started = time.monotonic()
        if taint_flows:
            from ..xtaint import build_summaries, match_cross_module

            summaries = build_summaries(taint_flows)
            xtaint_bugs = match_cross_module(summaries)
            stats.taint_flows_recorded = len(taint_flows)
            stats.xtaint_pairs_matched = len(xtaint_bugs)
            possible_bugs.extend(xtaint_bugs)
        stats.time_xmatch_seconds = time.monotonic() - phase_started
        if skipped_names:
            # Re-interleave the skipped entries' zero rows so per_entry
            # stays in original entry-list order with or without pruning.
            by_name = {row.name: row for row in stats.per_entry}
            for name in skipped_names:
                by_name[name] = EntryStats(name=name, skipped=True)
            stats.per_entry = [by_name[func.name] for func in entry_list]

        phase_started = time.monotonic()
        bug_filter = BugFilter(
            self.config.validate_paths,
            self.config.solver_max_search_nodes,
            alias_aware=self.config.alias_aware,
        )
        filtered = bug_filter.run(possible_bugs)
        stats.dropped_false_bugs = filtered.stats.dropped_false
        stats.validated_paths = filtered.stats.validated
        stats.smt_constraints_aware = filtered.stats.constraints_aware
        stats.smt_constraints_unaware = filtered.stats.constraints_unaware
        stats.verdicts_cached = filtered.stats.verdicts_cached
        stats.smt_solves = filtered.stats.smt_solves
        stats.time_filter_seconds = time.monotonic() - phase_started

        if incr is not None:
            # Parent-only, single-writer commit of outcomes and skip
            # verdicts (a no-op under --cache ro).  Staged after P3, so
            # each explored outcome carries the verdicts of its bugs
            # that reached the filter.  The map holds both executors'
            # products: worker batches and the in-process path emit the
            # same per-entry-pure EntryOutcome objects, so their
            # coordinates stage identically (cache hits are skipped
            # inside commit via ``stats.cached``).
            incr.commit(analyzed_list, merge_map, skipped_names)
            stats.cache_hits = incr.store.hits
            stats.cache_misses = incr.store.misses
            stats.cache_corrupt = incr.store.corrupt
            if self._store is None:
                incr.store.close()  # opened from the config: PATA owns it
        stats.time_seconds = time.monotonic() - started
        return AnalysisResult(reports=filtered.reports, stats=stats)

    def analyze_sources(self, sources: Iterable[Tuple[str, str]]) -> AnalysisResult:
        """Compile ``(filename, mini-C source)`` pairs and analyze them."""
        return self.analyze(compile_program(sources))

    def _checker_spec(self) -> Optional[str]:
        """The spec string this PATA's checker set is built from (it also
        keys the incremental cache), or ``None`` when the caller supplied
        live checker objects."""
        if self._checkers is not None:
            return None
        if self._spec is not None:
            return self._spec
        return "all" if getattr(self, "_use_all", False) else "default"

    def _resolve_checkers(self, collector: InformationCollector) -> List[Checker]:
        if self._checkers is not None:
            return self._checkers
        return configure_checkers(
            checkers_from_spec(self._checker_spec(), collector), self.config
        )
