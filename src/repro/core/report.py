"""Bug reports and human-readable rendering (PATA's final output)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..typestate import BugKind, PossibleBug


@dataclass
class BugReport:
    """A validated (stage-2 surviving) bug."""

    kind: BugKind
    checker: str
    subject: str
    message: str
    source_file: str
    source_line: int
    sink_file: str
    sink_line: int
    entry_function: str
    alias_set: Tuple[str, ...] = ()

    @classmethod
    def from_possible(cls, bug: PossibleBug) -> "BugReport":
        return cls(
            kind=bug.kind,
            checker=bug.checker,
            subject=bug.subject,
            message=bug.message,
            source_file=bug.source.loc.filename,
            source_line=bug.source.loc.line,
            sink_file=bug.sink.loc.filename,
            sink_line=bug.sink.loc.line,
            entry_function=bug.entry_function,
            alias_set=bug.alias_set,
        )

    @property
    def location(self) -> str:
        return f"{self.sink_file}:{self.sink_line}"

    def to_dict(self) -> dict:
        """The JSON shape of this report, as ``check --json`` prints it
        and the daemon answers it."""
        return {
            "kind": self.kind.short,
            "checker": self.checker,
            "file": self.sink_file,
            "line": self.sink_line,
            "source_file": self.source_file,
            "source_line": self.source_line,
            "message": self.message,
            "entry_function": self.entry_function,
        }

    def render(self) -> str:
        lines = [
            f"{self.kind.value.upper()} [{self.checker}] at {self.sink_file}:{self.sink_line}",
            f"  {self.message}",
            f"  state established: {self.source_file}:{self.source_line}",
            f"  entry function:    {self.entry_function}",
        ]
        if self.alias_set:
            lines.append(f"  alias set:         {{{', '.join(self.alias_set)}}}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class EntryStats:
    """Per-entry-function exploration record (the paper's Table 5 timing,
    disaggregated): one row per analysis root, in entry-list order.

    ``wall_seconds`` is measured in whichever process explored the entry;
    everything else is a deterministic function of the program and
    config, so two runs (or a sequential and a parallel run) agree on
    every field but the timing.
    """

    name: str
    paths: int = 0
    steps: int = 0
    wall_seconds: float = 0.0
    budget_exhausted: bool = False
    #: paths cut short on entering a checker-irrelevant CFG region (P1.5)
    paths_pruned: int = 0
    #: blocks of this entry marked irrelevant by the backward CFG pass
    blocks_pruned: int = 0
    #: True when the P1.5 entry pruning skipped this entry outright
    skipped: bool = False
    #: True when this entry's outcome was loaded from the incremental
    #: cache rather than explored (wall_seconds is 0 by definition then)
    cached: bool = False


@dataclass
class AnalysisStats:
    """Counters matching the rows of Table 5."""

    analyzed_files: int = 0
    analyzed_lines: int = 0
    entry_functions: int = 0
    explored_paths: int = 0
    executed_steps: int = 0
    typestates_aware: int = 0
    typestates_unaware: int = 0
    smt_constraints_aware: int = 0
    smt_constraints_unaware: int = 0
    dropped_repeated_bugs: int = 0
    dropped_false_bugs: int = 0
    validated_paths: int = 0
    #: validated bugs whose P3 verdict came with a cached entry outcome
    #: (translated and solved by the run that explored the entry)
    verdicts_cached: int = 0
    #: solver calls P3 made: validations neither cached nor answered by
    #: the run's verdict memo (one per distinct constraint system)
    smt_solves: int = 0
    budget_exhausted_entries: int = 0
    #: P1.5 relevance pruning: entries skipped outright, CFG blocks
    #: marked irrelevant across analyzed entries, and paths cut short
    entries_skipped: int = 0
    blocks_pruned: int = 0
    paths_pruned: int = 0
    time_seconds: float = 0.0
    #: per-phase wall-clock breakdown of ``time_seconds``: P1 collector
    #: (call graph, function database, cache keys and checker
    #: construction, which for race and xtaint includes the shared-heap
    #: analysis), P1.5 relevance pre-analysis (incl. the cache plan), P2 entry
    #: exploration (the parallelizable phase), P2.5 race matching, and
    #: P3 validation.  These are the honest denominators for any speedup
    #: claim — only ``time_explore_seconds`` scales with workers
    time_collect_seconds: float = 0.0
    time_presolve_seconds: float = 0.0
    time_explore_seconds: float = 0.0
    time_match_seconds: float = 0.0
    time_filter_seconds: float = 0.0
    #: P1.7 tiered alias analysis (zero with ``--alias-tier off``):
    #: SSA values proven singleton — never aliased, so tracked without
    #: per-path graph nodes — the partition's may-alias cell count, and
    #: the unification pass's wall clock (every run pays it, cache or
    #: not)
    singletons_proven: int = 0
    alias_cells: int = 0
    time_unify_seconds: float = 0.0
    #: P1.8 per-entry skip sets (zero below ``--alias-tier flow``): the
    #: occurrence walk's wall clock (every run pays it, cache or not)
    time_flow_seconds: float = 0.0
    #: worker processes that performed P2 (1 = in-process sequential)
    workers_used: int = 1
    #: entry batches dispatched to the worker pool (0 = in-process run);
    #: batches, not shards, are the streaming executor's stealing unit
    batches_dispatched: int = 0
    #: P2.5 race matching: distinct shared-state accesses recorded by
    #: the race checker, and disjoint-lockset pairs sent to stage 2
    shared_accesses: int = 0
    race_pairs_matched: int = 0
    #: P2.6 cross-module taint (zero unless the ``xtaint`` checker is in
    #: the spec): distinct export/import/relay half-flows recorded,
    #: cross-module pairs sent to stage 2, and the phase wall clock
    taint_flows_recorded: int = 0
    xtaint_pairs_matched: int = 0
    time_xmatch_seconds: float = 0.0
    #: incremental cache (zero unless ``--cache`` is active): object
    #: store hits/misses across all layers, objects (or whole packs)
    #: that failed a check, entries served from cache, entries this run
    #: explored
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0
    entries_cached: int = 0
    entries_reanalyzed: int = 0
    #: analysis-as-a-service counters (zero for one-shot CLI runs): time
    #: this request waited in the daemon's FIFO queue before a scheduler
    #: slot, requests the owning session has served so far (including
    #: this one), and objects resident in the session's in-memory store
    #: across all cache layers
    queue_wait_seconds: float = 0.0
    requests_served: int = 0
    resident_cache_entries: int = 0
    #: this request was answered from the session's replay memo (the
    #: same names, bytes, config, and checkers were analyzed before)
    request_replayed: bool = False
    #: one record per analyzed entry function, in entry-list order
    per_entry: List[EntryStats] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready view of every counter plus the per-entry rows
        (CLI ``--stats-json``).  Scalars only — safe to ``json.dump``."""
        scalars = {
            name: value
            for name, value in vars(self).items()
            if isinstance(value, (int, float, bool))
        }
        scalars["per_entry"] = [dict(vars(e)) for e in self.per_entry]
        return scalars

    def render_entry_table(self) -> str:
        """ASCII table of the per-entry records (CLI ``--stats``)."""

        def status(e: EntryStats) -> str:
            if e.skipped:
                return "skipped"
            if e.cached:
                return "cached"
            return "exhausted" if e.budget_exhausted else "ok"

        headers = ["entry", "paths", "steps", "pruned", "seconds", "budget"]
        rows = [
            [e.name, str(e.paths), str(e.steps), str(e.paths_pruned),
             f"{e.wall_seconds:.3f}", status(e)]
            for e in self.per_entry
        ]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for row in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)


@dataclass
class AnalysisResult:
    """What :class:`repro.core.pata.PATA` returns."""

    reports: List[BugReport] = field(default_factory=list)
    stats: AnalysisStats = field(default_factory=AnalysisStats)

    def by_kind(self, kind: BugKind) -> List[BugReport]:
        return [r for r in self.reports if r.kind is kind]

    def kind_counts(self) -> dict:
        counts: dict = {}
        for report in self.reports:
            counts[report.kind] = counts.get(report.kind, 0) + 1
        return counts

    def grouped_by_source(self) -> dict:
        """Reports grouped by the state-establishing (source) location.

        The paper notes (§5.1) that checking 797 reports took only 12
        hours because "some reported bugs have similar root causes ...
        and can be checked together" — reports sharing one source site
        are one root cause with several sinks (e.g. Fig. 12(a)'s four
        dereferences of one unchecked field)."""
        groups: dict = {}
        for report in self.reports:
            key = (report.source_file, report.source_line, report.checker)
            groups.setdefault(key, []).append(report)
        return groups

    def summary(self) -> str:
        counts = self.kind_counts()
        parts = [f"{len(self.reports)} bugs"]
        for kind, count in sorted(counts.items(), key=lambda kv: kv[0].name):
            parts.append(f"{kind.short}={count}")
        parts.append(f"paths={self.stats.explored_paths}")
        parts.append(f"dropped_false={self.stats.dropped_false_bugs}")
        parts.append(f"dropped_repeated={self.stats.dropped_repeated_bugs}")
        return ", ".join(parts)
