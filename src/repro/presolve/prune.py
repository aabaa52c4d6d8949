"""The two sound pruning layers built on the P1.5 event summaries.

**Entry pruning.**  A checker can report inside an entry's exploration
only if (a) some *trigger* kind — an event that can establish reportable
state — occurs somewhere in the entry's transitive region, and (b) some
*sink* kind — an event at which the checker invokes ``report`` — occurs
there too.  Both conditions are one mask intersection against the
entry's region summary.  An entry where no enabled checker passes both
is skipped outright: its exploration dispatches no event any checker
could react to with a report, so skipping it preserves the report set
exactly.

**Block pruning.**  Within an analyzed entry, a path that enters a basic
block from which no *armed* checker's sink is reachable (through the
entry function's CFG, counting events of inlined callee regions at their
call sites, and ``Ret`` terminators as the memory-leak sweep's sink)
cannot produce any further report: reports only fire at sink events, and
none lies ahead.  The explorer abandons such a path.  State the pruned
suffix would have established or cleared is irrelevant — it could only
have influenced later sink events, of which there are none — and the
surviving prefix dispatched exactly the events it always did, so
report-order and dedup behaviour are byte-identical to the unpruned run.

A checker that does not declare its event kinds (``trigger_events`` or
``sink_events`` left empty, e.g. a user-supplied custom checker) makes
both layers shut off: the pre-analysis cannot reason about what such a
checker reacts to, so it conservatively deems everything relevant.

The masks are a pure function of the program, the checkers and the
call graph: no alias tier changes them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cfg import CallGraph
from ..ir import Function, Program
from .events import EventKind
from .scan import ScanContext
from .summary import EventSummaryIndex

_EMPTY: FrozenSet[int] = frozenset()


class RelevancePreAnalysis:
    """Checker-relevance pre-analysis over one program (phase P1.5).

    ``checkers`` are the live checker objects the explorer will run;
    their declarative ``trigger_events``/``sink_events`` masks drive both
    pruning layers.  ``scan_ctx`` carries the collector's may-return
    facts (see :class:`~repro.presolve.scan.ScanContext`), and
    ``callgraph`` the run's call graph (the program's own, resolution
    off, when omitted).
    """

    def __init__(
        self,
        program: Program,
        checkers: Sequence,
        scan_ctx: Optional[ScanContext] = None,
        callgraph: Optional[CallGraph] = None,
    ):
        self.checkers = list(checkers)
        self.index = EventSummaryIndex(program, scan_ctx=scan_ctx, callgraph=callgraph)
        #: pruning is sound only when every enabled checker declares its
        #: trigger and sink kinds; one undeclared checker disables both layers
        self.supported = bool(self.checkers) and all(
            getattr(c, "trigger_events", EventKind.NONE) != EventKind.NONE
            and getattr(c, "sink_events", EventKind.NONE) != EventKind.NONE
            for c in self.checkers
        )
        #: per-checker (checker, trigger, sink) with the masks as plain
        #: ints — the arming test runs per entry per checker and enum
        #: bit-ops are slow
        self._checker_masks = [
            (
                c,
                int(getattr(c, "trigger_events", EventKind.NONE)),
                int(getattr(c, "sink_events", EventKind.NONE)),
            )
            for c in self.checkers
        ]
        self._dead_blocks: Dict[str, FrozenSet[int]] = {}
        self._armed: Dict[str, List] = {}
        self._armed_names: Dict[str, FrozenSet[str]] = {}

    # -- entry pruning -------------------------------------------------------

    def armed_checkers(self, entry: Function) -> List:
        """Enabled checkers whose trigger *and* sink kinds both occur in
        ``entry``'s transitive region.  Memoized per entry — the explorer
        asks once per entry, the block walk once per block batch."""
        cached = self._armed.get(entry.name)
        if cached is not None:
            return cached
        region = self.index.region_events_mask(entry.name)
        armed = [
            c
            for c, trigger, sink in self._checker_masks
            if (region & trigger) and (region & sink)
        ]
        self._armed[entry.name] = armed
        return armed

    def armed_names(self, entry: Function) -> Optional[FrozenSet[str]]:
        """Names of the armed checkers, for the explorer's per-entry
        dispatch restriction — or None when pruning is unsupported (an
        undeclared checker means nothing can be soundly filtered)."""
        if not self.supported:
            return None
        names = self._armed_names.get(entry.name)
        if names is None:
            names = frozenset(c.name for c in self.armed_checkers(entry))
            self._armed_names[entry.name] = names
        return names

    def is_entry_relevant(self, entry: Function) -> bool:
        if not self.supported:
            return True
        return bool(self.armed_checkers(entry))

    def partition_entries(
        self, entries: Sequence[Function]
    ) -> Tuple[List[Function], List[str]]:
        """Split the entry list into (kept, skipped-names), preserving order."""
        if not self.supported:
            return list(entries), []
        kept: List[Function] = []
        skipped: List[str] = []
        for entry in entries:
            if self.is_entry_relevant(entry):
                kept.append(entry)
            else:
                skipped.append(entry.name)
        return kept, skipped

    # -- block pruning -------------------------------------------------------

    def _armed_sink_mask(self, entry: Function) -> int:
        mask = 0
        for checker in self.armed_checkers(entry):
            mask |= int(checker.sink_events)
        return mask

    def dead_blocks(self, entry: Function) -> FrozenSet[int]:
        """Uids of ``entry``'s blocks from which no armed sink is
        reachable — entering one ends the path without loss of reports.
        Cached per function name (summaries are program-wide facts)."""
        if not self.supported:
            return _EMPTY
        cached = self._dead_blocks.get(entry.name)
        if cached is not None:
            return cached
        dead = self._compute_dead_blocks(entry)
        self._dead_blocks[entry.name] = dead
        return dead

    def _compute_dead_blocks(self, entry: Function) -> FrozenSet[int]:
        sinks = self._armed_sink_mask(entry)
        if sinks == 0:
            # Entry pruning already skips these; if explored anyway
            # (escape hatch, direct calls), every block is prunable —
            # but keep the walk intact rather than contradict the caller.
            return _EMPTY
        blocks = entry.blocks
        generates: Dict[int, int] = {}
        index = self.index
        for block in blocks:
            result = index.block_result(block)
            mask = result.events_mask
            for callee in result.callees:
                mask |= index.region_events_mask(callee)
            if result.has_indirect_call:
                mask |= index.indirect_pool
            generates[block.uid] = mask

        # Backward reachability of sink-generating blocks: iterate to a
        # fixpoint (CFGs are small; reverse block order converges fast).
        live: Dict[int, bool] = {
            block.uid: bool(generates[block.uid] & sinks) for block in blocks
        }
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                if live[block.uid]:
                    continue
                if any(live.get(succ.uid, False) for succ in block.successors()):
                    live[block.uid] = True
                    changed = True
        return frozenset(block.uid for block in blocks if not live[block.uid])
