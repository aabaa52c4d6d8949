"""Per-function typestate-event summaries, folded over the call graph.

``EventSummaryIndex`` computes, for every defined function, the set of
event kinds the function can trigger *directly* (its own instructions,
:mod:`repro.presolve.scan`) and *transitively*: the union of the direct
sets over the function's :meth:`~repro.cfg.CallGraph.closure`, folded
once over the graph's condensation, children first.  The lattice is the
powerset of :class:`~repro.presolve.events.EventKind` ordered by
inclusion.

Call edges are the graph's:

* **direct calls** — an edge to the callee by name; calls to *unknown*
  functions (no definition in the program) have no body to summarize,
  and their havoc kinds are already part of the caller's direct set;
* **indirect calls** — when the engine is configured to resolve function
  pointers, any function in the registration pool may be invoked, so a
  function that reaches an indirect call site folds in the whole pool's
  region (the engine's per-site (struct, field) resolution can only
  pick a subset of those).  With resolution off the engine havocs the
  call, which the direct scan already covers.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional

from ..cfg import CallGraph
from ..ir import Function, Program
from .events import EventKind
from .scan import ScanContext, ScanResult, _as_kinds, block_events

_EMPTY_NAMES: FrozenSet[str] = frozenset()
_SHARED = EventKind.SHARED_ACCESS.value


class EventSummaryIndex:
    """Direct and transitive event summaries for one program, over
    ``callgraph`` (the program's own, resolution off, when omitted)."""

    def __init__(
        self,
        program: Program,
        scan_ctx: Optional[ScanContext] = None,
        callgraph: Optional[CallGraph] = None,
    ):
        self.program = program
        self.scan_ctx = scan_ctx or ScanContext()
        self.callgraph = callgraph if callgraph is not None else CallGraph(program)
        #: per-block direct scan results, keyed by block uid.  The P1.5
        #: dead-block walk re-reads the same per-block kinds the summary
        #: build already computed; sharing the ScanResult (it is never
        #: mutated after construction) avoids a second instruction scan
        #: over every analyzed entry.
        self.block_results: Dict[int, ScanResult] = {}
        #: per-function direct scan results (kinds + shared-access pointers)
        self.direct: Dict[str, ScanResult] = {
            func.name: self._function_events(func) for func in program.functions()
        }
        #: per-function transitive event masks, as plain int bit masks.
        #: NOTE: excludes the pointer-conditional SHARED_ACCESS bit;
        #: query methods fold it back from ``_trans_ptrs`` (see
        #: :meth:`region_events`).
        self.transitive: Dict[str, int] = self.callgraph.fold(
            {name: result.events_mask for name, result in self.direct.items()}
        )
        #: per-function transitive pointer names of Load/Store/MemSet
        #: accesses — the conditional SHARED_ACCESS contributors
        self._trans_ptrs: Dict[str, FrozenSet[str]] = self.callgraph.fold(
            {name: frozenset(result.shared_ptrs) for name, result in self.direct.items()}
        )
        #: what an indirect call can reach: the pool's region (nothing
        #: with function-pointer resolution off)
        self.indirect_pool = 0
        self.indirect_pool_ptrs = _EMPTY_NAMES
        if self.callgraph.resolve_function_pointers:
            for name in self.callgraph.pool:
                self.indirect_pool |= self.transitive[name]
                self.indirect_pool_ptrs |= self._trans_ptrs[name]

    # -- construction --------------------------------------------------------

    def block_result(self, block) -> ScanResult:
        """The cached direct scan of one block (computing and caching it
        on first sight — entries outside the program walk, e.g. direct
        ``analyze(entries=...)`` calls, still resolve)."""
        result = self.block_results.get(block.uid)
        if result is None:
            result = block_events(block, self.scan_ctx)
            self.block_results[block.uid] = result
        return result

    def _function_events(self, func: Function) -> ScanResult:
        """The kinds and shared-access pointers of ``func``'s own body,
        caching each block's scan (call edges are the call graph's)."""
        result = ScanResult()
        for block in func.blocks:
            block_result = self.block_result(block)
            result.events_mask |= block_result.events_mask
            result.shared_ptrs.extend(block_result.shared_ptrs)
        result.events = _as_kinds(result.events_mask)
        return result

    # -- queries -------------------------------------------------------------

    @staticmethod
    def _restore_shared(
        mask: int,
        ptrs: FrozenSet[str],
        reaches_shared: Optional[Callable[[str], bool]],
    ) -> int:
        """Fold the pointer-conditional SHARED_ACCESS bit back into a
        mask.  Without a predicate every pointer access counts (the old
        unconditional semantics); with one — the P1.7 closure-local
        sharpening — only accesses whose pointer may reach a shared root
        do."""
        if ptrs and (
            reaches_shared is None or any(reaches_shared(p) for p in ptrs)
        ):
            mask |= _SHARED
        return mask

    # The ``*_mask`` variants are the computation; the EventKind-typed
    # methods are thin conversion wrappers for external callers.

    def direct_events_mask(self, name: str, reaches_shared=None) -> int:
        result = self.direct.get(name)
        if result is None:
            return 0
        return self._restore_shared(
            result.events_mask, frozenset(result.shared_ptrs), reaches_shared
        )

    def direct_events(self, name: str, reaches_shared=None) -> EventKind:
        return _as_kinds(self.direct_events_mask(name, reaches_shared))

    def region_events_mask(self, name: str, reaches_shared=None) -> int:
        """Every kind ``name`` can trigger directly or transitively."""
        return self._restore_shared(
            self.transitive.get(name, 0),
            self._trans_ptrs.get(name, _EMPTY_NAMES),
            reaches_shared,
        )

    def region_events(self, name: str, reaches_shared=None) -> EventKind:
        return _as_kinds(self.region_events_mask(name, reaches_shared))

    def pool_events_mask(self, reaches_shared=None) -> int:
        """Kinds an indirect call can trigger through the registration
        pool (0 with function-pointer resolution off)."""
        return self._restore_shared(
            self.indirect_pool, self.indirect_pool_ptrs, reaches_shared
        )
