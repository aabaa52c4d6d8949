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

from typing import Dict, Optional

from ..cfg import CallGraph
from ..ir import Function, Program
from .events import EventKind
from .scan import ScanContext, ScanResult, block_events


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
        #: per-function direct event masks
        self.direct: Dict[str, int] = {
            func.name: self._function_events(func) for func in program.functions()
        }
        #: per-function transitive event masks
        self.transitive: Dict[str, int] = self.callgraph.fold(self.direct)
        #: what an indirect call can reach: the pool's region (nothing
        #: with function-pointer resolution off)
        self.indirect_pool = 0
        if self.callgraph.resolve_function_pointers:
            for name in self.callgraph.pool:
                self.indirect_pool |= self.transitive[name]

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

    def _function_events(self, func: Function) -> int:
        """The kinds of ``func``'s own body, caching each block's scan
        (call edges are the call graph's)."""
        mask = 0
        for block in func.blocks:
            mask |= self.block_result(block).events_mask
        return mask

    # -- queries -------------------------------------------------------------

    # The masks are plain ints (the arming test and the dead-block walk
    # compute with them); the EventKind-typed methods are thin
    # conversion wrappers for external callers.

    def region_events_mask(self, name: str) -> int:
        """Every kind ``name`` can trigger directly or transitively."""
        return self.transitive.get(name, 0)

    def direct_events(self, name: str) -> EventKind:
        return EventKind(self.direct.get(name, 0))

    def region_events(self, name: str) -> EventKind:
        return EventKind(self.region_events_mask(name))
