"""Per-instruction alias-graph transfer function and a standalone
path-based alias analysis (Fig. 6) usable without the bug-detection engine.

The transfer function :func:`apply_instruction` implements the dispatch of
HandleINST (Fig. 6, lines 22-29); the PATA engine invokes it and then feeds
typestate events.  :class:`PathAliasAnalysis` is a thin driver exposing
"which variables alias on this path" for library users (Discussion §7
suggests reusing the alias analysis for other clients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..ir import (
    AddrOf,
    Alloc,
    BinOp,
    DeclLocal,
    Function,
    Gep,
    Instruction,
    Load,
    Malloc,
    Move,
    Program,
    Store,
    UnOp,
    Var,
)
from .graph import AliasGraph, AliasNode


def apply_instruction(graph: AliasGraph, inst: Instruction) -> Optional[AliasNode]:
    """Update ``graph`` for one instruction; return the node that now
    represents the instruction's primary result (None when the instruction
    has no alias effect).

    CALL instructions are *not* handled here: parameter passing is a
    sequence of MOVEs performed by the inter-procedural engine
    (HandleCALL, Fig. 6 lines 12-21).
    """
    if isinstance(inst, Move):
        if isinstance(inst.src, Var):
            return graph.handle_move(inst.dst, inst.src)
        return graph.detach(inst.dst)  # constant assignment: strong update
    if isinstance(inst, Load):
        return graph.handle_load(inst.dst, inst.ptr)
    if isinstance(inst, Store):
        if isinstance(inst.src, Var):
            return graph.handle_store(inst.ptr, inst.src)
        return graph.handle_store_fresh(inst.ptr)
    if isinstance(inst, Gep):
        return graph.handle_gep(inst.dst, inst.base, inst.field)
    if isinstance(inst, AddrOf):
        return graph.handle_addr_of(inst.dst, inst.var)
    if isinstance(inst, (Malloc, Alloc)):
        return graph.handle_fresh_object(inst.dst)
    if isinstance(inst, (BinOp, UnOp)):
        return graph.detach(inst.dst)
    if isinstance(inst, DeclLocal):
        return graph.detach(inst.var)
    # Call/CallIndirect (engine's job), Free/MemSet/LockOp: no alias effect.
    return None


@dataclass
class PathAliasResult:
    """Alias classes observed at the end of one explored path."""

    path_id: int
    alias_sets: List[FrozenSet[str]] = field(default_factory=list)

    def aliases_of(self, name: str) -> FrozenSet[str]:
        for alias_set in self.alias_sets:
            if name in alias_set:
                return alias_set
        return frozenset((name,))


class PathAliasAnalysis:
    """Standalone path-based alias analysis over one entry function.

    Explores control-flow paths depth-first (loops and recursion unrolled
    once, as in the paper), maintaining one alias graph per path via the
    undo trail.  Calls are inlined with MOVE parameter passing.
    """

    def __init__(
        self,
        program: Program,
        max_paths: int = 2048,
        max_call_depth: int = 24,
        max_steps_per_path: int = 20000,
    ):
        self.program = program
        self.max_paths = max_paths
        self.max_call_depth = max_call_depth
        self.max_steps_per_path = max_steps_per_path

    def analyze(self, entry: Function, observer: Optional[Callable] = None) -> List[PathAliasResult]:
        """Run the analysis from ``entry``; returns one result per complete
        path.  ``observer(inst, graph)`` is invoked after each instruction
        when provided (this is the TypestateTrack hook of Fig. 6)."""
        from ..core.analyzer import PathExplorer  # local import: layering
        from ..core.config import AnalysisConfig

        results: List[PathAliasResult] = []

        def on_path_end(explorer: "PathExplorer") -> None:
            sets = [
                frozenset(node.vars)
                for node in explorer.graph.nodes()
                if len(node.vars) > 1
            ]
            results.append(PathAliasResult(len(results), sets))

        config = AnalysisConfig(
            max_paths_per_entry=self.max_paths,
            max_call_depth=self.max_call_depth,
            max_steps_per_entry=self.max_steps_per_path,
        )
        explorer = PathExplorer(
            self.program,
            config,
            instruction_observer=observer,
            path_end_observer=on_path_end,
        )
        explorer.explore(entry)
        return results

    def must_alias_on_some_path(self, entry: Function, a: str, b: str) -> bool:
        """True when ``a`` and ``b`` share an alias class on at least one
        explored path — the paper's notion of path-based aliasing."""
        for result in self.analyze(entry):
            if b in result.aliases_of(a):
                return True
        return False
