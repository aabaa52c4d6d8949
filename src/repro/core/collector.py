"""Information collector — phase P1 of the PATA architecture (Fig. 10).

Scans every compiled module and records per-function facts in a database
used by the later phases:

* definition position & signature (for cross-file call resolution);
* interface registrations (→ analysis entry points, Fig. 1);
* whether a function may return a negative constant or zero on some path
  (precomputed for the underflow / div-zero checkers of §5.5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..cfg import CallGraph
from ..ir import Const, Function, Move, Program, Ret, Var


@dataclass
class FunctionInfo:
    name: str
    filename: str
    line: int
    is_static: bool
    is_interface: bool
    num_params: int
    num_blocks: int
    num_instructions: int
    may_return_negative: bool = False
    may_return_zero: bool = False


class InformationCollector:
    """Builds the function database over a whole program, afresh every
    run: the may-return closure settles in its first round on every
    corpus profile, so cached facts could not save a round.  Entry
    discovery and the xtaint border set read ``callgraph`` (the run's
    graph, or the program's own with function-pointer resolution off)."""

    def __init__(self, program: Program, callgraph: Optional[CallGraph] = None):
        self.program = program
        self.callgraph = callgraph if callgraph is not None else CallGraph(program)
        self.functions: Dict[str, FunctionInfo] = {}
        self._collect()
        self._close_return_facts()

    def _collect(self) -> None:
        for func in self.program.functions():
            neg, zero = _direct_return_constants(func)
            self.functions[func.name] = FunctionInfo(
                name=func.name,
                filename=func.filename,
                line=func.line,
                is_static=func.is_static,
                is_interface=func.is_interface,
                num_params=len(func.params),
                num_blocks=len(func.blocks),
                num_instructions=func.instruction_count(),
                may_return_negative=neg,
                may_return_zero=zero,
            )

    def _close_return_facts(self, max_rounds: Optional[int] = None) -> None:
        """Propagate may-return facts through direct tail-ish returns
        (``return helper(...)``) to a fixpoint.

        Each round moves facts one call level, so a fixed round count
        would silently under-approximate through chains deeper than it
        (the old ``rounds=3`` missed ``may_return_negative`` through a
        depth-5 chain).  Facts only flip False→True, so the fixpoint is
        reached after at most ``len(functions)`` productive rounds; the
        cap is a generous backstop, never the convergence mechanism.
        """
        if max_rounds is None:
            max_rounds = max(64, 2 * len(self.functions))
        for _ in range(max_rounds):
            changed = False
            for func in self.program.functions():
                info = self.functions[func.name]
                for block in func.blocks:
                    term = block.terminator
                    if not isinstance(term, Ret) or not isinstance(term.value, Var):
                        continue
                    # return of a call result: find the defining call in block
                    for inst in reversed(block.instructions):
                        if getattr(inst, "dst", None) == term.value and hasattr(inst, "callee"):
                            callee = self.functions.get(inst.callee)
                            if callee is None:
                                break
                            if callee.may_return_negative and not info.may_return_negative:
                                info.may_return_negative = True
                                changed = True
                            if callee.may_return_zero and not info.may_return_zero:
                                info.may_return_zero = True
                                changed = True
                            break
            if not changed:
                break

    # -- indirect-call resolution (§7 extension) -------------------------------

    def indirect_targets(self, struct_name: Optional[str], field: str) -> List[str]:
        """Candidate targets of an indirect call through ``field`` of
        ``struct_name`` — a type-based resolution in the spirit of
        multi-layer type analysis: functions registered to exactly that
        (struct, field) slot, falling back to same-field registrations
        when the struct type is unknown."""
        exact: List[str] = []
        by_field: List[str] = []
        for reg in self.program.registrations():
            if reg.field != field:
                continue
            by_field.append(reg.function)
            if struct_name is not None and reg.struct_type is not None and reg.struct_type.name == struct_name:
                exact.append(reg.function)
        chosen = exact if exact else (by_field if struct_name is None else exact)
        # Preserve registration order, drop duplicates.
        seen = set()
        out = []
        for name in chosen:
            if name not in seen:
                seen.add(name)
                out.append(name)
        return out

    # -- queries ------------------------------------------------------------

    def shared_heap_sites(self) -> frozenset:
        """Uids of malloc instructions whose objects escape their
        allocating function (per the Saber-style VFG escape analysis) —
        the heap objects the race detector treats as *shared*.  Computed
        lazily and cached: only the race checker asks, and the VFG walk
        is not free."""
        cached = getattr(self, "_shared_heap_sites", None)
        if cached is None:
            from ..vfg import escaping_malloc_sites

            cached = escaping_malloc_sites(self.program)
            self._shared_heap_sites = cached
        return cached

    def entry_functions(self) -> List[Function]:
        """PATA's analysis roots (AnalyzeCode, Fig. 6 line 1)."""
        return self.callgraph.entry_functions()

    def lookup(self, name: str) -> Optional[FunctionInfo]:
        return self.functions.get(name)

    def is_defined(self, name: str) -> bool:
        return name in self.functions

    def may_return_negative(self, name: str) -> bool:
        info = self.functions.get(name)
        return bool(info and info.may_return_negative)

    def may_return_zero(self, name: str) -> bool:
        info = self.functions.get(name)
        return bool(info and info.may_return_zero)

    def database_size(self) -> int:
        return len(self.functions)


def _direct_return_constants(func: Function) -> tuple:
    """(may_return_negative, may_return_zero) from Ret of constants and
    constant moves flowing straight into the returned variable."""
    neg = zero = False
    const_defs: Dict[str, int] = {}
    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, Move) and isinstance(inst.src, Const):
                const_defs[inst.dst.name] = inst.src.value
        term = block.terminator
        if isinstance(term, Ret) and term.value is not None:
            value = None
            if isinstance(term.value, Const):
                value = term.value.value
            elif isinstance(term.value, Var):
                value = const_defs.get(term.value.name)
            if value is not None:
                neg = neg or value < 0
                zero = zero or value == 0
    return neg, zero
