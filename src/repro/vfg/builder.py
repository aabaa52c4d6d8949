"""Value-flow graph construction (the Saber/SVF regime, §8.1).

Nodes are variable definitions; edges follow direct def-use chains
(copies, loads/stores matched pairwise through Andersen points-to,
calls/returns).  Source-sink clients (:mod:`repro.vfg.reachability`,
the saber-like baseline) query which definitions a malloc'd value can
reach; the PATA engine itself builds no value-flow graph.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set

from ..ir import (
    Call,
    Free,
    Load,
    Malloc,
    Move,
    Program,
    Ret,
    Store,
    Var,
)
from ..pointsto import AndersenPointsTo


class ValueFlowGraph:
    """Name-level value-flow edges over a whole program.

    ``edges[name]`` is the set of names the value of ``name`` flows into.
    Memory flow (``*p = x; y = *q``) is connected when ``p`` and ``q``
    may alias per the points-to analysis — inheriting its D1 blindness
    for interface parameters, as the paper describes.
    """

    def __init__(self, program: Program, points_to: Optional[AndersenPointsTo] = None):
        self.program = program
        self.points_to = points_to if points_to is not None else AndersenPointsTo(program).solve()
        self.edges: Dict[str, Set[str]] = defaultdict(set)
        self.malloc_sites: List[Malloc] = []
        self.free_sites: List[Free] = []
        self._build()

    def _build(self) -> None:
        stores: List[Store] = []
        loads: List[Load] = []
        returns: Dict[str, Set[str]] = defaultdict(set)
        for func in self.program.functions():
            for block in func.blocks:
                for inst in block.instructions:
                    if isinstance(inst, Move) and isinstance(inst.src, Var):
                        self.edges[inst.src.name].add(inst.dst.name)
                    elif isinstance(inst, Store):
                        # const-src stores carry no value edge
                        if isinstance(inst.src, Var):
                            stores.append(inst)
                    elif isinstance(inst, Load):
                        loads.append(inst)
                    elif isinstance(inst, Malloc):
                        self.malloc_sites.append(inst)
                    elif isinstance(inst, Free):
                        self.free_sites.append(inst)
                    elif isinstance(inst, Call):
                        callee = self.program.lookup(inst.callee)
                        if callee is None:
                            continue
                        for param, arg in zip(callee.params, inst.args):
                            if isinstance(arg, Var):
                                self.edges[arg.name].add(param.name)
                        if inst.dst is not None:
                            returns[inst.callee].add(inst.dst.name)
                term = block.terminator
                if isinstance(term, Ret) and isinstance(term.value, Var):
                    for receiver in returns.get(func.name, ()):
                        self.edges[term.value.name].add(receiver)
        # Second pass for call sites seen before the callee's return.
        for func in self.program.functions():
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, Ret) and isinstance(term.value, Var):
                    for receiver in returns.get(func.name, ()):
                        self.edges[term.value.name].add(receiver)
        # Memory def-use through may-alias pointers: a store feeds each
        # load through the same pointer name or through a pointer whose
        # points-to set shares an object with the store's.
        loads_by_ptr: Dict[str, Set[str]] = defaultdict(set)
        for load in loads:
            loads_by_ptr[load.ptr.name].add(load.dst.name)
        loads_by_obj: Dict[object, Set[str]] = defaultdict(set)
        for ptr, dsts in loads_by_ptr.items():
            for obj in self.points_to.points_to(ptr):
                loads_by_obj[obj] |= dsts
        fed: Dict[str, Set[str]] = {}
        for store in stores:
            ptr = store.ptr.name
            targets = fed.get(ptr)
            if targets is None:
                targets = fed[ptr] = set(loads_by_ptr.get(ptr, ()))
                for obj in self.points_to.points_to(ptr):
                    targets |= loads_by_obj.get(obj, set())
            if targets:
                self.edges[store.src.name] |= targets

    def reachable_from(self, name: str, limit: int = 100_000) -> Set[str]:
        seen: Set[str] = {name}
        work = [name]
        while work and len(seen) < limit:
            current = work.pop()
            for succ in self.edges.get(current, ()):
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
        return seen

    def edge_count(self) -> int:
        return sum(len(v) for v in self.edges.values())
