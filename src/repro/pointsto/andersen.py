"""Andersen-style inclusion-based points-to analysis.

This is the substrate the compared tools build on (§6): CSA/Infer/Saber/
SVF identify aliases through points-to sets.  Two properties matter for
reproducing the paper's comparison:

* **D1 failure** — parameters of module-interface functions have no
  caller, hence *empty* points-to sets; aliases through them are missed
  (Fig. 1).  This falls out naturally: no allocation site ever flows in.
* **Memory behaviour** — points-to sets grow superlinearly on large
  programs.  ``max_pts_entries`` models the OOM the paper observed for
  Saber/SVF on the Linux kernel; exceeding it raises
  :class:`MemoryBudgetExceeded`.

Field-sensitive (per ``(object, field)``), flow- and context-insensitive.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from ..errors import AnalysisError
from ..ir import (
    AddrOf,
    Alloc,
    Call,
    Const,
    Function,
    Gep,
    Load,
    Malloc,
    Move,
    Program,
    Ret,
    Store,
    Var,
)

# Node keys: variable name (str).  Object keys: ("o", alloc uid),
# ("g", global name), ("f", base object, field).
Obj = Tuple
Node = str


class MemoryBudgetExceeded(AnalysisError):
    """The points-to solver exceeded its configured memory budget —
    models the OOM aborts of Saber/SVF on the Linux kernel (§6)."""


class AndersenPointsTo:
    """Inclusion-based points-to solver; see the module docstring for the modeled failure modes."""

    def __init__(self, program: Program, max_pts_entries: Optional[int] = None):
        self.program = program
        self.max_pts_entries = max_pts_entries
        self.pts: Dict[Node, Set[Obj]] = defaultdict(set)
        self.contents: Dict[Obj, Set[Obj]] = defaultdict(set)
        self._copy_edges: Dict[Node, Set[Node]] = defaultdict(set)
        self._loads: List[Tuple[Node, Node]] = []   # dst <= *ptr
        self._stores: List[Tuple[Node, Node]] = []  # *ptr <= src
        self._geps: List[Tuple[Node, Node, str]] = []
        self._returns: Dict[str, Set[Node]] = defaultdict(set)
        self._entries = 0
        self.solved = False

    # -- constraint generation ----------------------------------------------------

    def _gen_function(self, func: Function) -> None:
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, (Malloc, Alloc)):
                    self._add_pts(inst.dst.name, ("o", inst.uid))
                elif isinstance(inst, AddrOf):
                    self._add_pts(inst.dst.name, ("g", inst.var.name))
                elif isinstance(inst, Move) and isinstance(inst.src, Var):
                    self._copy_edges[inst.src.name].add(inst.dst.name)
                elif isinstance(inst, Load):
                    self._loads.append((inst.dst.name, inst.ptr.name))
                elif isinstance(inst, Store) and isinstance(inst.src, Var):
                    self._stores.append((inst.ptr.name, inst.src.name))
                elif isinstance(inst, Gep):
                    self._geps.append((inst.dst.name, inst.base.name, inst.field))
                elif isinstance(inst, Call):
                    callee = self.program.lookup(inst.callee)
                    if callee is None:
                        continue
                    for param, arg in zip(callee.params, inst.args):
                        if isinstance(arg, Var):
                            self._copy_edges[arg.name].add(param.name)
                    if inst.dst is not None:
                        self._returns[inst.callee].add(inst.dst.name)
            term = block.terminator
            if isinstance(term, Ret) and isinstance(term.value, Var):
                for receiver in self._returns.get(func.name, ()):
                    self._copy_edges[term.value.name].add(receiver)

    def _add_pts(self, node: Node, obj: Obj) -> bool:
        if obj in self.pts[node]:
            return False
        self.pts[node].add(obj)
        self._bump()
        return True

    def _add_contents(self, obj: Obj, value: Obj) -> bool:
        if value in self.contents[obj]:
            return False
        self.contents[obj].add(value)
        self._bump()
        return True

    def _bump(self) -> None:
        self._entries += 1
        if self.max_pts_entries is not None and self._entries > self.max_pts_entries:
            raise MemoryBudgetExceeded(
                f"points-to solver exceeded {self.max_pts_entries} set entries"
            )

    # -- solving ------------------------------------------------------------------

    def solve(self) -> "AndersenPointsTo":
        # Two passes of generation so return-value edges see all call sites.
        for func in self.program.functions():
            self._gen_function(func)
        for func in self.program.functions():
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, Ret) and isinstance(term.value, Var):
                    for receiver in self._returns.get(func.name, ()):
                        self._copy_edges[term.value.name].add(receiver)

        # Each complex constraint is indexed by the node whose points-to
        # set it reads, so a worklist node visits only its own.
        loads_by_ptr: Dict[Node, List[Node]] = defaultdict(list)
        for dst, ptr in self._loads:
            loads_by_ptr[ptr].append(dst)
        stores_by_ptr: Dict[Node, List[Node]] = defaultdict(list)
        stores_by_src: Dict[Node, List[Node]] = defaultdict(list)
        for ptr, src in self._stores:
            stores_by_ptr[ptr].append(src)
            stores_by_src[src].append(ptr)
        geps_by_base: Dict[Node, List[Tuple[Node, str]]] = defaultdict(list)
        for dst, base, fieldname in self._geps:
            geps_by_base[base].append((dst, fieldname))
        # object -> the load pointers seen pointing to it.  Every node
        # whose set grows is queued, and a queued load pointer is
        # registered here when it is visited, so a pointer missing from
        # this map is one still waiting in the queue.
        loaders: Dict[Obj, Set[Node]] = defaultdict(set)

        work: deque = deque(self.pts.keys())
        in_work: Set[Node] = set(work)

        def enqueue(node: Node) -> None:
            if node not in in_work:
                work.append(node)
                in_work.add(node)

        def store(ptr: Node, src: Node) -> None:
            for obj in list(self.pts.get(ptr, ())):
                for value in list(self.pts.get(src, ())):
                    if self._add_contents(obj, value):
                        # Loads from obj must be reconsidered.
                        for loader in loaders.get(obj, ()):
                            enqueue(loader)

        max_rounds = 0
        while work:
            max_rounds += 1
            if max_rounds > 2_000_000:
                break  # safety valve
            node = work.popleft()
            in_work.discard(node)
            node_pts = self.pts[node]
            for succ in list(self._copy_edges.get(node, ())):
                changed = False
                for obj in list(node_pts):
                    changed |= self._add_pts(succ, obj)
                if changed:
                    enqueue(succ)
            load_dsts = loads_by_ptr.get(node)
            if load_dsts:
                for obj in node_pts:
                    loaders[obj].add(node)
                for dst in load_dsts:
                    changed = False
                    for obj in list(node_pts):
                        for value in list(self.contents.get(obj, ())):
                            changed |= self._add_pts(dst, value)
                    if changed:
                        enqueue(dst)
            for src in stores_by_ptr.get(node, ()):
                store(node, src)
            for ptr in stores_by_src.get(node, ()):
                store(ptr, node)
            for dst, fieldname in geps_by_base.get(node, ()):
                changed = False
                for obj in list(node_pts):
                    changed |= self._add_pts(dst, ("f", obj, fieldname))
                if changed:
                    enqueue(dst)
        self.solved = True
        return self

    # -- queries -------------------------------------------------------------------

    def points_to(self, var_name: str) -> FrozenSet[Obj]:
        return frozenset(self.pts.get(var_name, ()))

    def may_alias(self, a: str, b: str) -> bool:
        """The classical points-to aliasing test: sets intersect.  Empty
        sets (interface params!) alias nothing — the D1 miss."""
        if a == b:
            return True
        return bool(self.pts.get(a, set()) & self.pts.get(b, set()))
