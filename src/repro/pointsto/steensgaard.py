"""Whole-program unification-based (Steensgaard-style) points-to pass.

This is the *cheap tier* of the tiered alias analysis.  One near-linear
union-find pass over the whole IR computes a :class:`MayAliasPartition`
before any path is explored (phase P1.7).  The per-path alias graphs of
§3.1 remain the precision tier; the pass only licenses *skipping* work
whose outcome it can predict.  It has one consumer: a variable whose
cell provably contains no other variable, carries no edges, and is never
pointed to can never share a per-path alias node with anything — P2's
per-path graphs skip node creation/updates for it entirely (the
singleton fast path, ``AliasGraph.skip_names``; P1.8 widens the set per
entry).  The skip changes no work counter, so no entry outcome depends
on the tier.

P3 does not read it: it replays every trace on a fresh, unskipped alias
graph (:mod:`repro.smt.translate`).

Soundness is by construction: every per-path operation that can ever put
two variables in one alias node (MOVE / LOAD / GEP join, parameter
passing, return values, indirect-call inlining) has a corresponding
unification here, and every operation that can hang an edge off a node
or let a checker materialize one (stores, address-of, external-call
pointer arguments, lock identities, heap registrations) disqualifies the
involved cells from the fast path.  When unification cannot prove
singleton, behavior is exactly the untiered engine's.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..cfg import CallGraph
from ..ir import (
    AddrOf,
    Alloc,
    BinOp,
    Call,
    CallIndirect,
    DeclLocal,
    Free,
    Function,
    Gep,
    Load,
    LockOp,
    Malloc,
    MemSet,
    Move,
    PointerType,
    Program,
    Ret,
    Store,
    UnOp,
    Var,
)

DEREF = "*"

#: cell flags — any one of them disqualifies the singleton fast path
GLOBAL = 1       # cell names a global (``@``-prefixed)
POINTED_TO = 2   # some edge targets this cell (loads can join vars into it)
HEAP_DST = 4     # malloc/alloca destination (race heap registration keys
                 # the pointer's node; the node must exist)
LOCK_ID = 8      # used as a lock operand (lock identity resolves the node)


class UnionFind:
    """Plain array-based union-find with path halving and union by size.

    The Steensgaard solver builds on this; it is exposed separately so
    the property suite can exercise the algebraic laws (idempotence,
    commutativity, find-after-union congruence) in isolation.
    """

    def __init__(self) -> None:
        self._parent: List[int] = []
        self._size: List[int] = []

    def make(self) -> int:
        parent = self._parent
        elem = len(parent)
        parent.append(elem)
        self._size.append(1)
        return elem

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        """Merge the cells of ``a`` and ``b``; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


class MayAliasPartition:
    """The solved whole-program partition, as P2 and the stats read it:
    plain data, built once per run in the parent and inherited by forked
    workers."""

    __slots__ = ("singletons", "cell_count")

    def __init__(self, singletons: FrozenSet[str], cell_count: int):
        #: names alone in a cell with no flags and no edges (the
        #: per-path graphs' fast path)
        self.singletons = singletons
        #: number of distinct cells (the ``alias_cells`` stat)
        self.cell_count = cell_count


class SteensgaardPointsTo:
    """Unification-based points-to solver over a whole program (the P1.7
    partition).  ``callgraph`` is the run's call graph (the program's own
    when omitted).  Calls bind the definition :meth:`Program.lookup`
    resolves, as the explorer does.
    """

    def __init__(
        self,
        program: Program,
        callgraph: Optional[CallGraph] = None,
    ):
        self.program = program
        #: the run's call graph; its registration pool is every
        #: indirect call's target set (the engine resolves by (struct,
        #: field); over-unifying is the safe direction), whether or not
        #: the run resolves function pointers
        self.callgraph = callgraph if callgraph is not None else CallGraph(program)
        self._uf = UnionFind()
        self._ids: Dict[str, int] = {}               # var name -> uf element
        self._out: Dict[int, Dict[str, int]] = {}    # root -> label -> element
        self._flags: Dict[int, int] = {}             # root -> flag bits
        self._ret_cells: Dict[str, int] = {}         # function name -> element
        self._name_order: List[str] = []             # first-seen walk order
        self.solved = False

    # -- cell helpers -----------------------------------------------------------

    def _id_of(self, name: str) -> int:
        elem = self._ids.get(name)
        if elem is None:
            # inlined UnionFind.make — this is the single hottest call
            # of the whole pass (once per operand occurrence)
            uf = self._uf
            parent = uf._parent
            elem = len(parent)
            parent.append(elem)
            uf._size.append(1)
            self._ids[name] = elem
            self._name_order.append(name)
            if name.startswith("@"):
                self._flags[elem] = GLOBAL
        return elem

    def _var(self, value) -> Optional[int]:
        return self._id_of(value.name) if isinstance(value, Var) else None

    def _flag(self, elem: int, bits: int) -> None:
        root = self._uf.find(elem)
        self._flags[root] = self._flags.get(root, 0) | bits

    def _ret_cell(self, func_name: str) -> int:
        cell = self._ret_cells.get(func_name)
        if cell is None:
            cell = self._uf.make()
            self._ret_cells[func_name] = cell
        return cell

    def _unify(self, a: int, b: int) -> int:
        """Steensgaard's conditional unification: merging two cells also
        merges their out-edges label by label (worklist, not recursion —
        pointer chains can be long)."""
        uf = self._uf
        find = uf.find
        parent = uf._parent
        size = uf._size
        out_map = self._out
        flags_map = self._flags
        work: Optional[List[Tuple[int, int]]] = None
        x, y = a, b
        while True:
            rx, ry = find(x), find(y)
            if rx != ry:
                out_x = out_map.pop(rx, None)
                out_y = out_map.pop(ry, None)
                flags = flags_map.pop(rx, 0) | flags_map.pop(ry, 0)
                # union by size, inlined (rx/ry are already roots)
                if size[rx] < size[ry]:
                    rx, ry = ry, rx
                parent[ry] = rx
                size[rx] += size[ry]
                last = rx
                if flags:
                    flags_map[rx] = flags
                if out_x or out_y:
                    if out_x is None:
                        out_map[rx] = out_y
                    elif out_y is None:
                        out_map[rx] = out_x
                    else:
                        for label, target in out_y.items():
                            existing = out_x.get(label)
                            if existing is None:
                                out_x[label] = target
                            else:
                                # label collision: the targets merge too
                                # (deferred — chains can be long)
                                if work is None:
                                    work = []
                                work.append((existing, target))
                        out_map[rx] = out_x
            else:
                last = rx
            if not work:
                return last
            x, y = work.pop()

    def _join(self, elem: int, label: str) -> int:
        """Get-or-create the ``label`` successor of ``elem``'s cell.  The
        target is by definition pointed-to (loads through the edge join
        destination variables into it)."""
        root = self._uf.find(elem)
        out = self._out.setdefault(root, {})
        target = out.get(label)
        if target is None:
            target = self._uf.make()
            out[label] = target
            self._flags[target] = POINTED_TO
        return target

    # -- constraint generation ---------------------------------------------------

    def _havoc_pointer_args(self, args) -> None:
        """Pointer arguments of calls the engine may execute as external
        havocs: the taint checker materializes their pointee node
        (``handle_store_fresh``), so the cell must carry a deref edge —
        which also disqualifies the fast path for the argument."""
        for arg in args:
            if isinstance(arg, Var) and isinstance(arg.type, PointerType):
                self._join(self._id_of(arg.name), DEREF)

    def _gen_call_binding(self, callee: Function, dst, args) -> None:
        for position, param in enumerate(callee.params):
            if position < len(args) and isinstance(args[position], Var):
                self._unify(self._id_of(param.name), self._id_of(args[position].name))
            else:
                self._id_of(param.name)
        if dst is not None:
            self._unify(self._id_of(dst.name), self._ret_cell(callee.name))

    def _gen_function(self, func: Function) -> None:
        gen = _GEN_DISPATCH
        for param in func.params:
            self._id_of(param.name)
        for block in func.blocks:
            for inst in block.instructions:
                gen[inst.__class__](self, inst)
            term = block.terminator
            if isinstance(term, Ret) and isinstance(term.value, Var):
                self._unify(self._id_of(term.value.name), self._ret_cell(func.name))

    # Per-instruction constraint generators — bound through the exact-type
    # dispatch table below, which has a row for every instruction class.

    # The hot generators below open-code _id_of's already-interned fast
    # path (one dict probe, no call) — the constraint walk spends most
    # of its time re-looking-up names it has already seen.

    def _gen_move(self, inst) -> None:
        ids = self._ids
        name = inst.dst.name
        dst = ids.get(name)
        if dst is None:
            dst = self._id_of(name)
        src = inst.src
        if isinstance(src, Var):
            name = src.name
            elem = ids.get(name)
            if elem is None:
                elem = self._id_of(name)
            self._unify(dst, elem)

    def _gen_load(self, inst) -> None:
        ids = self._ids
        name = inst.ptr.name
        ptr = ids.get(name)
        if ptr is None:
            ptr = self._id_of(name)
        pointee = self._join(ptr, DEREF)
        name = inst.dst.name
        dst = ids.get(name)
        if dst is None:
            dst = self._id_of(name)
        self._unify(dst, pointee)

    def _gen_store(self, inst) -> None:
        ids = self._ids
        name = inst.ptr.name
        ptr = ids.get(name)
        if ptr is None:
            ptr = self._id_of(name)
        pointee = self._join(ptr, DEREF)
        src = inst.src
        if isinstance(src, Var):
            name = src.name
            elem = ids.get(name)
            if elem is None:
                elem = self._id_of(name)
            self._unify(elem, pointee)

    def _gen_gep(self, inst) -> None:
        ids = self._ids
        name = inst.base.name
        base = ids.get(name)
        if base is None:
            base = self._id_of(name)
        slot = self._join(base, inst.field)
        name = inst.dst.name
        dst = ids.get(name)
        if dst is None:
            dst = self._id_of(name)
        self._unify(dst, slot)

    def _gen_addr_of(self, inst) -> None:
        pointee = self._join(self._id_of(inst.dst.name), DEREF)
        self._unify(self._id_of(inst.var.name), pointee)

    def _gen_malloc(self, inst) -> None:
        self._flag(self._id_of(inst.dst.name), HEAP_DST)

    def _gen_alloc(self, inst) -> None:
        # Stack objects never register as cross-entry shared state, but
        # the destination node must still exist for allocation-event
        # handling — no fast path.
        self._flag(self._id_of(inst.dst.name), HEAP_DST)

    def _gen_memset(self, inst) -> None:
        # The race checker resolves the pointer's node for the write
        # record; give the cell its deref edge.
        self._join(self._id_of(inst.ptr.name), DEREF)

    def _gen_lock(self, inst) -> None:
        self._flag(self._id_of(inst.lock.name), LOCK_ID)

    def _gen_call(self, inst) -> None:
        callee = self.program.lookup(inst.callee)
        if callee is not None:
            self._gen_call_binding(callee, inst.dst, inst.args)
        elif inst.dst is not None:
            self._id_of(inst.dst.name)
        # Whether or not the engine inlines this call (depth and
        # recursion budgets may force the external path), pointer args
        # may be havocked.
        self._havoc_pointer_args(inst.args)

    def _gen_call_indirect(self, inst) -> None:
        for name in self.callgraph.pool:
            self._gen_call_binding(self.program.lookup(name), inst.dst, inst.args)
        if inst.dst is not None:
            self._id_of(inst.dst.name)
        self._havoc_pointer_args(inst.args)

    def _gen_binop(self, inst) -> None:
        ids = self._ids
        value = inst.dst
        if isinstance(value, Var) and value.name not in ids:
            self._id_of(value.name)
        value = inst.lhs
        if isinstance(value, Var) and value.name not in ids:
            self._id_of(value.name)
        value = inst.rhs
        if isinstance(value, Var) and value.name not in ids:
            self._id_of(value.name)

    def _gen_unop(self, inst) -> None:
        ids = self._ids
        value = inst.dst
        if isinstance(value, Var) and value.name not in ids:
            self._id_of(value.name)
        value = inst.src
        if isinstance(value, Var) and value.name not in ids:
            self._id_of(value.name)

    def _gen_decl_local(self, inst) -> None:
        value = inst.var
        if isinstance(value, Var) and value.name not in self._ids:
            self._id_of(value.name)

    def _gen_free(self, inst) -> None:
        value = inst.ptr
        if isinstance(value, Var) and value.name not in self._ids:
            self._id_of(value.name)

    # -- solving -----------------------------------------------------------------

    def solve(self) -> "SteensgaardPointsTo":
        for func in self.program.functions():
            self._gen_function(func)
        self.solved = True
        return self

    # -- queries -----------------------------------------------------------------

    def may_alias(self, a: str, b: str) -> bool:
        if a == b:
            return True
        ea = self._ids.get(a)
        eb = self._ids.get(b)
        if ea is None or eb is None:
            return False
        return self._uf.same(ea, eb)

    def partition(self) -> MayAliasPartition:
        """Finalize into a :class:`MayAliasPartition`."""
        if not self.solved:
            self.solve()
        ids = self._ids
        flags = self._flags
        out = self._out
        name_order = self._name_order
        # singleton == alone in its cell: count the names per root once
        # up front, then the per-name predicate is one set-membership test
        # (find inlined — one resolution per name over the whole program)
        parent = self._uf._parent
        roots: List[int] = []
        roots_append = roots.append
        for name in name_order:
            x = ids[name]
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            roots_append(x)
        counts: Dict[int, int] = {}
        counts_get = counts.get
        for root in roots:
            counts[root] = counts_get(root, 0) + 1
        singleton_roots = {
            root
            for root, count in counts.items()
            if count == 1 and not flags.get(root, 0) and not out.get(root)
        }
        return MayAliasPartition(
            singletons=frozenset(
                name for name, root in zip(name_order, roots) if root in singleton_roots
            ),
            cell_count=len(counts),
        )


#: exact-type constraint dispatch — one dict hit per instruction instead
#: of a dozen isinstance checks (the unification pass walks every
#: instruction in the program exactly once, so this is hot)
_GEN_DISPATCH = {
    Move: SteensgaardPointsTo._gen_move,
    Load: SteensgaardPointsTo._gen_load,
    Store: SteensgaardPointsTo._gen_store,
    Gep: SteensgaardPointsTo._gen_gep,
    AddrOf: SteensgaardPointsTo._gen_addr_of,
    Malloc: SteensgaardPointsTo._gen_malloc,
    Alloc: SteensgaardPointsTo._gen_alloc,
    MemSet: SteensgaardPointsTo._gen_memset,
    LockOp: SteensgaardPointsTo._gen_lock,
    Call: SteensgaardPointsTo._gen_call,
    CallIndirect: SteensgaardPointsTo._gen_call_indirect,
    BinOp: SteensgaardPointsTo._gen_binop,
    UnOp: SteensgaardPointsTo._gen_unop,
    DeclLocal: SteensgaardPointsTo._gen_decl_local,
    Free: SteensgaardPointsTo._gen_free,
}


def build_partition(program: Program, callgraph: Optional[CallGraph] = None) -> MayAliasPartition:
    """The P1.7 entry point: solve the whole program and finalize."""
    return SteensgaardPointsTo(program, callgraph=callgraph).solve().partition()

