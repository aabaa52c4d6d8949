"""P1.8: the per-entry skip sets P2's per-path alias graphs read.

The P1.7 Steensgaard partition proves whole-program *singletons*: names
the per-path alias graph may leave node-free because no graph operation
ever involves them.  This phase sharpens that per entry.  The alias
graph has no node-merge operation — every mutation moves one named
variable or sets one edge, keyed by an instruction operand name — so a
name is skippable for an entry iff **no instruction in the entry's
closure** performs a graph operation on it whose outcome depends on
graph state (the rules table above the walk, verified against every
``AliasGraph`` handler and explorer/checker resolution site).

One exact walk over the program records, per function, the names its
instructions mention (*occurrences*) and the names they subject to a
state-dependent graph operation (*disqualifications*).
:class:`MustAliasFacts` holds that walk and the run's call graph, and
answers :meth:`MustAliasFacts.skip_names_for_entry`: occurrences minus
disqualifications over the entry's
:meth:`~repro.cfg.CallGraph.closure`, with the partition singletons
that occur unioned in, so each skip set is a superset of what the
``steens`` tier skips.  The explorer only ever *skips predictable
work* with these sets, so reports stay byte-identical across the whole
``off``/``steens``/``flow`` ladder.  P3 reads none of them: it replays
every trace on a fresh, unskipped alias graph.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg import CallGraph
from ..ir import (
    AddrOf,
    Alloc,
    Call,
    CallIndirect,
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
    Var,
)

_EMPTY: FrozenSet[str] = frozenset()


class MustAliasFacts:
    """The P1.8 output: per-function occurrence/disqualification sets
    and the call graph whose closures the skip sets are taken over (a
    warm-cache run builds no presolve, but always builds the graph).

    ``skip_names_for_entry`` is the consumer surface: the set of names
    the per-path alias graph may skip for one entry — sound because no
    instruction in the entry's closure performs an outcome-unpredictable
    graph operation on them.
    """

    __slots__ = ("occurs", "disq", "callgraph", "base_singletons", "_skip_memo")

    def __init__(
        self,
        occurs: Dict[str, FrozenSet[str]],
        disq: Dict[str, FrozenSet[str]],
        callgraph: CallGraph,
        base_singletons: FrozenSet[str],
    ):
        #: function -> non-global names occurring in its instructions
        self.occurs = occurs
        #: function -> names its instructions disqualify from skipping
        self.disq = disq
        self.callgraph = callgraph
        #: whole-program Steensgaard singletons, unioned into every skip
        #: set so the flow tier skips at least what the steens tier does
        self.base_singletons = base_singletons
        self._skip_memo: Dict[FrozenSet[str], FrozenSet[str]] = {}

    def skip_names_for_entry(self, entry_name: str) -> FrozenSet[str]:
        """Names the per-path alias graph may skip while exploring
        ``entry_name``: every closure occurrence minus every closure
        disqualification, plus the whole-program singletons that occur.
        Memoized per closure — entries sharing a helper subtree share
        one union."""
        closure = self.callgraph.closure(entry_name)
        cached = self._skip_memo.get(closure)
        if cached is not None:
            return cached
        occ: Set[str] = set()
        dis: Set[str] = set()
        for func in closure:
            occ |= self.occurs.get(func, _EMPTY)
            dis |= self.disq.get(func, _EMPTY)
        skip = frozenset((occ - dis) | (self.base_singletons & occ))
        self._skip_memo[closure] = skip
        return skip


# -- the exact-occurrence walk --------------------------------------------------
#
# Why each rule, against the AliasGraph handlers and every resolution
# site in the explorer and the checkers:
#
#   Move v,v       both: handle_move links src and dst nodes
#   Move v,const   none: detach(dst) is state-independent
#   Load           dst+ptr: handle_load materializes ptr's pointee
#   Store v        ptr+src: handle_store resolves node_of(src) too
#   Store const    ptr: handle_store_fresh materializes the pointee
#   Gep            dst+base: field edge from base's node
#   AddrOf         dst+var: detach(dst) feeds _set_edge — dst must exist
#   Malloc/Alloc   dst: allocation events and heap registration key the node
#   MemSet         ptr: the race checker resolves the written node
#   LockOp         lock: lock identity resolves the node
#   Free           none: matches the untracked steens treatment
#   BinOp/UnOp/DeclLocal  none: detach only
#   Call           pointer var args always (external havoc materializes
#                  pointees); defined callee adds all var args + params
#                  (inline binding is a move per param) + dst when the
#                  callee can return a variable (retval move)
#   CallIndirect   nothing unresolved (the external path only detaches
#                  dst and raises escapes); with resolution enabled,
#                  var args + every pool target's params + dst if any
#                  pool target can return a variable
#   Ret v          the variable: returning to a call frame is a move
#   params         always: entry havoc / inline binding both touch them


#: exact-type tags so the per-instruction dispatch below is one dict hit
#: instead of a ten-deep isinstance chain (BinOp/UnOp/DeclLocal — the
#: bulk of a corpus — previously fell through every check)
_T_MOVE, _T_LOAD, _T_STORE, _T_GEP, _T_ADDROF, _T_ALLOC, _T_MEMSET, \
    _T_LOCK, _T_CALL, _T_CALLIND = range(10)

_WALK_TAGS = {
    Move: _T_MOVE, Load: _T_LOAD, Store: _T_STORE, Gep: _T_GEP,
    AddrOf: _T_ADDROF, Malloc: _T_ALLOC, Alloc: _T_ALLOC,
    MemSet: _T_MEMSET, LockOp: _T_LOCK,
    Call: _T_CALL, CallIndirect: _T_CALLIND,
}


def _walk_occurs_disq(
    program: Program,
    callgraph: CallGraph,
) -> Tuple[Dict[str, FrozenSet[str]], Dict[str, FrozenSet[str]]]:
    may_ret_var: Dict[str, bool] = {}
    for func in program.functions():
        may_ret_var[func.name] = any(
            isinstance(b.terminator, Ret) and isinstance(b.terminator.value, Var)
            for b in func.blocks
        )
    resolve_function_pointers = callgraph.resolve_function_pointers
    pool = callgraph.pool
    pool_params: List[str] = [
        p.name for name in pool for p in program.lookup(name).params
    ]
    pool_may_ret = any(may_ret_var.get(name, False) for name in pool)

    occurs: Dict[str, FrozenSet[str]] = {}
    disq: Dict[str, FrozenSet[str]] = {}
    tags = _WALK_TAGS

    for func in program.functions():
        occ: Set[str] = set()
        dis: Set[str] = set(p.name for p in func.params)
        occ_add, dis_add = occ.add, dis.add
        for block in func.blocks:
            for inst in block.instructions:
                defined_var = inst.defined_var()
                if defined_var is not None:
                    occ_add(defined_var.name)
                for operand in inst.operands():
                    if isinstance(operand, Var):
                        occ_add(operand.name)
                tag = tags.get(inst.__class__)
                if tag is None:
                    continue
                if tag == _T_MOVE:
                    if isinstance(inst.src, Var):
                        dis_add(inst.dst.name)
                        dis_add(inst.src.name)
                elif tag == _T_LOAD:
                    dis_add(inst.dst.name)
                    dis_add(inst.ptr.name)
                elif tag == _T_STORE:
                    dis_add(inst.ptr.name)
                    if isinstance(inst.src, Var):
                        dis_add(inst.src.name)
                elif tag == _T_GEP:
                    dis_add(inst.dst.name)
                    dis_add(inst.base.name)
                elif tag == _T_ADDROF:
                    dis_add(inst.dst.name)
                    dis_add(inst.var.name)
                    occ_add(inst.var.name)
                elif tag == _T_ALLOC:
                    dis_add(inst.dst.name)
                elif tag == _T_MEMSET:
                    dis_add(inst.ptr.name)
                elif tag == _T_LOCK:
                    dis_add(inst.lock.name)
                elif tag == _T_CALL:
                    for arg in inst.args:
                        if isinstance(arg, Var) and isinstance(arg.type, PointerType):
                            dis_add(arg.name)
                    callee = program.lookup(inst.callee)
                    if callee is not None:
                        for arg in inst.args:
                            if isinstance(arg, Var):
                                dis_add(arg.name)
                        for param in callee.params:
                            dis_add(param.name)
                        if inst.dst is not None and may_ret_var.get(inst.callee, False):
                            dis_add(inst.dst.name)
                elif tag == _T_CALLIND:
                    if resolve_function_pointers:
                        for arg in inst.args:
                            if isinstance(arg, Var):
                                dis_add(arg.name)
                        dis.update(pool_params)
                        if inst.dst is not None and pool_may_ret:
                            dis_add(inst.dst.name)
            term = block.terminator
            if isinstance(term, Ret) and isinstance(term.value, Var):
                occ_add(term.value.name)
                dis_add(term.value.name)
        occurs[func.name] = frozenset(n for n in occ if not n.startswith("@"))
        disq[func.name] = frozenset(dis)
    return occurs, disq


# -- the P1.8 entry point -------------------------------------------------------


def compute_flow_facts(
    program: Program,
    partition,
    callgraph: Optional[CallGraph] = None,
) -> MustAliasFacts:
    """Build the :class:`MustAliasFacts` for one program: the exact
    occurrence/disqualification walk over ``callgraph`` (the program's
    own, resolution off, when omitted), with ``partition``'s
    whole-program singletons kept for the skip-set union."""
    if callgraph is None:
        callgraph = CallGraph(program)
    occurs, disq = _walk_occurs_disq(program, callgraph)
    return MustAliasFacts(occurs, disq, callgraph, partition.singletons)
