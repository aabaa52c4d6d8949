"""The P1.8 flow-sensitive middle tier: must-alias facts for the engine.

The P1.7 Steensgaard partition answers *may ever alias*.  This phase
climbs one rung: running sparsely on top of that partition (the value-
flow graph built from it provides the store→load skeleton, as in staged
SVF), it derives *must* facts —

* **must-point-to singletons**: names whose points-to set is a must
  singleton at every reachable point of a function, so per-path alias
  tracking for them is pure bookkeeping;
* **strong-update-killed definitions**: stores through a pointer that
  must name exactly one cell kill the previous definition outright
  (:class:`~repro.pointsto.flow_sensitive.FlowSensitivePointsTo` in
  ``strong_updates`` mode records each kill);
* **must-not-alias**: closure-locally, names in different partition
  cells can never alias — the presolve sharpening consumes this to
  disarm checkers whose trigger can provably never reach a sink.

Everything is folded into one :class:`MustAliasFacts` object that each
run builds and forked workers inherit next to the partition.  Consumers
only ever *skip predictable work* with these facts, so reports stay
byte-identical across the whole ``off``/``steens``/``flow`` ladder.

The skip sets are computed from an exact per-occurrence walk: the alias
graph has no node-merge operation — every mutation moves one named
variable or sets one edge, keyed by an instruction operand name — so a
name is skippable for an entry iff **no instruction in the entry's
closure** performs a graph operation on it whose outcome depends on
graph state (the ``_DISQ`` rules below, verified against every
``AliasGraph`` handler and explorer/checker resolution site).  That set
is a strict superset of the whole-program Steensgaard singletons, which
are unioned in for good measure.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ir import (
    AddrOf,
    Alloc,
    BinOp,
    Call,
    CallIndirect,
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
from .andersen import Obj
from .flow_sensitive import FlowSensitivePointsTo

_EMPTY: FrozenSet[str] = frozenset()

#: the conservative universe for names the partition walk never pinned
#: down: two sentinels, so the set is never a singleton, never strongly
#: updated, and intersects everything (= may alias everything)
_TOP: FrozenSet[Obj] = frozenset({("u", 0), ("u", 1)})


class _PartitionBase:
    """Adapter presenting a :class:`MayAliasPartition` as the points-to
    base of :class:`FlowSensitivePointsTo`.

    The partition holds alias *cells*, not points-to contents, so every
    query answers the conservative top universe — the flow pass then
    earns all of its precision from the def chains it tracks itself
    (AddrOf/Malloc/Move/Gep), which is exactly the sparse regime: no
    whole-program Andersen solve anywhere in the engine hot path.
    """

    __slots__ = ("partition", "solved")

    def __init__(self, partition):
        self.partition = partition
        self.solved = True

    def solve(self):
        return self

    def points_to(self, name: str) -> FrozenSet[Obj]:
        return _TOP


class MustAliasFacts:
    """The P1.8 output: per-function occurrence/disqualification
    sets, the embedded callgraph needed to resolve entry closures without
    a presolve (warm cache runs never build one), and the flow-pass
    accounting (must singletons, strong updates, killed definitions in
    process-independent coordinates).

    ``skip_names_for_entry`` is the consumer surface: the set of names
    the per-path alias graph may skip for one entry — sound because no
    instruction in the entry's closure performs an outcome-unpredictable
    graph operation on them.
    """

    __slots__ = (
        "occurs", "disq", "callees", "indirect", "pool", "resolve_fp",
        "base_singletons", "must_singletons", "strong_updates",
        "killed_defs", "_closure_memo", "_skip_memo",
    )

    def __init__(
        self,
        occurs: Dict[str, FrozenSet[str]],
        disq: Dict[str, FrozenSet[str]],
        callees: Dict[str, Tuple[str, ...]],
        indirect: FrozenSet[str],
        pool: Tuple[str, ...],
        resolve_fp: bool,
        base_singletons: FrozenSet[str],
        must_singletons: int,
        strong_updates: int,
        killed_defs: Tuple[Tuple[str, str, int], ...],
    ):
        #: function -> non-global names occurring in its instructions
        self.occurs = occurs
        #: function -> names its instructions disqualify from skipping
        self.disq = disq
        #: function -> defined direct callees (the closure skeleton —
        #: embedded so warm-cache runs need no presolve to resolve it)
        self.callees = callees
        #: functions containing an indirect call
        self.indirect = indirect
        #: defined registration-pool functions (indirect-call targets)
        self.pool = pool
        self.resolve_fp = resolve_fp
        #: whole-program Steensgaard singletons, unioned into every skip
        #: set so the flow tier is a strict superset of the steens tier
        self.base_singletons = base_singletons
        self.must_singletons = must_singletons
        self.strong_updates = strong_updates
        #: (function, pointer, ordinal) — uid-free, stable across module
        #: renumbering, so two solves of one program compare equal
        self.killed_defs = killed_defs
        self._closure_memo: Dict[str, FrozenSet[str]] = {}
        self._skip_memo: Dict[FrozenSet[str], FrozenSet[str]] = {}

    # -- closures ---------------------------------------------------------------

    def closure_of(self, entry_name: str) -> FrozenSet[str]:
        """Defined functions the explorer can reach from ``entry_name``
        — mirrors the presolve closure (direct defined call edges, plus
        the whole registration pool once behind any indirect call when
        resolution is enabled), but self-contained: warm-cache runs have
        no :class:`RelevancePreAnalysis` to ask."""
        cached = self._closure_memo.get(entry_name)
        if cached is not None:
            return cached
        names = {entry_name}
        work = [entry_name]
        pool_added = False
        while work:
            current = work.pop()
            for callee in self.callees.get(current, ()):
                if callee not in names:
                    names.add(callee)
                    work.append(callee)
            if current in self.indirect and self.resolve_fp and not pool_added:
                pool_added = True
                for target in self.pool:
                    if target not in names:
                        names.add(target)
                        work.append(target)
        closure = frozenset(names)
        self._closure_memo[entry_name] = closure
        return closure

    def skip_names_for_entry(self, entry_name: str) -> FrozenSet[str]:
        """Names the per-path alias graph may skip while exploring
        ``entry_name``: every closure occurrence minus every closure
        disqualification, plus the whole-program singletons that occur.
        Memoized per closure — entries sharing a helper subtree share
        one union."""
        closure = self.closure_of(entry_name)
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

    # -- identity ---------------------------------------------------------------

    def stamp(self) -> str:
        """Content hash, for diagnostics and for comparing two solves."""
        h = hashlib.sha256()
        for func in sorted(self.occurs):
            h.update(func.encode() + b"{")
            for name in sorted(self.occurs[func]):
                h.update(name.encode() + b";")
            h.update(b"|")
            for name in sorted(self.disq.get(func, _EMPTY)):
                h.update(name.encode() + b";")
            h.update(b"}")
        h.update(b"|cg|")
        for func in sorted(self.callees):
            h.update(f"{func}->{','.join(self.callees[func])};".encode())
        h.update(f"|{sorted(self.indirect)}|{self.pool}|{self.resolve_fp}".encode())
        h.update(f"|{self.must_singletons}|{self.strong_updates}".encode())
        for kill in self.killed_defs:
            h.update(repr(kill).encode())
        return h.hexdigest()


# -- the exact-occurrence walk --------------------------------------------------
#
# Why each rule, against the AliasGraph handlers and every resolution
# site in the explorer/checkers/translator:
#
#   Move v,v       both: handle_move links src and dst nodes
#   Move v,const   none: detach(dst) is state-independent
#   Load           dst+ptr: handle_load materializes ptr's pointee
#   Store v        ptr+src: handle_store resolves node_of(src) too
#   Store const    ptr: handle_store_fresh materializes the pointee
#   Gep            dst+base: field edge from base's node
#   AddrOf         dst+var: detach(dst) feeds _set_edge — dst must exist
#   Malloc/Alloc   dst: translator's handle_fresh_object syms the node
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


def _walk_tag(cls) -> Optional[int]:
    """Tag for ``cls``, honoring subclasses outside the exact table."""
    for base, tag in _WALK_TAGS.items():
        if issubclass(cls, base):
            return tag
    return None


def _walk_occurs_disq(
    program: Program,
    resolve_function_pointers: bool,
) -> Tuple[Dict[str, FrozenSet[str]], Dict[str, FrozenSet[str]],
           Dict[str, Tuple[str, ...]], FrozenSet[str], Tuple[str, ...],
           FrozenSet[str]]:
    defined: Dict[str, Function] = {f.name: f for f in program.functions()}
    may_ret_var: Dict[str, bool] = {}
    for func in program.functions():
        may_ret_var[func.name] = any(
            isinstance(b.terminator, Ret) and isinstance(b.terminator.value, Var)
            for b in func.blocks
        )
    pool_names: List[str] = []
    seen_pool: Set[str] = set()
    for reg in program.registrations():
        if reg.function in defined and reg.function not in seen_pool:
            seen_pool.add(reg.function)
            pool_names.append(reg.function)
    pool = tuple(pool_names)
    pool_params: List[str] = [
        p.name for name in pool for p in defined[name].params
    ]
    pool_may_ret = any(may_ret_var.get(name, False) for name in pool)

    occurs: Dict[str, FrozenSet[str]] = {}
    disq: Dict[str, FrozenSet[str]] = {}
    callees: Dict[str, Tuple[str, ...]] = {}
    indirect: Set[str] = set()
    strongable: Set[str] = set()
    tags = _WALK_TAGS

    for func in program.functions():
        occ: Set[str] = set()
        dis: Set[str] = set(p.name for p in func.params)
        occ_add, dis_add = occ.add, dis.add
        direct: List[str] = []
        seen_callees: Set[str] = set()
        entry_block = func.blocks[0] if func.blocks else None
        has_store = False
        has_tracked = False
        for block in func.blocks:
            for inst in block.instructions:
                defined_var = inst.defined_var()
                if defined_var is not None:
                    occ_add(defined_var.name)
                for operand in inst.operands():
                    if isinstance(operand, Var):
                        occ_add(operand.name)
                cls = inst.__class__
                tag = tags.get(cls, -1)
                if tag == -1:
                    tag = _walk_tag(cls)
                    tags[cls] = tag
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
                    has_store = True
                    dis_add(inst.ptr.name)
                    if isinstance(inst.src, Var):
                        dis_add(inst.src.name)
                elif tag == _T_GEP:
                    dis_add(inst.dst.name)
                    dis_add(inst.base.name)
                elif tag == _T_ADDROF:
                    has_tracked = True
                    dis_add(inst.dst.name)
                    dis_add(inst.var.name)
                    occ_add(inst.var.name)
                elif tag == _T_ALLOC:
                    dis_add(inst.dst.name)
                    if block is entry_block and isinstance(inst, Alloc):
                        has_tracked = True
                elif tag == _T_MEMSET:
                    dis_add(inst.ptr.name)
                elif tag == _T_LOCK:
                    dis_add(inst.lock.name)
                elif tag == _T_CALL:
                    for arg in inst.args:
                        if isinstance(arg, Var) and isinstance(arg.type, PointerType):
                            dis_add(arg.name)
                    callee = defined.get(inst.callee)
                    if callee is not None:
                        if inst.callee not in seen_callees:
                            seen_callees.add(inst.callee)
                            direct.append(inst.callee)
                        for arg in inst.args:
                            if isinstance(arg, Var):
                                dis_add(arg.name)
                        for param in callee.params:
                            dis_add(param.name)
                        if inst.dst is not None and may_ret_var.get(inst.callee, False):
                            dis_add(inst.dst.name)
                elif tag == _T_CALLIND:
                    indirect.add(func.name)
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
        if direct:
            callees[func.name] = tuple(direct)
        if has_store and has_tracked:
            strongable.add(func.name)
    return occurs, disq, callees, frozenset(indirect), pool, frozenset(strongable)


# -- the P1.8 entry point -------------------------------------------------------


def compute_flow_facts(
    program: Program,
    partition,
    resolve_function_pointers: bool = False,
) -> MustAliasFacts:
    """Build the :class:`MustAliasFacts` for one program: the exact
    occurrence/disqualification walk, then the sparse flow-sensitive
    strong-update pass over the functions the value-flow graph proves
    memory-flow-relevant (a store whose value can reach a load — the
    partition buckets that matching to linear time)."""
    occurs, disq, callees, indirect, pool, strongable = _walk_occurs_disq(
        program, resolve_function_pointers
    )

    from ..vfg import ValueFlowGraph  # lazy: vfg imports this package

    vfg = ValueFlowGraph(program, points_to=partition)
    flow = FlowSensitivePointsTo(_PartitionBase(partition), strong_updates=True)
    singleton_names: Set[str] = set()
    # Doubly sparse: a function is worth the fixpoint only when the VFG
    # proves it memory-flow-relevant AND the walk saw both a store and a
    # tracked-cell creator (an AddrOf or an entry-block alloca) in it —
    # the only combination that can yield strong updates, kills, or
    # heap-resolved loads.  Everything else contributes to the
    # must-singleton figure through the walk universe below.
    memory = vfg.memory_functions
    for func in program.functions():
        if func.name in memory and func.name in strongable:
            flow.analyze_function(func)
            singleton_names |= flow.must_singleton_names(func)

    # The whole-program skippable universe doubles as the must-singleton
    # figure of merit: a name no closure can disqualify has a trivially
    # singleton alias set at every reachable point.
    all_occ: Set[str] = set()
    all_dis: Set[str] = set()
    for func, occ in occurs.items():
        all_occ |= occ
        all_dis |= disq.get(func, _EMPTY)
    singleton_names |= all_occ - all_dis

    return MustAliasFacts(
        occurs=occurs,
        disq=disq,
        callees=callees,
        indirect=indirect,
        pool=pool,
        resolve_fp=resolve_function_pointers,
        base_singletons=partition.singletons,
        must_singletons=len(singleton_names),
        strong_updates=flow.strong_updates_applied,
        killed_defs=tuple(flow.killed_defs),
    )


# -- must-not-alias taint sharpening -------------------------------------------


def taint_flow_possible(
    program: Program,
    functions: Iterable[Function],
    defined: Optional[Dict[str, Function]] = None,
) -> bool:
    """Whether any taint source in ``functions`` can flow to any taint
    sink, judged over the closure-local Steensgaard cells.

    Cells over-approximate runtime alias sets, and every propagation
    step of the taint checker is either intra-cell (assignments, loads,
    stores and call bindings all unify) or a ``BinOp``/``UnOp`` deriving
    a value from a tainted operand — the directed cell edges added here.
    Structure edges (deref/field) are followed forward too: anything
    loaded out of a tainted buffer may be tainted.  So a *disconnected*
    seed/sink answer is a must-not-alias proof: no execution can carry
    taint from any source to any sink, and the presolve may disarm the
    taint checker for the closure.  Mirrors the scan exactly: hint-named
    direct calls seed (indirect calls never set the source bit), and the
    sinks are the scan's INDEX/DIV/ALLOC_HEAP/MEM_INIT sites.
    """
    from ..presolve.events import TAINT_SOURCE_HINTS
    from .steensgaard import DEREF, SteensgaardPointsTo

    functions = list(functions)
    solver = SteensgaardPointsTo(program, functions=functions, defined=defined).solve()
    find = solver._uf.find
    ids = solver._ids

    def cell(name: str):
        elem = ids.get(name)
        # names the constraint walk never saw get private synthetic
        # cells — they can still carry taint through value edges
        return find(elem) if elem is not None else ("x", name)

    value_edges: Dict[object, Set[object]] = defaultdict(set)
    seeds: Set[object] = set()
    sinks: Set[object] = set()
    for func in functions:
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, BinOp):
                    dst = cell(inst.dst.name)
                    for operand in (inst.lhs, inst.rhs):
                        if isinstance(operand, Var):
                            src = cell(operand.name)
                            if src != dst:
                                value_edges[src].add(dst)
                    if inst.op in ("div", "mod") and isinstance(inst.rhs, Var):
                        sinks.add(cell(inst.rhs.name))
                elif isinstance(inst, UnOp):
                    if isinstance(inst.src, Var):
                        src = cell(inst.src.name)
                        dst = cell(inst.dst.name)
                        if src != dst:
                            value_edges[src].add(dst)
                elif isinstance(inst, Gep):
                    if isinstance(inst.index, Var):
                        sinks.add(cell(inst.index.name))
                elif isinstance(inst, Malloc):
                    if isinstance(inst.size, Var):
                        sinks.add(cell(inst.size.name))
                elif isinstance(inst, MemSet):
                    if isinstance(inst.size, Var):
                        sinks.add(cell(inst.size.name))
                elif isinstance(inst, Call):
                    if any(hint in inst.callee for hint in TAINT_SOURCE_HINTS):
                        if inst.dst is not None:
                            seeds.add(cell(inst.dst.name))
                        for arg in inst.args:
                            if isinstance(arg, Var) and isinstance(arg.type, PointerType):
                                # out-buffer source: the pointee carries
                                # the taint (the solver's havoc guarantees
                                # the deref edge exists)
                                seeds.add(cell(arg.name))
                                root = cell(arg.name)
                                if not isinstance(root, tuple):
                                    pointee = solver._out.get(root, {}).get(DEREF)
                                    if pointee is not None:
                                        seeds.add(find(pointee))
    if not seeds or not sinks:
        return False

    # Forward structure edges, normalized to current roots.
    structure: Dict[object, Set[object]] = defaultdict(set)
    for elem, out in solver._out.items():
        root = find(elem)
        for target in out.values():
            structure[root].add(find(target))

    seen: Set[object] = set(seeds)
    work: List[object] = list(seeds)
    while work:
        current = work.pop()
        if current in sinks:
            return True
        for nxt in structure.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
        for nxt in value_edges.get(current, ()):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return bool(seen & sinks)
