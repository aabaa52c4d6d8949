"""The PATA code analyzer — phase P2 (Fig. 10): simultaneous path-based
alias analysis and alias-aware typestate tracking.

Exploration follows Fig. 6: a depth-first walk over the CFG starting at
every entry function, inlining direct calls (parameter passing = MOVEs),
unrolling each loop and recursion once, and invoking TypestateTrack after
every alias-graph update.  Backtracking rewinds the shared undo trail, so
each path observes its own alias graph and checker state (equivalent to
the paper's graph copies, see :mod:`repro.alias.trail`).

Path-explosion mitigation (§4 P2, "combines the information of its code
paths"): when a callee returns, exit paths whose externally visible
effects (touched typestates, rebound variables, returned value) are
identical to an already-continued exit are merged — the caller's
continuation runs once per distinct exit state, bounded by
``max_callee_exits_per_call``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..alias import AliasGraph, Trail, apply_instruction
from ..errors import BudgetExceeded
from ..ir import (
    AddrOf,
    Alloc,
    BasicBlock,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Const,
    DeclLocal,
    Free,
    Function,
    Gep,
    Instruction,
    IntType,
    Jump,
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
    Unreachable,
    Value,
    Var,
    is_null_const,
)
from ..races.shared import SharedAccess
from ..smt.terms import NEGATED_REL, SWAPPED_REL
from ..stack import headroom
from ..typestate import (
    AllocEvent,
    AssignConstEvent,
    AssignNullEvent,
    BranchCmpEvent,
    BranchNullEvent,
    CallReturnEvent,
    Checker,
    DeclLocalEvent,
    DerefEvent,
    DivEvent,
    EscapeEvent,
    ExternalCallEvent,
    FreeEvent,
    IndexEvent,
    LoadEvent,
    LockEvent,
    MemInitEvent,
    PossibleBug,
    ReturnEvent,
    StateStore,
    StoreEvent,
    TrackerContext,
    TransferEvent,
    TypestateManager,
    UseVarEvent,
)
from .config import AnalysisConfig

_CMP_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}

#: blocks one path may nest (the walk recurses once per block) before
#: its entry ends budget-exhausted.  A constant, not a config knob: the
#: corpora nest at most 22, a function of 120 nested ``if`` blocks 240.
MAX_PATH_DEPTH = 1000
#: Python frames per nested block, at most: ``_enter_block``,
#: ``_run_insts`` and ``_run_terminator`` or ``_inline_call``, plus
#: ``_do_return`` and the caller's ``_run_insts`` when a call returns
_FRAMES_PER_BLOCK = 6
#: frames event dispatch and checker code add at the deepest block
_LEAF_FRAMES = 200
#: the recursion headroom a walk needs (see :func:`repro.stack.headroom`)
_PATH_FRAMES = MAX_PATH_DEPTH * _FRAMES_PER_BLOCK + _LEAF_FRAMES

class _Frame:
    """One (possibly inlined) function activation."""

    __slots__ = (
        "func", "frame_id", "is_entry", "cont", "block_visits",
        "exit_digests", "store_mark", "alias_mark",
    )

    def __init__(self, func: Function, frame_id: int, is_entry: bool, cont, store_mark: int, alias_mark: int):
        self.func = func
        self.frame_id = frame_id
        self.is_entry = is_entry
        #: (block, inst_index, caller_frame, call_inst) to resume on return
        self.cont = cont
        self.block_visits: Dict[int, int] = {}
        self.exit_digests: Set = set()
        self.store_mark = store_mark
        self.alias_mark = alias_mark


class PathExplorer:
    """Explores all paths from one entry function, producing possible bugs.

    One explorer instance may be reused across entry functions of a
    program; per-entry counters reset in :meth:`explore`.

    **Cross-entry accumulation contract:** ``possible_bugs`` and
    ``seen_bug_keys`` are *deliberately* shared across every entry
    explored through one instance — a bug sighted from a second entry is
    a repeat (§4 P3), counted in ``repeated_bugs`` rather than reported
    twice.  Everything else is per-entry and is reset or cleared by
    :meth:`explore`.  PATA walks entries through
    :func:`repro.core.parallel.explore_entries`, which clears the
    seen-key sets before each entry, so every entry's outcome stands
    alone, and re-applies the dedup in entry order when it merges them.
    """

    def __init__(
        self,
        program: Program,
        config: Optional[AnalysisConfig] = None,
        checkers: Optional[List[Checker]] = None,
        instruction_observer: Optional[Callable] = None,
        path_end_observer: Optional[Callable] = None,
        indirect_resolver: Optional[Callable] = None,
        relevance=None,
        partition=None,
        flow_facts=None,
    ):
        self.program = program
        self.config = config or AnalysisConfig()
        self.manager = TypestateManager(checkers or [])
        self.instruction_observer = instruction_observer
        self.path_end_observer = path_end_observer
        #: (struct name | None, field) -> candidate function names; set to
        #: enable the §7 function-pointer extension
        self.indirect_resolver = indirect_resolver
        #: P1.5 :class:`~repro.presolve.prune.RelevancePreAnalysis`; when
        #: set, paths stop on entering a dead block of the entry CFG
        self.relevance = relevance
        #: P1.7 :class:`~repro.pointsto.steensgaard.MayAliasPartition`;
        #: when set, per-path graph maintenance skips proven singletons
        self.partition = partition
        #: P1.8 :class:`~repro.pointsto.flow_tier.MustAliasFacts`; when
        #: set, the skip set is re-resolved *per entry* from its closure
        #: (a strict superset of the whole-program singletons)
        self.flow_facts = flow_facts
        self._dead_blocks: frozenset = frozenset()

        skip_names = (
            partition.singletons
            if partition is not None and self.config.alias_aware
            else None
        )
        self.trail = Trail()
        self.graph: Optional[AliasGraph] = (
            AliasGraph(self.trail, skip_names=skip_names)
            if self.config.alias_aware else None
        )
        self.store = StateStore(self.trail)
        self.ctx = TrackerContext(
            graph=self.graph,
            store=self.store,
            alias_aware=self.config.alias_aware,
            report_fn=self._report,
            base_of_fn=lambda name: self.addr_defs.get(name),
            record_fn=self._record,
        )

        self.trace: List[Tuple] = []
        self.value_defs: Dict[str, BinOp] = {}
        self.addr_defs: Dict[str, Tuple[Var, str]] = {}
        #: load destinations -> the pointer loaded through (for resolving
        #: which struct field a function pointer came from)
        self.load_srcs: Dict[str, str] = {}
        self.possible_bugs: List[PossibleBug] = []
        self.seen_bug_keys: Set[Tuple] = set()
        self.repeated_bugs = 0
        #: cross-entry observations (:meth:`_record`): the race
        #: checker's shared-state accesses (P2.5 input) and the xtaint
        #: checker's taint flows (P2.6 input).  Same accumulation
        #: contract as ``possible_bugs``: shared across every entry this
        #: explorer walks — cross-entry matching *needs* both sides — and
        #: deduplicated on the fly.
        self.shared_accesses: List[SharedAccess] = []
        self.seen_access_keys: Set[Tuple] = set()
        self.paths = 0
        self.steps = 0
        self.budget_exhausted = False
        self.paths_pruned = 0
        self.blocks_pruned = 0
        self._frame_ids = 0
        self._call_stack: List[str] = []
        #: blocks nested on the current path (see MAX_PATH_DEPTH)
        self._path_depth = 0

    # -- reporting -----------------------------------------------------------------

    def _report(self, bug: PossibleBug) -> None:
        key = bug.dedup_key
        if key in self.seen_bug_keys:
            self.repeated_bugs += 1
            return
        self.seen_bug_keys.add(key)
        bug.trace = tuple(self.trace)
        self.possible_bugs.append(bug)

    def _record(self, record) -> None:
        """Record one cross-entry observation on the current path (the
        :meth:`~repro.typestate.manager.TrackerContext.record` hook): a
        :class:`SharedAccess` or a taint flow, stamped with the entry.
        Dedup *before* snapshotting the trace: path re-merges and loop
        re-visits repeat the same record, and the first path's snapshot
        stands in for all.  A flow's ``dedup_key`` is "xflow"-namespaced,
        so the two kinds share one seen-set without colliding."""
        record.entry = self.ctx.entry_function
        dedup = record.dedup_key
        if dedup in self.seen_access_keys:
            return
        self.seen_access_keys.add(dedup)
        record.trace = tuple(self.trace)
        self.shared_accesses.append(record)

    def _dispatch(self, event) -> None:
        self.manager.dispatch(event, self.ctx)

    # -- entry point ----------------------------------------------------------------

    def explore(self, entry: Function) -> None:
        """Explore every path of ``entry`` (AnalyzeCode + HandleFUNC)."""
        self.paths = 0
        self.steps = 0
        # Per-entry flag: without this reset, one exhausted entry would
        # make every later entry of the same explorer look exhausted too.
        self.budget_exhausted = False
        self.paths_pruned = 0
        if self.relevance is not None:
            self._dead_blocks = self.relevance.dead_blocks(entry)
        else:
            self._dead_blocks = frozenset()
        self.blocks_pruned = len(self._dead_blocks)
        # P1.5 per-entry checker arming: dispatch only checkers whose
        # trigger *and* sink kinds occur in this entry's region (the
        # per-checker refinement of entry pruning — an unarmed checker
        # provably cannot report here, and its cross-entry recordings
        # fire only at events the region does not contain).  Without
        # pruning (`--no-prune`) every checker is dispatched.
        self.manager.set_active(
            self.relevance.armed_names(entry) if self.relevance is not None else None
        )
        # P1.8 per-entry skip set: between entries the graph is empty
        # (the trail unwinds it fully), so reassigning skip_names here is
        # safe — and sound, because the set is derived from exactly the
        # instructions this entry's closure can execute.
        if self.flow_facts is not None and self.graph is not None:
            self.graph.skip_names = self.flow_facts.skip_names_for_entry(entry.name)
        self.ctx.entry_function = entry.name
        mark = self.trail.mark()
        tlen = len(self.trace)
        # After the mark: path-start state (e.g. border-source taint on
        # entry parameters) is trailed and unwinds with the entry, so it
        # can never leak into the next entry this explorer walks.
        for checker in self.manager.active:
            checker.on_path_start(self.ctx)
        frame = self._new_frame(entry, is_entry=True, cont=None)
        self.ctx.frame_id = frame.frame_id
        self._call_stack.append(entry.name)
        self.trace.append(("enter", entry.name, frame.frame_id))
        try:
            with headroom(_PATH_FRAMES):
                self._enter_block(entry.entry, frame)
        except BudgetExceeded:
            self.budget_exhausted = True
        finally:
            self._call_stack.pop()
            self.trail.undo_to(mark)
            del self.trace[tlen:]
            self.value_defs.clear()
            self.addr_defs.clear()
            # load_srcs is deliberately NOT trail-journaled within a path:
            # load provenance is a flow-insensitive per-entry fact ("this
            # temporary was loaded through that pointer somewhere on the
            # walk"), and journaling it per branch would only make
            # _resolve_indirect forget targets on merge-heavy paths.  It
            # must still be cleared *per entry*: stale provenance from a
            # previous entry could resolve a function pointer through
            # another entry's loads.
            self.load_srcs.clear()

    def _new_frame(self, func: Function, is_entry: bool, cont) -> _Frame:
        self._frame_ids += 1
        return _Frame(
            func,
            self._frame_ids,
            is_entry,
            cont,
            store_mark=len(self.store.journal),
            alias_mark=len(self.graph.journal) if self.graph is not None else 0,
        )

    # -- block / instruction walk -------------------------------------------------------

    def _enter_block(self, block: BasicBlock, frame: _Frame) -> None:
        if frame.is_entry and block.uid in self._dead_blocks:
            # P1.5 block pruning: no armed checker's sink is reachable
            # from here, so no report can fire on any suffix — the path
            # ends, report-identically to exploring the dead region.
            self.paths_pruned += 1
            return
        visits = frame.block_visits.get(block.uid, 0)
        if visits >= self.config.max_block_visits:
            # Loop bound reached: the path dies here (paper's unroll-once).
            return
        if self._path_depth >= MAX_PATH_DEPTH:
            raise BudgetExceeded("path depth")
        frame.block_visits[block.uid] = visits + 1
        self._path_depth += 1
        try:
            self._run_insts(block, 0, frame)
        finally:
            frame.block_visits[block.uid] = visits
            self._path_depth -= 1

    def _run_insts(self, block: BasicBlock, index: int, frame: _Frame) -> None:
        insts = block.instructions
        i = index
        while i < len(insts):
            inst = insts[i]
            self._count_step()
            if isinstance(inst, Call):
                callee = self.program.lookup(inst.callee)
                if callee is not None and self._can_inline(callee):
                    self._inline_call(inst, callee, block, i, frame)
                    return  # the continuation ran inside the callee walk
                self._exec_external_call(inst)
            elif isinstance(inst, CallIndirect) and self.indirect_resolver is not None:
                targets = self._resolve_indirect(inst)
                if targets:
                    # Fork per candidate target, like a branch (§7 ext.).
                    self.trace.append(("inst", inst))
                    for target in targets[: self.config.max_indirect_targets]:
                        self._inline_call(inst, target, block, i, frame)
                    return
                self._exec_simple(inst, frame)
            else:
                self._exec_simple(inst, frame)
            if self.instruction_observer is not None:
                self.instruction_observer(inst, self.graph)
            i += 1
        self._run_terminator(block, frame)

    def _count_step(self) -> None:
        self.steps += 1
        if self.steps > self.config.max_steps_per_entry:
            raise BudgetExceeded("step budget")

    def _can_inline(self, callee: Function) -> bool:
        if callee.is_declaration:
            return False
        if len(self._call_stack) >= self.config.max_call_depth:
            return False
        occurrences = self._call_stack.count(callee.name)
        return occurrences <= self.config.max_recursion_occurrences

    def _resolve_indirect(self, inst: CallIndirect) -> List[Function]:
        """Targets of a function-pointer call, resolved through interface
        registrations by (struct type, field) — the §7 extension."""
        ptr_name = self.load_srcs.get(inst.fn.name)
        if ptr_name is None:
            return []
        base_field = self.addr_defs.get(ptr_name)
        if base_field is None:
            return []
        base, field = base_field
        struct_name = None
        base_ty = base.type
        if isinstance(base_ty, PointerType) and base_ty.pointee is not None and base_ty.pointee.is_struct():
            struct_name = base_ty.pointee.name
        targets = []
        for name in self.indirect_resolver(struct_name, field):
            func = self.program.lookup(name)
            if func is not None and self._can_inline(func):
                targets.append(func)
        return targets

    # -- calls -------------------------------------------------------------------------

    def _inline_call(self, inst: Call, callee: Function, block: BasicBlock, index: int, frame: _Frame) -> None:
        mark = self.trail.mark()
        tlen = len(self.trace)
        new_frame = self._new_frame(callee, is_entry=False, cont=(block, index, frame, inst))
        self.trace.append(("enter", callee.name, new_frame.frame_id))
        for position, param in enumerate(callee.params):
            arg = inst.args[position] if position < len(inst.args) else Const(0)
            self._move_like(param, arg, inst)
            self.trace.append(("param", param, arg))
        self._call_stack.append(callee.name)
        old_frame_id = self.ctx.frame_id
        self.ctx.frame_id = new_frame.frame_id
        try:
            self._enter_block(callee.entry, new_frame)
        finally:
            self.ctx.frame_id = old_frame_id
            self._call_stack.pop()
            self.trail.undo_to(mark)
            del self.trace[tlen:]

    def _move_like(self, dst: Var, src: Value, inst: Instruction) -> None:
        """The MOVE semantics shared by assignments, parameter passing and
        return values (HandleCALL lines 12-21)."""
        if self.graph is not None:
            if isinstance(src, Var):
                self.graph.handle_move(dst, src)
            else:
                self.graph.detach(dst)
        if isinstance(src, Var):
            self.manager.sync_on_move(self.ctx, dst, src)
            if self.ctx.alias_aware:
                # Table 5 accounting: a traditional per-variable tracker
                # would copy every state the source holds to the
                # destination here (the "sync" transitions of Fig. 8a);
                # alias-aware tracking shares the state instead.  Scoped
                # to the active checkers: under per-entry arming the
                # skipped checkers hold no readable state, so their
                # would-be syncs are not work this run avoids.
                names = self.manager.active_namespaces
                if names:
                    key = self.ctx.key(src)
                    store_get = self.store.get
                    for name in names:
                        if store_get(name, key) is not None:
                            self.store.unaware_updates += 1
        else:
            self._na_reset(dst)
            if is_null_const(src):
                if self.manager.wants(AssignNullEvent):
                    self._dispatch(AssignNullEvent(inst, dst))
            elif isinstance(src, Const):
                if self.manager.wants(AssignConstEvent):
                    self._dispatch(AssignConstEvent(inst, dst, value=src.value))

    def _na_reset(self, var: Var) -> None:
        """NA mode: clear stale per-name states on redefinition (alias-aware
        mode gets this for free from the strong node update)."""
        if self.ctx.alias_aware:
            return
        for name in self.manager.checker_names:
            if self.store.get(name, var.name) is not None:
                self.store.set(name, var.name, None)

    def _exec_external_call(self, inst: Call) -> None:
        """A call we do not inline: unknown externals, exceeded depth, or a
        blocked recursive re-entry.  Effects are havocked conservatively."""
        self.trace.append(("inst", inst))
        wants = self.manager.wants
        if wants(ExternalCallEvent):
            self._dispatch(ExternalCallEvent(inst, inst.callee, tuple(inst.args)))
        for arg in inst.args:
            if isinstance(arg, Var):
                if isinstance(arg.type, PointerType):
                    if wants(EscapeEvent):
                        self._dispatch(EscapeEvent(inst, arg, "passed to external"))
                elif wants(UseVarEvent):
                    self._dispatch(UseVarEvent(inst, arg))
        if inst.dst is not None:
            if self.graph is not None:
                self.graph.detach(inst.dst)
            self._na_reset(inst.dst)
            if wants(CallReturnEvent):
                self._dispatch(CallReturnEvent(inst, inst.dst, inst.callee))

    # -- plain instructions -------------------------------------------------------------

    def _exec_simple(self, inst: Instruction, frame: _Frame) -> None:
        self.trace.append(("inst", inst))
        _EXEC_DISPATCH[inst.__class__](self, inst)

    def _exec_move(self, inst: Move) -> None:
        src = inst.src
        self._move_like(inst.dst, src, inst)
        if isinstance(src, Var):
            wants = self.manager.wants
            if wants(UseVarEvent):
                self._dispatch(UseVarEvent(inst, src))
            if inst.dst.is_global and wants(EscapeEvent):
                self._dispatch(EscapeEvent(inst, src, "stored to global"))

    def _exec_load(self, inst: Load) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.dst)
        self.load_srcs[inst.dst.name] = inst.ptr.name
        wants = self.manager.wants
        if wants(DerefEvent):
            self._dispatch(DerefEvent(inst, inst.ptr))
        if wants(LoadEvent):
            self._dispatch(LoadEvent(inst, inst.ptr, inst.dst))

    def _exec_store(self, inst: Store) -> None:
        result_node = apply_instruction(self.graph, inst) if self.graph is not None else None
        wants = self.manager.wants
        if wants(DerefEvent):
            self._dispatch(DerefEvent(inst, inst.ptr))
        src = inst.src
        if isinstance(src, Var):
            if wants(UseVarEvent):
                self._dispatch(UseVarEvent(inst, src))
            if isinstance(src.type, PointerType) and wants(EscapeEvent):
                self._dispatch(EscapeEvent(inst, src, "stored to memory"))
        elif is_null_const(src) and wants(AssignNullEvent):
            self._dispatch(
                AssignNullEvent(
                    inst,
                    _stored_pseudo_var(inst),
                    node_key=result_node.uid if result_node is not None else None,
                )
            )
        if wants(StoreEvent):
            self._dispatch(StoreEvent(inst, inst.ptr, src))

    def _exec_gep(self, inst: Gep) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.dst)
        self.addr_defs[inst.dst.name] = (inst.base, inst.field)
        wants = self.manager.wants
        if wants(DerefEvent):
            self._dispatch(DerefEvent(inst, inst.base))
        if inst.index is not None and wants(IndexEvent):
            self._dispatch(IndexEvent(inst, inst.index))

    def _exec_addr_of(self, inst: AddrOf) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.dst)

    def _exec_binop(self, inst: BinOp) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.dst)
        self.value_defs[inst.dst.name] = inst
        wants = self.manager.wants
        if wants(UseVarEvent):
            for operand in (inst.lhs, inst.rhs):
                if isinstance(operand, Var):
                    self._dispatch(UseVarEvent(inst, operand))
        if inst.op in ("div", "mod") and wants(DivEvent):
            self._dispatch(DivEvent(inst, inst.rhs))
        if wants(AssignConstEvent):
            value = _fold_binop(inst)
            self._dispatch(AssignConstEvent(inst, inst.dst, value=value, op=inst.op))

    def _exec_unop(self, inst: UnOp) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.dst)
        wants = self.manager.wants
        if isinstance(inst.src, Var) and wants(UseVarEvent):
            self._dispatch(UseVarEvent(inst, inst.src))
        if wants(AssignConstEvent):
            value = None
            if isinstance(inst.src, Const) and inst.op == "neg":
                value = -inst.src.value
            self._dispatch(AssignConstEvent(inst, inst.dst, value=value, op=inst.op))

    def _exec_malloc(self, inst: Malloc) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.dst)
        self._dispatch(AllocEvent(inst, inst.dst, heap=True, zeroed=inst.zeroed, may_fail=inst.may_fail))

    def _exec_alloc(self, inst: Alloc) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.dst)
        self._dispatch(AllocEvent(inst, inst.dst, heap=False, zeroed=inst.zeroed, may_fail=False))

    def _exec_decl_local(self, inst: DeclLocal) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._na_reset(inst.var)
        self._dispatch(DeclLocalEvent(inst, inst.var))

    def _exec_memset(self, inst: MemSet) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._dispatch(DerefEvent(inst, inst.ptr))
        self._dispatch(MemInitEvent(inst, inst.ptr))

    def _exec_free(self, inst: Free) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._dispatch(FreeEvent(inst, inst.ptr))

    def _exec_lockop(self, inst: LockOp) -> None:
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        self._dispatch(LockEvent(inst, inst.lock, inst.acquire))

    def _exec_call_indirect(self, inst: CallIndirect) -> None:
        # Not followed (§7); havoc like an external call.
        if self.graph is not None:
            apply_instruction(self.graph, inst)
        for arg in inst.args:
            if isinstance(arg, Var) and isinstance(arg.type, PointerType):
                self._dispatch(EscapeEvent(inst, arg, "passed through function pointer"))
        if inst.dst is not None:
            if self.graph is not None:
                self.graph.detach(inst.dst)
            self._na_reset(inst.dst)
            self._dispatch(CallReturnEvent(inst, inst.dst, "<indirect>"))

    # -- terminators -------------------------------------------------------------------

    def _run_terminator(self, block: BasicBlock, frame: _Frame) -> None:
        term = block.terminator
        if term is None or isinstance(term, Unreachable):
            return  # dead end: the path is abandoned
        if isinstance(term, Ret):
            self._do_return(term, frame)
            return
        if isinstance(term, Jump):
            self._enter_block(term.target, frame)
            return
        assert isinstance(term, Branch)
        for taken, target in ((True, term.then_block), (False, term.else_block)):
            mark = self.trail.mark()
            tlen = len(self.trace)
            self.trace.append(("branch", term, taken))
            self._branch_events(term, taken)
            self._enter_block(target, frame)
            self.trail.undo_to(mark)
            del self.trace[tlen:]

    def _branch_events(self, term: Branch, taken: bool) -> None:
        cond = term.cond
        if not isinstance(cond, Var):
            return
        wants = self.manager.wants
        if not (wants(BranchNullEvent) or wants(BranchCmpEvent)):
            return
        def_inst = self.value_defs.get(cond.name)
        if def_inst is None or not def_inst.is_comparison:
            return
        op = def_inst.op if taken else NEGATED_REL[def_inst.op]
        lhs, rhs = def_inst.lhs, def_inst.rhs
        if isinstance(lhs, Const) and isinstance(rhs, Var):
            lhs, rhs = rhs, lhs
            op = SWAPPED_REL[op]
        if not (isinstance(lhs, Var) and isinstance(rhs, Const)):
            return
        if is_null_const(rhs) or (isinstance(lhs.type, PointerType) and rhs.value == 0):
            if op == "eq":
                self._dispatch(BranchNullEvent(term, lhs, True))
            elif op == "ne":
                self._dispatch(BranchNullEvent(term, lhs, False))
        elif op in _CMP_OPS:
            self._dispatch(BranchCmpEvent(term, lhs, op, rhs.value))

    def _do_return(self, term: Ret, frame: _Frame) -> None:
        value = term.value
        wants = self.manager.wants
        if isinstance(value, Var):
            if wants(UseVarEvent):
                self._dispatch(UseVarEvent(term, value))
            if wants(EscapeEvent):
                self._dispatch(EscapeEvent(term, value, "returned"))
        if wants(ReturnEvent):
            self._dispatch(ReturnEvent(term, value, frame.frame_id, frame.is_entry))
        if frame.is_entry:
            self.paths += 1
            if self.path_end_observer is not None:
                self.path_end_observer(self)
            if self.paths >= self.config.max_paths_per_entry:
                raise BudgetExceeded("path budget")
            return
        if self.config.merge_callee_exits:
            digest = self._exit_digest(frame, value)
            if digest in frame.exit_digests:
                return  # merged with an identical exit state (§4 P2)
            if len(frame.exit_digests) >= self.config.max_callee_exits_per_call:
                return
            frame.exit_digests.add(digest)
        block, index, caller_frame, call_inst = frame.cont
        mark = self.trail.mark()
        tlen = len(self.trace)
        old_frame_id = self.ctx.frame_id
        self.ctx.frame_id = caller_frame.frame_id
        # The callee is conceptually popped while the caller continues.
        popped = self._call_stack.pop()
        try:
            if call_inst.dst is not None:
                ret_value = value if value is not None else Const(0)
                self._move_like(call_inst.dst, ret_value, term)
                self.trace.append(("retval", call_inst.dst, ret_value))
                if isinstance(ret_value, Var):
                    self._dispatch(TransferEvent(term, call_inst.dst, caller_frame.frame_id))
            self.trace.append(("exit", frame.frame_id))
            self._run_insts(block, index + 1, caller_frame)
        finally:
            self._call_stack.append(popped)
            self.ctx.frame_id = old_frame_id
            self.trail.undo_to(mark)
            del self.trace[tlen:]

    def _exit_digest(self, frame: _Frame, value: Optional[Value]):
        """Summarize the callee's externally visible effects: the returned
        value's identity plus every typestate/alias binding it touched.

        Alias-node uids are fresh on every path, so digests canonicalize
        node-keyed entries by the *variable-name group* of the node —
        two exits whose effects group the same names the same way with
        the same states are indistinguishable to the caller.
        """
        # Names visible to the caller: anything in a frame still on the
        # call stack (minus the exiting callee) plus globals.  Callee
        # locals and temporaries are out of scope once it returns.
        visible_fns = set(self._call_stack)
        visible_fns.discard(frame.func.name)

        def visible(name: str) -> bool:
            if name.startswith("@"):
                return True
            fn = name[1:] if name.startswith("%") else name
            return fn.split(".", 1)[0] in visible_fns

        def group_of(node) -> Tuple[str, ...]:
            return tuple(sorted(n for n in node.vars if visible(n)))

        if isinstance(value, Const):
            ret_part = ("c", value.value)
        elif isinstance(value, Var):
            if self.graph is not None:
                if value.name in self.graph.skip_names:
                    # A skipped singleton's node would be the isolated
                    # {value.name} node — same canonical group.
                    ret_part = ("n", (value.name,) if visible(value.name) else ())
                else:
                    ret_part = ("n", group_of(self.graph.node_of(value)))
            else:
                ret_part = ("v", value.name)
        else:
            ret_part = ("void",)

        touched_states = set()
        for key in set(self.store.journal[frame.store_mark:]):
            canonical = self._canonical_node_key(key[1], group_of, visible)
            if canonical is None:
                continue  # state on a node the caller cannot reach
            touched_states.add(((key[0], canonical), self.store.get(key[0], key[1])))

        alias_part = set()
        if self.graph is not None:
            for name in set(self.graph.journal[frame.alias_mark:]):
                if not visible(name):
                    continue
                node = self.graph.node_of_name(name)
                if node is None:
                    alias_part.add((name, None, None))
                else:
                    alias_part.add((name, group_of(node), tuple(sorted(node.out))))
        return (ret_part, frozenset(touched_states), frozenset(alias_part))

    def _canonical_node_key(self, key, group_of, visible):
        """Stable form of a typestate key: node uids become the node's
        caller-visible name group; None when the node has no visible name
        (its state cannot affect the caller's continuation).

        P1.7 skip keys ``("s", name, gen)`` canonicalize bijectively with
        the node they stand in for: the current generation is the live
        isolated ``{name}`` node (group ``(name,)`` when visible), a
        stale generation is a detached varless node (``None``).
        """
        if self.graph is None or not isinstance(key, int):
            if (
                isinstance(key, tuple) and len(key) == 3 and key[0] == "s"
                and self.graph is not None and key[1] in self.graph.skip_names
            ):
                name, gen = key[1], key[2]
                if gen != self.graph.skip_generation(name):
                    return None
                return (name,) if visible(name) else None
            return key if not isinstance(key, str) or visible(key) else None
        node = self.graph.by_uid.get(key)
        if node is None:
            return None
        group = group_of(node)
        return group if group else None


#: exact-type dispatch for the hot instruction loop (the per-step
#: isinstance chain was a measurable share of exploration time): a row
#: for every instruction class but ``Call``, which the walk handles
#: before it reaches :meth:`PathExplorer._exec_simple`
_EXEC_DISPATCH = {
    Move: PathExplorer._exec_move,
    Load: PathExplorer._exec_load,
    Store: PathExplorer._exec_store,
    Gep: PathExplorer._exec_gep,
    AddrOf: PathExplorer._exec_addr_of,
    BinOp: PathExplorer._exec_binop,
    UnOp: PathExplorer._exec_unop,
    Malloc: PathExplorer._exec_malloc,
    Alloc: PathExplorer._exec_alloc,
    DeclLocal: PathExplorer._exec_decl_local,
    MemSet: PathExplorer._exec_memset,
    Free: PathExplorer._exec_free,
    LockOp: PathExplorer._exec_lockop,
    CallIndirect: PathExplorer._exec_call_indirect,
}


def _stored_pseudo_var(inst: Store) -> Var:
    """NPD needs a key for "the location ``*ptr``" when NULL is stored
    through a pointer.  We derive a deterministic pseudo-variable name so
    later loads from the same location (which join the same alias node in
    aware mode) can see the null state."""
    return Var(f"*{inst.ptr.name}", inst.src.type)


def _fold_binop(inst: BinOp) -> Optional[int]:
    if isinstance(inst.lhs, Const) and isinstance(inst.rhs, Const):
        from ..smt.terms import _apply_op

        try:
            return _apply_op(inst.op, [inst.lhs.value, inst.rhs.value])
        except ValueError:
            return None
    return None
