"""Translation of a recorded bug path into SMT-lite constraints (§3.3).

Implements Table 3 with the alias-aware symbol mapping of Definitions 4/5:
a fresh :class:`~repro.smt.terms.Sym` is allocated per *alias-graph node*,
so every variable in one alias set shares one symbol and the explicit
``R'(p)==R'(q)`` constraints (and the per-field implicit ones) of Fig. 9(b)
are never materialized.  The translator replays the path on a fresh alias
graph; strong updates naturally give SSA-style fresh symbols because an
assigned variable moves to a new node.  The replay graph skips no name:
the P1.7/P1.8 skip sets feed P2's per-path graphs only, so a bug's
constraint system does not depend on the ``--alias-tier`` rung.

The trace consumed here is produced by the engine as a sequence of tagged
tuples:

- ``("inst", Instruction)`` — a non-branch instruction;
- ``("branch", Branch, taken)`` — a resolved conditional;
- ``("param", Var, Value)`` / ``("retval", Var, Value)`` — the MOVEs of
  call/return boundaries (HandleCALL, Fig. 6);
- ``("enter", name, frame_id)`` / ``("exit", frame_id)`` — frame markers
  (ignored here).

For Table 5's accounting the translator also counts what an alias-*unaware*
translation would have emitted: one explicit equality per MOVE-like step
plus one implicit equality per materialized field of the source's alias
class (the Fig. 9 example).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..alias import AliasGraph
from ..ir import (
    AddrOf,
    Alloc,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    Const,
    DeclLocal,
    Gep,
    Load,
    Malloc,
    Move,
    PointerType,
    Store,
    UnOp,
    Value,
    Var,
)
from ..presolve.events import TAINT_SOURCE_HINTS
from .terms import App, Atom, Num, Sym, Term


@dataclass
class Translation:
    """Constraints for one path plus the Table 5 counters."""

    atoms: List[Atom] = field(default_factory=list)
    aware_constraints: int = 0
    unaware_constraints: int = 0
    symbols_used: int = 0


class PathTranslator:
    """Replays one trace on a fresh alias graph, building constraints.
    Single use."""

    def __init__(self):
        self.graph = AliasGraph()
        self.result = Translation()
        #: comparison definitions: node uid -> (op, lhs term, rhs term)
        self._cmp_defs: Dict[int, Tuple[str, Term, Term]] = {}
        #: branches already constrained once (loop re-entries are havocked:
        #: PATA "fails to check loop conditions for multiple iterations",
        #: §5.2 — re-encounters of one branch add no constraint)
        self._seen_branches: set = set()
        self._symbols: set = set()

    # -- term helpers ------------------------------------------------------------

    def _sym(self, node) -> Sym:
        self._symbols.add(node.uid)
        return Sym(node.uid)

    def _detach_sym(self, dst: Var) -> Sym:
        """Strong-update ``dst`` and return the symbol of its new version."""
        return self._sym(self.graph.detach(dst))

    def term_of(self, value: Value) -> Term:
        if isinstance(value, Const):
            return Num(value.value)
        assert isinstance(value, Var)
        return self._sym(self.graph.node_of(value))

    def _emit(self, atom: Atom) -> None:
        self.result.atoms.append(atom)
        self.result.aware_constraints += 1
        self.result.unaware_constraints += 1

    def _count_move_unaware(self, src: Value) -> None:
        """An alias-unaware translation emits R'(dst)==R'(src) plus one
        implicit equality per known field of the source's class."""
        self.result.unaware_constraints += 1
        if isinstance(src, Var):
            self.result.unaware_constraints += len(self.graph.node_of(src).out)

    # -- step dispatch ------------------------------------------------------------

    def step(self, entry: Tuple) -> None:
        tag = entry[0]
        if tag == "inst":
            self._step_inst(entry[1])
        elif tag == "branch":
            self._step_branch(entry[1], entry[2])
        elif tag in ("param", "retval"):
            self._step_move_like(entry[1], entry[2])
        # "enter"/"exit" markers carry no constraints.

    def _step_move_like(self, dst: Var, src: Value) -> None:
        self._count_move_unaware(src)
        if isinstance(src, Var):
            self.graph.handle_move(dst, src)  # same symbol: no constraint
        else:
            self._emit(Atom("eq", self._detach_sym(dst), Num(src.value)))

    def _step_inst(self, inst) -> None:
        if isinstance(inst, Move):
            self._step_move_like(inst.dst, inst.src)
        elif isinstance(inst, Load):
            self._count_move_unaware(inst.ptr)
            self.graph.handle_load(inst.dst, inst.ptr)
        elif isinstance(inst, Store):
            self._count_move_unaware(inst.src)
            if isinstance(inst.src, Var):
                self.graph.handle_store(inst.ptr, inst.src)
            else:
                node = self.graph.handle_store_fresh(inst.ptr)
                self._emit(Atom("eq", self._sym(node), Num(inst.src.value)))
        elif isinstance(inst, Gep):
            self.result.unaware_constraints += 1
            self.graph.handle_gep(inst.dst, inst.base, inst.field)
        elif isinstance(inst, AddrOf):
            self.result.unaware_constraints += 1
            node = self.graph.handle_addr_of(inst.dst, inst.var)
            # An address of a real object is never NULL.
            self._emit(Atom("ne", self._sym(node), Num(0)))
        elif isinstance(inst, BinOp):
            self._step_binop(inst)
        elif isinstance(inst, UnOp):
            operand = self.term_of(inst.src)
            sym = self._detach_sym(inst.dst)
            op = "neg" if inst.op == "neg" else "not"
            self._emit(Atom("eq", sym, App(op, (operand,))))
        elif isinstance(inst, Malloc):
            node = self.graph.handle_fresh_object(inst.dst)
            if not inst.may_fail:
                self._emit(Atom("ne", self._sym(node), Num(0)))
        elif isinstance(inst, Alloc):
            node = self.graph.handle_fresh_object(inst.dst)
            self._emit(Atom("ne", self._sym(node), Num(0)))
        elif isinstance(inst, DeclLocal):
            self.graph.detach(inst.var)
        elif isinstance(inst, (Call, CallIndirect)):
            if isinstance(inst, Call) and any(
                hint in inst.callee for hint in TAINT_SOURCE_HINTS
            ):
                self._havoc_source_pointees(inst)
            if inst.dst is not None:
                self.graph.detach(inst.dst)  # unknown return value
        # Free / MemSet / LockOp constrain nothing.

    def _havoc_source_pointees(self, inst: Call) -> None:
        """A user-input source call overwrites its out-buffers: drop every
        constraint on the region behind each pointer argument by moving
        the whole pointee alias class to a fresh (unconstrained) node.

        Without this, ``int chunk = 1; copy_from_user(&chunk, ...)`` would
        keep ``chunk == 1`` alive and wrongly discharge the taint
        checker's out-of-range atom at a later ``total / chunk`` sink.
        ``handle_store_fresh`` alone only retargets the ``*`` edge — the
        pointee's *variables* must migrate too, so later reads of any
        alias (``chunk`` itself) see the fresh symbol.
        """
        for arg in inst.args:
            if not (isinstance(arg, Var) and isinstance(arg.type, PointerType)):
                continue
            pointee = self.graph.deref_node(arg)
            fresh = self.graph.handle_store_fresh(arg)
            if pointee is not None:
                for name in list(pointee.vars):
                    self.graph._move_var(name, pointee, fresh)

    def _step_binop(self, inst: BinOp) -> None:
        lhs = self.term_of(inst.lhs)
        rhs = self.term_of(inst.rhs)
        uid = self.graph.detach(inst.dst).uid
        if inst.is_comparison:
            # The comparison constrains nothing by itself; the branch that
            # consumes it will (Tstm(brt/brf) of Table 3).
            self._cmp_defs[uid] = (inst.op, lhs, rhs)
        else:
            self._symbols.add(uid)
            self._emit(Atom("eq", Sym(uid), App(inst.op, (lhs, rhs))))

    def _step_branch(self, branch: Branch, taken: bool) -> None:
        occurrence_key = (branch.uid, taken)
        if branch.uid in self._seen_branches:
            # Loop re-entry: no constraint (havoc), see class docstring.
            return
        self._seen_branches.add(branch.uid)
        cond = branch.cond
        if isinstance(cond, Const):
            return
        uid = self.graph.node_of(cond).uid
        cmp_def = self._cmp_defs.get(uid)
        if cmp_def is not None:
            op, lhs, rhs = cmp_def
            atom = Atom(op, lhs, rhs)
        else:
            self._symbols.add(uid)
            atom = Atom("ne", Sym(uid), Num(0))
        self._emit(atom if taken else atom.negated())

    # -- entry point ----------------------------------------------------------------

    def translate(
        self,
        trace: Sequence[Tuple],
        extra_requirement: Optional[Tuple[str, str, int]] = None,
    ) -> Translation:
        for entry in trace:
            self.step(entry)
        if extra_requirement is not None:
            op, var_name, const = extra_requirement
            node = self.graph.node_of_name(var_name)
            if node is not None:
                self._emit(Atom(op, self._sym(node), Num(const)))
            # An unseen variable is unconstrained: requirement trivially
            # satisfiable, nothing to emit.
        self.result.symbols_used = len(self._symbols)
        return self.result


class NaPathTranslator:
    """Alias-*unaware* translation (Fig. 9(b)): one symbol per variable
    version, explicit ``R'(dst)==R'(src)`` equalities for every MOVE-like
    step, and no memory tracking — loads produce unconstrained fresh
    symbols.  Used by PATA-NA (Table 6) and the CSA-like baseline: alias-
    implied contradictions are invisible, so more infeasible paths
    survive validation.
    """

    def __init__(self):
        self.result = Translation()
        self._env: Dict[str, Sym] = {}
        self._counter = 0
        self._cmp_defs: Dict[str, Tuple[str, Term, Term]] = {}
        self._seen_branches: set = set()

    def _fresh(self, name: str) -> Sym:
        self._counter += 1
        self.result.symbols_used += 1
        sym = Sym(self._counter, hint=f"{name}#{self._counter}")
        self._env[name] = sym
        return sym

    def term_of(self, value: Value) -> Term:
        if isinstance(value, Const):
            return Num(value.value)
        assert isinstance(value, Var)
        sym = self._env.get(value.name)
        return sym if sym is not None else self._fresh(value.name)

    def _emit(self, atom: Atom) -> None:
        self.result.atoms.append(atom)
        self.result.aware_constraints += 1
        self.result.unaware_constraints += 1

    def step(self, entry: Tuple) -> None:
        tag = entry[0]
        if tag == "branch":
            branch, taken = entry[1], entry[2]
            if branch.uid in self._seen_branches:
                return
            self._seen_branches.add(branch.uid)
            cond = branch.cond
            if isinstance(cond, Const):
                return
            cmp_def = self._cmp_defs.get(cond.name)
            atom = (
                Atom(cmp_def[0], cmp_def[1], cmp_def[2])
                if cmp_def is not None
                else Atom("ne", self.term_of(cond), Num(0))
            )
            self._emit(atom if taken else atom.negated())
            return
        if tag in ("param", "retval"):
            dst, src = entry[1], entry[2]
            src_term = self.term_of(src)
            self._emit(Atom("eq", self._fresh(dst.name), src_term))
            return
        if tag != "inst":
            return
        inst = entry[1]
        if isinstance(inst, Move):
            src_term = self.term_of(inst.src)
            self._emit(Atom("eq", self._fresh(inst.dst.name), src_term))
        elif isinstance(inst, BinOp):
            lhs = self.term_of(inst.lhs)
            rhs = self.term_of(inst.rhs)
            sym = self._fresh(inst.dst.name)
            if inst.is_comparison:
                self._cmp_defs[inst.dst.name] = (inst.op, lhs, rhs)
            else:
                self._emit(Atom("eq", sym, App(inst.op, (lhs, rhs))))
        elif isinstance(inst, UnOp):
            operand = self.term_of(inst.src)
            op = "neg" if inst.op == "neg" else "not"
            self._emit(Atom("eq", self._fresh(inst.dst.name), App(op, (operand,))))
        elif isinstance(inst, Alloc):
            self._emit(Atom("ne", self._fresh(inst.dst.name), Num(0)))
        elif isinstance(inst, Malloc):
            sym = self._fresh(inst.dst.name)
            if not inst.may_fail:
                self._emit(Atom("ne", sym, Num(0)))
        else:
            dst = inst.defined_var() if hasattr(inst, "defined_var") else None
            if dst is not None:
                self._fresh(dst.name)  # unconstrained (memory/unknown)

    def translate(
        self,
        trace: Sequence[Tuple],
        extra_requirement: Optional[Tuple[str, str, int]] = None,
    ) -> Translation:
        for entry in trace:
            self.step(entry)
        if extra_requirement is not None:
            op, var_name, const = extra_requirement
            sym = self._env.get(var_name)
            if sym is not None:
                self._emit(Atom(op, sym, Num(const)))
        return self.result


def translate_trace(
    trace: Sequence[Tuple],
    extra_requirement: Optional[Tuple[str, str, int]] = None,
    alias_aware: bool = True,
) -> Translation:
    """Translate one recorded path into SMT-lite constraints."""
    if alias_aware:
        return PathTranslator().translate(trace, extra_requirement)
    return NaPathTranslator().translate(trace, extra_requirement)


def _trace_defined_globals(trace: Sequence[Tuple]) -> set:
    """Global names a trace may (re)define: direct definition targets,
    call-boundary moves, and address-taken globals (``&g`` lets later
    stores write ``g`` through a pointer)."""
    names = set()
    for entry in trace:
        tag = entry[0]
        if tag in ("param", "retval"):
            dst = entry[1]
            if isinstance(dst, Var) and dst.is_global:
                names.add(dst.name)
        elif tag == "inst":
            inst = entry[1]
            if isinstance(inst, AddrOf) and inst.var.is_global:
                names.add(inst.var.name)
            dst = inst.defined_var()
            if isinstance(dst, Var) and dst.is_global:
                names.add(dst.name)
    return names


@dataclass
class _Replay:
    """One alias-aware replay of one trace, as pair translation reads it:
    its translation, and the symbol of every global it may bridge — bound
    exactly once on the replay (only ever read, so one symbol denotes its
    value on the whole path) and never defined by the trace."""

    translation: Translation
    bridgeable: Dict[str, Sym]


def _replay(trace, extra_requirement) -> _Replay:
    translator = PathTranslator()
    translation = translator.translate(trace, extra_requirement)
    binds = Counter(name for name in translator.graph.journal if name.startswith("@"))
    defined = _trace_defined_globals(trace)
    bridgeable = {}
    for name, count in binds.items():
        node = translator.graph.node_of_name(name)
        if count == 1 and node is not None and name not in defined:
            bridgeable[name] = Sym(node.uid)
    return _Replay(translation, bridgeable)


def translate_trace_pair(
    trace_a: Sequence[Tuple],
    trace_b: Sequence[Tuple],
    alias_aware: bool = True,
    extra_requirement_b=None,
    replays: Optional[dict] = None,
) -> Translation:
    """Translate two independently recorded paths into one *joint*
    constraint set — stage 2 for pair findings (the race detector's
    P2.5 matches).

    Each trace replays on its own translator, so their symbol spaces
    are disjoint (alias-node uids are globally unique; the NA replay
    offsets the second translator's counter).  The two worlds are then
    **bridged**: a global that both paths read but neither may write is
    one shared cell whose value neither execution changes, so its two
    symbols are equated.  That single equality is what lets a
    contradiction cross paths — a writer guarded by ``flag != 0`` and a
    reader guarded by ``flag == 0`` become jointly UNSAT, and the pair
    is discharged where a lockset-only tool keeps it.

    Bridging is deliberately conservative: a global that either trace
    defines, receives at a call boundary, or takes the address of stays
    unbridged (its value may legitimately differ between the paths), as
    does one the replay rebinds.  Fewer bridges mean fewer provable
    contradictions — errors fall toward *keeping* the report, matching
    the filter's "only a proven contradiction silences a finding"
    contract.

    ``extra_requirement_b`` is an out-of-range atom ("op", var, const)
    interpreted in the *second* trace's world — the sink side of a P2.6
    cross-module taint pair.  It must be satisfiable together with both
    path conditions and the bridges, so a range check dominating the
    sink discharges the pair exactly like the single-trace case.

    ``replays`` is a memo of alias-aware replays the caller keeps for
    the pairs of one run.  It is keyed by the trace object's identity
    and the extra requirement, and holds the trace so its identity is
    not reused while it lives.  A memoized replay keeps its
    symbols, so two pairs sharing a trace get constraint systems equal
    up to renaming to what fresh replays give; the symbol spaces of one
    pair's two replays stay disjoint, except for a trace paired with
    itself, which therefore replays afresh.
    """
    if alias_aware:
        def replay(trace, extra):
            if replays is None or trace_a is trace_b:
                return _replay(trace, extra)
            key = (id(trace), extra)
            hit = replays.get(key)
            if hit is None:
                hit = replays[key] = (trace, _replay(trace, extra))
            return hit[1]

        first = replay(trace_a, None)
        second = replay(trace_b, extra_requirement_b)
        result_a, result_b = first.translation, second.translation
        bridges = [
            Atom("eq", sym, second.bridgeable[name])
            for name, sym in sorted(first.bridgeable.items())
            if name in second.bridgeable
        ]
    else:
        defined = _trace_defined_globals(trace_a) | _trace_defined_globals(trace_b)
        bridges = []
        first = NaPathTranslator()
        result_a = first.translate(trace_a)
        second = NaPathTranslator()
        second._counter = first._counter  # keep the symbol spaces disjoint
        result_b = second.translate(trace_b, extra_requirement_b)
        for name in sorted(first._env):
            if not name.startswith("@") or name in defined:
                continue
            sym_b = second._env.get(name)
            if sym_b is not None:
                bridges.append(Atom("eq", first._env[name], sym_b))
    return Translation(
        atoms=result_a.atoms + result_b.atoms + bridges,
        aware_constraints=result_a.aware_constraints + result_b.aware_constraints + len(bridges),
        unaware_constraints=result_a.unaware_constraints + result_b.unaware_constraints + len(bridges),
        symbols_used=result_a.symbols_used + result_b.symbols_used,
    )
