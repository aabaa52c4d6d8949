"""SVF-Null baseline: the paper replaces PATA's path-based alias analysis
with SVF's flow-sensitive points-to analysis and detects null-pointer
dereferences with it (§6).

Implementation: a per-function flow-sensitive null-state dataflow (like
the Smatch regime) whose state is *shared across may-aliases according to
flow-sensitive points-to sets*.  The two characteristic failure modes of
Table 8 fall out:

* interface-function parameters have empty points-to sets, so the
  aliases that matter for the Fig. 1/Fig. 3 bugs are invisible (misses);
* may-alias is coarse — any two pointers sharing one object share null
  states, merging states of pointers that differ on the analyzed path
  (false positives).

Shares the points-to memory budget (OOM on the Linux-profile corpus).

The flow-sensitive points-to pass is
:class:`repro.pointsto.flow_sensitive.FlowSensitivePointsTo`: top-level
strong updates, weak memory.  This baseline is its only client and the
PATA engine never runs it, so baseline findings are pinned regardless
of ``--alias-tier``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg import predecessors, reverse_postorder
from ..ir import (
    Alloc,
    BinOp,
    Branch,
    Call,
    Function,
    Gep,
    Load,
    Malloc,
    Move,
    PointerType,
    Program,
    Store,
    Var,
    is_null_const,
)
from ..pointsto import AndersenPointsTo, FlowSensitivePointsTo, MemoryBudgetExceeded
from ..typestate import BugKind
from .base import BaselineTool, ToolFinding, _OOMSignal
from .saber_like import DEFAULT_PTS_BUDGET
from .smatch_like import _MAYBE, _NONNULL, _NULL, _TOP, _join


class SVFNull(BaselineTool):
    """The SVF-Null regime; see the module docstring."""

    name = "svf-null"
    supported_kinds = (BugKind.NPD,)

    def __init__(self, max_pts_entries: Optional[int] = DEFAULT_PTS_BUDGET):
        self.max_pts_entries = max_pts_entries

    def _run(self, program: Program) -> List[ToolFinding]:
        try:
            base = AndersenPointsTo(program, self.max_pts_entries).solve()
            fspta = FlowSensitivePointsTo(base)
        except MemoryBudgetExceeded as exc:
            raise _OOMSignal(str(exc))
        findings: List[ToolFinding] = []
        for func in program.functions():
            findings.extend(self._check_function(func, base, fspta))
        return findings

    def _check_function(
        self, func: Function, base: AndersenPointsTo, fspta: FlowSensitivePointsTo
    ) -> List[ToolFinding]:
        if func.is_declaration:
            return []
        findings: List[ToolFinding] = []
        reported: Set[int] = set()
        order = reverse_postorder(func)
        preds = predecessors(func)
        cmp_defs: Dict[str, BinOp] = {}
        edge_facts: Dict[Tuple[int, int], Tuple[str, str]] = {}
        for block in func.blocks:
            for inst in block.instructions:
                if isinstance(inst, BinOp) and inst.is_comparison:
                    cmp_defs[inst.dst.name] = inst
            term = block.terminator
            if isinstance(term, Branch) and isinstance(term.cond, Var):
                cmp = cmp_defs.get(term.cond.name)
                if cmp is None:
                    continue
                lhs, rhs = cmp.lhs, cmp.rhs
                if isinstance(rhs, Var) and not isinstance(lhs, Var):
                    lhs, rhs = rhs, lhs
                if isinstance(lhs, Var) and (
                    is_null_const(rhs)
                    or (isinstance(lhs.type, PointerType) and getattr(rhs, "value", None) == 0)
                ):
                    if cmp.op == "eq":
                        edge_facts[(block.uid, term.then_block.uid)] = (lhs.name, _NULL)
                        edge_facts[(block.uid, term.else_block.uid)] = (lhs.name, _NONNULL)
                    elif cmp.op == "ne":
                        edge_facts[(block.uid, term.then_block.uid)] = (lhs.name, _NONNULL)
                        edge_facts[(block.uid, term.else_block.uid)] = (lhs.name, _NULL)

        out_states: Dict[int, Dict[str, str]] = {}
        for round_no in range(6):
            changed = False
            for block in order:
                state: Dict[str, str] = {}
                for pred in preds[block]:
                    pstate = dict(out_states.get(pred.uid, {}))
                    fact = edge_facts.get((pred.uid, block.uid))
                    if fact is not None:
                        pstate[fact[0]] = fact[1]
                        # Share the refinement with may-aliases: this is the
                        # points-to-based alias sync — and the coarse-merge
                        # false-positive source.
                        for other, other_state in list(pstate.items()):
                            if other != fact[0] and fspta.may_alias_at(func, pred.uid, other, fact[0]):
                                pstate[other] = fact[1]
                    for name, value in pstate.items():
                        state[name] = _join(state.get(name, _TOP), value, _MAYBE)
                report = round_no == 5
                out = self._transfer(func, block, state, fspta, findings, reported, report)
                if out_states.get(block.uid) != out:
                    out_states[block.uid] = out
                    changed = True
            if not changed and round_no >= 1:
                for block in order:
                    in_state: Dict[str, str] = {}
                    for pred in preds[block]:
                        pstate = dict(out_states.get(pred.uid, {}))
                        fact = edge_facts.get((pred.uid, block.uid))
                        if fact is not None:
                            pstate[fact[0]] = fact[1]
                        for name, value in pstate.items():
                            in_state[name] = _join(in_state.get(name, _TOP), value, _MAYBE)
                    self._transfer(func, block, in_state, fspta, findings, reported, True)
                break
        return findings

    def _transfer(self, func, block, state, fspta, findings, reported, report) -> Dict[str, str]:
        state = dict(state)
        for inst in block.instructions:
            if isinstance(inst, Move):
                if is_null_const(inst.src):
                    state[inst.dst.name] = _NULL
                elif isinstance(inst.src, Var):
                    state[inst.dst.name] = state.get(inst.src.name, _TOP)
                else:
                    state[inst.dst.name] = _NONNULL
            elif isinstance(inst, (Load, Gep, Store)):
                ptr = inst.base if isinstance(inst, Gep) else inst.ptr
                if report and state.get(ptr.name) == _NULL and inst.uid not in reported:
                    reported.add(inst.uid)
                    findings.append(
                        ToolFinding(
                            BugKind.NPD,
                            inst.loc.filename,
                            inst.loc.line,
                            f"'{ptr.name.split('.')[-1]}' may be NULL (points-to aliasing)",
                            func.name,
                        )
                    )
                    state[ptr.name] = _MAYBE
                dst = inst.defined_var()
                if dst is not None:
                    state[dst.name] = _TOP
            elif isinstance(inst, Malloc):
                state[inst.dst.name] = _MAYBE if inst.may_fail else _NONNULL
            elif isinstance(inst, Alloc):
                state[inst.dst.name] = _NONNULL
            elif isinstance(inst, Call) and inst.dst is not None:
                state[inst.dst.name] = _TOP
        return state
