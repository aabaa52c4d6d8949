"""Infer-regime baseline: inter-procedural function *summaries* computed
bottom-up over the call graph, then a per-function, path-insensitive
consumption pass (biabduction approximated by may-facts) (§6).

Summaries per function:

* ``may_return_null`` — some path returns NULL or an unchecked fallible
  allocation;
* ``derefs_param[i]`` — parameter ``i`` is dereferenced without a
  dominating null check (a precondition, in biabduction terms);
* ``frees_param[i]`` / ``returns_fresh_alloc`` — ownership facts for the
  leak checker.

Reproduced weaknesses (per the paper): no path conditions on callee
return values — a caller that null-checks via a separate flag still gets
a report; aliasing only through direct copies; error-path leaks that
free on *some* path are missed (path-insensitive ownership).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..ir import (
    BinOp,
    Branch,
    Call,
    DeclLocal,
    Free,
    Function,
    Gep,
    Load,
    Malloc,
    Move,
    PointerType,
    Program,
    Ret,
    Store,
    Var,
    is_null_const,
)
from ..typestate import BugKind
from .base import BaselineTool, ToolFinding
from .cppcheck_like import blocks_reachable_from, deref_sites, null_tests


@dataclass
class _Summary:
    may_return_null: bool = False
    returns_fresh_alloc: bool = False
    derefs_params: Set[int] = field(default_factory=set)
    frees_params: Set[int] = field(default_factory=set)


class InferLike(BaselineTool):
    """The Infer regime; see the module docstring."""

    name = "infer-like"

    def _run(self, program: Program) -> List[ToolFinding]:
        summaries = self._compute_summaries(program)
        findings: List[ToolFinding] = []
        for func in program.functions():
            findings.extend(_consume(func, program, summaries))
        return findings

    def _compute_summaries(self, program: Program) -> Dict[str, _Summary]:
        summaries: Dict[str, _Summary] = {}
        for _ in range(3):  # bottom-up fixpoint, bounded
            changed = False
            for func in program.functions():
                summary = _summarize(func, summaries)
                if summaries.get(func.name) != summary:
                    summaries[func.name] = summary
                    changed = True
            if not changed:
                break
        return summaries


def _summarize(func: Function, summaries: Dict[str, _Summary]) -> _Summary:
    summary = _Summary()
    param_names = {p.name: i for i, p in enumerate(func.params)}
    null_checked: Set[str] = {name for name, _, _ in null_tests(func)}
    fallible: Set[str] = set()
    fresh: Set[str] = set()
    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, Malloc):
                if inst.may_fail:
                    fallible.add(inst.dst.name)
                fresh.add(inst.dst.name)
            elif isinstance(inst, Move) and isinstance(inst.src, Var):
                if inst.src.name in fallible:
                    fallible.add(inst.dst.name)
                if inst.src.name in fresh:
                    fresh.add(inst.dst.name)
            elif isinstance(inst, (Load, Store, Gep)):
                ptr = inst.base if isinstance(inst, Gep) else inst.ptr
                index = param_names.get(ptr.name)
                if index is not None and ptr.name not in null_checked:
                    summary.derefs_params.add(index)
            elif isinstance(inst, Free):
                index = param_names.get(inst.ptr.name)
                if index is not None:
                    summary.frees_params.add(index)
            elif isinstance(inst, Call):
                callee = summaries.get(inst.callee)
                if callee is not None and inst.dst is not None:
                    if callee.may_return_null:
                        fallible.add(inst.dst.name)
                    if callee.returns_fresh_alloc:
                        fresh.add(inst.dst.name)
        term = block.terminator
        if isinstance(term, Ret) and term.value is not None:
            if is_null_const(term.value):
                summary.may_return_null = True
            elif isinstance(term.value, Var):
                if term.value.name in fallible:
                    summary.may_return_null = True
                if term.value.name in fresh:
                    summary.returns_fresh_alloc = True
    return summary


def _consume(func: Function, program: Program, summaries: Dict[str, _Summary]) -> List[ToolFinding]:
    findings: List[ToolFinding] = []
    reported: Set = set()

    def report(kind: BugKind, inst, message: str) -> None:
        key = (kind, inst.uid)
        if key in reported:
            return
        reported.add(key)
        findings.append(ToolFinding(kind, inst.loc.filename, inst.loc.line, message, func.name))

    maybe_null: Dict[str, object] = {}
    checked: Set[str] = set()
    # Null-branch dereferences: biabduction derives "p != NULL" as the
    # precondition of a deref; a deref exclusively inside p's NULL arm
    # violates it outright.
    for ptr_name, null_block, nonnull_block in null_tests(func):
        null_region = blocks_reachable_from(null_block)
        nonnull_region = blocks_reachable_from(nonnull_block)
        exclusive = null_region - nonnull_region
        for deref_name, inst, block in deref_sites(func):
            if deref_name == ptr_name and block.uid in exclusive:
                report(
                    BugKind.NPD, inst,
                    f"'{ptr_name.split('.')[-1]}' is NULL on this branch and dereferenced",
                )
    allocations: Dict[str, object] = {}
    freed: Set[str] = set()
    escaped: Set[str] = set()
    uninit: Set[str] = set()
    for name, _, _ in null_tests(func):
        checked.add(name)
    for block in func.blocks:
        for inst in block.instructions:
            if isinstance(inst, Call):
                summary = summaries.get(inst.callee)
                if inst.dst is not None and summary is not None and summary.may_return_null:
                    maybe_null[inst.dst.name] = inst
                if inst.dst is not None and summary is not None and summary.returns_fresh_alloc:
                    allocations[inst.dst.name] = inst
                if summary is not None:
                    for i, arg in enumerate(inst.args):
                        if not isinstance(arg, Var):
                            continue
                        if i in summary.derefs_params and arg.name in maybe_null and arg.name not in checked:
                            report(
                                BugKind.NPD, inst,
                                f"'{arg.name.split('.')[-1]}' may be NULL and callee "
                                f"'{inst.callee}' dereferences it",
                            )
                        if i in summary.frees_params:
                            freed.add(arg.name)
                for arg in inst.args:
                    if isinstance(arg, Var):
                        escaped.add(arg.name)
                        if arg.name in uninit:
                            report(BugKind.UVA, inst, f"'{arg.name.split('.')[-1]}' used uninitialized")
                            uninit.discard(arg.name)
            elif isinstance(inst, Malloc):
                if inst.may_fail:
                    maybe_null[inst.dst.name] = inst
                allocations[inst.dst.name] = inst
            elif isinstance(inst, Move):
                if isinstance(inst.src, Var):
                    if inst.src.name in maybe_null:
                        maybe_null[inst.dst.name] = maybe_null[inst.src.name]
                    if inst.src.name in allocations:
                        if inst.dst.is_global:
                            escaped.add(inst.src.name)
                        else:
                            # Direct copies transfer ownership to the new name.
                            allocations[inst.dst.name] = allocations.pop(inst.src.name)
                    if inst.src.name in uninit:
                        report(BugKind.UVA, inst, f"'{inst.src.name.split('.')[-1]}' used uninitialized")
                        uninit.discard(inst.src.name)
                uninit.discard(inst.dst.name)
            elif isinstance(inst, DeclLocal):
                uninit.add(inst.var.name)
            elif isinstance(inst, (Load, Store, Gep)):
                ptr = inst.base if isinstance(inst, Gep) else inst.ptr
                if ptr.name in maybe_null and ptr.name not in checked:
                    report(
                        BugKind.NPD, inst,
                        f"'{ptr.name.split('.')[-1]}' from a fallible call is dereferenced unchecked",
                    )
                    checked.add(ptr.name)
                if isinstance(inst, Store) and isinstance(inst.src, Var):
                    escaped.add(inst.src.name)
            elif isinstance(inst, BinOp):
                for operand in (inst.lhs, inst.rhs):
                    if isinstance(operand, Var) and operand.name in uninit:
                        report(BugKind.UVA, inst, f"'{operand.name.split('.')[-1]}' used uninitialized")
                        uninit.discard(operand.name)
                uninit.discard(inst.dst.name)
        term = block.terminator
        if isinstance(term, Ret) and isinstance(term.value, Var):
            escaped.add(term.value.name)
    # Path-insensitive ownership: only never-freed, never-escaping
    # allocations are leaks (error-path leaks are missed — §6(2)).
    for name, inst in allocations.items():
        if name not in freed and name not in escaped:
            report(BugKind.ML, inst, f"'{name.split('.')[-1]}' is never freed")
    return findings
