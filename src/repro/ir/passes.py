"""Semantics-preserving IR cleanup passes.

The mini-C lowering is deliberately naive (every condition becomes a
compare + branch, short-circuiting spawns blocks, dead blocks linger
after ``goto``).  These passes tidy the IR the way a -O0.5 compiler
would, which matters to the analyses: a constant branch folded to a jump
is one path instead of two, and unreachable blocks cost exploration
budget for nothing.

All passes preserve source locations and observable semantics, including
*fault* semantics: a constant division by zero is **not** folded away —
the checkers and the interpreter must still see it.

Enabled in the pipeline via ``AnalysisConfig.optimize_ir``; off by
default so measured numbers describe the unoptimized lowering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .function import BasicBlock, Function, Module, Program
from .instructions import (
    BinOp,
    Branch,
    Jump,
    Move,
    Ret,
    UnOp,
)
from .values import Const, Value, Var


def fold_constants(func: Function) -> int:
    """Block-local constant propagation + arithmetic folding.

    Within one block, a ``Move(v, Const)`` makes later reads of ``v``
    (until any redefinition) read the constant; BinOp/UnOp over constants
    become constant Moves.  Division/modulo by a constant zero is left
    untouched (it is a bug the analyses must see).  Returns the number of
    rewritten instructions.
    """
    from ..smt.terms import _apply_op

    changed = 0
    for block in func.blocks:
        env: Dict[str, Const] = {}

        def resolve(value: Value) -> Value:
            if isinstance(value, Var):
                known = env.get(value.name)
                if known is not None and not value.is_global:
                    return known
            return value

        new_instructions = []
        for inst in block.instructions:
            if isinstance(inst, BinOp):
                lhs, rhs = resolve(inst.lhs), resolve(inst.rhs)
                if lhs is not inst.lhs or rhs is not inst.rhs:
                    inst.lhs, inst.rhs = lhs, rhs
                    changed += 1
                if (
                    isinstance(inst.lhs, Const)
                    and isinstance(inst.rhs, Const)
                    and not (inst.op in ("div", "mod") and inst.rhs.value == 0)
                ):
                    try:
                        value = _apply_op(inst.op, [inst.lhs.value, inst.rhs.value])
                    except ValueError:
                        value = None
                    if value is not None:
                        folded = Const(value, inst.dst.type)
                        replacement = Move(inst.dst, folded, inst.loc)
                        replacement.parent = block
                        new_instructions.append(replacement)
                        env[inst.dst.name] = folded
                        changed += 1
                        continue
                env.pop(inst.dst.name, None)
            elif isinstance(inst, UnOp):
                src = resolve(inst.src)
                if src is not inst.src:
                    inst.src = src
                    changed += 1
                if isinstance(inst.src, Const):
                    value = -inst.src.value if inst.op == "neg" else ~inst.src.value
                    folded = Const(value, inst.dst.type)
                    replacement = Move(inst.dst, folded, inst.loc)
                    replacement.parent = block
                    new_instructions.append(replacement)
                    env[inst.dst.name] = folded
                    changed += 1
                    continue
                env.pop(inst.dst.name, None)
            elif isinstance(inst, Move):
                src = resolve(inst.src)
                if src is not inst.src:
                    inst.src = src
                    changed += 1
                if isinstance(inst.src, Const) and not inst.dst.is_global:
                    env[inst.dst.name] = inst.src
                else:
                    env.pop(inst.dst.name, None)
            else:
                defined = inst.defined_var()
                if defined is not None:
                    env.pop(defined.name, None)
            new_instructions.append(inst)
        block.instructions = new_instructions
        # Terminators: fold constant branch conditions to jumps.
        term = block.terminator
        if isinstance(term, Branch):
            cond = resolve(term.cond)
            if isinstance(cond, Const):
                target = term.then_block if cond.value != 0 else term.else_block
                jump = Jump(target, term.loc)
                jump.parent = block
                block.terminator = jump
                changed += 1
    return changed


def remove_unreachable_blocks(func: Function) -> int:
    """Drop blocks not reachable from the entry.  Returns how many."""
    if func.is_declaration:
        return 0
    reachable = set()
    work = [func.entry]
    while work:
        block = work.pop()
        if block.uid in reachable:
            continue
        reachable.add(block.uid)
        work.extend(block.successors())
    removed = [b for b in func.blocks if b.uid not in reachable]
    if removed:
        func.blocks = [b for b in func.blocks if b.uid in reachable]
        for block in removed:
            func._block_names.pop(block.name, None)
        func._block_suffix.clear()
    return len(removed)


def thread_jumps(func: Function) -> int:
    """Retarget edges that point at empty forwarding blocks
    (a block whose only content is ``br other``).  Returns the number of
    retargeted edges."""
    forward: Dict[int, BasicBlock] = {}
    for block in func.blocks:
        if not block.instructions and isinstance(block.terminator, Jump):
            forward[block.uid] = block.terminator.target

    def final_target(block: BasicBlock) -> BasicBlock:
        seen = set()
        while block.uid in forward and block.uid not in seen:
            seen.add(block.uid)
            block = forward[block.uid]
        return block

    changed = 0
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            target = final_target(term.target)
            if target is not term.target:
                term.target = target
                changed += 1
        elif isinstance(term, Branch):
            then_target = final_target(term.then_block)
            else_target = final_target(term.else_block)
            if then_target is not term.then_block:
                term.then_block = then_target
                changed += 1
            if else_target is not term.else_block:
                term.else_block = else_target
                changed += 1
    return changed


def optimize_function(func: Function, max_rounds: int = 4) -> Dict[str, int]:
    """Run the passes to a (bounded) fixpoint; returns per-pass counts."""
    totals = {"folded": 0, "threaded": 0, "removed_blocks": 0}
    for _ in range(max_rounds):
        folded = fold_constants(func)
        threaded = thread_jumps(func)
        removed = remove_unreachable_blocks(func)
        totals["folded"] += folded
        totals["threaded"] += threaded
        totals["removed_blocks"] += removed
        if folded == threaded == removed == 0:
            break
    return totals


def optimize_module(module: Module) -> Dict[str, int]:
    """Optimize every defined function of a module; returns summed counts."""
    totals = {"folded": 0, "threaded": 0, "removed_blocks": 0}
    for func in module.defined_functions():
        for key, count in optimize_function(func).items():
            totals[key] += count
    return totals


def optimize_program(program: Program) -> Dict[str, int]:
    """Optimize every module of a program; returns summed counts."""
    totals = {"folded": 0, "threaded": 0, "removed_blocks": 0}
    for module in program.modules:
        for key, count in optimize_module(module).items():
            totals[key] += count
    return totals
