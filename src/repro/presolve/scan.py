"""Static per-instruction event scan — the bottom of the P1.5 summary.

Mirrors the event synthesis of :mod:`repro.core.analyzer` one abstract
level up: for every instruction the explorer could execute, compute the
set of :class:`~repro.presolve.events.EventKind` bits the corresponding
runtime events would fall under.  The scan is deliberately
flow-insensitive (a bag of kinds per block / per function); path
sensitivity is exactly what the expensive phase adds.

Call instructions contribute in two ways:

* a *call edge* for the P1.5 dead-block walk (the callee's transitive
  kinds flow into the calling block), recorded by :func:`block_events`
  in ``ScanResult.callees``;
* their *havoc kinds* directly: any call — even to a defined function —
  may be handled externally at exploration time (inline depth exceeded,
  blocked recursion), in which case the explorer dispatches
  ``ExternalCallEvent``/``CallReturnEvent``/escapes instead of walking
  the body.  The scan therefore always includes those kinds, plus the
  ``NEG_CONST``/``ZERO_CONST`` triggers the underflow and division
  checkers derive from the collector's may-return facts and callee-name
  hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

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
    Gep,
    Jump,
    Load,
    LockOp,
    Malloc,
    MemSet,
    Move,
    PointerType,
    Ret,
    Store,
    UnOp,
    Var,
    is_null_const,
)
from .events import NEGATIVE_RETURN_HINTS, TAINT_SOURCE_HINTS, EventKind

_CMP_OPS = {"eq", "ne", "lt", "le", "gt", "ge"}


@dataclass
class ScanContext:
    """Program-level facts the scan consults for call instructions.

    ``may_return_negative``/``may_return_zero`` are the collector's
    closed return facts (:class:`~repro.core.collector.InformationCollector`);
    duck-typed callables so this package never imports :mod:`repro.core`.
    """

    may_return_negative: Callable[[str], bool] = lambda name: False
    may_return_zero: Callable[[str], bool] = lambda name: False


@dataclass
class ScanResult:
    """Kinds one block generates directly, plus its outgoing call edges."""

    #: the kinds as a plain-int bit mask — the form the summary fold
    #: and the prune walks compute with (enum bit-ops route through
    #: ``Flag.__or__`` and are far slower than int ops)
    events_mask: int = 0
    #: names of directly called functions
    callees: List[str] = field(default_factory=list)
    #: True when the block contains an indirect call (resolved separately)
    has_indirect_call: bool = False


# Plain-int mirrors of the EventKind bits.  ``enum.Flag`` bit-ops are
# slow in CPython (every ``|`` routes through ``Flag.__or__`` plus a
# ``__call__`` interning the result); the scan visits every instruction
# of the corpus, so the handlers below accumulate plain ints.
_USE = EventKind.USE.value
_ESCAPE = EventKind.ESCAPE.value
_ASSIGN_NULL = EventKind.ASSIGN_NULL.value
_ASSIGN_CONST = EventKind.ASSIGN_CONST.value
_NEG_CONST = EventKind.NEG_CONST.value
_ZERO_CONST = EventKind.ZERO_CONST.value
_DEREF = EventKind.DEREF.value
_STORE = EventKind.STORE.value
_INDEX = EventKind.INDEX.value
_ALLOC_HEAP = EventKind.ALLOC_HEAP.value
_ALLOC_UNINIT = EventKind.ALLOC_UNINIT.value
_DECL_LOCAL = EventKind.DECL_LOCAL.value
_MEM_INIT = EventKind.MEM_INIT.value
_FREE = EventKind.FREE.value
_LOCK = EventKind.LOCK.value
_EXTERNAL_CALL = EventKind.EXTERNAL_CALL.value
_CALL_RETURN = EventKind.CALL_RETURN.value
_TAINT_SOURCE = EventKind.TAINT_SOURCE.value
_SHARED_ACCESS = EventKind.SHARED_ACCESS.value
_RETURN = EventKind.RETURN.value
_BRANCH_NULL = EventKind.BRANCH_NULL.value
_CMP_ZERO = EventKind.CMP_ZERO.value
_CMP_CONST = EventKind.CMP_CONST.value
_DIV = EventKind.DIV.value


def _const_value_mask(value: int) -> int:
    """Kinds of an ``AssignConstEvent`` carrying ``value``."""
    if value < 0:
        return _ASSIGN_CONST | _NEG_CONST
    if value == 0:
        return _ASSIGN_CONST | _ZERO_CONST
    return _ASSIGN_CONST


def _call_return_mask(callee: str, ctx: ScanContext) -> int:
    """Trigger kinds of a ``CallReturnEvent`` from ``callee`` — mirrors
    the underflow/div-zero checkers' CallReturn handling."""
    kinds = _CALL_RETURN
    if ctx.may_return_negative(callee) or any(h in callee for h in NEGATIVE_RETURN_HINTS):
        kinds |= _NEG_CONST
    if ctx.may_return_zero(callee):
        kinds |= _ZERO_CONST
    return kinds


def _arg_mask(args) -> int:
    """Kinds from evaluating/binding call arguments: escapes and uses for
    variables, parameter-move constants (incl. NULL) for constants."""
    kinds = 0
    for arg in args:
        if isinstance(arg, Var):
            if isinstance(arg.type, PointerType):
                kinds |= _ESCAPE
            else:
                kinds |= _USE
        elif is_null_const(arg):
            kinds |= _ASSIGN_NULL
        elif isinstance(arg, Const):
            kinds |= _const_value_mask(arg.value)
    return kinds


def _comparison_mask(inst: BinOp) -> int:
    """Kinds a branch on this comparison's result could later resolve to
    (``_branch_events`` in the analyzer): null tests for pointer-vs-zero
    comparisons, integer comparisons against constants otherwise."""
    operands = (inst.lhs, inst.rhs)
    consts = [op for op in operands if isinstance(op, Const)]
    variables = [op for op in operands if isinstance(op, Var)]
    if not consts or not variables:
        return 0
    const = consts[0]
    var = variables[0]
    if is_null_const(const) or (isinstance(var.type, PointerType) and const.value == 0):
        return _BRANCH_NULL
    if const.value == 0:
        return _CMP_ZERO
    return _CMP_CONST


def _scan_move(inst, ctx, result) -> int:
    src = inst.src
    if isinstance(src, Var):
        kinds = _USE
        if inst.dst.is_global:
            kinds |= _ESCAPE | _SHARED_ACCESS
        if src.is_global:
            kinds |= _SHARED_ACCESS
        return kinds
    if is_null_const(src):
        kinds = _ASSIGN_NULL
    elif isinstance(src, Const):
        kinds = _const_value_mask(src.value)
    else:
        kinds = 0
    if inst.dst.is_global:
        kinds |= _SHARED_ACCESS
    return kinds


def _scan_load(inst, ctx, result) -> int:
    # DerefEvent + LoadEvent; a Load is also the UVA region sink.
    # Loads read through a pointer, which may reach shared state.
    return _DEREF | _USE | _SHARED_ACCESS


def _scan_store(inst, ctx, result) -> int:
    kinds = _DEREF | _STORE | _SHARED_ACCESS
    src = inst.src
    if isinstance(src, Var):
        kinds |= _USE
        if isinstance(src.type, PointerType):
            kinds |= _ESCAPE
    elif is_null_const(src):
        kinds |= _ASSIGN_NULL
    return kinds


def _scan_gep(inst, ctx, result) -> int:
    kinds = _DEREF
    index = inst.index
    if index is not None:
        kinds |= _INDEX
        if isinstance(index, Const) and index.value < 0:
            kinds |= _NEG_CONST
    return kinds


def _scan_addr_of(inst, ctx, result) -> int:
    return 0


def _scan_binop(inst, ctx, result) -> int:
    # AssignConstEvent is unconditional: folded value when both operands
    # are constant, and the sub-operator trigger the underflow checker
    # keys on.
    kinds = _ASSIGN_CONST
    lhs = inst.lhs
    rhs = inst.rhs
    for operand in (lhs, rhs):
        if isinstance(operand, Var):
            kinds |= _USE
            if operand.is_global:
                kinds |= _SHARED_ACCESS
    op = inst.op
    if op in ("div", "mod"):
        kinds |= _DIV
        if isinstance(rhs, Const) and rhs.value == 0:
            # A literal zero divisor reports at the DivEvent itself.
            kinds |= _ZERO_CONST
    if op in _CMP_OPS:
        kinds |= _comparison_mask(inst)
    if op == "sub":
        kinds |= _NEG_CONST
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        from ..smt.terms import _apply_op

        try:
            folded = _apply_op(op, [lhs.value, rhs.value])
        except ValueError:
            folded = None
        if folded is not None:
            kinds |= _const_value_mask(folded)
    return kinds


def _scan_unop(inst, ctx, result) -> int:
    kinds = _ASSIGN_CONST
    src = inst.src
    if isinstance(src, Var):
        kinds |= _USE
        if src.is_global:
            kinds |= _SHARED_ACCESS
    elif isinstance(src, Const) and inst.op == "neg":
        kinds |= _const_value_mask(-src.value)
    return kinds


def _scan_malloc(inst, ctx, result) -> int:
    if inst.zeroed:
        return _ALLOC_HEAP
    return _ALLOC_HEAP | _ALLOC_UNINIT


def _scan_alloc(inst, ctx, result) -> int:
    if inst.zeroed:
        return 0
    return _ALLOC_UNINIT


def _scan_decl_local(inst, ctx, result) -> int:
    return _DECL_LOCAL


def _scan_memset(inst, ctx, result) -> int:
    return _DEREF | _MEM_INIT | _SHARED_ACCESS


def _scan_free(inst, ctx, result) -> int:
    return _FREE


def _scan_lock(inst, ctx, result) -> int:
    return _LOCK


def _scan_call(inst, ctx, result) -> int:
    callee = inst.callee
    result.callees.append(callee)
    # Havoc kinds: any call may be handled externally at run time.  A
    # short argument list binds missing parameters to Const(0).
    kinds = _EXTERNAL_CALL | _ZERO_CONST | _ASSIGN_CONST | _arg_mask(inst.args)
    if any(hint in callee for hint in TAINT_SOURCE_HINTS):
        # The taint checker arms on both flavors of source call —
        # value-returning (``n = get_user()``) and out-buffer
        # (``copy_from_user(&req, ...)``, no dst) — so the bit is
        # independent of ``inst.dst``.
        kinds |= _TAINT_SOURCE
    if inst.dst is not None:
        kinds |= _call_return_mask(callee, ctx)
        if inst.dst.is_global:
            kinds |= _SHARED_ACCESS
    if any(isinstance(arg, Var) and arg.is_global for arg in inst.args):
        kinds |= _SHARED_ACCESS
    return kinds


def _scan_call_indirect(inst, ctx, result) -> int:
    result.has_indirect_call = True
    kinds = _EXTERNAL_CALL | _arg_mask(inst.args)
    if inst.dst is not None:
        kinds |= _CALL_RETURN
        if inst.dst.is_global:
            kinds |= _SHARED_ACCESS
    if any(isinstance(arg, Var) and arg.is_global for arg in inst.args):
        kinds |= _SHARED_ACCESS
    return kinds


#: exact-type dispatch for the hot scan loop: a row for every
#: instruction class
_SCAN_DISPATCH = {
    Move: _scan_move,
    Load: _scan_load,
    Store: _scan_store,
    Gep: _scan_gep,
    AddrOf: _scan_addr_of,
    BinOp: _scan_binop,
    UnOp: _scan_unop,
    Malloc: _scan_malloc,
    Alloc: _scan_alloc,
    DeclLocal: _scan_decl_local,
    MemSet: _scan_memset,
    Free: _scan_free,
    LockOp: _scan_lock,
    Call: _scan_call,
    CallIndirect: _scan_call_indirect,
}


def _terminator_mask(term) -> int:
    if isinstance(term, Ret):
        kinds = _RETURN
        value = term.value
        if isinstance(value, Var):
            kinds |= _USE | _ESCAPE
            if value.is_global:
                kinds |= _SHARED_ACCESS
        elif is_null_const(value):
            # The caller's return-value move assigns NULL.
            kinds |= _ASSIGN_NULL
        elif isinstance(value, Const):
            kinds |= _const_value_mask(value.value)
        return kinds
    # Branch/Jump terminators generate no events of their own.
    return 0


def block_events(block: BasicBlock, ctx: ScanContext) -> ScanResult:
    """Kinds (and call edges) one basic block can generate directly."""
    result = ScanResult()
    dispatch = _SCAN_DISPATCH
    mask = 0
    for inst in block.instructions:
        mask |= dispatch[inst.__class__](inst, ctx, result)
    if block.terminator is not None:
        mask |= _terminator_mask(block.terminator)
    result.events_mask = mask
    return result
