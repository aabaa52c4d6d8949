"""Convenience builder for constructing IR functions.

Used by the mini-C lowering pass and by tests that assemble IR directly.
The builder tracks the insertion block, generates fresh temporaries, and
refuses to emit past a terminator.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from ..errors import IRError
from .function import BasicBlock, Function
from .instructions import (
    AddrOf,
    Alloc,
    BinOp,
    Branch,
    Call,
    CallIndirect,
    DeclLocal,
    Free,
    Gep,
    Jump,
    Load,
    LockOp,
    Malloc,
    MemSet,
    Move,
    Ret,
    Store,
    UnOp,
    Unreachable,
)
from .types import INT, PointerType, Type, TypeTable, VOID_PTR
from .values import Const, SourceLoc, UNKNOWN_LOC, Value, Var


class IRBuilder:
    """Incremental construction of one function's blocks and instructions.
    Pointer types come from ``types``, the compilation unit's table (a
    fresh one when the builder stands alone)."""

    def __init__(self, function: Function, types: Optional[TypeTable] = None):
        self.function = function
        self.types = types if types is not None else TypeTable()
        self.block: Optional[BasicBlock] = None
        self._temp_ids = itertools.count(1)
        self.loc: SourceLoc = UNKNOWN_LOC

    # -- positioning -------------------------------------------------------

    def new_block(self, name: str = "bb") -> BasicBlock:
        return self.function.add_block(name)

    def position_at(self, block: BasicBlock) -> None:
        self.block = block

    def set_loc(self, loc: SourceLoc) -> None:
        self.loc = loc

    @property
    def is_terminated(self) -> bool:
        return self.block is not None and self.block.is_terminated

    # -- temporaries -------------------------------------------------------

    def temp(self, ty: Type = INT, hint: str = "t") -> Var:
        # Temporary names are function-qualified: Var compares by name, and
        # the inter-procedural alias analysis must never conflate a "%ld1"
        # from two different functions (the paper writes these as func:v).
        return Var(f"%{self.function.name}.{hint}{next(self._temp_ids)}", ty)

    # -- instruction emission ---------------------------------------------

    def _emit(self, inst):
        if self.block is None:
            raise IRError("builder has no insertion block")
        return self.block.append(inst)

    def move(self, dst: Var, src: Value) -> Move:
        return self._emit(Move(dst, src, self.loc))

    def load(self, ptr: Var, ty: Optional[Type] = None, dst: Optional[Var] = None) -> Var:
        if dst is None:
            if ty is None:
                pointee = ptr.type.pointee if isinstance(ptr.type, PointerType) else None
                ty = pointee or INT
            dst = self.temp(ty, "ld")
        self._emit(Load(dst, ptr, self.loc))
        return dst

    def store(self, ptr: Var, src: Value) -> Store:
        return self._emit(Store(ptr, src, self.loc))

    def gep(self, base: Var, field: str, ty: Optional[Type] = None, index: Optional[Value] = None) -> Var:
        dst = self.temp(ty or VOID_PTR, "gep")
        self._emit(Gep(dst, base, field, index, self.loc))
        return dst

    def addr_of(self, var: Var, ty: Optional[Type] = None) -> Var:
        dst = self.temp(ty or self.types.pointer(var.type), "adr")
        self._emit(AddrOf(dst, var, self.loc))
        return dst

    def binop(self, op: str, lhs: Value, rhs: Value, ty: Type = INT) -> Var:
        dst = self.temp(ty, "bin")
        self._emit(BinOp(dst, op, lhs, rhs, self.loc))
        return dst

    def unop(self, op: str, src: Value, ty: Type = INT) -> Var:
        dst = self.temp(ty, "un")
        self._emit(UnOp(dst, op, src, self.loc))
        return dst

    def call(self, callee: str, args: Sequence[Value], ret_ty: Optional[Type] = None) -> Optional[Var]:
        dst = self.temp(ret_ty, "ret") if ret_ty is not None else None
        self._emit(Call(dst, callee, args, self.loc))
        return dst

    def call_indirect(self, fn: Var, args: Sequence[Value], ret_ty: Optional[Type] = None) -> Optional[Var]:
        dst = self.temp(ret_ty, "ret") if ret_ty is not None else None
        self._emit(CallIndirect(dst, fn, args, self.loc))
        return dst

    def alloc(self, allocated_type: Type, zeroed: bool = False, hint: str = "slot") -> Var:
        dst = self.temp(self.types.pointer(allocated_type), hint)
        self._emit(Alloc(dst, allocated_type, zeroed, self.loc))
        return dst

    def decl_local(self, var: Var) -> DeclLocal:
        return self._emit(DeclLocal(var, self.loc))

    def malloc(self, size: Value, zeroed: bool = False, may_fail: bool = True, allocator: str = "malloc", ty: Optional[Type] = None) -> Var:
        dst = self.temp(ty or VOID_PTR, "heap")
        self._emit(Malloc(dst, size, zeroed, may_fail, allocator, self.loc))
        return dst

    def free(self, ptr: Var, deallocator: str = "free") -> Free:
        return self._emit(Free(ptr, deallocator, self.loc))

    def memset(self, ptr: Var, value: Value, size: Value) -> MemSet:
        return self._emit(MemSet(ptr, value, size, self.loc))

    def lock(self, lock: Var, api: str = "spin_lock") -> LockOp:
        return self._emit(LockOp(lock, True, api, self.loc))

    def unlock(self, lock: Var, api: str = "spin_unlock") -> LockOp:
        return self._emit(LockOp(lock, False, api, self.loc))

    # -- terminators --------------------------------------------------------

    def jump(self, target: BasicBlock) -> Jump:
        return self.block.set_terminator(Jump(target, self.loc))

    def branch(self, cond: Value, then_block: BasicBlock, else_block: BasicBlock) -> Branch:
        return self.block.set_terminator(Branch(cond, then_block, else_block, self.loc))

    def ret(self, value: Optional[Value] = None) -> Ret:
        return self.block.set_terminator(Ret(value, self.loc))

    def unreachable(self) -> Unreachable:
        return self.block.set_terminator(Unreachable(self.loc))
