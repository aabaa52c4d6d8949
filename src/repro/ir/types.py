"""Type system for the repro IR.

The IR is a small, LLVM-flavoured register machine.  Its type system only
needs to be rich enough to express what PATA's analyses consume: integers,
pointers, named structs with ordered fields, fixed arrays, and functions.

Types are immutable and compared structurally (except structs, which are
nominal, as in C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class Type:
    """Base class for all IR types."""

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)


@dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(Type):
    """An integer of a given bit width (chars/bools/enums all map here)."""

    width: int = 32

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class PointerType(Type):
    """Pointer to ``pointee``.  ``pointee`` may be None for opaque pointers
    (e.g. ``void *``), which the alias analysis treats like any other
    pointer — access paths do not need pointee types."""

    pointee: Optional[Type] = None

    def __str__(self) -> str:
        return f"{self.pointee or 'void'}*"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type = field(default_factory=IntType)
    length: int = 0

    def __str__(self) -> str:
        return f"[{self.length} x {self.element}]"


class StructType(Type):
    """A nominal struct type with ordered named fields.

    Structs are created empty and completed later so that self-referential
    types (``struct list { struct list *next; }``) can be expressed.  Two
    struct types are equal iff they have the same name (nominal typing).
    """

    def __init__(self, name: str):
        self.name = name
        self.fields: Dict[str, Type] = {}
        self._complete = False

    def set_fields(self, fields: Dict[str, Type]) -> None:
        if self._complete:
            raise ValueError(f"struct {self.name} already completed")
        self.fields = dict(fields)
        self._complete = True

    @property
    def is_complete(self) -> bool:
        return self._complete

    def field_type(self, name: str) -> Type:
        return self.fields[name]

    def has_field(self, name: str) -> bool:
        return name in self.fields

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))

    def __str__(self) -> str:
        return f"struct {self.name}"

    def __repr__(self) -> str:
        return f"StructType({self.name!r}, fields={list(self.fields)})"


@dataclass(frozen=True)
class FunctionType(Type):
    return_type: Type = field(default_factory=VoidType)
    param_types: Tuple[Type, ...] = ()
    variadic: bool = False

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.param_types)
        if self.variadic:
            params = params + ", ..." if params else "..."
        return f"{self.return_type} ({params})"


VOID = VoidType()
INT = IntType(32)
I64 = IntType(64)
I8 = IntType(8)
VOID_PTR = PointerType(None)


def pointer_to(ty: Type) -> PointerType:
    """Convenience constructor mirroring LLVM's ``Type::getPointerTo``."""
    return PointerType(ty)
