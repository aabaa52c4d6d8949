"""Values (operands) of the repro IR: virtual registers and constants.

PATA's alias analysis identifies *variables*; in the IR a variable is a
:class:`Var` — either a source-level local/parameter/global or a compiler
temporary introduced by lowering.  Constants carry a Python int payload;
the null pointer is the pointer-typed constant 0.

A compiled program holds tens of thousands of these, and every warm run
unpickles them all, so they are slotted classes with a plain
``__init__``.  They compare, hash, print and ``repr`` as frozen
dataclasses would: equal only to an instance of the same class with
equal fields.  They are immutable by contract — nothing assigns to one
after construction — and pickle by constructor, so a pickle writes each
shared object once.
"""

from __future__ import annotations

from typing import Optional

from .types import INT, IntType, PointerType, Type, VOID_PTR


class SourceLoc:
    """A source position attached to instructions for bug reports.  The
    lowering of a unit builds one per line."""

    __slots__ = ("filename", "line")

    def __init__(self, filename: str = "<ir>", line: int = 0):
        self.filename = filename
        self.line = line

    def __reduce__(self):
        return (SourceLoc, (self.filename, self.line))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.filename, self.line) == (other.filename, other.line)

    def __hash__(self) -> int:
        return hash((self.filename, self.line))

    def __repr__(self) -> str:
        return f"SourceLoc(filename={self.filename!r}, line={self.line!r})"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}"


UNKNOWN_LOC = SourceLoc()


class Value:
    """Base class for IR operands."""

    __slots__ = ()
    type: Type


class Var(Value):
    """A named virtual register.

    ``name`` is unique within a function (the builder enforces this), and
    globals are prefixed with ``@``.  ``source_name`` preserves the name the
    user wrote, for readable reports; temporaries have ``source_name=None``.
    ``is_aggregate`` is True for global aggregates (structs/arrays): the
    Var *is* the aggregate's address, not a pointer-valued cell.
    """

    __slots__ = ("name", "type", "source_name", "is_global", "is_aggregate")

    def __init__(self, name: str, type: Type = INT, source_name: Optional[str] = None,
                 is_global: bool = False, is_aggregate: bool = False):
        self.name = name
        self.type = type
        self.source_name = source_name
        self.is_global = is_global
        self.is_aggregate = is_aggregate

    def __reduce__(self):
        return (Var, (self.name, self.type, self.source_name, self.is_global, self.is_aggregate))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            (self.name, self.type, self.source_name, self.is_global, self.is_aggregate)
            == (other.name, other.type, other.source_name, other.is_global, other.is_aggregate)
        )

    def __hash__(self) -> int:
        return hash((self.name, self.type, self.source_name, self.is_global, self.is_aggregate))

    def __repr__(self) -> str:
        return (f"Var(name={self.name!r}, type={self.type!r}, source_name={self.source_name!r}, "
                f"is_global={self.is_global!r}, is_aggregate={self.is_aggregate!r})")

    def __str__(self) -> str:
        return self.name

    def display_name(self) -> str:
        return self.source_name or self.name


class Const(Value):
    """An integer (or pointer) constant."""

    __slots__ = ("value", "type")

    def __init__(self, value: int, type: Type = INT):
        self.value = value
        self.type = type

    def __reduce__(self):
        return (Const, (self.value, self.type))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.value, self.type) == (other.value, other.type)

    def __hash__(self) -> int:
        return hash((self.value, self.type))

    def __repr__(self) -> str:
        return f"Const(value={self.value!r}, type={self.type!r})"

    def __str__(self) -> str:
        if self.type.is_pointer() and self.value == 0:
            return "null"
        return str(self.value)

    @property
    def is_null(self) -> bool:
        return self.type.is_pointer() and self.value == 0


NULL = Const(0, VOID_PTR)


def const_int(value: int, width: int = 32) -> Const:
    """An integer constant of the given bit width."""
    return Const(value, IntType(width))


def is_null_const(value: Value) -> bool:
    """True for the null-pointer constant (any pointer type, payload 0)."""
    return isinstance(value, Const) and isinstance(value.type, PointerType) and value.value == 0
