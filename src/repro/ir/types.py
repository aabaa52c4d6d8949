"""Type system for the repro IR.

The IR is a small, LLVM-flavoured register machine.  Its type system only
needs to be rich enough to express what PATA's analyses consume: integers,
pointers, named structs with ordered fields, fixed arrays, and functions.

Types are immutable and compared structurally (except structs, which are
nominal, as in C).  Every program holds tens of thousands of type
references, so the value layer keeps them lean:

* :class:`VoidType` and :class:`IntType` are interned for the whole
  process: the constructor returns the one instance per width.
* :class:`PointerType`, :class:`ArrayType` and :class:`FunctionType` are
  slotted and raise on assignment.  A compilation unit builds each
  distinct one once through its own :class:`TypeTable`.  The table is
  never process-wide: structs are nominal per module, so a shared table
  keyed by pointee would hand one file's struct fields to another, or,
  keyed by identity, keep a daemon's dropped modules alive.

Every type pickles by constructor, so a pickle writes each shared type
object once, and a loaded void or integer type is the process's own
instance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class Type:
    """Base class for all IR types."""

    __slots__ = ()

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def is_struct(self) -> bool:
        return isinstance(self, StructType)

    def is_void(self) -> bool:
        return isinstance(self, VoidType)


class _Immutable(Type):
    """A slotted type that refuses assignment once built; constructors
    set their slots through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")


_set = object.__setattr__
#: the process's integer types, one per width
_INTS: Dict[int, "IntType"] = {}


class VoidType(_Immutable):
    """The void type; one instance per process."""

    __slots__ = ()
    _instance: Optional["VoidType"] = None

    def __new__(cls) -> "VoidType":
        if VoidType._instance is None:
            VoidType._instance = object.__new__(cls)
        return VoidType._instance

    def __reduce__(self):
        return (VoidType, ())

    def __hash__(self) -> int:
        return hash(())

    def __repr__(self) -> str:
        return "VoidType()"

    def __str__(self) -> str:
        return "void"


class IntType(_Immutable):
    """An integer of a given bit width (chars/bools/enums all map here);
    one instance per width per process."""

    __slots__ = ("width",)

    def __new__(cls, width: int = 32) -> "IntType":
        ty = _INTS.get(width)
        if ty is None:
            ty = object.__new__(cls)
            _set(ty, "width", width)
            # setdefault is atomic: two threads interning a new width
            # (a daemon lowering on two threads) get the same instance
            ty = _INTS.setdefault(width, ty)
        return ty

    def __reduce__(self):
        return (IntType, (self.width,))

    def __hash__(self) -> int:
        return hash((self.width,))

    def __repr__(self) -> str:
        return f"IntType(width={self.width!r})"

    def __str__(self) -> str:
        return f"i{self.width}"


class PointerType(_Immutable):
    """Pointer to ``pointee``.  ``pointee`` may be None for opaque pointers
    (e.g. ``void *``), which the alias analysis treats like any other
    pointer — access paths do not need pointee types."""

    __slots__ = ("pointee",)

    def __init__(self, pointee: Optional[Type] = None):
        _set(self, "pointee", pointee)

    def __reduce__(self):
        return (PointerType, (self.pointee,))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self.pointee == other.pointee

    def __hash__(self) -> int:
        return hash((self.pointee,))

    def __repr__(self) -> str:
        return f"PointerType(pointee={self.pointee!r})"

    def __str__(self) -> str:
        return f"{self.pointee or 'void'}*"


class ArrayType(_Immutable):
    """A fixed-length array of ``element`` (length 0 = unsized)."""

    __slots__ = ("element", "length")

    def __init__(self, element: Type = IntType(), length: int = 0):
        _set(self, "element", element)
        _set(self, "length", length)

    def __reduce__(self):
        return (ArrayType, (self.element, self.length))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.element, self.length) == (other.element, other.length)

    def __hash__(self) -> int:
        return hash((self.element, self.length))

    def __repr__(self) -> str:
        return f"ArrayType(element={self.element!r}, length={self.length!r})"

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


class FunctionType(_Immutable):
    """A function's signature: return type, parameter types, varargs."""

    __slots__ = ("return_type", "param_types", "variadic")

    def __init__(self, return_type: Type = VoidType(),
                 param_types: Tuple[Type, ...] = (), variadic: bool = False):
        _set(self, "return_type", return_type)
        _set(self, "param_types", param_types)
        _set(self, "variadic", variadic)

    def __reduce__(self):
        return (FunctionType, (self.return_type, self.param_types, self.variadic))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            (self.return_type, self.param_types, self.variadic)
            == (other.return_type, other.param_types, other.variadic)
        )

    def __hash__(self) -> int:
        return hash((self.return_type, self.param_types, self.variadic))

    def __repr__(self) -> str:
        return (f"FunctionType(return_type={self.return_type!r}, "
                f"param_types={self.param_types!r}, variadic={self.variadic!r})")

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


class TypeTable:
    """One compilation unit's derived types, each distinct one built once.

    The lowering of a unit (and its :class:`~repro.ir.IRBuilder`\\ s) asks
    the table for every pointer, array and function type, so a module
    holds one :class:`PointerType` per distinct pointee.  Keys compare
    structurally, which inside one unit is identity: the unit's integer
    types are interned and its structs are one object per name.  The
    table belongs to the lowering and is dropped with it; a module never
    holds or pickles it.
    """

    __slots__ = ("_pointers", "_arrays", "_functions")

    def __init__(self):
        self._pointers: Dict[Optional[Type], PointerType] = {None: VOID_PTR}
        self._arrays: Dict[Tuple[Type, int], ArrayType] = {}
        self._functions: Dict[Tuple[Type, Tuple[Type, ...], bool], FunctionType] = {}

    def pointer(self, pointee: Optional[Type]) -> PointerType:
        """The unit's pointer to ``pointee``."""
        ty = self._pointers.get(pointee)
        if ty is None:
            ty = self._pointers[pointee] = PointerType(pointee)
        return ty

    def array(self, element: Type, length: int) -> ArrayType:
        """The unit's array of ``length`` ``element``\\ s."""
        key = (element, length)
        ty = self._arrays.get(key)
        if ty is None:
            ty = self._arrays[key] = ArrayType(element, length)
        return ty

    def function(self, return_type: Type, param_types: Tuple[Type, ...] = (),
                 variadic: bool = False) -> FunctionType:
        """The unit's function type of this signature."""
        key = (return_type, param_types, variadic)
        ty = self._functions.get(key)
        if ty is None:
            ty = self._functions[key] = FunctionType(return_type, param_types, variadic)
        return ty
