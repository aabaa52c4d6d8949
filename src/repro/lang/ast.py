"""Abstract syntax tree for mini-C.

All nodes carry a source line for diagnostics and bug reports.  Types are
represented syntactically (:class:`TypeRef`) and resolved during lowering,
so that forward references between structs work naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple


@dataclass
class Node:
    line: int = 0


# --------------------------------------------------------------------------
# Types (syntactic)
# --------------------------------------------------------------------------


@dataclass
class TypeRef(Node):
    """A syntactic type: base name + pointer depth + array dims.

    ``base`` is ``"int"``/``"char"``/``"void"``/... or ``"struct NAME"`` or a
    typedef name.  ``array_dims`` holds constant lengths (0 = unsized).
    ``func_params`` is set for function-pointer declarators.
    """

    base: str = "int"
    pointer_depth: int = 0
    array_dims: Tuple[int, ...] = ()
    func_params: Optional[Tuple["TypeRef", ...]] = None

    def with_pointers(self, extra: int) -> "TypeRef":
        return TypeRef(self.line, self.base, self.pointer_depth + extra, self.array_dims, self.func_params)

    def __str__(self) -> str:
        return self.base + "*" * self.pointer_depth + "".join(f"[{d}]" for d in self.array_dims)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class CharLit(Expr):
    value: str = "\0"


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class NullLit(Expr):
    pass


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class Unary(Expr):
    """op in {'-', '~', '!', '*', '&', '++', '--', 'p++', 'p--'}."""

    op: str = "-"
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = "+"
    lhs: Expr = None
    rhs: Expr = None


@dataclass
class Assign(Expr):
    """``target op= value``; op is '' for plain assignment."""

    target: Expr = None
    value: Expr = None
    op: str = ""


@dataclass
class Ternary(Expr):
    cond: Expr = None
    then_expr: Expr = None
    else_expr: Expr = None


@dataclass
class CallExpr(Expr):
    callee: Expr = None
    args: List[Expr] = field(default_factory=list)


@dataclass
class Member(Expr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""

    base: Expr = None
    field_name: str = ""
    arrow: bool = False


@dataclass
class IndexExpr(Expr):
    base: Expr = None
    index: Expr = None


@dataclass
class Cast(Expr):
    target_type: TypeRef = None
    operand: Expr = None


@dataclass
class SizeOf(Expr):
    target_type: Optional[TypeRef] = None
    operand: Optional[Expr] = None


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class Declarator(Node):
    name: str = ""
    type: TypeRef = None
    init: Optional["Initializer"] = None


@dataclass
class Initializer(Node):
    """Either a scalar expression or a brace list of designated fields."""

    expr: Optional[Expr] = None
    fields: Optional[List[Tuple[str, "Initializer"]]] = None
    elements: Optional[List["Initializer"]] = None


@dataclass
class DeclStmt(Stmt):
    declarators: List[Declarator] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class IfStmt(Stmt):
    cond: Expr = None
    then_body: Stmt = None
    else_body: Optional[Stmt] = None


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None
    body: Stmt = None
    is_do_while: bool = False


@dataclass
class ForStmt(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class GotoStmt(Stmt):
    label: str = ""


@dataclass
class LabelStmt(Stmt):
    label: str = ""
    stmt: Optional[Stmt] = None


@dataclass
class SwitchStmt(Stmt):
    value: Expr = None
    cases: List[Tuple[Optional[int], List[Stmt]]] = field(default_factory=list)


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class EmptyStmt(Stmt):
    pass


# --------------------------------------------------------------------------
# Top-level declarations
# --------------------------------------------------------------------------


@dataclass
class StructDef(Node):
    name: str = ""
    fields: List[Declarator] = field(default_factory=list)


@dataclass
class TypedefDecl(Node):
    name: str = ""
    type: TypeRef = None


@dataclass
class ParamDecl(Node):
    name: str = ""
    type: TypeRef = None


@dataclass
class FunctionDef(Node):
    name: str = ""
    return_type: TypeRef = None
    params: List[ParamDecl] = field(default_factory=list)
    body: Optional[Block] = None  # None for prototypes
    is_static: bool = False
    variadic: bool = False
    #: every ``name`` the body takes the address of as ``&name``; the
    #: parser records them, and lowering gives those locals memory slots
    address_taken: Set[str] = field(default_factory=set)


@dataclass
class GlobalVar(Node):
    declarator: Declarator = None
    is_static: bool = False


@dataclass
class TranslationUnit(Node):
    filename: str = "<input>"
    decls: List[Node] = field(default_factory=list)
    source_lines: int = 0
