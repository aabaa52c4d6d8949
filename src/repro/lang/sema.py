"""Source-level semantic diagnostics for mini-C (a lint pass).

Runs on the AST only — no compilation — so, like Cppcheck/Coccinelle in
the paper's comparison, it can vet files that are excluded from the
build configuration.  Collected (never raised) diagnostics:

* ``call-arity``        — call with the wrong number of arguments;
* ``implicit-decl``     — call to a function with no visible declaration
  (the known intrinsics are exempt);
* ``undeclared-var``    — use of a name that is neither local, global,
  enum constant nor function;
* ``unused-var``        — local declared and assigned but never read;
* ``unreachable``       — statements after a ``return``/``goto``/``break``
  in the same block;
* ``missing-return``    — a non-void function whose body can fall off the
  end;
* ``duplicate-def``     — two definitions of one function in a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..stack import headroom
from . import ast
from .lower import ALLOCATORS, DEALLOCATORS, LOCK_APIS, MEMSET_APIS
from .parser import FRONTEND_FRAMES, parse

_KNOWN_INTRINSICS = (
    set(ALLOCATORS) | set(DEALLOCATORS) | set(LOCK_APIS) | set(MEMSET_APIS)
)


@dataclass
class Diagnostic:
    code: str
    message: str
    filename: str
    line: int

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}: [{self.code}] {self.message}"


class SemaChecker:
    """Collects all diagnostics for one translation unit (see module docstring for the rule list)."""

    def __init__(self, unit: ast.TranslationUnit, extra_known_functions: Optional[Set[str]] = None):
        self.unit = unit
        self.diagnostics: List[Diagnostic] = []
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.globals: Set[str] = set()
        self.enums: Set[str] = set()
        self.known_functions: Set[str] = set(_KNOWN_INTRINSICS)
        if extra_known_functions:
            self.known_functions |= extra_known_functions

    def _report(self, code: str, message: str, node: ast.Node) -> None:
        self.diagnostics.append(Diagnostic(code, message, self.unit.filename, node.line))

    # -- entry ----------------------------------------------------------------

    def run(self) -> List[Diagnostic]:
        for decl in self.unit.decls:
            if isinstance(decl, ast.FunctionDef):
                previous = self.functions.get(decl.name)
                if previous is not None and previous.body is not None and decl.body is not None:
                    self._report("duplicate-def", f"function '{decl.name}' defined twice", decl)
                if previous is None or decl.body is not None:
                    self.functions[decl.name] = decl
                self.known_functions.add(decl.name)
            elif isinstance(decl, ast.GlobalVar):
                self.globals.add(decl.declarator.name)
            elif isinstance(decl, ast.StructDef) and decl.name.startswith("enum "):
                for enumerator in decl.fields:
                    self.enums.add(enumerator.name)
        # The parser bounded the nesting these walks recurse over.
        with headroom(FRONTEND_FRAMES):
            for decl in self.unit.decls:
                if isinstance(decl, ast.FunctionDef) and decl.body is not None:
                    _FunctionSema(self, decl).run()
        return self.diagnostics


class _FunctionSema:
    def __init__(self, owner: SemaChecker, fdef: ast.FunctionDef):
        self.owner = owner
        self.fdef = fdef
        self.declared: Dict[str, ast.Node] = {}
        self.read: Set[str] = set()
        self.labels: Set[str] = set()

    def run(self) -> None:
        for param in self.fdef.params:
            self.declared[param.name] = param
            self.read.add(param.name)  # parameters are exempt from unused
        self._collect_labels(self.fdef.body)
        self._walk_block(self.fdef.body)
        for name, node in self.declared.items():
            if name not in self.read:
                self.owner._report("unused-var", f"local '{name}' is never read", node)
        if not self._returns_on_all_paths(self.fdef.body) and self.fdef.return_type.base != "void":
            self.owner._report(
                "missing-return",
                f"non-void function '{self.fdef.name}' may fall off the end",
                self.fdef,
            )

    # -- statements --------------------------------------------------------------

    def _collect_labels(self, node) -> None:
        if isinstance(node, ast.LabelStmt):
            self.labels.add(node.label)
        for value in vars(node).values():
            if isinstance(value, ast.Node):
                self._collect_labels(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.Node):
                        self._collect_labels(item)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if isinstance(sub, list):
                                for s in sub:
                                    if isinstance(s, ast.Node):
                                        self._collect_labels(s)
                            elif isinstance(sub, ast.Node):
                                self._collect_labels(sub)

    def _walk_block(self, block: ast.Block) -> None:
        terminated_at: Optional[ast.Stmt] = None
        for stmt in block.statements:
            if terminated_at is not None and not isinstance(stmt, (ast.LabelStmt, ast.EmptyStmt)):
                self.owner._report(
                    "unreachable",
                    f"statement is unreachable (control left at line {terminated_at.line})",
                    stmt,
                )
                terminated_at = None  # one report per run of dead code
            self._walk_stmt(stmt)
            if isinstance(stmt, (ast.ReturnStmt, ast.GotoStmt, ast.BreakStmt, ast.ContinueStmt)):
                terminated_at = stmt

    def _walk_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._walk_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.declarators:
                self.declared[decl.name] = decl
                if decl.init is not None:
                    self._walk_init(decl.init)
        elif isinstance(stmt, ast.ExprStmt):
            self._walk_expr(stmt.expr, is_read=False)
        elif isinstance(stmt, ast.IfStmt):
            self._walk_expr(stmt.cond)
            self._walk_stmt(stmt.then_body)
            if stmt.else_body is not None:
                self._walk_stmt(stmt.else_body)
        elif isinstance(stmt, ast.WhileStmt):
            self._walk_expr(stmt.cond)
            self._walk_stmt(stmt.body)
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self._walk_stmt(stmt.init)
            if stmt.cond is not None:
                self._walk_expr(stmt.cond)
            if stmt.step is not None:
                self._walk_expr(stmt.step, is_read=False)
            self._walk_stmt(stmt.body)
        elif isinstance(stmt, ast.SwitchStmt):
            self._walk_expr(stmt.value)
            for _, body in stmt.cases:
                for inner in body:
                    self._walk_stmt(inner)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._walk_expr(stmt.value)
        elif isinstance(stmt, ast.LabelStmt):
            if stmt.stmt is not None:
                self._walk_stmt(stmt.stmt)
        elif isinstance(stmt, ast.GotoStmt):
            if stmt.label not in self.labels:
                self.owner._report("undeclared-var", f"goto to unknown label '{stmt.label}'", stmt)

    def _walk_init(self, init: ast.Initializer) -> None:
        if init.expr is not None:
            self._walk_expr(init.expr)
        if init.fields:
            for _, sub in init.fields:
                self._walk_init(sub)
        if init.elements:
            for sub in init.elements:
                self._walk_init(sub)

    # -- expressions -----------------------------------------------------------------

    def _walk_expr(self, expr: ast.Expr, is_read: bool = True) -> None:
        if isinstance(expr, ast.Name):
            self._check_name(expr, is_read)
        elif isinstance(expr, ast.Assign):
            self._walk_lvalue(expr.target)
            self._walk_expr(expr.value)
        elif isinstance(expr, ast.Unary):
            if expr.op in ("++", "--", "p++", "p--"):
                self._walk_lvalue(expr.operand)
                self._walk_expr(expr.operand)
            else:
                self._walk_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            self._walk_expr(expr.lhs)
            self._walk_expr(expr.rhs)
        elif isinstance(expr, ast.Ternary):
            self._walk_expr(expr.cond)
            self._walk_expr(expr.then_expr)
            self._walk_expr(expr.else_expr)
        elif isinstance(expr, ast.CallExpr):
            self._walk_call(expr)
        elif isinstance(expr, ast.Member):
            self._walk_expr(expr.base)
        elif isinstance(expr, ast.IndexExpr):
            self._walk_expr(expr.base)
            self._walk_expr(expr.index)
        elif isinstance(expr, ast.Cast):
            self._walk_expr(expr.operand, is_read)
        elif isinstance(expr, ast.SizeOf):
            if expr.operand is not None:
                self._walk_expr(expr.operand)

    def _walk_lvalue(self, target: ast.Expr) -> None:
        # An assignment target is a *write*; only the base of a member or
        # index write counts as a read.
        if isinstance(target, ast.Name):
            if target.ident not in self.declared and not self._is_known_name(target.ident):
                self.owner._report(
                    "undeclared-var", f"assignment to undeclared '{target.ident}'", target
                )
        elif isinstance(target, (ast.Member, ast.IndexExpr, ast.Unary, ast.Cast)):
            base = getattr(target, "base", None) or getattr(target, "operand", None)
            if base is not None:
                self._walk_expr(base)
            index = getattr(target, "index", None)
            if index is not None:
                self._walk_expr(index)

    def _walk_call(self, call: ast.CallExpr) -> None:
        for arg in call.args:
            self._walk_expr(arg)
        if not isinstance(call.callee, ast.Name):
            self._walk_expr(call.callee)
            return
        name = call.callee.ident
        if name in self.declared:
            self.read.add(name)  # call through a local function pointer
            return
        target = self.owner.functions.get(name)
        if target is not None:
            if not target.variadic and len(call.args) != len(target.params):
                self.owner._report(
                    "call-arity",
                    f"'{name}' called with {len(call.args)} argument(s), declared with {len(target.params)}",
                    call,
                )
            return
        if name not in self.owner.known_functions:
            self.owner._report("implicit-decl", f"call to undeclared function '{name}'", call)
            self.owner.known_functions.add(name)  # once per unit

    def _check_name(self, expr: ast.Name, is_read: bool) -> None:
        name = expr.ident
        if name in self.declared:
            if is_read:
                self.read.add(name)
            return
        if self._is_known_name(name):
            return
        self.owner._report("undeclared-var", f"use of undeclared '{name}'", expr)

    def _is_known_name(self, name: str) -> bool:
        return (
            name in self.owner.globals
            or name in self.owner.enums
            or name in self.owner.known_functions
            or name in self.owner.functions
        )

    def _returns_on_all_paths(self, block: ast.Block) -> bool:
        for stmt in block.statements:
            if self._stmt_returns(stmt):
                return True
        return False

    def _stmt_returns(self, stmt: ast.Stmt) -> bool:
        if isinstance(stmt, (ast.ReturnStmt, ast.GotoStmt)):
            return True
        if isinstance(stmt, ast.Block):
            return self._returns_on_all_paths(stmt)
        if isinstance(stmt, ast.IfStmt):
            return (
                stmt.else_body is not None
                and self._stmt_returns(stmt.then_body)
                and self._stmt_returns(stmt.else_body)
            )
        if isinstance(stmt, ast.LabelStmt):
            return stmt.stmt is not None and self._stmt_returns(stmt.stmt)
        if isinstance(stmt, ast.WhileStmt):
            # `while (1)` without break is treated as non-returning but
            # also non-falling-through; approximate as returning.
            return isinstance(stmt.cond, ast.IntLit) and stmt.cond.value != 0
        return False


def check_source(source: str, filename: str = "<input>",
                 known_functions: Optional[Set[str]] = None) -> List[Diagnostic]:
    """Parse and lint one mini-C source; returns the diagnostics."""
    return SemaChecker(parse(source, filename), known_functions).run()
