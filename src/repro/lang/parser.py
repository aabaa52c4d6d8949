"""Recursive-descent parser for mini-C.

The parser keeps a set of typedef names so declarations can be
distinguished from expressions without full C semantics.  Output is a
:class:`~repro.lang.ast.TranslationUnit`.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..errors import ParseError
from ..stack import headroom
from . import ast
from .lexer import Token, parse_int_literal, tokenize

BASE_TYPE_KEYWORDS = {
    "void", "int", "char", "long", "short", "float", "double", "bool",
    "unsigned", "signed",
}
QUALIFIERS = {"const", "volatile"}
STORAGE = {"static", "extern", "inline"}

# Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Nesting bounds of the frontend.  Constants, like P2's path-depth
#: bound: the parse stops with "nesting too deep to parse" at the token
#: that passes one, so whether a source compiles, and where it fails,
#: depends on the source alone.  As in C's translation limits,
#: statements and expressions are bounded apart.  A statement nested in
#: another is one level (an ``if`` and its ``{`` block are two), so 180
#: nested ``if`` blocks use 361.
MAX_STATEMENT_NESTING = 512
#: An expression level is an operand nested in another: a parenthesis,
#: a unary or cast operand, a nested ``{`` initializer, or one link of a
#: left-deep chain (``a + b + c``, ``a, b``, ``p->q[i]``, ``a = b``,
#: ``c ? a : b``), which nests below everything its chain holds so far.
#: The bound covers the height of every expression tree sema and
#: lowering recurse over.
MAX_EXPRESSION_NESTING = 128
#: Python frames parse, sema or lowering spend per level (3 and 7 at
#: most, measured over every statement and expression form), and at
#: the innermost level: the headroom they run under (see
#: :func:`repro.stack.headroom`)
_FRAMES_PER_STATEMENT = 4
_FRAMES_PER_EXPRESSION = 10
_LEAF_FRAMES = 100
FRONTEND_FRAMES = (MAX_STATEMENT_NESTING * _FRAMES_PER_STATEMENT
                   + MAX_EXPRESSION_NESTING * _FRAMES_PER_EXPRESSION + _LEAF_FRAMES)


class Parser:
    """Recursive-descent parser; one instance per translation unit."""

    def __init__(self, source: str, filename: str = "<input>"):
        tokens = tokenize(source, filename)
        # Two more copies of EOF make ``_peek(offset)`` for offset <= 2 a
        # plain index: ``pos`` never moves past the first EOF.
        self.tokens: List[Token] = tokens + tokens[-1:] * 2
        self.filename = filename
        self.pos = 0
        self.typedefs: Set[str] = set()
        self.source_lines = source.count("\n") + 1
        #: statement nesting of the statement being parsed
        self._statements = 0
        #: expression level being parsed, and the deepest level reached
        #: since the innermost open chain started
        self._expr_depth = 0
        self._expr_peak = 0
        #: names taken as ``&name`` in the function body being parsed
        #: (None outside a body)
        self._address_taken: Optional[Set[str]] = None

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            return None
        if kind != "eof":
            self.pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", self.filename, tok.line, tok.column)
        if kind != "eof":
            self.pos += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message, self.filename, tok.line, tok.column)

    # -- expression nesting (see MAX_EXPRESSION_NESTING) ----------------------

    def _descend(self) -> int:
        """Enter one expression level; returns the level to restore."""
        depth = self._expr_depth + 1
        if depth > MAX_EXPRESSION_NESTING:
            raise self._error("nesting too deep to parse")
        self._expr_depth = depth
        if depth > self._expr_peak:
            self._expr_peak = depth
        return depth - 1

    # A left-deep chain saves the level it sits at and the peak so far,
    # measures the peak afresh from its own level, and at its end
    # restores the level and keeps the higher peak.  The five chain
    # parsers do this inline: they run once per operand.

    def _link(self) -> None:
        """One more link of the open chain: it encloses everything the
        chain holds so far, and its operands nest one level below."""
        self._expr_depth = self._expr_peak
        self._descend()

    # -- type detection ------------------------------------------------------

    def _starts_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind == "kw" and (tok.text in BASE_TYPE_KEYWORDS or tok.text in QUALIFIERS or tok.text in ("struct", "union", "enum")):
            return True
        return tok.kind == "id" and tok.text in self.typedefs

    # -- entry point ----------------------------------------------------------

    def parse(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit(1, self.filename, [], self.source_lines)
        with headroom(FRONTEND_FRAMES):
            while not self._at("eof"):
                unit.decls.append(self._parse_top_level())
        return unit

    def _parse_top_level(self) -> ast.Node:
        tok = self._peek()
        if self._at("kw", "typedef"):
            return self._parse_typedef()
        if self._at("kw", "struct") and self._peek(1).kind == "id" and self._peek(2).text == "{":
            return self._parse_struct_def()
        if self._at("kw", "enum"):
            return self._parse_enum_def()
        storage: Set[str] = set()
        while self._peek().kind == "kw" and self._peek().text in STORAGE:
            storage.add(self._next().text)
        if self._at("kw", "struct") and self._peek(1).kind == "id" and self._peek(2).text == "{":
            # "static struct X {...}" is not valid mini-C; treat as struct def.
            return self._parse_struct_def()
        if not self._starts_type():
            raise self._error(f"expected declaration, found {tok.text!r}")
        base = self._parse_type_spec()
        if self._accept("punct", ";"):
            # Bare forward declaration: "struct foo;" — registers the tag.
            return ast.StructDef(tok.line, f"@forward {base.base}", [])
        decl = self._parse_declarator(base)
        if self._at("punct", "(") and decl.type.func_params is None:
            return self._parse_function_rest(decl, "static" in storage, tok.line)
        return self._parse_global_rest(decl, "static" in storage, tok.line)

    def _parse_typedef(self) -> ast.TypedefDecl:
        tok = self._expect("kw", "typedef")
        base = self._parse_type_spec()
        decl = self._parse_declarator(base)
        self._expect("punct", ";")
        self.typedefs.add(decl.name)
        return ast.TypedefDecl(tok.line, decl.name, decl.type)

    def _parse_struct_def(self) -> ast.StructDef:
        tok = self._expect("kw", "struct")
        name = self._expect("id").text
        self._expect("punct", "{")
        fields: List[ast.Declarator] = []
        while not self._accept("punct", "}"):
            base = self._parse_type_spec()
            while True:
                fields.append(self._parse_declarator(base))
                if not self._accept("punct", ","):
                    break
            self._expect("punct", ";")
        self._expect("punct", ";")
        return ast.StructDef(tok.line, name, fields)

    def _parse_enum_def(self) -> ast.TypedefDecl:
        """Enums are lowered to int constants via typedef-like handling.

        ``enum name { A, B = 3, C };`` registers nothing globally here; the
        lowering pass evaluates enumerators as int literals.  We keep the
        enumerators in a TypedefDecl-ish node for simplicity.
        """
        tok = self._expect("kw", "enum")
        name = self._accept("id")
        enum_name = name.text if name else "<anon>"
        node = ast.StructDef(tok.line, f"enum {enum_name}", [])
        if self._accept("punct", "{"):
            value = 0
            while not self._accept("punct", "}"):
                ident = self._expect("id").text
                if self._accept("punct", "="):
                    value = self._parse_constant_int()
                node.fields.append(
                    ast.Declarator(tok.line, ident, ast.TypeRef(tok.line, "int"), ast.Initializer(tok.line, ast.IntLit(tok.line, value)))
                )
                value += 1
                self._accept("punct", ",")
        self._expect("punct", ";")
        return node

    def _parse_constant_int(self) -> int:
        neg = bool(self._accept("punct", "-"))
        tok = self._expect("num")
        value = parse_int_literal(tok.text)
        return -value if neg else value

    # -- type spec / declarator ------------------------------------------------

    def _parse_type_spec(self) -> ast.TypeRef:
        tok = self._peek()
        words: List[str] = []
        while True:
            cur = self._peek()
            if cur.kind == "kw" and cur.text in QUALIFIERS:
                self._next()
                continue
            if cur.kind == "kw" and cur.text in ("struct", "union"):
                self._next()
                name = self._expect("id").text
                base = f"struct {name}"
                break
            if cur.kind == "kw" and cur.text == "enum":
                self._next()
                self._accept("id")
                base = "int"
                break
            if cur.kind == "kw" and cur.text in BASE_TYPE_KEYWORDS:
                words.append(self._next().text)
                continue
            if cur.kind == "id" and cur.text in self.typedefs and not words:
                self._next()
                base = cur.text
                break
            if words:
                base = " ".join(words)
                break
            raise self._error(f"expected type, found {cur.text!r}")
        return ast.TypeRef(tok.line, base, 0)

    def _parse_declarator(self, base: ast.TypeRef) -> ast.Declarator:
        pointers = 0
        while self._accept("punct", "*"):
            while self._peek().kind == "kw" and self._peek().text in QUALIFIERS:
                self._next()
            pointers += 1
        # Function-pointer declarator: ( * name ) ( params )
        if self._at("punct", "(") and self._peek(1).text == "*":
            self._next()
            self._expect("punct", "*")
            name_tok = self._expect("id")
            self._expect("punct", ")")
            self._expect("punct", "(")
            params: List[ast.TypeRef] = []
            if not self._at("punct", ")"):
                while True:
                    if self._accept("punct", "..."):
                        break
                    ptype = self._parse_type_spec()
                    pdecl_ptr = 0
                    while self._accept("punct", "*"):
                        pdecl_ptr += 1
                    self._accept("id")
                    params.append(ptype.with_pointers(pdecl_ptr))
                    if not self._accept("punct", ","):
                        break
            self._expect("punct", ")")
            ty = ast.TypeRef(base.line, base.base, base.pointer_depth + pointers, (), tuple(params))
            # A function pointer is pointer-like: one extra level.
            ty.pointer_depth += 1
            return ast.Declarator(name_tok.line, name_tok.text, ty, None)
        name_tok = self._expect("id")
        dims: List[int] = []
        while self._accept("punct", "["):
            if self._at("punct", "]"):
                dims.append(0)
            else:
                dims.append(self._parse_constant_int())
            self._expect("punct", "]")
        ty = ast.TypeRef(base.line, base.base, base.pointer_depth + pointers, tuple(dims))
        return ast.Declarator(name_tok.line, name_tok.text, ty, None)

    # -- functions & globals ---------------------------------------------------

    def _parse_function_rest(self, decl: ast.Declarator, is_static: bool, line: int) -> ast.FunctionDef:
        self._expect("punct", "(")
        params: List[ast.ParamDecl] = []
        variadic = False
        if not self._at("punct", ")"):
            if self._at("kw", "void") and self._peek(1).text == ")":
                self._next()
            else:
                while True:
                    if self._accept("punct", "..."):
                        variadic = True
                        break
                    ptok = self._peek()
                    base = self._parse_type_spec()
                    if self._at("punct", ")") or self._at("punct", ","):
                        params.append(ast.ParamDecl(ptok.line, f"<anon{len(params)}>", base))
                    else:
                        pdecl = self._parse_declarator(base)
                        params.append(ast.ParamDecl(pdecl.line, pdecl.name, pdecl.type))
                    if not self._accept("punct", ","):
                        break
        self._expect("punct", ")")
        body: Optional[ast.Block] = None
        taken: Set[str] = set()
        if not self._accept("punct", ";"):
            self._address_taken = taken
            body = self._parse_block()
            self._address_taken = None
        return ast.FunctionDef(line, decl.name, decl.type, params, body, is_static, variadic, taken)

    def _parse_global_rest(self, first: ast.Declarator, is_static: bool, line: int) -> ast.Node:
        decls = [first]
        if self._accept("punct", "="):
            first.init = self._parse_initializer()
        while self._accept("punct", ","):
            decl = self._parse_declarator(ast.TypeRef(first.type.line, first.type.base, 0))
            if self._accept("punct", "="):
                decl.init = self._parse_initializer()
            decls.append(decl)
        self._expect("punct", ";")
        if len(decls) == 1:
            return ast.GlobalVar(line, decls[0], is_static)
        block = ast.TranslationUnit(line, self.filename, [ast.GlobalVar(line, d, is_static) for d in decls])
        return block

    def _parse_initializer(self) -> ast.Initializer:
        tok = self._peek()
        if self._accept("punct", "{"):
            depth = self._descend()
            fields: List[Tuple[str, ast.Initializer]] = []
            elements: List[ast.Initializer] = []
            while not self._accept("punct", "}"):
                if self._accept("punct", "."):
                    fname = self._expect("id").text
                    self._expect("punct", "=")
                    fields.append((fname, self._parse_initializer()))
                else:
                    elements.append(self._parse_initializer())
                self._accept("punct", ",")
            self._expr_depth = depth
            if fields:
                return ast.Initializer(tok.line, None, fields, None)
            return ast.Initializer(tok.line, None, None, elements)
        return ast.Initializer(tok.line, self._parse_assignment())

    # -- statements ---------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        tok = self._expect("punct", "{")
        statements: List[ast.Stmt] = []
        while not self._accept("punct", "}"):
            statements.append(self._parse_statement())
        return ast.Block(tok.line, statements)

    def _parse_statement(self) -> ast.Stmt:
        self._statements += 1
        if self._statements > MAX_STATEMENT_NESTING:
            raise self._error("nesting too deep to parse")
        stmt = self._parse_statement_kind()
        self._statements -= 1
        return stmt

    def _parse_statement_kind(self) -> ast.Stmt:
        tok = self._peek()
        if self._at("punct", "{"):
            return self._parse_block()
        if self._at("punct", ";"):
            self._next()
            return ast.EmptyStmt(tok.line)
        if self._at("kw", "if"):
            return self._parse_if()
        if self._at("kw", "while"):
            return self._parse_while()
        if self._at("kw", "do"):
            return self._parse_do_while()
        if self._at("kw", "for"):
            return self._parse_for()
        if self._at("kw", "switch"):
            return self._parse_switch()
        if self._accept("kw", "return"):
            value = None if self._at("punct", ";") else self._parse_expression()
            self._expect("punct", ";")
            return ast.ReturnStmt(tok.line, value)
        if self._accept("kw", "break"):
            self._expect("punct", ";")
            return ast.BreakStmt(tok.line)
        if self._accept("kw", "continue"):
            self._expect("punct", ";")
            return ast.ContinueStmt(tok.line)
        if self._accept("kw", "goto"):
            label = self._expect("id").text
            self._expect("punct", ";")
            return ast.GotoStmt(tok.line, label)
        if tok.kind == "id" and self._peek(1).text == ":" and self._peek(2).text != ":":
            self._next()
            self._next()
            inner = None
            if not self._at("punct", "}"):
                inner = self._parse_statement()
            return ast.LabelStmt(tok.line, tok.text, inner)
        if self._starts_type() and not self._is_expression_start_despite_type():
            return self._parse_decl_stmt()
        expr = self._parse_expression()
        self._expect("punct", ";")
        return ast.ExprStmt(tok.line, expr)

    def _is_expression_start_despite_type(self) -> bool:
        """A typedef name followed by something that is not a declarator is an
        expression (e.g. ``obj_t * p`` declares, ``size = n`` assigns)."""
        tok = self._peek()
        if tok.kind != "id":
            return False
        nxt = self._peek(1)
        return nxt.text not in ("*",) and nxt.kind != "id" and not (nxt.text == "(" and self._peek(2).text == "*")

    def _parse_decl_stmt(self) -> ast.DeclStmt:
        tok = self._peek()
        while self._peek().kind == "kw" and self._peek().text in STORAGE:
            self._next()
        base = self._parse_type_spec()
        declarators: List[ast.Declarator] = []
        while True:
            decl = self._parse_declarator(base)
            if self._accept("punct", "="):
                decl.init = self._parse_initializer()
            declarators.append(decl)
            if not self._accept("punct", ","):
                break
        self._expect("punct", ";")
        return ast.DeclStmt(tok.line, declarators)

    def _parse_if(self) -> ast.IfStmt:
        tok = self._expect("kw", "if")
        self._expect("punct", "(")
        cond = self._parse_expression()
        self._expect("punct", ")")
        then_body = self._parse_statement()
        else_body = self._parse_statement() if self._accept("kw", "else") else None
        return ast.IfStmt(tok.line, cond, then_body, else_body)

    def _parse_while(self) -> ast.WhileStmt:
        tok = self._expect("kw", "while")
        self._expect("punct", "(")
        cond = self._parse_expression()
        self._expect("punct", ")")
        return ast.WhileStmt(tok.line, cond, self._parse_statement(), False)

    def _parse_do_while(self) -> ast.WhileStmt:
        tok = self._expect("kw", "do")
        body = self._parse_statement()
        self._expect("kw", "while")
        self._expect("punct", "(")
        cond = self._parse_expression()
        self._expect("punct", ")")
        self._expect("punct", ";")
        return ast.WhileStmt(tok.line, cond, body, True)

    def _parse_for(self) -> ast.ForStmt:
        tok = self._expect("kw", "for")
        self._expect("punct", "(")
        init: Optional[ast.Stmt] = None
        if not self._accept("punct", ";"):
            if self._starts_type():
                init = self._parse_decl_stmt()
            else:
                init = ast.ExprStmt(tok.line, self._parse_expression())
                self._expect("punct", ";")
        cond = None if self._at("punct", ";") else self._parse_expression()
        self._expect("punct", ";")
        step = None if self._at("punct", ")") else self._parse_expression()
        self._expect("punct", ")")
        return ast.ForStmt(tok.line, init, cond, step, self._parse_statement())

    def _parse_switch(self) -> ast.SwitchStmt:
        tok = self._expect("kw", "switch")
        self._expect("punct", "(")
        value = self._parse_expression()
        self._expect("punct", ")")
        self._expect("punct", "{")
        cases: List[Tuple[Optional[int], List[ast.Stmt]]] = []
        current: Optional[List[ast.Stmt]] = None
        while not self._accept("punct", "}"):
            if self._accept("kw", "case"):
                label = self._parse_constant_int()
                self._expect("punct", ":")
                current = []
                cases.append((label, current))
            elif self._accept("kw", "default"):
                self._expect("punct", ":")
                current = []
                cases.append((None, current))
            else:
                if current is None:
                    raise self._error("statement before first case label")
                current.append(self._parse_statement())
        return ast.SwitchStmt(tok.line, value, cases)

    # -- expressions ------------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        top, outer = self._expr_depth, self._expr_peak
        self._expr_peak = top
        expr = self._parse_assignment()
        while self._accept("punct", ","):
            self._link()
            expr = ast.Binary(expr.line, ",", expr, self._parse_assignment())
        self._expr_depth = top
        if outer > self._expr_peak:
            self._expr_peak = outer
        return expr

    def _parse_assignment(self) -> ast.Expr:
        top, outer = self._expr_depth, self._expr_peak
        self._expr_peak = top
        expr = self._parse_ternary()
        tok = self._peek()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            self._next()
            self._link()
            rhs = self._parse_assignment()
            op = tok.text[:-1] if tok.text != "=" else ""
            expr = ast.Assign(tok.line, expr, rhs, op)
        self._expr_depth = top
        if outer > self._expr_peak:
            self._expr_peak = outer
        return expr

    def _parse_ternary(self) -> ast.Expr:
        top, outer = self._expr_depth, self._expr_peak
        self._expr_peak = top
        expr = self._parse_binary(1)
        if self._accept("punct", "?"):
            self._link()
            then_expr = self._parse_expression()
            self._expect("punct", ":")
            else_expr = self._parse_ternary()
            expr = ast.Ternary(expr.line, expr, then_expr, else_expr)
        self._expr_depth = top
        if outer > self._expr_peak:
            self._expr_peak = outer
        return expr

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        top, outer = self._expr_depth, self._expr_peak
        self._expr_peak = top
        lhs = self._parse_unary()
        while True:
            tok = self._peek()
            prec = _BINARY_PRECEDENCE.get(tok.text) if tok.kind == "punct" else None
            if prec is None or prec < min_prec:
                self._expr_depth = top
                if outer > self._expr_peak:
                    self._expr_peak = outer
                return lhs
            self._next()
            self._link()
            rhs = self._parse_binary(prec + 1)
            lhs = ast.Binary(tok.line, tok.text, lhs, rhs)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "punct" and tok.text in ("-", "~", "!", "*", "&", "++", "--"):
            self._next()
            operand = self._parse_operand()
            if tok.text == "&" and self._address_taken is not None and isinstance(operand, ast.Name):
                self._address_taken.add(operand.ident)
            return ast.Unary(tok.line, tok.text, operand)
        if tok.kind == "kw" and tok.text == "sizeof":
            self._next()
            if self._at("punct", "(") and self._starts_type(1):
                self._next()
                ty = self._parse_type_spec()
                depth = 0
                while self._accept("punct", "*"):
                    depth += 1
                self._expect("punct", ")")
                return ast.SizeOf(tok.line, ty.with_pointers(depth), None)
            return ast.SizeOf(tok.line, None, self._parse_operand())
        if self._at("punct", "(") and self._starts_type(1):
            self._next()
            ty = self._parse_type_spec()
            depth = 0
            while self._accept("punct", "*"):
                depth += 1
            self._expect("punct", ")")
            return ast.Cast(tok.line, ty.with_pointers(depth), self._parse_operand())
        return self._parse_postfix()

    def _parse_operand(self) -> ast.Expr:
        """A unary, cast or ``sizeof`` operand, one level down."""
        depth = self._descend()
        operand = self._parse_unary()
        self._expr_depth = depth
        return operand

    def _parse_postfix(self) -> ast.Expr:
        top, outer = self._expr_depth, self._expr_peak
        self._expr_peak = top
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind == "punct" and tok.text in ("(", "[", ".", "->", "++", "--"):
                self._link()
            if self._accept("punct", "("):
                args: List[ast.Expr] = []
                if not self._at("punct", ")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept("punct", ","):
                            break
                self._expect("punct", ")")
                expr = ast.CallExpr(tok.line, expr, args)
            elif self._accept("punct", "["):
                index = self._parse_expression()
                self._expect("punct", "]")
                expr = ast.IndexExpr(tok.line, expr, index)
            elif self._accept("punct", "."):
                expr = ast.Member(tok.line, expr, self._expect("id").text, False)
            elif self._accept("punct", "->"):
                expr = ast.Member(tok.line, expr, self._expect("id").text, True)
            elif tok.kind == "punct" and tok.text in ("++", "--"):
                self._next()
                expr = ast.Unary(tok.line, "p" + tok.text, expr)
            else:
                self._expr_depth = top
                if outer > self._expr_peak:
                    self._expr_peak = outer
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "num":
            self._next()
            return ast.IntLit(tok.line, parse_int_literal(tok.text))
        if tok.kind == "char":
            self._next()
            return ast.CharLit(tok.line, tok.text)
        if tok.kind == "string":
            self._next()
            return ast.StrLit(tok.line, tok.text)
        if self._accept("kw", "NULL"):
            return ast.NullLit(tok.line)
        if tok.kind == "id":
            self._next()
            return ast.Name(tok.line, tok.text)
        if self._accept("punct", "("):
            depth = self._descend()
            expr = self._parse_expression()
            self._expr_depth = depth
            self._expect("punct", ")")
            return expr
        raise self._error(f"expected expression, found {tok.text!r}")


def parse(source: str, filename: str = "<input>") -> ast.TranslationUnit:
    """Parse mini-C ``source`` into a translation unit."""
    unit = Parser(source, filename).parse()
    # Flatten multi-declarator globals that the parser wrapped.
    flattened: List[ast.Node] = []
    for decl in unit.decls:
        if isinstance(decl, ast.TranslationUnit):
            flattened.extend(decl.decls)
        else:
            flattened.append(decl)
    unit.decls = flattened
    return unit
