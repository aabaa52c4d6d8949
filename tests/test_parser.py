"""Parser unit tests for mini-C."""

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse


def decls_of(source):
    return parse(source).decls


def only_func(source, name=None):
    for decl in decls_of(source):
        if isinstance(decl, ast.FunctionDef) and (name is None or decl.name == name):
            return decl
    raise AssertionError("no function found")


def test_struct_definition():
    (struct,) = decls_of("struct point { int x; int y; };")
    assert isinstance(struct, ast.StructDef)
    assert struct.name == "point"
    assert [f.name for f in struct.fields] == ["x", "y"]


def test_struct_with_pointer_and_array_fields():
    (struct,) = decls_of("struct s { struct s *next; int data[8]; };")
    next_field, data_field = struct.fields
    assert next_field.type.pointer_depth == 1
    assert data_field.type.array_dims == (8,)


def test_struct_multi_declarator_field():
    (struct,) = decls_of("struct s { int a, b, *c; };")
    assert [f.name for f in struct.fields] == ["a", "b", "c"]
    assert struct.fields[2].type.pointer_depth == 1


def test_forward_struct_declaration():
    (decl,) = decls_of("struct opaque;")
    assert isinstance(decl, ast.StructDef)
    assert decl.name == "@forward struct opaque"


def test_function_definition_params():
    func = only_func("static int f(struct s *p, int n) { return n; }")
    assert func.is_static
    assert [p.name for p in func.params] == ["p", "n"]
    assert func.params[0].type.pointer_depth == 1


def test_function_void_params_and_variadic():
    func = only_func("int g(void) { return 0; }")
    assert func.params == []
    variadic = only_func("int printf_like(char *fmt, ...) { return 0; }")
    assert variadic.variadic


def test_function_prototype_has_no_body():
    func = only_func("int h(int a);")
    assert func.body is None


def test_typedef_registers_name():
    unit = parse("typedef struct foo foo_t; foo_t *make(void) { return NULL; }")
    func = next(d for d in unit.decls if isinstance(d, ast.FunctionDef))
    assert func.return_type.base == "foo_t"
    assert func.return_type.pointer_depth == 1


def test_enum_lowered_to_constants():
    (decl,) = decls_of("enum state { IDLE, BUSY = 5, DONE };")
    names = [f.name for f in decl.fields]
    values = [f.init.expr.value for f in decl.fields]
    assert names == ["IDLE", "BUSY", "DONE"]
    assert values == [0, 5, 6]


def test_global_with_designated_initializer():
    unit = parse(
        "struct ops { int (*run)(int x); };\n"
        "static struct ops my_ops = { .run = handler };"
    )
    gvar = next(d for d in unit.decls if isinstance(d, ast.GlobalVar))
    assert gvar.declarator.init.fields[0][0] == "run"


def test_if_else_chain():
    func = only_func("void f(int a) { if (a) { g(); } else if (a > 1) h(); else k(); }")
    stmt = func.body.statements[0]
    assert isinstance(stmt, ast.IfStmt)
    assert isinstance(stmt.else_body, ast.IfStmt)


def test_while_and_do_while():
    func = only_func("void f(void) { while (1) g(); do h(); while (0); }")
    w, dw = func.body.statements
    assert isinstance(w, ast.WhileStmt) and not w.is_do_while
    assert isinstance(dw, ast.WhileStmt) and dw.is_do_while


def test_for_loop_with_declaration():
    func = only_func("void f(int n) { for (int i = 0; i < n; i++) g(i); }")
    loop = func.body.statements[0]
    assert isinstance(loop, ast.ForStmt)
    assert isinstance(loop.init, ast.DeclStmt)
    assert loop.cond is not None and loop.step is not None


def test_goto_and_labels():
    func = only_func("int f(int a) { if (a) goto out; return 1; out: return 0; }")
    kinds = [type(s).__name__ for s in func.body.statements]
    assert "LabelStmt" in kinds


def test_switch_with_cases_and_default():
    func = only_func(
        "int f(int t) { switch (t) { case 1: return 1; case 2: break; default: return 9; } return 0; }"
    )
    switch = func.body.statements[0]
    assert isinstance(switch, ast.SwitchStmt)
    labels = [label for label, _ in switch.cases]
    assert labels == [1, 2, None]


def test_precedence_multiplication_binds_tighter():
    func = only_func("int f(int a, int b) { return a + b * 2; }")
    ret = func.body.statements[0]
    assert isinstance(ret.value, ast.Binary) and ret.value.op == "+"
    assert isinstance(ret.value.rhs, ast.Binary) and ret.value.rhs.op == "*"


def test_precedence_logical_vs_comparison():
    func = only_func("int f(int a, int b) { return a < 1 && b > 2; }")
    expr = func.body.statements[0].value
    assert expr.op == "&&"
    assert expr.lhs.op == "<" and expr.rhs.op == ">"


def test_unary_deref_and_address():
    func = only_func("void f(int *p, int x) { *p = x; p = &x; }")
    assign1 = func.body.statements[0].expr
    assert isinstance(assign1.target, ast.Unary) and assign1.target.op == "*"
    assign2 = func.body.statements[1].expr
    assert isinstance(assign2.value, ast.Unary) and assign2.value.op == "&"


def test_member_and_arrow_chains():
    func = only_func("int f(struct s *p) { return p->inner.value; }")
    expr = func.body.statements[0].value
    assert isinstance(expr, ast.Member) and not expr.arrow
    assert isinstance(expr.base, ast.Member) and expr.base.arrow


def test_array_indexing_expression():
    func = only_func("int f(int *a, int i) { return a[i + 1]; }")
    expr = func.body.statements[0].value
    assert isinstance(expr, ast.IndexExpr)
    assert isinstance(expr.index, ast.Binary)


def test_call_with_arguments():
    func = only_func("void f(int a) { g(a, 1, h(a)); }")
    call = func.body.statements[0].expr
    assert isinstance(call, ast.CallExpr) and len(call.args) == 3
    assert isinstance(call.args[2], ast.CallExpr)


def test_ternary_expression():
    func = only_func("int f(int a) { return a ? 1 : 2; }")
    expr = func.body.statements[0].value
    assert isinstance(expr, ast.Ternary)


def test_cast_expression():
    func = only_func("struct t *f(void *p) { return (struct t *)p; }")
    expr = func.body.statements[0].value
    assert isinstance(expr, ast.Cast)
    assert expr.target_type.pointer_depth == 1


def test_sizeof_type_and_expression():
    func = only_func("int f(int x) { return sizeof(struct s) + sizeof x; }")
    expr = func.body.statements[0].value
    assert isinstance(expr.lhs, ast.SizeOf) and expr.lhs.target_type is not None
    assert isinstance(expr.rhs, ast.SizeOf) and expr.rhs.operand is not None


def test_compound_assignment_operators():
    func = only_func("void f(int a) { a += 2; a <<= 1; }")
    first = func.body.statements[0].expr
    assert isinstance(first, ast.Assign) and first.op == "+"
    second = func.body.statements[1].expr
    assert second.op == "<<"


def test_increment_decrement_forms():
    func = only_func("void f(int a) { a++; ++a; a--; }")
    ops = [s.expr.op for s in func.body.statements]
    assert ops == ["p++", "++", "p--"]


def test_function_pointer_field():
    (struct,) = decls_of("struct ops { int (*probe)(struct dev *d); };")
    field = struct.fields[0]
    assert field.name == "probe"
    assert field.type.func_params is not None


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as exc:
        parse("int f( { }", filename="bad.c")
    assert "bad.c" in str(exc.value)


def test_missing_semicolon_raises():
    with pytest.raises(ParseError):
        parse("int f(void) { return 0 }")


def test_multi_declarator_global_flattened():
    unit = parse("int a = 1, b = 2;")
    names = [d.declarator.name for d in unit.decls if isinstance(d, ast.GlobalVar)]
    assert names == ["a", "b"]


def test_source_lines_recorded():
    unit = parse("int a;\nint b;\n")
    assert unit.source_lines >= 2


# ---------------------------------------------------------------------------
# Nesting bounds: fixed, and within the headroom the frontend runs under
# ---------------------------------------------------------------------------


def _bounded_sources():
    """Sources at the frontend's nesting bounds, and one level past."""
    from repro.lang.parser import MAX_EXPRESSION_NESTING as ME, MAX_STATEMENT_NESTING as MS

    def ifs(levels, inner):
        return ("int g(int a); int f(int x, int *a) {\n" + "if (x) {\n" * levels + inner
                + "\n" + "}\n" * levels + "return x; }\n")

    def paren(levels):
        return "(" * levels + "x" + ")" * levels

    at = {
        "ifs+parens": ifs(MS // 2 - 1, f"x = {paren(ME - 3)};"),
        "ifs+sum": ifs(MS // 2 - 1, "x = " + " + ".join(["x"] * (ME - 1)) + ";"),
        "ifs+calls": ifs(MS // 2 - 1, "x = " + "g(" * (ME // 2 - 2) + "x" + ")" * (ME // 2 - 2) + ";"),
        "else-ifs": "int f(int x) { if (x) x = 1;" + " else if (x) x = 1;" * (MS - 2) + " return x; }\n",
        "initializer": "int f(void) { int v[1] = " + "{" * (ME - 1) + "1" + "}" * (ME - 1) + "; return 0; }\n",
    }
    past = {
        "ifs": ifs(MS // 2, "x = 1;"),
        "parens": ifs(1, f"x = {paren(ME)};"),
        "sum": ifs(1, "x = " + " + ".join(["x"] * (ME + 2)) + ";"),
        # Two chains, each within the bound, nest past it: the outer
        # chain's links enclose the inner chain's height.
        "nested-sums": ifs(1, "x = (" + " + ".join(["x"] * (ME // 2 + 8)) + ") + "
                           + " + ".join(["x"] * (ME // 2 + 8)) + ";"),
    }
    return at, past


def test_sources_at_the_nesting_bounds_compile_from_a_deep_stack():
    import sys

    from repro.lang import compile_source
    from repro.lang.sema import check_source

    def depth():
        frame, count = sys._getframe(), 0
        while frame is not None:
            frame, count = frame.f_back, count + 1
        return count

    def near_the_limit(call, room=40):
        return call() if depth() >= sys.getrecursionlimit() - room else near_the_limit(call, room)

    at, past = _bounded_sources()
    for name, source in at.items():
        near_the_limit(lambda: compile_source(source, f"{name}.c"))
        near_the_limit(lambda: check_source(source, f"{name}.c"))
    for name, source in past.items():
        with pytest.raises(ParseError, match="nesting too deep to parse"):
            compile_source(source, f"{name}.c")


# -- address-taken names: the parser's record against the AST walk ---------------


def _walked_address_taken(node, out):
    """Lowering's former pre-pass, kept as the oracle: every ``&name``
    found by walking the node's attributes."""
    if node is None:
        return out
    if isinstance(node, ast.Unary) and node.op == "&" and isinstance(node.operand, ast.Name):
        out.add(node.operand.ident)
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            _walked_address_taken(value, out)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    _walked_address_taken(item, out)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            _walked_address_taken(sub, out)
                        elif isinstance(sub, list):
                            for s2 in sub:
                                if isinstance(s2, ast.Node):
                                    _walked_address_taken(s2, out)
    return out


def _assert_recorded_matches_walk(sources):
    checked = taken = 0
    for filename, source in sources:
        for decl in parse(source, filename).decls:
            if isinstance(decl, ast.FunctionDef) and decl.body is not None:
                walked = _walked_address_taken(decl.body, set())
                assert decl.address_taken == walked, f"{filename}: {decl.name}"
                checked += 1
                taken += bool(walked)
    return checked, taken


def test_address_taken_is_recorded_per_function():
    source = """
int g;
int *h = &g;
void f(int a) { int b; int *p = &a; int **q = &p; int *r = &(b); }
void k(int a) { int *p = 0; p = &g; }
"""
    f, k = (d for d in decls_of(source) if isinstance(d, ast.FunctionDef))
    assert f.address_taken == {"a", "p", "b"}
    assert k.address_taken == {"g"}


def test_prototype_takes_no_address():
    assert only_func("int f(int a);").address_taken == set()


@pytest.mark.parametrize("name", ["linux", "zephyr", "riot", "tencentos",
                                  "taintlab", "racelab", "firmlab"])
def test_recorded_address_taken_equals_the_walk_on_profile(name):
    """Every function of every corpus profile (config-excluded files
    too): the parser's record is exactly what the walk finds."""
    from repro.corpus import CORPUS_PROFILES_BY_NAME, generate

    checked, taken = _assert_recorded_matches_walk(
        generate(CORPUS_PROFILES_BY_NAME[name]).all_sources())
    assert checked > 0


def test_recorded_address_taken_equals_the_walk_on_test_fixtures():
    """Every string literal in the tests and examples that parses as
    mini-C: the parser's record is exactly what the walk finds."""
    import ast as pyast
    import pathlib

    from repro.errors import ReproError

    root = pathlib.Path(__file__).resolve().parent.parent
    sources = []
    for path in sorted([*root.glob("tests/*.py"), *root.glob("examples/*.py")]):
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, pyast.Constant) and isinstance(node.value, str) and "{" in node.value:
                try:
                    parse(node.value, path.name)
                except (ReproError, RecursionError):
                    continue
                sources.append((path.name, node.value))
    checked, taken = _assert_recorded_matches_walk(sources)
    assert checked > 100 and taken > 10
