"""CFG utilities: predecessors, orderings, dominators, paths, call graph."""

from hypothesis import given, settings, strategies as st

from repro import ir
from repro.cfg import (
    CallGraph,
    back_edges,
    count_paths,
    dominates,
    dominators,
    enumerate_paths,
    immediate_dominators,
    mark_interface_functions,
    predecessors,
    reachable_blocks,
    reverse_postorder,
)
from repro.lang import compile_program, compile_source


def diamond_function():
    """entry -> (then|else) -> join -> ret."""
    func = ir.Function("d", [ir.Var("d.c", ir.INT)], ir.INT)
    b = ir.IRBuilder(func)
    entry = b.new_block("entry")
    then_b = b.new_block("then")
    else_b = b.new_block("else")
    join = b.new_block("join")
    b.position_at(entry)
    cond = b.binop("ne", func.params[0], ir.const_int(0))
    b.branch(cond, then_b, else_b)
    b.position_at(then_b)
    b.jump(join)
    b.position_at(else_b)
    b.jump(join)
    b.position_at(join)
    b.ret(ir.const_int(0))
    return func, entry, then_b, else_b, join


def test_predecessors_of_join():
    func, entry, then_b, else_b, join = diamond_function()
    preds = predecessors(func)
    assert set(preds[join]) == {then_b, else_b}
    assert preds[entry] == []


def test_reverse_postorder_entry_first_join_last():
    func, entry, _, _, join = diamond_function()
    order = reverse_postorder(func)
    assert order[0] is entry and order[-1] is join


def test_reachable_blocks_excludes_orphans():
    func, *_ = diamond_function()
    orphan = func.add_block("orphan")
    orphan.set_terminator(ir.Ret(ir.const_int(1)))
    assert orphan not in reachable_blocks(func)


def test_back_edges_detect_loop():
    module = compile_source("int f(int n) { int s = 0; while (n > 0) n = n - 1; return s; }")
    func = module.functions["f"]
    edges = back_edges(func)
    assert len(edges) == 1
    source, target = next(iter(edges))
    assert "while.cond" in target.name


def test_diamond_has_no_back_edges():
    func, *_ = diamond_function()
    assert back_edges(func) == set()


def test_immediate_dominators_diamond():
    func, entry, then_b, else_b, join = diamond_function()
    idom = immediate_dominators(func)
    assert idom[entry] is None
    assert idom[then_b] is entry and idom[else_b] is entry
    assert idom[join] is entry


def test_dominator_sets_and_query():
    func, entry, then_b, _, join = diamond_function()
    doms = dominators(func)
    assert dominates(doms, entry, join)
    assert not dominates(doms, then_b, join)
    assert dominates(doms, join, join)


def test_enumerate_paths_diamond_yields_two():
    func, *_ = diamond_function()
    assert count_paths(func) == 2


def test_enumerate_paths_loop_unrolled_once():
    module = compile_source("int f(int n) { int s = 0; while (n > 0) s = s + 1; return s; }")
    func = module.functions["f"]
    paths = list(enumerate_paths(func))
    # Zero-iteration path and single-iteration path (unroll once).
    assert 1 <= len(paths) <= 3


def test_enumerate_paths_respects_budget():
    source = "int f(int a) { " + " ".join(f"if (a == {i}) a = a + 1;" for i in range(12)) + " return a; }"
    func = compile_source(source).functions["f"]
    assert count_paths(func, max_paths=10) == 10


def test_path_steps_record_branch_direction():
    func, *_ = diamond_function()
    for path in enumerate_paths(func):
        assert path.steps[0].branch_taken in (True, False)


def _two_file_program():
    return compile_program([
        ("a.c", "int helper(int x) { return x + 1; }\nint top(int x) { return helper(x); }"),
        ("b.c", "static int reg_probe(int x) { return helper(x); }\n"
                "struct ops { int (*probe)(int x); };\n"
                "static struct ops o = { .probe = reg_probe };"),
    ])


def test_callgraph_edges_cross_module():
    program = _two_file_program()
    cg = CallGraph(program)
    assert "helper" in cg.callees_of("top")
    assert "top" in cg.callers_of("helper")
    assert "reg_probe" in cg.callers_of("helper")


def test_entry_functions_are_callerless_or_interface():
    program = _two_file_program()
    cg = CallGraph(program)
    entries = {f.name for f in cg.entry_functions()}
    assert "top" in entries        # no caller
    assert "reg_probe" in entries  # interface registration
    assert "helper" not in entries


def test_mark_interface_functions_counts():
    program = _two_file_program()
    count = mark_interface_functions(program)
    assert count == 1
    assert program.lookup("reg_probe").is_interface


def test_recursive_functions_detected():
    program = compile_program([
        ("r.c",
         "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }\n"
         "int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n"
         "int odd(int n) { if (n == 0) return 0; return even(n - 1); }\n"
         "int plain(int n) { return n; }"),
    ])
    cg = CallGraph(program)
    rec = {
        name for name, i in cg.component_of.items()
        if len(cg.components[i]) > 1 or name in cg.callees_of(name)
    }
    assert "fact" in rec
    assert {"even", "odd"} <= rec
    assert "plain" not in rec
    assert cg.component_of["even"] == cg.component_of["odd"]


def test_transitive_callees():
    program = _two_file_program()
    cg = CallGraph(program)
    assert "helper" in cg.closure("top")
    assert cg.closure("helper") == frozenset({"helper"})


@st.composite
def call_programs(draw):
    """Mini-C source of a random call graph: direct calls (self-loops,
    cycles and calls to undefined functions included), indirect call
    sites through a global ops pointer, and a registration pool naming
    defined functions, repeats and a function nobody defines."""
    names = [f"f{i}" for i in range(draw(st.integers(1, 7)))]
    lines = ["struct ops { int (*run)(int n); };", "struct ops *g_ops;",
             "int ext(int n);", *(f"int {name}(int n);" for name in names)]
    for name in names:
        calls = draw(st.lists(st.sampled_from(names + ["ext"]), max_size=4))
        body = [f"s = s + {callee}(n);" for callee in calls]
        if draw(st.booleans()):
            body.append("s = s + g_ops->run(n);")
        lines.append(f"int {name}(int n) {{ int s = 0; {' '.join(body)} return s; }}")
    pool = draw(st.lists(st.sampled_from(names + ["ghost"]), max_size=4))
    lines += [f"static struct ops reg{i} = {{ .run = {name} }};" for i, name in enumerate(pool)]
    return "\n".join(lines)


def _reference_closure(program, name, resolve):
    """Plain BFS: direct calls to defined functions and, with
    resolution, every registered defined function behind an indirect
    call site."""
    defined = {func.name: func for func in program.functions()}
    pool = [reg.function for reg in program.registrations() if reg.function in defined]
    seen, work = {name}, [name]
    while work:
        for inst in defined[work.pop()].instructions():
            targets = []
            if isinstance(inst, ir.Call) and inst.callee in defined:
                targets = [inst.callee]
            elif isinstance(inst, ir.CallIndirect) and resolve:
                targets = pool
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    work.append(target)
    return frozenset(seen)


@settings(max_examples=80, deadline=None)
@given(source=call_programs(), resolve=st.booleans())
def test_property_graph_closures_folds_and_components(source, resolve):
    program = compile_program([("g.c", source)])
    cg = CallGraph(program, resolve_function_pointers=resolve)
    names = sorted(func.name for func in program.functions())
    closures = {name: _reference_closure(program, name, resolve) for name in names}
    bits = {name: 1 << i for i, name in enumerate(names)}
    masks = cg.fold(bits)
    sets = cg.fold({name: frozenset((name,)) for name in names})
    for name in names:
        assert cg.closure(name) == closures[name]
        assert masks[name] == sum(bits[member] for member in closures[name])
        assert sets[name] == closures[name]
    direct = {name: _reference_closure(program, name, False) for name in names}
    for i, members in enumerate(cg.components):
        assert all(j < i for j in cg.children[i])  # children first
        for name in members:
            assert set(members) == {
                other for other in names
                if other in direct[name] and name in direct[other]
            }
    assert cg.closure("ext") == frozenset({"ext"})
