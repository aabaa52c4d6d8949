"""Points-to analyses (the baselines' aliasing substrate)."""

import pytest

from repro.lang import compile_program
from repro.pointsto import AndersenPointsTo, FlowSensitivePointsTo, MemoryBudgetExceeded
from repro.vfg import ValueFlowGraph, escaping_malloc_sites


def solved(source):
    program = compile_program([("t.c", source)])
    return program, AndersenPointsTo(program).solve()


def test_malloc_creates_object():
    program, pts = solved("void f(void) { char *p = malloc(8); }")
    assert len(pts.points_to("f.p")) == 1


def test_copy_propagates_objects():
    program, pts = solved("void f(void) { char *p = malloc(8); char *q = p; }")
    assert pts.points_to("f.q") == pts.points_to("f.p")
    assert pts.may_alias("f.p", "f.q")


def test_two_allocations_do_not_alias():
    program, pts = solved("void f(void) { char *p = malloc(8); char *q = malloc(8); }")
    assert not pts.may_alias("f.p", "f.q")


def test_store_load_through_pointer():
    source = """
void f(void) {
    char *obj = malloc(8);
    char **slot = malloc(8);
    *slot = obj;
    char *out = *slot;
}
"""
    program, pts = solved(source)
    assert pts.may_alias("f.obj", "f.out")


def test_field_sensitive_geps():
    source = """
struct s { int a; int b; };
void f(void) {
    struct s *p = malloc(16);
    int *pa = &p->a;
    int *pb = &p->b;
    int *pa2 = &p->a;
}
"""
    program, pts = solved(source)
    assert pts.may_alias("f.pa", "f.pa2")
    assert not pts.may_alias("f.pa", "f.pb")


def test_call_propagates_arguments():
    source = """
static void sink(char *x) { }
void f(void) {
    char *p = malloc(8);
    sink(p);
}
"""
    program, pts = solved(source)
    assert pts.may_alias("f.p", "sink.x")


def test_return_value_propagates():
    source = """
static char *make(void) { char *p = malloc(8); return p; }
void f(void) { char *q = make(); }
"""
    program, pts = solved(source)
    assert pts.may_alias("make.p", "f.q")


def test_interface_params_have_empty_points_to():
    """The D1 failure (Fig. 1): no caller ⇒ empty set ⇒ aliases missed."""
    source = """
struct dev { int x; };
static int probe(struct dev *pdev) { struct dev *d = pdev; return 0; }
struct drv { int (*probe)(struct dev *p); };
static struct drv driver = { .probe = probe };
"""
    program, pts = solved(source)
    assert pts.points_to("probe.pdev") == frozenset()
    # d copies pdev, so it is empty too — and notably NOT may_alias.
    assert not pts.may_alias("probe.pdev", "probe.d") or pts.points_to("probe.d")


def test_address_of_global():
    source = "int g; void f(void) { int *p = &g; int *q = &g; }"
    program, pts = solved(source)
    assert pts.may_alias("f.p", "f.q")


def test_memory_budget_raises():
    source = """
void f(void) {
    char *a = malloc(8); char *b = malloc(8); char *c = malloc(8);
    char *x = a; char *y = b; char *z = c;
}
"""
    program = compile_program([("t.c", source)])
    with pytest.raises(MemoryBudgetExceeded):
        AndersenPointsTo(program, max_pts_entries=2).solve()


def test_flow_sensitive_strong_update():
    source = """
void f(void) {
    char *p = malloc(8);
    char *q = malloc(8);
    char *t = p;
    t = q;
    char *u = t;
}
"""
    program = compile_program([("t.c", source)])
    base = AndersenPointsTo(program).solve()
    fs = FlowSensitivePointsTo(base)
    func = program.lookup("f")
    # Flow-insensitively t may point to both objects...
    assert len(base.points_to("f.t")) == 2
    # ...but at the end of the entry block the strong update leaves only q's.
    entry = func.entry
    assert len(fs.points_to_at(func, entry.uid, "f.t")) == 1


def test_flow_sensitive_falls_back_to_base():
    source = "void f(char **pp) { char *v = *pp; }"
    program = compile_program([("t.c", source)])
    base = AndersenPointsTo(program).solve()
    fs = FlowSensitivePointsTo(base)
    func = program.lookup("f")
    assert fs.points_to_at(func, func.entry.uid, "f.v") == base.points_to("f.v")


# -- the indexed solver against the quadratic oracle --------------------------


class QuadraticAndersen(AndersenPointsTo):
    """The solver as first written: every worklist node rescans every
    load, store and GEP constraint, and every new content edge rescans
    every load.  Kept as the oracle for the indexed :meth:`solve`."""

    def solve(self):
        from collections import deque

        from repro.ir import Ret, Var

        for func in self.program.functions():
            self._gen_function(func)
        for func in self.program.functions():
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, Ret) and isinstance(term.value, Var):
                    for receiver in self._returns.get(func.name, ()):
                        self._copy_edges[term.value.name].add(receiver)
        work = deque(self.pts.keys())
        in_work = set(work)

        def enqueue(node):
            if node not in in_work:
                work.append(node)
                in_work.add(node)

        while work:
            node = work.popleft()
            in_work.discard(node)
            node_pts = self.pts[node]
            for succ in list(self._copy_edges.get(node, ())):
                changed = False
                for obj in list(node_pts):
                    changed |= self._add_pts(succ, obj)
                if changed:
                    enqueue(succ)
            for dst, ptr in self._loads:
                if ptr != node:
                    continue
                changed = False
                for obj in list(self.pts[ptr]):
                    for value in list(self.contents[obj]):
                        changed |= self._add_pts(dst, value)
                if changed:
                    enqueue(dst)
            for ptr, src in self._stores:
                if ptr != node and src != node:
                    continue
                for obj in list(self.pts[ptr]):
                    for value in list(self.pts[src]):
                        if self._add_contents(obj, value):
                            for dst2, ptr2 in self._loads:
                                if obj in self.pts[ptr2]:
                                    enqueue(ptr2)
            for dst, base, fieldname in self._geps:
                if base != node:
                    continue
                changed = False
                for obj in list(self.pts[base]):
                    changed |= self._add_pts(dst, ("f", obj, fieldname))
                if changed:
                    enqueue(dst)
        self.solved = True
        return self



class QuadraticVFG(ValueFlowGraph):
    """The value-flow graph's build as first written: ``may_alias`` on
    every store x load pair.  Kept as the oracle for the indexed match."""

    def _build(self):
        from collections import defaultdict

        from repro.ir import Call, Free, Load, Malloc, Move, Ret, Store, Var

        stores, loads, returns = [], [], defaultdict(set)
        for func in self.program.functions():
            for block in func.blocks:
                for inst in block.instructions:
                    if isinstance(inst, Move) and isinstance(inst.src, Var):
                        self.edges[inst.src.name].add(inst.dst.name)
                    elif isinstance(inst, Store):
                        if isinstance(inst.src, Var):
                            stores.append(inst)
                    elif isinstance(inst, Load):
                        loads.append(inst)
                    elif isinstance(inst, Malloc):
                        self.malloc_sites.append(inst)
                    elif isinstance(inst, Free):
                        self.free_sites.append(inst)
                    elif isinstance(inst, Call):
                        callee = self.program.lookup(inst.callee)
                        if callee is None:
                            continue
                        for param, arg in zip(callee.params, inst.args):
                            if isinstance(arg, Var):
                                self.edges[arg.name].add(param.name)
                        if inst.dst is not None:
                            returns[inst.callee].add(inst.dst.name)
                term = block.terminator
                if isinstance(term, Ret) and isinstance(term.value, Var):
                    for receiver in returns.get(func.name, ()):
                        self.edges[term.value.name].add(receiver)
        for func in self.program.functions():
            for block in func.blocks:
                term = block.terminator
                if isinstance(term, Ret) and isinstance(term.value, Var):
                    for receiver in returns.get(func.name, ()):
                        self.edges[term.value.name].add(receiver)
        for store in stores:
            for load in loads:
                if self.points_to.may_alias(store.ptr.name, load.ptr.name):
                    self.edges[store.src.name].add(load.dst.name)


def test_store_after_the_load_reaches_the_load():
    """A content edge added after the load pointer was visited: the
    object -> load-pointer map must queue the load again."""
    source = """
void f(void) {
    char **slot = malloc(8);
    char *out = *slot;
    char *obj = malloc(8);
    char **alias = slot;
    *alias = obj;
}
"""
    program, pts = solved(source)
    assert pts.may_alias("f.obj", "f.out")
    assert _nonempty(pts.pts) == _nonempty(QuadraticAndersen(program).solve().pts)


def _nonempty(sets):
    return {key: value for key, value in sets.items() if value}


@pytest.mark.parametrize("name", ["linux", "zephyr", "riot", "tencentos",
                                  "taintlab", "racelab", "firmlab"])
def test_indexed_solver_and_vfg_match_the_quadratic_oracle(name):
    """On every corpus profile the indexed solver reaches the quadratic
    solver's fixpoint (points-to sets, contents, entry count), the VFG
    matches stores to loads as the pairwise ``may_alias`` loop does, and
    the race checker's shared-heap universe is unchanged."""
    from repro.corpus import CORPUS_PROFILES_BY_NAME, generate

    profile = CORPUS_PROFILES_BY_NAME[name].scaled(3.0 if name.endswith("lab") else 0.4)
    program = compile_program(generate(profile).compiled_sources())
    indexed = AndersenPointsTo(program).solve()
    oracle = QuadraticAndersen(program).solve()
    assert _nonempty(indexed.pts) == _nonempty(oracle.pts)
    assert _nonempty(indexed.contents) == _nonempty(oracle.contents)
    assert indexed._entries == oracle._entries > 0

    vfg = ValueFlowGraph(program, indexed)
    expected = QuadraticVFG(program, oracle)
    assert _nonempty(vfg.edges) == _nonempty(expected.edges)
    assert vfg.malloc_sites == expected.malloc_sites and vfg.free_sites == expected.free_sites
    assert escaping_malloc_sites(program, vfg) == escaping_malloc_sites(program, expected)

    # The baselines' memory budget: with equal entry counts, a budget
    # gives both solvers the OOM verdict or neither.
    for budget in (oracle._entries - 1, oracle._entries):
        verdicts = []
        for solver in (AndersenPointsTo, QuadraticAndersen):
            try:
                solver(program, max_pts_entries=budget).solve()
                verdicts.append("ok")
            except MemoryBudgetExceeded:
                verdicts.append("oom")
        assert verdicts == ["oom" if budget < oracle._entries else "ok"] * 2
