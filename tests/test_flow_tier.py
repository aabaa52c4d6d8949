"""P1.8 skip sets and the flow-sensitive points-to pass.

Three layers of evidence:

* **property suite** — randomized small acyclic pointer programs,
  checked against a brute-force path enumerator: on an acyclic path
  every allocation runs at most once, so a per-path interpreter whose
  stores are always strong is *exact*; the flow pass (joins, bounded
  fixpoint, top-level kills, weak memory) must over-approximate it at
  every block for every name.  Any unsound kill shows up as a concrete
  value the flow pass lost.  The enumerator is also the model for a
  whole-engine soundness property;
* **Andersen-coarsening cross-check** — on every corpus profile, the
  flow states must refine (never leave) the Andersen sets, so every
  Andersen must-not-alias verdict survives at every program point;
* **skip-set pins** — closures come from the run's call graph, skip sets are
  supersets of the P1.7 singleton fast path, and globals never skip.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cfg import successors
from repro.corpus import ALL_PROFILES, generate
from repro.ir import Var
from repro.lang import compile_program
from repro.pointsto import (
    AndersenPointsTo,
    SteensgaardPointsTo,
    compute_flow_facts,
)
from repro.pointsto.flow_sensitive import FlowSensitivePointsTo

# -- randomized program generation ------------------------------------------
#
# The grammar keeps every pointer assignment deterministic (p = &x,
# p = q, q = &p, p = *q) so a concrete path fixes every pointer exactly
# — the brute-force reference below is then exact, not conservative,
# and the subset check is precisely a soundness check.

_INTS = ("x0", "x1", "x2")
_PTRS = ("p0", "p1", "p2")
_PPTRS = ("q0", "q1")


def _stmt():
    return st.one_of(
        st.tuples(st.just("addr"), st.sampled_from(_PTRS), st.sampled_from(_INTS)),
        st.tuples(st.just("copy"), st.sampled_from(_PTRS), st.sampled_from(_PTRS)),
        st.tuples(st.just("addrp"), st.sampled_from(_PPTRS), st.sampled_from(_PTRS)),
        st.tuples(st.just("storep"), st.sampled_from(_PPTRS), st.sampled_from(_PTRS)),
        st.tuples(st.just("loadp"), st.sampled_from(_PTRS), st.sampled_from(_PPTRS)),
        st.tuples(st.just("storei"), st.sampled_from(_PTRS), st.integers(0, 9)),
        st.tuples(st.just("loadi"), st.sampled_from(_INTS), st.sampled_from(_PTRS)),
    )


_BLOCKS = st.lists(_stmt(), min_size=1, max_size=5)


def _render_stmt(stmt):
    kind = stmt[0]
    if kind == "addr":
        return f"{stmt[1]} = &{stmt[2]};"
    if kind == "copy":
        return f"{stmt[1]} = {stmt[2]};"
    if kind == "addrp":
        return f"{stmt[1]} = &{stmt[2]};"
    if kind == "storep":
        return f"*{stmt[1]} = {stmt[2]};"
    if kind == "loadp":
        return f"{stmt[1]} = *{stmt[2]};"
    if kind == "storei":
        return f"*{stmt[1]} = {stmt[2]};"
    return f"{stmt[1]} = *{stmt[2]};"


def _render_program(prelude, branches):
    lines = ["void f(void) {"]
    lines += [f"    int {n} = 0;" for n in _INTS]
    lines += [f"    int *{n} = &x0;" for n in _PTRS]
    lines += [f"    int **{n} = &p0;" for n in _PPTRS]
    lines += ["    " + _render_stmt(s) for s in prelude]
    for cond_var, then_stmts, else_stmts in branches:
        lines.append(f"    if ({cond_var} > 0) {{")
        lines += ["        " + _render_stmt(s) for s in then_stmts]
        lines.append("    } else {")
        lines += ["        " + _render_stmt(s) for s in else_stmts]
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


_PROGRAMS = st.builds(
    _render_program,
    _BLOCKS,
    st.lists(
        st.tuples(st.sampled_from(_INTS), _BLOCKS, _BLOCKS),
        min_size=0,
        max_size=3,
    ),
)


def _reference_block_outs(func, base):
    """Brute-force path enumeration: per-path interpreter with always-
    strong heap updates (exact on acyclic paths), unioned per block.
    Returns {(block uid, name): set of objects}."""
    outs = {}
    entry = func.blocks[0]
    work = [(entry, {}, {})]
    while work:
        block, state, heap = work.pop()
        state = dict(state)
        heap = dict(heap)
        for inst in block.instructions:
            cls = type(inst).__name__
            if cls in ("Malloc", "Alloc"):
                state[inst.dst.name] = frozenset({("o", inst.uid)})
            elif cls == "AddrOf":
                state[inst.dst.name] = frozenset({("g", inst.var.name)})
            elif cls == "Move":
                if isinstance(inst.src, Var):
                    state[inst.dst.name] = state.get(
                        inst.src.name, base.points_to(inst.src.name))
                else:
                    state[inst.dst.name] = frozenset()
            elif cls == "Gep":
                objs = state.get(inst.base.name, base.points_to(inst.base.name))
                state[inst.dst.name] = frozenset(
                    ("f", o, inst.field) for o in objs)
            elif cls == "Load":
                ptr = state.get(inst.ptr.name, base.points_to(inst.ptr.name))
                if len(ptr) == 1 and next(iter(ptr)) in heap:
                    state[inst.dst.name] = heap[next(iter(ptr))]
                else:
                    state[inst.dst.name] = base.points_to(inst.dst.name)
            elif cls == "Store":
                ptr = state.get(inst.ptr.name, base.points_to(inst.ptr.name))
                value = (
                    state.get(inst.src.name, base.points_to(inst.src.name))
                    if isinstance(inst.src, Var) else frozenset()
                )
                if len(ptr) == 1:
                    # One path = one execution: every store to a known
                    # cell is concretely strong.
                    heap[next(iter(ptr))] = value
                else:
                    for obj in ptr:
                        heap[obj] = heap.get(obj, frozenset()) | value
            else:
                dst = inst.defined_var()
                if dst is not None:
                    state.pop(dst.name, None)
        for name, objs in state.items():
            key = (block.uid, name)
            outs[key] = outs.get(key, set()) | set(objs)
        for succ in successors(block):
            work.append((succ, state, heap))
    return outs


@settings(max_examples=60, deadline=None)
@given(_PROGRAMS)
def test_flow_pass_over_approximates_every_path(source):
    program = compile_program([("t.c", source)])
    base = AndersenPointsTo(program).solve()
    flow = FlowSensitivePointsTo(base)
    func = next(f for f in program.functions() if not f.is_declaration)
    flow.analyze_function(func)
    reference = _reference_block_outs(func, base)
    for (block_uid, name), concrete in reference.items():
        abstract = flow.points_to_at(func, block_uid, name)
        assert concrete <= set(abstract), (
            f"{name} at block {block_uid}: flow lost {concrete - set(abstract)}"
            f"\n{source}"
        )


# -- Andersen-coarsening cross-check ----------------------------------------


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_flow_refines_andersen_on_profile(profile):
    """On every corpus profile: the flow states only ever shrink the
    Andersen sets, so every Andersen must-not-alias verdict holds at
    every block under the flow pass too."""
    program = compile_program(generate(profile.scaled(0.25)).compiled_sources())
    base = AndersenPointsTo(program).solve()
    flow = FlowSensitivePointsTo(base)
    checked = 0
    for func in program.functions():
        if func.is_declaration:
            continue
        flow.analyze_function(func)
        for (fname, block_uid, name), objs in flow._block_out.items():
            if fname != func.name:
                continue
            assert set(objs) <= set(base.points_to(name)) or objs == frozenset(), (
                f"{name} in {fname} grew beyond its Andersen set")
            checked += 1
    assert checked > 0  # vacuous otherwise


def test_must_not_alias_consistent_with_andersen():
    source = """
void f(void) {
    int a = 0; int b = 0;
    int *p = &a;
    int *q = &b;
    int *r = &a;
    *p = 1;
    int y = *q;
}
"""
    program = compile_program([("t.c", source)])
    base = AndersenPointsTo(program).solve()
    flow = FlowSensitivePointsTo(base)
    func = next(f for f in program.functions() if not f.is_declaration)
    block = func.blocks[-1].uid
    assert not base.may_alias("f.p", "f.q")
    assert flow.must_not_alias_at(func, block, "f.p", "f.q")
    assert flow.may_alias_at(func, block, "f.p", "f.r")


# -- MustAliasFacts units -----------------------------------------------------


def _facts_fixture():
    source = """
static void helper(int *h) { *h = 3; }
void entry_a(void) {
    int a = 0;
    int *p = &a;
    helper(p);
}
void entry_b(void) {
    int b = 1;
    int c = b + 1;
}
"""
    program = compile_program([("t.c", source)])
    part = SteensgaardPointsTo(program).solve().partition()
    return program, part, compute_flow_facts(program, part)


def test_closure_embeds_callgraph():
    _, _, facts = _facts_fixture()
    assert facts.callgraph.closure("entry_a") == frozenset({"entry_a", "helper"})
    assert facts.callgraph.closure("entry_b") == frozenset({"entry_b"})


def test_skip_names_superset_of_base_singletons():
    """The flow tier strictly generalizes the P1.7 fast path: every
    partition singleton that occurs in an entry's closure is in its skip
    set (plus whatever the occurrence walk proves on top)."""
    program, part, facts = _facts_fixture()
    for entry in ("entry_a", "entry_b"):
        skip = facts.skip_names_for_entry(entry)
        occ = set()
        for func in facts.callgraph.closure(entry):
            occ |= facts.occurs.get(func, frozenset())
        assert part.singletons & occ <= skip
    # entry_b touches no memory at all: everything it names is skippable
    assert "entry_b.b" in facts.skip_names_for_entry("entry_b")
    # entry_a's pointer flows into a call binding: never skippable
    assert "entry_a.p" not in facts.skip_names_for_entry("entry_a")


def test_globals_never_in_skip_sets():
    source = """
int shared;
void f(void) {
    shared = 1;
    int y = shared;
}
"""
    program = compile_program([("t.c", source)])
    part = SteensgaardPointsTo(program).solve().partition()
    facts = compute_flow_facts(program, part)
    assert not any(n.startswith("@") for n in facts.skip_names_for_entry("f"))
