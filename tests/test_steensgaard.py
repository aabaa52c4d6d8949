"""The P1.7 tier: union-find laws, Steensgaard solving, partition facts.

Three layers, mirroring the module's structure:

* :class:`repro.pointsto.steensgaard.UnionFind` algebraic laws
  (idempotence, commutativity, find-after-union congruence) against a
  brute-force reference partition, in the style of
  ``test_smt_unionfind.py``;
* unit tests of the constraint generation on small C sources — what
  unifies, what flags, what survives as a singleton;
* the coarsening contract against Andersen on every corpus profile:
  Steensgaard is the *cheap* tier, so every pair Andersen deems
  may-alias must land in one Steensgaard cell.  (The converse is not a
  theorem — unification over-merges by design.)
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import ALL_PROFILES, generate
from repro.lang import compile_program
from repro.pointsto import (
    AndersenPointsTo,
    SteensgaardPointsTo,
    UnionFind,
    build_partition,
)


# -- UnionFind laws ----------------------------------------------------------


def test_make_is_own_root():
    uf = UnionFind()
    a = uf.make()
    b = uf.make()
    assert uf.find(a) == a
    assert uf.find(b) == b
    assert len(uf) == 2


def test_union_merges_and_returns_surviving_root():
    uf = UnionFind()
    a, b = uf.make(), uf.make()
    root = uf.union(a, b)
    assert root in (a, b)
    assert uf.find(a) == uf.find(b) == root


def test_union_idempotent():
    uf = UnionFind()
    a, b = uf.make(), uf.make()
    first = uf.union(a, b)
    again = uf.union(a, b)
    assert first == again
    assert uf.same(a, b)


def test_union_self_is_identity():
    uf = UnionFind()
    a = uf.make()
    assert uf.union(a, a) == uf.find(a)


def test_same_is_transitive():
    uf = UnionFind()
    a, b, c = uf.make(), uf.make(), uf.make()
    uf.union(a, b)
    uf.union(b, c)
    assert uf.same(a, c)
    assert not uf.same(a, uf.make())


def test_union_by_size_attaches_smaller_under_larger():
    uf = UnionFind()
    a, b, c, d = (uf.make() for _ in range(4))
    big = uf.union(a, b)        # size-2 class
    assert uf.union(big, c) == big   # size 2 absorbs size 1
    assert uf.union(d, big) == big   # even given first, the big root survives


@st.composite
def _union_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=0, max_value=40))
    ops = [
        (
            draw(st.integers(min_value=0, max_value=n - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(k)
    ]
    return n, ops


def _reference_partition(n, ops):
    """Brute-force model: a list of disjoint sets, merged per op."""
    sets = [{i} for i in range(n)]
    for a, b in ops:
        sa = next(s for s in sets if a in s)
        sb = next(s for s in sets if b in s)
        if sa is not sb:
            sa |= sb
            sets.remove(sb)
    return sets


@settings(max_examples=200, deadline=None)
@given(_union_sequences())
def test_property_same_agrees_with_reference_model(seq):
    n, ops = seq
    uf = UnionFind()
    elems = [uf.make() for _ in range(n)]
    for a, b in ops:
        uf.union(elems[a], elems[b])
    sets = _reference_partition(n, ops)
    for i in range(n):
        for j in range(n):
            expected = any(i in s and j in s for s in sets)
            assert uf.same(elems[i], elems[j]) == expected


@settings(max_examples=200, deadline=None)
@given(_union_sequences())
def test_property_union_commutes(seq):
    """Flipping every union's argument order yields the same partition."""
    n, ops = seq
    left, right = UnionFind(), UnionFind()
    le = [left.make() for _ in range(n)]
    re = [right.make() for _ in range(n)]
    for a, b in ops:
        left.union(le[a], le[b])
        right.union(re[b], re[a])
    for i in range(n):
        for j in range(n):
            assert left.same(le[i], le[j]) == right.same(re[i], re[j])


@settings(max_examples=150, deadline=None)
@given(_union_sequences())
def test_property_find_after_union_congruence(seq):
    """After any op sequence, union's return value is the common root,
    and find is stable (two calls agree)."""
    n, ops = seq
    uf = UnionFind()
    elems = [uf.make() for _ in range(n)]
    for a, b in ops:
        root = uf.union(elems[a], elems[b])
        assert uf.find(elems[a]) == root
        assert uf.find(elems[b]) == root
        assert uf.find(root) == root
    for elem in elems:
        assert uf.find(elem) == uf.find(elem)


# -- constraint generation on small sources ---------------------------------


def _solved(source):
    program = compile_program([("t.c", source)])
    return program, SteensgaardPointsTo(program).solve()


def test_copy_unifies():
    _, pts = _solved("void f(void) { char *p = malloc(8); char *q = p; }")
    assert pts.may_alias("f.p", "f.q")


def test_unrelated_scalars_stay_apart():
    _, pts = _solved("void f(void) { int a = 1; int b = 2; }")
    assert not pts.may_alias("f.a", "f.b")


def test_may_alias_is_reflexive_and_unknown_names_are_disjoint():
    _, pts = _solved("void f(void) { int a = 1; }")
    assert pts.may_alias("f.a", "f.a")
    assert pts.may_alias("zzz", "zzz")
    assert not pts.may_alias("zzz", "f.a")


def test_store_load_through_pointer_unifies_values():
    # *p = a; b = *p  =>  a and b share p's pointee cell.
    _, pts = _solved(
        "void f(int *p) { int a = 1; *p = a; int b = *p; }"
    )
    assert pts.may_alias("f.a", "f.b")


def test_call_binding_unifies_param_with_argument():
    _, pts = _solved(
        "void g(int *x) { }\n"
        "void f(void) { int *p = malloc(8); g(p); }"
    )
    assert pts.may_alias("g.x", "f.p")


def test_return_binding_unifies_result_with_returned_var():
    _, pts = _solved(
        "int *h(void) { int *r = malloc(8); return r; }\n"
        "void f(void) { int *p = h(); }"
    )
    assert pts.may_alias("f.p", "h.r")


def test_field_edges_unify_per_label():
    _, pts = _solved(
        "struct s { int *a; int *b; };\n"
        "void f(struct s *o) { int *x = o->a; int *y = o->a; int *z = o->b; }"
    )
    assert pts.may_alias("f.x", "f.y")
    assert not pts.may_alias("f.x", "f.z")


# -- singleton fast-path facts -----------------------------------------------


def test_plain_scalars_are_singletons():
    program, _ = _solved("void f(void) { int a = 1; int b = 2; }")
    part = build_partition(program)
    assert {"f.a", "f.b"} <= part.singletons


def test_computed_value_shares_a_cell_with_its_temp():
    # ``b = a + 2`` lowers through a temp the move unifies with ``b`` —
    # so computed destinations are two-element cells, not singletons,
    # while the purely-read operand stays singleton.
    program, _ = _solved("void f(void) { int a = 1; int b = a + 2; }")
    part = build_partition(program)
    assert "f.a" in part.singletons
    assert "f.b" not in part.singletons


def test_unified_variables_are_not_singletons():
    program, _ = _solved("void f(void) { char *p = malloc(8); char *q = p; }")
    part = build_partition(program)
    assert "f.p" not in part.singletons
    assert "f.q" not in part.singletons


def test_address_taken_disqualifies_both_sides():
    program, _ = _solved("void f(void) { int a = 1; int *p = &a; }")
    part = build_partition(program)
    assert "f.a" not in part.singletons   # pointed-to: loads can join into it
    assert "f.p" not in part.singletons   # carries a deref edge


def test_globals_are_never_singletons_and_root_shared_state():
    """A global's cell carries the GLOBAL flag: never on the fast path."""
    program, _ = _solved("int g;\nvoid f(void) { g = 1; int a = 2; }")
    part = build_partition(program)
    assert "@g" not in part.singletons
    assert "f.a" in part.singletons


def test_heap_pointer_reaches_shared():
    """A malloc destination's cell carries HEAP_DST (the race checker
    registers the heap object on its node): never on the fast path."""
    program, _ = _solved("void f(void) { char *p = malloc(8); }")
    part = build_partition(program)
    assert "f.p" not in part.singletons


# -- partition object --------------------------------------------------------


def test_partition_is_deterministic():
    source = (
        "int g;\n"
        "void f(void) { char *p = malloc(8); char *q = p; g = 1; }\n"
        "void h(int *x) { int a = *x; }"
    )
    one = build_partition(compile_program([("t.c", source)]))
    two = build_partition(compile_program([("t.c", source)]))
    assert one.singletons == two.singletons
    assert one.cell_count == two.cell_count


def test_partition_tracks_content():
    a = build_partition(compile_program([("t.c", "void f(void) { int a = 1; }")]))
    b = build_partition(compile_program([("t.c", "void f(void) { int a = 1; int *p = &a; }")]))
    assert a.singletons == {"f.a"} and a.cell_count == 1
    # ``&a`` lowers ``a`` to a stack slot that ``p`` copies: one flagged
    # cell, so no singleton
    assert not b.singletons and b.cell_count == 1


# -- coarsening contract vs Andersen -----------------------------------------


@pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
def test_steensgaard_coarsens_andersen_on_corpus(profile):
    """On every corpus profile: any pair of variables Andersen proves
    may-alias (their points-to sets intersect) must share one
    Steensgaard cell.  Grouping names by pointed-to object makes the
    check linear — all names pointing at one object are pairwise
    may-alias under Andersen, so each group must collapse into a single
    cell."""
    program = compile_program(generate(profile.scaled(0.3)).compiled_sources())
    andersen = AndersenPointsTo(program).solve()
    steens = SteensgaardPointsTo(program).solve()

    groups = {}
    for node, objs in andersen.pts.items():
        if isinstance(node, str):
            for obj in objs:
                groups.setdefault(obj, []).append(node)

    checked = 0
    for obj, names in groups.items():
        first = names[0]
        for other in names[1:]:
            checked += 1
            assert steens.may_alias(first, other), (
                profile.name, obj, first, other,
            )
    assert checked > 0, "coarsening check is vacuous without alias pairs"


def test_coarsening_is_strict_on_small_programs():
    """Sanity that the tiers differ: two call sites unify the parameter
    with both arguments, dragging the arguments into one cell —
    inclusion-based Andersen keeps their allocation sites apart.  So the
    coarsening direction tested above is the only one that holds."""
    source = (
        "void g(char *x) { }\n"
        "void f(void) { char *p = malloc(8); char *q = malloc(8); g(p); g(q); }"
    )
    program = compile_program([("t.c", source)])
    andersen = AndersenPointsTo(program).solve()
    steens = SteensgaardPointsTo(program).solve()
    assert andersen.may_alias("g.x", "f.p")
    assert andersen.may_alias("g.x", "f.q")
    assert steens.may_alias("g.x", "f.p")
    assert steens.may_alias("g.x", "f.q")
    assert steens.may_alias("f.p", "f.q")
    assert not andersen.may_alias("f.p", "f.q")
