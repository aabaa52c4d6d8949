"""Alias-graph unit and property tests (the Fig. 5 rules)."""

import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.alias import AliasGraph, DEREF, Trail
from repro.core.analyzer import PathExplorer
from repro.ir import INT, PointerType, Var, VOID_PTR

P = PointerType(INT)


def var(name, ty=P):
    return Var(name, ty, source_name=name)


def test_move_joins_alias_classes():
    g = AliasGraph()
    a, b = var("a"), var("b")
    g.handle_move(a, b)
    assert g.are_aliases(a, b)
    assert g.alias_names(a) == frozenset({"a", "b"})


def test_move_is_strong_update():
    g = AliasGraph()
    a, b, c = var("a"), var("b"), var("c")
    g.handle_move(a, b)
    g.handle_move(a, c)
    assert g.are_aliases(a, c)
    assert not g.are_aliases(a, b)


def test_store_then_load_aliases():
    # *p = a; b = *p  =>  a and b alias (Fig. 5 STORE then LOAD).
    g = AliasGraph()
    p, a, b = var("p"), var("a"), var("b")
    g.handle_store(p, a)
    g.handle_load(b, p)
    assert g.are_aliases(a, b)


def test_store_replaces_deref_edge():
    g = AliasGraph()
    p, a, b, c = var("p"), var("a"), var("b"), var("c")
    g.handle_store(p, a)
    g.handle_store(p, b)
    g.handle_load(c, p)
    assert g.are_aliases(c, b)
    assert not g.are_aliases(c, a)


def test_load_without_edge_creates_one():
    g = AliasGraph()
    p, a, b = var("p"), var("a"), var("b")
    g.handle_load(a, p)
    g.handle_load(b, p)  # second load reuses the edge
    assert g.are_aliases(a, b)


def test_gep_same_field_shares_node():
    g = AliasGraph()
    p, f1, f2 = var("p"), var("f1"), var("f2")
    g.handle_gep(f1, p, "data")
    g.handle_gep(f2, p, "data")
    assert g.are_aliases(f1, f2)


def test_gep_different_fields_distinct():
    g = AliasGraph()
    p, f1, f2 = var("p"), var("f1"), var("f2")
    g.handle_gep(f1, p, "a")
    g.handle_gep(f2, p, "b")
    assert not g.are_aliases(f1, f2)


def test_field_alias_through_move():
    # q = p; x = &p->f; y = &q->f  =>  x and y alias (field sensitivity).
    g = AliasGraph()
    p, q, x, y = var("p"), var("q"), var("x"), var("y")
    g.handle_move(q, p)
    g.handle_gep(x, p, "f")
    g.handle_gep(y, q, "f")
    assert g.are_aliases(x, y)


def test_addr_of_then_load_recovers_var():
    g = AliasGraph()
    p, x, y = var("p"), var("x", INT), var("y", INT)
    g.handle_addr_of(p, x)
    g.handle_load(y, p)
    assert g.are_aliases(x, y)


def test_fresh_object_detaches():
    g = AliasGraph()
    a, b = var("a"), var("b")
    g.handle_move(a, b)
    g.handle_fresh_object(a)  # a = malloc(...)
    assert not g.are_aliases(a, b)


def test_one_outgoing_edge_per_label_invariant():
    g = AliasGraph()
    p, a, b = var("p"), var("a"), var("b")
    g.handle_gep(a, p, "f")
    g.handle_gep(b, p, "f")
    node = g.node_of(p)
    assert list(node.out) == ["f"]


def test_example1_figure4_access_paths():
    # Fig. 4: x -f-> n3, y -g-> n3, p,q in n3, n3 -*-> n4 with s in n4.
    g = AliasGraph()
    x, y, p, q, s, t = var("x"), var("y"), var("p"), var("q"), var("s"), var("t")
    g.handle_gep(p, x, "f")
    g.handle_move(q, p)
    g.handle_gep(t, y, "g")
    g.handle_move(q, t)   # now p's node reached from both x->f ... rebuild
    # Rebuild exactly: p and q both name n3.
    g2 = AliasGraph()
    g2.handle_gep(p, x, "f")
    g2.handle_gep(q, y, "g")
    g2.handle_move(q, p)
    g2.handle_load(s, p)
    node3 = g2.node_of(p)
    paths = g2.access_paths(node3)
    assert "p" in paths and "q" in paths
    assert any("&x->f" in ap for ap in paths)
    node4 = g2.node_of(s)
    paths4 = g2.access_paths(node4)
    assert "s" in paths4
    assert any(ap.startswith("*") for ap in paths4)


def test_trail_undo_restores_alias_state():
    trail = Trail()
    g = AliasGraph(trail)
    a, b, c = var("a"), var("b"), var("c")
    g.handle_move(a, b)
    mark = trail.mark()
    g.handle_move(c, a)
    g.handle_store(a, c)
    assert g.are_aliases(c, a)
    trail.undo_to(mark)
    assert not g.are_aliases(c, a)
    assert g.are_aliases(a, b)
    assert g.deref_node(a) is None


def test_trail_undo_restores_edges():
    trail = Trail()
    g = AliasGraph(trail)
    p, a, b = var("p"), var("a"), var("b")
    g.handle_store(p, a)
    mark = trail.mark()
    g.handle_store(p, b)
    trail.undo_to(mark)
    x = var("x")
    g.handle_load(x, p)
    assert g.are_aliases(x, a)


def test_journal_tracks_and_rewinds():
    trail = Trail()
    g = AliasGraph(trail)
    a, b = var("a"), var("b")
    mark = trail.mark()
    jmark = len(g.journal)
    g.handle_move(a, b)
    assert len(g.journal) > jmark
    trail.undo_to(mark)
    assert len(g.journal) == jmark


def _canonical(g, uid):
    """The exit-merge digest's canonical form of a node-keyed typestate."""
    return PathExplorer._canonical_node_key(
        SimpleNamespace(graph=g), uid,
        lambda node: tuple(sorted(node.vars)), lambda name: True)


def test_undone_node_leaves_by_uid_and_canonicalises_to_none():
    """Whether a node counts as alive is the trail's call, not the
    garbage collector's: the undone node below is still referenced (and
    still lists ``a``), yet it is gone from ``by_uid``."""
    trail = Trail()
    g = AliasGraph(trail)
    a = var("a")
    mark = trail.mark()
    node = g.node_of(a)
    assert g.by_uid[node.uid] is node
    assert _canonical(g, node.uid) == ("a",)
    trail.undo_to(mark)
    assert node.uid not in g.by_uid
    assert node.vars == {"a"}
    assert _canonical(g, node.uid) is None


def test_node_bound_to_no_name_canonicalises_to_none():
    g = AliasGraph()
    a = var("a")
    old = g.handle_fresh_object(a)
    new = g.handle_fresh_object(a)
    assert old.uid in g.by_uid and not old.vars
    assert _canonical(g, old.uid) is None
    assert _canonical(g, new.uid) == ("a",)


def test_stats_counts_classes_and_vars():
    g = AliasGraph()
    a, b, c = var("a"), var("b"), var("c")
    g.handle_move(a, b)
    g.node_of(c)
    classes, tracked = g.stats()
    assert classes == 2 and tracked == 3


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_VARS = [var(f"v{i}") for i in range(6)]
_FIELDS = ["f", "g"]


@st.composite
def _op_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["move", "store", "load", "gep", "fresh"]))
        a = draw(st.sampled_from(_VARS))
        b = draw(st.sampled_from(_VARS))
        fieldname = draw(st.sampled_from(_FIELDS))
        ops.append((kind, a, b, fieldname))
    return ops


def _apply(g, ops):
    for kind, a, b, fieldname in ops:
        if kind == "move":
            if a.name != b.name:
                g.handle_move(a, b)
        elif kind == "store":
            g.handle_store(a, b)
        elif kind == "load":
            if a.name != b.name:
                g.handle_load(a, b)
        elif kind == "gep":
            if a.name != b.name:
                g.handle_gep(a, b, fieldname)
        else:
            g.handle_fresh_object(a)


def _snapshot(g):
    """Canonical view: per-variable alias set + outgoing edge labels."""
    snap = {}
    for v in _VARS:
        node = g.node_of_name(v.name)
        if node is None:
            continue
        snap[v.name] = (frozenset(node.vars), frozenset(node.out.keys()))
    return snap


@settings(max_examples=120, deadline=None)
@given(_op_sequences())
def test_property_each_var_in_exactly_one_node(ops):
    g = AliasGraph()
    _apply(g, ops)
    seen = {}
    for node in g.nodes():
        for name in node.vars:
            assert name not in seen, f"{name} appears in two nodes"
            seen[name] = node
    for v in _VARS:
        node = g.node_of_name(v.name)
        if node is not None:
            assert v.name in node.vars


@settings(max_examples=120, deadline=None)
@given(_op_sequences())
def test_property_single_edge_per_label(ops):
    g = AliasGraph()
    _apply(g, ops)
    for node in g.nodes():
        # dict keys are unique by construction; also check reverse pointers.
        for label, target in node.out.items():
            assert target.inc.get((node.uid, label)) is node


@settings(max_examples=80, deadline=None)
@given(_op_sequences(), _op_sequences())
def test_property_trail_undo_is_exact(prefix, suffix):
    trail = Trail()
    g = AliasGraph(trail)
    _apply(g, prefix)
    before = _snapshot(g)
    mark = trail.mark()
    _apply(g, suffix)
    trail.undo_to(mark)
    assert _snapshot(g) == before


@settings(max_examples=80, deadline=None)
@given(_op_sequences(), _op_sequences())
def test_property_by_uid_follows_the_trail(prefix, suffix):
    trail = Trail()
    g = AliasGraph(trail)
    _apply(g, prefix)
    before = dict(g.by_uid)
    mark = trail.mark()
    _apply(g, suffix)
    assert all(g.by_uid[node.uid] is node for node in g.nodes())
    trail.undo_to(mark)
    assert g.by_uid == before


@settings(max_examples=80, deadline=None)
@given(_op_sequences())
def test_property_aliasing_is_equivalence_relation(ops):
    g = AliasGraph()
    _apply(g, ops)
    for a in _VARS:
        assert g.are_aliases(a, a)
        for b in _VARS:
            assert g.are_aliases(a, b) == g.are_aliases(b, a)
            if g.are_aliases(a, b):
                assert g.alias_names(a) == g.alias_names(b)
