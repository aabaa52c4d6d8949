"""SMT-lite solver tests: unit cases plus a brute-force property check."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.smt import App, Atom, Num, SolveResult, Sym, solve
from repro.smt.terms import eval_atom


def x(i):
    return Sym(i)


def test_empty_conjunction_sat():
    assert solve([]).is_sat


def test_constant_true_and_false_atoms():
    assert solve([Atom("eq", Num(1), Num(1))]).is_sat
    assert solve([Atom("eq", Num(1), Num(2))]).is_unsat


def test_single_equality_sat_with_model():
    sol = solve([Atom("eq", x(1), Num(5))])
    assert sol.is_sat and sol.model[1] == 5


def test_contradictory_equalities_unsat():
    sol = solve([Atom("eq", x(1), Num(5)), Atom("eq", x(1), Num(6))])
    assert sol.is_unsat


def test_equality_chain_propagates():
    atoms = [
        Atom("eq", x(1), x(2)),
        Atom("eq", x(2), x(3)),
        Atom("eq", x(3), Num(7)),
        Atom("eq", x(1), Num(8)),
    ]
    assert solve(atoms).is_unsat


def test_offset_equalities():
    # x1 = x2 + 3, x2 = 4 => x1 = 7; x1 != 7 contradicts.
    atoms = [
        Atom("eq", x(1), App("add", (x(2), Num(3)))),
        Atom("eq", x(2), Num(4)),
        Atom("ne", x(1), Num(7)),
    ]
    assert solve(atoms).is_unsat


def test_fig9_pattern_unsat():
    # R(p->f)==0 and R(t->f)!=0 with one shared symbol (aliased).
    field = x(10)
    atoms = [Atom("eq", field, Num(0)), Atom("ne", field, Num(0))]
    assert solve(atoms).is_unsat


def test_interval_conflict_unsat():
    atoms = [Atom("lt", x(1), Num(0)), Atom("gt", x(1), Num(10))]
    assert solve(atoms).is_unsat


def test_interval_squeeze_to_point():
    atoms = [Atom("ge", x(1), Num(3)), Atom("le", x(1), Num(3)), Atom("ne", x(1), Num(3))]
    assert solve(atoms).is_unsat


def test_difference_constraints_chain():
    # a < b, b < c, c < a is unsat.
    atoms = [Atom("lt", x(1), x(2)), Atom("lt", x(2), x(3)), Atom("lt", x(3), x(1))]
    sol = solve(atoms)
    # Pure difference cycles need bounds to surface in our interval pass;
    # the verdict must never be SAT.
    assert sol.result in (SolveResult.UNSAT, SolveResult.UNKNOWN)


def test_bounded_difference_cycle_unsat():
    atoms = [
        Atom("ge", x(1), Num(0)), Atom("le", x(1), Num(5)),
        Atom("ge", x(2), Num(0)), Atom("le", x(2), Num(5)),
        Atom("lt", x(1), x(2)), Atom("lt", x(2), x(1)),
    ]
    assert solve(atoms).is_unsat


def test_disequality_between_pinned_symbols():
    atoms = [Atom("eq", x(1), Num(2)), Atom("eq", x(2), Num(2)), Atom("ne", x(1), x(2))]
    assert solve(atoms).is_unsat


def test_same_class_disequality_unsat():
    atoms = [Atom("eq", x(1), x(2)), Atom("ne", x(1), x(2))]
    assert solve(atoms).is_unsat


def test_nonlinear_atoms_searched():
    # x * x == 9 with x in a small range.
    atoms = [
        Atom("ge", x(1), Num(-5)), Atom("le", x(1), Num(5)),
        Atom("eq", App("mul", (x(1), x(1))), Num(9)),
    ]
    sol = solve(atoms)
    assert sol.is_sat and abs(sol.model[1]) == 3


def test_nonlinear_unsat_over_finite_domain():
    atoms = [
        Atom("ge", x(1), Num(0)), Atom("le", x(1), Num(3)),
        Atom("eq", App("mul", (x(1), x(1))), Num(7)),
    ]
    sol = solve(atoms)
    assert sol.is_unsat


def test_division_by_zero_candidate_rejected():
    # x2 == 0 together with x1 == 10 / x2 is unsatisfiable (the division
    # is undefined); the solver must not produce a model.
    atoms = [Atom("eq", x(2), Num(0)), Atom("eq", x(1), App("div", (Num(10), x(2))))]
    sol = solve(atoms)
    assert not sol.is_sat


def test_branch_shaped_system_sat():
    # Typical translated path: t = a < b taken, a pinned.
    atoms = [Atom("lt", x(1), x(2)), Atom("eq", x(1), Num(3))]
    sol = solve(atoms)
    assert sol.is_sat
    assert sol.model[1] == 3 and sol.model[2] > 3


def test_feasible_reads_unsat_only():
    sat = solve([Atom("eq", x(1), Num(1))])
    unsat = solve([Atom("eq", Num(0), Num(1))])
    assert sat.feasible and not unsat.feasible


def test_model_satisfies_all_atoms():
    atoms = [
        Atom("eq", x(1), App("add", (x(2), Num(1)))),
        Atom("ge", x(2), Num(0)),
        Atom("lt", x(1), Num(10)),
        Atom("ne", x(2), Num(4)),
    ]
    sol = solve(atoms)
    assert sol.is_sat
    for atom in atoms:
        assert eval_atom(atom, sol.model) is True


# ---------------------------------------------------------------------------
# Property: agreement with brute force over a tiny domain
# ---------------------------------------------------------------------------

_DOMAIN = range(-3, 4)


def _brute_force_sat(atoms, num_syms):
    for values in itertools.product(_DOMAIN, repeat=num_syms):
        env = {i + 1: v for i, v in enumerate(values)}
        if all(eval_atom(a, env) is True for a in atoms):
            return True
    return False


_terms = st.one_of(
    st.integers(min_value=-3, max_value=3).map(Num),
    st.integers(min_value=1, max_value=3).map(Sym),
)
_ops = st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"])


@st.composite
def _bounded_systems(draw):
    """Random relational atoms plus box bounds keeping domains finite."""
    n = draw(st.integers(min_value=1, max_value=4))
    atoms = []
    for sym in range(1, 4):
        atoms.append(Atom("ge", Sym(sym), Num(-3)))
        atoms.append(Atom("le", Sym(sym), Num(3)))
    for _ in range(n):
        atoms.append(Atom(draw(_ops), draw(_terms), draw(_terms)))
    return atoms


@settings(max_examples=150, deadline=None)
@given(_bounded_systems())
def test_property_solver_agrees_with_brute_force(atoms):
    expected = _brute_force_sat(atoms, 3)
    sol = solve(atoms)
    if expected:
        # A satisfiable system must never be called UNSAT.
        assert not sol.is_unsat
        if sol.is_sat:
            assert all(eval_atom(a, sol.model) is True for a in atoms)
    else:
        # An unsatisfiable system must never get a (verified) model.
        assert not sol.is_sat


# ---------------------------------------------------------------------------
# Renaming invariance: P3's verdict memo keys on rank-renamed systems
# ---------------------------------------------------------------------------

_SIDS = st.integers(min_value=1, max_value=6)
_CONSTS = st.integers(min_value=-4, max_value=4)


@st.composite
def _conjunctions(draw):
    """Pins, differences, disequalities and nonlinear terms, as the
    translators emit them."""
    atoms = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        shape = draw(st.sampled_from(["pin", "diff", "ne", "app"]))
        op = draw(_ops)
        lhs = Sym(draw(_SIDS))
        if shape == "pin":
            rhs = Num(draw(_CONSTS))
        elif shape == "diff":
            rhs = App(draw(st.sampled_from(["add", "sub"])), (Sym(draw(_SIDS)), Num(draw(_CONSTS))))
        elif shape == "ne":
            op, rhs = "ne", draw(st.one_of(_CONSTS.map(Num), _SIDS.map(Sym)))
        else:
            rhs = App(draw(st.sampled_from(["mul", "div", "mod", "and", "xor", "shl"])),
                      (Sym(draw(_SIDS)), draw(st.one_of(_CONSTS.map(Num), _SIDS.map(Sym)))))
        atoms.append(Atom(op, lhs, rhs))
    return atoms


def _renamed(atoms, mapping):
    def term(t):
        if isinstance(t, Sym):
            return Sym(mapping[t.sid])
        if isinstance(t, App):
            return App(t.op, tuple(term(a) for a in t.args))
        return t
    return [Atom(a.op, term(a.lhs), term(a.rhs)) for a in atoms]


@settings(max_examples=300, deadline=None)
@given(_conjunctions(), st.randoms(use_true_random=False),
       st.sampled_from([1, 50, 20000]))
def test_property_verdict_ignores_symbol_numbering(atoms, rng, budget):
    from repro.smt import Solver, rank_renamed

    solver = Solver(max_search_nodes=budget)
    targets = rng.sample(range(1, 10_000), 6)
    bijection = {sid: targets[sid - 1] for sid in range(1, 7)}
    renamed = _renamed(atoms, bijection)
    verdict = solver.solve(atoms)
    assert solver.solve(renamed).feasible == verdict.feasible
    assert solver.solve(rank_renamed(atoms)).feasible == verdict.feasible
    # The memo key: equal for every numbering of one system.
    assert rank_renamed(renamed) == rank_renamed(atoms)
    assert rank_renamed(rank_renamed(atoms)) == rank_renamed(atoms)
