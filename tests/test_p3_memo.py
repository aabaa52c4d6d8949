"""P3's per-run memos: pair-trace replays and rank-renamed verdicts.

One :class:`~repro.core.filter.BugFilter` replays each pair finding's
trace once and solves each distinct constraint system once.  These tests
hold both memos to the answers P3 gives without them: each validated
bug's verdict equals a fresh solver's on a fresh translation, reports
and every other counter equal a run with the memos defeated, and
``smt_solves`` counts exactly the distinct systems.
"""

import pytest

from repro import PATA, AnalysisConfig
from repro.core import filter as filter_module
from repro.core.filter import BugFilter
from repro.corpus import FIRMLAB, LINUX, RACELAB, TAINTLAB, generate
from repro.lang import compile_program
from repro.smt import Solver, Sym, rank_renamed, translate_trace, translate_trace_pair

LAB_SPEC = "taint,race,xtaint"
CORPORA = {
    "taintlab": (TAINTLAB, 1.0, LAB_SPEC),
    "racelab": (RACELAB, 1.0, LAB_SPEC),
    "firmlab": (FIRMLAB, 1.0, LAB_SPEC),
    "linux": (LINUX, 0.2, "all"),
}
#: stats that depend on the memos or the clock
_UNCOMPARED = {"smt_solves", "per_entry"}


@pytest.fixture(scope="module", params=sorted(CORPORA))
def corpus(request):
    profile, scale, spec = CORPORA[request.param]
    return request.param, generate(profile.scaled(scale)).compiled_sources(), spec


def _analyze(sources, spec, alias_aware):
    config = AnalysisConfig(alias_aware=alias_aware)
    return PATA(config=config, checker_spec=spec).analyze(compile_program(sources))


def _recorded(monkeypatch):
    """Every (filter, bug, verdict) P3 validates."""
    seen = []
    real = BugFilter._validate

    def validate(self, bug, stats):
        feasible = real(self, bug, stats)
        if self.validate_paths and bug.trace:
            seen.append((self, bug, feasible))
        return feasible

    monkeypatch.setattr(BugFilter, "_validate", validate)
    return seen


def _fresh_translation(bug_filter, bug):
    """The bug's translation as P3 makes it, without the replay memo."""
    if bug.second_trace:
        return translate_trace_pair(
            bug.trace, bug.second_trace, alias_aware=bug_filter.alias_aware,
            extra_requirement_b=bug.extra_requirement)
    return translate_trace(
        bug.trace, bug.extra_requirement, alias_aware=bug_filter.alias_aware)


def _stats(result):
    return {k: v for k, v in result.stats.to_dict().items()
            if k not in _UNCOMPARED and not k.startswith("time_")}


def _text(result):
    return "\n\n".join(r.render() for r in result.reports)


@pytest.mark.parametrize("alias_aware", [True, False], ids=["aware", "na"])
def test_memos_answer_as_fresh_translations_and_solves(corpus, monkeypatch, alias_aware):
    name, sources, spec = corpus
    seen = _recorded(monkeypatch)
    memoized = _analyze(sources, spec, alias_aware)
    assert seen, "no validated bug: the differential is vacuous"
    if name != "linux":
        assert memoized.stats.race_pairs_matched + memoized.stats.xtaint_pairs_matched > 0

    budget = AnalysisConfig().solver_max_search_nodes
    systems = set()
    for bug_filter, bug, feasible in seen:
        translation = _fresh_translation(bug_filter, bug)
        assert Solver(max_search_nodes=budget).solve(translation.atoms).feasible == feasible
        systems.add(rank_renamed(translation.atoms))
    assert memoized.stats.smt_solves == len(systems)
    assert memoized.stats.smt_solves <= memoized.stats.validated_paths

    # Defeat both memos: every key misses, every pair replays afresh.
    real_pair = filter_module.translate_trace_pair
    monkeypatch.setattr(filter_module, "rank_renamed", lambda atoms: object())
    monkeypatch.setattr(filter_module, "translate_trace_pair",
                        lambda *args, replays=None, **kwargs: real_pair(*args, **kwargs))
    plain = _analyze(sources, spec, alias_aware)
    assert plain.stats.smt_solves == plain.stats.validated_paths
    assert _text(memoized) == _text(plain)
    assert _stats(memoized) == _stats(plain)


@pytest.fixture(scope="module")
def pair_bugs():
    """Every pair finding of firmlab and racelab."""
    pairs = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _recorded(monkeypatch)
        for profile in (FIRMLAB, RACELAB):
            _analyze(generate(profile).compiled_sources(), LAB_SPEC, True)
    for _, bug, _ in seen:
        if bug.second_trace:
            pairs.append(bug)
    assert pairs
    return pairs


def _pair(bug, trace_b=None, replays=None):
    return translate_trace_pair(
        bug.trace, bug.second_trace if trace_b is None else trace_b,
        extra_requirement_b=bug.extra_requirement, replays=replays)


def _is_bridge(atom):
    return atom.op == "eq" and isinstance(atom.lhs, Sym) and isinstance(atom.rhs, Sym)


def _same_up_to_renaming(memo, fresh):
    """Same counters, and atoms equal up to a renaming of symbols —
    the bridges included: they are the trailing atoms, so they agree in
    number and in which symbols they join."""
    assert (memo.aware_constraints, memo.unaware_constraints, memo.symbols_used) == (
        fresh.aware_constraints, fresh.unaware_constraints, fresh.symbols_used)
    assert rank_renamed(memo.atoms) == rank_renamed(fresh.atoms)
    assert [_is_bridge(a) for a in memo.atoms] == [_is_bridge(a) for a in fresh.atoms]


def _swapped(bug, replays=None):
    """The pair the other way round: the sink-side trace replays first,
    without the requirement it carried as the second."""
    return translate_trace_pair(
        bug.second_trace, bug.trace,
        extra_requirement_b=bug.extra_requirement, replays=replays)


def test_shared_replays_translate_pairs_as_fresh_replays(pair_bugs):
    replays = {}
    for bug in pair_bugs:
        _same_up_to_renaming(_pair(bug, replays=replays), _pair(bug))
        _same_up_to_renaming(_swapped(bug, replays=replays), _swapped(bug))
    assert len(replays) < 4 * len(pair_bugs), "no trace was shared: the memo is untested"
    assert any(bug.extra_requirement for bug in pair_bugs)


def test_a_global_either_path_writes_is_never_bridged():
    """Two unlocked writers of one global race whatever they write: a
    bridge would equate ``g = 1`` with ``g = 2`` and discharge them."""
    source = ("int g;\nint flag;\n"
              "void wa(void) { g = 1; flag = 3; }\nvoid wb(void) { g = 2; flag = 4; }\n")
    result = _analyze([("w.c", source)], "race", True)
    assert result.stats.race_pairs_matched == 2
    assert len(result.reports) == 2 and result.stats.dropped_false_bugs == 0


def test_a_trace_paired_with_itself_replays_afresh(pair_bugs):
    """A self-pair gets two disjoint replays even when the memo already
    holds the trace, so a global it reads bridges two symbols."""
    replays = {}
    bridged = 0
    for bug in pair_bugs:
        _pair(bug, replays=replays)  # the memo holds both traces now
        fresh = _pair(bug, trace_b=bug.trace)
        memo = _pair(bug, trace_b=bug.trace, replays=replays)
        _same_up_to_renaming(memo, fresh)
        for atom in memo.atoms:
            assert not (atom.op == "eq" and atom.lhs == atom.rhs), atom
        bridged += any(_is_bridge(atom) for atom in memo.atoms)
    assert bridged, "no self-pair bridges a global: the case is vacuous"
