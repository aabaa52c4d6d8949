"""Parallel determinism for every checker-spec string.

``workers=1`` and ``workers=4`` must produce byte-identical reports for
every form :func:`~repro.typestate.checkers.checkers_from_spec` accepts —
single names, aliases, and comma lists including the taint checker.
Forked workers inherit the checker objects the parent built from the
spec string, so any instance-level state that does not survive the fork
or differs per spec (e.g. the taint checker's spec-dependent trigger
mask) shows up here as a report mismatch.
"""

import pytest

from repro import PATA, AnalysisConfig
from repro.corpus import PROFILES_BY_NAME, RACELAB, TAINTLAB, generate
from repro.lang import compile_program
from repro.typestate import BugKind, CHECKER_NAMES

SPECS = list(CHECKER_NAMES) + [
    "default", "all", "default,taint", "all,taint", "default,race", "all,taint,race",
]


def _mixed_program():
    """Taint- and race-heavy corpora plus a slice of the mixed-kind
    tencentos corpus, so every checker in every spec has material to
    fire on — including P2.5's cross-entry shared-access matching."""
    sources = []
    sources.extend(generate(TAINTLAB).compiled_sources())
    sources.extend(generate(RACELAB).compiled_sources())
    tencentos = PROFILES_BY_NAME["tencentos"].scaled(0.35)
    sources.extend(generate(tencentos).compiled_sources())
    return compile_program(sources)


@pytest.fixture(scope="module")
def mixed_program():
    return _mixed_program()


def _render(result):
    return [r.render() for r in result.reports]


@pytest.mark.parametrize("spec", SPECS)
def test_workers_1_vs_4_byte_identical(mixed_program, spec):
    sequential = PATA(
        checker_spec=spec, config=AnalysisConfig(workers=1)
    ).analyze(mixed_program)
    parallel = PATA(
        checker_spec=spec, config=AnalysisConfig(workers=4)
    ).analyze(mixed_program)
    assert parallel.stats.workers_used > 1
    assert _render(sequential) == _render(parallel)
    assert sequential.stats.explored_paths == parallel.stats.explored_paths
    assert sequential.stats.entries_skipped == parallel.stats.entries_skipped


def test_race_cross_entry_matching_deterministic(mixed_program):
    """P2.5 pairs accesses recorded by *different* workers: the merged
    access stream, the matched pairs, and the final reports must not
    depend on which process explored which entry."""
    sequential = PATA(
        checker_spec="race", config=AnalysisConfig(workers=1)
    ).analyze(mixed_program)
    parallel = PATA(
        checker_spec="race", config=AnalysisConfig(workers=4)
    ).analyze(mixed_program)
    race_reports = [r for r in sequential.reports if r.kind is BugKind.RACE]
    assert race_reports, "differential is vacuous without race findings"
    # Every report pairs two entries (the cross-entry contract).
    assert all(" vs " in r.entry_function for r in race_reports)
    assert _render(sequential) == _render(parallel)
    assert sequential.stats.shared_accesses == parallel.stats.shared_accesses
    assert sequential.stats.race_pairs_matched == parallel.stats.race_pairs_matched


def test_taint_spec_reports_survive_the_union_spec(mixed_program):
    """Sanity: 'all,taint' finds at least every taint report the solo
    'taint' run finds (checker sets compose, they don't interfere)."""
    solo = PATA(checker_spec="taint").analyze(mixed_program)
    union = PATA(checker_spec="all,taint").analyze(mixed_program)
    solo_rendered = set(_render(solo))
    union_rendered = set(_render(union))
    assert solo_rendered <= union_rendered
