"""Corpus generator and ground-truth matching tests."""

import random

from repro import PATA, AnalysisConfig
from repro.corpus import (
    ALL_PROFILES,
    LINUX,
    ZEPHYR,
    generate,
    is_confirmed,
    match_findings,
    reachable_truth,
)
from repro.corpus.patterns import BAIT_PATTERNS, BUG_PATTERNS, COMMON_DECLS
from repro.lang import compile_program
from repro.typestate import BugKind

SMALL = ZEPHYR.scaled(0.6)


def test_generation_is_deterministic():
    a = generate(SMALL)
    b = generate(SMALL)
    assert [f.source for f in a.files] == [f.source for f in b.files]
    assert [(g.uid, g.line_start) for g in a.ground_truth] == [
        (g.uid, g.line_start) for g in b.ground_truth
    ]


def test_every_file_compiles():
    corpus = generate(SMALL)
    program = compile_program(corpus.all_sources())
    assert len(program.modules) == len(corpus.files)


def test_scaled_profile_shrinks():
    full = generate(ZEPHYR)
    half = generate(ZEPHYR.scaled(0.5))
    assert len(half.files) < len(full.files)


def test_kind_mix_quota_includes_rare_kinds():
    corpus = generate(LINUX.scaled(0.5))
    kinds = {g.kind for g in corpus.ground_truth}
    assert BugKind.ML in kinds  # low-weight kinds must not starve


def test_excluded_files_marked():
    corpus = generate(LINUX.scaled(0.5))
    assert any(not f.compiled for f in corpus.files)
    assert corpus.compiled_lines() < corpus.total_lines()


def test_excluded_file_bugs_are_easy_syntactic_kind():
    corpus = generate(LINUX.scaled(0.5))
    compiled_paths = {f.path for f in corpus.compiled_files()}
    for gt in corpus.ground_truth:
        if gt.path not in compiled_paths:
            assert gt.pattern == "npd_easy_uncompiled"


def test_ground_truth_lines_inside_files():
    corpus = generate(SMALL)
    by_path = {f.path: f for f in corpus.files}
    for gt in corpus.ground_truth:
        f = by_path[gt.path]
        assert 1 <= gt.line_start <= gt.line_end <= f.line_count


def test_bait_regions_recorded():
    corpus = generate(SMALL)
    assert corpus.bait_regions
    by_path = {f.path: f for f in corpus.files}
    for bait in corpus.bait_regions:
        assert bait.path in by_path


def test_categories_follow_layout():
    corpus = generate(SMALL)
    layout_categories = {entry[1] for entry in SMALL.layout}
    assert {f.category for f in corpus.files} <= layout_categories


def test_match_findings_classifies_tp_and_fp():
    corpus = generate(SMALL)
    gt = corpus.ground_truth[0]
    findings = [
        (gt.kind, gt.path, gt.line_start),      # true positive
        (gt.kind, gt.path, gt.line_start),      # duplicate: still one bug
        (BugKind.NPD, "nowhere.c", 1),          # false positive
    ]
    result = match_findings(findings, corpus)
    assert result.real == 1
    assert result.false_positives == 1
    assert result.found == 2
    assert gt.uid in result.matched_uids


def test_match_findings_restrict_kinds():
    corpus = generate(SMALL)
    findings = [(BugKind.DOUBLE_LOCK, "x.c", 1)]
    result = match_findings(findings, corpus, restrict_kinds=(BugKind.NPD,))
    assert result.found == 0


def test_confirmed_subset_is_deterministic_and_partial():
    flags = [is_confirmed(f"linux-bug-{i}") for i in range(200)]
    assert flags == [is_confirmed(f"linux-bug-{i}") for i in range(200)]
    assert 0 < sum(flags) < len(flags)


def test_reachable_truth_filters_kind_and_compilation():
    corpus = generate(LINUX.scaled(0.5))
    primary = reachable_truth(corpus, (BugKind.NPD, BugKind.UVA, BugKind.ML))
    assert all(g.kind in (BugKind.NPD, BugKind.UVA, BugKind.ML) for g in primary)
    compiled_paths = {f.path for f in corpus.compiled_files()}
    assert all(g.path in compiled_paths for g in primary)


def test_all_bug_patterns_found_by_pata():
    """Every injected-bug pattern must be detectable by PATA with the
    right checker set — otherwise the corpus measures nothing."""
    rng = random.Random(11)
    for kind_name, fns in BUG_PATTERNS.items():
        for fn in fns:
            snippet = fn("88011", rng)
            src = COMMON_DECLS + "\n" + "\n".join(snippet.lines) + "\n"
            # "all,taint,race": the TNT/RACE patterns need the opt-in
            # taint and race checkers.
            result = PATA(checker_spec="all,taint,race").analyze_sources([("p.c", src)])
            decls = COMMON_DECLS.count("\n") + 1
            for kind, start, end, _req in snippet.bugs:
                lo, hi = decls + start + 1, decls + end + 1
                assert any(
                    r.kind is kind and lo <= r.sink_line <= hi for r in result.reports
                ), f"{fn.__name__} not detected"


def test_infeasible_baits_filtered_by_pata():
    """The designed-to-be-dropped baits must not survive validation; the
    deliberately-unfixable ones (§5.2 loop/array FPs) must.  Stage-2
    validation is what drops them (Table 5's "dropped false bugs"): with
    it off, the dischargeable baits are reported."""
    rng = random.Random(12)
    expected_fp = {"bait_loop_init", "bait_array_index_alias"}
    unvalidated = PATA.with_all_checkers(config=AnalysisConfig(validate_paths=False))
    dropped_false = unvalidated_reports = 0
    for fn in BAIT_PATTERNS:
        snippet = fn("88012", rng)
        src = COMMON_DECLS + "\n" + "\n".join(snippet.lines) + "\n"
        result = PATA.with_all_checkers().analyze_sources([("b.c", src)])
        if snippet.pattern in expected_fp:
            assert result.reports, f"{fn.__name__} should stay a (designed) FP"
        else:
            assert not result.reports, f"{fn.__name__} leaked: {result.reports}"
            dropped_false += result.stats.dropped_false_bugs
            unvalidated_reports += len(unvalidated.analyze_sources([("b.c", src)]).reports)
    assert unvalidated_reports > 0
    assert dropped_false > 0


def test_pata_recall_and_precision_on_small_corpus():
    corpus = generate(SMALL)
    program = compile_program(corpus.compiled_sources())
    result = PATA.with_all_checkers().analyze(program)
    findings = [(r.kind, r.sink_file, r.sink_line) for r in result.reports]
    match = match_findings(findings, corpus)
    truth = reachable_truth(corpus, list(BugKind))
    assert match.real == len(truth)  # full recall on reachable truth
    assert match.false_positive_rate <= 0.45


def test_corpus_is_lint_clean():
    """The generator must emit idiomatic code: zero source diagnostics."""
    from repro.lang.sema import check_source

    corpus = generate(SMALL)
    for f in corpus.files:
        assert check_source(f.source, f.path) == []


def test_all_profiles_generate():
    for profile in ALL_PROFILES:
        corpus = generate(profile.scaled(0.15))
        assert corpus.files
        compile_program(corpus.all_sources())
