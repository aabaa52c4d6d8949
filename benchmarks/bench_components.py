"""Component micro-benchmarks + ablations of DESIGN.md's design choices.

Not a paper table: these measure the throughput of the pieces the paper
argues about — alias-graph updates (trail vs the naive copy the paper
describes), the SMT-lite solver, path exploration — and the effect of
the two engine knobs (callee-exit merging, path validation).
"""

import random

import pytest

from repro import PATA, AnalysisConfig
from repro.alias import AliasGraph, Trail
from repro.ir import INT, PointerType, Var
from repro.lang import compile_source
from repro.smt import App, Atom, Num, Sym, solve

P = PointerType(INT)
_VARS = [Var(f"v{i}", P, source_name=f"v{i}") for i in range(24)]


def _random_ops(n, seed=7):
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        kind = rng.choice(["move", "store", "load", "gep"])
        a, b = rng.sample(_VARS, 2)
        ops.append((kind, a, b, rng.choice(["f", "g", "next"])))
    return ops


def test_alias_graph_update_throughput(benchmark):
    ops = _random_ops(2000)

    def run():
        trail = Trail()
        graph = AliasGraph(trail)
        for kind, a, b, fieldname in ops:
            if kind == "move":
                graph.handle_move(a, b)
            elif kind == "store":
                graph.handle_store(a, b)
            elif kind == "load":
                graph.handle_load(a, b)
            else:
                graph.handle_gep(a, b, fieldname)
        return graph

    benchmark(run)


def test_alias_graph_trail_undo_throughput(benchmark):
    """The paper's Fig. 7 copies the graph at every branch; the trail
    makes fork+backtrack O(changes).  This measures a fork-heavy load:
    1000 branch points of 10 operations each."""
    ops = _random_ops(10)

    def run():
        trail = Trail()
        graph = AliasGraph(trail)
        for _ in range(1000):
            mark = trail.mark()
            for kind, a, b, fieldname in ops:
                if kind == "move":
                    graph.handle_move(a, b)
                elif kind == "store":
                    graph.handle_store(a, b)
                elif kind == "load":
                    graph.handle_load(a, b)
                else:
                    graph.handle_gep(a, b, fieldname)
            trail.undo_to(mark)

    benchmark(run)


def test_solver_throughput_on_path_shaped_systems(benchmark):
    """Conjunctions shaped like translated paths: equality chains +
    branch facts + a few disequalities."""
    systems = []
    rng = random.Random(3)
    for s in range(50):
        atoms = []
        for i in range(1, 10):
            atoms.append(Atom("eq", Sym(s * 100 + i), App("add", (Sym(s * 100 + i - 1), Num(1)))))
        atoms.append(Atom("eq", Sym(s * 100), Num(rng.randint(-5, 5))))
        atoms.append(Atom("lt", Sym(s * 100 + 3), Num(100)))
        atoms.append(Atom("ne", Sym(s * 100 + 5), Num(-99)))
        systems.append(atoms)

    def run():
        return [solve(atoms).result for atoms in systems]

    results = benchmark(run)
    assert all(r.value in ("sat", "unsat") for r in results)


# The callee has four internal branches (16 paths) but a single
# externally visible outcome, so exit merging collapses every call site
# to one continuation; six such calls would otherwise chain into 16^6
# continuations.
_EXPLOSION_SOURCE = (
    "static int leaf(int a) {\n"
    "    int r = 0;\n"
    "    if (a > 1) r = r + 1;\n"
    "    if (a > 2) r = r + 1;\n"
    "    if (a > 3) r = r + 1;\n"
    "    if (a > 4) r = r + 1;\n"
    "    return 7;\n"
    "}\n"
    "int top(int a) {\n"
    + "\n".join(f"    int r{i} = leaf(a + {i});" for i in range(6))
    + "\n    return a;\n}"
)


def test_ablation_callee_exit_merging(benchmark):
    """DESIGN.md §6: return merging ('combines the information of its
    code paths', §4 P2) — with the digest merge on vs off."""
    compile_source(_EXPLOSION_SOURCE)  # fail fast on syntax issues

    def run(merge):
        config = AnalysisConfig(
            merge_callee_exits=merge,
            max_paths_per_entry=3000,
            max_steps_per_entry=2_000_000,
        )
        return PATA(config=config).analyze_sources([("x.c", _EXPLOSION_SOURCE)])

    merged = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    unmerged = run(False)
    assert merged.stats.explored_paths <= 16
    assert (
        unmerged.stats.explored_paths > 50 * merged.stats.explored_paths
        or unmerged.stats.budget_exhausted_entries == 1
    )


def test_ablation_validation_cost_and_value(benchmark, harness):
    """Stage 2 costs time and removes false bugs (Table 5's 'dropped
    false bugs' row): compare found counts with validation on and off
    on a program built from every dischargeable bait pattern plus a few
    real bugs."""
    import random as _random

    from repro.corpus.patterns import BAIT_PATTERNS, BUG_PATTERNS, COMMON_DECLS
    from repro.lang import compile_program

    rng = _random.Random(5)
    pieces = [COMMON_DECLS]
    for index, fn in enumerate(BAIT_PATTERNS + BUG_PATTERNS["NPD"][:2]):
        pieces.append("\n".join(fn(f"abl{index}", rng).lines))
    program = compile_program([("ablation.c", "\n".join(pieces))])

    def run(validate):
        config = AnalysisConfig(validate_paths=validate)
        return PATA(config=config).analyze(program)

    with_validation = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    without = run(False)
    assert len(without.reports) > len(with_validation.reports)
    assert with_validation.stats.dropped_false_bugs > 0


def _phase_seconds(stats):
    return {
        "collect": round(stats.time_collect_seconds, 4),
        "presolve": round(stats.time_presolve_seconds, 4),
        "explore": round(stats.time_explore_seconds, 4),
        "match": round(stats.time_match_seconds, 4),
        "filter": round(stats.time_filter_seconds, 4),
    }


def test_parallel_vs_sequential_entry_analysis(benchmark, harness):
    """Sequential vs batch-streaming parallel P2 (the paper's per-entry
    threads, §4) on the largest generated corpus; writes
    ``BENCH_parallel.json`` at the repo root with per-phase timings, the
    speedup, and the determinism check.

    ``REPRO_BENCH_WORKERS`` overrides the worker count (default: one per
    CPU).  The benchmark is honest about its hardware: when the machine
    has fewer cores than workers the payload is stamped ``degraded`` and
    no speedup is headlined (workers time-slicing one core cannot beat
    sequential).  On a non-degraded run the end-to-end speedup must be
    ≥ 1.0 — only P2 (``explore``) scales with workers, so the Amdahl
    ceiling is ``total / (total - explore)``, also recorded.
    """
    import json
    import os
    import pathlib
    import time

    from repro.corpus import PROFILES_BY_NAME, generate
    from repro.lang import compile_program

    workers = int(os.environ.get("REPRO_BENCH_WORKERS") or 0) or (os.cpu_count() or 1)
    cpu_count = os.cpu_count() or 1
    degraded = cpu_count < workers
    corpus = generate(PROFILES_BY_NAME["linux"].scaled(harness.scale))
    program = compile_program(corpus.compiled_sources())

    started = time.perf_counter()
    sequential = PATA(config=AnalysisConfig(workers=1)).analyze(program)
    seq_seconds = time.perf_counter() - started

    def run_streamed():
        return PATA(config=AnalysisConfig(workers=workers)).analyze(program)

    started = time.perf_counter()
    parallel = benchmark.pedantic(run_streamed, rounds=1, iterations=1)
    par_seconds = time.perf_counter() - started

    identical = [r.render() for r in sequential.reports] == [r.render() for r in parallel.reports]
    speedup = round(seq_seconds / par_seconds, 3) if par_seconds else None
    seq_explore = sequential.stats.time_explore_seconds
    explore_speedup = (
        round(seq_explore / parallel.stats.time_explore_seconds, 3)
        if parallel.stats.time_explore_seconds
        else None
    )
    amdahl_ceiling = (
        round(seq_seconds / (seq_seconds - seq_explore), 3)
        if seq_seconds > seq_explore
        else None
    )
    payload = {
        "corpus": "linux",
        "scale": harness.scale,
        "cpu_count": cpu_count,
        "workers": parallel.stats.workers_used,
        "batches": parallel.stats.batches_dispatched,
        "entry_functions": parallel.stats.entry_functions,
        "degraded": degraded,
        "sequential_seconds": round(seq_seconds, 4),
        "parallel_seconds": round(par_seconds, 4),
        # A degraded run headlines no speedup: the number would measure
        # oversubscription, not the executor.
        "speedup": None if degraded else speedup,
        "explore_speedup": None if degraded else explore_speedup,
        "amdahl_ceiling": amdahl_ceiling,
        "phases_sequential": _phase_seconds(sequential.stats),
        "phases_parallel": _phase_seconds(parallel.stats),
        "identical_reports": identical,
        "reports": len(parallel.reports),
    }
    out = pathlib.Path(__file__).parent.parent / "BENCH_parallel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert identical
    analyzed = (
        parallel.stats.entry_functions
        - parallel.stats.entries_skipped
        - parallel.stats.entries_cached
    )
    assert parallel.stats.workers_used == min(workers, analyzed)
    assert parallel.stats.batches_dispatched >= parallel.stats.workers_used
    if not degraded:
        assert speedup is not None and speedup >= 1.0, payload


def test_taint_checker_vs_naive_baseline(benchmark, harness):
    """The alias-aware SMT-discharged taint checker vs the grep-regime
    ``TaintNaive`` baseline on the taint-heavy ``taintlab`` corpus; writes
    ``BENCH_taint.json`` at the repo root with recall, bait false
    positives, wall seconds, and the prune-preservation check.  The
    checker must find every injected flow with zero bait hits, and
    pruning must never change a report byte."""
    import json
    import pathlib
    import time

    from repro.baselines import TaintNaive
    from repro.corpus import TAINTLAB, generate
    from repro.lang import compile_program

    corpus = generate(TAINTLAB)
    program = compile_program(corpus.compiled_sources())

    def found_uids(hits):
        uids = set()
        for gt in corpus.ground_truth:
            for kind, path, line in hits:
                if gt.covers(kind, path, line):
                    uids.add(gt.uid)
        return uids

    def bait_hits(hits):
        return [
            (path, line)
            for _, path, line in hits
            if any(
                b.path == path and b.line_start <= line <= b.line_end
                for b in corpus.bait_regions
            )
        ]

    def run_checker():
        return PATA(checker_spec="taint").analyze(program)

    started = time.perf_counter()
    checker = benchmark.pedantic(run_checker, rounds=1, iterations=1)
    checker_seconds = time.perf_counter() - started
    checker_hits = [(r.kind, r.sink_file, r.sink_line) for r in checker.reports]

    started = time.perf_counter()
    naive = TaintNaive().analyze(program)
    naive_seconds = time.perf_counter() - started
    naive_hits = [(f.kind, f.file, f.line) for f in naive.findings]

    unpruned = PATA(
        checker_spec="taint", config=AnalysisConfig(prune=False)
    ).analyze(program)
    identical = [r.render() for r in checker.reports] == [
        r.render() for r in unpruned.reports
    ]

    total = len(corpus.ground_truth)
    checker_found = found_uids(checker_hits)
    naive_found = found_uids(naive_hits)
    payload = {
        "corpus": "taintlab",
        "injected_flows": total,
        "checker_found": len(checker_found),
        "checker_bait_false_positives": len(bait_hits(checker_hits)),
        "checker_seconds": round(checker_seconds, 4),
        "naive_found": len(naive_found),
        "naive_bait_false_positives": len(bait_hits(naive_hits)),
        "naive_seconds": round(naive_seconds, 4),
        "dropped_false_bugs": checker.stats.dropped_false_bugs,
        "entries_skipped": checker.stats.entries_skipped,
        "identical_reports_with_prune_off": identical,
    }
    out = pathlib.Path(__file__).parent.parent / "BENCH_taint.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert len(checker_found) == total
    assert not bait_hits(checker_hits)
    assert len(naive_found) < total or bait_hits(naive_hits)
    assert identical


def test_race_checker_vs_eraser_baseline(benchmark, harness):
    """The alias-aware, SMT-discharged lockset race checker vs the
    lockset-only ``EraserLike`` baseline on the race-heavy ``racelab``
    corpus; writes ``BENCH_race.json`` at the repo root with recall, bait
    false positives, wall seconds, and the prune-preservation check.
    The checker must find every injected race with zero bait hits; the
    baseline must report at least one flag-serialized pair that stage-2
    pair validation discharges; and pruning must never change a report
    byte."""
    import json
    import pathlib
    import time

    from repro.baselines import EraserLike
    from repro.corpus import RACELAB, generate
    from repro.lang import compile_program

    corpus = generate(RACELAB)
    program = compile_program(corpus.compiled_sources())

    def found_uids(hits):
        uids = set()
        for gt in corpus.ground_truth:
            for kind, path, line in hits:
                if gt.covers(kind, path, line):
                    uids.add(gt.uid)
        return uids

    def bait_hits(hits):
        return [
            (path, line)
            for _, path, line in hits
            if any(
                b.path == path and b.line_start <= line <= b.line_end
                for b in corpus.bait_regions
            )
        ]

    def run_checker():
        return PATA(checker_spec="race").analyze(program)

    started = time.perf_counter()
    checker = benchmark.pedantic(run_checker, rounds=1, iterations=1)
    checker_seconds = time.perf_counter() - started
    checker_hits = [(r.kind, r.sink_file, r.sink_line) for r in checker.reports]

    started = time.perf_counter()
    eraser = EraserLike().analyze(program)
    eraser_seconds = time.perf_counter() - started
    eraser_hits = [(f.kind, f.file, f.line) for f in eraser.findings]

    unpruned = PATA(
        checker_spec="race", config=AnalysisConfig(prune=False)
    ).analyze(program)
    identical = [r.render() for r in checker.reports] == [
        r.render() for r in unpruned.reports
    ]

    total = len(corpus.ground_truth)
    checker_found = found_uids(checker_hits)
    eraser_found = found_uids(eraser_hits)
    payload = {
        "corpus": "racelab",
        "injected_races": total,
        "checker_found": len(checker_found),
        "checker_bait_false_positives": len(bait_hits(checker_hits)),
        "checker_seconds": round(checker_seconds, 4),
        "eraser_found": len(eraser_found),
        "eraser_bait_false_positives": len(bait_hits(eraser_hits)),
        "eraser_seconds": round(eraser_seconds, 4),
        "shared_accesses": checker.stats.shared_accesses,
        "race_pairs_matched": checker.stats.race_pairs_matched,
        "dropped_false_bugs": checker.stats.dropped_false_bugs,
        "identical_reports_with_prune_off": identical,
    }
    out = pathlib.Path(__file__).parent.parent / "BENCH_race.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert len(checker_found) == total
    assert not bait_hits(checker_hits)
    # The lockset-only regime reports the flag-serialized pairs that
    # stage 2 proves infeasible — the checker's precision edge.
    assert bait_hits(eraser_hits)
    assert checker.stats.dropped_false_bugs > 0
    assert identical


def test_xtaint_checker_vs_naive_baseline(benchmark, harness):
    """P2.6 cross-module taint vs the module-granular grep tier of
    ``TaintNaive`` on the firmware multi-image ``firmlab`` corpus; writes
    ``BENCH_xtaint.json`` at the repo root with recall, bait false
    positives, the naive tier's cross-module FP count, summary-layer
    cache behaviour, and a workers-1-vs-N × cold/warm-cache report-
    identity differential.  The checker must find every injected
    cross-module flow (border-source patterns are excluded: they need
    ``--taint-borders``) with zero bait hits; the naive tier must miss
    the relay chains and flag bait; reports must be byte-identical
    across every differential leg.  When the machine has fewer cores
    than the parallel leg's workers the payload is stamped ``degraded``
    (the identity checks still gate)."""
    import json
    import os
    import pathlib
    import tempfile
    import time

    from repro.baselines import TaintNaive
    from repro.baselines.taint_naive import CROSS_MODULE_PREFIX
    from repro.corpus import FIRMLAB, generate
    from repro.lang import compile_program

    corpus = generate(FIRMLAB)
    program = compile_program(corpus.compiled_sources())
    parallel_workers = 4
    cpu_count = os.cpu_count() or 1
    degraded = cpu_count < parallel_workers

    #: the default-config recall denominator: border-source ground truth
    #: is only reachable under --taint-borders
    flows = [g for g in corpus.ground_truth if not g.requires.border]

    def found_uids(hits):
        uids = set()
        for gt in flows:
            for kind, path, line in hits:
                if gt.covers(kind, path, line):
                    uids.add(gt.uid)
        return uids

    def bait_hits(hits):
        return [
            (path, line)
            for _, path, line in hits
            if any(
                b.path == path and b.line_start <= line <= b.line_end
                for b in corpus.bait_regions
            )
        ]

    def run_checker():
        return PATA(checker_spec="xtaint").analyze(program)

    started = time.perf_counter()
    checker = benchmark.pedantic(run_checker, rounds=1, iterations=1)
    checker_seconds = time.perf_counter() - started
    checker_hits = [(r.kind, r.sink_file, r.sink_line) for r in checker.reports]
    baseline_renders = [r.render() for r in checker.reports]

    started = time.perf_counter()
    naive = TaintNaive().analyze(program)
    naive_seconds = time.perf_counter() - started
    naive_hits = [(f.kind, f.file, f.line) for f in naive.findings]
    naive_cross = [
        f for f in naive.findings if f.message.startswith(CROSS_MODULE_PREFIX)
    ]
    naive_cross_fp = len(
        bait_hits([(f.kind, f.file, f.line) for f in naive_cross])
    )

    # Differential: workers 1 vs N, each with a cold then warm cache
    # (fresh cache dir per worker count, so both cold legs are cold).
    legs = {}
    summaries_cached_warm = 0
    for workers in (1, parallel_workers):
        with tempfile.TemporaryDirectory() as cache_dir:
            for leg in ("cold", "warm"):
                config = AnalysisConfig(
                    workers=workers, cache_dir=cache_dir, cache_mode="rw"
                )
                started = time.perf_counter()
                result = PATA(config=config, checker_spec="xtaint").analyze(program)
                legs[f"workers{workers}_{leg}"] = {
                    "seconds": round(time.perf_counter() - started, 4),
                    "identical": [r.render() for r in result.reports]
                    == baseline_renders,
                }
                if leg == "warm":
                    summaries_cached_warm = max(
                        summaries_cached_warm, result.stats.summaries_cached
                    )

    checker_found = found_uids(checker_hits)
    naive_found = found_uids(naive_hits)
    payload = {
        "corpus": "firmlab",
        "injected_cross_flows": len(flows),
        "injected_border_flows": len(corpus.ground_truth) - len(flows),
        "degraded": degraded,
        "checker_found": len(checker_found),
        "checker_bait_false_positives": len(bait_hits(checker_hits)),
        "checker_seconds": round(checker_seconds, 4),
        "taint_flows_recorded": checker.stats.taint_flows_recorded,
        "xtaint_pairs_matched": checker.stats.xtaint_pairs_matched,
        "time_xmatch_seconds": round(checker.stats.time_xmatch_seconds, 4),
        "summaries_cached_warm": summaries_cached_warm,
        "naive_found": len(naive_found),
        "naive_bait_false_positives": len(bait_hits(naive_hits)),
        "naive_cross_module_findings": len(naive_cross),
        "naive_cross_module_false_positives": naive_cross_fp,
        "naive_seconds": round(naive_seconds, 4),
        "dropped_false_bugs": checker.stats.dropped_false_bugs,
        "differential": legs,
    }
    out = pathlib.Path(__file__).parent.parent / "BENCH_xtaint.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert len(checker_found) == len(flows)
    assert not bait_hits(checker_hits)
    # The grep tier misses the relay chains (the middle image has no
    # source) and flags the bait shapes the checker discharges.
    assert len(naive_found) < len(flows)
    assert naive_cross_fp > 0
    assert summaries_cached_warm > 0
    assert all(leg["identical"] for leg in legs.values())


def test_pruned_vs_unpruned_entry_analysis(benchmark, harness):
    """The P1.5 relevance pre-analysis on vs off (``--no-prune``) on the
    largest generated corpus; writes ``BENCH_prune.json`` at the repo
    root with entries skipped, paths explored, wall seconds, and the
    report-preservation check.  Pruning must explore strictly fewer
    paths and must never change a single report byte."""
    import json
    import pathlib
    import time

    from repro.corpus import PROFILES_BY_NAME, generate
    from repro.lang import compile_program

    corpus = generate(PROFILES_BY_NAME["linux"].scaled(harness.scale))
    program = compile_program(corpus.compiled_sources())

    started = time.perf_counter()
    unpruned = PATA(config=AnalysisConfig(prune=False)).analyze(program)
    unpruned_seconds = time.perf_counter() - started

    def run_pruned():
        return PATA(config=AnalysisConfig(prune=True)).analyze(program)

    started = time.perf_counter()
    pruned = benchmark.pedantic(run_pruned, rounds=1, iterations=1)
    pruned_seconds = time.perf_counter() - started

    identical = [r.render() for r in unpruned.reports] == [r.render() for r in pruned.reports]
    payload = {
        "corpus": "linux",
        "scale": harness.scale,
        "entry_functions": pruned.stats.entry_functions,
        "entries_skipped": pruned.stats.entries_skipped,
        "blocks_pruned": pruned.stats.blocks_pruned,
        "paths_pruned": pruned.stats.paths_pruned,
        "paths_explored_pruned": pruned.stats.explored_paths,
        "paths_explored_unpruned": unpruned.stats.explored_paths,
        "pruned_seconds": round(pruned_seconds, 4),
        "unpruned_seconds": round(unpruned_seconds, 4),
        "speedup": round(unpruned_seconds / pruned_seconds, 3) if pruned_seconds else None,
        "identical_reports": identical,
        "reports": len(pruned.reports),
    }
    out = pathlib.Path(__file__).parent.parent / "BENCH_prune.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert identical
    assert pruned.stats.entries_skipped > 0
    assert pruned.stats.explored_paths < unpruned.stats.explored_paths


def test_alias_tier_cold_warm(benchmark, harness, tmp_path):
    """The tiered alias analysis (P1.7 Steensgaard pre-pass + singleton
    fast paths) on/off at the headline corpus; writes ``BENCH_alias.json``
    at the repo root with interleaved cold pairs, warm-cache timings, and
    per-phase breakdowns.

    Measurement: single cold runs swing well over the effect size on a
    busy machine, so the bench times several *interleaved* off/on pairs
    and headlines ``min(off)/min(on)`` (noise only ever adds time);
    per-pair ratios and their median are recorded alongside.  Honest
    about its configuration: at reduced ``REPRO_BENCH_SCALE`` fixed
    overheads dominate and the payload is stamped ``degraded`` with no
    headlined speedup (ROADMAP's 2x target is defined at scale 4.0).
    Identical reports across every run — tier on/off, cold/warm — are
    asserted unconditionally: the tier is an optimization, never a
    precision trade."""
    import json
    import pathlib
    import statistics
    import time

    from repro.corpus import PROFILES_BY_NAME, generate
    from repro.incremental import compile_with_cache, open_store
    from repro.lang import compile_program

    headline_scale = 4.0
    degraded = harness.scale < headline_scale
    pairs = 3

    corpus = generate(PROFILES_BY_NAME["linux"].scaled(harness.scale))
    sources = list(corpus.compiled_sources())
    program = compile_program(sources)

    def run_cold(tier):
        started = time.perf_counter()
        result = PATA(
            config=AnalysisConfig(alias_tier=tier), checker_spec="all"
        ).analyze(program)
        return result, time.perf_counter() - started

    def text(result):
        return [r.render() for r in result.reports]

    cold_pairs = []
    off_result = on_result = None
    for _ in range(pairs):
        off_result, off_seconds = run_cold(False)
        on_result, on_seconds = run_cold(True)
        cold_pairs.append((off_seconds, on_seconds))
    benchmark.pedantic(lambda: run_cold(True), rounds=1, iterations=1)

    baseline = text(off_result)
    identical = text(on_result) == baseline

    best_off = min(off for off, _ in cold_pairs)
    best_on = min(on for _, on in cold_pairs)
    ratios = [off / on for off, on in cold_pairs]
    speedup = round(best_off / best_on, 3) if best_on else None

    def run_cached(tier, cache_dir):
        started = time.perf_counter()
        config = AnalysisConfig(
            alias_tier=tier, cache_dir=cache_dir, cache_mode="rw"
        )
        store = open_store(cache_dir, "rw")
        cached_program = compile_with_cache(sources, store)
        if store is not None:
            store.commit()
        result = PATA(config=config, checker_spec="all").analyze(cached_program)
        return result, time.perf_counter() - started

    dir_off = str(tmp_path / "cache-off")
    dir_on = str(tmp_path / "cache-on")
    _, cold_cached_off = run_cached(False, dir_off)
    _, cold_cached_on = run_cached(True, dir_on)
    warm_off, warm_off_seconds = run_cached(False, dir_off)
    warm_on, warm_on_seconds = run_cached(True, dir_on)
    identical = (
        identical
        and text(warm_off) == baseline
        and text(warm_on) == baseline
    )

    phases_on = _phase_seconds(on_result.stats)
    phases_on["unify"] = round(on_result.stats.time_unify_seconds, 4)
    payload = {
        "corpus": "linux",
        "scale": harness.scale,
        "headline_scale": headline_scale,
        "spec": "all",
        "degraded": degraded,
        "cold_pairs": [
            {"off_seconds": round(off, 4), "on_seconds": round(on, 4),
             "ratio": round(off / on, 3)}
            for off, on in cold_pairs
        ],
        "cold_off_seconds": round(best_off, 4),
        "cold_on_seconds": round(best_on, 4),
        # A degraded (reduced-scale) run headlines no speedup: fixed
        # overheads would measure the harness, not the tier.
        "speedup": None if degraded else speedup,
        "speedup_median_of_pairs": None if degraded else round(
            statistics.median(ratios), 3
        ),
        "warm": {
            "cold_off_seconds": round(cold_cached_off, 4),
            "cold_on_seconds": round(cold_cached_on, 4),
            "off_seconds": round(warm_off_seconds, 4),
            "on_seconds": round(warm_on_seconds, 4),
            # Warm runs replay cached entry results, so the tier is
            # structurally irrelevant there — recorded, never gated.
            "speedup": round(warm_off_seconds / warm_on_seconds, 3)
            if warm_on_seconds else None,
        },
        "phases_off": _phase_seconds(off_result.stats),
        "phases_on": phases_on,
        "singletons_proven": on_result.stats.singletons_proven,
        "alias_cells": on_result.stats.alias_cells,
        "entry_functions": on_result.stats.entry_functions,
        "identical_reports": identical,
        "reports": len(on_result.reports),
    }
    out = pathlib.Path(__file__).parent.parent / "BENCH_alias.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert identical
    assert on_result.stats.singletons_proven > 0
    assert on_result.stats.alias_cells > 0
    assert off_result.stats.singletons_proven == 0
    assert any(row.cached for row in warm_on.stats.per_entry)
    if not degraded:
        assert speedup is not None and speedup >= 1.5, payload


def test_ptaflow_cold_warm(benchmark, harness, tmp_path):
    """The P1.8 flow-sensitive middle tier (``--alias-tier flow``)
    against the untiered engine at the headline corpus; writes
    ``BENCH_ptaflow.json`` at the repo root.

    Same measurement discipline as the P1.7 bench: several *interleaved*
    cold off/flow pairs with a ``min(off)/min(flow)`` headline (noise
    only ever adds time), warm-cache legs over per-tier cache
    directories (the facts are their own cache layer, so the warm flow
    leg replays them), and honest ``degraded`` stamping below the
    headline scale — ROADMAP's 2x target for this tier is defined at
    scale 4.0, spec ``all``.  Identical reports across every run are
    asserted unconditionally: the ladder is an optimization, never a
    precision trade."""
    import json
    import pathlib
    import statistics
    import time

    from repro.corpus import PROFILES_BY_NAME, generate
    from repro.incremental import compile_with_cache, open_store
    from repro.lang import compile_program

    headline_scale = 4.0
    degraded = harness.scale < headline_scale
    pairs = 3

    corpus = generate(PROFILES_BY_NAME["linux"].scaled(harness.scale))
    sources = list(corpus.compiled_sources())
    program = compile_program(sources)

    def run_cold(tier):
        started = time.perf_counter()
        result = PATA(
            config=AnalysisConfig(alias_tier=tier), checker_spec="all"
        ).analyze(program)
        return result, time.perf_counter() - started

    def text(result):
        return [r.render() for r in result.reports]

    cold_pairs = []
    off_result = flow_result = None
    for _ in range(pairs):
        off_result, off_seconds = run_cold("off")
        flow_result, flow_seconds = run_cold("flow")
        cold_pairs.append((off_seconds, flow_seconds))
    benchmark.pedantic(lambda: run_cold("flow"), rounds=1, iterations=1)

    baseline = text(off_result)
    identical = text(flow_result) == baseline

    best_off = min(off for off, _ in cold_pairs)
    best_flow = min(flow for _, flow in cold_pairs)
    ratios = [off / flow for off, flow in cold_pairs]
    speedup = round(best_off / best_flow, 3) if best_flow else None

    def run_cached(tier, cache_dir):
        started = time.perf_counter()
        config = AnalysisConfig(
            alias_tier=tier, cache_dir=cache_dir, cache_mode="rw"
        )
        store = open_store(cache_dir, "rw")
        cached_program = compile_with_cache(sources, store)
        if store is not None:
            store.commit()
        result = PATA(config=config, checker_spec="all").analyze(cached_program)
        return result, time.perf_counter() - started

    dir_off = str(tmp_path / "cache-off")
    dir_flow = str(tmp_path / "cache-flow")
    _, cold_cached_off = run_cached("off", dir_off)
    _, cold_cached_flow = run_cached("flow", dir_flow)
    warm_off, warm_off_seconds = run_cached("off", dir_off)
    warm_flow, warm_flow_seconds = run_cached("flow", dir_flow)
    identical = (
        identical
        and text(warm_off) == baseline
        and text(warm_flow) == baseline
    )

    phases_flow = _phase_seconds(flow_result.stats)
    phases_flow["unify"] = round(flow_result.stats.time_unify_seconds, 4)
    phases_flow["flow"] = round(flow_result.stats.time_flow_seconds, 4)
    payload = {
        "corpus": "linux",
        "scale": harness.scale,
        "headline_scale": headline_scale,
        "spec": "all",
        "degraded": degraded,
        "cold_pairs": [
            {"off_seconds": round(off, 4), "flow_seconds": round(flow, 4),
             "ratio": round(off / flow, 3)}
            for off, flow in cold_pairs
        ],
        "cold_off_seconds": round(best_off, 4),
        "cold_flow_seconds": round(best_flow, 4),
        # A degraded (reduced-scale) run headlines no speedup: fixed
        # overheads would measure the harness, not the tier.
        "speedup": None if degraded else speedup,
        "speedup_median_of_pairs": None if degraded else round(
            statistics.median(ratios), 3
        ),
        "warm": {
            "cold_off_seconds": round(cold_cached_off, 4),
            "cold_flow_seconds": round(cold_cached_flow, 4),
            "off_seconds": round(warm_off_seconds, 4),
            "flow_seconds": round(warm_flow_seconds, 4),
            # Warm runs replay cached entry results (and the facts
            # layer), so recorded, never gated.
            "speedup": round(warm_off_seconds / warm_flow_seconds, 3)
            if warm_flow_seconds else None,
        },
        "phases_off": _phase_seconds(off_result.stats),
        "phases_flow": phases_flow,
        "singletons_proven": flow_result.stats.singletons_proven,
        "must_singletons": flow_result.stats.must_singletons,
        "strong_updates": flow_result.stats.strong_updates,
        "time_flow_seconds": round(flow_result.stats.time_flow_seconds, 4),
        "entry_functions": flow_result.stats.entry_functions,
        "identical_reports": identical,
        "reports": len(flow_result.reports),
    }
    out = pathlib.Path(__file__).parent.parent / "BENCH_ptaflow.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert identical
    assert flow_result.stats.singletons_proven > 0
    assert flow_result.stats.must_singletons > 0
    assert off_result.stats.must_singletons == 0
    assert any(row.cached for row in warm_flow.stats.per_entry)
    if not degraded:
        assert speedup is not None and speedup >= 2.0, payload


def test_serve_resident_vs_cold(benchmark, harness, tmp_path):
    """Analysis-as-a-service: a resident daemon answering a warm query
    vs a cold one-shot CLI run (fresh interpreter, fresh caches) on the
    same corpus; writes ``BENCH_serve.json`` at the repo root.

    The cold leg is the honest thing a daemon replaces: a full
    ``python -m repro check`` subprocess — interpreter start, imports,
    compile, analysis.  Two warm legs are measured over the daemon's
    unix socket: the *replay* tier (a byte-identical repeated
    ``check_module``, the daemon steady state) and the *cache* tier (a
    never-seen-before ``check_diff`` overlay forcing a memo miss, so
    modules and entry outcomes resolve out of the resident store).
    Responses must be byte-identical to the cold CLI's stdout.  The 8x
    replay headline is defined at scale >= 1.0; a reduced
    ``REPRO_BENCH_SCALE`` run is stamped ``degraded`` and gates only a
    2x floor (fixed per-request costs dominate tiny corpora).
    """
    import json
    import os
    import pathlib
    import subprocess
    import sys
    import time

    from repro.corpus import PROFILES_BY_NAME, generate
    from repro.serve import PataServer, ServeClient

    corpus = generate(PROFILES_BY_NAME["linux"].scaled(harness.scale))
    paths = []
    for name, text in corpus.compiled_sources():
        path = tmp_path / name.replace("/", "__")
        path.write_text(text)
        paths.append(str(path))

    repo_root = pathlib.Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root / "src")

    def run_cold_cli():
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", *paths],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode in (0, 1), proc.stderr
        return proc.stdout, time.perf_counter() - started

    cold_samples = [run_cold_cli() for _ in range(2)]
    cli_output = cold_samples[0][0]
    assert all(out == cli_output for out, _ in cold_samples)
    cold_seconds = min(seconds for _, seconds in cold_samples)

    server = PataServer(roots=paths, socket_path=str(tmp_path / "pata.sock"))
    server.start()
    try:
        client = ServeClient(socket_path=server.socket_path, timeout=600)
        warmup = client.request({"op": "check_module"})
        assert warmup["ok"]

        def warm_query():
            started = time.perf_counter()
            response = client.request({"op": "check_module"})
            return response, time.perf_counter() - started

        first, first_seconds = benchmark.pedantic(
            warm_query, rounds=1, iterations=1
        )
        # Best of three: a warm round-trip is milliseconds, so one
        # scheduler hiccup would dominate a lone measurement.
        samples = [(first, first_seconds)] + [warm_query() for _ in range(2)]
        warm_seconds = min(seconds for _, seconds in samples)
        warm = samples[0][0]

        def cache_tier_query(i):
            # A nonce source the session has never seen: the request
            # fingerprint misses the replay memo, so this times the
            # resident *cache* tier (module + outcome replay from RAM).
            overlay = {"bench_nonce.c": f"int bench_nonce(void) {{ return {i}; }}"}
            started = time.perf_counter()
            response = client.request({"op": "check_diff", "overlay": overlay})
            return response, time.perf_counter() - started

        tier2_samples = [cache_tier_query(i) for i in range(3)]
        tier2_seconds = min(seconds for _, seconds in tier2_samples)
        assert all(
            response["ok"] and not response["serve"]["replayed"]
            for response, _ in tier2_samples
        )
        status = client.request({"op": "status"})
        client.close()
    finally:
        server.request_shutdown()
        server.serve_forever()
        server.close()

    identical = all(
        response["output"] == cli_output for response, _ in samples
    ) and warmup["output"] == cli_output
    degraded = harness.scale < 1.0
    speedup = cold_seconds / warm_seconds if warm_seconds else None
    tier2_speedup = cold_seconds / tier2_seconds if tier2_seconds else None
    payload = {
        "corpus": "linux",
        "scale": harness.scale,
        "files": len(paths),
        "cold_cli_seconds": round(cold_seconds, 4),
        "warm_query_seconds": round(warm_seconds, 6),
        "cache_tier_query_seconds": round(tier2_seconds, 6),
        "warmup_analysis_seconds": warmup["serve"]["analysis_seconds"],
        "warm_replayed": warm["serve"]["replayed"],
        "warm_entries_reanalyzed": warm["serve"]["entries_reanalyzed"],
        "warm_cache_misses": warm["serve"]["cache_misses"],
        "resident_cache_entries": warm["serve"]["resident_cache_entries"],
        "requests_served": status["requests_served"],
        "degraded": degraded,
        # A degraded (reduced-scale) run headlines no speedup: it would
        # measure fixed per-request overheads, not residency.
        "speedup": None if degraded else (round(speedup, 2) if speedup else None),
        "speedup_measured": round(speedup, 2) if speedup else None,
        "cache_tier_speedup": round(tier2_speedup, 2) if tier2_speedup else None,
        "identical_output": identical,
        "reports": warm["bugs"],
    }
    out = repo_root / "BENCH_serve.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    assert identical
    assert warm["serve"]["entries_reanalyzed"] == 0
    assert speedup is not None and speedup >= (8.0 if not degraded else 2.0), payload
    # The cache tier (memo miss, resident store) must still beat a cold
    # CLI run end-to-end, at any scale.
    assert tier2_speedup is not None and tier2_speedup >= 2.0, payload
