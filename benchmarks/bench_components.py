"""Component micro-benchmarks + ablations of DESIGN.md's design choices.

Not a paper table: these measure the throughput of the pieces the paper
argues about — alias-graph updates (trail vs the naive copy the paper
describes), the SMT-lite solver, path exploration — and the effect of
the two engine knobs (callee-exit merging, path validation).  Two A/B
legs time what no ``bench/`` workload compares: parallel against
sequential P2, and a resident daemon against a cold CLI run.
"""

import random

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
        # Pruning off: P1.5 would skip the event-free entry outright,
        # and this ablation measures exit merging, not pruning.
        config = AnalysisConfig(
            merge_callee_exits=merge,
            prune=False,
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
