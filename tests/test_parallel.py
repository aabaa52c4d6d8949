"""Parallel-driver and cross-entry state-leak regression tests.

Covers the two per-entry state leaks the shared-explorer design produced
(``budget_exhausted`` and ``load_srcs`` surviving across entries), the
fresh-explorer-per-shard contract, and the parallel driver's determinism
guarantee: ``workers=1`` and ``workers=4`` must produce byte-identical
reports and merged stats (timings aside).
"""

import dataclasses
import logging

import pytest

from repro import PATA, AnalysisConfig
from repro.core import InformationCollector, PathExplorer
from repro.core.parallel import explore_entries, merge_outcomes
from repro.corpus import PROFILES_BY_NAME, generate
from repro.ir import (
    Call,
    CallIndirect,
    Const,
    Function,
    Gep,
    INT,
    InterfaceRegistration,
    Jump,
    Load,
    Module,
    PointerType,
    Program,
    Ret,
    Var,
)
from repro.ir.types import StructType
from repro.lang import compile_program
from repro.typestate import BugKind, default_checkers


# ---------------------------------------------------------------------------
# Satellite 1: budget_exhausted must reset between entries
# ---------------------------------------------------------------------------

BUDGET_SOURCE = """
int heavy(int a) {
    int r = 0;
    if (a > 0) r = r + 1;
    if (a > 1) r = r + 1;
    if (a > 2) r = r + 1;
    if (a > 3) r = r + 1;
    if (a > 4) r = r + 1;
    if (a > 5) r = r + 1;
    return r;
}
int light(int b) {
    return b + 1;
}
"""


def _entries_by_name(program):
    collector = InformationCollector(program)
    return collector, {f.name: f for f in collector.entry_functions()}


def test_budget_exhausted_resets_between_entries():
    program = compile_program([("budget.c", BUDGET_SOURCE)])
    _, entries = _entries_by_name(program)
    config = AnalysisConfig(max_steps_per_entry=20)
    explorer = PathExplorer(program, config, default_checkers())
    explorer.explore(entries["heavy"])
    assert explorer.budget_exhausted
    explorer.explore(entries["light"])
    # Regression: the flag used to survive into every later entry.
    assert not explorer.budget_exhausted


def test_budget_exhausted_entries_counted_once():
    program = compile_program([("budget.c", BUDGET_SOURCE)])
    config = AnalysisConfig(max_steps_per_entry=20, prune=False)
    result = PATA(config=config).analyze(program)
    assert result.stats.budget_exhausted_entries == 1
    flags = {e.name: e.budget_exhausted for e in result.stats.per_entry}
    assert flags == {"heavy": True, "light": False}


# ---------------------------------------------------------------------------
# Satellite 2: load_srcs (load provenance) must not leak across entries
# ---------------------------------------------------------------------------


def _leak_program():
    """Two hand-built entries sharing variable names.

    ``prime`` performs ``addr = &ops->h; fn = *addr`` — recording load
    provenance for the name ``fn``.  ``victim`` computes its own
    ``addr = &ops->h`` but *never loads* ``fn``; its indirect call through
    ``fn`` is unresolvable on every real path.  With stale ``load_srcs``
    from ``prime``, ``_resolve_indirect`` chains victim's ``addr`` through
    prime's load and wrongly inlines ``bad_handler(NULL)`` — an NPD that
    no path of ``victim`` can produce.
    """
    module = Module("leak.c")
    ops_ty = StructType("ops")
    int_ptr = PointerType(INT)
    ops_ty.set_fields({"h": int_ptr})
    module.structs["ops"] = ops_ty
    ops_ptr = PointerType(ops_ty)

    fn_var = Var("fn", int_ptr)
    addr_var = Var("addr", PointerType(int_ptr))

    bad = Function("bad_handler", [Var("p", int_ptr)], INT, filename="leak.c", line=1)
    block = bad.add_block("entry")
    block.append(Load(Var("v", INT), Var("p", int_ptr)))
    block.set_terminator(Ret(Const(0)))
    module.add_function(bad)

    prime = Function("prime", [Var("ops", ops_ptr)], INT, filename="leak.c", line=10)
    block = prime.add_block("entry")
    block.append(Gep(addr_var, Var("ops", ops_ptr), "h"))
    block.append(Load(fn_var, addr_var))
    block.set_terminator(Ret(Const(0)))
    prime.is_interface = True
    module.add_function(prime)

    victim = Function("victim", [Var("ops", ops_ptr)], INT, filename="leak.c", line=20)
    block = victim.add_block("entry")
    block.append(Gep(addr_var, Var("ops", ops_ptr), "h"))
    block.append(CallIndirect(None, fn_var, [Const(0, int_ptr)]))
    block.set_terminator(Ret(Const(0)))
    victim.is_interface = True
    module.add_function(victim)

    module.add_registration(InterfaceRegistration("g_ops", ops_ty, "h", "bad_handler"))
    return Program([module])


def test_load_srcs_cleared_after_each_entry():
    program = _leak_program()
    collector = InformationCollector(program)
    explorer = PathExplorer(
        program,
        AnalysisConfig(resolve_function_pointers=True),
        default_checkers(),
        indirect_resolver=collector.indirect_targets,
    )
    explorer.explore(program.lookup("prime"))
    # Regression: prime's load provenance used to survive here.
    assert explorer.load_srcs == {}


def test_stale_load_provenance_cannot_resolve_other_entrys_pointers():
    program = _leak_program()
    collector = InformationCollector(program)
    explorer = PathExplorer(
        program,
        AnalysisConfig(resolve_function_pointers=True),
        default_checkers(),
        indirect_resolver=collector.indirect_targets,
    )
    explorer.explore(program.lookup("prime"))
    explorer.explore(program.lookup("victim"))
    # With the leak, victim's icall resolved through prime's load and
    # inlined bad_handler(NULL), reporting an impossible NPD.
    npd = [b for b in explorer.possible_bugs if b.kind is BugKind.NPD]
    assert npd == []


def test_entry_order_does_not_change_results():
    """The same two entries analyzed in either order (or alone) agree —
    the stronger form of the no-cross-entry-state property."""
    program = _leak_program()
    collector = InformationCollector(program)

    def run(order):
        explorer = PathExplorer(
            program,
            AnalysisConfig(resolve_function_pointers=True),
            default_checkers(),
            indirect_resolver=collector.indirect_targets,
        )
        for name in order:
            explorer.explore(program.lookup(name))
        return sorted(str(b) for b in explorer.possible_bugs)

    assert run(["prime", "victim"]) == run(["victim", "prime"])
    assert run(["prime", "victim"]) == run(["victim"]) + run(["prime"])


# ---------------------------------------------------------------------------
# Worker world + batch body (the persistent-executor seams, in-process)
# ---------------------------------------------------------------------------


def _instructions(program):
    """uid -> instruction or terminator, over every defined function."""
    index = {}
    for func in program.functions():
        for block in func.blocks:
            for inst in [*block.instructions, block.terminator]:
                if inst is not None:
                    index[inst.uid] = inst
    return index


def _run_batch_in_process(world, names):
    """One worker batch run in this process over ``world``: its bytes,
    and those bytes decoded the way the parent decodes them."""
    import repro.core.parallel as parallel_mod
    from repro.core.parallel import _init_worker, _run_batch
    from repro.incremental.coords import CoordNaming, decode

    try:
        _init_worker(world)
        assert parallel_mod._WORLD is world
        data = _run_batch(names)
    finally:
        parallel_mod._WORLD = None
    return data, decode(data, CoordNaming(world.program).resolve)


def test_worker_world_and_batch():
    """A worker adopts the parent's world as is, and its batch body
    explores a batch and returns per-entry-pure outcomes in batch order,
    equal to the in-process path's."""
    from repro.core.parallel import World

    program = compile_program([("budget.c", BUDGET_SOURCE)])
    world = World(program, AnalysisConfig(), default_checkers())
    _, chunk = _run_batch_in_process(world, ["heavy", "light"])
    assert [name for name, _ in chunk] == ["heavy", "light"]
    assert [outcome.stats.name for _, outcome in chunk] == ["heavy", "light"]
    entries = [program.lookup("heavy"), program.lookup("light")]
    in_process = explore_entries(world.explorer(), entries)
    assert [o.stats.paths for _, o in chunk] == [o.stats.paths for o in in_process]


def test_batches_are_size_sorted_largest_first():
    """Dispatch order is by instruction count, descending, stable on
    ties — the big entries must hit the queue while every worker is
    still busy."""
    from repro.core.parallel import _make_batches

    source = """
int tiny(int a) { return a; }
int big(int a) {
    int r = 0;
    if (a > 0) r = r + 1;
    if (a > 1) r = r + 2;
    if (a > 2) r = r + 3;
    return r;
}
int mid(int b) {
    int r = b + 1;
    if (b > 0) r = r + 1;
    return r;
}
"""
    program = compile_program([("sizes.c", source)])
    _, entries = _entries_by_name(program)
    ordered = [entries["tiny"], entries["big"], entries["mid"]]
    batches = _make_batches(ordered, 1)
    assert batches == [["big"], ["mid"], ["tiny"]]
    assert _make_batches(ordered, 2) == [["big", "mid"], ["tiny"]]


def test_batch_size_auto():
    from repro.core.parallel import batch_size

    # 100 entries, 4 workers, DISPATCH_FACTOR 4 -> ~16 batches of 7
    assert batch_size(100, 4) == 7
    # tiny entry lists degrade to one entry per batch, never 0
    assert batch_size(3, 4) == 1


# ---------------------------------------------------------------------------
# Determinism: workers=1 and workers=4 byte-identical
# ---------------------------------------------------------------------------


def _stats_fingerprint(stats):
    """Every stats field except wall-clock timings and run-shape
    metadata (worker/batch counts legitimately differ between the
    sequential and the streamed run)."""
    data = dataclasses.asdict(stats)
    for key in list(data):
        if key.endswith("_seconds") or key in ("workers_used", "batches_dispatched"):
            data[key] = 0
    for entry in data["per_entry"]:
        entry["wall_seconds"] = 0.0
    return data


@pytest.mark.slow
def test_workers_determinism_on_corpus():
    # (profile, scale, checker spec or None for the defaults, workers)
    for name, scale, spec, workers in [("zephyr", 0.6, None, 4),
                                       ("linux", 0.2, "all", 2)]:
        corpus = generate(PROFILES_BY_NAME[name].scaled(scale))
        program = compile_program(corpus.compiled_sources())
        sequential = PATA(config=AnalysisConfig(workers=1), checker_spec=spec).analyze(program)
        parallel = PATA(config=AnalysisConfig(workers=workers), checker_spec=spec).analyze(program)
        assert parallel.stats.workers_used == workers
        assert parallel.stats.batches_dispatched >= workers
        assert [r.render() for r in sequential.reports] == [r.render() for r in parallel.reports]
        assert _stats_fingerprint(sequential.stats) == _stats_fingerprint(parallel.stats)
        # Cross-entry repeats must collapse identically whether the dedup
        # ran in one explorer or across shard merges.
        assert sequential.stats.dropped_repeated_bugs == parallel.stats.dropped_repeated_bugs


def test_workers_determinism_on_multi_entry_file():
    source = """
struct s { int v; };
int f1(struct s *p) { if (!p) { return p->v; } return 0; }
int f2(struct s *q) { if (!q) { return q->v; } return 1; }
int f3(int a) { int *r = 0; if (a) { return *r; } return 2; }
int f4(int b) { return b + 2; }
"""
    program = compile_program([("multi.c", source)])
    sequential = PATA(config=AnalysisConfig(workers=1)).analyze(program)
    parallel = PATA(config=AnalysisConfig(workers=4)).analyze(program)
    assert [r.render() for r in sequential.reports] == [r.render() for r in parallel.reports]
    assert _stats_fingerprint(sequential.stats) == _stats_fingerprint(parallel.stats)


def test_workers_zero_resolves_to_cpu_count():
    config = AnalysisConfig(workers=0)
    assert config.resolved_workers() >= 1


# ---------------------------------------------------------------------------
# Fallbacks: never crash, one-line warning, sequential result
# ---------------------------------------------------------------------------

#: three analyzed entries (two NPDs and a leak) and one the pruning skips
MULTI_SOURCE = """
struct s { int v; };
int f1(struct s *p) { if (!p) { return p->v; } return 0; }
int f2(struct s *q) { if (!q) { return q->v; } return 1; }
int f3(int n) { int *p = malloc(8); if (n > 1) return -1; free(p); return 0; }
int f4(int b) { return b + 2; }
"""


def test_platform_without_fork_falls_back_to_sequential(monkeypatch, caplog):
    """Where the platform has no fork start method, ``get_context``
    raises inside the pool set-up: the run warns once and goes
    sequential, with the sequential reports."""
    import multiprocessing

    program = compile_program([("multi.c", MULTI_SOURCE)])
    sequential = PATA(config=AnalysisConfig(workers=1)).analyze(program)

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        result = PATA(config=AnalysisConfig(workers=2)).analyze(program)
    assert result.stats.workers_used == 1
    warnings = [r for r in caplog.records if "falling back to sequential" in r.message]
    assert len(warnings) == 1
    assert "cannot find context" in warnings[0].message
    assert [r.render() for r in sequential.reports] == [r.render() for r in result.reports]


def test_worker_failure_falls_back_to_sequential(monkeypatch, caplog):
    """A worker that raises (here: in the pool initializer, which breaks
    the pool) must not crash the parent — run_parallel returns None and
    the caller goes sequential."""
    from repro import heap
    from repro.core.parallel import World, run_parallel

    def broken_adopt():
        raise RuntimeError("injected initializer failure")

    # Forked workers inherit the patched module attribute.
    monkeypatch.setattr(heap, "adopt", broken_adopt)
    program = compile_program([("multi.c", "int f(int a) { return a; }\nint g(int b) { return b; }")])
    entries = InformationCollector(program).entry_functions()
    world = World(program, AnalysisConfig(workers=2), default_checkers())
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        outcome = run_parallel(world, entries)
    assert outcome is None
    assert any("parallel analysis failed" in r.message for r in caplog.records)


def test_mid_run_crash_cancels_queued_batches(tmp_path, monkeypatch, caplog):
    """Satellite regression: when one batch raises, the queued remainder
    must be cancelled (``cancel_futures``) rather than run to completion
    behind the sequential fallback's back — the old driver let every
    surviving shard finish first, doubling the work.

    Instrumentation: workers touch one file per *completed* batch; the
    injected crash fires on the most expensive entry, i.e. inside the
    very first dispatched batch.  With cancellation, only the handful of
    batches already in flight can complete; without it, all of them do.

    Each surviving entry chains seven branches (128 paths, a few ms to
    explore), so the parent's cancel latency under a loaded machine
    spans at most a batch or two instead of many near-empty ones.
    """
    import repro.core.parallel as parallel_mod
    from repro.core.parallel import _CRASH_ENV, _TOUCH_ENV, World, run_parallel

    pieces = []
    for index in range(24):
        pieces.append(
            f"int entry{index:02d}(int a) {{\n"
            f"    int r = a + {index};\n"
            + "".join(f"    if (a > {k}) r = r + {k + 1};\n" for k in range(7))
            + "    return r;\n"
            "}\n"
        )
    # The crash target gets extra instructions so size-sorting dispatches
    # it first, deterministically.
    pieces.append(
        "int crashy(int a) {\n"
        + "".join(f"    int x{i} = a + {i};\n" for i in range(16))
        + "    return a;\n}\n"
    )
    program = compile_program([("crash.c", "".join(pieces))])
    collector = InformationCollector(program)
    entries = collector.entry_functions()
    assert len(entries) == 25
    touch_dir = tmp_path / "touches"
    touch_dir.mkdir()
    monkeypatch.setenv(_CRASH_ENV, "crashy")
    monkeypatch.setenv(_TOUCH_ENV, str(touch_dir))
    # One entry per batch: 25 entries over 2 workers x 13 batches each.
    monkeypatch.setattr(parallel_mod, "DISPATCH_FACTOR", 13)
    world = World(program, AnalysisConfig(workers=2, prune=False), default_checkers())
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        outcome = run_parallel(world, entries)
    assert outcome is None
    assert any("injected test crash" in r.message for r in caplog.records)
    completed = len(list(touch_dir.iterdir()))
    # 25 batches total; the crash lands in the first.  Allow a generous
    # in-flight margin, but anything near 24 means cancellation failed.
    assert completed <= 8, f"{completed} batches completed after the crash"


def test_crashy_analysis_still_produces_sequential_reports(monkeypatch):
    """End to end: a mid-run worker crash degrades to the sequential
    path and the final reports are exactly the workers=1 reports."""
    from repro.core.parallel import _CRASH_ENV

    source = """
struct s { int v; };
int f1(struct s *p) { if (!p) { return p->v; } return 0; }
int f2(struct s *q) { if (!q) { return q->v; } return 1; }
int f3(int a) { int *r = 0; if (a) { return *r; } return 2; }
"""
    program = compile_program([("multi.c", source)])
    sequential = PATA(config=AnalysisConfig(workers=1)).analyze(program)
    monkeypatch.setenv(_CRASH_ENV, "f1")
    crashed = PATA(config=AnalysisConfig(workers=2)).analyze(program)
    assert crashed.stats.workers_used == 1
    assert [r.render() for r in sequential.reports] == [r.render() for r in crashed.reports]


def test_custom_checker_objects_run_in_workers(caplog):
    """Forked workers inherit live checker objects, so a custom checker
    list runs on the pool and matches the in-process run byte for
    byte."""
    from repro.typestate import MemoryLeakChecker, NullDereferenceChecker

    program = compile_program([("multi.c", MULTI_SOURCE)])

    def run(workers):
        return PATA(
            checkers=[NullDereferenceChecker(), MemoryLeakChecker()],
            config=AnalysisConfig(workers=workers),
        ).analyze(program)

    sequential = run(1)
    with caplog.at_level(logging.WARNING):
        parallel = run(2)
    assert not caplog.records
    assert parallel.stats.workers_used == 2
    assert sequential.reports
    assert [r.render() for r in sequential.reports] == [r.render() for r in parallel.reports]
    assert _stats_fingerprint(sequential.stats) == _stats_fingerprint(parallel.stats)


def test_single_entry_program_stays_sequential():
    program = compile_program([("one.c", "int only(int a) { return a; }")])
    result = PATA(config=AnalysisConfig(workers=4)).analyze(program)
    assert result.stats.workers_used == 1
    assert len(result.stats.per_entry) == 1


# ---------------------------------------------------------------------------
# Merge helper unit coverage
# ---------------------------------------------------------------------------


def test_merge_counts_cross_shard_duplicates_as_repeats():
    source = """
struct s { int v; };
static int helper(struct s *p) { if (!p) { return p->v; } return 0; }
int e1(struct s *p) { return helper(p); }
int e2(struct s *p) { return helper(p); }
"""
    program = compile_program([("dup.c", source)])
    collector = InformationCollector(program)
    entries = collector.entry_functions()
    assert len(entries) == 2

    from repro.core.report import AnalysisStats

    # One fresh explorer per entry, the way two workers would each see
    # one batch: both sight the same helper bug.
    outcomes = {}
    for entry in entries:
        explorer = PathExplorer(program, AnalysisConfig(), default_checkers())
        (outcomes[entry.name],) = explore_entries(explorer, [entry])
    # explore_entries resets the dedup per entry, so one explorer walking
    # both entries yields the same per-entry outcomes.
    walked = explore_entries(
        PathExplorer(program, AnalysisConfig(), default_checkers()), entries
    )
    assert [[b.dedup_key for b in o.bugs] for o in walked] == [
        [b.dedup_key for b in outcomes[e.name].bugs] for e in entries
    ]
    stats = AnalysisStats()
    merged, _ = merge_outcomes(entries, outcomes, stats)

    # The merge keeps the first (entry-order) copy and books the other as
    # a repeat — exactly what one shared explorer walking both entries
    # does.
    shared = PathExplorer(program, AnalysisConfig(), default_checkers())
    for entry in entries:
        shared.explore(entry)
    assert [str(b) for b in merged] == [str(b) for b in shared.possible_bugs]
    assert stats.dropped_repeated_bugs == shared.repeated_bugs
    assert stats.dropped_repeated_bugs == 1


def test_deep_function_results_cross_the_pool(tmp_path, capsys, caplog):
    """A worker ships instructions as coordinates, never the IR around them:
    a function of 400 chained ``if`` blocks, whose pickled IR would nest
    past the pickler's recursion limit, still comes back through the
    pool, and the report equals the sequential one."""
    import json

    from repro.cli import main

    source = ("int f(int x) { int *p = malloc(8);\n"
              + "".join(f"if (x > {i}) {{ x = x + 1; }}\n" for i in range(400))
              + "return x; }\nint h(int *p) { if (!p) return *p; return 0; }\n")
    path = tmp_path / "deep.c"
    path.write_text(source)
    argv = ["check", "--all-checkers", str(path)]
    assert main(argv) == 1
    sequential = capsys.readouterr().out
    stats = tmp_path / "stats.json"
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        assert main(argv + ["--workers", "2", "--stats-json", str(stats)]) == 1
    assert not caplog.records
    assert json.loads(stats.read_text())["workers_used"] == 2
    assert capsys.readouterr().out == sequential
    assert "MEMORY LEAK" in sequential and "NULL-POINTER DEREFERENCE" in sequential


def test_decoded_outcomes_hold_the_parents_instructions():
    from repro.core.parallel import World

    source = ("struct s { int v; };\n"
              "int f(struct s *p) { if (!p) { return p->v; } return 0; }\n"
              "int g(int n) { int *q = malloc(8); if (n) return 1; free(q); return 0; }\n")
    program = compile_program([("bugs.c", source)])
    world = World(program, AnalysisConfig(), default_checkers())
    index = _instructions(program)
    _, chunk = _run_batch_in_process(world, ["f", "g"])
    bugs = [bug for _, outcome in chunk for bug in outcome.bugs]
    assert len(bugs) == 2
    for bug in bugs:
        steps = [item for step in bug.trace for item in step if hasattr(item, "uid")]
        assert steps
        for inst in [bug.source, bug.sink, *steps]:
            assert index[inst.uid] is inst


def test_heap_roots_cross_the_pool_as_coordinates():
    """A batch holding ``HEAP_RACE``'s accesses: each ``heap#`` root
    leaves the worker as its allocation's coordinate, and comes back as
    the parent's ``heap#<uid>`` string — the in-process run's accesses,
    on the parent's instructions."""
    from repro.cfg import CallGraph
    from repro.core.parallel import World
    from repro.incremental.coords import decode
    from repro.typestate import checkers_from_spec
    from tests.test_serve import HEAP_RACE

    program = compile_program([("race.c", HEAP_RACE)])
    collector = InformationCollector(program, CallGraph(program))
    world = World(program, AnalysisConfig(), checkers_from_spec("race", collector))
    names = ["dev_write", "dev_read"]
    data, chunk = _run_batch_in_process(world, names)
    sent = []
    decode(data, sent.append)  # the names as the worker wrote them
    written = {name for name in sent if isinstance(name, str)}
    assert written and all(name.startswith("heap#acquire@") for name in written)

    accesses = [access for _, outcome in chunk for access in outcome.accesses]
    roots = {access.key[0] for access in accesses if access.key[0].startswith("heap#")}
    assert roots and all(root[len("heap#"):].isdigit() for root in roots)
    in_process = explore_entries(world.explorer(), [program.lookup(n) for n in names])
    expected = [access for outcome in in_process for access in outcome.accesses]

    def shape(access):
        return access.key, access.is_write, access.inst.uid, access.entry, access.lockset

    assert [shape(a) for a in accesses] == [shape(a) for a in expected]
    index = _instructions(program)
    assert all(index[access.inst.uid] is access.inst for access in accesses)
