"""Checker-relevance pre-analysis (P1.5) tests.

Three layers of coverage:

* unit tests of the event scan / summary fixpoint / pruning decisions;
* checker metadata: every shipped checker declares its event kinds
  (the pre-analysis shuts itself off otherwise);
* differential suite: with identical configs, pruned and unpruned runs
  must produce byte-identical reports on every corpus — across checker
  sets, ``optimize_ir`` on/off, and worker counts.
"""

import dataclasses
import json

import pytest

from repro import PATA, AnalysisConfig
from repro.cfg import CallGraph
from repro.cli import main as cli_main
from repro.core import InformationCollector, PathExplorer
from repro.corpus import PROFILES_BY_NAME, generate
from repro.lang import compile_program
from repro.presolve import (
    EventKind,
    EventSummaryIndex,
    RelevancePreAnalysis,
    ScanContext,
)
from repro.typestate import default_checkers
from repro.typestate.checkers import PairedAPIChecker, all_checkers, checkers_from_spec


def _ctx(collector):
    return ScanContext(
        may_return_negative=collector.may_return_negative,
        may_return_zero=collector.may_return_zero,
    )


# ---------------------------------------------------------------------------
# Event scan + summary fixpoint
# ---------------------------------------------------------------------------

SCAN_SOURCE = """
struct s { int v; };
static int do_alloc(struct s *out) {
    struct s *p = malloc(8);
    if (!p) { return -1; }
    p->v = 1;
    return 0;
}
int entry_alloc(struct s *o) { return do_alloc(o); }
int entry_pure(int a, int b) {
    int c = a + b;
    return c * 2;
}
int entry_deref(struct s *p) {
    if (!p) { return p->v; }
    return 0;
}
"""


def _index_for(source):
    program = compile_program([("scan.c", source)])
    collector = InformationCollector(program)
    return EventSummaryIndex(program, scan_ctx=_ctx(collector)), program


def test_direct_scan_finds_instruction_events():
    index, _ = _index_for(SCAN_SOURCE)
    direct = index.direct_events("entry_deref")
    assert direct & EventKind.DEREF
    assert direct & EventKind.BRANCH_NULL
    assert not (direct & EventKind.ALLOC_HEAP)


def test_pure_arithmetic_has_no_checker_triggers():
    index, _ = _index_for(SCAN_SOURCE)
    direct = index.direct_events("entry_pure")
    for kind in (EventKind.DEREF, EventKind.ALLOC_HEAP, EventKind.FREE,
                 EventKind.ASSIGN_NULL, EventKind.DECL_LOCAL, EventKind.LOCK):
        assert not (direct & kind)


def test_region_events_close_over_callees():
    index, _ = _index_for(SCAN_SOURCE)
    # entry_alloc never allocates directly; its callee does.
    assert not (index.direct_events("entry_alloc") & EventKind.ALLOC_HEAP)
    assert index.region_events("entry_alloc") & EventKind.ALLOC_HEAP
    assert index.region_events("entry_alloc") & EventKind.DEREF  # p->v store path


def test_deep_call_chain_summaries_reach_fixpoint():
    chain = "\n".join(
        f"int f{i}(int *p) {{ return f{i + 1}(p); }}" for i in range(8)
    ) + "\nint f8(int *p) { return *p; }"
    index, _ = _index_for(chain)
    assert index.region_events("f0") & EventKind.DEREF
    assert not (index.direct_events("f0") & EventKind.DEREF)


INDIRECT_SOURCE = """
struct s { int v; };
static int handler(struct s *p) { struct s *q = malloc(8); return 0; }
struct ops { int (*h)(struct s *p); };
static struct ops o = { .h = handler };
int dispatch(struct ops *ops, struct s *p) {
    return ops->h(p);
}
"""


def test_indirect_pool_only_with_resolution_enabled():
    program = compile_program([("ind.c", INDIRECT_SOURCE)])
    collector = InformationCollector(program)
    off = EventSummaryIndex(program, scan_ctx=_ctx(collector))
    on = EventSummaryIndex(
        program, scan_ctx=_ctx(collector),
        callgraph=CallGraph(program, resolve_function_pointers=True),
    )
    assert off.indirect_pool == EventKind.NONE
    assert on.indirect_pool & EventKind.ALLOC_HEAP
    # With resolution, dispatch's region includes the registered target's.
    assert on.region_events("dispatch") & EventKind.ALLOC_HEAP


# ---------------------------------------------------------------------------
# Checker metadata (every shipped checker declares its kinds)
# ---------------------------------------------------------------------------


def _shipped_checkers():
    checkers = checkers_from_spec("default") + checkers_from_spec("all")
    checkers.append(PairedAPIChecker())
    return checkers


@pytest.mark.parametrize(
    "checker", _shipped_checkers(), ids=lambda c: type(c).__name__
)
def test_every_shipped_checker_declares_event_kinds(checker):
    assert checker.relevant_events != EventKind.NONE
    assert checker.trigger_events != EventKind.NONE
    assert checker.sink_events != EventKind.NONE
    # Declared triggers/sinks are part of the relevant set.
    assert checker.relevant_events & checker.trigger_events
    assert checker.relevant_events & checker.sink_events


def test_undeclared_checker_disables_both_layers():
    class OpaqueChecker:
        name = "opaque"
        trigger_events = EventKind.NONE
        sink_events = EventKind.NONE

    program = compile_program([("scan.c", SCAN_SOURCE)])
    collector = InformationCollector(program)
    relevance = RelevancePreAnalysis(
        program, default_checkers() + [OpaqueChecker()], _ctx(collector)
    )
    assert not relevance.supported
    entries = collector.entry_functions()
    kept, skipped = relevance.partition_entries(entries)
    assert [f.name for f in kept] == [f.name for f in entries]
    assert skipped == []
    assert relevance.dead_blocks(entries[0]) == frozenset()


# ---------------------------------------------------------------------------
# Entry pruning
# ---------------------------------------------------------------------------


def test_irrelevant_entries_skipped_and_rows_preserved():
    program = compile_program([("scan.c", SCAN_SOURCE)])
    on = PATA(config=AnalysisConfig(prune=True)).analyze(program)
    off = PATA(config=AnalysisConfig(prune=False)).analyze(program)
    assert [r.render() for r in on.reports] == [r.render() for r in off.reports]
    assert on.stats.entries_skipped >= 1
    rows = {e.name: e for e in on.stats.per_entry}
    assert rows["entry_pure"].skipped
    assert rows["entry_pure"].paths == 0
    assert not rows["entry_deref"].skipped
    # per_entry order matches the unpruned run's entry order.
    assert [e.name for e in on.stats.per_entry] == [e.name for e in off.stats.per_entry]


def test_entry_relevance_requires_trigger_and_sink():
    # A deref with no possible null source arms nothing: DEREF (NPD sink)
    # without ASSIGN_NULL/BRANCH_NULL (NPD triggers) is irrelevant.
    source = """
struct s { int v; };
int reads_field(struct s *p) { return p->v; }
"""
    program = compile_program([("onlysink.c", source)])
    collector = InformationCollector(program)
    relevance = RelevancePreAnalysis(program, default_checkers(), _ctx(collector))
    entry = collector.entry_functions()[0]
    assert not relevance.is_entry_relevant(entry)


def test_pointer_access_arms_race_at_every_alias_tier():
    # Every Load, Store and MemSet sets SHARED_ACCESS whatever its
    # pointer may reach: the scan reads no points-to answer, so a write
    # through a pointer to a local arms the race checker, and every
    # rung explores the entry.
    program = compile_program(
        [("local.c", "void f(void) { int a; int *p = &a; *p = 1; }")]
    )
    for tier in ("off", "steens", "flow"):
        result = PATA(
            checker_spec="race", config=AnalysisConfig(alias_tier=tier)
        ).analyze(program)
        assert result.stats.entries_skipped == 0, tier
        assert result.stats.explored_paths == 1, tier
        assert [(e.name, e.skipped) for e in result.stats.per_entry] == [("f", False)]


# ---------------------------------------------------------------------------
# Block pruning
# ---------------------------------------------------------------------------

BRANCHY_SOURCE = """
struct s { int v; };
int branchy(struct s *p, int mode) {
    if (!p) { return -1; }
    if (mode == 1) {
        int acc = 0;
        acc = acc + mode;
        acc = acc * 2;
        return acc;
    }
    if (mode == 2) {
        int acc2 = 0;
        acc2 = acc2 + 7;
        return acc2;
    }
    return p->v;
}
"""


def test_dead_blocks_prune_paths_without_losing_reports():
    program = compile_program([("branchy.c", BRANCHY_SOURCE)])
    collector = InformationCollector(program)
    relevance = RelevancePreAnalysis(program, default_checkers(), _ctx(collector))
    entry = collector.entry_functions()[0]
    assert relevance.is_entry_relevant(entry)

    on = PATA(config=AnalysisConfig(prune=True)).analyze(program)
    off = PATA(config=AnalysisConfig(prune=False)).analyze(program)
    assert [r.render() for r in on.reports] == [r.render() for r in off.reports]
    assert on.stats.paths_pruned > 0 or on.stats.blocks_pruned > 0


def test_ml_armed_entries_keep_all_ret_reaching_blocks():
    # The leak sweep's sink is the Ret terminator, so an ML-armed entry
    # must not prune any block that reaches a return.
    source = """
int leaky(int a) {
    int *p = malloc(8);
    if (a) { return 1; }
    return 0;
}
"""
    program = compile_program([("leak.c", source)])
    collector = InformationCollector(program)
    relevance = RelevancePreAnalysis(program, default_checkers(), _ctx(collector))
    entry = collector.entry_functions()[0]
    assert relevance.dead_blocks(entry) == frozenset()
    on = PATA(config=AnalysisConfig(prune=True)).analyze(program)
    off = PATA(config=AnalysisConfig(prune=False)).analyze(program)
    assert [r.render() for r in on.reports] == [r.render() for r in off.reports]
    assert len(on.reports) >= 1  # the leak is still found


# ---------------------------------------------------------------------------
# Differential suite: pruned vs unpruned reports byte-identical
# ---------------------------------------------------------------------------


def _fingerprint(result):
    """Reports rendered byte-for-byte (the preservation contract)."""
    return [r.render() for r in result.reports]


def _stats_fingerprint(stats):
    """Stats minus timings and the pruning counters themselves (those
    legitimately differ between pruned and unpruned runs)."""
    data = dataclasses.asdict(stats)
    for key in list(data):
        if key.endswith("_seconds"):
            data[key] = 0
    for key in ("workers_used", "batches_dispatched", "entries_skipped",
                "blocks_pruned", "paths_pruned", "explored_paths",
                "executed_steps", "typestates_aware", "typestates_unaware"):
        data[key] = 0
    data["per_entry"] = None
    return data


@pytest.mark.parametrize(
    "os_name,scale", [("zephyr", 0.4), ("riot", 0.4), ("linux", 0.2)]
)
@pytest.mark.parametrize("optimize_ir", [False, True])
def test_differential_prune_vs_no_prune_on_corpus(os_name, scale, optimize_ir):
    corpus = generate(PROFILES_BY_NAME[os_name].scaled(scale))
    program_sources = corpus.compiled_sources()
    on = PATA(config=AnalysisConfig(prune=True, optimize_ir=optimize_ir))
    off = PATA(config=AnalysisConfig(prune=False, optimize_ir=optimize_ir))
    r_on = on.analyze(compile_program(program_sources))
    r_off = off.analyze(compile_program(program_sources))
    assert _fingerprint(r_on) == _fingerprint(r_off)
    assert _stats_fingerprint(r_on.stats) == _stats_fingerprint(r_off.stats)
    # The point of the phase: strictly less exploration.
    assert r_on.stats.explored_paths < r_off.stats.explored_paths
    assert r_on.stats.entries_skipped > 0


@pytest.mark.slow
@pytest.mark.parametrize("os_name,scale", [("linux", 0.3), ("tencentos", 0.3)])
def test_differential_all_checkers_on_corpus(os_name, scale):
    corpus = generate(PROFILES_BY_NAME[os_name].scaled(scale))
    program_sources = corpus.compiled_sources()
    r_on = PATA.with_all_checkers(
        config=AnalysisConfig(prune=True)
    ).analyze(compile_program(program_sources))
    r_off = PATA.with_all_checkers(
        config=AnalysisConfig(prune=False)
    ).analyze(compile_program(program_sources))
    assert _fingerprint(r_on) == _fingerprint(r_off)
    assert _stats_fingerprint(r_on.stats) == _stats_fingerprint(r_off.stats)
    assert r_on.stats.explored_paths <= r_off.stats.explored_paths


@pytest.mark.slow
def test_prune_composes_with_worker_sharding():
    """Entry pruning happens before sharding and workers rebuild their
    own pre-analysis; both must agree with the sequential pruned run."""
    corpus = generate(PROFILES_BY_NAME["zephyr"].scaled(0.6))
    program_sources = corpus.compiled_sources()
    seq = PATA(config=AnalysisConfig(prune=True, workers=1)).analyze(
        compile_program(program_sources)
    )
    par = PATA(config=AnalysisConfig(prune=True, workers=4)).analyze(
        compile_program(program_sources)
    )
    unpruned = PATA(config=AnalysisConfig(prune=False, workers=1)).analyze(
        compile_program(program_sources)
    )
    assert par.stats.workers_used > 1
    assert _fingerprint(seq) == _fingerprint(par) == _fingerprint(unpruned)
    # Worker-side pruning counters must match the sequential run exactly.
    seq_rows = [(e.name, e.paths, e.paths_pruned, e.blocks_pruned, e.skipped)
                for e in seq.stats.per_entry]
    par_rows = [(e.name, e.paths, e.paths_pruned, e.blocks_pruned, e.skipped)
                for e in par.stats.per_entry]
    assert seq_rows == par_rows


def test_differential_with_function_pointer_resolution():
    program_sources = [("ind.c", INDIRECT_SOURCE), ("scan.c", SCAN_SOURCE)]
    cfg_on = AnalysisConfig(prune=True, resolve_function_pointers=True)
    cfg_off = AnalysisConfig(prune=False, resolve_function_pointers=True)
    r_on = PATA(config=cfg_on).analyze(compile_program(program_sources))
    r_off = PATA(config=cfg_off).analyze(compile_program(program_sources))
    assert _fingerprint(r_on) == _fingerprint(r_off)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_reports_prune_stats_and_escape_hatch(tmp_path, capsys):
    target = tmp_path / "scan.c"
    target.write_text(SCAN_SOURCE)

    cli_main(["check", str(target), "--json", "--stats"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["entries_skipped"] >= 1
    skipped_rows = [e for e in payload["stats"]["per_entry"] if e["skipped"]]
    assert any(e["entry"] == "entry_pure" for e in skipped_rows)

    cli_main(["check", str(target), "--json", "--stats", "--no-prune"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["stats"]["entries_skipped"] == 0
    assert all(not e["skipped"] for e in payload["stats"]["per_entry"])


def test_cli_stats_table_marks_skipped_entries(tmp_path, capsys):
    target = tmp_path / "scan.c"
    target.write_text(SCAN_SOURCE)
    cli_main(["check", str(target), "--stats"])
    out = capsys.readouterr().out
    assert "pruned" in out
    assert "skipped" in out
