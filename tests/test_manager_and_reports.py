"""StateStore / TrackerContext / report plumbing tests."""

import pytest

from repro.alias import AliasGraph, Trail
from repro.core import AnalysisConfig
from repro.core.report import AnalysisResult, AnalysisStats, BugReport
from repro.ir import INT, Instruction, Move, PointerType, SourceLoc, Var, const_int
from repro.typestate import (
    BugKind,
    PossibleBug,
    StateStore,
    TrackerContext,
    TypestateManager,
    default_checkers,
)

P = PointerType(INT)


def make_context(alias_aware=True):
    trail = Trail()
    graph = AliasGraph(trail) if alias_aware else None
    store = StateStore(trail)
    reports = []
    ctx = TrackerContext(
        graph=graph,
        store=store,
        alias_aware=alias_aware,
        report_fn=reports.append,
        base_of_fn=lambda name: None,
    )
    return ctx, trail, reports


def var(name):
    return Var(name, P, source_name=name)


def test_store_get_set_roundtrip():
    ctx, trail, _ = make_context()
    a = var("a")
    ctx.set("chk", a, ("S1", None))
    assert ctx.get("chk", a) == ("S1", None)
    assert ctx.get("other", a) is None


def test_store_undo_restores_previous_value():
    ctx, trail, _ = make_context()
    a = var("a")
    ctx.set("chk", a, "first")
    mark = trail.mark()
    ctx.set("chk", a, "second")
    assert ctx.get("chk", a) == "second"
    trail.undo_to(mark)
    assert ctx.get("chk", a) == "first"


def test_aware_keys_shared_across_aliases():
    ctx, trail, _ = make_context()
    a, b = var("a"), var("b")
    ctx.graph.handle_move(b, a)
    ctx.set("chk", a, "state")
    assert ctx.get("chk", b) == "state"
    assert ctx.fanout(a) == 2


def test_na_keys_are_per_name():
    ctx, trail, _ = make_context(alias_aware=False)
    a, b = var("a"), var("b")
    ctx.set("chk", a, "state")
    assert ctx.get("chk", b) is None
    assert ctx.fanout(a) == 1
    assert ctx.alias_names(a) == ("a",)


def test_na_sync_on_move_copies_states():
    ctx, trail, _ = make_context(alias_aware=False)
    manager = TypestateManager(default_checkers())
    a, b = var("a"), var("b")
    ctx.set("npd", a, ("SN", None))
    manager.sync_on_move(ctx, b, a)
    assert ctx.get("npd", b) == ("SN", None)


def test_store_counters_track_fanout():
    ctx, trail, _ = make_context()
    a, b = var("a"), var("b")
    ctx.graph.handle_move(b, a)
    before_aware = ctx.store.aware_updates
    before_unaware = ctx.store.unaware_updates
    ctx.set("chk", a, "x")
    assert ctx.store.aware_updates == before_aware + 1
    assert ctx.store.unaware_updates == before_unaware + 2  # alias set size


def test_items_for_filters_by_checker():
    ctx, trail, _ = make_context()
    a = var("a")
    ctx.set("one", a, "v1")
    ctx.set("two", a, "v2")
    items = ctx.store.items_for("one")
    assert [value for _, value in items] == ["v1"]


def test_report_stamps_entry_function():
    ctx, trail, reports = make_context()
    ctx.entry_function = "probe"
    inst = Move(var("a"), const_int(1))
    ctx.report(PossibleBug(BugKind.NPD, "npd", "a", inst, inst, "boom"))
    assert reports[0].entry_function == "probe"


def test_possible_bug_dedup_key():
    inst1 = Move(var("a"), const_int(1))
    inst2 = Move(var("a"), const_int(2))
    bug1 = PossibleBug(BugKind.NPD, "npd", "a", inst1, inst2, "m")
    bug2 = PossibleBug(BugKind.NPD, "npd", "a", inst1, inst2, "other message")
    assert bug1.dedup_key == bug2.dedup_key
    bug3 = PossibleBug(BugKind.NPD, "npd", "a", inst2, inst1, "m")
    assert bug1.dedup_key != bug3.dedup_key


def test_bug_report_from_possible():
    src = Move(var("a"), const_int(1), SourceLoc("drv.c", 10))
    sink = Move(var("a"), const_int(2), SourceLoc("drv.c", 20))
    bug = PossibleBug(BugKind.ML, "ml", "a", src, sink, "leaks", entry_function="top")
    report = BugReport.from_possible(bug)
    assert report.location == "drv.c:20"
    assert report.source_line == 10
    rendered = report.render()
    assert "MEMORY LEAK" in rendered and "drv.c:20" in rendered


def test_analysis_result_summary_and_kind_counts():
    src = Move(var("a"), const_int(1), SourceLoc("drv.c", 1))
    reports = [
        BugReport.from_possible(PossibleBug(BugKind.NPD, "npd", "a", src, src, "x")),
        BugReport.from_possible(PossibleBug(BugKind.NPD, "npd", "b", src, src, "y")),
        BugReport.from_possible(PossibleBug(BugKind.ML, "ml", "c", src, src, "z")),
    ]
    result = AnalysisResult(reports=reports, stats=AnalysisStats())
    assert result.kind_counts()[BugKind.NPD] == 2
    assert len(result.by_kind(BugKind.ML)) == 1
    summary = result.summary()
    assert "3 bugs" in summary and "NPD=2" in summary


def test_grouped_by_source_collects_shared_root_causes():
    src1 = Move(var("a"), const_int(1), SourceLoc("drv.c", 5))
    sink1 = Move(var("a"), const_int(2), SourceLoc("drv.c", 10))
    sink2 = Move(var("a"), const_int(3), SourceLoc("drv.c", 20))
    other = Move(var("b"), const_int(4), SourceLoc("drv.c", 30))
    reports = [
        BugReport.from_possible(PossibleBug(BugKind.NPD, "npd", "a", src1, sink1, "x")),
        BugReport.from_possible(PossibleBug(BugKind.NPD, "npd", "a", src1, sink2, "y")),
        BugReport.from_possible(PossibleBug(BugKind.NPD, "npd", "b", other, other, "z")),
    ]
    result = AnalysisResult(reports=reports, stats=AnalysisStats())
    groups = result.grouped_by_source()
    assert len(groups) == 2
    assert len(groups[("drv.c", 5, "npd")]) == 2


def test_config_na_clone_keeps_other_fields():
    config = AnalysisConfig(max_paths_per_entry=7, validate_paths=False)
    clone = config.for_pata_na()
    assert clone.alias_aware is False
    assert clone.max_paths_per_entry == 7
    assert clone.validate_paths is False
    assert config.alias_aware is True  # original untouched
