"""The lockset race detector: key canonicalization, P2.5 matching,
stage-2 pair validation, and the racelab acceptance criteria."""

import random

import pytest

from repro import PATA, AnalysisConfig
from repro.alias import AliasGraph, Trail
from repro.baselines import EraserLike
from repro.corpus import RACELAB, generate
from repro.ir import INT, Move, PointerType, Var
from repro.lang import compile_program
from repro.races import SharedAccess, match_races, object_root, render_key
from repro.typestate import BugKind

P = PointerType(INT)


def _var(name, is_global=False, is_aggregate=False):
    return Var(name, P, source_name=name.lstrip("@"),
               is_global=is_global, is_aggregate=is_aggregate)


def _no_heap(uid):
    return None


# -- shared-key canonicalization -------------------------------------------


class TestObjectRoot:
    def test_global_alias_in_node(self):
        graph = AliasGraph(Trail())
        g = _var("@g", is_global=True)
        p = _var("p")
        graph.handle_move(p, g)
        assert object_root(graph.node_of(p), _no_heap) == "*@g"

    def test_scalar_global_behind_addr_of(self):
        graph = AliasGraph(Trail())
        g = _var("@g", is_global=True)
        t = _var("t")
        graph.handle_addr_of(t, g)
        assert object_root(graph.node_of(t), _no_heap) == "@g"

    def test_vars_rule_wins_over_deref_target(self):
        """After ``*g_ptr = q`` the ``*`` edge points at q's node; the
        stable name is still rule 1's ``*@g_ptr``."""
        graph = AliasGraph(Trail())
        gp = _var("@g_ptr", is_global=True)
        q = _var("q")
        graph.handle_store(gp, q)
        assert object_root(graph.node_of(gp), _no_heap) == "*@g_ptr"

    def test_heap_registration(self):
        graph = AliasGraph(Trail())
        p = _var("p")
        node = graph.handle_fresh_object(p)
        keyed = {node.uid: "heap#7"}
        assert object_root(node, lambda uid: keyed.get(uid)) == "heap#7"

    def test_field_walk_from_global_aggregate(self):
        graph = AliasGraph(Trail())
        st = _var("@st", is_global=True, is_aggregate=True)
        s = _var("s")
        f = _var("f")
        graph.handle_move(s, st)
        graph.handle_gep(f, s, "count")
        assert object_root(graph.node_of(f), _no_heap) == "*@st.count"

    def test_unshared_local_is_none(self):
        graph = AliasGraph(Trail())
        a = _var("a")
        b = _var("b")
        graph.handle_move(a, b)
        assert object_root(graph.node_of(a), _no_heap) is None


# -- P2.5 matching ----------------------------------------------------------


def _access(key, is_write, entry, lockset=frozenset()):
    inst = Move(_var("d"), _var("s"))
    return SharedAccess(key=key, is_write=is_write, inst=inst,
                        entry=entry, lockset=frozenset(lockset))


KEY = ("@g", "=")
LK_A = ("@lk_a", "=")
LK_B = ("@lk_b", "=")


class TestMatchRaces:
    def test_cross_entry_write_read_disjoint_races(self):
        w = _access(KEY, True, "writer")
        r = _access(KEY, False, "reader")
        bugs = match_races([w, r])
        assert len(bugs) == 1
        bug = bugs[0]
        assert bug.kind is BugKind.RACE
        assert bug.subject == render_key(KEY) == "@g"
        # Orientation: lower instruction uid is the source.
        assert bug.source is w.inst and bug.sink is r.inst
        assert bug.entry_function == "writer vs reader"

    def test_same_entry_skipped_unless_reentrant(self):
        w = _access(KEY, True, "e")
        r = _access(KEY, False, "e")
        assert match_races([w, r]) == []
        assert len(match_races([w, r], include_reentrant=True)) == 1

    def test_read_read_never_races(self):
        assert match_races([_access(KEY, False, "a"),
                            _access(KEY, False, "b")]) == []

    def test_common_lock_suppresses(self):
        w = _access(KEY, True, "a", {LK_A, LK_B})
        r = _access(KEY, False, "b", {LK_A})
        assert match_races([w, r]) == []

    def test_different_locks_race(self):
        w = _access(KEY, True, "a", {LK_A})
        r = _access(KEY, False, "b", {LK_B})
        bugs = match_races([w, r])
        assert len(bugs) == 1
        assert "share no lock" in bugs[0].message

    def test_different_keys_never_pair(self):
        assert match_races([_access(("@g1", "="), True, "a"),
                            _access(("@g2", "="), False, "b")]) == []

    def test_instruction_pair_dedup(self):
        w = _access(KEY, True, "a")
        r = _access(KEY, False, "b")
        again = SharedAccess(key=KEY, is_write=False, inst=r.inst,
                             entry="b", lockset=frozenset({LK_A}))
        assert len(match_races([w, r, again])) == 1

    def test_order_independence(self):
        accesses = [_access(KEY, i % 3 == 0, f"e{i % 4}") for i in range(12)]
        baseline = [b.message for b in match_races(accesses)]
        for seed in (1, 2, 3):
            shuffled = list(accesses)
            random.Random(seed).shuffle(shuffled)
            assert [b.message for b in match_races(shuffled)] == baseline
        assert baseline  # non-vacuous


# -- end-to-end: detection, suppression, stage-2 discharge ------------------


_RACE_SOURCE = """
struct rc { int lock; int count; };
static struct rc g_rc;
static int g_counter;

int reader(void) {
    struct rc *s = &g_rc;
    spin_lock(&s->lock);
    int seen = s->count;
    spin_unlock(&s->lock);
    return seen + g_counter;
}

void writer(void) {
    struct rc *s = &g_rc;
    spin_lock(&s->lock);
    s->count = s->count + 1;
    spin_unlock(&s->lock);
    g_counter = g_counter + 1;
}
"""

_GUARDED_SOURCE = """
static int g_mode;
static int g_stash;

void save(int v) {
    if (g_mode != 0)
        g_stash = v;
}

int load(void) {
    if (g_mode == 0)
        return g_stash;
    return 0;
}
"""


def _analyze(source, **config):
    program = compile_program([("x.c", source)])
    return PATA(checker_spec="race", config=AnalysisConfig(**config)).analyze(program)


class TestEndToEnd:
    def test_unlocked_global_races_locked_field_does_not(self):
        result = _analyze(_RACE_SOURCE)
        subjects = {r.subject for r in result.reports}
        # Only the unlocked scalar races; s->count is guarded by one
        # canonical lock identity on both entries and stays silent.
        assert subjects == {"@g_counter"}

    def test_race_checker_is_opt_in(self):
        program = compile_program([("x.c", _RACE_SOURCE)])
        result = PATA(checker_spec="all").analyze(program)
        assert not [r for r in result.reports if r.kind is BugKind.RACE]

    def test_guard_contradiction_discharged_by_stage2(self):
        """The pair exists (a lockset-only view reports it) but the two
        guards contradict: stage 2 conjoins both paths and drops it."""
        unvalidated = _analyze(_GUARDED_SOURCE, validate_paths=False)
        assert [r for r in unvalidated.reports if r.kind is BugKind.RACE]
        validated = _analyze(_GUARDED_SOURCE)
        assert not [r for r in validated.reports if r.kind is BugKind.RACE]
        assert validated.stats.dropped_false_bugs > 0
        assert validated.stats.race_pairs_matched > 0

    def test_eraser_baseline_reports_the_guarded_pair(self):
        """The precision edge in one sentence: EraserLike reports the
        flag-serialized pair, PATA's stage 2 discharges it."""
        program = compile_program([("x.c", _GUARDED_SOURCE)])
        eraser = EraserLike().analyze(program)
        assert any("g_stash" in f.message for f in eraser.findings)
        assert not _analyze(_GUARDED_SOURCE).reports


# -- racelab acceptance -----------------------------------------------------


class TestRacelab:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate(RACELAB)

    @pytest.fixture(scope="class")
    def program(self, corpus):
        return compile_program(corpus.compiled_sources())

    @pytest.fixture(scope="class")
    def result(self, program):
        return PATA(checker_spec="race").analyze(program)

    def test_every_injected_race_found(self, corpus, result):
        hits = [(r.kind, r.sink_file, r.sink_line) for r in result.reports]
        found = {gt.uid for gt in corpus.ground_truth
                 if any(gt.covers(*h) for h in hits)}
        assert found == {gt.uid for gt in corpus.ground_truth}

    def test_zero_bait_reports(self, corpus, result):
        bait = [(r.sink_file, r.sink_line) for r in result.reports
                if any(b.path == r.sink_file
                       and b.line_start <= r.sink_line <= b.line_end
                       for b in corpus.bait_regions)]
        assert bait == []

    def test_no_findings_outside_ground_truth(self, corpus, result):
        stray = [r for r in result.reports
                 if not any(gt.covers(r.kind, r.sink_file, r.sink_line)
                            for gt in corpus.ground_truth)]
        assert stray == []

    def test_eraser_reports_what_stage2_discharges(self, corpus, program, result):
        eraser = EraserLike().analyze(program)
        eraser_bait = [f for f in eraser.findings
                       if any(b.path == f.file
                              and b.line_start <= f.line <= b.line_end
                              for b in corpus.bait_regions)]
        assert eraser_bait  # the lockset-only regime reports guarded pairs
        assert result.stats.dropped_false_bugs >= len(
            {(f.file, f.line) for f in eraser_bait}) > 0

    def test_pruned_vs_unpruned_reports_identical(self, program, result):
        unpruned = PATA(
            checker_spec="race", config=AnalysisConfig(prune=False)
        ).analyze(program)
        assert [r.render() for r in unpruned.reports] == [
            r.render() for r in result.reports
        ]


# -- double-lock source-site regression (satellite) -------------------------


_TRIPLE_LOCK = """
struct st { int lock; int n; };
static struct st g_st;

int f(void) {
    struct st *s = &g_st;
    spin_lock(&s->lock);
    spin_lock(&s->lock);
    spin_lock(&s->lock);
    spin_unlock(&s->lock);
    return 0;
}
"""


def test_triple_acquire_reports_cite_the_first_acquire():
    """Both double-lock reports must cite acquire #1 as the source; the
    old merge carried the *re*-acquiring instruction forward, so report
    #2 wrongly cited acquire #2."""
    program = compile_program([("x.c", _TRIPLE_LOCK)])
    result = PATA(checker_spec="dl").analyze(program)
    dl = [r for r in result.reports if r.kind is BugKind.DOUBLE_LOCK]
    assert len(dl) == 2
    first_acquire_line = _TRIPLE_LOCK.split("\n").index("    spin_lock(&s->lock);") + 1
    assert [r.source_line for r in dl] == [first_acquire_line, first_acquire_line]
    assert dl[0].sink_line == first_acquire_line + 1
    assert dl[1].sink_line == first_acquire_line + 2
