"""End-to-end engine tests on the paper's motivating examples and on the
engine's budget/merging machinery."""

import pytest

from repro import PATA, AnalysisConfig
from repro.core import PathExplorer
from repro.lang import compile_program
from repro.typestate import BugKind, default_checkers


def analyze(source, config=None, all_checkers=False):
    pata = PATA.with_all_checkers(config=config) if all_checkers else PATA(config=config)
    return pata.analyze_sources([("t.c", source)])


FIG1 = """
struct platform_device { int irq; };
struct mfc_dev { struct platform_device *plat_dev; int num; };
static struct mfc_dev the_dev;

static int s5p_mfc_probe(struct platform_device *pdev) {
    struct mfc_dev *dev = &the_dev;
    dev->plat_dev = pdev;
    if (!dev->plat_dev) {
        int err = pdev->irq;
        return -19;
    }
    return 0;
}
struct platform_driver { int (*probe)(struct platform_device *p); };
static struct platform_driver s5p_mfc_driver = { .probe = s5p_mfc_probe };
"""

FIG3 = """
struct bt_mesh_cfg_srv { int frnd; int relay; };
struct bt_mesh_model { struct bt_mesh_cfg_srv *user_data; int id; };

static void send_friend_status(struct bt_mesh_model *model) {
    struct bt_mesh_cfg_srv *cfg = model->user_data;
    int x = cfg->frnd;
}

static void friend_set(struct bt_mesh_model *model) {
    struct bt_mesh_cfg_srv *cfg = model->user_data;
    if (!cfg) {
        goto send_status;
    }
    cfg->relay = 1;
send_status:
    send_friend_status(model);
}
struct model_ops { void (*set)(struct bt_mesh_model *m); };
static struct model_ops friend_ops = { .set = friend_set };
"""

FIG9 = """
struct fb { int f; };
int sync_fb(struct fb *p, struct fb *q) {
    if (q == NULL)
        p->f = 0;
    struct fb *t = p;
    if (t->f != 0) {
        int v = q->f;
        return v;
    }
    return 0;
}
struct fb_ops { int (*sync)(struct fb *p, struct fb *q); };
static struct fb_ops fops = { .sync = sync_fb };
"""


def test_fig1_interface_alias_npd_found():
    result = analyze(FIG1)
    npd = result.by_kind(BugKind.NPD)
    assert len(npd) == 1
    assert npd[0].entry_function == "s5p_mfc_probe"


def test_fig3_cross_function_field_alias_npd_found():
    result = analyze(FIG3)
    npd = result.by_kind(BugKind.NPD)
    assert len(npd) == 1
    assert "cfg" in npd[0].message


def test_fig3_report_carries_alias_set():
    result = analyze(FIG3)
    (npd,) = result.by_kind(BugKind.NPD)
    assert any("friend_set.cfg" in name for name in npd.alias_set)
    assert any("send_friend_status.cfg" in name for name in npd.alias_set)


def test_fig9_false_bug_filtered_by_validation():
    result = analyze(FIG9)
    assert result.by_kind(BugKind.NPD) == []
    assert result.stats.dropped_false_bugs >= 1


def test_fig9_reported_without_validation():
    config = AnalysisConfig(validate_paths=False)
    result = analyze(FIG9, config=config)
    assert len(result.by_kind(BugKind.NPD)) == 1


def test_fig9_survives_na_validation():
    """PATA-NA cannot see the alias-implied contradiction (Fig. 9(b))."""
    config = AnalysisConfig().for_pata_na()
    result = analyze(FIG9, config=config)
    assert len(result.by_kind(BugKind.NPD)) == 1


def test_repeated_bugs_deduplicated():
    source = """
struct s { int v; };
static void use(struct s *p) { int x = p->v; }
void f(struct s *p, int a) {
    if (!p) {
        if (a) use(p); else use(p);
    }
}
struct ops { void (*f)(struct s *p, int a); };
static struct ops o = { .f = f };
"""
    result = analyze(source)
    assert len(result.by_kind(BugKind.NPD)) == 1
    assert result.stats.dropped_repeated_bugs >= 1


def test_path_budget_respected():
    # 20 independent branches would be ~1M paths; the budget caps it.
    branches = " ".join(f"if (a == {i}) a = a + 1;" for i in range(20))
    source = f"int f(int a) {{ {branches} return a; }}"
    # prune=False: a checker-irrelevant arithmetic entry would otherwise
    # be skipped by P1.5 before the budget mechanics ever run.
    config = AnalysisConfig(max_paths_per_entry=50, max_steps_per_entry=100000,
                            prune=False)
    result = analyze(source, config=config)
    assert result.stats.explored_paths <= 50
    assert result.stats.budget_exhausted_entries == 1


def test_step_budget_respected():
    source = "int f(int a) { " + " ".join("a = a + 1;" for _ in range(50)) + " return a; }"
    config = AnalysisConfig(max_steps_per_entry=10, prune=False)
    result = analyze(source, config=config)
    assert result.stats.budget_exhausted_entries == 1


def test_callee_exit_merging_reduces_paths():
    # The callee has 2^4 paths but only two distinct externally visible
    # outcomes (returns 0 or 1); the caller continues at most a few times.
    # prune=False: P1.5 would skip this event-free entry outright.
    source = """
static int noisy(int a) {
    int r = 0;
    if (a == 1) r = 1;
    if (a == 2) r = 1;
    if (a == 3) r = 1;
    if (a == 4) r = 1;
    return r;
}
int top(int a) {
    int x = noisy(a);
    int y = noisy(a);
    return x + y;
}
"""
    merged = analyze(source, config=AnalysisConfig(max_callee_exits_per_call=4,
                                                   prune=False))
    unmerged = analyze(source, config=AnalysisConfig(max_callee_exits_per_call=4,
                                                     prune=False,
                                                     merge_callee_exits=False))
    assert 1 <= merged.stats.explored_paths <= 40
    assert unmerged.stats.explored_paths > 50 * merged.stats.explored_paths


def test_recursion_unrolled_once():
    # A self-recursive function has a caller (itself), so it is not an
    # automatic entry (AnalyzeCode only starts at caller-less functions);
    # pass it explicitly and assert termination.
    program = compile_program([("r.c", """
int fact(int n) {
    if (n < 2)
        return 1;
    return n * fact(n - 1);
}
""")])
    result = PATA(config=AnalysisConfig(max_paths_per_entry=100, prune=False)).analyze(
        program, entries=[program.lookup("fact")]
    )
    assert result.stats.explored_paths >= 1


def test_mutual_recursion_terminates():
    program = compile_program([("m.c", """
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
""")])
    result = PATA(config=AnalysisConfig(max_paths_per_entry=200, prune=False)).analyze(
        program, entries=[program.lookup("even")]
    )
    assert result.stats.explored_paths >= 1


def test_loop_unrolled_once_terminates():
    source = """
int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++)
        s = s + i;
    return s;
}
"""
    result = analyze(source, config=AnalysisConfig(prune=False))
    assert 1 <= result.stats.explored_paths <= 4


def test_entries_are_interface_and_callerless():
    program = compile_program([
        ("a.c",
         "static int helper(int x) { return x; }\n"
         "int top(int x) { return helper(x); }\n"),
    ])
    result = PATA().analyze(program)
    assert result.stats.entry_functions == 1  # only `top`


def test_explicit_entries_override():
    program = compile_program([("a.c", "static int lonely(int *p) { if (!p) return *p; return 0; }\nint top(void) { return 0; }")])
    explicit = [program.lookup("lonely")]
    result = PATA().analyze(program, entries=explicit)
    assert result.stats.entry_functions == 1
    assert len(result.by_kind(BugKind.NPD)) == 1


def test_na_mode_misses_memory_alias_bug():
    """Fig. 3 needs aliasing through memory: PATA-NA must miss it."""
    aware = analyze(FIG3)
    na = analyze(FIG3, config=AnalysisConfig().for_pata_na())
    assert len(aware.by_kind(BugKind.NPD)) == 1
    assert len(na.by_kind(BugKind.NPD)) == 0


def test_typestate_counters_monotone():
    result = analyze(FIG3)
    stats = result.stats
    assert 0 < stats.typestates_aware <= stats.typestates_unaware


def test_smt_counters_present_when_validating():
    result = analyze(FIG1)
    assert result.stats.smt_constraints_aware >= 0
    assert result.stats.smt_constraints_unaware >= result.stats.smt_constraints_aware


def test_indirect_calls_not_followed():
    source = """
struct ops { void (*run)(int *p); };
static void target(int *p) { int x = *p; }
void top(struct ops *o, int *p) {
    if (!p)
        o->run(p);
}
struct reg { void (*t)(struct ops *o, int *p); };
static struct reg r = { .t = top };
"""
    result = analyze(source)
    # The NULL p flows into target only through the function pointer,
    # which PATA does not follow (§7): no NPD.
    assert result.by_kind(BugKind.NPD) == []


def test_explorer_reusable_across_entries():
    program = compile_program([
        ("a.c",
         "int f(int *p) { if (!p) return *p; return 0; }\n"
         "int g(int *q) { if (!q) return *q; return 0; }"),
    ])
    explorer = PathExplorer(program, AnalysisConfig(), default_checkers())
    for name in ("f", "g"):
        explorer.explore(program.lookup(name))
    kinds = {b.kind for b in explorer.possible_bugs}
    assert kinds == {BugKind.NPD}
    assert len(explorer.possible_bugs) == 2


#: field -> (a value that cannot run, the least value that can).  Each
#: bad value used to be accepted: a run then explored nothing (no block
#: visit, no step), explored past its bound (no path), dropped every call
#: continuation, or silently turned the cache off (``"RW"``).
CONFIG_BOUNDS = {
    "max_paths_per_entry": (0, 1),
    "max_steps_per_entry": (0, 1),
    "max_call_depth": (0, 1),
    "max_block_visits": (0, 1),
    "max_callee_exits_per_call": (0, 1),
    "max_recursion_occurrences": (-1, 0),
    "max_indirect_targets": (0, 1),
    "solver_max_search_nodes": (0, 1),
    "workers": (-3, 0),
    "cache_mode": ("RW", "rw"),
}


@pytest.mark.parametrize("field", sorted(CONFIG_BOUNDS))
def test_config_rejects_a_value_that_cannot_run(field):
    bad, least = CONFIG_BOUNDS[field]
    with pytest.raises(ValueError, match=field):
        AnalysisConfig(**{field: bad})
    assert getattr(AnalysisConfig(**{field: least}), field) == least
