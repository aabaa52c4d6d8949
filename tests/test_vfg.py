"""Value-flow graph + Saber-style leak detection tests."""

from repro.lang import compile_program
from repro.vfg import SaberLeakDetector, ValueFlowGraph


def program_of(source):
    return compile_program([("t.c", source)])


def test_copy_edges_in_vfg():
    program = program_of("void f(void) { char *p = malloc(8); char *q = p; }")
    vfg = ValueFlowGraph(program)
    (site,) = vfg.malloc_sites
    reach = vfg.reachable_from(site.dst.name)
    assert "f.q" in reach


def test_call_edges_in_vfg():
    program = program_of(
        "static void sink(char *x) { }\n"
        "void f(void) { char *p = malloc(8); sink(p); }"
    )
    vfg = ValueFlowGraph(program)
    (site,) = vfg.malloc_sites
    assert "sink.x" in vfg.reachable_from(site.dst.name)


def test_memory_edges_through_may_alias():
    source = """
void f(void) {
    char *obj = malloc(8);
    char **slot = malloc(8);
    *slot = obj;
    char *out = *slot;
}
"""
    program = program_of(source)
    vfg = ValueFlowGraph(program)
    obj_site = vfg.malloc_sites[0]
    assert "f.out" in vfg.reachable_from(obj_site.dst.name)


def test_memory_edge_through_one_pointer_name_without_objects():
    """``may_alias(p, p)`` holds even when ``p`` points to nothing (an
    interface parameter), so the store feeds the load through ``p``."""
    program = program_of("void f(char **pp, char *x) { *pp = x; char *y = *pp; }")
    vfg = ValueFlowGraph(program)
    assert not vfg.points_to.points_to("f.pp")
    assert "f.y" in vfg.reachable_from("f.x")


def test_saber_detects_never_freed():
    program = program_of(
        "int f(int n) { int *p = malloc(n); if (!p) return -1; *p = n; return *p; }"
    )
    leaks = SaberLeakDetector(program).detect()
    assert len(leaks) == 1


def test_saber_freed_not_reported():
    program = program_of(
        "int f(int n) { char *p = malloc(n); if (!p) return -1; free(p); return 0; }"
    )
    assert SaberLeakDetector(program).detect() == []


def test_saber_returned_pointer_escapes():
    program = program_of("char *f(int n) { char *p = malloc(n); return p; }")
    assert SaberLeakDetector(program).detect() == []


def test_saber_stored_pointer_escapes():
    program = program_of(
        "struct h { char *b; };\n"
        "void f(struct h *out, int n) { char *p = malloc(n); out->b = p; }"
    )
    assert SaberLeakDetector(program).detect() == []


def test_saber_global_move_escapes():
    program = program_of(
        "char *stash;\n"
        "void f(int n) { char *p = malloc(n); stash = p; }"
    )
    assert SaberLeakDetector(program).detect() == []


def test_saber_null_failure_path_not_a_leak():
    # The only free-less exit is the allocation-failure return.
    program = program_of(
        "int f(int n) { char *p = malloc(n); if (!p) return -1; free(p); return 0; }"
    )
    assert SaberLeakDetector(program).detect() == []


def test_saber_error_path_leak_via_free_avoiding_route():
    program = program_of(
        """
int f(int n, int bad) {
    int *p = malloc(n);
    if (!p) return -1;
    *p = 1;
    if (bad) return -9;
    free(p);
    return 0;
}
"""
    )
    leaks = SaberLeakDetector(program).detect()
    assert len(leaks) == 1


def test_saber_misses_leak_when_pointer_passed_to_external():
    # Passing to an unknown function counts as escape: Saber's documented
    # conservatism (it loses error-path leaks like Fig. 12(c) when the
    # buffer is also consumed by an external call).
    program = program_of(
        """
int f(int n, int bad) {
    char *p = malloc(n);
    if (!p) return -1;
    if (bad) return -9;
    external_use(p);
    free(p);
    return 0;
}
"""
    )
    assert SaberLeakDetector(program).detect() == []


def test_edge_count_positive():
    program = program_of("void f(void) { char *p = malloc(8); char *q = p; }")
    assert ValueFlowGraph(program).edge_count() >= 1


def test_saber_escape_via_aliased_field_store():
    # Regression: storing an *interior* pointer (&p->hdr) publishes the
    # allocation even though the interior pointer's name never enters the
    # VFG flow set (GEPs add no value-flow edge).  _escapes must consult
    # the points-to base objects, not just name matches.
    program = program_of(
        """
struct pkt { int hdr; int body; };
int publish(int **slot) {
    struct pkt *p = malloc(sizeof(struct pkt));
    if (p == NULL)
        return -1;
    p->hdr = 7;
    int *t = &p->hdr;
    *slot = t;
    return 0;
}
"""
    )
    assert SaberLeakDetector(program).detect() == []


def test_saber_alias_escape_does_not_mask_real_leaks():
    # The alias-aware escape check must not swallow an unrelated site:
    # the second allocation still leaks on the early-error path.
    program = program_of(
        """
struct pkt { int hdr; int body; };
int mixed(int **slot, int n, int bad) {
    struct pkt *p = malloc(sizeof(struct pkt));
    if (p == NULL)
        return -1;
    int *t = &p->hdr;
    *slot = t;
    char *buf = malloc(n);
    if (buf == NULL)
        return -1;
    if (bad)
        return -9;
    free(buf);
    return 0;
}
"""
    )
    leaks = SaberLeakDetector(program).detect()
    assert len(leaks) == 1
    assert leaks[0].function == "mixed"
