"""The analysis heap policy (:mod:`repro.heap`) and the process lifetime
around it.

* Reports and stats never depend on when the garbage collector runs:
  the same corpora and daemon-session sequence give byte-identical
  output with the collector disabled, collecting on every allocation,
  and under the policy.
* A daemon session keeps the collector contract: thresholds and enabled
  state restored after every request, exactly one collection per
  analyzing request over what the last freeze left out, none per
  replay, and a count of tracked plus frozen objects that stops growing.
  Every module the session drops dies at the next thaw, and a thaw
  comes once the drops outgrow a quarter of the table or the session
  is reset.
* Both process entry points (``python -m repro`` and the ``repro-pata``
  script target) end with a hard exit that keeps the CLI's output,
  exit-code and broken-pipe contracts and leaves no worker behind.
* ``import repro.cli`` loads only what ``check`` needs.
"""

import contextlib
import gc
import json
import os
import pathlib
import subprocess
import sys
import time
import weakref

import pytest

from repro import heap
from repro.cli import check_output_text, main
from repro.corpus import FIRMLAB, LINUX, RACELAB, generate
from repro.serve import Session
from repro.serve.session import MEMO_LIMIT

SRC = pathlib.Path(heap.__file__).resolve().parents[1]
ROOT = SRC.parent

NPD = """
struct s{n} {{ int v; }};
int npd{n}(struct s{n} *p) {{
    if (!p) {{
        return p->v;
    }}
    return 0;
}}
"""

CLEAN = """
int g(int a) {
    return a + 1;
}
"""


def leak_edit(i: int) -> str:
    """A function whose only bug is a leak on one path."""
    return (f"\nint gc_edit(int n) {{ int *p = malloc(8); "
            f"if (n > {i}) return -1; free(p); return 0; }}\n")


@contextlib.contextmanager
def collector(thresholds=None, enabled=True):
    """Run the body with the given collector thresholds and enabled
    state, then put back whatever the process had."""
    saved, was_enabled = gc.get_threshold(), gc.isenabled()
    try:
        if thresholds is not None:
            gc.set_threshold(*thresholds)
        (gc.enable if enabled else gc.disable)()
        yield
    finally:
        gc.set_threshold(*saved)
        (gc.enable if was_enabled else gc.disable)()


def full_collections() -> int:
    return gc.get_stats()[2]["collections"]


# ---------------------------------------------------------------------------
# The policy itself
# ---------------------------------------------------------------------------


def test_policy_sets_then_restores_thresholds():
    with collector((800, 11, 12)):
        with heap.analysis_heap():
            assert gc.get_threshold() == heap.ANALYSIS_THRESHOLDS
            with heap.analysis_heap():
                assert gc.get_threshold() == heap.ANALYSIS_THRESHOLDS
            assert gc.get_threshold() == heap.ANALYSIS_THRESHOLDS
        assert gc.get_threshold() == (800, 11, 12)
        assert gc.isenabled()


def test_overlapping_uses_restore_once_the_last_leaves():
    """A daemon request that timed out can still run beside the next
    one: their policy uses overlap without nesting."""
    with collector((800, 11, 12)):
        first, second = heap.analysis_heap(), heap.analysis_heap()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert gc.get_threshold() == heap.ANALYSIS_THRESHOLDS
        second.__exit__(None, None, None)
        assert gc.get_threshold() == (800, 11, 12)


def test_policy_never_touches_the_enabled_state():
    with collector(enabled=False):
        with heap.analysis_heap(), heap.resident_heap(0):
            assert not gc.isenabled()
        assert not gc.isenabled()


def test_young_collections_run_and_full_ones_do_not():
    with collector():
        with heap.analysis_heap():
            young, full = gc.get_stats()[0]["collections"], full_collections()
            garbage = []
            for _ in range(300_000):
                cycle = []
                cycle.append(cycle)
                garbage.append(cycle)
                if len(garbage) > 1000:
                    garbage.clear()
            assert gc.get_stats()[0]["collections"] > young
            assert full_collections() == full


def settle():
    """Free whatever earlier tests left frozen and zero the drop count:
    a resident step over an empty table thaws any debt."""
    gc.unfreeze()
    gc.collect()
    with heap.resident_heap(0):
        pass


def frozen(obj) -> bool:
    """Whether ``obj`` sits in the frozen generation, which
    ``gc.get_objects()`` does not list."""
    return gc.is_tracked(obj) and not any(o is obj for o in gc.get_objects())


def thaws() -> int:
    return heap.resident_stats()["thaws"]


def test_resident_step_collects_once_then_freezes():
    with collector():
        settle()
        before, thawed = full_collections(), thaws()
        with heap.resident_heap(0):
            assert full_collections() == before + 1
            built = [[] for _ in range(100)]
            assert not frozen(built)
        assert full_collections() == before + 1
        assert thaws() == thawed
        assert frozen(built) and frozen(built[0])
        assert heap.resident_stats()["frozen_objects"] == gc.get_freeze_count()


def test_resident_step_thaws_once_drops_exceed_a_quarter():
    with collector():
        settle()
        with heap.resident_heap(8):
            built = []
        before = thaws()
        heap.drop_resident(2)  # a quarter of the table: no full pass yet
        with heap.resident_heap(8):
            assert frozen(built)
        assert thaws() == before
        heap.drop_resident(1)
        with heap.resident_heap(8):
            assert not frozen(built), "thawed before the collection"
        assert thaws() == before + 1
        with heap.resident_heap(8):
            assert frozen(built), "the drop count starts over"
        assert thaws() == before + 1


# ---------------------------------------------------------------------------
# Reports do not depend on when the collector runs
# ---------------------------------------------------------------------------

#: (profile, scale, check arguments)
CORPORA = {
    "linux": (LINUX, 0.15, ["--all-checkers"]),
    "racelab": (RACELAB, 1.0, ["--checkers", "taint,race,xtaint"]),
    "firmlab": (FIRMLAB, 0.5, ["--checkers", "taint,race,xtaint"]),
}

SETTINGS = ("disabled", "every-allocation", "policy")


@contextlib.contextmanager
def collector_setting(setting, monkeypatch):
    """``disabled``: no automatic collection at all.  ``every-allocation``:
    ``gc.set_threshold(1)``, kept inside analyses and pool workers too.
    ``policy``: the analysis heap policy as shipped."""
    saved = gc.get_threshold()
    with monkeypatch.context() as patch:
        if setting == "disabled":
            with collector(enabled=False):
                yield
            return
        if setting == "every-allocation":
            patch.setattr(heap, "ANALYSIS_THRESHOLDS", (1,) + saved[1:])
            with collector((1,) + saved[1:]):
                yield
            return
        with collector():
            yield


def without_timings(value):
    """``value`` minus every ``*seconds`` field, recursively."""
    if isinstance(value, dict):
        return {k: without_timings(v) for k, v in value.items() if not k.endswith("seconds")}
    if isinstance(value, list):
        return [without_timings(v) for v in value]
    return value


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    """Each corpus written under one root, as relative file lists."""
    root = tmp_path_factory.mktemp("corpora")
    files = {}
    for name, (profile, scale, _) in CORPORA.items():
        files[name] = []
        for f in generate(profile.scaled(scale)).compiled_files():
            target = root / name / f.path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(f.source)
            files[name].append(f"{name}/{f.path}")
    return root, files


def run_check(args, capsys, stats_path):
    code = main(["check", *args, "--stats-json", str(stats_path)])
    out, err = capsys.readouterr()
    stats = json.loads(stats_path.read_text())
    return code, out, err, without_timings(stats)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_cli_reports_identical_under_every_collector_setting(
        corpus, workers, corpus_files, capsys, monkeypatch, tmp_path):
    root, files = corpus_files
    monkeypatch.chdir(root)
    args = [*CORPORA[corpus][2], "--workers", str(workers), *files[corpus]]
    runs = {}
    for setting in SETTINGS:
        with collector_setting(setting, monkeypatch):
            runs[setting] = run_check(args, capsys, tmp_path / f"{setting}.json")
    code, out, err, stats = runs["policy"]
    assert code == 1 and out.count(" at ") >= 3, "differential is vacuous without reports"
    assert stats["workers_used"] == workers
    for setting in SETTINGS:
        assert runs[setting] == runs["policy"], setting


def test_session_sequence_identical_under_every_collector_setting(monkeypatch):
    """A daemon's request kinds: cold, then a diff, then a replay."""
    base = generate(LINUX.scaled(0.1)).compiled_sources()
    (name, text), rest = base[0], base[1:]
    diff = [(name, text + leak_edit(1))] + rest
    runs = {}
    for setting in SETTINGS:
        with collector_setting(setting, monkeypatch):
            session = Session(checker_spec="all")
            runs[setting] = [
                (check_output_text(result), without_timings(result.stats.to_dict()))
                for result in (session.analyze(base), session.analyze(diff),
                               session.analyze(diff))
            ]
    assert runs["policy"][2][1]["request_replayed"]
    assert "MEMORY LEAK" in runs["policy"][1][0]
    for setting in SETTINGS:
        assert runs[setting] == runs["policy"], setting


# ---------------------------------------------------------------------------
# The daemon session's collector contract
# ---------------------------------------------------------------------------


def edited(base, i):
    """``base`` with a leak edit ``i`` appended to its first file."""
    (name, text), rest = base[0], base[1:]
    return [(name, text + leak_edit(i))] + rest


def resident_objects() -> int:
    return len(gc.get_objects()) + gc.get_freeze_count()


@pytest.mark.parametrize("enabled", [True, False])
def test_session_collector_contract(enabled):
    """Over three times the table size in one-file diffs: one collection
    per analyzing request and none per replay, thresholds and enabled
    state restored, and tracked plus frozen objects level off.  Each
    diff drops one module, so the frozen count climbs between thaws:
    a plateau means every window of table-size diffs peaks no higher
    than the first did."""
    base = generate(LINUX.scaled(0.05)).compiled_sources()
    table = len(base)
    session = Session(checker_spec="all")
    counts = []
    with collector((800, 11, 12), enabled):
        settle()
        thawed = thaws()
        for i in range(max(3 * table, MEMO_LIMIT + 2 * table)):
            request = edited(base, i)
            before = full_collections()
            result = session.analyze(request)
            assert not result.stats.request_replayed
            assert full_collections() == before + 1, "one pass per analyzing request"
            assert gc.get_freeze_count() > 0, "the resident heap is frozen"
            assert gc.get_threshold() == (800, 11, 12) and gc.isenabled() == enabled
            counts.append(resident_objects())

            before = full_collections()
            assert session.analyze(request).stats.request_replayed
            assert full_collections() == before, "a replay collects nothing"
            assert gc.get_threshold() == (800, 11, 12) and gc.isenabled() == enabled
    assert thaws() > thawed
    # From the request that fills the memo on, each new result evicts
    # the oldest; a thaw frees the dropped modules.
    settled = counts[MEMO_LIMIT - 1:]
    first = max(settled[:table])
    for start in range(table, len(settled), table):
        assert max(settled[start:start + table]) <= first * 1.01, counts


def module_refs(session, name):
    """Weak references to the tabled module for ``name`` and to its
    functions: each function and its blocks form a cycle, which only a
    collection that sees them can free."""
    module = session.modules._entries[name].compiled.module
    return [weakref.ref(module)] + [weakref.ref(f) for f in module.functions.values()]


def test_replaced_modules_die_at_the_next_thaw():
    base = generate(LINUX.scaled(0.05)).compiled_sources()
    session = Session(checker_spec="all")
    settle()
    session.analyze(base)
    replaced = []
    before = thaws()
    i = 0
    while thaws() == before:
        replaced.append(module_refs(session, base[0][0]))
        i += 1
        session.analyze(edited(base, i))
        assert i <= len(base), "a thaw is due once drops exceed a quarter of the table"
    assert i > 1
    assert all(ref() is None for refs in replaced[:-1] for ref in refs)
    # The thawing request replaced one more module after its collection:
    # frozen garbage until the next thaw.
    assert any(ref() is not None for ref in replaced[-1])
    settle()
    assert all(ref() is None for ref in replaced[-1])


def test_reset_makes_the_next_request_thaw():
    base = generate(LINUX.scaled(0.05)).compiled_sources()
    session = Session(checker_spec="all")
    settle()
    session.analyze(base)
    refs = module_refs(session, base[1][0])
    before = thaws()
    session.reset()
    session.analyze(base)
    assert thaws() == before + 1
    assert all(ref() is None for ref in refs)


# ---------------------------------------------------------------------------
# Process entry points: the hard exit keeps the CLI's contracts
# ---------------------------------------------------------------------------


def script_target() -> str:
    """``module:function`` of the ``repro-pata`` console script."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["repro-pata"]


def entry_argv(entry: str):
    if entry == "module":
        return [sys.executable, "-m", "repro"]
    module, _, function = script_target().partition(":")
    # What a generated console script does with its target.
    runner = (f"import sys; from {module} import {function}; "
              f"sys.exit({function}())")
    return [sys.executable, "-c", runner]


def child_env(**extra):
    env = dict(os.environ, **extra)
    # Block-buffered stdout, as a pipe gets by default: what the hard
    # exit must flush.
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENTRIES = ["module", "script"]


@pytest.fixture(scope="module")
def many_bugs(tmp_path_factory):
    """One file whose report text is far larger than a pipe buffer."""
    path = tmp_path_factory.mktemp("many") / "many.c"
    path.write_text("".join(NPD.format(n=n) for n in range(400)))
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN)
    return path


def test_script_target_is_the_hard_exit_runner():
    assert script_target() == "repro.__main__:run"


@pytest.mark.parametrize("entry", ENTRIES)
def test_closed_pipe_exits_quietly(entry, many_bugs):
    """``check ... | head -1``: the reader leaves after one line."""
    with subprocess.Popen(entry_argv(entry) + ["check", str(many_bugs)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=child_env()) as proc:
        assert proc.stdout.readline().startswith(b"NULL-POINTER DEREFERENCE")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize("entry", ENTRIES)
def test_large_piped_output_and_stats_file_arrive_complete(
        entry, many_bugs, tmp_path, capsys):
    stats_path = tmp_path / "stats.json"
    proc = subprocess.run(
        entry_argv(entry) + ["check", str(many_bugs), "--stats-json", str(stats_path)],
        capture_output=True, env=child_env(), timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert main(["check", str(many_bugs)]) == 1
    expected = capsys.readouterr().out
    assert len(expected) > 100_000
    assert proc.stdout.decode() == expected
    stats = json.loads(stats_path.read_text())
    assert stats["entry_functions"] == 400
    assert len(stats["per_entry"]) == 400


@pytest.mark.parametrize("entry", ENTRIES)
def test_exit_codes_are_preserved(entry, many_bugs, clean_file, tmp_path):
    malformed = tmp_path / "bad.c"
    malformed.write_text("int f( {\n")
    cases = [
        ([str(clean_file)], 0),
        ([str(many_bugs)], 1),
        ([str(tmp_path / "missing.c")], 2),
        ([str(malformed)], 2),
    ]
    for files, code in cases:
        proc = subprocess.run(entry_argv(entry) + ["check", *files],
                              capture_output=True, env=child_env(), timeout=120)
        assert proc.returncode == code, (files, proc.stderr)


def alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.parametrize("entry", ENTRIES)
def test_workers_leave_no_orphans(entry, many_bugs, tmp_path):
    touch = tmp_path / "batches"
    touch.mkdir()
    proc = subprocess.run(
        entry_argv(entry) + ["check", "--workers", "2", str(many_bugs)],
        capture_output=True, timeout=120,
        env=child_env(REPRO_PARALLEL_TEST_TOUCH_DIR=str(touch)))
    assert proc.returncode == 1, proc.stderr
    pids = {int(p.name.split("-")[1]) for p in touch.iterdir()}
    assert pids, "the pool ran batches"
    deadline = time.monotonic() + 5
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(alive(pid) for pid in pids)


# ---------------------------------------------------------------------------
# What ``import repro.cli`` loads
# ---------------------------------------------------------------------------


def test_import_cli_loads_only_what_check_needs():
    unwanted = ["repro.baselines", "repro.corpus", "repro.evaluation", "repro.serve",
                "multiprocessing", "concurrent.futures"]
    probe = ("import sys, repro.cli; "
             f"print([m for m in {unwanted!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          env=child_env(), timeout=60, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
