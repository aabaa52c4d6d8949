"""The resident analysis daemon: session reuse soundness, the line-JSON
protocol, the FIFO scheduler (coalescing, timeouts, degradation, drain),
watch mode, and byte-identity between daemon responses and one-shot CLI
runs across alias tiers and worker counts."""

import gc
import json
import socket
import threading
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import PATA, AnalysisConfig, heap
from repro.cli import check_output_text, main
from repro.core.report import AnalysisStats
from repro.corpus import LINUX, PROFILES_BY_NAME, generate
from repro.lang import compile_program
from repro.serve import PataServer, ResidentStore, ServeClient, Session, WatchLoop
from repro.serve.protocol import (
    OPS, ProtocolError, decode, encode, job_key, validate_request,
)
from repro.serve.store import ModuleTable

BUGGY = """
struct s { int v; };
int f(struct s *p) {
    if (!p) {
        return p->v;
    }
    return 0;
}
"""

CLEAN = """
int g(int a) {
    return a + 1;
}
"""

# Race on an escaping heap object whose shared-state root is a
# ``heap#<uid>`` allocation-site name: both entries reach the allocation
# through the same helper, so the rendered message embeds an instruction
# uid.  This is the session-reuse soundness regression: uid counters used
# to be process-global, so a second in-process compile shifted every
# ``heap#N`` and the daemon's report bytes diverged from a one-shot run.
HEAP_RACE = """
struct buf { int len; int cap; };

struct buf *acquire(void) {
    struct buf *b = kzalloc(sizeof(struct buf));
    publish(b);
    return b;
}

int dev_write(void) {
    struct buf *b = acquire();
    if (!b)
        return -12;
    b->len = 1;
    return 0;
}

int dev_read(void) {
    struct buf *b = acquire();
    if (!b)
        return -11;
    return b->len;
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.c"
    path.write_text(BUGGY)
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN)
    return path


@pytest.fixture
def race_file(tmp_path):
    path = tmp_path / "race.c"
    path.write_text(HEAP_RACE)
    return path


def one_shot(sources, checker_spec="default", **config):
    """The result a fresh ``PATA`` produces over freshly compiled
    sources."""
    program = compile_program(list(sources))
    return PATA(config=AnalysisConfig(**config), checker_spec=checker_spec).analyze(program)


def one_shot_output(sources, checker_spec="default", **config):
    """The rendered report text a fresh ``PATA`` produces — what every
    resident-session run must match byte for byte."""
    return check_output_text(one_shot(sources, checker_spec, **config))


# -- session reuse soundness -------------------------------------------------


class TestSessionReuse:
    def test_repeat_analyze_byte_identical(self):
        session = Session(checker_spec="race")
        first = session.analyze([("race.c", HEAP_RACE)])
        second = session.analyze([("race.c", HEAP_RACE)])
        assert check_output_text(first) == check_output_text(second)
        assert "heap#" in check_output_text(first)

    def test_session_matches_one_shot(self):
        session = Session(checker_spec="race")
        session.analyze([("race.c", HEAP_RACE)])  # warm the cache
        warm = session.analyze([("race.c", HEAP_RACE)])
        assert check_output_text(warm) == one_shot_output(
            [("race.c", HEAP_RACE)], checker_spec="race")

    def test_recompile_keeps_heap_uids_stable(self):
        """Two compiles in one process must render identical ``heap#N``
        roots — uid numbering is per-program, not process-global."""
        outputs = []
        for _ in range(2):
            program = compile_program([("race.c", HEAP_RACE)])
            result = PATA(checker_spec="race").analyze(program)
            outputs.append(check_output_text(result))
        assert outputs[0] == outputs[1]
        assert "heap#" in outputs[0]

    def test_identical_request_replays(self):
        """Tier 1: a byte-identical repeat skips analysis entirely and
        replays the memoized result."""
        session = Session()
        cold = session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN)])
        warm = session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN)])
        assert not cold.stats.request_replayed
        assert cold.stats.entries_reanalyzed > 0
        assert warm.stats.request_replayed
        assert warm.stats.entries_reanalyzed == 0
        assert warm.stats.cache_hits == 0  # the store was never touched
        assert warm.stats.requests_served == 2
        assert session.replays_served == 1

    def test_overlapping_request_takes_cache_tier(self):
        """Tier 2: a different file list misses the memo but resolves
        its modules (and shared facts) out of the resident store."""
        session = Session()
        session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN)])
        subset = session.analyze([("buggy.c", BUGGY)])
        assert not subset.stats.request_replayed
        assert subset.stats.cache_hits > 0  # f's facts, at least
        assert session.replays_served == 0

    def test_edit_reanalyzes_only_dirtied_closure(self):
        # --no-prune so the clean module's entry stays analyzed (P1.5
        # would skip it and leave nothing to dirty).
        session = Session(config=AnalysisConfig(prune=False))
        session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN)])
        edited = CLEAN.replace("a + 1", "a + 2")
        delta = session.analyze([("buggy.c", BUGGY), ("clean.c", edited)])
        assert delta.stats.entries_reanalyzed == 1
        assert delta.stats.entries_cached >= 1

    def test_per_request_cache_deltas(self):
        """Store counters grow for the session's lifetime; each result
        must carry this request's delta, not the running total."""
        session = Session()
        cold = session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN)])
        subset = session.analyze([("buggy.c", BUGGY)])  # memo miss, cache hit
        assert cold.stats.cache_misses > 0
        assert subset.stats.cache_hits > 0
        # The store's counters are cumulative; the result's are not.
        assert session.store.misses == \
            cold.stats.cache_misses + subset.stats.cache_misses
        assert session.store.hits == \
            cold.stats.cache_hits + subset.stats.cache_hits

    def test_memo_is_bounded_and_recency_ordered(self):
        from repro.serve.session import MEMO_LIMIT

        session = Session()
        first = [("m0.c", CLEAN.replace("int g", "int g0"))]
        session.analyze(first)
        # Fill the memo past its bound with distinct requests.
        for i in range(1, MEMO_LIMIT + 1):
            session.analyze([("m.c", CLEAN.replace("a + 1", f"a + {i}"))])
        # ``first`` was the oldest entry: evicted, so it re-analyzes...
        assert not session.analyze(first).stats.request_replayed
        # ...and the re-insertion replays on the next repeat.
        assert session.analyze(first).stats.request_replayed

    def test_stats_carry_residency_fields(self):
        session = Session()
        result = session.analyze([("buggy.c", BUGGY)])
        stats = result.stats.to_dict()
        assert stats["requests_served"] == 1
        assert stats["resident_cache_entries"] == len(session.store) > 0
        assert stats["queue_wait_seconds"] == 0.0

    def test_analyze_paths_overlay_matches_disk(self, tmp_path, buggy_file, clean_file):
        """``check_diff`` semantics: an overlay source must yield the
        same bytes as writing it to disk first."""
        session = Session()
        overlay_result = session.analyze_paths(
            [str(buggy_file), str(clean_file)],
            overlay={str(clean_file): BUGGY.replace("int f", "int h")},
        )
        clean_file.write_text(BUGGY.replace("int f", "int h"))
        disk = one_shot_output(
            [(str(buggy_file), BUGGY),
             (str(clean_file), clean_file.read_text())])
        assert check_output_text(overlay_result) == disk

    def test_same_file_under_two_names_matches_one_shot(self):
        """A root spelled one way and an overlay spelled another link the
        same functions twice.  Every cache layer keys by function name,
        so the session analyzes such a request with the cache off: it
        answers like the one-shot run, raises nothing and keeps its
        module table."""
        session = Session()
        session.analyze([("/src/buggy.c", BUGGY)])
        sources = [("/src/buggy.c", BUGGY), ("buggy.c", BUGGY)]
        result = session.analyze(sources)
        assert check_output_text(result) == one_shot_output(sources)
        assert len(session.modules) == 2

    def test_reset_drops_residency(self):
        session = Session()
        session.analyze([("buggy.c", BUGGY)])
        assert len(session.store) > 0
        assert len(session.modules) == 1
        session.reset()
        assert len(session.store) == 0
        assert len(session.modules) == 0
        result = session.analyze([("buggy.c", BUGGY)])
        assert result.stats.entries_reanalyzed > 0  # cold again


# -- heap# roots in cached outcomes ------------------------------------------

# A file ahead of HEAP_RACE: growing ``pad`` shifts every later uid, so
# the race's ``heap#N`` root changes while the racing entries' closures,
# and so their cache keys, do not.
PAD = """
int pad(int n) {
    return n + 1;
}
"""

PAD_GROWN = """
int pad(int n) {
    int m = n * 2;
    m = m + 3;
    return m + n;
}
"""


class TestHeapRootsAcrossUidShifts:
    """A cached outcome's ``heap#<uid>`` roots are read back as the
    current program's uids, through the disk cache and through a
    session: the warm report after the edit is the cache-off one."""

    def test_disk_cache(self, tmp_path, capsys):
        pad = tmp_path / "a.c"
        race = tmp_path / "race.c"
        pad.write_text(PAD)
        race.write_text(HEAP_RACE)
        files = [str(pad), str(race)]
        stats = tmp_path / "stats.json"
        cached = ["check", "--checkers", "race", "--cache", "rw", "--cache-dir",
                  str(tmp_path / "cache"), "--stats-json", str(stats), *files]
        main(cached)
        capsys.readouterr()
        pad.write_text(PAD_GROWN)
        main(cached)
        warm = capsys.readouterr().out
        assert json.loads(stats.read_text())["entries_cached"] > 0
        main(["check", "--checkers", "race", *files])
        assert warm == capsys.readouterr().out
        assert "heap#" in warm

    def test_session(self):
        session = Session(checker_spec="race")
        session.analyze([("a.c", PAD), ("race.c", HEAP_RACE)])
        edited = [("a.c", PAD_GROWN), ("race.c", HEAP_RACE)]
        warm = session.analyze(edited)
        assert warm.stats.entries_cached > 0
        assert check_output_text(warm) == one_shot_output(edited, checker_spec="race")
        assert "heap#" in check_output_text(warm)


# -- the module table (layer 0, live) ---------------------------------------

# ``seq_hook`` is defined and called in one file that no step edits; a
# second file registers it as an interface, which makes it an entry.
SEQ_HELPER = """
int seq_hook(int n) {
    if (n > 3)
        return n - 3;
    return 0;
}

int seq_caller(int n) {
    return seq_hook(n) + 1;
}
"""

SEQ_OPS = """
int seq_hook(int n);
struct seq_ops { int (*hook)(int n); };
"""

SEQ_REGISTERED = SEQ_OPS + "static struct seq_ops seq_reg = { .hook = seq_hook };\n"
SEQ_UNREGISTERED = SEQ_OPS + "static struct seq_ops seq_reg;\n"


def leak(name: str) -> str:
    """One more entry function, whose only bug is a leak."""
    return (f"\nint {name}(int n) {{ int *p = malloc(8); "
            f"if (n > 2) return -1; free(p); return 0; }}\n")


def tabled_modules(session):
    return {name: entry.compiled.module
            for name, entry in session.modules._entries.items()}


class TestModuleTable:
    def test_edit_revert_and_registration_sequence_matches_one_shot(self):
        """Every step of an edit/revert/registration sequence reports
        and counts entries exactly as a one-shot run does.  Step 5 drops
        the registration while ``seq_hook``'s module is reused: it must
        stop being an entry."""
        base = generate(LINUX.scaled(0.1)).compiled_sources()
        base.append(("seq/helper.c", SEQ_HELPER))
        (a, a_text), (b, b_text), rest = base[0], base[1], base[2:]
        edit_b = [(a, a_text), (b, b_text + leak("seq_edit_b"))] + rest
        steps = [
            [(a, a_text + leak("seq_edit_a")), (b, b_text)] + rest,  # 1. edit A
            base,                                                    # 2. revert A
            base + [("seq/reg.c", SEQ_REGISTERED)],                  # 3. register
            edit_b + [("seq/reg.c", SEQ_REGISTERED)],                # 4. edit B
            edit_b + [("seq/reg.c", SEQ_UNREGISTERED)],              # 5. unregister
            base,                                                    # 6. revert all
        ]
        session = Session()
        entries = []
        for number, sources in enumerate(steps, 1):
            result = session.analyze(sources)
            expected = one_shot(sources)
            assert check_output_text(result) == check_output_text(expected), number
            assert result.stats.entry_functions == expected.stats.entry_functions, number
            entries.append(expected.stats.entry_functions)
        n = entries[1]
        assert entries == [n + 1, n, n + 1, n + 2, n + 1, n]
        assert len(session.modules) == len(base) + 1

    def test_no_earlier_program_stays_reachable(self):
        session = Session()
        session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN)])
        earlier = weakref.ref(tabled_modules(session)["buggy.c"]._owners[0])
        session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN + leak("extra"))])
        session.analyze([("buggy.c", BUGGY)])  # clean.c's module sits out
        modules = tabled_modules(session)
        assert len(modules["buggy.c"]._owners) == 1  # the latest program
        assert modules["clean.c"]._owners == []
        gc.collect()
        assert earlier() is None

    def test_table_holds_one_module_per_file(self):
        session = Session()
        for i in range(4):
            session.analyze([("buggy.c", BUGGY),
                             ("clean.c", CLEAN.replace("a + 1", f"a + {i}"))])
        assert len(session.modules) == 2

    def test_repeated_filename_links_distinct_modules(self):
        """A one-shot run compiles a repeated file twice; linking one
        module object twice into a program reports differently."""
        table = ModuleTable()
        first, again = table.take([("race.c", HEAP_RACE), ("race.c", HEAP_RACE)])
        assert first.module is not again.module
        assert len(table) == 1

    def test_optimize_ir_diffs_match_one_shot(self):
        session = Session(config=AnalysisConfig(optimize_ir=True), checker_spec="all")
        for i in range(2):
            sources = [("buggy.c", BUGGY), ("race.c", HEAP_RACE),
                       ("clean.c", CLEAN.replace("a + 1", f"a + {i}"))]
            assert check_output_text(session.analyze(sources)) == \
                one_shot_output(sources, checker_spec="all", optimize_ir=True)
            assert len(session.modules) == 0  # rewritten modules are not reused

    def test_failed_analysis_drops_the_table(self, monkeypatch):
        session = Session()
        session.analyze([("buggy.c", BUGGY)])

        def explode(self, program, entries=None):
            raise ValueError("analysis failed midway")

        monkeypatch.setattr(PATA, "analyze", explode)
        with pytest.raises(ValueError):
            session.analyze([("buggy.c", BUGGY), ("clean.c", CLEAN)])
        assert len(session.modules) == 0


# -- resident store ----------------------------------------------------------


class TestResidentStore:
    def test_get_returns_fresh_copies(self):
        """Pickle round-trip on purpose: what a request does to a
        fetched object must never mutate the resident copy."""
        store = ResidentStore()
        store.put("k", {"nested": [1, 2]})
        store.commit()
        first = store.get("k")
        first["nested"].append(3)
        assert store.get("k") == {"nested": [1, 2]}

    def test_staged_until_commit(self):
        """``put`` stages (readable at once, like a just-written cache
        file) but only ``commit`` publishes into the resident set."""
        store = ResidentStore()
        store.put("k", 1)
        assert store.get("k") == 1
        assert len(store) == 0
        assert store.occupancy()["staged"] == 1
        assert store.commit() == 1
        assert len(store) == 1
        assert store.occupancy()["staged"] == 0
        assert store.get("k") == 1 and store.hits == 2

    def test_missing_key_counts_a_miss(self):
        store = ResidentStore()
        assert store.get("absent") is None
        assert store.misses == 1 and store.hits == 0

    def test_put_never_overwrites(self):
        store = ResidentStore()
        store.put("k", "first")
        store.put("k", "second")
        store.commit()
        assert store.get("k") == "first"

    def test_occupancy(self):
        store = ResidentStore()
        store.put("k", "v")
        store.commit()
        occ = store.occupancy()
        assert occ["objects"] == 1
        assert occ["staged"] == 0
        assert occ["bytes"] > 0

    def test_one_file_diffs_grow_the_store_by_kilobytes(self):
        """Five one-file diffs, each adding a leak to another file of a
        small linux tree: the store grows by the new entries' outcomes
        only — no whole-program object per diff — and every diff prints
        what a one-shot run prints."""
        sources = generate(LINUX.scaled(0.2)).compiled_sources()
        session = Session(checker_spec="all")
        session.analyze(sources)
        before = session.store.occupancy()["bytes"]
        for number in range(5):
            name, text = sources[number]
            sources[number] = (name, text + leak(f"grow_{number}"))
            result = session.analyze(sources)
            assert check_output_text(result) == one_shot_output(sources, "all"), number
            after = session.store.occupancy()["bytes"]
            assert after - before <= 16 * 1024, (number, after - before)
            before = after


# -- protocol ----------------------------------------------------------------


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        payload = {"op": "status", "id": 7}
        assert decode(encode(payload)) == payload

    def test_encode_is_deterministic(self):
        assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2]\n")

    def test_validate_ops(self):
        for op in ("check_module", "status", "shutdown"):
            assert validate_request({"op": op}) == op
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_request({"op": "frobnicate"})
        with pytest.raises(ProtocolError, match="list of path strings"):
            validate_request({"op": "check_module", "files": "a.c"})
        with pytest.raises(ProtocolError, match="overlay"):
            validate_request({"op": "check_diff"})
        with pytest.raises(ProtocolError, match="source text"):
            validate_request({"op": "check_diff", "overlay": {"a.c": 3}})

    def test_deeply_nested_line_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="nested too deeply"):
            decode(b"[" * 100000 + b"]" * 100000)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=200),
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | st.sampled_from(OPS),
            lambda children: st.lists(children, max_size=4) | st.dictionaries(
                st.sampled_from(["op", "files", "overlay", "id"]) | st.text(max_size=4),
                children, max_size=4),
            max_leaves=20,
        ).map(lambda value: json.dumps(value).encode()),
        st.tuples(st.integers(1, 5000), st.sampled_from([b"[", b'{"op":'])).map(
            lambda depth_open: depth_open[1] * depth_open[0]
            + (b"]" if depth_open[1] == b"[" else b"}") * depth_open[0]),
    ))
    def test_any_line_yields_an_op_or_a_protocol_error(self, line):
        try:
            op = validate_request(decode(line))
        except ProtocolError:
            return
        assert op in OPS

    def test_job_key_coalesces_identical_work(self):
        assert job_key("check_module", ["a.c"], None) == \
            job_key("check_module", ["a.c"], None)
        assert job_key("check_module", ["a.c"], None) != \
            job_key("check_module", ["b.c"], None)
        assert job_key("check_module", ["a.c", "b.c"], None) != \
            job_key("check_module", ["b.c", "a.c"], None)
        assert job_key("check_diff", ["a.c"], {"a.c": "x"}) != \
            job_key("check_diff", ["a.c"], {"a.c": "y"})


# -- watch loop --------------------------------------------------------------


class TestWatchLoop:
    def test_poll_reports_content_changes(self, tmp_path):
        path = tmp_path / "w.c"
        path.write_text(CLEAN)
        loop = WatchLoop([str(path)])
        assert loop.poll_once() == []
        path.write_text(CLEAN + "\n// edit\n")
        assert loop.poll_once() == [str(path)]
        assert loop.poll_once() == []

    def test_poll_reports_deletion_and_reappearance(self, tmp_path):
        path = tmp_path / "w.c"
        path.write_text(CLEAN)
        loop = WatchLoop([str(path)])
        path.unlink()
        assert loop.poll_once() == [str(path)]
        assert loop.poll_once() == []
        path.write_text(CLEAN)
        assert loop.poll_once() == [str(path)]

    def test_wait_for_change_honors_stop(self, tmp_path):
        path = tmp_path / "w.c"
        path.write_text(CLEAN)
        loop = WatchLoop([str(path)], interval=0.01)
        assert loop.wait_for_change(should_stop=lambda: True) == []


# -- daemon ------------------------------------------------------------------


def start_server(tmp_path, files, **kwargs):
    server = PataServer(
        roots=[str(f) for f in files],
        socket_path=str(tmp_path / "pata.sock"),
        **kwargs,
    )
    server.start()
    return server


def submit(server, payload, timeout=60):
    with ServeClient(socket_path=server.socket_path, timeout=timeout) as client:
        return client.request(payload)


def drain(server):
    server.request_shutdown()
    server.serve_forever()
    server.close()


class TestDaemon:
    def test_check_module_matches_one_shot(self, tmp_path, buggy_file, clean_file):
        server = start_server(tmp_path, [buggy_file, clean_file])
        try:
            expected = one_shot_output(
                [(str(buggy_file), BUGGY), (str(clean_file), CLEAN)])
            response = submit(server, {"op": "check_module"})
            assert response["ok"]
            assert response["output"] == expected
            assert response["exit_code"] == 1
            assert response["bugs"] == 1
            assert response["reports"][0]["kind"] == "NPD"
            assert response["serve"]["queue_wait_seconds"] >= 0.0
            assert response["stats"]["queue_wait_seconds"] >= 0.0
            assert "per_entry" not in response["stats"]
        finally:
            drain(server)

    def test_warm_request_is_fully_cached(self, tmp_path, buggy_file):
        server = start_server(tmp_path, [buggy_file])
        try:
            cold = submit(server, {"op": "check_module"})
            warm = submit(server, {"op": "check_module"})
            assert cold["output"] == warm["output"]
            assert cold["serve"]["entries_reanalyzed"] > 0
            assert cold["serve"]["replayed"] is False
            assert warm["serve"]["entries_reanalyzed"] == 0
            assert warm["serve"]["cache_misses"] == 0
            assert warm["serve"]["replayed"] is True
            assert warm["serve"]["requests_served"] == 2
            assert warm["serve"]["resident_cache_entries"] > 0
        finally:
            drain(server)

    def test_check_files_subset(self, tmp_path, buggy_file, clean_file):
        server = start_server(tmp_path, [buggy_file, clean_file])
        try:
            response = submit(
                server, {"op": "check_module", "files": [str(clean_file)]})
            assert response["ok"]
            assert response["bugs"] == 0
            assert response["output"] == one_shot_output([(str(clean_file), CLEAN)])
        finally:
            drain(server)

    def test_check_diff_overlay_matches_disk(self, tmp_path, buggy_file, clean_file):
        server = start_server(tmp_path, [buggy_file, clean_file])
        try:
            edited = BUGGY.replace("int f", "int h")
            response = submit(
                server, {"op": "check_diff", "overlay": {str(clean_file): edited}})
            assert response["ok"]
            assert response["output"] == one_shot_output(
                [(str(buggy_file), BUGGY), (str(clean_file), edited)])
            # The overlay never touched the resident entries for the
            # on-disk contents: a plain check still matches the disk.
            plain = submit(server, {"op": "check_module"})
            assert plain["output"] == one_shot_output(
                [(str(buggy_file), BUGGY), (str(clean_file), CLEAN)])
        finally:
            drain(server)

    def test_per_entry_stats_opt_in(self, tmp_path, buggy_file):
        server = start_server(tmp_path, [buggy_file])
        try:
            response = submit(server, {"op": "check_module", "per_entry": True})
            assert response["stats"]["per_entry"]
        finally:
            drain(server)

    def test_status_endpoint(self, tmp_path, buggy_file):
        server = start_server(tmp_path, [buggy_file])
        try:
            submit(server, {"op": "check_module"})
            status = submit(server, {"op": "status"})
            assert status["ok"]
            assert status["requests_served"] == 1
            assert status["sessions_reset"] == 0
            assert status["queue_depth"] == 0
            assert status["resident_cache"]["objects"] > 0
            assert status["resident_cache"]["bytes"] > 0
            assert status["resident_modules"] == 1
            assert status["heap"] == heap.resident_stats()
            assert status["heap"]["frozen_objects"] > 0
            assert status["uptime_seconds"] >= 0.0
            assert status["watch"] is False
        finally:
            drain(server)

    def test_shutdown_drains_queued_requests(self, tmp_path, buggy_file):
        """Requests pipelined ahead of a shutdown still get answered;
        afterwards the listener is gone and the scheduler has exited."""
        server = start_server(tmp_path, [buggy_file])
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(server.socket_path)
        rfile = sock.makefile("rb")
        try:
            for ident, op in ((1, "check_module"), (2, "check_module"),
                              (3, "shutdown")):
                sock.sendall(encode({"op": op, "id": ident}))
            responses = {}
            for _ in range(3):
                responses.update({r["id"]: r for r in [decode(rfile.readline())]})
            assert set(responses) == {1, 2, 3}
            assert all(r["ok"] for r in responses.values())
            assert responses[3]["op"] == "shutdown"
        finally:
            rfile.close()
            sock.close()
        server.serve_forever()  # returns: scheduler drained
        with pytest.raises(OSError):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(server.socket_path)
            finally:
                probe.close()
        server.close()

    def test_sigterm_path_drains(self, tmp_path, buggy_file):
        """``request_shutdown`` is the SIGTERM handler's body — the
        serve_forever loop must unwind without any client involved."""
        server = start_server(tmp_path, [buggy_file])
        server.request_shutdown()
        server.serve_forever()
        server.close()

    def test_protocol_error_responses(self, tmp_path, buggy_file):
        server = start_server(tmp_path, [buggy_file])
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(server.socket_path)
        rfile = sock.makefile("rb")
        try:
            sock.sendall(b"this is not json\n")
            error = decode(rfile.readline())
            assert not error["ok"] and "invalid JSON" in error["error"]
            sock.sendall(encode({"op": "frobnicate", "id": 9}))
            error = decode(rfile.readline())
            assert not error["ok"] and "unknown op" in error["error"]
        finally:
            rfile.close()
            sock.close()
            drain(server)

    def test_deeply_nested_line_keeps_the_connection(self, tmp_path, buggy_file):
        server = start_server(tmp_path, [buggy_file])
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(server.socket_path)
        rfile = sock.makefile("rb")
        try:
            sock.sendall(b"[" * 100000 + b"]" * 100000 + b"\n")
            error = decode(rfile.readline())
            assert not error["ok"] and "nested too deeply" in error["error"]
            sock.sendall(encode({"op": "status", "id": 1}))
            status = decode(rfile.readline())
            assert status["ok"] and status["op"] == "status" and status["id"] == 1
        finally:
            rfile.close()
            sock.close()
            drain(server)

    def test_user_error_keeps_session(self, tmp_path, buggy_file):
        """A missing file is the client's problem: error response, no
        session reset, and the resident cache keeps serving."""
        server = start_server(tmp_path, [buggy_file])
        try:
            submit(server, {"op": "check_module"})
            session_before = server.session
            response = submit(
                server,
                {"op": "check_module", "files": [str(tmp_path / "gone.c")]})
            assert not response["ok"]
            assert server.session is session_before
            assert server.sessions_reset == 0
            warm = submit(server, {"op": "check_module"})
            assert warm["ok"] and warm["serve"]["entries_reanalyzed"] == 0
        finally:
            drain(server)

    def test_deeply_nested_overlay_keeps_session(self, tmp_path, buggy_file):
        """An overlay nested past the parser's recursion limit is a
        source error like any other: an error response naming the file,
        no session reset, and the resident cache keeps serving."""
        server = start_server(tmp_path, [buggy_file])
        try:
            submit(server, {"op": "check_module"})
            session_before = server.session
            deep = "int f(void){ return " + "(" * 200 + "1" + ")" * 200 + "; }\n"
            response = submit(
                server, {"op": "check_diff", "overlay": {str(buggy_file): deep}})
            assert not response["ok"]
            assert f"ParseError: {buggy_file}:" in response["error"]
            assert server.session is session_before
            assert server.sessions_reset == 0
            warm = submit(server, {"op": "check_module"})
            assert warm["ok"] and warm["serve"]["entries_reanalyzed"] == 0
        finally:
            drain(server)

    def test_crash_degrades_to_fresh_session(self, tmp_path, buggy_file):
        server = start_server(tmp_path, [buggy_file])
        try:
            expected = submit(server, {"op": "check_module"})["output"]

            def explode(paths, overlay=None):
                raise RuntimeError("resident state corrupted")

            server.session.analyze_paths = explode
            response = submit(server, {"op": "check_module"})
            assert not response["ok"]
            assert "RuntimeError" in response["error"]
            assert server.sessions_reset == 1
            # The replacement session answers correctly (cold, but right),
            # and thaws the heap to free the discarded session's modules.
            thaws = submit(server, {"op": "status"})["heap"]["thaws"]
            recovered = submit(server, {"op": "check_module"})
            assert recovered["ok"]
            assert submit(server, {"op": "status"})["heap"]["thaws"] == thaws + 1
            assert recovered["output"] == expected
            assert recovered["serve"]["entries_reanalyzed"] > 0
        finally:
            drain(server)

    def test_timeout_degrades_to_fresh_session(self, tmp_path, buggy_file):
        server = start_server(tmp_path, [buggy_file], request_timeout=0.2)
        try:
            release = threading.Event()
            stuck = server.session

            def stall(paths, overlay=None):
                # The daemon discards whatever the abandoned thread
                # returns, so it returns without analyzing: an analysis
                # here would compete with the recovery request below.
                release.wait(30)

            stuck.analyze_paths = stall
            response = submit(server, {"op": "check_module"})
            release.set()  # let the abandoned thread finish and exit
            assert not response["ok"]
            assert response["timed_out"] is True
            assert server.requests_timed_out == 1
            assert server.sessions_reset == 1
            assert server.session is not stuck
            # The fresh session's cold run is not what this test times.
            server.request_timeout = 30
            recovered = submit(server, {"op": "check_module"})
            assert recovered["ok"] and recovered["exit_code"] == 1
        finally:
            drain(server)

    def test_identical_queued_requests_coalesce(self, tmp_path, buggy_file, clean_file):
        server = start_server(tmp_path, [buggy_file, clean_file])
        try:
            release = threading.Event()
            original = server.session.analyze_paths
            state = {"first": True}

            def gated(paths, overlay=None):
                if state["first"]:
                    state["first"] = False
                    release.wait(30)
                return original(paths, overlay)

            server.session.analyze_paths = gated
            results = [None] * 4

            def client(i):
                results[i] = submit(server, {"op": "check_module"})

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            threads[0].start()
            # Wait until the scheduler is inside request 0, then pile
            # three identical requests into the queue behind it.
            while state["first"]:
                time.sleep(0.005)
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 10
            while True:
                with server._cond:
                    if len(server._queue) == 3:
                        break
                assert time.monotonic() < deadline
                time.sleep(0.005)
            release.set()
            for thread in threads:
                thread.join(30)
            assert all(r["ok"] for r in results)
            assert len({r["output"] for r in results}) == 1
            assert server.requests_coalesced == 2
            coalesced = sorted(r["serve"]["coalesced"] for r in results)
            assert coalesced == [0, 2, 2, 2]  # run 1: solo; run 2: group of 3
        finally:
            drain(server)

    def test_watch_reanalyzes_dirtied_closure(self, tmp_path, buggy_file, clean_file):
        server = start_server(tmp_path, [buggy_file, clean_file],
                              watch=True, poll_interval=0.05)
        try:
            submit(server, {"op": "check_module"})  # warm
            clean_file.write_text(BUGGY.replace("int f", "int h"))
            deadline = time.monotonic() + 20
            while server.watch_runs == 0:
                assert time.monotonic() < deadline, "watch never fired"
                time.sleep(0.02)
            # The watch job already re-analyzed exactly the dirtied
            # module's entries, so a client request right after is warm
            # *and* sees the edit.
            response = submit(server, {"op": "check_module"})
            assert response["serve"]["entries_reanalyzed"] == 0
            assert response["bugs"] == 2
            assert response["output"] == one_shot_output(
                [(str(buggy_file), BUGGY),
                 (str(clean_file), clean_file.read_text())])
        finally:
            drain(server)


# -- byte-identity across configs (tiers x workers) and concurrency ----------


TIER_WORKER_GRID = [("off", 1), ("steens", 1), ("flow", 1),
                    ("off", 4), ("steens", 4), ("flow", 4)]


class TestByteIdentity:
    @pytest.mark.parametrize("tier,workers", TIER_WORKER_GRID)
    def test_daemon_matches_cli_across_configs(self, tmp_path, buggy_file,
                                               clean_file, race_file,
                                               tier, workers, capsys):
        files = [buggy_file, clean_file, race_file]
        args = ["check", "--all-checkers", "--no-prune",
                "--alias-tier", tier, "--workers", str(workers)]
        exit_code = main(args + [str(f) for f in files])
        expected = capsys.readouterr().out
        config = AnalysisConfig(alias_tier=tier, workers=workers, prune=False)
        server = start_server(tmp_path, files, config=config,
                              checker_spec="all")
        try:
            for _ in range(2):  # cold, then warm — both must match
                response = submit(server, {"op": "check_module"})
                assert response["ok"]
                assert response["output"] == expected
                assert response["exit_code"] == exit_code
        finally:
            drain(server)

    def test_check_json_bugs_equal_daemon_reports(self, tmp_path, buggy_file,
                                                  clean_file, race_file, capsys):
        files = [buggy_file, clean_file, race_file]
        main(["check", "--json", "--checkers", "all,race", *map(str, files)])
        bugs = json.loads(capsys.readouterr().out)["bugs"]
        server = start_server(tmp_path, files, checker_spec="all,race")
        try:
            response = submit(server, {"op": "check_module"})
        finally:
            drain(server)
        assert len(bugs) >= 2
        assert response["reports"] == bugs
        # The daemon's protocol sorts keys; --json keeps the report order.
        assert [list(bug) for bug in bugs] == [
            ["kind", "checker", "file", "line", "source_file", "source_line",
             "message", "entry_function"]
        ] * len(bugs)

    def test_replay_and_cache_tier_match_cli_on_linux(self, tmp_path, capsys):
        """The linux corpus (×0.2, spec ``all``): a cold request, its
        replayed repeat, and a never-seen overlay answered from the
        resident store each print exactly what ``check`` prints."""
        corpus = generate(PROFILES_BY_NAME["linux"].scaled(0.2))
        files = []
        for name, text in corpus.compiled_sources():
            path = tmp_path / name.replace("/", "__")
            path.write_text(text)
            files.append(str(path))
        nonce = tmp_path / "nonce.c"
        nonce_text = BUGGY.replace("int f", "int nonce")
        cold_code = main(["check", "--all-checkers", *files])
        expected = capsys.readouterr().out
        nonce.write_text(nonce_text)
        diff_code = main(["check", "--all-checkers", *files, str(nonce)])
        expected_diff = capsys.readouterr().out
        server = start_server(tmp_path, files, checker_spec="all")
        try:
            cold = submit(server, {"op": "check_module"})
            warm = submit(server, {"op": "check_module"})
            diff = submit(server, {"op": "check_diff",
                                   "overlay": {str(nonce): nonce_text}})
        finally:
            drain(server)
        for response in (cold, warm):
            assert response["ok"]
            assert response["output"] == expected
            assert response["exit_code"] == cold_code
        assert cold["serve"]["replayed"] is False
        assert warm["serve"]["replayed"] is True
        assert warm["serve"]["entries_reanalyzed"] == 0
        assert diff["ok"] and diff["serve"]["replayed"] is False
        # Only the overlay's entry is new; the rest resolves from RAM.
        assert 0 < diff["serve"]["entries_reanalyzed"] < cold["serve"]["entries_reanalyzed"]
        assert diff["output"] == expected_diff
        assert expected_diff != expected  # the overlay's NPD is reported
        assert diff["exit_code"] == diff_code

    def test_concurrent_clients_same_and_overlapping(self, tmp_path,
                                                     buggy_file, clean_file):
        """Eight clients hammer one daemon with the full set, each
        subset, and a diff overlay; every response must equal the
        one-shot output for its request."""
        both = [str(buggy_file), str(clean_file)]
        edited = BUGGY.replace("int f", "int h")
        expected = {
            "both": one_shot_output([(both[0], BUGGY), (both[1], CLEAN)]),
            "buggy": one_shot_output([(both[0], BUGGY)]),
            "clean": one_shot_output([(both[1], CLEAN)]),
            "diff": one_shot_output([(both[0], BUGGY), (both[1], edited)]),
        }
        jobs = [
            ("both", {"op": "check_module"}),
            ("buggy", {"op": "check_module", "files": [both[0]]}),
            ("clean", {"op": "check_module", "files": [both[1]]}),
            ("diff", {"op": "check_diff", "overlay": {both[1]: edited}}),
        ] * 2
        server = start_server(tmp_path, [buggy_file, clean_file])
        try:
            results = [None] * len(jobs)

            def client(i, payload):
                results[i] = submit(server, dict(payload))

            threads = [threading.Thread(target=client, args=(i, payload))
                       for i, (_, payload) in enumerate(jobs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            for (name, _), response in zip(jobs, results):
                assert response is not None and response["ok"]
                assert response["output"] == expected[name], name
            status = submit(server, {"op": "status"})
            assert status["requests_served"] == len(jobs)
        finally:
            drain(server)


# -- stats schema -------------------------------------------------------------


class TestStatsSchema:
    def test_new_fields_default_to_zero(self):
        stats = AnalysisStats().to_dict()
        assert stats["queue_wait_seconds"] == 0.0
        assert stats["requests_served"] == 0
        assert stats["resident_cache_entries"] == 0

    def test_one_shot_cli_stats_json_carries_fields(self, tmp_path, buggy_file,
                                                    capsys):
        stats_file = tmp_path / "stats.json"
        main(["check", "--stats-json", str(stats_file), str(buggy_file)])
        capsys.readouterr()
        payload = json.loads(stats_file.read_text())
        assert payload["queue_wait_seconds"] == 0.0
        assert payload["requests_served"] == 0
        assert payload["resident_cache_entries"] == 0


# -- CLI subcommands ----------------------------------------------------------


class TestServeCli:
    def test_serve_rejects_missing_file(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "gone.c")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_serve_rejects_conflicting_checker_flags(self, buggy_file, capsys):
        code = main(["serve", "--all-checkers", "--checkers", "race",
                     str(buggy_file)])
        assert code == 2

    def test_submit_unreachable_server(self, tmp_path, capsys):
        code = main(["submit", "status",
                     "--socket", str(tmp_path / "nothing.sock")])
        assert code == 2
        assert "cannot reach server" in capsys.readouterr().err

    def test_submit_check_matches_check(self, tmp_path, buggy_file,
                                        clean_file, capsys):
        """End-to-end through the CLI surface: ``submit check_module``
        prints exactly what ``check`` prints and mirrors its exit code."""
        code = main(["check", str(buggy_file), str(clean_file)])
        expected = capsys.readouterr().out
        server = start_server(tmp_path, [buggy_file, clean_file])
        try:
            submit_code = main(["submit", "check_module",
                                "--socket", server.socket_path])
            out = capsys.readouterr().out
            assert out == expected
            assert submit_code == code == 1
            status_code = main(["submit", "status", "--json",
                                "--socket", server.socket_path])
            status = json.loads(capsys.readouterr().out)
            assert status_code == 0 and status["ok"]
            shutdown_code = main(["submit", "shutdown",
                                  "--socket", server.socket_path])
            payload = json.loads(capsys.readouterr().out)
            assert shutdown_code == 0 and payload["op"] == "shutdown"
            server.serve_forever()
        finally:
            server.close()

    def test_submit_check_diff_reads_client_side(self, tmp_path, buggy_file,
                                                 clean_file, capsys):
        server = start_server(tmp_path, [buggy_file, clean_file])
        try:
            code = main(["submit", "check_diff", str(clean_file),
                         "--socket", server.socket_path])
            out = capsys.readouterr().out
            assert code == 1  # root set still includes the buggy file
            assert out == one_shot_output(
                [(str(buggy_file), BUGGY), (str(clean_file), CLEAN)])
        finally:
            drain(server)
