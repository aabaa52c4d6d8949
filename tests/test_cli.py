"""CLI tests (argument handling, exit codes, output formats)."""

import json
import logging
import os
import subprocess
import sys

import pytest

from repro.cli import main

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


def test_check_reports_bug_and_exits_1(buggy_file, capsys):
    code = main(["check", str(buggy_file)])
    out = capsys.readouterr().out
    assert code == 1
    assert "NULL-POINTER DEREFERENCE" in out


def test_check_clean_file_exits_0(clean_file, capsys):
    code = main(["check", str(clean_file)])
    assert code == 0
    assert "0 bug(s)" in capsys.readouterr().out


def test_check_missing_file_exits_2(capsys):
    code = main(["check", "/nonexistent/file.c"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_check_json_output(buggy_file, capsys):
    code = main(["check", "--json", str(buggy_file)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["bugs"][0]["kind"] == "NPD"
    assert payload["bugs"][0]["line"] == 5
    assert payload["stats"]["paths"] >= 1


def test_check_multiple_files(buggy_file, clean_file, capsys):
    code = main(["check", str(clean_file), str(buggy_file)])
    assert code == 1


def test_check_na_mode(buggy_file, capsys):
    # The direct param check is alias-free, so even NA finds it.
    code = main(["check", "--na", str(buggy_file)])
    assert code == 1


def test_check_no_validate(buggy_file, capsys):
    code = main(["check", "--no-validate", str(buggy_file)])
    assert code == 1


def test_check_stats_table(buggy_file, clean_file, capsys):
    code = main(["check", "--stats", str(buggy_file), str(clean_file)])
    out = capsys.readouterr().out
    assert code == 1
    # One per-entry row per analysis root, plus the table header.
    assert "entry" in out and "paths" in out and "budget" in out
    assert "f" in out and "g" in out


def test_check_workers_matches_sequential(buggy_file, clean_file, capsys):
    # --no-prune keeps the clean entry analyzed; P1.5 entry pruning would
    # drop it and leave too few entries to engage the parallel driver.
    code = main(["check", "--json", "--no-prune", str(buggy_file), str(clean_file)])
    sequential = json.loads(capsys.readouterr().out)
    code2 = main(["check", "--json", "--no-prune", "--workers", "2",
                  str(buggy_file), str(clean_file)])
    parallel = json.loads(capsys.readouterr().out)
    assert code == code2 == 1
    assert sequential["bugs"] == parallel["bugs"]
    assert parallel["stats"]["workers"] == 2


def test_unopenable_cache_dir_warns_once_and_runs_cache_off(tmp_path, buggy_file,
                                                           capsys, caplog):
    not_a_dir = tmp_path / "FILE"
    not_a_dir.write_text("")
    main(["check", str(buggy_file)])
    cache_off = capsys.readouterr().out
    with caplog.at_level(logging.WARNING):
        code = main(["check", "--cache", "rw", "--cache-dir", str(not_a_dir),
                     str(buggy_file)])
    assert code == 1
    assert capsys.readouterr().out == cache_off
    opens = [r for r in caplog.records if "cannot open" in r.getMessage()]
    assert len(opens) == 1


# Two files, each with its own ``static f`` helper called from its entry.
STATIC_F_NPD = """
struct s { int v; };
static int f(struct s *p) {
    if (!p) {
        return p->v;
    }
    return 0;
}
int eb(struct s *p) { return f(p); }
"""

STATIC_F_LEAK = """
static int f(int n) {
    int *p = malloc(8);
    if (n > 1) return -1;
    free(p);
    return 0;
}
int ec(int n) { return f(n); }
"""


def test_duplicate_function_name_warning_names_the_files(tmp_path, capsys, caplog):
    b = tmp_path / "b.c"
    b.write_text(STATIC_F_NPD)
    c = tmp_path / "c.c"
    c.write_text(STATIC_F_LEAK)
    with caplog.at_level(logging.WARNING):
        main(["check", str(b), str(c)])
    warnings = [r.getMessage() for r in caplog.records
                if "more than one file" in r.getMessage()]
    assert len(warnings) == 1
    assert f"f ({b}, {c})" in warnings[0]


@pytest.mark.parametrize("tier", ["off", "steens", "flow"])
@pytest.mark.parametrize("order,expected", [
    (("b.c", "c.c"), "NULL-POINTER DEREFERENCE"),
    (("c.c", "b.c"), "MEMORY LEAK"),
], ids=["bc", "cb"])
def test_duplicate_function_name_prunes_the_body_it_runs(tmp_path, capsys, order,
                                                         expected, tier):
    """A name defined twice resolves to its first definition everywhere:
    the explorer inlines that body, and P1.5 arms and prunes from the
    same one.  So pruning prints what ``--no-prune`` prints, in either
    file order and at every alias tier."""
    (tmp_path / "b.c").write_text(STATIC_F_NPD)
    (tmp_path / "c.c").write_text(STATIC_F_LEAK)
    args = ["check", "--alias-tier", tier, *(str(tmp_path / name) for name in order)]
    unpruned_code = main([*args, "--no-prune"])
    unpruned = capsys.readouterr().out
    assert expected in unpruned  # the first file's bug: vacuous otherwise
    assert main(args) == unpruned_code
    assert capsys.readouterr().out == unpruned


def test_same_file_twice_with_cache_matches_cache_off(tmp_path, monkeypatch, capsys,
                                                      caplog):
    """``a.c ./a.c`` defines every function twice.  Every cache layer
    keys by function name, so the run skips the cache: cold and warm
    runs print what the cache-off run prints instead of crashing."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.c").write_text(BUGGY)
    files = ["a.c", "./a.c"]
    cache_off_code = main(["check", *files])
    cache_off = capsys.readouterr().out
    for _ in range(2):  # cold, then warm
        code = main(["check", "--cache", "rw", "--cache-dir", "c", *files])
        assert code == cache_off_code
        assert capsys.readouterr().out == cache_off
    assert any("f (a.c, a.c)" in r.getMessage() for r in caplog.records)


def test_check_json_stats_per_entry(buggy_file, clean_file, capsys):
    code = main(["check", "--json", "--stats", str(buggy_file), str(clean_file)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    entries = {e["entry"] for e in payload["stats"]["per_entry"]}
    assert entries == {"f", "g"}


def test_check_json_with_stats_json_stdout_is_a_usage_error(buggy_file, capsys):
    """Both documents on stdout would not parse as one: rejected before
    any analysis, with nothing on stdout."""
    code = main(["check", "--json", "--stats-json", "-", str(buggy_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--stats-json" in captured.err


def test_check_json_with_stats_json_file(tmp_path, buggy_file, capsys):
    stats_path = tmp_path / "stats.json"
    code = main(["check", "--json", "--stats-json", str(stats_path), str(buggy_file)])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    stats = json.loads(stats_path.read_text())
    assert payload["bugs"][0]["kind"] == "NPD"
    assert stats["entry_functions"] == payload["stats"]["entries"] == 1


def test_check_stats_json_stdout_with_plain_output(buggy_file, capsys):
    code = main(["check", "--stats-json", "-", str(buggy_file)])
    out = capsys.readouterr().out
    assert code == 1
    start = out.index("{")
    stats, end = json.JSONDecoder().raw_decode(out, start)
    assert stats["entry_functions"] == 1
    assert "NULL-POINTER DEREFERENCE" in out[end:]


def test_corpus_stats(capsys):
    code = main(["corpus", "--os", "tencentos", "--scale", "0.3", "--stats"])
    out = capsys.readouterr().out
    assert code == 0
    assert "injected bugs" in out


def test_corpus_write_tree(tmp_path, capsys):
    code = main(["corpus", "--os", "tencentos", "--scale", "0.2", "--out", str(tmp_path)])
    assert code == 0
    truth = json.loads((tmp_path / "ground_truth.json").read_text())
    assert isinstance(truth, list)
    written = list(tmp_path.rglob("*.c"))
    assert written
    # Every ground-truth path exists on disk.
    for entry in truth:
        assert (tmp_path / entry["path"]).exists()


def test_eval_table4(capsys):
    code = main(["eval", "table4", "--scale", "0.15"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Table 4" in out and "linux" in out


def test_compare_runs(capsys):
    code = main(["compare", "--os", "tencentos", "--scale", "0.4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PATA" in out and "cppcheck-like" in out


def test_lint_reports_diagnostics(tmp_path, capsys):
    path = tmp_path / "l.c"
    path.write_text("int f(int a) { int unused = a; if (a) return 1; }")
    code = main(["lint", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "unused-var" in out and "missing-return" in out


def test_lint_clean_file(tmp_path, capsys):
    path = tmp_path / "c.c"
    path.write_text("int f(int a) { return a + 1; }")
    assert main(["lint", str(path)]) == 0


@pytest.mark.parametrize("source, where, message", [
    ("int f(void){ int x = 1 @ 2; return x; }", "1:24", "unexpected character '@'"),
    ("int f(void){\n  return 1\n}", "3:1", "expected ';', found '}'"),
    ("int f(void){\n  break;\n}", "2", "break outside loop/switch"),
], ids=["lex", "parse", "sema"])
def test_check_malformed_source_exits_2(tmp_path, capsys, source, where, message):
    path = tmp_path / "bad.c"
    path.write_text(source)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}:{where}: {message}\n"


#: sources nested past the frontend's nesting bounds: parentheses and
#: a left-deep sum past the expression bound, ``if`` blocks past the
#: statement bound
DEEP_SOURCES = {
    "parens": "int f(void){ return " + "(" * 200 + "1" + ")" * 200 + "; }\n",
    "ifs": "int f(int a){\n" + "if (a) {\n" * 300 + "a = 1;\n" + "}\n" * 300
           + "return a; }\n",
    "terms": "int f(int a){ return " + " + ".join(["a"] * 1000) + "; }\n",
}


@pytest.mark.parametrize("command", ["check", "lint"])
@pytest.mark.parametrize("shape", sorted(DEEP_SOURCES))
def test_deeply_nested_source_is_one_error_line(tmp_path, capsys, command, shape):
    path = tmp_path / f"{shape}.c"
    path.write_text(DEEP_SOURCES[shape])
    assert main([command, str(path)]) == 2
    _assert_one_error_line(capsys.readouterr(), f"{path}:", "too deep")


def _from_depth(depth: int, call):
    """``call()`` made ``depth`` frames deeper than this one."""
    return call() if depth == 0 else _from_depth(depth - 1, call)


@pytest.mark.parametrize("command", ["check", "lint"])
@pytest.mark.parametrize("shape", ["ifs-180", "ifs", "parens", "terms"])
def test_nesting_outcome_ignores_the_callers_stack(tmp_path, capsys, command, shape):
    """The frontend's nesting bounds are constants: a source compiles,
    or fails at the same ``file:line:col``, whether the CLI is called
    from a shallow stack, 60 or 300 frames deeper, or a fresh thread."""
    import re
    import threading

    from repro.lang.parser import MAX_STATEMENT_NESTING

    ifs_180 = ("int f(int a){\n" + "if (a) {\n" * 180 + "a = 1;\n" + "}\n" * 180
               + "return a; }\n")
    assert 2 * 180 < MAX_STATEMENT_NESTING < 2 * 300
    path = tmp_path / f"{shape}.c"
    path.write_text(ifs_180 if shape == "ifs-180" else DEEP_SOURCES[shape])
    outcomes = []
    for depth in (0, 60, 300):
        code = _from_depth(depth, lambda: main([command, str(path)]))
        outcomes.append((code, *capsys.readouterr()))
    threaded = []
    thread = threading.Thread(target=lambda: threaded.append(main([command, str(path)])))
    thread.start()
    thread.join()
    outcomes.append((threaded[0], *capsys.readouterr()))
    assert outcomes[1:] == outcomes[:1] * 3
    code, out, err = outcomes[0]
    if shape == "ifs-180":
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert re.fullmatch(rf"error: {re.escape(str(path))}:\d+:\d+: "
                            r"nesting too deep to parse\n", err)


def nested_ifs(levels: int) -> str:
    """A dereference of a null pointer ``levels`` nested ``if`` blocks
    deep: the explorer's path nests about two blocks per level."""
    return ("int deep(struct s *p, int x) {\n  if (!p) {\n"
            + "".join(f"if (x > {i}) {{\n" for i in range(levels))
            + "return p->v;\n" + "}\n" * levels + "  }\n  return 0;\n}\n")


def chained_ifs(levels: int) -> str:
    """``levels`` ``if`` statements in a row, then a null dereference:
    no syntactic nesting, but every path nests two blocks per ``if``."""
    return ("int deep(struct s *p, int x) {\n  int y = 0;\n"
            + "".join(f"  if (x > {i}) y = y + 1;\n" for i in range(levels))
            + "  if (!p) return p->v;\n  return y;\n}\n")


#: (source, exit code, paths of the deep entry or None for a source
#: error, whether the path-depth bound cuts the deep entry).  A 300-level
#: nest is already a source error; 600 ``if`` statements in a row nest
#: past the explorer's path-depth bound.
DEEP_PATHS = {
    "nested-120": (nested_ifs(120), 1, 122, False),
    "nested-180": (nested_ifs(180), 1, 182, False),
    "nested-400": (nested_ifs(400), 2, None, False),
    "chained-400": (chained_ifs(400), 1, 2000, True),
    "chained-600": (chained_ifs(600), 1, 0, True),
}


@pytest.mark.parametrize("shape", sorted(DEEP_PATHS))
def test_deep_paths_end_alike_everywhere(tmp_path, capsys, shape):
    """A path nested deeper than the interpreter's stack allows ends its
    entry budget-exhausted at a fixed depth, the same through ``check``,
    the worker pool, ``python -m repro`` and a daemon ``check_diff``:
    the same stdout and exit code, no traceback, no session reset."""
    from repro.core.analyzer import MAX_PATH_DEPTH
    from repro.serve import PataServer
    from repro import AnalysisConfig

    assert MAX_PATH_DEPTH < 2 * 600, "chained-600 must nest past the bound"
    source, code, paths, exhausted = DEEP_PATHS[shape]
    path = tmp_path / "deep.c"
    path.write_text(BUGGY + source)
    argv = ["check", "--no-prune", "--all-checkers", str(path)]
    stats = tmp_path / "stats.json"
    assert main(argv + ["--stats-json", str(stats)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if paths is None:
        assert out == "" and "too deep" in err
    else:
        assert out.count("NULL-POINTER DEREFERENCE") == (1 if shape == "chained-600" else 2)
        deep = json.loads(stats.read_text())["per_entry"][1]
        assert (deep["name"], deep["paths"], deep["budget_exhausted"]) == (
            "deep", paths, exhausted)

    assert main(argv + ["--workers", "2"]) == code
    assert capsys.readouterr().out == out

    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert "Traceback" not in proc.stderr

    path.write_text(BUGGY)
    server = PataServer(roots=[str(path)], socket_path=str(tmp_path / "pata.sock"),
                        config=AnalysisConfig(prune=False), checker_spec="all")
    server.start()
    try:
        path.write_text(BUGGY + source)
        assert main(["submit", "check_diff", str(path),
                     "--socket", server.socket_path]) == code
        assert capsys.readouterr().out == out
        assert server.sessions_reset == 0
    finally:
        server.request_shutdown()
        server.serve_forever()
        server.close()


def test_lint_malformed_source_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.c"
    path.write_text("int f(void){ return 0x; }")
    assert main(["lint", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}:1:21: malformed integer literal\n"


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# Unreadable inputs and out-of-range counts: one ``error:`` line, exit 2
# ---------------------------------------------------------------------------


def _unreadable(tmp_path, kind):
    """A path no source reader can take: a directory, or a file whose
    bytes are not UTF-8."""
    if kind == "directory":
        path = tmp_path / "srcdir"
        path.mkdir()
    else:
        path = tmp_path / "latin1.c"
        path.write_bytes(b"int f(void) { return 0; } /* caf\xe9 */\n")
    return path


def _assert_one_error_line(captured, *names):
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    for name in names:
        assert name in lines[0]
    assert captured.out == ""


@pytest.fixture
def no_long_runs(monkeypatch):
    """A command line that gets past validation fails loudly here
    instead of listening for requests or building paper tables."""
    import repro.evaluation
    import repro.serve

    def refuse(*args, **kwargs):
        raise AssertionError("the command ran despite a bad command line")

    monkeypatch.setattr(repro.serve, "PataServer", refuse)
    monkeypatch.setattr(repro.evaluation, "EvaluationHarness", refuse)


@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
@pytest.mark.parametrize("command", [["check"], ["lint"], ["submit", "check_diff"],
                                     ["serve"]],
                         ids=["check", "lint", "submit", "serve"])
def test_unreadable_input_is_one_error_line(tmp_path, capsys, no_long_runs,
                                            command, kind):
    path = _unreadable(tmp_path, kind)
    assert main(command + [str(path)]) == 2
    _assert_one_error_line(capsys.readouterr(), str(path))


def test_check_unwritable_stats_json_is_one_error_line(tmp_path, buggy_file, capsys):
    target = tmp_path / "missing" / "s.json"
    assert main(["check", "--stats-json", str(target), str(buggy_file)]) == 2
    _assert_one_error_line(capsys.readouterr(), str(target))


@pytest.mark.parametrize("case", ["missing-directory", "directory"])
def test_check_unusable_stats_json_fails_before_reading_sources(tmp_path, capsys, case):
    """The --stats-json target is checked before any source is read, so
    a source that does not parse cannot hide it: the one error line is
    the --stats-json one."""
    broken = tmp_path / "broken.c"
    broken.write_text("int f(void) { return 0 }\n")
    target = tmp_path / "missing" / "s.json" if case == "missing-directory" else tmp_path
    assert main(["check", "--stats-json", str(target), str(broken)]) == 2
    _assert_one_error_line(capsys.readouterr(), f"cannot write --stats-json {target}")


_BAD_COUNTS = [
    (["check", "--max-paths", "0"], "--max-paths"),
    (["check", "--max-paths", "-5"], "--max-paths"),
    (["check", "--workers", "-3"], "--workers"),
    (["serve", "--max-paths", "0"], "--max-paths"),
    (["serve", "--workers", "-1"], "--workers"),
    (["eval", "table4", "--workers", "-2"], "--workers"),
]


@pytest.mark.parametrize("command, option", _BAD_COUNTS,
                         ids=[" ".join(c) for c, _ in _BAD_COUNTS])
def test_out_of_range_count_is_a_usage_error(clean_file, capsys, no_long_runs,
                                             command, option):
    files = [] if command[0] == "eval" else [str(clean_file)]
    assert main(command + files) == 2
    _assert_one_error_line(capsys.readouterr(), option)


_BAD_SECONDS = [
    ["serve", "--watch", "--poll-interval", "-1"],
    ["serve", "--watch", "--poll-interval", "0"],
    ["serve", "--request-timeout", "-1"],
    ["serve", "--request-timeout", "0"],
    ["submit", "status", "--timeout", "-1"],
    ["submit", "status", "--timeout", "0"],
]


@pytest.mark.parametrize("command", _BAD_SECONDS, ids=" ".join)
def test_non_positive_seconds_is_a_usage_error(clean_file, capsys, no_long_runs,
                                               command):
    files = [str(clean_file)] if command[0] == "serve" else []
    assert main(command + files) == 2
    _assert_one_error_line(capsys.readouterr(), command[-2])


def test_zero_workers_still_means_one_per_cpu(clean_file, capsys):
    assert main(["check", "--workers", "0", str(clean_file)]) == 0
    assert "0 bug(s)" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["check-directory", "lint-non-utf8",
                                  "submit-directory", "stats-json", "max-paths",
                                  "check-deep", "lint-deep", "poll-interval",
                                  "request-timeout", "submit-timeout"])
def test_module_entry_point_exits_2_without_traceback(tmp_path, clean_file, case):
    """``python -m repro`` ends the process itself: the same failures
    must reach it as exit 2 and one ``error:`` line."""
    if case == "stats-json":
        argv = ["check", "--stats-json", str(tmp_path / "missing" / "s.json"),
                str(clean_file)]
    elif case == "max-paths":
        argv = ["check", "--max-paths", "0", str(clean_file)]
    elif case.endswith("-deep"):
        deep = tmp_path / "deep.c"
        deep.write_text(DEEP_SOURCES["parens"])
        argv = [case.split("-")[0], str(deep)]
    elif case in ("poll-interval", "request-timeout"):
        argv = ["serve", "--watch", f"--{case}", "-1", str(clean_file)]
    elif case == "submit-timeout":
        argv = ["submit", "status", "--timeout", "-1"]
    else:
        command, kind = case.split("-", 1)
        argv = (["submit", "check_diff"] if command == "submit" else [command]) + [
            str(_unreadable(tmp_path, kind))]
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
