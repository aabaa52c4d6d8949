"""CLI tests (argument handling, exit codes, output formats)."""

import json

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


def test_check_json_stats_per_entry(buggy_file, clean_file, capsys):
    code = main(["check", "--json", "--stats", str(buggy_file), str(clean_file)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    entries = {e["entry"] for e in payload["stats"]["per_entry"]}
    assert entries == {"f", "g"}


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
