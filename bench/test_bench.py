"""Self-test of the benchmark: ``pytest bench/`` (about a minute).

Every workload runs at scale 0.25 with the fewest ops a run allows
(three set-up cycles), once plain and once traced.  The traced run must
see every span a workload
exists to exercise; a span with no calls there means its wrapper was
patched at a binding the program never looks up.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["oneshot-linux", "edit-linux", "daemon-linux", "labs-parallel"]

#: the spans each workload is heavy in (README "Per-layer metrics")
HEAVY = {
    "oneshot-linux": [
        "lang.compile_program", "lang.lex", "lang.parse", "lang.lower",
        "presolve.build", "presolve.partition_entries",
        "pointsto.build_partition", "pointsto.compute_flow_facts",
        "core.explore_entries", "core.analyzer.explore", "alias.graph.update",
        "alias.trail.undo_to", "typestate.dispatch",
    ],
    "edit-linux": [
        "incremental.compile_with_cache", "incremental.store.get", "incremental.store.put",
        "incremental.store.commit", "incremental.plan", "incremental.commit",
    ],
    "daemon-linux": [
        "serve.session.analyze", "serve.store.get", "serve.store.put", "serve.store.commit",
    ],
    "labs-parallel": [
        "core.pata.analyze", "core.collector", "typestate.checkers_from_spec",
        "vfg.escaping_malloc_sites", "presolve.build", "presolve.partition_entries",
        "core.parallel.run_parallel", "core.parallel.merge_outcomes", "races.match_races",
        "xtaint.build_summaries", "xtaint.match_cross_module", "core.filter.run",
        "smt.translate", "smt.solve", "core.report.render",
    ],
}


def bench(tmp_path: pathlib.Path, *args: str) -> dict:
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--scale", "0.25", "--seconds", "0",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return {run["workload"]: run for run in json.loads(out.read_text())["runs"]}


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("plain"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return bench(tmp_path_factory.mktemp("traced"), "--trace", "1")


def declared(section: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_is_correct_and_complete(plain, workload):
    run = plain[workload]
    assert run["correct"] and run["failed"] == 0, run["failures"]
    assert run["truth"]["recall"] == 1.0
    metrics = run["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_sees_its_heavy_spans(traced, workload):
    run = traced[workload]
    assert run["correct"] and run["failed"] == 0, run["failures"]
    assert {k: v["unit"] for k, v in run["metrics"].items()} == declared("per_layer")
    calls = {}
    for span in run["trace_tree"]:
        calls[span["path"][-1]] = calls.get(span["path"][-1], 0) + span["calls"]
    idle = [name for name in HEAVY[workload] if not calls.get(name)]
    assert not idle, f"spans never entered on {workload}: {idle}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_tree_is_consistent(traced, workload):
    tree = traced[workload]["trace_tree"]
    by_path = {tuple(span["path"]): span for span in tree}
    children = {}
    for path, span in by_path.items():
        assert span["self_s"] >= 0, path
        if len(path) > 1:
            children[path[:-1]] = children.get(path[:-1], 0.0) + span["s"]
    for parent, total in children.items():
        assert total <= by_path[parent]["s"] * (1 + 1e-9), parent


def test_oneshot_trace_attributes_the_op(traced):
    """The spans account for all but a tenth of a traced one-shot op."""
    run = traced["oneshot-linux"]
    unattributed = run["metrics"]["trace.unattributed_s"]["value"]
    assert unattributed <= 0.1 * run["summary"]["traced_op_s"]["p50"]


def test_seed_changes_the_corpus(plain, tmp_path):
    other = bench(tmp_path, "--workload", "oneshot-linux", "--seed", "7")
    assert other["oneshot-linux"]["correct"]
    assert other["oneshot-linux"]["corpus_digest"] != plain["oneshot-linux"]["corpus_digest"]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oneshot-linux"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
