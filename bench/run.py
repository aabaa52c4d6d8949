"""The repository benchmark: end-to-end and per-layer numbers for ``repro``.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--runs R] [--scale F] [--out FILE]

Run from anywhere; the benchmark works in the checkout that holds it.
It byte-compiles ``src/``, generates each workload's corpus from
``--seed`` and drives the program only from outside: ``python -m repro
check`` as one subprocess per operation, and ``python -m repro serve`` as
a daemon spoken to over its unix socket.  Every output is checked
against the corpus generator's ground truth and against the workload's
reference report set.  Every metric is printed by name and unit; the
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  The exit code is 1 when a
check failed, and 2 when the checkout holds no program to measure.

A run repeats one cycle for ``--seconds`` seconds: a timed set-up, then
a fixed number of timed ops.  At least ``SETUP_REPEATS`` cycles start,
so ``setup_s`` is a median too.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` alternates plain ops with
ops launched through ``bench/traced.py`` (timing wrappers at each layer
boundary) and reports its per-layer metrics.  ``--runs R`` measures each
workload R times, on seeds ``seed .. seed+R-1``; ``--out FILE`` writes
every run's sample counts and quartiles, checks and trace tree as JSON
for ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import dataclasses
import hashlib
import json
import os
import pathlib
import platform
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
TRACED = BENCH / "traced.py"

#: a process or request taking longer than this counts as failed; ops
#: take a few seconds, and a run must end within three minutes
OP_TIMEOUT_S = 60.0
#: the fewest set-ups (cycles) a run starts; ``setup_s`` is their median
SETUP_REPEATS = 3
#: ``python -c "import repro.cli"`` children timed for ``process.import_s``
IMPORT_REPEATS = 5
#: unchanged-tree ``check_module`` requests sent after each daemon diff
REPLAYS_PER_DIFF = 10
#: the leak each edit op appends; ``i`` is unique within a run
EDIT_FUNCTION = (
    "int bench_edit_{i}(int n){{ int *p = malloc(8); "
    "if (n > {i}) return -1; free(p); return 0; }}"
)
#: Every generated file gets the same number of snippets and is
#: compiled, so the work of an op barely moves with the seed; the seed
#: still redraws every snippet, bug and bait.
LINUX_SNIPPETS = 6
LINUX_SCALE = 1.0
#: the daemon keeps what each diff adds resident, so a cycle serves a
#: fixed number of diffs; half the tree fits three cycles in a run
DAEMON_SCALE = 0.5
LINUX_KINDS = ("NPD", "UVA", "ML", "DOUBLE_LOCK", "ARRAY_UNDERFLOW", "DIV_BY_ZERO")
LAB_SCALE = 3.0
LAB_SNIPPETS = {"taintlab": 4, "racelab": 3, "firmlab": 2}
LAB_KINDS = ("TAINT", "RACE")
LAB_WORKERS = 2


class BenchError(Exception):
    """A run that cannot go on, such as a set-up that failed."""


# ---------------------------------------------------------------------------
# Corpora and output checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Corpus:
    files: List[str]
    generated: object
    kinds: frozenset


def write_corpus(root: pathlib.Path, profile, kinds: Sequence[str]) -> Corpus:
    """Generate ``profile`` and write its compiled files under ``root``
    with their corpus-relative paths.  The CLI runs with ``cwd`` = ``root``,
    so report text never holds the work directory's name."""
    from repro.corpus import generate
    from repro.typestate import BugKind

    generated = generate(profile)
    files = []
    for f in generated.compiled_files():
        target = root / f.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(f.source)
        files.append(f.path)
    return Corpus(files, generated, frozenset(BugKind[k] for k in kinds))


def corpus_digest(corpora: Sequence[Corpus]) -> str:
    h = hashlib.sha256()
    for corpus in corpora:
        for f in corpus.generated.compiled_files():
            h.update(f.path.encode() + b"\0" + f.source.encode() + b"\0")
    return h.hexdigest()


Blocks = "collections.Counter[str]"
_REPORT_HEAD = re.compile(r"^(.+) \[[\w-]+\] at (.+):(\d+)$")


def report_blocks(output: str) -> Blocks:
    """The report blocks of ``check``'s plain output, as a multiset.
    Raises ``ValueError`` when the text is not that output."""
    parts = output.split("\n\n")
    blocks, summary = parts[:-1], parts[-1].strip()
    if not summary.startswith(f"{len(blocks)} bug(s)"):
        raise ValueError(f"unexpected check output ending {summary[:80]!r}")
    return collections.Counter(blocks)


def findings(blocks: Blocks) -> List[Tuple[object, str, int]]:
    """(kind, file, line) of each report."""
    from repro.typestate import BugKind

    by_value = {kind.value.upper(): kind for kind in BugKind}
    out = []
    for block in blocks.elements():
        match = _REPORT_HEAD.match(block.split("\n", 1)[0])
        if match is None or match.group(1) not in by_value:
            raise ValueError(f"unparsable report head {block[:80]!r}")
        out.append((by_value[match.group(1)], match.group(2), int(match.group(3))))
    return out


def score(blocks: Blocks, corpora: Sequence[Corpus]) -> Dict[str, float]:
    """Ground-truth recall and bait hits of one report set.  An injected
    bug counts when the workload's checkers report its kind; flows only
    reportable under ``--taint-borders`` are left out."""
    found_list = findings(blocks)
    injected = found = bait_hits = 0
    for corpus in corpora:
        for gt in corpus.generated.ground_truth:
            if gt.kind in corpus.kinds and not gt.requires.border:
                injected += 1
                found += any(gt.covers(*f) for f in found_list)
        for kind, path, line in found_list:
            bait_hits += any(b.covers(kind, path, line) for b in corpus.generated.bait_regions)
    return {"injected": injected, "found": found,
            "recall": found / injected if injected else 1.0,
            "bait_hits": bait_hits, "reports": len(found_list)}


def diff_error(blocks: Blocks, reference: Blocks,
               edit: Optional[Tuple[str, int, int]]) -> Optional[str]:
    """Why ``blocks`` is not ``reference`` plus exactly the leak report
    of ``edit`` = (path, line, index), or ``None`` when it is."""
    missing = reference - blocks
    extra = blocks - reference
    if missing:
        return f"{sum(missing.values())} reference report(s) missing"
    if edit is None:
        return f"{sum(extra.values())} unexpected report(s)" if extra else None
    path, line, index = edit
    head = f"MEMORY LEAK [ml] at {path}:{line}\n"
    tail = f"entry function:    bench_edit_{index}"
    if sum(extra.values()) != 1 or not any(b.startswith(head) and tail in b for b in extra):
        return (f"expected only the edit's leak at {path}:{line}, "
                f"got {sum(extra.values())} new report(s)")
    return None


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Proc:
    seconds: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float


def _rss_mb(usage) -> float:
    return usage.ru_maxrss / (1024 * 1024 if sys.platform == "darwin" else 1024)


def run_process(argv: List[str], cwd: pathlib.Path, env: dict, scratch: pathlib.Path) -> Proc:
    """Run one child to completion: wall time from spawn to reap, and
    the peak resident set ``os.wait4`` reports, which on Linux covers
    the child's reaped workers too."""
    out_path, err_path = scratch / "stdout.txt", scratch / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(seconds, proc.returncode, out_path.read_text(), err_path.read_text(),
                _rss_mb(usage))


class Daemon:
    """One ``repro serve`` child and a line-JSON connection to it.
    Construction spawns it and waits for the answer to a first
    ``check_module``; :attr:`setup_s` is that whole span."""

    def __init__(self, argv: List[str], cwd: pathlib.Path, env: dict,
                 socket_name: str, stderr_path: pathlib.Path,
                 trace_out: Optional[pathlib.Path]):
        self.trace_out = trace_out
        self.sock: Optional[socket.socket] = None
        self.rfile = None
        self.rss_mb: Optional[float] = None
        start = time.perf_counter()
        with open(stderr_path, "w") as err:
            self.proc = subprocess.Popen(argv + ["--socket", socket_name], cwd=cwd, env=env,
                                         stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                         stderr=err, text=True)
        killer = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        killer.start()
        try:
            if not self.proc.stdout.readline().startswith("serving"):
                raise BenchError(f"daemon did not start: {stderr_path.read_text()[-300:]}")
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(OP_TIMEOUT_S)
            # relative to the checkout root, the cwd: unix socket paths are short
            self.sock.connect(os.path.relpath(cwd / socket_name))
            self.rfile = self.sock.makefile("rb")
            _, self.first = self.request({"op": "check_module"})
        except BaseException:
            self.close()
            raise
        finally:
            killer.cancel()
        self.setup_s = time.perf_counter() - start

    def request(self, payload: dict) -> Tuple[float, dict]:
        """One request; the seconds from send to the response's last byte."""
        data = (json.dumps(payload) + "\n").encode()
        start = time.perf_counter()
        try:
            self.sock.sendall(data)
            line = self.rfile.readline()
            seconds = time.perf_counter() - start
            if not line:
                raise BenchError("daemon closed the connection")
            return seconds, json.loads(line)
        except (OSError, ValueError) as exc:
            raise BenchError(f"daemon request {payload['op']} failed: {exc}") from exc

    def close(self) -> float:
        """Shut the daemon down and reap it (once); returns its peak RSS
        in MB.  The connection closes before the wait: the daemon's
        shutdown blocks while a client connection stays open."""
        if self.rss_mb is not None:
            return self.rss_mb
        if self.sock is not None:
            try:
                self.request({"op": "shutdown"})
            except BenchError:
                pass
            if self.rfile is not None:
                self.rfile.close()
            self.sock.close()
        killer = threading.Timer(30.0, self.proc.kill)
        killer.start()
        try:
            self.proc.stdout.read()
            self.proc.stdout.close()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = _rss_mb(usage)
        return self.rss_mb


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Ctx:
    """What one run of one workload accumulates.  ``seed`` ``None``
    means each corpus profile's own seed; ``run`` offsets either."""

    def __init__(self, seed: Optional[int], run: int, scale: float, work: pathlib.Path):
        self.seed = seed
        self.run = run
        self.scale = scale
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.samples: Dict[str, List[float]] = collections.defaultdict(list)
        self.rss: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.traces: List[dict] = []
        self.traced_ops = 0
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self.truth: Optional[Dict[str, float]] = None
        self.reference_digest = ""
        self._trace_files = 0

    def profile(self, profile, scale: float, snippets: int):
        """``profile`` at ``scale`` (times the run's), seeded, with
        ``snippets`` snippets in every file and every file compiled."""
        seed = (self.seed if self.seed is not None else profile.seed) + self.run
        return dataclasses.replace(profile.scaled(scale * self.scale), seed=seed,
                                   snippets_per_file=(snippets, snippets),
                                   excluded_fraction=0.0)

    def check(self, what: str, error: Optional[str]) -> bool:
        """Count one attempted operation; record it failed on ``error``."""
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")
        return error is None

    def trace_path(self) -> pathlib.Path:
        self._trace_files += 1
        return self.work / f"trace-{self._trace_files}.json"

    def add_traces(self, traces: List[dict]) -> None:
        """Adopt a process's traces, renumbered so each id is unique in the run."""
        for trace in traces:
            self.traces.append(dict(trace, id=len(self.traces)))

    def argv(self, args: List[str], trace_out: Optional[pathlib.Path]) -> List[str]:
        if trace_out is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(TRACED), "--trace-out", str(trace_out), "--", *args]

    def cli(self, args: List[str], cwd: pathlib.Path, traced: bool = False) -> Proc:
        """One CLI child; a traced one adds its traces to the run's."""
        trace_out = self.trace_path() if traced else None
        proc = run_process(self.argv(args, trace_out), cwd, self.env, self.work)
        self.rss.append(proc.rss_mb)
        if trace_out is not None and trace_out.exists():
            self.add_traces(json.loads(trace_out.read_text())["traces"])
        return proc

    def import_seconds(self) -> float:
        proc = run_process([sys.executable, "-c", "import repro.cli"], ROOT, self.env, self.work)
        if proc.code != 0:
            raise BenchError(f"import repro.cli failed: {proc.stderr.strip()[-300:]}")
        return proc.seconds


def cli_error(proc: Proc) -> Optional[str]:
    if proc.code not in (0, 1):
        return f"exit code {proc.code}: {proc.stderr.strip()[-300:]}"
    return None


class Workload:
    """One workload: ``prepare`` (untimed), then cycles of ``setup``
    (timed) and ``ops_per_setup`` timed ``op`` calls.  The reference
    report set is a list with one multiset per CLI process of an op."""

    name = ""
    ops_per_setup = 4

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.root = ctx.work / "corpus"
        self.corpora: List[Corpus] = []
        self.reference: Optional[List[Blocks]] = None

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self, trace: bool) -> float:
        """One timed set-up; by default the program's start-up."""
        return self.ctx.import_seconds()

    def op(self, index: int, traced: bool) -> Optional[float]:
        """One timed op: its seconds, or ``None`` when it failed."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def set_reference(self, outputs: List[str]) -> Optional[str]:
        """Adopt the first fresh analysis as the reference; it must
        report every injected bug."""
        try:
            blocks = [report_blocks(output) for output in outputs]
            truth = score(sum(blocks, collections.Counter()), self.corpora)
        except ValueError as exc:
            return str(exc)
        self.reference = blocks
        self.ctx.truth = truth
        self.ctx.reference_digest = hashlib.sha256("\0".join(
            "\n\n".join(sorted(b.elements())) for b in blocks).encode()).hexdigest()
        if truth["found"] != truth["injected"]:
            return f"recall {truth['found']}/{truth['injected']} injected bugs"
        return None

    def compare(self, outputs: List[str], edit=None) -> Optional[str]:
        """Check an op's outputs; the first fresh analysis sets the reference."""
        if self.reference is None:
            return self.set_reference(outputs)
        try:
            for output, reference in zip(outputs, self.reference):
                error = diff_error(report_blocks(output), reference, edit)
                if error is not None:
                    return error
        except ValueError as exc:
            return str(exc)
        return None

    def linux_corpus(self, scale: float) -> None:
        from repro.corpus import LINUX

        profile = self.ctx.profile(LINUX, scale, LINUX_SNIPPETS)
        self.corpora = [write_corpus(self.root, profile, LINUX_KINDS)]
        self.files = self.corpora[0].files
        self.edit_rng = random.Random(f"edit-{profile.seed}")

    def edit(self, index: int) -> Tuple[str, str, Tuple[str, int, int]]:
        """A seeded-random file and its text with op ``index``'s leak
        appended: (path, edited text, (path, leak line, index))."""
        path = self.edit_rng.choice(self.files)
        original = (self.root / path).read_text()
        edited = original + EDIT_FUNCTION.format(i=index) + "\n"
        return path, edited, (path, original.count("\n") + 1, index)


class OneshotLinux(Workload):
    name = "oneshot-linux"

    def prepare(self) -> None:
        self.linux_corpus(LINUX_SCALE)

    def op(self, index: int, traced: bool) -> Optional[float]:
        proc = self.ctx.cli(["check", "--all-checkers", *self.files], self.root, traced)
        error = cli_error(proc) or self.compare([proc.stdout])
        return proc.seconds if self.ctx.check(f"op {index}", error) else None


class EditLinux(Workload):
    name = "edit-linux"

    def prepare(self) -> None:
        self.linux_corpus(LINUX_SCALE)
        self.cache = self.root / "cache"
        self.edited: Optional[Tuple[str, str]] = None

    def args(self) -> List[str]:
        return ["check", "--all-checkers", "--cache", "rw", "--cache-dir", "cache", *self.files]

    def setup(self, trace: bool) -> float:
        """One cold run of the unedited tree, populating a fresh cache."""
        self.restore()
        shutil.rmtree(self.cache, ignore_errors=True)
        proc = self.ctx.cli(self.args(), self.root)
        error = cli_error(proc) or self.compare([proc.stdout])
        if not self.ctx.check("populating run", error):
            raise BenchError(f"populating run: {error}")
        return proc.seconds

    def op(self, index: int, traced: bool) -> Optional[float]:
        self.restore()
        path, text, expected = self.edit(index)
        self.edited = (path, (self.root / path).read_text())
        (self.root / path).write_text(text)
        before = dir_bytes(self.cache) if traced else 0
        proc = self.ctx.cli(self.args(), self.root, traced)
        if traced:
            self.ctx.counters["incremental.store.bytes_written"] += dir_bytes(self.cache) - before
        error = cli_error(proc) or self.compare([proc.stdout], expected)
        return proc.seconds if self.ctx.check(f"op {index}", error) else None

    def restore(self) -> None:
        if self.edited is not None:
            path, original = self.edited
            (self.root / path).write_text(original)
            self.edited = None

    def close(self) -> None:
        self.restore()


def dir_bytes(path: pathlib.Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class DaemonLinux(Workload):
    """Each cycle spawns a fresh daemon: what a diff adds stays resident,
    so a fixed number of diffs per daemon keeps op time and peak memory
    independent of how many ops the run fits in."""

    name = "daemon-linux"
    ops_per_setup = 8

    def prepare(self) -> None:
        self.linux_corpus(DAEMON_SCALE)
        self.spawned = 0
        self.plain: Optional[Daemon] = None
        self.traced: Optional[Daemon] = None
        # The reference: a cache-off one-shot run, outside the set-up
        # time; peak memory is the daemons' alone.
        proc = self.ctx.cli(["check", "--all-checkers", *self.files], self.root)
        self.ctx.rss.clear()
        error = cli_error(proc) or self.compare([proc.stdout])
        if not self.ctx.check("reference run", error):
            raise BenchError(f"reference run: {error}")

    def spawn(self, traced: bool) -> Daemon:
        n = self.spawned
        self.spawned += 1
        trace_out = self.ctx.trace_path() if traced else None
        daemon = Daemon(self.ctx.argv(["serve", "--all-checkers", *self.files], trace_out),
                        self.root, self.ctx.env, f"d{n}.sock",
                        self.ctx.work / f"daemon-{n}.err", trace_out)
        error = self.response_error(daemon.first, None, False)
        if not self.ctx.check(f"daemon {n} first answer", error):
            self.retire(daemon)
            raise BenchError(f"daemon {n} first answer: {error}")
        return daemon

    def setup(self, trace: bool) -> float:
        """Replace the daemons; the time is the plain one's spawn until
        its first (cold) answer."""
        self.close()
        self.plain = self.spawn(False)
        if trace:
            self.traced = self.spawn(True)
        return self.plain.setup_s

    def op(self, index: int, traced: bool) -> Optional[float]:
        """One check_diff, then replays of the unchanged tree."""
        daemon = self.traced if traced else self.plain
        path, text, expected = self.edit(index)
        seconds, response = daemon.request({"op": "check_diff", "overlay": {path: text}})
        ok = self.ctx.check(f"diff {index}", self.response_error(response, expected, False))
        if traced and ok:
            self.ctx.counters["serve.requests"] += 1
            self.ctx.counters["serve.request_s"] += seconds
            self.ctx.counters["serve.queue_wait_s"] += response["serve"]["queue_wait_seconds"]
        for replay in range(REPLAYS_PER_DIFF):
            replay_s, answer = daemon.request({"op": "check_module"})
            error = self.response_error(answer, None, True)
            if self.ctx.check(f"replay {index}.{replay}", error):
                self.ctx.samples["traced_replay_s" if traced else "replay_s"].append(replay_s)
            if traced:
                self.ctx.counters["serve.requests"] += 1
                self.ctx.counters["serve.replays"] += error is None
        return seconds if ok else None

    def response_error(self, response: dict, edit, replay: bool) -> Optional[str]:
        if not response.get("ok"):
            return response.get("error", "request failed")
        if bool(response["serve"]["replayed"]) != replay:
            return "not answered by the replay memo" if replay else "answered by the replay memo"
        return self.compare([response["output"]], edit)

    def retire(self, daemon: Daemon) -> None:
        self.ctx.rss.append(daemon.close())
        if daemon.trace_out is not None and daemon.trace_out.exists():
            # Request traces arrive in order: the set-up's check_module,
            # then per op one check_diff and its replays.  Keep the diffs.
            traces = [t for t in json.loads(daemon.trace_out.read_text())["traces"]
                      if t["root"] == "serve.session.analyze"]
            self.ctx.add_traces(traces[1::1 + REPLAYS_PER_DIFF])

    def close(self) -> None:
        for daemon in (self.plain, self.traced):
            if daemon is not None:
                self.retire(daemon)
        self.plain = self.traced = None


class LabsParallel(Workload):
    name = "labs-parallel"

    def prepare(self) -> None:
        from repro.corpus import FIRMLAB, RACELAB, TAINTLAB

        self.corpora = [
            write_corpus(self.root, self.ctx.profile(profile, LAB_SCALE,
                                                     LAB_SNIPPETS[profile.name]), LAB_KINDS)
            for profile in (TAINTLAB, RACELAB, FIRMLAB)
        ]

    def op(self, index: int, traced: bool) -> Optional[float]:
        seconds, outputs, error = 0.0, [], None
        for corpus in self.corpora:
            proc = self.ctx.cli(["check", "--checkers", "taint,race,xtaint",
                                 "--workers", str(LAB_WORKERS), *corpus.files],
                                self.root, traced)
            seconds += proc.seconds
            outputs.append(proc.stdout)
            error = error or cli_error(proc)
        error = error or self.compare(outputs)
        return seconds if self.ctx.check(f"op {index}", error) else None


WORKLOADS = {cls.name: cls for cls in (OneshotLinux, EditLinux, DaemonLinux, LabsParallel)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, quartiles and, where ten samples lie beyond it, p95."""
    out = {"n": len(values)}
    if not values:
        return out
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    out.update(p25=q1, p50=statistics.median(values), p75=q3)
    if len(values) >= 200:
        out["p95"] = statistics.quantiles(values, n=20)[18]
    return out


def trace_tree(ctx: Ctx) -> List[dict]:
    """Spans of the traced ops, per path, as means per traced op."""
    per_path: Dict[Tuple[str, ...], List[float]] = {}
    for trace in ctx.traces:
        for span in trace["spans"]:
            agg = per_path.setdefault(tuple(span["path"]), [0, 0.0, 0.0])
            agg[0] += span["calls"]
            agg[1] += span["s"]
            agg[2] += span["self_s"]
    n = max(ctx.traced_ops, 1)
    return [{"path": list(path), "calls": calls / n, "s": s / n, "self_s": self_s / n}
            for path, (calls, s, self_s) in sorted(per_path.items())]


def run_counters(ctx: Ctx) -> Dict[str, float]:
    """The traces' counters plus the benchmark's own, summed over the run."""
    counters: Dict[str, float] = collections.defaultdict(float, ctx.counters)
    for trace in ctx.traces:
        for key, value in trace["counters"].items():
            counters[key] += value
    return counters


def layer_values(ctx: Ctx, tree: List[dict]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric a traced run gives, per traced op.  A root
    span's self time is unattributed, not its layer's; a layer's share is
    its self time over the roots' time."""
    from traced import LAYERS, SPAN_LAYER

    calls = dict.fromkeys(SPAN_LAYER, 0.0)
    incl = dict.fromkeys(SPAN_LAYER, 0.0)
    layer_s = dict.fromkeys(LAYERS, 0.0)
    root_s = unattributed_s = 0.0
    for span in tree:
        name = span["path"][-1]
        calls[name] += span["calls"]
        incl[name] += span["s"]
        if len(span["path"]) == 1:
            root_s += span["s"]
            unattributed_s += span["self_s"]
        else:
            layer_s[SPAN_LAYER[name]] += span["self_s"]
    n = max(ctx.traced_ops, 1)
    counters = run_counters(ctx)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_LAYER:
        values[f"{name}.calls"] = (calls[name], "count")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (layer_s[layer], "s")
        values[f"{layer}.share"] = (100 * ratio(layer_s[layer], root_s), "%")
    values.update({
        "lang.lex.tokens_per_s": (ratio(counters["lang.lex.tokens"], incl["lang.lex"] * n), "1/s"),
        "incremental.store.hit_ratio": (
            ratio(counters["incremental.store.hits"], calls["incremental.store.get"] * n), "ratio"),
        "incremental.store.bytes_written": (counters["incremental.store.bytes_written"] / n, "bytes"),
        "serve.store.hit_ratio": (
            ratio(counters["serve.store.hits"], calls["serve.store.get"] * n), "ratio"),
        "serve.replay_ratio": (ratio(counters["serve.replays"], counters["serve.requests"]), "ratio"),
        "serve.queue_wait.share": (
            100 * ratio(counters["serve.queue_wait_s"], counters["serve.request_s"]), "%"),
        "serve.replay_speedup": (ratio(median_or_0(ctx.samples["op_s"]),
                                       median_or_0(ctx.samples["replay_s"])), "ratio"),
        "presolve.skip_ratio": (ratio(counters["presolve.skipped"], counters["presolve.entries"]),
                                "ratio"),
        "smt.drop_ratio": (ratio(counters["smt.unsat"], calls["smt.solve"] * n), "ratio"),
        "process.import_s": (statistics.median(ctx.samples["import_s"]), "s"),
        "trace.unattributed_s": (unattributed_s, "s"),
        "trace.overhead": (ratio(statistics.median(ctx.samples["traced_op_s"]),
                                 statistics.median(ctx.samples["op_s"])) - 1.0, "ratio"),
    })
    return values


def median_or_0(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_values(ctx: Ctx) -> Dict[str, Tuple[float, str]]:
    return {
        "setup_s": (statistics.median(ctx.samples["setup_s"]), "s"),
        "op_s_p50": (statistics.median(ctx.samples["op_s"]), "s"),
        "peak_rss_mb": (max(ctx.rss), "MB"),
        "recall": (ctx.truth["recall"], "ratio"),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure(name: str, seed: Optional[int], run: int, seconds: float, trace: bool,
            scale: float, declared: Dict[str, str]) -> dict:
    """One run of one workload: its record, metrics included."""
    work = BENCH / "out" / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(seed, run, scale, work)
    workload = WORKLOADS[name](ctx)
    started = time.perf_counter()
    ops = setups = 0
    try:
        workload.prepare()
        digest = corpus_digest(workload.corpora)
        if trace:
            ctx.samples["import_s"] = [ctx.import_seconds() for _ in range(IMPORT_REPEATS)]
        begin = time.perf_counter()
        while (setups < SETUP_REPEATS or ops < 1 + trace
               or time.perf_counter() - begin < seconds):
            if ops % workload.ops_per_setup == 0:
                ctx.samples["setup_s"].append(workload.setup(trace))
                setups += 1
            traced = trace and ops % 2 == 1
            op_s = workload.op(ops, traced)
            ctx.traced_ops += traced
            if op_s is not None:
                ctx.samples["traced_op_s" if traced else "op_s"].append(op_s)
            ops += 1
    except BenchError as exc:
        ctx.failures.append(str(exc))
        digest = ""
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    correct = not ctx.failures and ctx.truth is not None
    record = {
        "workload": name, "seed": seed, "run": run, "seconds": seconds, "trace": int(trace),
        "scale": scale, "correct": correct, "attempted": max(ctx.attempted, 1),
        "failed": len(ctx.failures), "failures": ctx.failures[:20],
        "degraded": name == "labs-parallel" and available_cpus() < LAB_WORKERS,
        "wall_s": time.perf_counter() - started, "ops": ops,
        "corpus_digest": digest, "reference_digest": ctx.reference_digest,
        "truth": ctx.truth,
        "summary": {key: summarize(values) for key, values in ctx.samples.items()},
        "metrics": {},
    }
    if correct:
        tree = trace_tree(ctx) if trace else []
        values = layer_values(ctx, tree) if trace else end_to_end_values(ctx)
        for metric, unit in declared.items():
            if metric not in values or values[metric][1] != unit:
                raise SystemExit(f"BENCHMARK.json declares {metric} [{unit}], "
                                 f"run.py measures {values.get(metric)}")
            record["metrics"][metric] = {"value": values[metric][0], "unit": unit}
        record["trace_tree"] = tree
        record["counters"] = run_counters(ctx) if trace else {}
    return record


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_references(records: List[dict]) -> None:
    """oneshot-linux and edit-linux analyze the same tree: on each seed
    both runs made, their reference report sets must be equal."""
    by_seed: Dict[Tuple, Dict[str, str]] = collections.defaultdict(dict)
    for r in records:
        if r["workload"] in ("oneshot-linux", "edit-linux") and r["correct"]:
            by_seed[(r["seed"], r["run"], r["scale"])][r["workload"]] = r["reference_digest"]
    for key, digests in by_seed.items():
        if len(set(digests.values())) > 1:
            for r in records:
                if (r["seed"], r["run"], r["scale"]) == key and r["workload"] == "edit-linux":
                    r["correct"] = False
                    r["failed"] += 1
                    r["failures"].append("reference differs from oneshot-linux's")


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}+{record['run']}  "
          f"trace {record['trace']}  {record['ops']} ops in {record['wall_s']:.1f} s"
          + ("  [degraded: fewer CPUs than workers]" if record["degraded"] else ""))
    for metric, entry in record["metrics"].items():
        print(f"  {metric:38s} {entry['value']:14.6g} {entry['unit']}")
    for key, summary in record["summary"].items():
        quartiles = "  ".join(f"{k}={v:.6g}" for k, v in summary.items() if k != "n")
        print(f"  {key:38s} n={summary['n']}  {quartiles}")
    truth = record["truth"]
    if truth is not None:
        print(f"  recall {truth['found']}/{truth['injected']}  bait_hits {truth['bait_hits']}  "
              f"reports {truth['reports']}")
    print(f"  error_rate {record['failed']}/{record['attempted']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def result_line(records: List[dict]) -> dict:
    """The last stdout line: one run's metrics, or with several runs the
    median of each ``workload/metric`` over that workload's runs."""
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        grouped: Dict[str, List[dict]] = collections.defaultdict(list)
        for record in records:
            for metric, entry in record["metrics"].items():
                grouped[f"{record['workload']}/{metric}"].append(entry)
        metrics = {key: {"value": statistics.median(e["value"] for e in entries),
                         "unit": entries[0]["unit"]} for key, entries in grouped.items()}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="corpus and edit seed (default: each profile's own)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on consecutive seeds")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale factor (the self-test uses 0.25)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write every run's record as JSON here")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path[:0] = [str(SRC), str(BENCH)]

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    started = time.perf_counter()
    records = []
    for name in args.workload or list(WORKLOADS):
        for run in range(args.runs):
            record = measure(name, args.seed, run, args.seconds, bool(args.trace),
                             args.scale, declared)
            print_record(record)
            records.append(record)
    check_references(records)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "environment": {
                "nproc": available_cpus(), "python": platform.python_version(),
                "platform": platform.platform(), "machine": platform.machine(),
            },
            "command": ["bench/run.py", *(argv if argv is not None else sys.argv[1:])],
            "wall_s": time.perf_counter() - started,
            "runs": records,
        }, indent=1) + "\n")
    print(json.dumps(result_line(records)))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
