"""Run the ``repro`` CLI with timing wrappers at its layer boundaries.

    PYTHONPATH=src python bench/traced.py --trace-out FILE -- check --all-checkers a.c

The wrappers are installed from here, around the public functions each
layer exposes, so the program is traced without editing ``src/``.  Each
span records its call count, inclusive time and self time (inclusive
minus the time of its direct child spans), aggregated in memory per
span path (the chain of span names from the root).  A span entered with
an empty stack opens a new trace: ``cli.main`` for a one-shot CLI run,
and one ``serve.session.analyze`` trace per daemon request, because the
daemon analyzes on its scheduler thread.  The traces are written to
FILE as JSON when the CLI returns.

A name is patched where its caller looks it up: names a module imported
at load time (``repro.core.pata.explore_entries``) are patched on that
module, names imported inside a function (``repro.xtaint.build_summaries``)
on their package.  Classes keep their identity (``isinstance`` checks
still work): their methods are wrapped in place.  Spans inside forked
worker processes are not collected, so ``core.parallel.run_parallel`` is
a leaf.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional


def _count_tokens(result, counters: Dict[str, float]) -> None:
    counters["lang.lex.tokens"] = counters.get("lang.lex.tokens", 0) + len(result)


def _count_hits(prefix: str) -> Callable:
    def observe(result, counters: Dict[str, float]) -> None:
        key = f"{prefix}.hits"
        counters[key] = counters.get(key, 0) + (result is not None)
    return observe


def _count_skipped(result, counters: Dict[str, float]) -> None:
    kept, skipped = result
    counters["presolve.entries"] = counters.get("presolve.entries", 0) + len(kept) + len(skipped)
    counters["presolve.skipped"] = counters.get("presolve.skipped", 0) + len(skipped)


def _count_unsat(result, counters: Dict[str, float]) -> None:
    counters["smt.unsat"] = counters.get("smt.unsat", 0) + (not result.feasible)


#: (layer, span name, "module:attribute" targets, optional observer).
#: The observer sees each call's result and adds to the trace's counters.
SPANS = [
    ("lang", "lang.compile_program", ["repro.core.pata:compile_program"], None),
    ("lang", "lang.lex", ["repro.lang.parser:tokenize"], _count_tokens),
    ("lang", "lang.parse", ["repro.lang.lower:parse"], None),
    ("lang", "lang.lower", ["repro.lang.lower:lower_unit"], None),
    ("incremental", "incremental.compile_with_cache",
     ["repro.incremental:compile_with_cache"], None),
    ("incremental", "incremental.store.get", ["repro.incremental.store:CacheStore.get"],
     _count_hits("incremental.store")),
    ("incremental", "incremental.store.put", ["repro.incremental.store:CacheStore.put"], None),
    ("incremental", "incremental.store.commit",
     ["repro.incremental.store:CacheStore.commit"], None),
    ("incremental", "incremental.plan", ["repro.incremental.engine:IncrementalContext.plan"],
     None),
    ("incremental", "incremental.commit",
     ["repro.incremental.engine:IncrementalContext.commit"], None),
    ("serve", "serve.session.analyze", ["repro.serve.session:Session.analyze"], None),
    ("serve", "serve.store.get", ["repro.serve.store:ResidentStore.get"],
     _count_hits("serve.store")),
    ("serve", "serve.store.put", ["repro.serve.store:ResidentStore.put"], None),
    ("serve", "serve.store.commit", ["repro.serve.store:ResidentStore.commit"], None),
    ("core", "core.pata.analyze", ["repro.core.pata:PATA.analyze"], None),
    ("core", "core.collector", ["repro.core.collector:InformationCollector.__init__"], None),
    ("core", "typestate.checkers_from_spec", ["repro.core.pata:checkers_from_spec"], None),
    ("core", "vfg.escaping_malloc_sites", ["repro.vfg:escaping_malloc_sites"], None),
    ("presolve", "presolve.build", ["repro.presolve:RelevancePreAnalysis.__init__"], None),
    ("presolve", "presolve.partition_entries",
     ["repro.presolve:RelevancePreAnalysis.partition_entries"], _count_skipped),
    ("pointsto", "pointsto.build_partition", ["repro.pointsto.steensgaard:build_partition"],
     None),
    ("pointsto", "pointsto.compute_flow_facts",
     ["repro.pointsto.flow_tier:compute_flow_facts"], None),
    ("explore", "core.explore_entries", ["repro.core.pata:explore_entries"], None),
    ("explore", "core.analyzer.explore", ["repro.core.analyzer:PathExplorer.explore"], None),
    ("explore", "typestate.dispatch", ["repro.typestate.manager:TypestateManager.dispatch"],
     None),
    ("alias", "alias.graph.update", [
        f"repro.alias.graph:AliasGraph.handle_{op}"
        for op in ("move", "store", "store_fresh", "load", "gep", "addr_of", "fresh_object")
    ], None),
    ("alias", "alias.trail.undo_to", ["repro.alias.trail:Trail.undo_to"], None),
    ("parallel", "core.parallel.run_parallel", ["repro.core.pata:run_parallel"], None),
    ("parallel", "core.parallel.merge_outcomes", ["repro.core.pata:merge_outcomes"], None),
    ("races", "races.match_races", ["repro.races:match_races"], None),
    ("xtaint", "xtaint.build_summaries", ["repro.xtaint:build_summaries"], None),
    ("xtaint", "xtaint.match_cross_module", ["repro.xtaint:match_cross_module"], None),
    ("filter", "core.filter.run", ["repro.core.filter:BugFilter.run"], None),
    ("smt", "smt.translate", ["repro.core.filter:translate_trace",
                              "repro.core.filter:translate_trace_pair"], None),
    ("smt", "smt.solve", ["repro.smt.solver:Solver.solve"], _count_unsat),
    ("report", "core.report.render", ["repro.core.report:BugReport.render"], None),
]

#: span name -> layer; ``cli.main`` is the one-shot CLI's root span
SPAN_LAYER = {"cli.main": "cli", **{span: layer for layer, span, _, _ in SPANS}}
LAYERS = list(dict.fromkeys(SPAN_LAYER.values()))


class Recorder:
    """Thread-local span stacks feeding per-trace aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.traces: List[dict] = []

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        local = self._local

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:
                stack = local.stack = []
                local.trace = self._open_trace(name)
            trace = local.trace
            path = f"{stack[-1][0]}/{name}" if stack else name
            frame = [path, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, trace["counters"])
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = trace["spans"].setdefault(path, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]

        return span

    def _open_trace(self, root: str) -> dict:
        with self._lock:
            trace = {"id": len(self.traces), "root": root, "spans": {}, "counters": {}}
            self.traces.append(trace)
        return trace

    def dump(self) -> dict:
        with self._lock:
            return {
                "traces": [
                    {
                        "id": trace["id"],
                        "root": trace["root"],
                        "spans": [
                            {"path": path.split("/"), "calls": calls, "s": s, "self_s": self_s}
                            for path, (calls, s, self_s) in sorted(trace["spans"].items())
                        ],
                        "counters": dict(trace["counters"]),
                    }
                    for trace in self.traces
                ]
            }


def install(recorder: Recorder) -> None:
    """Wrap every target in :data:`SPANS` in place."""
    for _, name, targets, observe in SPANS:
        for target in targets:
            module_name, _, attr_path = target.partition(":")
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, recorder.wrap(name, original, observe))


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print("usage: traced.py --trace-out FILE -- REPRO-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[3:]
    from repro import cli

    recorder = Recorder()
    install(recorder)
    try:
        return recorder.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(out, "w") as handle:
            json.dump(recorder.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
