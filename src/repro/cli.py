"""Command-line interface.

Subcommands::

    repro-pata check FILE.c ...      analyze mini-C sources with PATA
    repro-pata serve FILE.c ...      resident analysis daemon (socket API)
    repro-pata submit check_module   submit a job to a running daemon
    repro-pata corpus --os linux     generate a synthetic OS tree
    repro-pata eval table5           regenerate one of the paper's tables
    repro-pata compare --os zephyr   one OS row of Table 8 vs the baselines

Also reachable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import pathlib
import sys
from typing import List, Optional, Sequence, Tuple

from . import PATA, AnalysisConfig, __version__
from .errors import LexError, ParseError, SemaError
from .heap import analysis_heap

# ``check`` is most CLI runs and never needs the corpus generator, the
# evaluation harness or the baselines: the commands that do import them.

#: What the frontend raises for a malformed source file; the message
#: starts with ``file:line[:col]:``.
_SOURCE_ERRORS = (LexError, ParseError, SemaError)

#: ``eval`` target -> the :mod:`repro.evaluation` function that builds it
_EVAL_TARGETS = {
    "table4": "table4_os_info",
    "table5": "table5_analysis",
    "table6": "table6_sensitivity",
    "table7": "table7_generality",
    "table8": "table8_comparison",
    "fig11": "fig11_distribution",
}


class _UsageError(Exception):
    """A bad input or option: :func:`main` prints the message as one
    ``error:`` line and exits 2."""


def _read_sources(names: Sequence[str]) -> List[Tuple[str, str]]:
    """``(path, text)`` for each named source file, in order.  Any file
    that cannot be read as text raises :class:`_UsageError` naming it."""
    sources = []
    for name in names:
        path = pathlib.Path(name)
        try:
            text = path.read_text()
        except FileNotFoundError:
            raise _UsageError(f"no such file: {name}") from None
        except IsADirectoryError:
            raise _UsageError(f"{name} is a directory, not a source file") from None
        except UnicodeDecodeError as exc:
            raise _UsageError(
                f"{name} is not {exc.encoding} text ({exc.reason} at byte {exc.start})"
            ) from None
        except OSError as exc:
            raise _UsageError(f"cannot read {name}: {exc.strerror}") from None
        sources.append((str(path), text))
    return sources


def _check_counts(workers: int, max_paths: Optional[int] = None) -> None:
    """Reject a ``--workers`` below 0 and a ``--max-paths`` below 1."""
    if workers < 0:
        raise _UsageError(
            f"--workers must be 0 (one per CPU) or a positive count, got {workers}"
        )
    if max_paths is not None and max_paths < 1:
        raise _UsageError(f"--max-paths must be at least 1, got {max_paths}")


def _check_stats_json_target(name: Optional[str]) -> None:
    """Before any work starts, reject a ``--stats-json`` FILE that cannot
    be created: its directory must exist, and FILE must not be a
    directory.  (The write at the end can still fail, and says so.)"""
    if name is None or name == "-":
        return
    target = pathlib.Path(name)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.exists():
        code = errno.ENOENT
    elif not target.parent.is_dir():
        code = errno.ENOTDIR
    else:
        return
    raise _UsageError(f"cannot write --stats-json {name}: {os.strerror(code)}")


def _check_seconds(option: str, value: Optional[float]) -> None:
    """Reject a time option that is not a positive, finite number of
    seconds (``None`` means the option is unset)."""
    if value is not None and not 0 < value < float("inf"):
        raise _UsageError(f"{option} must be a positive number of seconds, got {value:g}")


class _ProfileNames:
    """The corpus profile names as argparse ``choices``, read from
    :mod:`repro.corpus` only when a command line names or lists them:
    the four OS profiles, and with ``labs`` the three labs too."""

    def __init__(self, labs: bool = False):
        self.labs = labs

    def _names(self) -> List[str]:
        from .corpus import CORPUS_PROFILES_BY_NAME, PROFILES_BY_NAME

        return sorted(CORPUS_PROFILES_BY_NAME if self.labs else PROFILES_BY_NAME)

    def __contains__(self, name: object) -> bool:
        return name in self._names()

    def __iter__(self):
        return iter(self._names())


def _analysis_options() -> argparse.ArgumentParser:
    """The analysis options ``check`` and ``serve`` share, as an
    argparse parent parser; :func:`_analysis_config` reads them."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--all-checkers", action="store_true",
                         help="enable double-lock / underflow / div-zero checkers too "
                              "(shorthand for --checkers all)")
    options.add_argument("--checkers", metavar="SPEC", default=None,
                         help="comma-separated checker names and/or aliases, "
                              "e.g. 'npd,ml,taint' or 'default,taint' "
                              "(default: the 'default' alias; see check --list-checkers)")
    options.add_argument("--max-paths", type=int, default=None,
                         help="path budget per entry function")
    options.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes for entry analysis "
                              "(1 = sequential, 0 = one per CPU)")
    options.add_argument("--no-prune", action="store_true",
                         help="disable the checker-relevance pre-analysis "
                              "(P1.5) entry/path pruning")
    options.add_argument("--alias-tier", choices=["off", "steens", "flow"],
                         default="flow",
                         help="alias precision tier: off (per-path graphs only), "
                              "steens (P1.7 whole-program Steensgaard pre-pass "
                              "and its singleton fast path), flow (additionally "
                              "the P1.8 per-entry skip sets); reports, work "
                              "counters and cache entries are the same at "
                              "every tier (default: flow)")
    options.add_argument("--taint-borders", action="store_true",
                         help="xtaint border-source inference: treat interface "
                              "parameters of registered functions with no extern "
                              "caller as tainted (off by default; only the "
                              "xtaint checker consults it)")
    return options


def _analysis_config(args, **fields) -> Tuple[AnalysisConfig, str]:
    """The :class:`AnalysisConfig` (with ``fields`` on top) and the
    checker spec that the shared analysis options ask for."""
    if args.all_checkers and args.checkers:
        raise _UsageError("--all-checkers and --checkers are mutually exclusive")
    _check_counts(args.workers, args.max_paths)
    config = AnalysisConfig(workers=args.workers, prune=not args.no_prune,
                            alias_tier=args.alias_tier,
                            taint_borders=args.taint_borders, **fields)
    if args.max_paths is not None:
        config.max_paths_per_entry = args.max_paths
    return config, "all" if args.all_checkers else (args.checkers or "default")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro-pata",
        description="PATA: path-sensitive and alias-aware typestate analysis (ASPLOS'22 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    analysis = _analysis_options()

    check = sub.add_parser("check", parents=[analysis], help="analyze mini-C source files")
    check.add_argument("files", nargs="*", help="mini-C source files")
    check.add_argument("--list-checkers", action="store_true",
                       help="print every registered checker (name, FSM states, "
                            "presolve event masks) and exit")
    check.add_argument("--no-validate", action="store_true",
                       help="skip stage-2 path validation (report all possible bugs)")
    check.add_argument("--na", action="store_true",
                       help="run the PATA-NA ablation (no alias relationships)")
    check.add_argument("--json", action="store_true", help="machine-readable output")
    check.add_argument("--stats", action="store_true",
                       help="print a per-entry-function stats table")
    check.add_argument("--stats-json", metavar="FILE", default=None,
                       help="write the full stats counters (plus per-entry rows) "
                            "as JSON to FILE ('-' = stdout, except with --json)")
    check.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="incremental-cache directory (created on first "
                            "--cache rw run); reports are byte-identical with "
                            "the cache cold, warm, or partially populated")
    check.add_argument("--cache", choices=["off", "ro", "rw"], default="off",
                       help="incremental cache mode: off (default), ro (reuse "
                            "compiled modules and per-entry outcomes, write "
                            "nothing), rw (reuse them and commit new ones at "
                            "exit)")
    check.add_argument("--confirm", action="store_true",
                       help="re-run each report in the concrete interpreter "
                            "over adversarial inputs and tag confirmed bugs")

    serve = sub.add_parser(
        "serve", parents=[analysis],
        help="resident analysis daemon: keep live compiled modules and the "
             "per-entry outcome store in RAM and answer check jobs over a "
             "local socket")
    serve.add_argument("files", nargs="+", help="root mini-C source files to serve")
    serve.add_argument("--socket", metavar="PATH", default=None,
                       help="listen on a unix socket at PATH (default: TCP)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP listen address (loopback only; default %(default)s)")
    serve.add_argument("--port", type=int, default=0, metavar="N",
                       help="TCP port (default 0 = ephemeral; the bound "
                            "address is printed on startup)")
    serve.add_argument("--watch", action="store_true",
                       help="stat-poll the root files and re-analyze the "
                            "dirtied closure on change")
    serve.add_argument("--poll-interval", type=float, default=0.5, metavar="S",
                       help="watch poll interval in seconds (default %(default)s)")
    serve.add_argument("--request-timeout", type=float, default=None, metavar="S",
                       help="per-request wall-clock budget; a request over "
                            "budget gets an error and the resident context "
                            "is replaced fresh (default: no timeout)")

    submit = sub.add_parser(
        "submit", help="submit one job to a running serve daemon")
    submit.add_argument("op", choices=["check_module", "check_diff", "status",
                                       "shutdown"])
    submit.add_argument("files", nargs="*",
                        help="check_module: paths the server analyzes; "
                             "check_diff: local files sent as an in-memory "
                             "overlay on the server's root set")
    submit.add_argument("--socket", metavar="PATH", default=None,
                        help="daemon unix socket path")
    submit.add_argument("--host", default="127.0.0.1", help="daemon TCP host")
    submit.add_argument("--port", type=int, default=0, help="daemon TCP port")
    submit.add_argument("--timeout", type=float, default=120.0, metavar="S",
                        help="client-side response timeout (default %(default)s)")
    submit.add_argument("--json", action="store_true",
                        help="print the full JSON response instead of the "
                             "check output text")

    lint = sub.add_parser("lint", help="source-level diagnostics (no compilation)")
    lint.add_argument("files", nargs="+", help="mini-C source files")

    profiles = _ProfileNames()
    corpus = sub.add_parser("corpus", help="generate a synthetic OS corpus")
    corpus.add_argument("--os", choices=_ProfileNames(labs=True), metavar="OS", required=True,
                        help="corpus profile: %(choices)s")
    corpus.add_argument("--scale", type=float, default=1.0)
    corpus.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the tree (plus ground_truth.json) here")
    corpus.add_argument("--stats", action="store_true", help="print corpus statistics only")

    evaluate = sub.add_parser("eval", help="regenerate a paper table/figure")
    evaluate.add_argument("target", choices=sorted(_EVAL_TARGETS) + ["all"])
    evaluate.add_argument("--scale", type=float, default=1.0)
    evaluate.add_argument("--markdown", type=pathlib.Path, default=None,
                          help="with target 'all': write a full markdown report here")
    evaluate.add_argument("--workers", type=int, default=1, metavar="N",
                          help="worker processes for PATA runs "
                               "(1 = sequential, 0 = one per CPU)")

    compare = sub.add_parser("compare", help="PATA vs the seven baselines on one OS")
    compare.add_argument("--os", choices=profiles, metavar="OS", default="zephyr",
                         help="corpus profile: %(choices)s (default %(default)s)")
    compare.add_argument("--scale", type=float, default=1.0)
    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def check_summary_line(result) -> str:
    """The final line of ``check``'s plain output."""
    return f"{len(result.reports)} bug(s); {result.summary()}"


def check_output_text(result) -> str:
    """Exactly the plain (no ``--stats``/``--confirm``) stdout of the
    ``check`` subcommand for ``result`` — the daemon ships this in every
    check response so clients can diff it byte-for-byte against a
    one-shot CLI run."""
    parts = []
    for report in result.reports:
        parts.append(report.render())
        parts.append("")
    parts.append(check_summary_line(result))
    return "\n".join(parts) + "\n"


def cmd_list_checkers() -> int:
    """``check --list-checkers``: one block per registered checker."""
    from .presolve.events import event_names
    from .typestate import CHECKER_ALIASES, registered_checkers

    def mask_names(mask) -> str:
        names = event_names(mask)
        return ", ".join(names) if names else "(none)"

    for checker in registered_checkers():
        fsm = checker.fsm
        states = ", ".join(sorted(fsm.states))
        print(f"{checker.name}  [{checker.kind.short}] {checker.kind.value}")
        print(f"  fsm       {fsm.name}: {states} (initial {fsm.initial}, error {fsm.error})")
        print(f"  relevant  {mask_names(checker.relevant_events)}")
        print(f"  triggers  {mask_names(checker.trigger_events)}")
        print(f"  sinks     {mask_names(checker.sink_events)}")
    aliases = ", ".join(f"{alias} = {spec}" for alias, spec in CHECKER_ALIASES.items())
    print(f"aliases: {aliases}")
    return 0


def cmd_check(args) -> int:
    """``check``: analyze mini-C files with PATA; exit 1 when bugs found,
    2 on a usage error or a malformed source file."""
    if args.list_checkers:
        return cmd_list_checkers()
    if not args.files:
        print("error: no input files (or use --list-checkers)", file=sys.stderr)
        return 2
    config, spec = _analysis_config(args, validate_paths=not args.no_validate,
                                    cache_dir=args.cache_dir, cache_mode=args.cache)
    if args.json and args.stats_json == "-":
        print("error: --json and --stats-json - would both write to stdout; "
              "give --stats-json a FILE", file=sys.stderr)
        return 2
    _check_stats_json_target(args.stats_json)
    sources = _read_sources(args.files)
    if args.cache != "off" and not args.cache_dir:
        print("error: --cache ro/rw requires --cache-dir PATH", file=sys.stderr)
        return 2
    if args.cache_dir and args.cache == "off":
        print("warning: --cache-dir given but --cache is off; caching disabled",
              file=sys.stderr)
    if args.na:
        config = config.for_pata_na()
    try:
        pata = PATA(config=config, checker_spec=spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = None
    try:
        with analysis_heap():
            if config.cache_active():
                from .incremental import compile_with_cache, open_store

                # One store handle serves the whole run.  When the
                # directory cannot be opened, open_store has warned and
                # the run goes on with the cache off.
                store = open_store(config.cache_dir, config.cache_mode)
                if store is None:
                    config.cache_mode = "off"
            if store is not None:
                # Layer-0 frontend cache: unchanged files skip the parser
                # and lowering entirely.  The modules are committed here
                # (parent process, before analysis), and PATA reads the
                # per-entry outcomes through the same handle and performs
                # the second, analysis-side commit.
                program = compile_with_cache(sources, store)
                store.commit()
                pata = PATA(config=config, checker_spec=spec, store=store)
                result = pata.analyze(program)
            else:
                result = pata.analyze_sources(sources)
    except _SOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if store is not None:
            store.close()

    confirmations = {}
    if args.confirm and result.reports:
        from .interp import DynamicConfirmer
        from .lang import compile_program as _compile

        program = _compile(sources)
        confirmer = DynamicConfirmer(program)
        for report, confirmation in zip(result.reports, confirmer.confirm_all(result.reports)):
            confirmations[id(report)] = confirmation

    if args.stats_json:
        stats_payload = {"version": __version__, **result.stats.to_dict()}
        stats_text = json.dumps(stats_payload, indent=2)
        if args.stats_json == "-":
            print(stats_text)
        else:
            try:
                pathlib.Path(args.stats_json).write_text(stats_text + "\n")
            except OSError as exc:
                raise _UsageError(
                    f"cannot write --stats-json {args.stats_json}: {exc.strerror}"
                ) from None

    if args.json:
        bugs = []
        for report in result.reports:
            bug = report.to_dict()
            confirmation = confirmations.get(id(report))
            if confirmation is not None:
                bug["confirmed"] = confirmation.confirmed
                bug["witness"] = confirmation.witness
            bugs.append(bug)
        payload = {
            "version": __version__,
            "bugs": bugs,
            "stats": {
                "paths": result.stats.explored_paths,
                "entries": result.stats.entry_functions,
                "dropped_false": result.stats.dropped_false_bugs,
                "dropped_repeated": result.stats.dropped_repeated_bugs,
                "time_seconds": result.stats.time_seconds,
                "workers": result.stats.workers_used,
                "batches": result.stats.batches_dispatched,
                "entries_skipped": result.stats.entries_skipped,
                "blocks_pruned": result.stats.blocks_pruned,
                "paths_pruned": result.stats.paths_pruned,
                "cache_hits": result.stats.cache_hits,
                "cache_misses": result.stats.cache_misses,
                "entries_cached": result.stats.entries_cached,
                "entries_reanalyzed": result.stats.entries_reanalyzed,
                **(
                    {
                        "per_entry": [
                            {
                                "entry": e.name,
                                "paths": e.paths,
                                "steps": e.steps,
                                "wall_seconds": e.wall_seconds,
                                "budget_exhausted": e.budget_exhausted,
                                "paths_pruned": e.paths_pruned,
                                "blocks_pruned": e.blocks_pruned,
                                "skipped": e.skipped,
                                "cached": e.cached,
                            }
                            for e in result.stats.per_entry
                        ]
                    }
                    if args.stats
                    else {}
                ),
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for report in result.reports:
            print(report.render())
            confirmation = confirmations.get(id(report))
            if confirmation is not None:
                if confirmation.confirmed:
                    print(f"  CONFIRMED at runtime with {confirmation.witness}")
                else:
                    print(f"  not reproduced in {confirmation.runs} interpreter runs")
            print()
        if args.stats:
            print(result.stats.render_entry_table())
            print()
        print(check_summary_line(result))
    return 1 if result.reports else 0


def cmd_serve(args) -> int:
    """``serve``: run the resident analysis daemon until shutdown."""
    import signal

    from .serve import PataServer

    config, spec = _analysis_config(args)
    _check_seconds("--poll-interval", args.poll_interval)
    _check_seconds("--request-timeout", args.request_timeout)
    _read_sources(args.files)
    try:
        server = PataServer(
            roots=args.files, config=config, checker_spec=spec,
            socket_path=args.socket, host=args.host, port=args.port,
            request_timeout=args.request_timeout,
            watch=args.watch, poll_interval=args.poll_interval,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server.start()
    print(f"serving {len(args.files)} file(s) on {server.address}", flush=True)

    def on_signal(signum, frame):
        server.request_shutdown()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    server.serve_forever()
    server.close()
    print("server drained; exiting", flush=True)
    return 0


def cmd_submit(args) -> int:
    """``submit``: one request to a running daemon; for check ops the
    exit code mirrors the equivalent one-shot ``check`` run."""
    from .serve import ServeClient

    _check_seconds("--timeout", args.timeout)
    payload = {"op": args.op}
    if args.op == "check_module" and args.files:
        payload["files"] = args.files
    if args.op == "check_diff":
        if not args.files:
            print("error: check_diff requires at least one file", file=sys.stderr)
            return 2
        payload["overlay"] = dict(_read_sources(args.files))
    try:
        with ServeClient(socket_path=args.socket, host=args.host,
                         port=args.port, timeout=args.timeout) as client:
            response = client.request(payload)
    except (OSError, ConnectionError) as exc:
        print(f"error: cannot reach server: {exc}", file=sys.stderr)
        return 2
    if args.json or args.op in ("status", "shutdown"):
        print(json.dumps(response, indent=2, sort_keys=True))
        return 0 if response.get("ok") else 2
    if not response.get("ok"):
        print(f"error: {response.get('error', 'request failed')}", file=sys.stderr)
        return 2
    print(response["output"], end="")
    return int(response.get("exit_code", 0))


def cmd_lint(args) -> int:
    """``lint``: source diagnostics without compilation; exit 1 on findings,
    2 on a missing or malformed source file."""
    from .lang.sema import check_source

    total = 0
    for path, text in _read_sources(args.files):
        try:
            diagnostics = check_source(text, path)
        except _SOURCE_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for diagnostic in diagnostics:
            print(diagnostic)
            total += 1
    print(f"{total} diagnostic(s)")
    return 1 if total else 0


def cmd_corpus(args) -> int:
    """``corpus``: generate a synthetic OS tree (optionally to disk)."""
    from .corpus import CORPUS_PROFILES_BY_NAME, generate

    profile = CORPUS_PROFILES_BY_NAME[args.os].scaled(args.scale)
    corpus = generate(profile)
    print(f"{profile.name} {profile.version_label}: {len(corpus.files)} files, "
          f"{corpus.total_lines():,} LOC, {len(corpus.ground_truth)} injected bugs, "
          f"{len(corpus.bait_regions)} bait regions")
    if args.stats or args.out is None:
        by_kind = {}
        for gt in corpus.ground_truth:
            by_kind[gt.kind.short] = by_kind.get(gt.kind.short, 0) + 1
        for kind, count in sorted(by_kind.items()):
            print(f"  {kind:4s} {count}")
        if args.out is None:
            return 0
    out: pathlib.Path = args.out
    for f in corpus.files:
        target = out / f.path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(f.source)
    truth = [
        {
            "uid": g.uid, "kind": g.kind.short, "path": g.path,
            "line_start": g.line_start, "line_end": g.line_end,
            "category": g.category, "pattern": g.pattern,
        }
        for g in corpus.ground_truth
    ]
    (out / "ground_truth.json").write_text(json.dumps(truth, indent=2))
    print(f"wrote tree + ground_truth.json under {out}")
    return 0


def cmd_eval(args) -> int:
    """``eval``: regenerate paper tables/figures (or a markdown report)."""
    from . import evaluation

    _check_counts(args.workers)
    harness = evaluation.EvaluationHarness(scale=args.scale,
                                           config=AnalysisConfig(workers=args.workers))
    if args.markdown is not None and args.target == "all":
        report = evaluation.generate_markdown_report(harness)
        args.markdown.write_text(report)
        print(f"wrote {args.markdown}")
        return 0
    targets = sorted(_EVAL_TARGETS) if args.target == "all" else [args.target]
    for name in targets:
        _, text = getattr(evaluation, _EVAL_TARGETS[name])(harness)
        print(text)
        print()
    return 0


def cmd_compare(args) -> int:
    """``compare``: one Table-8 row — PATA vs the baselines on one OS."""
    from .baselines import all_baselines
    from .corpus import PROFILES_BY_NAME, generate, match_findings
    from .evaluation import PRIMARY_KINDS, render_table
    from .lang import compile_program

    profile = PROFILES_BY_NAME[args.os].scaled(args.scale)
    corpus = generate(profile)
    compiled = compile_program(corpus.compiled_sources())
    everything = compile_program(corpus.all_sources())
    rows = []
    for tool in all_baselines():
        source_based = tool.name in ("cppcheck-like", "coccinelle-like")
        result = tool.analyze(everything if source_based else compiled)
        if result.status != "ok":
            rows.append([tool.name, result.status.upper(), "-", "-"])
            continue
        match = match_findings(
            [(f.kind, f.file, f.line) for f in result.findings],
            corpus, tool.name, restrict_kinds=PRIMARY_KINDS,
        )
        rows.append([tool.name, match.found, match.real, f"{match.false_positive_rate:.0%}"])
    pata_result = PATA().analyze(compiled)
    match = match_findings(
        [(r.kind, r.sink_file, r.sink_line) for r in pata_result.reports],
        corpus, "pata", restrict_kinds=PRIMARY_KINDS,
    )
    rows.append(["PATA", match.found, match.real, f"{match.false_positive_rate:.0%}"])
    print(render_table(["Tool", "Found", "Real", "FP rate"], rows,
                       title=f"{args.os} corpus, scale {args.scale}"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "lint": cmd_lint,
        "corpus": cmd_corpus,
        "eval": cmd_eval,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into `head`/a closed pager: exit quietly, as
        # well-behaved CLI tools do.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
