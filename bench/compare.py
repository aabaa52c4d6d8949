"""Regression gate between two ``bench/run.py --out`` files.

    python3 bench/compare.py A.json B.json

A is the base (the parent commit's runs), B the candidate.  For every
workload and every end-to-end metric of ``BENCHMARK.json`` it prints
both sides' median and quartiles over their runs and applies the
metric's bound: B regresses when its median is worse than A's by more
than the bound.  A row whose run-to-run spread (quartile distance over
median) is wider than the bound on either side is "unresolved" unless
every run of B beats every run of A.  Timing rows of a leg stamped
``degraded`` (fewer CPUs than workers) are printed but not gated.
Correctness rows are always gated: recall by its bound, and bait hits
and the error rate may not rise at all, so A and B must be made on the
same seeds.  Per-layer metrics of traced runs are printed side by side,
without a gate.  The exit code is 1 when any row regressed.
"""

from __future__ import annotations

import collections
import json
import pathlib
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIME_UNITS = {"s", "ms"}


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def grouped(path: str) -> Dict[Tuple[str, int], List[dict]]:
    runs = json.loads(pathlib.Path(path).read_text())["runs"]
    out: Dict[Tuple[str, int], List[dict]] = collections.defaultdict(list)
    for run in runs:
        out[(run["workload"], run["trace"])].append(run)
    return out


def correctness(runs: List[dict]) -> Dict[str, float]:
    return {
        "bait_hits": max((r["truth"]["bait_hits"] for r in runs if r["truth"] is not None),
                         default=0),
        "error_rate": sum(r["failed"] for r in runs) / max(sum(r["attempted"] for r in runs), 1),
    }


def verdict(a: List[float], b: List[float], bound: float, better: str, gated: bool) -> str:
    sign = 1 if better == "lower" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) > bound * abs(med_a)
    if not gated:
        return "degraded"
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "REGRESSION" if worse else "ok"


def fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:11.5g} [{q1:.5g}..{q3:.5g}]"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, cand = grouped(argv[0]), grouped(argv[1])
    regressions = 0
    print(f"{'workload':15s} {'metric':32s} {'A median [q1..q3]':>30s} "
          f"{'B median [q1..q3]':>30s} {'change':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(base) & set(cand)):
        workload, trace = key
        runs_a, runs_b = base[key], cand[key]
        degraded = any(r["degraded"] for r in runs_a + runs_b)
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in runs_b if name in r["metrics"]]
            if not a or not b:
                print(f"{workload:15s} {name:32s} missing on {'A' if not a else 'B'}  REGRESSION")
                regressions += 1
                continue
            med_a = statistics.median(a)
            change = (statistics.median(b) - med_a) / med_a if med_a else 0.0
            if trace:
                result, bound = "", ""
            else:
                gated = not (degraded and metric["unit"] in TIME_UNITS)
                result = verdict(a, b, metric["bound"], metric["better"], gated)
                bound = f"{metric['bound']:.0%}"
                regressions += result == "REGRESSION"
            print(f"{workload:15s} {name:32s} {fmt(a):>30s} {fmt(b):>30s} "
                  f"{change:+8.1%} {bound:>6s}  {result}")
        ca, cb = correctness(runs_a), correctness(runs_b)
        for name, worse in (("bait_hits", cb["bait_hits"] > ca["bait_hits"]),
                            ("error_rate", cb["error_rate"] > ca["error_rate"])):
            regressions += worse
            print(f"{workload:15s} {name:32s} {ca[name]:>30.5g} {cb[name]:>30.5g} "
                  f"{'':8s} {'exact':>6s}  {'REGRESSION' if worse else 'ok'}")
    for key in sorted(set(base) ^ set(cand)):
        print(f"{key[0]:15s} (trace {key[1]}) only in {'A' if key in base else 'B'}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
