"""Dynamic confirmation — the principled analogue of Table 5's
"Confirmed bugs" row.

The paper's 206/574 confirmations came from OS developers re-deriving
each report.  Here every real PATA report is re-executed in the concrete
interpreter over a grid of adversarial inputs; a report is *confirmed*
when the matching fault fires at the reported location (or, for leaks,
when the allocation is provably unreachable at exit).

Expected shape: a large majority (>80%) of ground-truth-matching reports
confirm — static findings on this corpus are demonstrably real, not
pattern coincidences.
"""

from conftest import save_result

from repro.evaluation import render_table
from repro.interp import DynamicConfirmer
from repro.typestate import BugKind


def test_dynamic_confirmation_rate(harness, results_dir):
    rows = []
    total_real = total_confirmed = 0
    for profile in harness.profiles:
        osrun = harness.run_pata(profile, all_checkers=True, kinds=tuple(BugKind))
        corpus, program = osrun.corpus, osrun.program
        real_reports = [
            r for r in osrun.pata_result.reports
            if any(g.covers(r.kind, r.sink_file, r.sink_line) for g in corpus.ground_truth)
        ]
        confirmer = DynamicConfirmer(program, max_runs=60)
        confirmed = sum(1 for c in confirmer.confirm_all(real_reports) if c.confirmed)
        rows.append([profile.name, len(real_reports), confirmed,
                     f"{confirmed / max(1, len(real_reports)):.0%}"])
        total_real += len(real_reports)
        total_confirmed += confirmed
    rows.append(["total", total_real, total_confirmed,
                 f"{total_confirmed / max(1, total_real):.0%}"])
    text = render_table(
        ["OS", "Real reports", "Dynamically confirmed", "Rate"], rows,
        "Dynamic confirmation of PATA's real reports (cf. Table 5 'Confirmed bugs')",
    )
    print("\n" + text)
    save_result(results_dir, "confirmation", text)
    assert total_real > 0
    assert total_confirmed / total_real >= 0.8
