"""Table 5 — PATA's analysis results on the four OSes.

Paper (totals): 18.4K/35.8K files analyzed, 10.3M/16.8M LOC, typestates
23.0G alias-aware vs 45.8G unaware (-49.8%), SMT constraints 244M vs
1,920M (-87.3%), 18.8M repeated + 54.7K false bugs dropped, 797 found /
574 real (28% FP), 35h29m.

Expected shapes here: ~85% of files analyzed (config exclusions), about
half the typestates and well under half the SMT constraints relative to
the alias-unaware accounting, FP rate ≲ 35%, Linux dominating all
absolute counts.
"""

from conftest import save_result

from repro.evaluation import table5_analysis


def test_table5_analysis(harness, results_dir):
    data, text = table5_analysis(harness)
    print("\n" + text)
    save_result(results_dir, "table5", text)

    total = data["total"]
    # Alias-aware savings (the headline Table 5 claim).
    typestate_saving = 1 - total["typestates_aware"] / total["typestates_unaware"]
    smt_saving = 1 - total["smt_aware"] / total["smt_unaware"]
    print(f"typestate saving: {typestate_saving:.1%} (paper: 49.8%)")
    print(f"SMT constraint saving: {smt_saving:.1%} (paper: 87.3%)")
    assert typestate_saving > 0.30
    assert smt_saving > 0.45

    # Bug-detection accuracy.
    fp_rate = 1 - total["real"] / total["found"]
    print(f"false-positive rate: {fp_rate:.1%} (paper: 28%)")
    assert fp_rate < 0.40
    assert total["real"] > 100  # enough signal at scale 1.0

    # Repeated/false drops both occur.
    assert total["dropped_repeated"] > 0
    assert total["dropped_false"] > 0

    # Linux dominates.
    assert data["linux"]["real"] > sum(
        data[name]["real"] for name in ("zephyr", "riot", "tencentos")
    ) / 2
