"""Table 6 — sensitivity analysis: PATA vs PATA-NA on Linux.

Paper: PATA-NA finds 620 bugs / 194 real (69% FP) vs PATA's 627 / 454
(28% FP); every PATA-NA real bug is also found by PATA; PATA-NA is
faster (8h19m vs 33h01m) because it skips alias computation but loses
the typestate/constraint merging.
"""

from conftest import save_result

from repro.evaluation import table6_sensitivity


def test_table6_sensitivity(harness, results_dir):
    data, text = table6_sensitivity(harness)
    print("\n" + text)
    save_result(results_dir, "table6", text)

    pata, na = data["pata"], data["pata_na"]
    # The ablation's headline: aliasing buys accuracy.
    assert pata["real"] > na["real"]
    assert na["fp_rate"] > pata["fp_rate"] + 0.15
    # Paper: "These 194 real bugs are all found by PATA."
    assert na["matched"] <= pata["matched"]
    print(f"PATA fp={pata['fp_rate']:.0%} (paper 28%), "
          f"PATA-NA fp={na['fp_rate']:.0%} (paper 69%)")
    print(f"PATA-only real bugs: {len(pata['matched'] - na['matched'])} (paper: 260)")
