"""Table 8 — comparison against the seven baseline tool regimes.

Paper shapes to reproduce:
* PATA finds the most real bugs on every OS, with a lower FP rate;
* CSA is the strongest baseline by found count but ~83% FP;
* Smatch/CSA cannot build the IoT OSes; Infer cannot build Linux;
* Saber and SVF run out of memory on the Linux kernel;
* 328 real bugs are unique to PATA, 27 (in non-compiled files) are
  unique to the source-based tools.
"""

from conftest import save_result

from repro.evaluation import table8_comparison, unique_real_bugs_vs_tools


def test_table8_comparison(harness, results_dir):
    data, text = table8_comparison(harness)
    print("\n" + text)
    save_result(results_dir, "table8", text)

    # (1) PATA leads every OS on real bugs.
    for os_name, os_data in data.items():
        pata_real = os_data["pata"]["real"]
        for tool, cell in os_data.items():
            if tool == "pata" or cell.get("status") != "ok":
                continue
            assert cell["real"] <= pata_real, f"{tool} beats PATA on {os_name}"

    # (2) Saber/SVF OOM exactly on the Linux-profile corpus.
    assert data["linux"]["saber-like"]["status"] == "oom"
    assert data["linux"]["svf-null"]["status"] == "oom"
    for os_name in ("zephyr", "riot", "tencentos"):
        assert data[os_name]["saber-like"]["status"] == "ok"
        assert data[os_name]["svf-null"]["status"] == "ok"

    # (3) Build-failure cells mirror the paper.
    assert data["linux"]["infer-like"]["status"] == "compile_error"
    assert data["riot"]["smatch-like"]["status"] == "compile_error"
    assert data["riot"]["csa-like"]["status"] == "compile_error"

    # (4) CSA is the strongest baseline by found count on Linux.
    linux_found = {
        tool: cell.get("found", 0)
        for tool, cell in data["linux"].items()
        if tool != "pata" and cell.get("status") == "ok"
    }
    assert max(linux_found, key=linux_found.get) == "csa-like"

    # (5) Unique-bug balance.
    pata_only, missed_by_pata = unique_real_bugs_vs_tools(data)
    print(f"unique to PATA: {pata_only} (paper: 328); "
          f"missed by PATA: {missed_by_pata} (paper: 27)")
    assert pata_only > 3 * missed_by_pata
