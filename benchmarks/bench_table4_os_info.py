"""Table 4 — information about the four checked OSes.

Paper: Linux 5.6 (28,260 files / 14.2M LOC), Zephyr 2.1.0 (1,669 / 383K),
RIOT 2020.04 (4,402 / 1,575K), TencentOS-tiny (1,497 / 572K).
Expected shape at ~1/400 scale: Linux ≫ RIOT > Zephyr ≳ TencentOS.
"""

from conftest import save_result

from repro.evaluation import table4_os_info


def test_table4_os_info(harness, results_dir):
    data, text = table4_os_info(harness)
    print("\n" + text)
    save_result(results_dir, "table4", text)
    # Shape: Linux is by far the largest; relative order holds.
    assert data["linux"]["loc"] > 3 * data["riot"]["loc"]
    assert data["riot"]["loc"] > data["zephyr"]["loc"]
    assert data["zephyr"]["loc"] > 0 and data["tencentos"]["loc"] > 0
