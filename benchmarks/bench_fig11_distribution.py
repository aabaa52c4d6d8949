"""Figure 11 — distribution of the found bugs by OS part.

Paper: drivers hold 75% of the Linux real bugs (network+filesystem 16%,
others 9%); third-party modules hold 68% of the IoT real bugs
(subsystems 25%, others 7%).
"""

from conftest import save_result

from repro.evaluation import fig11_distribution


def test_fig11_distribution(harness, results_dir):
    data, text = fig11_distribution(harness)
    print("\n" + text)
    save_result(results_dir, "fig11", text)

    linux = data["linux"]
    assert max(linux, key=linux.get) == "drivers"
    assert linux["drivers"] > 0.55  # paper: 75%

    iot = data["iot"]
    assert max(iot, key=iot.get) == "third_party"
    assert iot["third_party"] > 0.45  # paper: 68%
