"""Table 7 — the three additional checkers (double-lock, array-index
underflow, division-by-zero) on Linux.

Paper: 52 found / 43 real in total (22/18 double-lock, 23/20 underflow,
7/5 division-by-zero), each checker implemented in 100-200 lines.
Expected shape: every extra checker finds real bugs with few false
positives, without disturbing the three primary checkers.
"""

import inspect

from conftest import save_result

from repro.evaluation import table7_generality
from repro.typestate.checkers import divzero, locks, underflow


def test_table7_generality(harness, results_dir):
    data, text = table7_generality(harness)
    print("\n" + text)
    save_result(results_dir, "table7", text)

    assert data["total"]["real"] >= 3  # at least one real bug per checker
    for kind in ("DOUBLE_LOCK", "ARRAY_UNDERFLOW", "DIV_BY_ZERO"):
        assert data[kind]["found"] >= data[kind]["real"] >= 1


def test_checkers_are_paper_sized():
    """§5.1/§5.5: 'each checker is implemented with just 100-200 lines'."""
    for module in (locks, underflow, divzero):
        loc = len(inspect.getsource(module).splitlines())
        assert loc <= 220, f"{module.__name__} has {loc} lines"
