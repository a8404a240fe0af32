"""The no-regression verdict of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
no_regression = bench_pairs.no_regression

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98]  # interquartile range 0.03


def test_a_median_inside_the_bound_is_ok():
    assert no_regression(PARENT, [1.2, 1.21, 1.19, 1.22, 1.18], 0.25) == "ok"
    assert no_regression(PARENT, [0.7, 0.8, 1.1, 0.9, 1.0], 0.25) == "ok"


def test_a_median_beyond_the_bound_is_worse():
    assert no_regression(PARENT, [1.3, 1.31, 1.29, 1.32, 1.28],
                         0.25) == "worse"
    assert no_regression(PARENT, [1.06, 1.07, 1.08], 0.05) == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # the parent's quartiles 1.0 and 1.5 are 50% of its median apart
    wide = [0.9, 1.0, 1.2, 1.5, 1.6]
    assert no_regression(wide, [1.1, 1.2, 1.3], 0.25) == "unresolved"
    assert no_regression(wide, [2.0, 2.1, 2.2], 0.25) == "unresolved"
    # unless every change run reads better than every parent run
    assert no_regression(wide, [0.5, 0.6, 0.85], 0.25) == "ok"

