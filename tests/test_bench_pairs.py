"""The no-regression verdict and the pass records of tools/bench_pairs.py."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")
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



def test_each_pass_keeps_its_rotation_wall_and_tta():
    # pass i of a timed run runs rotation i mod 6, as perfbench does
    workloads = _load("perfbench_workloads",
                      ROOT / "perfbench" / "workloads.py")
    assert bench_pairs.ROTATIONS == workloads.ROTATIONS
    report = {"passes": [{"wall": 0.5 + i, "tta": 10.0 * i, "cal": 2.0,
                          "parts": []} for i in range(8)]}
    records = bench_pairs.pass_records(report)
    assert [p["rotation"] for p in records] == [0, 1, 2, 3, 4, 5, 0, 1]
    assert records[7] == {"rotation": 1, "wall": 7.5, "tta_norm": 35.0}


def test_tta_is_split_per_rotation():
    # the median over every run's passes of one rotation; a rotation that
    # no pass reached reads None
    runs = [{"passes": [{"rotation": i % 6, "tta_norm": t}
                        for i, t in enumerate(tta)]}
            for tta in ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 3.0],
                        [5.0, 2.5, 3.5])]
    assert bench_pairs.per_rotation(runs) == [3.0, 2.25, 3.25, 4.0, 5.0, 6.0]
    assert bench_pairs.per_rotation(runs[1:]) == [5.0, 2.5, 3.5, None, None,
                                                  None]
