"""Tests of the benchmark itself, on tiny configs of every workload.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def digests(result):
    return [part["digest"] for part in result["parts"]]


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=lambda t: f"{t.module}.{t.qualname}")
def test_every_target_resolves(target):
    assert tracer.resolve(target) is not None


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_wrapped_and_unwrapped_runs_are_byte_identical(workload, tmp_path):
    prepared = measure.prepare(workload, 7, tmp_path, tiny=True)
    plain = measure.run_pass(prepared, 1)
    with tracer.Tracer() as tr:
        wrapped = measure.run_pass(prepared, 1)
    assert tr.spans and not tr.missing
    assert None not in digests(plain)
    assert digests(plain) == digests(wrapped)
    assert digests(plain) == digests(measure.run_pass(prepared, 2))


def test_uninstall_restores_every_binding():
    from fklab import fkmatrix, opalg, streams

    before = (fkmatrix.step_factors, opalg.step_factors,
              streams.RngStream.__dict__["generator"])
    with tracer.Tracer():
        assert fkmatrix.step_factors is opalg.step_factors
        assert fkmatrix.step_factors is not before[0]
    after = (fkmatrix.step_factors, opalg.step_factors,
             streams.RngStream.__dict__["generator"])
    assert after == before


def traced_counts(workload, tmp_path):
    prepared = measure.prepare(workload, 3, tmp_path, tiny=True)
    with tracer.Tracer() as tr:
        measure.run_pass(prepared, 1)
    return tr, prepared


def test_fk_pauli_counts_match_closed_forms(tmp_path):
    tr, prepared = traced_counts("fk-pauli", tmp_path)
    spec = prepared[0].part.spec
    pairs, n, d = spec["n_paths"] // 2, spec["grid"]["n_steps"], 2
    # both antithetic sides build n factors per pair and reduce them
    assert tr.counts["opalg.factors"] == 2 * pairs * n
    assert tr.counts["opalg.tree_products"] == 2 * pairs * (n - 1)
    assert tr.counts["opalg.tree_flops"] == 2 * pairs * (n - 1) * 8 * 2**3
    assert tr.counts["wiener.normals"] == pairs * n * d
    assert tr.counts["opalg.factor_mb"] == 2 * pairs * n * 4 * 16 / 2**20
    assert tr.counts["mc.kept_paths"] == tr.requested_paths == 2 * pairs


def test_fk_prefix_counts_match_closed_forms(tmp_path):
    tr, prepared = traced_counts("fk-prefix", tmp_path)
    nov, duhamel = (p.part.spec for p in prepared)
    pairs, n = nov["n_paths"] // 2, nov["n_steps"]
    assert tr.counts["wiener.normals"] == pairs * n * (2 + 1)
    assert tr.counts["opalg.factors"] == 2 * 2 * pairs * n
    assert "opalg.tree_products" not in tr.counts
    chunks = 2 * -(-pairs // nov["chunk_size"])
    assert tr.counts["streams.generators"] == chunks


def test_tree_counts_on_odd_levels():
    # n = 3: one product, then the survivor is concatenated; then one more
    products, flops, moved = tracer.tree_counts((1, 3, 2, 2))
    mat = 2 * 2 * 16
    assert products == 2 and flops == 2 * 8 * 8
    assert moved == (2 + 1) * mat + 2 * 2 * mat + (2 + 1) * mat


def test_scalar_paths_reach_no_opalg(tmp_path):
    tr, _ = traced_counts("scalar-paths", tmp_path)
    layers = {s[1] for s in tr.spans}
    assert "opalg" not in layers
    assert {"wiener", "stochint", "fkschrodinger", "cli"} <= layers


def test_self_times_subtract_direct_children():
    spans = [["a", "x", 0.0, 10.0, -1, 1], ["b", "y", 1.0, 4.0, 0, 1],
             ["c", "y", 2.0, 3.0, 1, 1]]
    assert tracer.self_times(spans) == [7.0, 2.0, 1.0]


def test_configs_depend_only_on_the_seed():
    def seeds(name, seed, rotation=0):
        return [p.spec["seed"] for p in workloads.parts(name, seed,
                                                         rotation=rotation)]

    for name in workloads.NAMES:
        assert workloads.parts(name, 11) == workloads.parts(name, 11)
        assert seeds(name, 11) != seeds(name, 12)
        assert seeds(name, 11) != seeds(name, 11, rotation=1)


def test_launcher_fails_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "measure.py", "workloads.py", "tracer.py"):
        (tmp_path / "perfbench" / f).write_bytes((BENCH / f).read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fk-pauli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    assert not lines or "correct" not in json.loads(lines[-1])
