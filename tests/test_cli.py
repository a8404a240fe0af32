"""Config-driven command line runner: parsing, exit codes, determinism."""

import copy
import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from fklab import cli, fkschrodinger
from fklab.cli import ConfigError, main, parse_config

from test_acceptance import REDUCED_CONFIGS

FK_MATRIX_DOC = {
    "experiment": "fk-matrix",
    "seed": 11,
    "n_paths": 4000,
    "grid": {"t_end": 1.0, "n_steps": 32},
    "params": {"A": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]},
}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, doc, *extra, name="cfg.json"):
    cfg = write_config(tmp_path, doc, name)
    code = main(["run", cfg, "--out", str(tmp_path), *extra])
    return code, tmp_path / (name.rsplit(".", 1)[0] + ".csv")


# ---------------------------------------------------------------------------
# parsing


def test_parse_rejects_unknown_top_level_key():
    doc = dict(FK_MATRIX_DOC, bogus=1)
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        parse_config(dict(FK_MATRIX_DOC, experiment="nope"))


def test_parse_rejects_bad_seed():
    with pytest.raises(ConfigError):
        parse_config(dict(FK_MATRIX_DOC, seed=-1))
    with pytest.raises(ConfigError):
        parse_config(dict(FK_MATRIX_DOC, seed="7"))


def test_parse_requires_mc_fields():
    doc = dict(FK_MATRIX_DOC)
    del doc["n_paths"]
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_parse_rejects_unknown_grid_key():
    doc = dict(FK_MATRIX_DOC, grid={"t_end": 1.0, "n_steps": 8, "x": 1})
    with pytest.raises(ConfigError):
        parse_config(doc)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_param_exits_2_without_output(tmp_path, capsys):
    doc = dict(FK_MATRIX_DOC)
    doc["params"] = dict(doc["params"], typo=3)
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 2
    assert not csv_path.exists()
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "none.json"),
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_failing_tolerance_exits_1(tmp_path, capsys):
    # an impossible Frobenius floor cannot be met by finite sampling
    doc = json.loads(json.dumps(FK_MATRIX_DOC))
    doc["params"]["frob_tol"] = 1e-30
    doc["params"]["zmax"] = 1e-30
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 1
    assert csv_path.exists()  # results are still reported
    capsys.readouterr()


def test_singular_potential_exits_3_without_output(tmp_path, capsys):
    doc = {
        "experiment": "fk-semigroup",
        "seed": 3,
        "n_paths": 2000,
        "grid": {"t_end": 0.5, "n_steps": 16},
        "params": {
            "potential": {"name": "coulomb-3d", "gamma": 1.0},
            "psi": {"name": "gaussian"},
        },
    }
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 3
    assert not csv_path.exists()
    assert "numerical failure" in capsys.readouterr().err


def test_overflowing_weight_exits_3_without_output(tmp_path, capsys):
    # -int v = 1000 is finite, but exp(1000) overflows the path weight
    doc = {
        "experiment": "fk-semigroup",
        "seed": 5,
        "n_paths": 64,
        "grid": {"t_end": 1.0, "n_steps": 16},
        "params": {
            "potential": {"name": "constant-well", "height": 1000,
                          "halfwidth": 50},
            "psi": {"name": "gaussian", "width": 100},
        },
    }
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 3
    assert not csv_path.exists()
    assert "numerical failure" in capsys.readouterr().err


def test_khasminskii_kappa_above_one_exits_2_without_output(tmp_path, capsys):
    doc = {
        "experiment": "khasminskii",
        "seed": 6,
        "n_paths": 64,
        "grid": {"t_end": 1.0, "n_steps": 16},
        "params": {"potential": {"name": "constant-well", "height": 5,
                                 "halfwidth": 3}},
    }
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 2
    assert not csv_path.exists()
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["fk-matrix", "fk-product"])
def test_odd_path_count_exits_2_without_output(tmp_path, capsys, experiment):
    doc = dict(FK_MATRIX_DOC, n_paths=7)
    if experiment == "fk-product":
        doc = dict(doc, experiment="fk-product",
                   params={"Aplus": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                           "Aminus": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]})
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 2
    assert not csv_path.exists()
    assert "even" in capsys.readouterr().err


@pytest.mark.parametrize("dims", [(1, 2), (2, 3)])
def test_product_operands_of_different_sizes_exit_2(tmp_path, capsys, dims):
    def zeros(n):
        return [[[0, 0]] * n for _ in range(n)]

    doc = dict(FK_MATRIX_DOC, experiment="fk-product", n_paths=8,
               params={"Aplus": zeros(dims[0]), "Aminus": zeros(dims[1]),
                       "B": zeros(dims[1])})
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 2
    assert not csv_path.exists()
    assert "config error" in capsys.readouterr().err


def test_batched_exponential_overflow_exits_3_without_output(tmp_path, capsys):
    # A = diag(2^500, 0, 0) and B = -A^2 / 2: the target exp(-t (A^2/2 + B))
    # is the identity, but each 3x3 step factor holds exp(dt 2^999)
    zero = [0, 0]
    doc = {
        "experiment": "fk-matrix",
        "seed": 4,
        "n_paths": 4,
        "grid": {"t_end": 1.0, "n_steps": 4},
        "params": {
            "A": [[[[2.0**500, 0], zero, zero], [zero, zero, zero],
                   [zero, zero, zero]]],
            "B": [[[-2.0**999, 0], zero, zero], [zero, zero, zero],
                  [zero, zero, zero]]},
    }
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 3
    assert not csv_path.exists()
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("out", ["missing", "file", "unwritable"])
def test_bad_output_directory_exits_2_before_running(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     out):
    def must_not_run(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(cli.EXPERIMENTS, "fk-matrix", dataclasses.replace(
        cli.EXPERIMENTS["fk-matrix"], run=must_not_run))
    cfg = write_config(tmp_path, FK_MATRIX_DOC)
    target = tmp_path / "results"
    if out == "file":
        target.write_text("")
    elif out == "unwritable":
        target.mkdir()
        # permission bits do not bind every user, so deny access directly
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    extra = ["--axis", "grid.n_steps", "--values", "8,16"] \
        if command == "sweep" else []
    assert main([command, cfg, "--out", str(target), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output directory" in captured.err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failed_csv_write_exits_4(tmp_path, capsys, command):
    # a directory in the sidecar's place makes open() raise after the run
    cfg = write_config(tmp_path, FK_MATRIX_DOC)
    (tmp_path / ("cfg.csv" if command == "run" else "cfg.sweep.csv")).mkdir()
    extra = ["--axis", "grid.n_steps", "--values", "8,16"] \
        if command == "sweep" else []
    assert main([command, cfg, "--out", str(tmp_path), *extra]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output error" in captured.err


@pytest.mark.parametrize("b", [-10, -20, -30, -60])
def test_rounding_floor_scales_with_the_target(tmp_path, capsys, b):
    # with A = 0 every path gives the same product; the mean differs from
    # expm(-tB) by rounding only, far beyond zmax * stderr when |target| is
    # large
    zero = [0, 0]
    doc = {
        "experiment": "fk-matrix",
        "seed": 1,
        "n_paths": 64,
        "grid": {"t_end": 1.0, "n_steps": 16},
        "params": {"A": [[[zero, zero], [zero, zero]]],
                   "B": [[[b, 0], zero], [zero, zero]]},
    }
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 0
    assert csv_path.exists()
    capsys.readouterr()


def test_harmonic_ground_state_follows_omega(tmp_path, capsys):
    # psi = (omega/pi)^(1/4) exp(-omega q^2 / 2) is an eigenfunction of
    # -1/2 d^2/dq^2 + omega^2 q^2 / 2 with eigenvalue omega / 2
    doc = copy.deepcopy(REDUCED_CONFIGS["fk-semigroup"])
    doc["params"]["potential"]["omega"] = 2.0
    code, _ = run_cli(tmp_path, doc)
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert math.isclose(row["target_re"], (2 / math.pi) ** 0.25
                        * math.exp(-0.5 - 0.04), rel_tol=1e-12)
    assert code == 0 and row["z"] <= 4.0


# ---------------------------------------------------------------------------
# presets


def _preset_doc(case: str) -> dict:
    """The config of a PRESET_RUNS case ``"experiment preset..."``: 8 paths x
    4 steps, an 8-point lattice, and Kato sizes of 3 probes x 48 nodes x 4
    time steps at t = 1/64."""
    experiment, *names = case.split()
    blocks = {"gauge": ("chi",), "phasespace-roundtrip": ("operator",),
              "trotter": ("hamiltonian",)}.get(experiment, ("potential", "psi"))
    params = {key: {"name": name} for key, name in zip(blocks, names)}
    doc = {"experiment": experiment, "seed": 3, "params": params}
    if experiment == "phasespace-roundtrip":
        params.update(n_points=8, length=8.0, alpha_values=[0.5])
    elif experiment == "trotter":
        params.update(n_points=8, length=8.0, n=4)
    elif experiment == "kato":
        doc["grid"] = {"t_end": 1 / 64, "n_steps": 4}
        params.update(n_probes=3, n_space=48)
    else:
        doc.update(n_paths=8, grid={"t_end": 0.5, "n_steps": 4})
        params.setdefault("potential", {"name": "free"})
    return doc


PRESET_CASES = (
    [f"{e} {v} {psi}" for e in ("fk-semigroup", "diamagnetic")
     for v in fkschrodinger.POTENTIAL_PRESETS
     for psi in ("harmonic-ground", "gaussian")]
    + [f"{e} {v}" for e in ("fk-kernel", "kato", "khasminskii")
       for v in fkschrodinger.POTENTIAL_PRESETS]
    + ["gauge linear", "gauge sine"]
    + [f"{e} {op}" for e in ("phasespace-roundtrip", "trotter")
       for op in ("harmonic", "random-hermitian")])
# case -> (exit code, the quantity of each row, starred where it has a
# target); kato's odd probe count puts a probe on the coulomb-3d
# singularity, and khasminskii of coulomb-3d at t = 0.5 has kappa =
# sqrt(4 / pi) = 1.128 >= 1
PRESET_RUNS = {
    'fk-semigroup free harmonic-ground': (0, 'psi_t'),
    'fk-semigroup free gaussian': (0, 'psi_t*'),
    'fk-semigroup constant-well harmonic-ground': (0, 'psi_t'),
    'fk-semigroup constant-well gaussian': (0, 'psi_t'),
    'fk-semigroup harmonic harmonic-ground': (0, 'psi_t*'),
    'fk-semigroup harmonic gaussian': (0, 'psi_t'),
    'fk-semigroup coulomb-3d harmonic-ground': (3, ''),
    'fk-semigroup coulomb-3d gaussian': (3, ''),
    'fk-semigroup constant-magnetic-2d harmonic-ground': (0, 'psi_t'),
    'fk-semigroup constant-magnetic-2d gaussian': (0, 'psi_t'),
    'fk-semigroup gauge-linear harmonic-ground': (0, 'psi_t'),
    'fk-semigroup gauge-linear gaussian': (0, 'psi_t'),
    'diamagnetic free harmonic-ground': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic free gaussian': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic constant-well harmonic-ground': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic constant-well gaussian': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic harmonic harmonic-ground': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic harmonic gaussian': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic coulomb-3d harmonic-ground': (3, ''),
    'diamagnetic coulomb-3d gaussian': (3, ''),
    'diamagnetic constant-magnetic-2d harmonic-ground': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic constant-magnetic-2d gaussian': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic gauge-linear harmonic-ground': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'diamagnetic gauge-linear gaussian': (0, 'magnetic nonmagnetic magnitude_gap*'),
    'fk-kernel free': (0, 'kernel*'),
    'fk-kernel constant-well': (0, 'kernel'),
    'fk-kernel harmonic': (0, 'kernel*'),
    'fk-kernel coulomb-3d': (3, ''),
    'fk-kernel constant-magnetic-2d': (0, 'kernel'),
    'fk-kernel gauge-linear': (0, 'kernel'),
    'kato free': (0, 'kappa'),
    'kato constant-well': (0, 'kappa*'),
    'kato harmonic': (0, 'kappa*'),
    'kato coulomb-3d': (3, ''),
    'kato constant-magnetic-2d': (0, 'kappa'),
    'kato gauge-linear': (0, 'kappa'),
    'khasminskii free': (0, 'exp_moment*'),
    'khasminskii constant-well': (0, 'exp_moment*'),
    'khasminskii harmonic': (0, 'exp_moment*'),
    'khasminskii coulomb-3d': (2, ''),
    'khasminskii constant-magnetic-2d': (0, 'exp_moment*'),
    'khasminskii gauge-linear': (0, 'exp_moment*'),
    'gauge linear': (0, 'gauge_residual*'),
    'gauge sine': (0, 'gauge_residual*'),
    'phasespace-roundtrip harmonic': (0, 'roundtrip_error* imag_part*'),
    'phasespace-roundtrip random-hermitian': (0, 'roundtrip_error*'),
    'trotter harmonic': (0, 'trotter_error'),
    'trotter random-hermitian': (0, 'trotter_error'),
}


# overflow warnings of the singular coulomb-3d runs are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", PRESET_CASES)
def test_each_preset_runs_with_its_closed_forms(tmp_path, capsys, case):
    code, csv_path = run_cli(tmp_path, _preset_doc(case))
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"] if out else []
    assert (code, " ".join(r["quantity"] + "*" * (r["target_re"] is not None)
                           for r in rows)) == PRESET_RUNS[case]
    assert csv_path.exists() == (code in (0, 1))


# each preset's closed form against an independent expression (q = q' = 0)
CLOSED_FORMS = {
    "fk-semigroup free gaussian": (1 / 1.5) ** 0.5,  # width^2 -> 1 + t
    "fk-semigroup harmonic harmonic-ground":
        math.exp(-0.25) * math.pi ** -0.25,
    "fk-kernel free": (2 * math.pi * 0.5) ** -0.5,
    "fk-kernel harmonic": (2 * math.pi * math.sinh(0.5)) ** -0.5,
    "kato constant-well": 0.3 / 64,
    "kato harmonic": 0.0,  # v >= 0
}


@pytest.mark.parametrize("case", sorted(CLOSED_FORMS))
def test_preset_closed_forms_are_the_targets(tmp_path, capsys, case):
    run_cli(tmp_path, _preset_doc(case))
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert math.isclose(row["target_re"], CLOSED_FORMS[case], rel_tol=1e-13)


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _shrunk(name, overrides=()):
    """REDUCED_CONFIGS[name] at 8 paths and at most 4 steps, with
    (dotted path, value) overrides."""
    doc = copy.deepcopy(REDUCED_CONFIGS[name])
    if "n_paths" in doc:
        doc["n_paths"] = 8
    if "grid" in doc:
        doc["grid"]["n_steps"] = min(doc["grid"]["n_steps"], 4)
    for path, value in overrides:
        _set(doc, path.split("."), value)
    return doc


BAD_INPUTS = {
    # library range checks: alpha in [0, 1], Trotter time t >= 0
    "stochint-alpha": ("stochint-convergence", [("params.alpha", 1.5)]),
    "trotter-alpha": ("trotter", [("params.alpha", 2.0)]),
    "roundtrip-alpha": ("phasespace-roundtrip",
                        [("params.alpha_values", [2.0])]),
    "trotter-negative-t": ("trotter", [("params.t", -1)]),
    # integer and number fields are not coerced
    "d-fraction": ("kato", [("params.potential.d", 2.5)]),
    "d-bool": ("kato", [("params.potential.d", True)]),
    "d-string": ("kato", [("params.potential.d", "2")]),
    "height-string": ("kato", [("params.potential.height", "0.3")]),
    # points have the potential dimension
    "gauge-q-1d": ("gauge", [("params.potential",
                              {"name": "gauge-linear", "c": 0.7, "d": 2}),
                             ("params.q", [0.0])]),
    "khasminskii-q-1d": ("khasminskii", [("params.potential",
                                          {"name": "constant-well", "d": 2}),
                                         ("params.q", [0.0])]),
    "diamagnetic-q-1d": ("diamagnetic", [("params.q", [0.0])]),
    "diamagnetic-q-3d": ("diamagnetic", [("params.q", [0.0, 0.0, 0.0])]),
    "psi-center-string": ("fk-semigroup", [("params.psi", {
        "name": "gaussian", "center": ["a"]})]),
    # numbers are finite
    "t_end-nan": ("fk-matrix", [("grid.t_end", math.nan)]),
    "t_end-inf": ("stochint-convergence", [("grid.t_end", math.inf)]),
    "zmax-nan": ("wiener-stats", [("params.zmax", math.nan)]),
    "length-inf": ("phasespace-roundtrip", [("params.length", math.inf)]),
    "rel_tol-beyond-float": ("fk-kernel", [("params.rel_tol", 10**400)]),
    # a dimension whose block of a full chunk's increments, 16384 paths x
    # 16 steps (64 for fk-matrix) x d doubles, is over
    # wiener.MAX_INCREMENT_BYTES, found before anything of length d is
    # built: fk-kernel's q and q' default to d zeros after the potential
    "potential-d-over-budget": ("fk-kernel", [(
        "params.potential", {"name": "free", "d": 1099511627776})]),
    "wiener-d-over-budget": ("wiener-stats", [("params.d", 513)]),
    "matrix-components-over-budget": ("fk-matrix",
                                      [("params.A", [[[[1, 0]]]] * 129)]),
    # one time step's Kato nodes or an N x N lattice operator over the same
    # budget: 711 GiB and 16 TiB
    "kato-nodes-over-budget": ("kato", [
        ("params.potential", {"name": "coulomb-3d"}),
        ("params.n_probes", 33), ("params.n_space", 96)]),
    # the closed form kappa_1 = sqrt(8 / pi) = 1.596 of coulomb-3d is >= 1
    "khasminskii-coulomb-kappa-above-one": ("khasminskii", [
        ("params.potential", {"name": "coulomb-3d"})]),
    "lattice-over-budget": ("phasespace-roundtrip",
                            [("params.n_points", 2**20)]),
    # the Kato values of 9 probes at 2^40 + 1 time nodes: 72 TiB
    "kato-values-over-budget": ("kato", [("grid.n_steps", 2**40)]),
    # kato's time nodes are its grid's: the former params.n_time is unknown
    "kato-n_time": ("kato", [("params.n_time", 4)]),
    # one chunk's (count, nodes, nodes, d, d) second moments: 4.5 GiB
    "wiener-moments-over-budget": ("wiener-stats", [
        ("n_paths", 16384), ("params.d", 64)]),
}


@pytest.mark.parametrize("experiment", ["fk-semigroup", "fk-matrix"])
def test_any_step_count_parses(experiment):
    # a walk draws its increments a block at a time, so n_steps has no
    # budget; the config is only parsed here, not run
    doc = _shrunk(experiment, [("grid.n_steps", 10**9)])
    assert cli.parse_config(doc).grid.n_steps == 10**9


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_without_output(tmp_path, capsys, case):
    name, overrides = BAD_INPUTS[case]
    code, csv_path = run_cli(tmp_path, _shrunk(name, overrides))
    assert code == 2
    assert not csv_path.exists()
    assert "config error" in capsys.readouterr().err


MUTANTS = [math.nan, math.inf, -1, 0, 2.5, True, "x", [], [1.0], {}, None,
           1e308]


def _leaves(node, path=()):
    """Paths to every scalar of a JSON tree."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


# overflow and invalid-value warnings of mutated runs are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_mutated_leaf_exits_with_a_documented_code(tmp_path, capsys):
    # criterion 11 runs REDUCED_CONFIGS: it must cover every experiment
    assert set(cli.EXPERIMENTS) == set(REDUCED_CONFIGS)
    csv_path = tmp_path / "m.csv"
    wrong = []
    for name in REDUCED_CONFIGS:
        base = _shrunk(name)
        for path in _leaves(base):
            for value in MUTANTS:
                doc = copy.deepcopy(base)
                _set(doc, path, value)
                csv_path.unlink(missing_ok=True)
                code, _ = run_cli(tmp_path, doc, name="m.json")
                # results are written exactly when the run completes
                if code not in (0, 1, 2, 3) \
                        or csv_path.exists() != (code in (0, 1)):
                    wrong.append((name, path, value, code))
            capsys.readouterr()
    assert not wrong


# ---------------------------------------------------------------------------
# successful runs and determinism


def test_fk_matrix_run_passes_and_writes_csv(tmp_path, capsys):
    code, csv_path = run_cli(tmp_path, FK_MATRIX_DOC)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert any(r["quantity"] == "frobenius_error" for r in report["rows"])
    text = csv_path.read_bytes()
    assert text.startswith(b"experiment,quantity,component,")
    assert b"\r\n" in text  # RFC-4180 line endings


def test_same_seed_is_bit_identical(tmp_path, capsys):
    _, first = run_cli(tmp_path, FK_MATRIX_DOC, name="a.json")
    _, second = run_cli(tmp_path, FK_MATRIX_DOC, name="b.json")
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_worker_count_does_not_change_results(tmp_path, capsys):
    _, one = run_cli(tmp_path, FK_MATRIX_DOC, "--workers", "1", name="w1.json")
    _, four = run_cli(tmp_path, FK_MATRIX_DOC, "--workers", "4",
                      name="w4.json")
    capsys.readouterr()
    assert one.read_bytes() == four.read_bytes()


def test_seed_overrides_env_then_flag(tmp_path, capsys, monkeypatch):
    _, base = run_cli(tmp_path, FK_MATRIX_DOC, name="base.json")
    monkeypatch.setenv("FKLAB_SEED", "999")
    _, env = run_cli(tmp_path, FK_MATRIX_DOC, name="env.json")
    _, flag = run_cli(tmp_path, FK_MATRIX_DOC, "--seed", "11",
                      name="flag.json")
    capsys.readouterr()
    assert env.read_bytes() != base.read_bytes()  # env seed applied
    # the command line flag wins over the environment
    assert flag.read_bytes() == base.read_bytes()


def test_wiener_stats_run(tmp_path, capsys):
    doc = {
        "experiment": "wiener-stats",
        "seed": 5,
        "n_paths": 8000,
        "grid": {"t_end": 1.0, "n_steps": 16},
        "params": {"d": 2},
    }
    code, csv_path = run_cli(tmp_path, doc)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    quantities = {r["quantity"] for r in report["rows"]}
    assert quantities == {"mean", "cov"}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    assert len(table) == 1 + len(report["rows"])
    assert all(len(row) == 10 for row in table)
    # components such as "r=...,s=...,j=0,k=0" hold commas and are quoted
    assert [row[2] for row in table[1:]] == [r["component"] for r in report["rows"]]
    assert any("," in row[2] for row in table[1:])


def test_phasespace_roundtrip_run(tmp_path, capsys):
    doc = {
        "experiment": "phasespace-roundtrip",
        "seed": 7,
        "params": {"n_points": 32, "length": 12.0},
    }
    code, _ = run_cli(tmp_path, doc)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in report["rows"])
    assert any(r["quantity"] == "imag_part" for r in report["rows"])


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_stochint_slope_row(tmp_path, capsys):
    doc = {
        "experiment": "stochint-convergence",
        "seed": 13,
        "n_paths": 4000,
        "grid": {"t_end": 1.0, "n_steps": 64},
        "params": {"alpha": 0.0},
    }
    cfg = write_config(tmp_path, doc, "sweep.json")
    code = main(["sweep", cfg, "--axis", "grid.n_steps",
                 "--values", "64,128,256,512", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    slope_rows = [r for r in report["rows"]
                  if r["quantity"] == "slope(ms_residual)"]
    assert len(slope_rows) == 1
    assert slope_rows[0]["pass"]
    assert abs(slope_rows[0]["mean_re"] + 1.0) <= 0.3
    assert (tmp_path / "sweep.sweep.csv").exists()


STOCHINT_SWEEP_DOC = {
    "experiment": "stochint-convergence",
    "seed": 1,
    "n_paths": 200,
    "grid": {"t_end": 1.0, "n_steps": 16},
    "params": {"alpha": 0.25},
}


def _sweep_rows(tmp_path, capfd, doc, axis, values):
    """Exit code, stderr and JSON rows of a sweep of ``doc``."""
    cfg = write_config(tmp_path, doc, "sweep.json")
    code = main(["sweep", cfg, "--axis", axis, "--values", values,
                 "--out", str(tmp_path)])
    out, err = capfd.readouterr()
    return code, err, json.loads(out)["rows"]


def test_sweep_slope_skips_non_positive_axis_values(tmp_path, capfd):
    # the n_steps rule holds along grid.n_steps only: an alpha sweep, 0
    # included, fits nothing, and each of its points passes
    code, err, rows = _sweep_rows(tmp_path, capfd, STOCHINT_SWEEP_DOC,
                                  "params.alpha", "0,0.25,1")
    assert code == 0, err
    assert [r["quantity"] for r in rows] == ["ms_residual"] * 3


def test_sweep_of_zero_means_has_no_slope_row(tmp_path, capfd):
    # at alpha = 1/2 the conversion residual is exactly 0 at every n_steps,
    # and a log-log fit takes positive means only
    doc = copy.deepcopy(STOCHINT_SWEEP_DOC)
    doc["params"]["alpha"] = 0.5
    code, err, rows = _sweep_rows(tmp_path, capfd, doc, "grid.n_steps",
                                  "8,16")
    assert code == 0, err
    assert [(r["quantity"], r["mean_re"]) for r in rows] \
        == [("ms_residual", 0.0)] * 2


@pytest.mark.parametrize("axis, values", [
    ("grid.n_steps", "16,16"), ("grid.t_end", "1,0.5,1.0"),
    ("params.alpha", "0.1234561,0.1234562"),
    ("grid.n_steps", "1000000,1000001")])
def test_sweep_repeated_value_runs_no_point(tmp_path, capsys, monkeypatch,
                                            axis, values):
    # a repeated point would make the slope fit rank-deficient, and two
    # values of one %g label would write rows under one [axis=value] label
    code, calls = _counted_sweep(monkeypatch, tmp_path, STOCHINT_SWEEP_DOC,
                                 axis, values)
    assert code == 2
    assert calls == []
    assert not list(tmp_path.rglob("*.csv"))
    assert "repeat" in capsys.readouterr().err


def test_every_slope_axis_resolves_in_its_reduced_config():
    # a mistyped axis would turn its rule off without a word
    rules = {name: row.slope[0] for name, row in cli.EXPERIMENTS.items()
             if row.slope}
    assert rules == {"stochint-convergence": "grid.n_steps",
                     "kato": "grid.t_end", "trotter": "params.n"}
    for name, axis in rules.items():
        cli._resolve_axis(copy.deepcopy(REDUCED_CONFIGS[name]), axis)


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_json_report_is_strict_json(tmp_path, capsys):
    # a roundtrip error of stderr 0 has an infinite z: null in the JSON,
    # inf in the CSV
    for name, doc in REDUCED_CONFIGS.items():
        code, csv_path = run_cli(tmp_path, doc, name=f"{name}.json")
        rows = _strict_json(capsys.readouterr().out)["rows"]
        assert code == 0, name
        if name == "phasespace-roundtrip":
            assert [r["z"] for r in rows] == [None] * len(rows)
            assert {line.split(",")[-2] for line in
                    csv_path.read_text().splitlines()[1:]} == {"inf"}
    cfg = write_config(tmp_path, REDUCED_CONFIGS["phasespace-roundtrip"],
                       "sweep.json")
    assert main(["sweep", cfg, "--axis", "params.n_points", "--values",
                 "16,32", "--out", str(tmp_path)]) == 0
    rows = _strict_json(capsys.readouterr().out)["rows"]
    assert [r["z"] for r in rows] == [None] * len(rows)


def test_sweep_kato_decay(tmp_path, capsys):
    doc = {
        "experiment": "kato",
        "seed": 1,
        "grid": {"t_end": 0.5, "n_steps": 24},
        "params": {"potential": {"name": "constant-well", "height": 0.3,
                                 "halfwidth": 1.0},
                   "n_probes": 9, "n_space": 48},
    }
    cfg = write_config(tmp_path, doc, "kato.json")
    code = main(["sweep", cfg, "--axis", "grid.t_end",
                 "--values", "0.5,0.25,0.125,0.0625", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    slope_rows = [r for r in report["rows"] if r["quantity"] == "slope(kappa)"]
    assert len(slope_rows) == 1 and slope_rows[0]["pass"]
    assert slope_rows[0]["mean_re"] > 0  # kappa vanishes as t -> 0


def _counted_sweep(monkeypatch, tmp_path, doc, axis, values):
    """Exit code of a sweep of ``doc`` and the configs its runner got."""
    calls = []
    row = cli.EXPERIMENTS[doc["experiment"]]

    def counted(cfg):
        calls.append(cfg)
        return row.run(cfg)

    monkeypatch.setitem(cli.EXPERIMENTS, doc["experiment"],
                        dataclasses.replace(row, run=counted))
    cfg = write_config(tmp_path, doc, "sweep.json")
    code = main(["sweep", cfg, "--axis", axis, "--values", values,
                 "--out", str(tmp_path)])
    return code, calls


def test_sweep_checks_every_point_before_running(tmp_path, capsys,
                                                monkeypatch):
    doc = {
        "experiment": "stochint-convergence",
        "seed": 13,
        "n_paths": 64,
        "grid": {"t_end": 1.0, "n_steps": 8},
        "params": {"alpha": 0.0},
    }
    # a bad type, an odd antithetic path count, node fractions that round
    # to node 0 on a one-step grid, a well with kappa_t >= 1, a potential
    # dimension whose block of increments is over the budget, a coulomb-3d
    # horizon with kappa_t = sqrt(8 t / pi) >= 1 (0.798 at t = 0.25, 1.128
    # at 0.5), Kato nodes over the budget in d = 3 and one chunk's
    # wiener-stats second moments over it at d = 64
    sweeps = [(doc, "grid.n_steps", "8,16,32,2.5"),
              (_shrunk("fk-matrix"), "n_paths", "8,9"),
              (_shrunk("wiener-stats"), "grid.n_steps", "8,1"),
              (_shrunk("khasminskii", [("params.potential.height", 0.3)]),
               "params.potential.height", "0.3,5.0"),
              (_shrunk("fk-kernel", [("params.potential.d", 1)]),
               "params.potential.d", "1,1099511627776"),
              (_shrunk("khasminskii", [
                  ("params.potential", {"name": "coulomb-3d"}),
                  ("params.q", [1.0, 0.0, 0.0])]),
               "grid.t_end", "0.25,0.5"),
              (_shrunk("kato", [("params.potential", {"name": "coulomb-3d"}),
                                ("params.n_probes", 3)]),
               "params.n_probes", "3,33"),
              (_shrunk("wiener-stats", [("n_paths", 16384)]), "params.d",
               "2,64")]
    for i, (point, axis, values) in enumerate(sweeps):
        out = tmp_path / str(i)
        out.mkdir()
        code, calls = _counted_sweep(monkeypatch, out, point, axis, values)
        assert code == 2, axis
        assert calls == []
        assert not list(out.rglob("*.csv"))
        assert "config error" in capsys.readouterr().err


# the documented ranges fail in the table, so a bad last point runs nothing
RANGE_SWEEPS = {
    "stochint-alpha": ("stochint-convergence", [], "params.alpha",
                       "0,0.5,1.5"),
    "trotter-alpha": ("trotter", [("params.alpha", 0.5)], "params.alpha",
                      "0.5,1,2"),
    "trotter-negative-t": ("trotter", [("params.t", 1.0)], "params.t",
                           "0.5,1,-1"),
    "odd-n_points": ("phasespace-roundtrip", [], "params.n_points", "8,16,7"),
    "zero-length": ("phasespace-roundtrip", [], "params.length", "4,8,0"),
    "alpha_values-entry": ("phasespace-roundtrip",
                           [("params.alpha_values", [0.5, 1.5])],
                           "params.n_points", "8,16"),
    "lattice-over-budget": ("phasespace-roundtrip", [], "params.n_points",
                            "8,1048576"),
}


@pytest.mark.parametrize("case", sorted(RANGE_SWEEPS))
def test_sweep_range_rule_runs_no_point(tmp_path, capsys, monkeypatch, case):
    name, overrides, axis, values = RANGE_SWEEPS[case]
    code, calls = _counted_sweep(monkeypatch, tmp_path,
                                 _shrunk(name, overrides), axis, values)
    assert code == 2
    assert calls == []
    assert not list(tmp_path.rglob("*.csv"))
    assert "config error" in capsys.readouterr().err


def test_kato_time_nodes_are_the_grid_steps(tmp_path, capsys):
    # the quadrature's time steps are grid.n_steps: another count, another
    # trapezoid; 1 and 4 steps both miss the well's closed form by about
    # 3.5e-4, over the row's 1e-4
    kappas = []
    for n_steps in (1, 4):
        code, _ = run_cli(tmp_path, _shrunk("kato", [("grid.n_steps",
                                                      n_steps)]))
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert code == (0 if row["pass"] else 1)
        kappas.append(row["mean_re"])
    assert kappas[0] != kappas[1]


# every preset with a v knows kappa_t in closed form, and box_kappa gives
# the others 0 without quadrature; coulomb-3d starts off its singularity
# at t = 0.25, where kappa_t = sqrt(2 / pi) < 1
KHASMINSKII_PRESETS = {
    **{f"constant-well-d{d}": {"name": "constant-well", "d": d}
       for d in (1, 2, 3)},
    **{f"harmonic-d{d}": {"name": "harmonic", "d": d} for d in (2, 3)},
    **{name: {"name": name} for name in ("coulomb-3d", "free",
                                         "constant-magnetic-2d",
                                         "gauge-linear")},
}


@pytest.mark.parametrize("case", sorted(KHASMINSKII_PRESETS))
def test_khasminskii_takes_a_closed_form_kappa(tmp_path, capsys, monkeypatch,
                                               case):
    # neither the parse-time check nor the run calls the quadrature
    def refuse(*args, **kwargs):
        raise AssertionError("kato_kappa ran")

    overrides = [("params.potential", KHASMINSKII_PRESETS[case])]
    if case == "coulomb-3d":
        overrides += [("params.q", [1.0, 0.0, 0.0]), ("grid.t_end", 0.25)]
    doc = _shrunk("khasminskii", overrides)
    monkeypatch.setattr(fkschrodinger, "kato_kappa", refuse)
    code, _ = run_cli(tmp_path, doc)
    row = json.loads(capsys.readouterr().out)["rows"][0]
    kappa = cli.parse_config(doc).params["potential"].closed.kappa(
        doc["grid"]["t_end"])
    assert code == 0
    assert row["target_re"] == 1.0 / (1.0 - (kappa or 0.0))


def _coulomb_khasminskii(q):
    return {"experiment": "khasminskii", "seed": 29, "n_paths": 8000,
            "grid": {"t_end": 0.25, "n_steps": 64},
            "params": {"potential": {"name": "coulomb-3d"}, "q": q}}


def test_khasminskii_coulomb_below_the_critical_time(tmp_path, capsys):
    # at t = 0.25 < pi / 8 the bound is 1 / (1 - sqrt(2 / pi)); paths from
    # the singularity all have an infinite integral and are rejected
    code, csv_path = run_cli(tmp_path, _coulomb_khasminskii([0.0] * 3))
    assert code == 3
    assert not csv_path.exists()
    assert "numerical failure" in capsys.readouterr().err
    code, _ = run_cli(tmp_path, _coulomb_khasminskii([1.0, 0.0, 0.0]))
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert code == 0
    assert row["target_re"] == 1.0 / (1.0 - math.sqrt(2 / math.pi))
    assert 1.0 <= row["mean_re"] < row["target_re"]


# 1 / r is not negligible outside the declared box: the leak warning is
# expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kato_coulomb_off_its_singularity_misses_the_closed_form(tmp_path,
                                                                 capsys):
    # 4 probes per axis avoid the origin: the quadrature runs and reports
    # its kappa, far from the sup that the closed form takes at x = 0
    doc = _preset_doc("kato coulomb-3d")
    doc["params"]["n_probes"] = 4
    code, csv_path = run_cli(tmp_path, doc)
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert code == 1
    assert csv_path.exists()
    assert row["target_re"] == pytest.approx(math.sqrt(1 / (8 * math.pi)),
                                             rel=1e-15)
    assert 0.0 < row["mean_re"] < 0.01


# entries that print as one %g row label would write two rows under it
REPEATED_LABELS = {
    "alpha_values-equal": ("phasespace-roundtrip",
                           [("params.alpha_values", [0.5, 0.5])],
                           "params.n_points", "8,16"),
    "alpha_values-g": ("phasespace-roundtrip",
                       [("params.alpha_values", [0.1234561, 0.1234562])],
                       "params.n_points", "8,16"),
    # 0.5 and 0.51 of 16 steps both round to node 8, s=0.5
    "node_fractions": ("wiener-stats",
                       [("grid.n_steps", 16),
                        ("params.node_fractions", [0.5, 0.51])],
                       "grid.t_end", "1,2"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_LABELS))
def test_repeated_row_label_runs_no_point(tmp_path, capsys, monkeypatch,
                                          case):
    name, overrides, axis, values = REPEATED_LABELS[case]
    code, calls = _counted_sweep(monkeypatch, tmp_path,
                                 _shrunk(name, overrides), axis, values)
    assert code == 2
    assert calls == []
    assert not list(tmp_path.rglob("*.csv"))
    assert "repeat" in capsys.readouterr().err


def test_readme_table_matches_the_experiments():
    # a README row | `experiment` | needs | params | names the table's
    # required top-level keys and its params; backticked experiment names
    # in a params cell point at another row
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.split("|")[1:-1]]
        if len(cells) == 3 and cells[0].strip("`") in cli.EXPERIMENTS:
            needs, params = (re.findall(r"`([^`]+)`", c) for c in cells[1:])
            rows[cells[0].strip("`")] = (
                tuple(needs), set(params) - set(cli.EXPERIMENTS))
    assert rows == {name: (row.needs, set(row.params))
                    for name, row in cli.EXPERIMENTS.items()}


def test_sweep_bad_axis_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, FK_MATRIX_DOC)
    assert main(["sweep", cfg, "--axis", "grid.nope", "--values", "1,2",
                 "--out", str(tmp_path)]) == 2
    assert main(["sweep", cfg, "--axis", "grid.n_steps", "--values", "x",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()
