"""Config-driven command line runner: parsing, exit codes, determinism."""

import csv
import json

import pytest

from fklab.cli import ConfigError, main, parse_config

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


def test_sweep_kato_decay(tmp_path, capsys):
    doc = {
        "experiment": "kato",
        "seed": 1,
        "grid": {"t_end": 0.5, "n_steps": 1},
        "params": {"potential": {"name": "constant-well", "height": 0.3,
                                 "halfwidth": 1.0},
                   "n_probes": 9, "n_space": 48, "n_time": 24},
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


def test_sweep_bad_axis_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, FK_MATRIX_DOC)
    assert main(["sweep", cfg, "--axis", "grid.nope", "--values", "1,2",
                 "--out", str(tmp_path)]) == 2
    assert main(["sweep", cfg, "--axis", "grid.n_steps", "--values", "x",
                 "--out", str(tmp_path)]) == 2
    capsys.readouterr()
