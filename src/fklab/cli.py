"""Configuration-driven experiment runner.

Subcommands ``run`` and ``sweep`` execute one of twelve named experiments
from a JSON config, print a JSON report to stdout, and write a CSV sidecar
with fixed columns (experiment, quantity, component, mean_re, mean_im,
stderr, target_re, target_im, z, pass); a field holding a comma is quoted
the way the ``csv`` module quotes it. Results are bit-identical for a
fixed (seed, config) regardless of the worker count.

A valid config and its defaults are written once, in :data:`EXPERIMENTS`:
each row holds a runner, the required top-level keys, a sweep slope rule
and a params spec ``{key: (converter, default)}``. :func:`_fields` checks
each block (top level, grid, params, and the potential, psi, chi and
operator sub-blocks) against its spec and fills in defaults, so runners and
oracles read only resolved values. Potential parameters and defaults come
from ``fkschrodinger.POTENTIAL_PRESETS``.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 config error
(a failed table check, a ``ValueError`` from a library input check, or an
``--out`` that is not a writable directory; nothing is run), 3 numerical
failure, 4 the CSV sidecar could not be written after the run.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import fkmatrix, fkschrodinger, phasespace
from .fkschrodinger import (POTENTIAL_PRESETS, KatoQuadSpec,
                            PathRejectionOverflow, WaveFunction, kato_kappa,
                            mehler_kernel, preset_potential)
from .mc import MCEstimate, mc_run
from .stochint import AlphaScheme, FieldWithDivergence, convert_check_batch
from .streams import RngStream
from .wiener import (PathBatch, TimeGrid, estimate_covariance,
                     paths_from_increments, sample_increments)

ATOL = 1e-12  # roundoff floor below which z-tests are meaningless


class ConfigError(ValueError):
    """Invalid or unknown configuration content (exit code 2)."""


class OutputError(Exception):
    """The CSV sidecar could not be written (exit code 4)."""


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError raised by library input checks as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class Row:
    quantity: str
    component: str
    mean: complex
    stderr: float
    target: complex | None
    passed: bool

    @property
    def z(self) -> float:
        if self.target is None:
            return math.nan
        diff = abs(self.mean - self.target)
        if self.stderr > 0:
            return diff / self.stderr
        return 0.0 if diff == 0 else math.inf


def _zrow(quantity: str, component: str, mean, stderr, target,
          zmax: float) -> Row:
    diff = abs(complex(mean) - complex(target))
    return Row(quantity, component, complex(mean), float(stderr),
               complex(target), diff <= max(zmax * float(stderr), ATOL))


def _inforow(quantity: str, component: str, mean, stderr=0.0) -> Row:
    return Row(quantity, component, complex(mean), float(stderr), None, True)


# ---------------------------------------------------------------------------
# converters: (value, name, d) -> resolved value, d the point dimension

REQUIRED = object()  # spec default of a key the config must give


def _int(value, name: str, d=None, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) \
            or not minimum <= value < 2**64:
        raise ConfigError(f"{name} must be an integer in [{minimum}, 2**64)")
    return value


def _num(value, name: str, d=None) -> float:
    # the comparison also rejects NaN and integers beyond the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number")
    return float(value)


def _positive(value, name: str, d=None) -> float:
    if _num(value, name) <= 0:
        raise ConfigError(f"{name} must be positive")
    return float(value)


def _is_numeric_nest(value) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return True
    if isinstance(value, list):
        return all(_is_numeric_nest(v) for v in value)
    return False


def _array(value) -> np.ndarray | None:
    """Rectangular nested lists of finite numbers as floats, else None."""
    if not _is_numeric_nest(value):
        return None
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # ragged, or an int beyond float
        return None
    return arr if np.all(np.isfinite(arr)) else None


def _vector(value, name: str, d=None) -> np.ndarray:
    arr = _array(value)
    if arr is None or arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{name} must be a non-empty list of finite numbers")
    return arr


def _point(value, name: str, d: int) -> np.ndarray:
    arr = _vector(value, name)
    if arr.shape != (d,):
        raise ConfigError(f"{name} must have the potential dimension {d}")
    return arr


def _matrix(value, name: str, d=None) -> np.ndarray:
    """Nested arrays with innermost [re, im] pairs -> complex square matrix."""
    arr = _array(value)
    if arr is None or arr.ndim != 3 or arr.shape[2] != 2 \
            or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{name} must be a square matrix of finite [re, im] entry pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _matrices(value, name: str, d=None) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a list of matrices")
    return tuple(_matrix(a, f"{name}[{i}]") for i, a in enumerate(value))


def _grid(value, name: str, d=None) -> TimeGrid:
    return TimeGrid(**_fields(value, {"t_end": (_num, REQUIRED),
                                      "n_steps": (_int, REQUIRED)}, name))


def _fields(block, spec: dict, context: str, d: int | None = None) -> dict:
    """Check ``block`` against ``spec`` and return its resolved values.

    A missing key takes its default, which the converter resolves like a
    given value. A default that is a function is called with the point
    dimension ``d``; a ``potential`` key sets ``d`` for the keys after it.
    A key given as null passes only where its default is None.
    """
    where = context or "config"
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = sorted(set(block) - set(spec))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    out = {}
    for key, (convert, default) in spec.items():
        name = f"{context}.{key}" if context else key
        value = block.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required key: {name}")
        if callable(value):
            value = value(d)
        if value is None and default is None:
            out[key] = None
        else:
            out[key] = convert(value, name, d)
        if key == "potential":
            d = out[key].config.d
    return out


def _presets(specs: dict):
    """Converter of a sub-block ``{"name": preset, **fields}``, checked
    against ``specs[preset]``; it resolves to the name and resolved fields."""
    def convert(block, name: str, d=None) -> dict:
        if not isinstance(block, dict):
            raise ConfigError(f"{name} must be an object with a preset name")
        preset = block.get("name")
        if not isinstance(preset, str) or preset not in specs:
            raise ConfigError(f"{name}: unknown preset {preset!r}")
        fields = {k: v for k, v in block.items() if k != "name"}
        return {"name": preset, **_fields(fields, specs[preset], name, d)}

    return convert


class Potential(NamedTuple):
    preset: dict  # the resolved block: name and every preset parameter
    config: fkschrodinger.PotentialConfig


# an int default is an integer >= 1, a float default a finite number
_potential_block = _presets({
    name: {key: (_int if isinstance(v, int) else _num, v)
           for key, v in defaults.items()}
    for name, defaults in POTENTIAL_PRESETS.items()})


def _potential(value, name: str, d=None) -> Potential:
    preset = _potential_block(value, name)
    return Potential(preset, preset_potential(**preset))


_POTENTIAL = (_potential, REQUIRED)
_ORIGIN = (_point, lambda d: [0.0] * d)
_psi = _presets({
    "harmonic-ground": {},
    "gaussian": {"width": (_positive, 1.0), "center": _ORIGIN},
})
_chi = _presets({
    "linear": {"c": (_num, 1.0)},
    "sine": {"amplitude": (_num, 1.0), "wavenumber": (_num, 1.0)},
})
_operator = _presets({
    "harmonic": {"omega": (_num, 1.0)},
    "random-hermitian": {},
})


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    workers: int
    n_paths: int | None
    grid: TimeGrid | None
    params: dict
    raw: dict


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    experiment = doc.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment: {experiment!r}")
    row = EXPERIMENTS[experiment]

    top = _fields(doc, {
        "experiment": (lambda value, name, d: value, REQUIRED),
        "seed": (functools.partial(_int, minimum=0), REQUIRED),
        "workers": (_int, 1),
        "n_paths": (functools.partial(_int, minimum=2),
                    REQUIRED if "n_paths" in row.needs else None),
        "grid": (_grid, REQUIRED if "grid" in row.needs else None),
        "params": (lambda value, name, d: _fields(value, row.params, name),
                   {}),
    }, "")
    return ExperimentConfig(experiment, top["seed"], top["workers"],
                            top["n_paths"], top["grid"], top["params"],
                            copy.deepcopy(doc))


# ---------------------------------------------------------------------------
# experiment implementations (each returns a list of Rows)


def _run_wiener_stats(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    d, zmax, grid = p["d"], p["zmax"], cfg.grid
    idx = np.rint(p["node_fractions"] * grid.n_steps).astype(int)
    if np.any(idx < 1) or np.any(idx > grid.n_steps):
        raise ConfigError("node_fractions must lie in (0, 1]")
    times = idx * grid.dt
    est = estimate_covariance(grid, d, cfg.n_paths, RngStream(cfg.seed),
                              idx, workers=cfg.workers)
    n_nodes = len(idx)
    first = est.mean[:n_nodes * d].reshape(n_nodes, d)
    first_err = est.stderr[:n_nodes * d].reshape(n_nodes, d)
    second = est.mean[n_nodes * d:].reshape(n_nodes, n_nodes, d, d)
    second_err = est.stderr[n_nodes * d:].reshape(n_nodes, n_nodes, d, d)
    rows = []
    for a in range(n_nodes):
        for j in range(d):
            rows.append(_zrow("mean", f"s={times[a]:g},j={j}",
                              first[a, j], first_err[a, j], 0.0, zmax))
    for a in range(n_nodes):
        for b in range(n_nodes):
            for j in range(d):
                for k in range(d):
                    target = min(times[a], times[b]) if j == k else 0.0
                    rows.append(_zrow(
                        "cov", f"r={times[a]:g},s={times[b]:g},j={j},k={k}",
                        second[a, b, j, k], second_err[a, b, j, k],
                        target, zmax))
    return rows


def _run_stochint_convergence(cfg: ExperimentConfig) -> list[Row]:
    alpha = cfg.params["alpha"]
    scheme = AlphaScheme(alpha)
    field = FieldWithDivergence(
        lambda x, s: x, lambda x, s: np.full(x.shape[:-1], 1.0))
    grid = cfg.grid

    def func(gen, count):
        vals = paths_from_increments(grid, sample_increments(grid, 1, count, gen))
        r = convert_check_batch(PathBatch(grid, vals), field, scheme)
        return r**2

    est = mc_run(func, cfg.n_paths, RngStream(cfg.seed), workers=cfg.workers)
    if alpha == 0.5:
        return [Row("ms_residual", "-", complex(est.mean), float(est.stderr),
                    0.0, est.mean == 0)]
    return [_inforow("ms_residual", "-", est.mean, est.stderr)]


def _matrix_rows(name: str, est: MCEstimate, target: np.ndarray,
                 frob_tol: float, zmax: float) -> list[Row]:
    m = target.shape[0]
    rows = []
    for i in range(m):
        for j in range(m):
            rows.append(_zrow(name, f"{i}{j}", est.mean[i, j],
                              est.stderr[i, j], target[i, j], zmax))
    frob = float(np.linalg.norm(est.mean - target))
    frob_err = float(np.linalg.norm(est.stderr))
    rows.append(Row("frobenius_error", "-", frob, frob_err, 0.0,
                    frob <= max(3 * frob_err, frob_tol)))
    return rows


def _run_fk_matrix(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    A = p["A"]
    m = A[0].shape[0]
    B = p["B"] if p["B"] is not None else np.zeros((m, m), dtype=complex)
    problem = fkmatrix.FKProblem(A, B, cfg.grid.t_end, cfg.grid)
    est = fkmatrix.estimate_generalized_fk(problem, cfg.n_paths,
                                           RngStream(cfg.seed),
                                           workers=cfg.workers)
    return _matrix_rows("T", est, fkmatrix.rhs_generator(problem),
                        p["frob_tol"], p["zmax"])


def _run_fk_product(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    Ap, Am = p["Aplus"], p["Aminus"]
    B = p["B"] if p["B"] is not None else np.zeros_like(Ap)
    if Ap.shape != Am.shape or Ap.shape != B.shape:
        raise ConfigError("Aplus, Aminus, B must share one dimension")
    est = fkmatrix.estimate_product_formula(
        Ap, Am, B, cfg.grid.t_end, cfg.grid, cfg.n_paths,
        RngStream(cfg.seed), workers=cfg.workers)
    target = fkmatrix.product_formula_target(Ap, Am, B, cfg.grid.t_end)
    return _matrix_rows("T", est, target, p["frob_tol"], p["zmax"])


def _wavefunction(psi: dict, pot: Potential) -> WaveFunction:
    """The psi block as a function; ``harmonic-ground`` is the ground state
    (omega/pi)^(d/4) exp(-omega |x|^2 / 2) of the potential's oscillator
    (omega = 1 unless the potential sets it)."""
    if psi["name"] == "harmonic-ground":
        d, omega = pot.config.d, pot.preset.get("omega", 1.0)
        # written so that omega = 1 gives the same bits as pi^(-d/4) e^(-x^2/2)
        return WaveFunction(lambda x: omega ** (d / 4) * math.pi ** (-d / 4)
                            * np.exp(-0.5 * omega * np.sum(x**2, axis=-1)))
    width, center = psi["width"], psi["center"]  # gaussian
    return WaveFunction(lambda x: np.exp(
        -np.sum((x - center)**2, axis=-1) / (2 * width**2)))


def _semigroup_target(pot: Potential, psi: dict, q: np.ndarray, t: float):
    d = pot.config.d
    if pot.preset["name"] == "harmonic" and psi["name"] == "harmonic-ground":
        # an eigenfunction with eigenvalue d omega / 2
        omega = pot.preset["omega"]
        return (math.exp(-t * d * omega / 2) * omega ** (d / 4)
                * math.pi ** (-d / 4) * math.exp(-0.5 * omega * float(q @ q)))
    if pot.preset["name"] == "free" and psi["name"] == "gaussian":
        w, c = psi["width"], psi["center"]
        s = w**2 + t
        return ((w**2 / s) ** (d / 2)
                * math.exp(-float((q - c) @ (q - c)) / (2 * s)))
    return None


def _run_fk_semigroup(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    pot, psi, q = p["potential"], p["psi"], p["q"]
    est = fkschrodinger.apply_semigroup(pot.config,
                                        _wavefunction(psi, pot), q,
                                        cfg.grid.t_end, cfg.n_paths, cfg.grid,
                                        RngStream(cfg.seed),
                                        workers=cfg.workers)
    target = _semigroup_target(pot, psi, q, cfg.grid.t_end)
    if target is None:
        return [_inforow("psi_t", "-", est.mean, est.stderr)]
    return [_zrow("psi_t", "-", est.mean, est.stderr, target, p["zmax"])]


def _run_fk_kernel(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    pot, q, qp = p["potential"], p["q"], p["q_prime"]
    t = cfg.grid.t_end
    est = fkschrodinger.kernel(pot.config, q, qp, t, cfg.n_paths, cfg.grid,
                               RngStream(cfg.seed), workers=cfg.workers)
    name = pot.preset["name"]
    if name == "free":
        target = fkschrodinger.free_kernel(pot.config.d, qp - q, t)
    elif name == "harmonic" and pot.config.d == 1:
        target = mehler_kernel(float(q[0]), float(qp[0]), t,
                               pot.preset["omega"])
    else:
        return [_inforow("kernel", "-", est.mean, est.stderr)]
    diff = abs(est.mean - target)
    passed = diff <= max(3 * est.stderr, p["rel_tol"] * abs(target))
    return [Row("kernel", "-", est.mean, est.stderr, complex(target), passed)]


def _with_chi(pot: fkschrodinger.PotentialConfig,
              chi: dict) -> fkschrodinger.PotentialConfig:
    if chi["name"] == "linear":
        c = chi["c"]
        return replace(pot, chi=lambda x: c * np.sum(x, axis=-1),
                       grad_chi=lambda x: np.full_like(x, c))
    amp, k = chi["amplitude"], chi["wavenumber"]  # sine
    return replace(pot, chi=lambda x: amp * np.sum(np.sin(k * x), axis=-1),
                   grad_chi=lambda x: amp * k * np.cos(k * x))


def _run_gauge(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    pot = _with_chi(p["potential"].config, p["chi"])
    est = fkschrodinger.gauge_check(pot, p["q"], p["q_prime"], cfg.grid.t_end,
                                    cfg.n_paths, cfg.grid, RngStream(cfg.seed),
                                    workers=cfg.workers)
    return [_zrow("gauge_residual", "-", est.mean, est.stderr, 0.0, p["zmax"])]


def _run_kato(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    pot, t = p["potential"], cfg.grid.t_end
    kappa = kato_kappa(pot.config.eval_v_minus, t,
                       fkschrodinger.box_probes(pot.config, p["n_probes"]),
                       KatoQuadSpec(p["n_space"], p["n_time"]),
                       pot.config.box_halfwidth)
    # a well wide enough that no Gaussian escapes it from the central probe
    # acts as a constant potential: kappa_t = c * t exactly
    well = pot.preset
    if well["name"] == "constant-well" \
            and well["halfwidth"] >= 8 * math.sqrt(t):
        target = well["height"] * t
        return [Row("kappa", "-", kappa, 0.0, target,
                    abs(kappa - target) <= 1e-4)]
    return [_inforow("kappa", "-", kappa)]


def _run_khasminskii(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    lhs, bound = fkschrodinger.khasminskii_check(
        p["potential"].config, p["q"], cfg.grid.t_end, cfg.n_paths, cfg.grid,
        RngStream(cfg.seed), workers=cfg.workers)
    # one-sided: the exponential moment must not exceed the bound
    excess = lhs.mean.real - bound
    return [Row("exp_moment", "-", lhs.mean, lhs.stderr, bound,
                excess <= max(3 * lhs.stderr, ATOL))]


def _run_diamagnetic(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    pot = p["potential"]
    with_a, without_a = fkschrodinger.diamagnetic_check(
        pot.config, _wavefunction(p["psi"], pot), p["q"], cfg.grid.t_end,
        cfg.n_paths, cfg.grid, RngStream(cfg.seed), workers=cfg.workers)
    gap = abs(with_a.mean) - without_a.mean.real
    err = math.hypot(with_a.stderr, without_a.stderr)
    return [
        _inforow("magnetic", "-", with_a.mean, with_a.stderr),
        _inforow("nonmagnetic", "-", without_a.mean, without_a.stderr),
        Row("magnitude_gap", "-", gap, err, 0.0, gap <= max(3 * err, ATOL)),
    ]


def _phasespace_operator(op: dict, grid: phasespace.PeriodicGrid,
                         seed: int) -> np.ndarray:
    if op["name"] == "harmonic":
        omega = op["omega"]
        return phasespace.standard_hamiltonian(
            grid, None, lambda q: 0.5 * omega**2 * q**2)
    gen = RngStream(seed, 1).generator()  # random-hermitian
    n = grid.n_points
    raw = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return raw + raw.conj().T


def _run_phasespace_roundtrip(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    grid = phasespace.PeriodicGrid(p["n_points"], p["length"])
    H = _phasespace_operator(p["operator"], grid, cfg.seed)
    rows = []
    for alpha in p["alpha_values"]:
        sym = phasespace.alpha_symbol(H, grid, float(alpha))
        err = float(np.abs(phasespace.alpha_quantize(sym) - H).max())
        rows.append(Row("roundtrip_error", f"alpha={alpha:g}", err, 0.0,
                        0.0, err <= 1e-10))
        if alpha == 0.5 and p["operator"]["name"] == "harmonic":
            im = float(np.abs(sym.values.imag).max())
            rows.append(Row("imag_part", f"alpha={alpha:g}", im, 0.0,
                            0.0, im <= 1e-10))
    return rows


def _run_trotter(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    grid = phasespace.PeriodicGrid(p["n_points"], p["length"])
    H = _phasespace_operator(p["hamiltonian"], grid, cfg.seed)
    table = phasespace.trotter_reconstruct(H, grid, p["alpha"], p["t"],
                                           [p["n"]], workers=cfg.workers)
    return [_inforow("trotter_error", f"n={p['n']}", table[0][1])]


@dataclass(frozen=True)
class Experiment:
    """One row of the parameter table."""

    run: Callable[[ExperimentConfig], list[Row]]
    params: dict  # key -> (converter, default)
    needs: tuple = ("n_paths", "grid")  # required top-level keys
    # sweep CSVs get a fitted log-log slope row: quantity, slope target,
    # tolerance (target None = require a positive slope only)
    slope: tuple | None = None


_ZMAX = (_num, 4.0)
_MATRIX_TOLS = {"B": (_matrix, None), "frob_tol": (_num, 1e-2), "zmax": _ZMAX}
_LATTICE = {"n_points": (_int, 64), "length": (_num, 16.0)}
_HARMONIC = (_operator, {"name": "harmonic"})

# a potential comes before the points that take its dimension
EXPERIMENTS = {
    "wiener-stats": Experiment(_run_wiener_stats, {
        "d": (_int, 2), "node_fractions": (_vector, [0.25, 0.5, 0.75]),
        "zmax": _ZMAX}),
    "stochint-convergence": Experiment(
        _run_stochint_convergence, {"alpha": (_num, REQUIRED)},
        slope=("ms_residual", -1.0, 0.3)),
    "fk-matrix": Experiment(_run_fk_matrix, {
        "A": (_matrices, REQUIRED), **_MATRIX_TOLS}),
    "fk-product": Experiment(_run_fk_product, {
        "Aplus": (_matrix, REQUIRED), "Aminus": (_matrix, REQUIRED),
        **_MATRIX_TOLS}),
    "fk-semigroup": Experiment(_run_fk_semigroup, {
        "potential": _POTENTIAL, "psi": (_psi, REQUIRED), "q": _ORIGIN,
        "zmax": _ZMAX}),
    "fk-kernel": Experiment(_run_fk_kernel, {
        "potential": _POTENTIAL, "q": _ORIGIN, "q_prime": _ORIGIN,
        "rel_tol": (_num, 0.02)}),
    "gauge": Experiment(_run_gauge, {
        "potential": _POTENTIAL, "chi": (_chi, REQUIRED), "q": _ORIGIN,
        "q_prime": (_point, lambda d: [0.5] * d), "zmax": _ZMAX}),
    "kato": Experiment(_run_kato, {
        "potential": _POTENTIAL, "n_space": (_int, 96), "n_time": (_int, 64),
        "n_probes": (_int, 33)}, needs=("grid",), slope=("kappa", None, None)),
    "khasminskii": Experiment(_run_khasminskii, {
        "potential": _POTENTIAL, "q": _ORIGIN}),
    "diamagnetic": Experiment(_run_diamagnetic, {
        "potential": _POTENTIAL, "psi": (_psi, REQUIRED), "q": _ORIGIN}),
    "phasespace-roundtrip": Experiment(_run_phasespace_roundtrip, {
        **_LATTICE, "alpha_values": (_vector, [0.0, 0.25, 0.5, 0.75, 1.0]),
        "operator": _HARMONIC}, needs=()),
    "trotter": Experiment(_run_trotter, {
        **_LATTICE, "alpha": (_num, 0.5), "t": (_num, 1.0),
        "n": (_int, REQUIRED), "hamiltonian": _HARMONIC},
        needs=(), slope=("trotter_error", -1.0, 0.3)),
}


# ---------------------------------------------------------------------------
# reporting


def _fmt(x: float) -> str:
    return "%.17g" % x


def _csv_rows(experiment: str, rows: list[Row]) -> list[list[str]]:
    out = [["experiment", "quantity", "component", "mean_re", "mean_im",
            "stderr", "target_re", "target_im", "z", "pass"]]
    for r in rows:
        t_re = r.target.real if r.target is not None else math.nan
        t_im = r.target.imag if r.target is not None else math.nan
        out.append([
            experiment, r.quantity, r.component,
            _fmt(r.mean.real), _fmt(r.mean.imag), _fmt(r.stderr),
            _fmt(t_re), _fmt(t_im), _fmt(r.z),
            "true" if r.passed else "false"])
    return out


def _json_rows(rows: list[Row]) -> list[dict]:
    out = []
    for r in rows:
        out.append({
            "quantity": r.quantity,
            "component": r.component,
            "mean_re": r.mean.real, "mean_im": r.mean.imag,
            "stderr": r.stderr,
            "target_re": None if r.target is None else r.target.real,
            "target_im": None if r.target is None else r.target.imag,
            "z": None if math.isnan(r.z) else r.z,
            "pass": r.passed,
        })
    return out


def _resolve_axis(doc: dict, axis: str):
    """Return (container, key) for a dotted path into the raw config."""
    parts = axis.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"axis path not found: {axis}")
        node = node[part]
    key = parts[-1]
    if not isinstance(node, dict) or key not in node:
        raise ConfigError(f"axis path not found: {axis}")
    if isinstance(node[key], bool) or not isinstance(node[key], (int, float)):
        raise ConfigError(f"axis {axis} must name a numeric scalar")
    return node, key


# ---------------------------------------------------------------------------
# entry points


def _load(args) -> dict:
    """The config object, with the environment and flag overrides applied."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    # int() of a malformed override raises ValueError: a config error
    for key, var in (("seed", "FKLAB_SEED"), ("workers", "FKLAB_WORKERS")):
        if var in os.environ:
            doc[key] = int(os.environ[var])
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.workers is not None:
        doc["workers"] = args.workers
    return doc


def _finish(args, report: dict, experiment: str, rows: list[Row],
            start: float, suffix: str) -> int:
    """Complete the report, write the CSV sidecar and return the exit code."""
    passed = all(r.passed for r in rows)
    report.update(rows=_json_rows(rows), wall_time_s=time.monotonic() - start,
                  passed=passed)
    stem = os.path.splitext(os.path.basename(args.config))[0]
    path = os.path.join(args.out, stem + suffix)
    try:
        # csv's default dialect: \r\n line ends, fields quoted only when needed
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(_csv_rows(experiment, rows))
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if passed else 1


def cmd_run(args) -> int:
    cfg = parse_config(_load(args))
    start = time.monotonic()
    rows = EXPERIMENTS[cfg.experiment].run(cfg)
    return _finish(args, {"config": cfg.raw}, cfg.experiment, rows, start,
                   ".csv")


def cmd_sweep(args) -> int:
    doc = _load(args)
    try:
        values = [json.loads(v) for v in args.values.replace(",", " ").split()]
    except json.JSONDecodeError:
        values = []
    if not values or any(isinstance(v, bool) or not isinstance(v, (int, float))
                         for v in values):
        raise ConfigError(f"sweep values must be numbers: {args.values!r}")
    _resolve_axis(doc, args.axis)  # validate path before any run
    experiment = parse_config(doc).experiment
    slope = EXPERIMENTS[experiment].slope

    all_rows: list[Row] = []
    decaying: list[tuple[float, float]] = []
    start = time.monotonic()
    for value in values:
        point = copy.deepcopy(doc)
        node, key = _resolve_axis(point, args.axis)
        node[key] = value
        cfg = parse_config(point)
        rows = EXPERIMENTS[experiment].run(cfg)
        for r in rows:
            all_rows.append(
                replace(r, component=f"{r.component}[{args.axis}={value:g}]"))
            if slope and r.quantity == slope[0] and r.mean.real > 0:
                decaying.append((float(value), r.mean.real))

    if slope and len(decaying) >= 2:
        qname, target, tol = slope
        log_x, log_y = np.log(np.asarray(decaying)).T
        fitted = float(np.polyfit(log_x, log_y, 1)[0])
        # with no target the quantity must vanish as the axis value -> 0
        passed = fitted > 0 if target is None else abs(fitted - target) <= tol
        all_rows.append(Row(f"slope({qname})", args.axis, fitted, 0.0,
                            None if target is None else complex(target),
                            passed))
    report = {"config": doc, "axis": args.axis, "values": values}
    return _finish(args, report, experiment, all_rows, start, ".sweep.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fklab",
        description="Monte Carlo Feynman-Kac and phase-space experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("config", help="JSON experiment configuration")
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
        sp.add_argument("--workers", type=int, default=None,
                        help="override the worker count")
        sp.add_argument("--out", default=".",
                        help="directory for the CSV sidecar")

    run_p = sub.add_parser("run", help="execute one experiment")
    common(run_p)
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run an experiment along an axis")
    common(sweep_p)
    sweep_p.add_argument("--axis", required=True,
                         help="dotted path of the swept scalar, e.g. grid.n_steps")
    sweep_p.add_argument("--values", required=True,
                         help="comma- or space-separated numeric values")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def _check_out(out: str) -> None:
    """Reject an output directory before anything runs."""
    if not os.path.isdir(out):
        raise ConfigError(f"output directory does not exist: {out}")
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory is not writable: {out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        # every ValueError the library raises is an input check
        with _config_errors():
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PathRejectionOverflow, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
