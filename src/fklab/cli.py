"""Configuration-driven experiment runner.

Subcommands ``run`` and ``sweep`` execute one of twelve named experiments
from a JSON config, print a JSON report to stdout, and write a CSV sidecar
with fixed columns (experiment, quantity, component, mean_re, mean_im,
stderr, target_re, target_im, z, pass); a field holding a comma is quoted
the way the ``csv`` module quotes it. Results are bit-identical for a
fixed (seed, config) regardless of the worker count.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import fkmatrix, fkschrodinger, phasespace
from .fkschrodinger import (KatoQuadSpec, PathRejectionOverflow, WaveFunction,
                            kato_kappa, mehler_kernel, preset_potential)
from .mc import MCEstimate, mc_run
from .stochint import AlphaScheme, FieldWithDivergence, convert_check_batch
from .streams import RngStream
from .wiener import (PathBatch, TimeGrid, estimate_covariance,
                     paths_from_increments, sample_increments)

EXPERIMENTS = ("wiener-stats", "stochint-convergence", "fk-matrix",
               "fk-product", "fk-semigroup", "fk-kernel", "gauge", "kato",
               "khasminskii", "diamagnetic", "phasespace-roundtrip", "trotter")

# experiments whose sweep CSV gets a fitted log-log slope row:
# quantity, slope target, tolerance (None = require positive slope only)
DECAYING = {
    "stochint-convergence": ("ms_residual", -1.0, 0.3),
    "trotter": ("trotter_error", -1.0, 0.3),
    "kato": ("kappa", None, None),
}

ATOL = 1e-12  # roundoff floor below which z-tests are meaningless


class ConfigError(ValueError):
    """Invalid or unknown configuration content (exit code 2)."""


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
# config parsing


def _take(block: dict, key: str, required: bool = False, default=None):
    if key in block:
        return block.pop(key)
    if required:
        raise ConfigError(f"missing required key: {key}")
    return default


def _no_extras(block: dict, context: str) -> None:
    if block:
        raise ConfigError(f"unknown keys in {context}: {sorted(block)}")


def _as_int(value, name: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}")
    return value


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    return float(value)


def _as_matrix(value, name: str) -> np.ndarray:
    """Nested arrays with innermost [re, im] pairs -> complex square matrix."""
    arr = np.asarray(value, dtype=float) if _is_numeric_nest(value) else None
    if arr is None or arr.ndim != 3 or arr.shape[2] != 2 \
            or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{name} must be a square matrix of [re, im] entry pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _is_numeric_nest(value) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return True
    if isinstance(value, list):
        return all(_is_numeric_nest(v) for v in value)
    return False


def _as_vector(value, name: str) -> np.ndarray:
    if not (isinstance(value, list) and value
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in value)):
        raise ConfigError(f"{name} must be a non-empty list of numbers")
    return np.asarray(value, dtype=float)


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
    raw = copy.deepcopy(doc)
    doc = copy.deepcopy(doc)
    experiment = _take(doc, "experiment", required=True)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment: {experiment!r}")
    seed = _take(doc, "seed", required=True)
    if not isinstance(seed, int) or isinstance(seed, bool) \
            or not 0 <= seed < 2**64:
        raise ConfigError("seed must be a 64-bit unsigned integer")
    workers = _as_int(_take(doc, "workers", default=1), "workers")

    n_paths = _take(doc, "n_paths")
    if n_paths is not None:
        n_paths = _as_int(n_paths, "n_paths", minimum=2)
    grid_block = _take(doc, "grid")
    grid = None
    if grid_block is not None:
        if not isinstance(grid_block, dict):
            raise ConfigError("grid must be an object")
        t_end = _as_float(_take(grid_block, "t_end", required=True),
                          "grid.t_end")
        n_steps = _as_int(_take(grid_block, "n_steps", required=True),
                          "grid.n_steps")
        _no_extras(grid_block, "grid")
        if t_end <= 0:
            raise ConfigError("grid.t_end must be positive")
        grid = TimeGrid(t_end, n_steps)

    params = _take(doc, "params", default={})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    _no_extras(doc, "config")

    needs_mc = experiment not in ("phasespace-roundtrip", "trotter", "kato")
    if needs_mc and (n_paths is None or grid is None):
        raise ConfigError(f"experiment {experiment} requires n_paths and grid")
    if experiment == "kato" and grid is None:
        raise ConfigError("experiment kato requires grid (t_end is used)")
    return ExperimentConfig(experiment, seed, workers, n_paths, grid,
                            params, raw)


def _parse_potential(block, context: str) -> fkschrodinger.PotentialConfig:
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be an object with a preset name")
    block = dict(block)
    name = _take(block, "name", required=True)
    try:
        return preset_potential(name, **block)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_psi(block, d: int, context: str) -> WaveFunction:
    if not isinstance(block, dict):
        raise ConfigError(f"{context} must be an object")
    block = dict(block)
    name = _take(block, "name", required=True)
    if name == "harmonic-ground":
        _no_extras(block, context)
        return WaveFunction(
            lambda x: math.pi ** (-d / 4) * np.exp(-0.5 * np.sum(x**2, axis=-1)))
    if name == "gaussian":
        width = _as_float(_take(block, "width", default=1.0), f"{context}.width")
        center = np.asarray(_take(block, "center", default=[0.0] * d),
                            dtype=float)
        _no_extras(block, context)
        if width <= 0 or center.shape != (d,):
            raise ConfigError(f"{context}: bad width or center")
        return WaveFunction(lambda x: np.exp(
            -np.sum((x - center)**2, axis=-1) / (2 * width**2)))
    raise ConfigError(f"{context}: unknown wavefunction {name!r}")


# ---------------------------------------------------------------------------
# experiment implementations (each returns a list of Rows)


def _run_wiener_stats(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    d = _as_int(_take(p, "d", default=2), "params.d")
    fractions = _take(p, "node_fractions", default=[0.25, 0.5, 0.75])
    zmax = _as_float(_take(p, "zmax", default=4.0), "params.zmax")
    _no_extras(p, "params")
    fractions = _as_vector(fractions, "params.node_fractions")
    grid = cfg.grid
    idx = np.rint(fractions * grid.n_steps).astype(int)
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
    p = dict(cfg.params)
    alpha = _as_float(_take(p, "alpha", required=True), "params.alpha")
    _no_extras(p, "params")
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
                 frob_tol: float, zmax: float = 4.0) -> list[Row]:
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
    p = dict(cfg.params)
    A_block = _take(p, "A", required=True)
    if not isinstance(A_block, list) or not A_block:
        raise ConfigError("params.A must be a list of matrices")
    A = tuple(_as_matrix(a, f"params.A[{i}]") for i, a in enumerate(A_block))
    m = A[0].shape[0]
    B_block = _take(p, "B")
    B = _as_matrix(B_block, "params.B") if B_block is not None \
        else np.zeros((m, m), dtype=complex)
    frob_tol = _as_float(_take(p, "frob_tol", default=1e-2), "params.frob_tol")
    zmax = _as_float(_take(p, "zmax", default=4.0), "params.zmax")
    _no_extras(p, "params")
    with _config_errors():
        problem = fkmatrix.FKProblem(A, B, cfg.grid.t_end, cfg.grid)
        est = fkmatrix.estimate_generalized_fk(problem, cfg.n_paths,
                                               RngStream(cfg.seed),
                                               workers=cfg.workers)
    return _matrix_rows("T", est, fkmatrix.rhs_generator(problem), frob_tol,
                        zmax)


def _run_fk_product(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    Ap = _as_matrix(_take(p, "Aplus", required=True), "params.Aplus")
    Am = _as_matrix(_take(p, "Aminus", required=True), "params.Aminus")
    B_block = _take(p, "B")
    B = _as_matrix(B_block, "params.B") if B_block is not None \
        else np.zeros_like(Ap)
    frob_tol = _as_float(_take(p, "frob_tol", default=1e-2), "params.frob_tol")
    zmax = _as_float(_take(p, "zmax", default=4.0), "params.zmax")
    _no_extras(p, "params")
    if Ap.shape != Am.shape or Ap.shape != B.shape:
        raise ConfigError("Aplus, Aminus, B must share one dimension")
    with _config_errors():
        est = fkmatrix.estimate_product_formula(
            Ap, Am, B, cfg.grid.t_end, cfg.grid, cfg.n_paths,
            RngStream(cfg.seed), workers=cfg.workers)
    target = fkmatrix.product_formula_target(Ap, Am, B, cfg.grid.t_end)
    return _matrix_rows("T", est, target, frob_tol, zmax)


def _semigroup_target(pot_name: str, pot: fkschrodinger.PotentialConfig,
                      psi_block: dict, q: np.ndarray, t: float):
    if pot_name == "harmonic" and psi_block.get("name") == "harmonic-ground":
        d = pot.d
        return (math.exp(-t * d / 2) * math.pi ** (-d / 4)
                * math.exp(-0.5 * float(q @ q)))
    if pot_name == "free" and psi_block.get("name") == "gaussian":
        w = float(psi_block.get("width", 1.0))
        c = np.asarray(psi_block.get("center", [0.0] * pot.d), dtype=float)
        s = w**2 + t
        return ((w**2 / s) ** (pot.d / 2)
                * math.exp(-float((q - c) @ (q - c)) / (2 * s)))
    return None


def _run_fk_semigroup(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    pot_block = _take(p, "potential", required=True)
    pot = _parse_potential(pot_block, "params.potential")
    psi_block = _take(p, "psi", required=True)
    psi = _parse_psi(psi_block, pot.d, "params.psi")
    q = _as_vector(_take(p, "q", default=[0.0] * pot.d), "params.q")
    zmax = _as_float(_take(p, "zmax", default=4.0), "params.zmax")
    _no_extras(p, "params")
    if q.shape != (pot.d,):
        raise ConfigError("params.q must have the potential dimension")
    est = fkschrodinger.apply_semigroup(pot, psi, q, cfg.grid.t_end,
                                        cfg.n_paths, cfg.grid,
                                        RngStream(cfg.seed),
                                        workers=cfg.workers)
    target = _semigroup_target(pot_block["name"], pot, psi_block, q,
                               cfg.grid.t_end)
    if target is None:
        return [_inforow("psi_t", "-", est.mean, est.stderr)]
    return [_zrow("psi_t", "-", est.mean, est.stderr, target, zmax)]


def _run_fk_kernel(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    pot_block = _take(p, "potential", required=True)
    pot = _parse_potential(pot_block, "params.potential")
    q = _as_vector(_take(p, "q", default=[0.0] * pot.d), "params.q")
    qp = _as_vector(_take(p, "q_prime", default=[0.0] * pot.d),
                    "params.q_prime")
    rel_tol = _as_float(_take(p, "rel_tol", default=0.02), "params.rel_tol")
    _no_extras(p, "params")
    if q.shape != (pot.d,) or qp.shape != (pot.d,):
        raise ConfigError("params.q / q_prime must have the potential dimension")
    t = cfg.grid.t_end
    est = fkschrodinger.kernel(pot, q, qp, t, cfg.n_paths, cfg.grid,
                               RngStream(cfg.seed), workers=cfg.workers)
    name = pot_block["name"]
    if name == "free":
        target = fkschrodinger.free_kernel(pot.d, qp - q, t)
    elif name == "harmonic" and pot.d == 1:
        omega = float(pot_block.get("omega", 1.0))
        target = mehler_kernel(float(q[0]), float(qp[0]), t, omega)
    else:
        return [_inforow("kernel", "-", est.mean, est.stderr)]
    diff = abs(est.mean - target)
    passed = diff <= max(3 * est.stderr, rel_tol * abs(target))
    return [Row("kernel", "-", est.mean, est.stderr, complex(target), passed)]


def _with_chi(pot: fkschrodinger.PotentialConfig, chi_block,
              context: str) -> fkschrodinger.PotentialConfig:
    if not isinstance(chi_block, dict):
        raise ConfigError(f"{context} must be an object")
    chi_block = dict(chi_block)
    name = _take(chi_block, "name", required=True)
    if name == "linear":
        c = _as_float(_take(chi_block, "c", default=1.0), f"{context}.c")
        _no_extras(chi_block, context)
        chi = lambda x: c * np.sum(x, axis=-1)
        grad = lambda x: np.full_like(x, c)
    elif name == "sine":
        amp = _as_float(_take(chi_block, "amplitude", default=1.0),
                        f"{context}.amplitude")
        k = _as_float(_take(chi_block, "wavenumber", default=1.0),
                      f"{context}.wavenumber")
        _no_extras(chi_block, context)
        chi = lambda x: amp * np.sum(np.sin(k * x), axis=-1)
        grad = lambda x: amp * k * np.cos(k * x)
    else:
        raise ConfigError(f"{context}: unknown gauge function {name!r}")
    from dataclasses import replace
    return replace(pot, chi=chi, grad_chi=grad)


def _run_gauge(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    pot = _parse_potential(_take(p, "potential", required=True),
                           "params.potential")
    pot = _with_chi(pot, _take(p, "chi", required=True), "params.chi")
    q = _as_vector(_take(p, "q", default=[0.0] * pot.d), "params.q")
    qp = _as_vector(_take(p, "q_prime", default=[0.5] * pot.d),
                    "params.q_prime")
    zmax = _as_float(_take(p, "zmax", default=4.0), "params.zmax")
    _no_extras(p, "params")
    est = fkschrodinger.gauge_check(pot, q, qp, cfg.grid.t_end, cfg.n_paths,
                                    cfg.grid, RngStream(cfg.seed),
                                    workers=cfg.workers)
    return [_zrow("gauge_residual", "-", est.mean, est.stderr, 0.0, zmax)]


def _run_kato(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    pot_block = _take(p, "potential", required=True)
    pot = _parse_potential(pot_block, "params.potential")
    n_space = _as_int(_take(p, "n_space", default=96), "params.n_space")
    n_time = _as_int(_take(p, "n_time", default=64), "params.n_time")
    n_probes = _as_int(_take(p, "n_probes", default=33), "params.n_probes")
    _no_extras(p, "params")
    t = cfg.grid.t_end
    axis = np.linspace(-pot.box_halfwidth, pot.box_halfwidth, n_probes)
    probes = np.stack(np.meshgrid(*([axis] * pot.d), indexing="ij"),
                      axis=-1).reshape(-1, pot.d)
    kappa = kato_kappa(pot.eval_v_minus, t, probes,
                       KatoQuadSpec(n_space, n_time), pot.box_halfwidth)
    # a well wide enough that no Gaussian escapes it from the central probe
    # acts as a constant potential: kappa_t = c * t exactly
    if pot_block["name"] == "constant-well" \
            and float(pot_block.get("halfwidth", 1.0)) >= 8 * math.sqrt(t):
        c = float(pot_block.get("height", 0.3))
        target = c * t
        return [Row("kappa", "-", kappa, 0.0, target,
                    abs(kappa - target) <= 1e-4)]
    return [_inforow("kappa", "-", kappa)]


def _run_khasminskii(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    pot = _parse_potential(_take(p, "potential", required=True),
                           "params.potential")
    q = _as_vector(_take(p, "q", default=[0.0] * pot.d), "params.q")
    _no_extras(p, "params")
    with _config_errors():  # kappa_t(v_minus) >= 1 leaves no bound
        lhs, bound = fkschrodinger.khasminskii_check(
            pot, q, cfg.grid.t_end, cfg.n_paths, cfg.grid,
            RngStream(cfg.seed), workers=cfg.workers)
    # one-sided: the exponential moment must not exceed the bound
    excess = lhs.mean.real - bound
    return [Row("exp_moment", "-", lhs.mean, lhs.stderr, bound,
                excess <= max(3 * lhs.stderr, ATOL))]


def _run_diamagnetic(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    pot = _parse_potential(_take(p, "potential", required=True),
                           "params.potential")
    psi = _parse_psi(_take(p, "psi", required=True), pot.d, "params.psi")
    q = _as_vector(_take(p, "q", default=[0.0] * pot.d), "params.q")
    _no_extras(p, "params")
    with_a, without_a = fkschrodinger.diamagnetic_check(
        pot, psi, q, cfg.grid.t_end, cfg.n_paths, cfg.grid,
        RngStream(cfg.seed), workers=cfg.workers)
    gap = abs(with_a.mean) - without_a.mean.real
    err = math.hypot(with_a.stderr, without_a.stderr)
    return [
        _inforow("magnetic", "-", with_a.mean, with_a.stderr),
        _inforow("nonmagnetic", "-", without_a.mean, without_a.stderr),
        Row("magnitude_gap", "-", gap, err, 0.0, gap <= max(3 * err, ATOL)),
    ]


def _phasespace_operator(block, grid: phasespace.PeriodicGrid,
                         seed: int) -> np.ndarray:
    if not isinstance(block, dict):
        raise ConfigError("operator/hamiltonian block must be an object")
    block = dict(block)
    name = _take(block, "name", required=True)
    if name == "harmonic":
        omega = _as_float(_take(block, "omega", default=1.0), "omega")
        _no_extras(block, "operator")
        return phasespace.standard_hamiltonian(
            grid, None, lambda q: 0.5 * omega**2 * q**2)
    if name == "random-hermitian":
        _no_extras(block, "operator")
        gen = RngStream(seed, 1).generator()
        n = grid.n_points
        raw = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        return raw + raw.conj().T
    raise ConfigError(f"unknown operator preset: {name!r}")


def _run_phasespace_roundtrip(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    n_points = _as_int(_take(p, "n_points", default=64), "params.n_points")
    length = _as_float(_take(p, "length", default=16.0), "params.length")
    alphas = _take(p, "alpha_values", default=[0.0, 0.25, 0.5, 0.75, 1.0])
    op_block = _take(p, "operator", default={"name": "harmonic"})
    _no_extras(p, "params")
    alphas = _as_vector(alphas, "params.alpha_values")
    with _config_errors():
        grid = phasespace.PeriodicGrid(n_points, length)
    H = _phasespace_operator(op_block, grid, cfg.seed)
    rows = []
    for alpha in alphas:
        sym = phasespace.alpha_symbol(H, grid, float(alpha))
        err = float(np.abs(phasespace.alpha_quantize(sym) - H).max())
        rows.append(Row("roundtrip_error", f"alpha={alpha:g}", err, 0.0,
                        0.0, err <= 1e-10))
        if alpha == 0.5 and op_block.get("name") == "harmonic":
            im = float(np.abs(sym.values.imag).max())
            rows.append(Row("imag_part", f"alpha={alpha:g}", im, 0.0,
                            0.0, im <= 1e-10))
    return rows


def _run_trotter(cfg: ExperimentConfig) -> list[Row]:
    p = dict(cfg.params)
    n_points = _as_int(_take(p, "n_points", default=64), "params.n_points")
    length = _as_float(_take(p, "length", default=16.0), "params.length")
    alpha = _as_float(_take(p, "alpha", default=0.5), "params.alpha")
    t = _as_float(_take(p, "t", default=1.0), "params.t")
    n = _as_int(_take(p, "n", required=True), "params.n")
    h_block = _take(p, "hamiltonian", default={"name": "harmonic"})
    _no_extras(p, "params")
    with _config_errors():
        grid = phasespace.PeriodicGrid(n_points, length)
    H = _phasespace_operator(h_block, grid, cfg.seed)
    table = phasespace.trotter_reconstruct(H, grid, alpha, t, [n],
                                           workers=cfg.workers)
    return [_inforow("trotter_error", f"n={n}", table[0][1])]


RUNNERS = {
    "wiener-stats": _run_wiener_stats,
    "stochint-convergence": _run_stochint_convergence,
    "fk-matrix": _run_fk_matrix,
    "fk-product": _run_fk_product,
    "fk-semigroup": _run_fk_semigroup,
    "fk-kernel": _run_fk_kernel,
    "gauge": _run_gauge,
    "kato": _run_kato,
    "khasminskii": _run_khasminskii,
    "diamagnetic": _run_diamagnetic,
    "phasespace-roundtrip": _run_phasespace_roundtrip,
    "trotter": _run_trotter,
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


def _fit_slope(xs: list[float], ys: list[float]) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


# ---------------------------------------------------------------------------
# entry points


def _apply_overrides(doc: dict, args) -> None:
    env_seed = os.environ.get("FKLAB_SEED")
    env_workers = os.environ.get("FKLAB_WORKERS")
    try:
        if env_seed is not None:
            doc["seed"] = int(env_seed)
        if env_workers is not None:
            doc["workers"] = int(env_workers)
    except ValueError as exc:
        raise ConfigError(f"bad environment override: {exc}") from exc
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.workers is not None:
        doc["workers"] = args.workers


def _load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _execute(cfg: ExperimentConfig) -> list[Row]:
    return RUNNERS[cfg.experiment](cfg)


def _emit(report: dict, csv_rows: list[list[str]], out_path: str) -> None:
    # csv's default dialect: \r\n line ends, fields quoted only when needed
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(csv_rows)
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_run(args) -> int:
    doc = _load(args.config)
    _apply_overrides(doc, args)
    cfg = parse_config(doc)
    start = time.monotonic()
    rows = _execute(cfg)
    wall = time.monotonic() - start
    passed = all(r.passed for r in rows)
    report = {
        "config": cfg.raw,
        "rows": _json_rows(rows),
        "wall_time_s": wall,
        "passed": passed,
    }
    stem = os.path.splitext(os.path.basename(args.config))[0]
    out_path = os.path.join(args.out, stem + ".csv")
    _emit(report, _csv_rows(cfg.experiment, rows), out_path)
    return 0 if passed else 1


def cmd_sweep(args) -> int:
    doc = _load(args.config)
    _apply_overrides(doc, args)
    values = []
    for tok in args.values.replace(",", " ").split():
        try:
            num = json.loads(tok)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad sweep value {tok!r}") from exc
        if isinstance(num, bool) or not isinstance(num, (int, float)):
            raise ConfigError(f"bad sweep value {tok!r}")
        values.append(num)
    if not values:
        raise ConfigError("sweep needs at least one value")
    _resolve_axis(doc, args.axis)  # validate path before any run
    parse_config(doc)

    all_rows: list[Row] = []
    decaying: list[tuple[float, float]] = []
    experiment = None
    start = time.monotonic()
    for value in values:
        point = copy.deepcopy(doc)
        node, key = _resolve_axis(point, args.axis)
        node[key] = value
        cfg = parse_config(point)
        experiment = cfg.experiment
        rows = _execute(cfg)
        for r in rows:
            tagged = Row(r.quantity, f"{r.component}[{args.axis}={value:g}]",
                         r.mean, r.stderr, r.target, r.passed)
            all_rows.append(tagged)
        if cfg.experiment in DECAYING:
            qname = DECAYING[cfg.experiment][0]
            for r in rows:
                if r.quantity == qname and r.mean.real > 0:
                    decaying.append((float(value), r.mean.real))

    if experiment in DECAYING and len(decaying) >= 2:
        qname, target, tol = DECAYING[experiment]
        slope = _fit_slope([v for v, _ in decaying], [y for _, y in decaying])
        if experiment == "kato":
            # kappa_t must vanish as t -> 0: positive log-log slope in t
            all_rows.append(Row(f"slope({qname})", args.axis, slope, 0.0,
                                None, slope > 0))
        else:
            all_rows.append(Row(f"slope({qname})", args.axis, slope, 0.0,
                                complex(target), abs(slope - target) <= tol))
    wall = time.monotonic() - start

    passed = all(r.passed for r in all_rows)
    report = {
        "config": doc,
        "axis": args.axis,
        "values": values,
        "rows": _json_rows(all_rows),
        "wall_time_s": wall,
        "passed": passed,
    }
    stem = os.path.splitext(os.path.basename(args.config))[0]
    out_path = os.path.join(args.out, stem + ".sweep.csv")
    _emit(report, _csv_rows(experiment, all_rows), out_path)
    return 0 if passed else 1


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PathRejectionOverflow, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
