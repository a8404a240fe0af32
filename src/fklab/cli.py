"""Configuration-driven experiment runner.

Subcommands ``run`` and ``sweep`` execute one of twelve named experiments
from a JSON config, print a JSON report to stdout, and write a CSV sidecar
with fixed columns (experiment, quantity, component, mean_re, mean_im,
stderr, target_re, target_im, z, pass); a field holding a comma is quoted
the way the ``csv`` module quotes it. Results are bit-identical for a
fixed (seed, config) regardless of the worker count.

A valid config and its defaults are written once, in :data:`EXPERIMENTS`:
each row holds a runner, the required top-level keys, a sweep slope rule,
a params spec ``{key: (converter, default)}`` and a check across blocks.
:func:`_fields` checks each block against its spec and fills in defaults;
a preset block (potential, psi, chi, operator) resolves to what the run
uses, with the closed forms its preset knows, so runners read only
resolved objects and compare no preset name. Potential presets come from
``fkschrodinger.POTENTIAL_PRESETS``.

Exit codes: 0 all assertions pass, 1 assertion failure, 2 config error
(a failed table check, a ``ValueError`` from a library input check, an
array or a block of increments over ``wiener.MAX_INCREMENT_BYTES``, sweep
values that print as one ``%g`` label, or an ``--out`` that is not a
writable directory; nothing is written, and a sweep checks the table for
every point before the first one runs), 3 numerical failure, 4 the CSV
sidecar could not be written after the run.
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
from typing import Callable

import numpy as np

from . import fkmatrix, fkschrodinger, phasespace
from .fkschrodinger import (POTENTIAL_PRESETS, PathRejectionOverflow,
                            linear_gauge)
from .mc import DEFAULT_CHUNK, MCEstimate, mc_run
from .stochint import AlphaScheme, FieldWithDivergence, convert_check_batch
from .streams import RngStream
from .wiener import (BLOCK, MAX_INCREMENT_BYTES, TimeGrid, check_budget,
                     estimate_covariance, increment_blocks)

# roundoff floor below which a test is meaningless; the z-tests and the
# Frobenius row scale it by max(1, |target|), since a mean of identical
# samples still differs from the target by rounding relative to its size
ATOL = 1e-12


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
    floor = ATOL * max(1.0, abs(complex(target)))
    return Row(quantity, component, complex(mean), float(stderr),
               complex(target), diff <= max(zmax * float(stderr), floor))


def _inforow(quantity: str, component: str, mean, stderr=0.0) -> Row:
    return Row(quantity, component, complex(mean), float(stderr), None, True)


# ---------------------------------------------------------------------------
# converters: (value, name, pot) -> resolved value, pot the potential
# resolved before the value, if any

REQUIRED = object()  # spec default of a key the config must give


def _int(value, name: str, pot=None, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) \
            or not minimum <= value < 2**64:
        raise ConfigError(f"{name} must be an integer in [{minimum}, 2**64)")
    return value


def _num(value, name: str, pot=None) -> float:
    # the comparison also rejects NaN and integers beyond the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number")
    return float(value)


def _ranged(convert, rule: str, ok):
    """``convert``, then the range check ``ok`` on every resolved value."""
    def check(value, name: str, pot=None):
        out = convert(value, name, pot)
        if not np.all(ok(out)):
            raise ConfigError(f"{name} must be {rule}")
        return out

    return check


def _distinct_labels(values, what: str) -> None:
    """Raise when two ``values`` print as one ``%g`` row label."""
    if len({f"{v:g}" for v in values}) < len(values):
        raise ConfigError(f"{what} repeat a %g row label")


_positive = _ranged(_num, "positive", lambda x: x > 0)
# the library checks the same ranges, but only once a sweep point runs
_UNIT = ("in [0, 1]", lambda x: (0 <= x) & (x <= 1))


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


def _vector(value, name: str, pot=None) -> np.ndarray:
    arr = _array(value)
    if arr is None or arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{name} must be a non-empty list of finite numbers")
    return arr


def _point(value, name: str, pot) -> np.ndarray:
    arr = _vector(value, name)
    if arr.shape != (pot.d,):
        raise ConfigError(f"{name} must have the potential dimension {pot.d}")
    return arr


def _matrix(value, name: str, pot=None) -> np.ndarray:
    """Nested arrays with innermost [re, im] pairs -> complex square matrix."""
    arr = _array(value)
    if arr is None or arr.ndim != 3 or arr.shape[2] != 2 \
            or arr.shape[0] != arr.shape[1]:
        raise ConfigError(
            f"{name} must be a square matrix of finite [re, im] entry pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _matrices(value, name: str, pot=None) -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a list of matrices")
    return tuple(_matrix(a, f"{name}[{i}]") for i, a in enumerate(value))


def _grid(value, name: str, pot=None) -> TimeGrid:
    return TimeGrid(**_fields(value, {"t_end": (_num, REQUIRED),
                                      "n_steps": (_int, REQUIRED)}, name))


def _fields(block, spec: dict, context: str, pot=None) -> dict:
    """Check ``block`` against ``spec`` and return its resolved values.

    A missing key takes its default, which the converter resolves like a
    given value. A default that is a function is called with the potential
    ``pot``; a ``potential`` key sets ``pot`` for the keys after it. A key
    given as null passes only where its default is None.
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
            value = value(pot)
        if value is None and default is None:
            out[key] = None
        else:
            out[key] = convert(value, name, pot)
        if key == "potential":
            pot = out[key]
    return out


def _presets(table: dict):
    """Converter of a sub-block ``{"name": preset, **fields}``: with
    ``table[preset] = (spec, build)`` the fields are checked against
    ``spec`` and the block resolves to ``build(**fields)``."""
    def convert(block, name: str, pot=None):
        if not isinstance(block, dict):
            raise ConfigError(f"{name} must be an object with a preset name")
        preset = block.get("name")
        if not isinstance(preset, str) or preset not in table:
            raise ConfigError(f"{name}: unknown preset {preset!r}")
        spec, build = table[preset]
        fields = {k: v for k, v in block.items() if k != "name"}
        return build(**_fields(fields, spec, name, pot))

    return convert


def _dimension(convert, block: int, size=lambda x: x):
    """``convert``, then d = ``size(value)`` within the budget of one block
    of a full chunk's increments, DEFAULT_CHUNK x block x d doubles."""
    most = MAX_INCREMENT_BYTES // (8 * DEFAULT_CHUNK * block)
    return _ranged(convert, f"of dimension d <= {most} (a block of a "
                   f"chunk's increments, {DEFAULT_CHUNK} x {block} x d "
                   "doubles, must fit the budget)", lambda x: size(x) <= most)


_POTENTIAL = (_presets({
    name: ({key: (_dimension(_int, BLOCK) if key == "d" else _num, v)
            for key, v in defaults.items()}, build)
    for name, (defaults, build) in POTENTIAL_PRESETS.items()}), REQUIRED)
_ORIGIN = (_point, lambda pot: [0.0] * pot.d)


def _psi(value, name: str, pot):
    """A psi block as the pair (psi, evolved): evolved(q, t) is exp(-tH) psi
    at q where the potential knows it in closed form, else None. The ground
    state is that of the potential's oscillator, omega = 1 when it is none."""
    d, omega = pot.d, 1.0 if pot.closed.omega is None else pot.closed.omega
    return _presets({
        # written so that omega = 1 gives the bits of pi^(-d/4) e^(-x^2/2)
        "harmonic-ground": ({}, lambda: (
            lambda x: (omega ** (d / 4) * math.pi ** (-d / 4)
                       * np.exp(-0.5 * omega * np.sum(x**2, axis=-1))),
            pot.closed.ground)),
        "gaussian": (
            {"width": (_positive, 1.0), "center": _ORIGIN},
            lambda width, center: (
                lambda x: np.exp(-np.sum((x - center)**2, axis=-1)
                                 / (2 * width**2)),
                lambda q, t: pot.closed.gaussian(width, center, q, t))),
    })(value, name, pot)


# a chi block resolves to the PotentialConfig fields chi and grad_chi
_chi = _presets({
    "linear": ({"c": (_num, 1.0)}, linear_gauge),
    "sine": ({"amplitude": (_num, 1.0), "wavenumber": (_num, 1.0)},
             lambda amplitude, wavenumber: {
                 "chi": lambda x: amplitude * np.sum(np.sin(wavenumber * x),
                                                     axis=-1),
                 "grad_chi": lambda x: (amplitude * wavenumber
                                        * np.cos(wavenumber * x))}),
})


def _random_hermitian(grid: phasespace.PeriodicGrid, seed: int) -> np.ndarray:
    gen = RngStream(seed, 1).generator()
    n = grid.n_points
    raw = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return raw + raw.conj().T


# an operator block resolves to (build, real): build(lattice, seed) makes H
# when the run starts, and real tells whether its alpha = 1/2 symbol is real
_operator = _presets({
    "harmonic": ({"omega": (_num, 1.0)}, lambda omega: (
        lambda grid, seed: phasespace.standard_hamiltonian(
            grid, None, lambda q: 0.5 * omega**2 * q**2), True)),
    "random-hermitian": ({}, lambda: (_random_hermitian, False)),
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
        "experiment": (lambda value, name, pot: value, REQUIRED),
        "seed": (functools.partial(_int, minimum=0), REQUIRED),
        "workers": (_int, 1),
        "n_paths": (functools.partial(_int, minimum=2),
                    REQUIRED if "n_paths" in row.needs else None),
        "grid": (_grid, REQUIRED if "grid" in row.needs else None),
        "params": (lambda value, name, pot: _fields(value, row.params, name),
                   {}),
    }, "")
    cfg = ExperimentConfig(**top, raw=copy.deepcopy(doc))
    with _config_errors():  # the checks call library input checks
        row.check(cfg)
    return cfg


# ---------------------------------------------------------------------------
# experiment implementations (each returns a list of Rows)


def _node_indices(cfg: ExperimentConfig) -> np.ndarray:
    """The grid nodes nearest the node fractions, each in 1 .. n_steps;
    raises when one chunk's second moments at them are over the budget."""
    n, d = cfg.grid.n_steps, cfg.params["d"]
    idx = np.rint(cfg.params["node_fractions"] * n).astype(int)
    if np.any(idx < 1) or np.any(idx > n):
        raise ConfigError(f"node_fractions must round to grid nodes 1 .. {n}")
    _distinct_labels(idx * cfg.grid.dt, "the node_fractions' nodes s")
    check_budget("one chunk's second moments", min(cfg.n_paths, DEFAULT_CHUNK),
                 len(idx), len(idx), d, d)
    return idx


def _even_paths(cfg: ExperimentConfig) -> None:
    if cfg.n_paths % 2:  # the estimators average antithetic pairs (w, -w)
        raise ConfigError(
            f"antithetic pairs need an even n_paths: {cfg.n_paths}")


def _run_wiener_stats(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    d, zmax, grid = p["d"], p["zmax"], cfg.grid
    idx = _node_indices(cfg)
    times = idx * grid.dt
    est = estimate_covariance(grid, d, cfg.n_paths, RngStream(cfg.seed),
                              idx, workers=cfg.workers)
    n_nodes = len(idx)
    first = est.mean[:n_nodes * d].reshape(n_nodes, d)
    first_err = est.stderr[:n_nodes * d].reshape(n_nodes, d)
    second = est.mean[n_nodes * d:].reshape(n_nodes, n_nodes, d, d)
    second_err = est.stderr[n_nodes * d:].reshape(n_nodes, n_nodes, d, d)
    rows = [_zrow("mean", f"s={times[a]:g},j={j}", first[a, j],
                  first_err[a, j], 0.0, zmax)
            for a, j in np.ndindex(n_nodes, d)]
    for a, b, j, k in np.ndindex(n_nodes, n_nodes, d, d):
        target = min(times[a], times[b]) if j == k else 0.0
        rows.append(_zrow("cov", f"r={times[a]:g},s={times[b]:g},j={j},k={k}",
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
        return convert_check_batch(grid, increment_blocks(grid, 1, count, gen),
                                   field, scheme) ** 2

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
    floor = ATOL * max(1.0, float(np.linalg.norm(target)))
    rows.append(Row("frobenius_error", "-", frob, frob_err, 0.0,
                    frob <= max(3 * frob_err, frob_tol, floor)))
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
    est = fkmatrix.estimate_product_formula(
        Ap, Am, B, cfg.grid, cfg.n_paths, RngStream(cfg.seed),
        workers=cfg.workers)
    target = fkmatrix.product_formula_target(Ap, Am, B, cfg.grid.t_end)
    return _matrix_rows("T", est, target, p["frob_tol"], p["zmax"])


def _run_fk_semigroup(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    (psi, evolved), q, t = p["psi"], p["q"], cfg.grid.t_end
    est = fkschrodinger.apply_semigroup(p["potential"], psi, q, cfg.n_paths,
                                        cfg.grid, RngStream(cfg.seed),
                                        workers=cfg.workers)
    target = evolved(q, t)
    if target is None:
        return [_inforow("psi_t", "-", est.mean, est.stderr)]
    return [_zrow("psi_t", "-", est.mean, est.stderr, target, p["zmax"])]


def _run_fk_kernel(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    pot, q, qp, t = p["potential"], p["q"], p["q_prime"], cfg.grid.t_end
    est = fkschrodinger.kernel(pot, q, qp, cfg.n_paths, cfg.grid,
                               RngStream(cfg.seed), workers=cfg.workers)
    target = pot.closed.kernel(q, qp, t)
    if target is None:
        return [_inforow("kernel", "-", est.mean, est.stderr)]
    diff = abs(est.mean - target)
    passed = diff <= max(3 * est.stderr, p["rel_tol"] * abs(target))
    return [Row("kernel", "-", est.mean, est.stderr, complex(target), passed)]


def _run_gauge(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    pot = replace(p["potential"], **p["chi"])
    est = fkschrodinger.gauge_check(pot, p["q"], p["q_prime"], cfg.n_paths,
                                    cfg.grid, RngStream(cfg.seed),
                                    workers=cfg.workers)
    return [_zrow("gauge_residual", "-", est.mean, est.stderr, 0.0, p["zmax"])]


def _kato_nodes(cfg: ExperimentConfig) -> None:
    p, d = cfg.params, cfg.params["potential"].d
    check_budget("the Kato nodes", p["n_probes"] ** d, p["n_space"] ** d, d)
    check_budget("the Kato values", p["n_probes"] ** d, cfg.grid.n_steps + 1)


def _run_kato(cfg: ExperimentConfig) -> list[Row]:
    p, pot = cfg.params, cfg.params["potential"]
    kappa = fkschrodinger.box_kappa(pot, cfg.grid, p["n_probes"], p["n_space"])
    target = pot.closed.kappa(cfg.grid.t_end)
    if target is None:
        return [_inforow("kappa", "-", kappa)]
    return [Row("kappa", "-", kappa, 0.0, target,
                abs(kappa - target) <= 1e-4)]


def _run_khasminskii(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    lhs, bound = fkschrodinger.khasminskii_check(
        p["potential"], p["q"], cfg.n_paths, cfg.grid, RngStream(cfg.seed),
        workers=cfg.workers)
    # one-sided: the exponential moment must not exceed the bound
    excess = lhs.mean.real - bound
    return [Row("exp_moment", "-", lhs.mean, lhs.stderr, bound,
                excess <= max(3 * lhs.stderr, ATOL))]


def _run_diamagnetic(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    with_a, without_a = fkschrodinger.diamagnetic_check(
        p["potential"], p["psi"][0], p["q"], cfg.n_paths, cfg.grid,
        RngStream(cfg.seed), workers=cfg.workers)
    gap = abs(with_a.mean) - without_a.mean.real
    err = math.hypot(with_a.stderr, without_a.stderr)
    return [
        _inforow("magnetic", "-", with_a.mean, with_a.stderr),
        _inforow("nonmagnetic", "-", without_a.mean, without_a.stderr),
        Row("magnitude_gap", "-", gap, err, 0.0, gap <= max(3 * err, ATOL)),
    ]


def _run_phasespace_roundtrip(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    grid = phasespace.PeriodicGrid(p["n_points"], p["length"])
    build, real_symbol = p["operator"]
    H = build(grid, cfg.seed)
    rows = []
    for alpha in p["alpha_values"]:
        sym = phasespace.alpha_symbol(H, grid, float(alpha))
        err = float(np.abs(phasespace.alpha_quantize(sym) - H).max())
        rows.append(Row("roundtrip_error", f"alpha={alpha:g}", err, 0.0,
                        0.0, err <= 1e-10))
        if alpha == 0.5 and real_symbol:
            im = float(np.abs(sym.values.imag).max())
            rows.append(Row("imag_part", f"alpha={alpha:g}", im, 0.0,
                            0.0, im <= 1e-10))
    return rows


def _run_trotter(cfg: ExperimentConfig) -> list[Row]:
    p = cfg.params
    grid = phasespace.PeriodicGrid(p["n_points"], p["length"])
    H = p["hamiltonian"][0](grid, cfg.seed)
    table = phasespace.trotter_reconstruct(H, grid, p["alpha"], p["t"],
                                           [p["n"]], workers=cfg.workers)
    return [_inforow("trotter_error", f"n={p['n']}", table[0][1])]


@dataclass(frozen=True)
class Experiment:
    """One row of the parameter table."""

    run: Callable[[ExperimentConfig], list[Row]]
    params: dict  # key -> (converter, default)
    needs: tuple = ("n_paths", "grid")  # required top-level keys
    # sweep CSVs along the axis get a fitted log-log slope row: axis,
    # quantity, slope target, tolerance (target None = require a positive
    # slope only); a sweep along any other axis gets none
    slope: tuple | None = None
    # a rule across blocks, raising ValueError; parse_config runs it, so a
    # sweep rejects a bad point before any point runs
    check: Callable[[ExperimentConfig], object] = lambda cfg: None


_ZMAX = (_num, 4.0)
_MATRIX_TOLS = {"B": (_matrix, None), "frob_tol": (_num, 1e-2), "zmax": _ZMAX}
_MAX_POINTS = math.isqrt(MAX_INCREMENT_BYTES // 16)  # N x N complex fits
_LATTICE = {"n_points": (_ranged(
    functools.partial(_int, minimum=2), f"even and at most {_MAX_POINTS}",
    lambda n: n % 2 == 0 and n <= _MAX_POINTS), 64),
            "length": (_positive, 16.0)}
_HARMONIC = (_operator, {"name": "harmonic"})

# a potential comes before the points that take its dimension
EXPERIMENTS = {
    "wiener-stats": Experiment(_run_wiener_stats, {
        "d": (_dimension(_int, BLOCK), 2),
        "node_fractions": (_vector, [0.25, 0.5, 0.75]), "zmax": _ZMAX},
        check=_node_indices),
    "stochint-convergence": Experiment(
        _run_stochint_convergence,
        {"alpha": (_ranged(_num, *_UNIT), REQUIRED)},
        slope=("grid.n_steps", "ms_residual", -1.0, 0.3)),
    "fk-matrix": Experiment(_run_fk_matrix, {
        "A": (_dimension(_matrices, fkmatrix.BLOCK, len), REQUIRED),
        **_MATRIX_TOLS}, check=_even_paths),
    "fk-product": Experiment(_run_fk_product, {
        "Aplus": (_matrix, REQUIRED), "Aminus": (_matrix, REQUIRED),
        **_MATRIX_TOLS}, check=_even_paths),
    "fk-semigroup": Experiment(_run_fk_semigroup, {
        "potential": _POTENTIAL, "psi": (_psi, REQUIRED), "q": _ORIGIN,
        "zmax": _ZMAX}),
    "fk-kernel": Experiment(_run_fk_kernel, {
        "potential": _POTENTIAL, "q": _ORIGIN, "q_prime": _ORIGIN,
        "rel_tol": (_num, 0.02)}),
    "gauge": Experiment(_run_gauge, {
        "potential": _POTENTIAL, "chi": (_chi, REQUIRED), "q": _ORIGIN,
        "q_prime": (_point, lambda pot: [0.5] * pot.d), "zmax": _ZMAX}),
    "kato": Experiment(_run_kato, {
        "potential": _POTENTIAL, "n_space": (_int, 96),
        "n_probes": (_int, 33)}, needs=("grid",),
        slope=("grid.t_end", "kappa", None, None), check=_kato_nodes),
    "khasminskii": Experiment(_run_khasminskii, {
        "potential": _POTENTIAL, "q": _ORIGIN},
        # kappa_t(v_-) >= 1 fails in the parse, so a sweep with such a
        # point runs none
        check=lambda cfg: fkschrodinger.khasminskii_bound(
            cfg.params["potential"], cfg.grid.t_end)),
    "diamagnetic": Experiment(_run_diamagnetic, {
        "potential": _POTENTIAL, "psi": (_psi, REQUIRED), "q": _ORIGIN}),
    "phasespace-roundtrip": Experiment(_run_phasespace_roundtrip, {
        **_LATTICE, "alpha_values": (_ranged(_vector, *_UNIT),
                                     [0.0, 0.25, 0.5, 0.75, 1.0]),
        "operator": _HARMONIC}, needs=(), check=lambda cfg: _distinct_labels(
            cfg.params["alpha_values"], "alpha_values")),
    "trotter": Experiment(_run_trotter, {
        **_LATTICE, "alpha": (_ranged(_num, *_UNIT), 0.5),
        "t": (_ranged(_num, "non-negative", lambda t: t >= 0), 1.0),
        "n": (_int, REQUIRED), "hamiltonian": _HARMONIC},
        needs=(), slope=("params.n", "trotter_error", -1.0, 0.3)),
}


# ---------------------------------------------------------------------------
# reporting


def _record(r: Row) -> dict:
    """The contract fields of a row; a missing target is None."""
    t = r.target
    return {"quantity": r.quantity, "component": r.component,
            "mean_re": r.mean.real, "mean_im": r.mean.imag,
            "stderr": r.stderr,
            "target_re": None if t is None else t.real,
            "target_im": None if t is None else t.imag,
            "z": r.z, "pass": r.passed}


def _strict(value):
    """A record value as strict JSON holds it: a non-finite float is null."""
    return None if isinstance(value, float) and not math.isfinite(value) \
        else value


def _cell(value) -> str:
    """One CSV field of a record: None is nan, a flag true or false."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % (math.nan if value is None else value)


def _csv_rows(experiment: str, rows: list[Row]) -> list[list[str]]:
    header = ["experiment", "quantity", "component", "mean_re", "mean_im",
              "stderr", "target_re", "target_im", "z", "pass"]
    return [header] + [[experiment, *map(_cell, _record(r).values())]
                       for r in rows]


def _resolve_axis(doc: dict, axis: str):
    """Return (container, key) for a dotted path into the raw config."""
    value = doc
    for key in axis.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ConfigError(f"axis path not found: {axis}")
        node, value = value, value[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
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
        if getattr(args, key) is not None:  # the flag wins
            doc[key] = getattr(args, key)
    return doc


def _finish(args, report: dict, experiment: str, rows: list[Row],
            start: float, suffix: str) -> int:
    """Complete the report, write the CSV sidecar and return the exit code."""
    passed = all(r.passed for r in rows)
    report.update(rows=[{k: _strict(v) for k, v in _record(r).items()}
                        for r in rows],
                  wall_time_s=time.monotonic() - start, passed=passed)
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
    _distinct_labels(values, f"sweep values {args.values!r}")  # [axis=v:g]
    # every point is parsed before the first one runs
    configs = []
    for value in values:
        point = copy.deepcopy(doc)
        node, key = _resolve_axis(point, args.axis)
        node[key] = value
        configs.append(parse_config(point))
    experiment = configs[0].experiment
    slope = EXPERIMENTS[experiment].slope
    # a rule holds on its own axis only, whose values are all positive
    _, qname, target, tol = slope if slope and slope[0] == args.axis \
        else (None,) * 4

    all_rows: list[Row] = []
    decaying: list[tuple[float, float]] = []
    start = time.monotonic()
    for value, cfg in zip(values, configs):
        rows = EXPERIMENTS[experiment].run(cfg)
        for r in rows:
            all_rows.append(
                replace(r, component=f"{r.component}[{args.axis}={value:g}]"))
            # a log-log fit takes positive means only
            if r.quantity == qname and r.mean.real > 0:
                decaying.append((float(value), r.mean.real))

    if len(decaying) >= 2:
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
