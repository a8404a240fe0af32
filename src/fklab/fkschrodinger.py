"""Feynman-Kac estimators for Schroedinger semigroups on R^d.

Implements the probabilistic semigroup action on wavefunctions, Euclidean
propagator kernels via Brownian-bridge averages, gauge-covariance and
diamagnetic comparisons with common random paths, and Kato-class /
Khas'minskii diagnostics for the scalar potential.

Potential, gauge and wavefunction evaluators are vectorized: positions are
arrays of shape (..., d); scalar fields return (...), vector fields (..., d).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mc import (DEFAULT_CHUNK, MCEstimate,  # noqa: F401 (re-exported)
                 PathRejectionOverflow, reduce_chunks)
from .streams import RngStream
from .wiener import TimeGrid, bridge_from_free, paths_from_increments, \
    sample_increments


@dataclass(frozen=True)
class PotentialConfig:
    """Scalar potential, its positive/negative parts, and the vector potential.

    Any evaluator may be None (treated as identically zero). ``box_halfwidth``
    declares the region outside which the scalar potential is negligible; it
    is used by the deterministic Kato-class quadrature.
    """

    d: int
    v: Callable | None = None
    v_plus: Callable | None = None
    v_minus: Callable | None = None
    a: Callable | None = None
    div_a: Callable | None = None
    chi: Callable | None = None
    grad_chi: Callable | None = None
    box_halfwidth: float = 8.0

    def eval_v(self, x: np.ndarray) -> np.ndarray:
        shape = x.shape[:-1]
        if self.v is not None:
            return np.broadcast_to(np.asarray(self.v(x), dtype=float), shape)
        vp = self.v_plus(x) if self.v_plus is not None else 0.0
        vm = self.v_minus(x) if self.v_minus is not None else 0.0
        return np.broadcast_to(
            np.asarray(vp, dtype=float) - np.asarray(vm, dtype=float), shape)

    def eval_v_minus(self, x: np.ndarray) -> np.ndarray:
        if self.v_minus is not None:
            return np.asarray(self.v_minus(x), dtype=float)
        if self.v is not None:
            return np.maximum(-np.asarray(self.v(x), dtype=float), 0.0)
        return np.zeros(x.shape[:-1])

    def check_consistency(self, probes: np.ndarray, step: float = 1e-5,
                          tol: float = 1e-6) -> None:
        """Finite-difference checks of the declared parts at probe points."""
        probes = np.atleast_2d(probes)
        if self.v is not None and (self.v_plus is not None
                                   or self.v_minus is not None):
            vp = np.asarray(self.v_plus(probes)) if self.v_plus else 0.0
            vm = np.asarray(self.v_minus(probes)) if self.v_minus else 0.0
            if np.any(np.asarray(vp) < -tol) or np.any(np.asarray(vm) < -tol):
                raise ValueError("v_plus and v_minus must be non-negative")
            if np.abs(self.eval_v(probes) - (vp - vm)).max() > tol:
                raise ValueError("v_plus - v_minus inconsistent with v")
        if self.a is not None and self.div_a is not None:
            div_fd = np.zeros(probes.shape[0])
            for j in range(self.d):
                e = np.zeros(self.d)
                e[j] = step
                div_fd += (np.asarray(self.a(probes + e))[:, j]
                           - np.asarray(self.a(probes - e))[:, j]) / (2 * step)
            if np.abs(div_fd - np.asarray(self.div_a(probes))).max() > tol:
                raise ValueError("declared div_a inconsistent with a")


@dataclass(frozen=True)
class MagneticField:
    """Antisymmetric field matrix b_jk(q) = da_j/dq_k - da_k/dq_j."""

    b: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class WaveFunction:
    evaluator: Callable[[np.ndarray], np.ndarray]
    norm_hint: float | None = None


def magnetic_field(pot: PotentialConfig, step: float = 1e-5) -> MagneticField:
    """Central finite differences of a; antisymmetry holds by construction."""
    if pot.a is None:
        return MagneticField(lambda q: np.zeros(q.shape[:-1] + (pot.d, pot.d)))

    def b(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape[:-1] + (pot.d, pot.d))
        for k in range(pot.d):
            e = np.zeros(pot.d)
            e[k] = step
            da_dk = (np.asarray(pot.a(q + e)) - np.asarray(pot.a(q - e))) / (2 * step)
            out[..., :, k] += da_dk
            out[..., k, :] -= da_dk
        return out

    return MagneticField(b)


# ---------------------------------------------------------------------------
# path functionals


def _functional_columns(pot: PotentialConfig, grid: TimeGrid,
                        positions: np.ndarray, variants: Sequence[dict]):
    """Evaluate FK path functionals on shifted paths (P, n+1, d).

    Each variant selects {"a": callable | None, "weight": callable | None}
    where ``weight`` maps the endpoint positions to a complex factor (the
    wavefunction, or 1 for kernels). Returns (columns (P, k), finite mask).
    """
    dt = grid.dt
    dW = np.diff(positions, axis=1)
    mid = 0.5 * (positions[:, 1:, :] + positions[:, :-1, :])
    trap = np.full(grid.n_steps + 1, dt)
    trap[0] = trap[-1] = dt / 2

    cols = []
    finite = np.ones(positions.shape[0], dtype=bool)
    cache: dict[int, np.ndarray] = {}

    def damping(vfun) -> np.ndarray:
        key = id(vfun)
        if key not in cache:
            vv = np.asarray(vfun(positions), dtype=float)
            integral = vv @ trap
            cache[key] = integral
        return cache[key]

    for spec in variants:
        a_fun = spec.get("a")
        v_fun = spec.get("v", pot.eval_v)
        weight = spec.get("weight")
        integral = damping(v_fun)
        ok = np.isfinite(integral)
        # a finite but large -int v overflows the weight; such paths and
        # any non-finite column value are rejected, not averaged
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.exp(-np.where(ok, integral, 0.0)).astype(complex)
            if a_fun is not None:
                av = np.asarray(a_fun(mid))
                strat = np.einsum("pkd,pkd->p", av, dW)
                value = value * np.exp(-1j * strat)
            if weight is not None:
                value = value * np.asarray(weight(positions[:, -1, :]))
        finite &= ok & np.isfinite(value)
        cols.append(value)
    return np.stack(cols, axis=1), finite


def _path_functionals(pot: PotentialConfig, grid: TimeGrid,
                      q: Sequence[float], variants: Sequence[dict],
                      endpoint=None):
    """Chunk function of :func:`_functional_columns` on the paths q + w.

    w is a free Wiener path, or a bridge to ``endpoint`` when one is given.
    """
    q = np.asarray(q, dtype=float).reshape(-1)

    def chunk_fn(gen, count):
        w = paths_from_increments(grid, sample_increments(grid, pot.d, count, gen))
        if endpoint is not None:
            w = bridge_from_free(grid, w, endpoint)
        return _functional_columns(pot, grid, q + w, variants)

    return chunk_fn


def _columns_mc(chunk_fn, n_samples: int, stream: RngStream,
                chunk_size: int, workers: int) -> list[MCEstimate]:
    """Reduce ``chunk_fn(gen, count) -> ((count, k) columns, finite mask)``.

    Non-finite paths are rejected and counted; one estimate per column.
    """
    est, _ = reduce_chunks(chunk_fn, n_samples, stream, chunk_size, workers)
    return [MCEstimate(complex(m), float(e), est.n_samples)
            for m, e in zip(est.mean, est.stderr)]


def apply_semigroup(pot: PotentialConfig, psi: WaveFunction, q: Sequence[float],
                    t: float, n_paths: int, grid: TimeGrid, rng: RngStream,
                    chunk_size: int = DEFAULT_CHUNK,
                    workers: int = 1) -> MCEstimate:
    """Monte Carlo image of psi under the Schroedinger semigroup at point q.

    Averages exp(-i Strat-int dw . a(q+w)) exp(-int v(q+w) ds) psi(q+w(t))
    over free Wiener paths; paths that evaluate the potential to a
    non-finite value are rejected and counted.
    """
    if not t > 0 or abs(grid.t_end - t) > 1e-12:
        raise ValueError("t must be positive and equal the grid horizon")
    chunk_fn = _path_functionals(pot, grid, q,
                                 [{"a": pot.a, "weight": psi.evaluator}])
    return _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]


def free_kernel(d: int, dq: np.ndarray, t: float) -> float:
    return float((2 * math.pi * t) ** (-d / 2)
                 * math.exp(-float(dq @ dq) / (2 * t)))


def kernel(pot: PotentialConfig, q: Sequence[float], qp: Sequence[float],
           t: float, n_paths: int, grid: TimeGrid, rng: RngStream,
           chunk_size: int = DEFAULT_CHUNK, workers: int = 1) -> MCEstimate:
    """Euclidean propagator <q| exp(-tH) |q'> via the bridge factorization.

    The delta-function constraint is realized exactly: the free heat kernel
    multiplies the bridge average of the phase and damping functionals.
    """
    if not t > 0 or abs(grid.t_end - t) > 1e-12:
        raise ValueError("t must be positive and equal the grid horizon")
    q = np.asarray(q, dtype=float).reshape(-1)
    qp = np.asarray(qp, dtype=float).reshape(-1)
    endpoint = qp - q
    prefactor = free_kernel(pot.d, endpoint, t)
    chunk_fn = _path_functionals(pot, grid, q, [{"a": pot.a}], endpoint)
    est = _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]
    return MCEstimate(prefactor * est.mean, prefactor * est.stderr,
                      est.n_samples)


def gauge_check(pot: PotentialConfig, q: Sequence[float], qp: Sequence[float],
                t: float, n_paths: int, grid: TimeGrid, rng: RngStream,
                chunk_size: int = DEFAULT_CHUNK,
                workers: int = 1) -> MCEstimate:
    """Per-path gauge-covariance residual with common random bridges.

    Compares the kernel functional with a + grad(chi) against
    exp(i (chi(q) - chi(q'))) times the functional with a; the mean residual
    vanishes in the refinement limit by the Stratonovich chain rule.
    """
    if pot.chi is None or pot.grad_chi is None:
        raise ValueError("gauge check needs chi with an analytic gradient")
    q = np.asarray(q, dtype=float).reshape(-1)
    qp = np.asarray(qp, dtype=float).reshape(-1)
    endpoint = qp - q
    base_a = pot.a

    def shifted_a(x):
        g = np.asarray(pot.grad_chi(x))
        return g if base_a is None else np.asarray(base_a(x)) + g

    phase = np.exp(1j * (float(np.asarray(pot.chi(q[None, :]))[0])
                         - float(np.asarray(pot.chi(qp[None, :]))[0])))
    variants = [{"a": shifted_a}, {"a": base_a}]
    bridged = _path_functionals(pot, grid, q, variants, endpoint)

    def chunk_fn(gen, count):
        cols, finite = bridged(gen, count)
        return (cols[:, 0] - phase * cols[:, 1])[:, None], finite

    return _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]


def diamagnetic_check(pot: PotentialConfig, psi: WaveFunction,
                      q: Sequence[float], t: float, n_paths: int,
                      grid: TimeGrid, rng: RngStream,
                      chunk_size: int = DEFAULT_CHUNK,
                      workers: int = 1) -> tuple[MCEstimate, MCEstimate]:
    """Magnetic semigroup on psi vs. the free-gauge semigroup on |psi|.

    Uses common random paths; the diamagnetic inequality asserts
    |first.mean| <= second.mean up to Monte Carlo error.
    """
    variants = [
        {"a": pot.a, "weight": psi.evaluator},
        {"a": None, "weight": lambda x: np.abs(psi.evaluator(x))},
    ]
    chunk_fn = _path_functionals(pot, grid, q, variants)
    with_a, without_a = _columns_mc(chunk_fn, n_paths, rng, chunk_size,
                                    workers)
    return with_a, without_a


# ---------------------------------------------------------------------------
# Kato-class diagnostics


@dataclass(frozen=True)
class KatoQuadSpec:
    """Quadrature sizes for the deterministic heat-convolution integral."""

    n_space: int = 64
    n_time: int = 48


_KATO_Z_CUT = 8.0  # Gaussian mass beyond 8 sigma is below 1e-15


def kato_kappa(u: Callable, t: float, probe_points: np.ndarray,
               quad: KatoQuadSpec = KatoQuadSpec(),
               box_halfwidth: float = 8.0) -> float:
    """max over probes of int_0^t ds (heat_s * u)(x), u >= 0.

    The heat convolution is computed in the rescaled variable
    z = (y - x)/sqrt(s) with tensor-product Gauss-Legendre nodes on
    [-8, 8]^d, so the kernel stays resolved uniformly in s; the time
    integral uses the trapezoid rule with the s = 0 value u(x).
    ``box_halfwidth`` declares where u is negligible: a warning is raised
    when sampled points outside the box carry non-negligible u.
    """
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    d = probes.shape[1]
    x1, w1 = np.polynomial.legendre.leggauss(quad.n_space)
    z1 = _KATO_Z_CUT * x1
    grids = np.meshgrid(*([z1] * d), indexing="ij")
    znodes = np.stack([g.ravel() for g in grids], axis=-1)   # (M, d)
    wgrids = np.meshgrid(*([_KATO_Z_CUT * w1] * d), indexing="ij")
    zweights = np.prod(np.stack([g.ravel() for g in wgrids]), axis=0)
    density = np.exp(-0.5 * np.einsum("md,md->m", znodes, znodes)) \
        / (2 * math.pi) ** (d / 2)
    zweights = zweights * density  # now sums to 1 - O(1e-15)

    s_grid = np.linspace(0.0, t, quad.n_time + 1)
    trap = np.full(quad.n_time + 1, s_grid[1] - s_grid[0])
    trap[0] = trap[-1] = trap[0] / 2

    u0 = np.asarray(u(probes), dtype=float)
    if np.any(u0 < -1e-12):
        raise ValueError("u must be non-negative")
    values = np.empty((probes.shape[0], quad.n_time + 1))
    values[:, 0] = u0
    u_scale = max(float(u0.max()), 0.0)
    leak = 0.0
    for i, s in enumerate(s_grid[1:], start=1):
        pts = probes[:, None, :] + math.sqrt(s) * znodes[None, :, :]
        uvals = np.asarray(u(pts), dtype=float)
        if np.any(uvals < -1e-12):
            raise ValueError("u must be non-negative")
        u_scale = max(u_scale, float(uvals.max()))
        outside = np.any(np.abs(pts) > box_halfwidth, axis=-1)
        if outside.any():
            leak = max(leak, float(np.abs(uvals[outside]).max()))
        values[:, i] = uvals @ zweights
    if leak > 1e-6 * (1.0 + u_scale):
        warnings.warn("potential is not negligible outside the declared box",
                      RuntimeWarning)
    kappa = values @ trap
    return float(kappa.max())


def box_probes(pot: PotentialConfig, n_per_axis: int) -> np.ndarray:
    """Tensor grid of n_per_axis**d probe points spanning the declared box."""
    axis = np.linspace(-pot.box_halfwidth, pot.box_halfwidth, n_per_axis)
    return np.stack(np.meshgrid(*([axis] * pot.d), indexing="ij"),
                    axis=-1).reshape(-1, pot.d)


def khasminskii_check(pot: PotentialConfig, q: Sequence[float], t: float,
                      n_paths: int, grid: TimeGrid, rng: RngStream,
                      quad: KatoQuadSpec = KatoQuadSpec(),
                      n_probe_grid: int = 33,
                      chunk_size: int = DEFAULT_CHUNK,
                      workers: int = 1) -> tuple[MCEstimate, float]:
    """Exponential moment of the negative part vs. the Khas'minskii bound.

    Returns the MC estimate of <exp(+int v_-(q + w(s)) ds)> and the bound
    (1 - kappa_t(v_-))^(-1); requires kappa_t(v_-) < 1.
    """
    kappa = kato_kappa(pot.eval_v_minus, t, box_probes(pot, n_probe_grid),
                       quad, pot.box_halfwidth)
    if kappa >= 1.0:
        raise ValueError(f"kappa_t(v_minus) = {kappa:.3f} >= 1; bound undefined")
    bound = 1.0 / (1.0 - kappa)

    chunk_fn = _path_functionals(pot, grid, q,
                                 [{"v": lambda x: -pot.eval_v_minus(x)}])
    lhs = _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]
    return lhs, bound


# ---------------------------------------------------------------------------
# presets addressable from the CLI


# name -> default parameters; a preset takes no other parameters
POTENTIAL_PRESETS = {
    "free": {"d": 1},
    "constant-well": {"d": 1, "height": 0.3, "halfwidth": 1.0},
    "harmonic": {"d": 1, "omega": 1.0},
    "coulomb-3d": {"gamma": 1.0},
    "constant-magnetic-2d": {"b0": 1.0},
    "gauge-linear": {"d": 1, "c": 1.0},
}


def preset_potential(name: str, **params) -> PotentialConfig:
    """Named potential configurations, see :data:`POTENTIAL_PRESETS`."""
    if name not in POTENTIAL_PRESETS:
        raise ValueError(f"unknown potential preset: {name}")
    unknown = sorted(set(params) - set(POTENTIAL_PRESETS[name]))
    if unknown:
        raise ValueError(f"unknown parameters for preset {name}: {unknown}")
    p = {**POTENTIAL_PRESETS[name], **params}
    if name == "free":
        return PotentialConfig(d=p["d"])
    if name == "constant-well":
        def v_minus(x):
            inside = np.all(np.abs(x) <= p["halfwidth"], axis=-1)
            return p["height"] * inside.astype(float)

        return PotentialConfig(d=p["d"], v_minus=v_minus,
                               v_plus=lambda x: np.zeros(x.shape[:-1]),
                               box_halfwidth=max(4.0, 4 * p["halfwidth"]))
    if name == "harmonic":
        return PotentialConfig(
            d=p["d"],
            v=lambda x: 0.5 * p["omega"]**2 * np.sum(x**2, axis=-1),
            v_plus=lambda x: 0.5 * p["omega"]**2 * np.sum(x**2, axis=-1),
            v_minus=lambda x: np.zeros(x.shape[:-1]))
    if name == "coulomb-3d":
        def v(x):
            r = np.sqrt(np.sum(x**2, axis=-1))
            with np.errstate(divide="ignore"):
                return -p["gamma"] / r

        return PotentialConfig(d=3, v=v, box_halfwidth=10.0)
    if name == "constant-magnetic-2d":
        def a(x):
            return 0.5 * p["b0"] * np.stack([-x[..., 1], x[..., 0]], axis=-1)

        return PotentialConfig(d=2, a=a,
                               div_a=lambda x: np.zeros(x.shape[:-1]))
    return PotentialConfig(  # gauge-linear
        d=p["d"],
        chi=lambda x: p["c"] * np.sum(x, axis=-1),
        grad_chi=lambda x: np.full_like(x, p["c"]))


def mehler_kernel(q: float, qp: float, t: float, omega: float = 1.0) -> float:
    """Closed-form harmonic-oscillator Euclidean propagator in d = 1."""
    s = math.sinh(omega * t)
    c = math.cosh(omega * t)
    return math.sqrt(omega / (2 * math.pi * s)) * math.exp(
        -omega * ((q * q + qp * qp) * c - 2 * q * qp) / (2 * s))
