"""Feynman-Kac estimators for Schroedinger semigroups on R^d.

Implements the probabilistic semigroup action on wavefunctions, Euclidean
propagator kernels via Brownian-bridge averages, gauge-covariance and
diamagnetic comparisons with common random paths, and Kato-class /
Khas'minskii diagnostics for the scalar potential.

Potential, gauge and wavefunction evaluators are plain vectorized callables:
positions are arrays of shape (..., d); scalar fields return (...), vector
fields (..., d). Each path estimator averages exp(-int v ds) exp(-i int a o dw)
psi(endpoint) from :func:`_path_functionals` over paths on its time grid, so
the horizon t is ``grid.t_end``; the two integrals are ``wiener``'s
trapezoid and Stratonovich terms. The Kato quadrature reads its grid too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .mc import DEFAULT_CHUNK, MCEstimate, reduce_chunks
from .mc import PathRejectionOverflow  # noqa: F401 (re-exported)
from .streams import RngStream
from .opalg import gauss_legendre
from .wiener import (STRATONOVICH, TimeGrid, alpha_term, check_budget,
                     increment_blocks, path_blocks, trapezoid_term, walk_sums)


class ClosedForms(NamedTuple):
    """What a preset potential knows in closed form, None where it does not:
    the kernel <q| exp(-tH) |q'>, exp(-tH) at q of a Gaussian exp(-|x - c|^2
    / (2 w^2)) and of the ground state (omega/pi)^(d/4) exp(-omega |x|^2 / 2)
    of an oscillator of frequency omega, and kappa_t(v_-)."""

    kernel: Callable = lambda q, qp, t: None
    gaussian: Callable = lambda width, center, q, t: None
    ground: Callable = lambda q, t: None
    omega: float | None = None
    kappa: Callable = lambda t: None


@dataclass(frozen=True)
class PotentialConfig:
    """Scalar potential v and vector potential a.

    Any evaluator may be None (treated as identically zero). The negative
    part V_- = max(-v, 0) follows from v. ``box_halfwidth`` declares the
    region outside which the scalar potential is negligible; it is used by
    the deterministic Kato-class quadrature. ``closed`` holds what a preset
    knows in closed form about this v and a: a ``dataclasses.replace`` that
    changes v or a must replace ``closed`` too.
    """

    d: int
    v: Callable | None = None
    a: Callable | None = None
    box_halfwidth: float = 8.0
    closed: ClosedForms = ClosedForms()

    def eval_v(self, x: np.ndarray) -> np.ndarray:
        v = 0.0 if self.v is None else np.asarray(self.v(x), dtype=float)
        return np.broadcast_to(v, x.shape[:-1])

    def eval_v_minus(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(-self.eval_v(x), 0.0)


# ---------------------------------------------------------------------------
# path functionals


def _functional_columns(v: Callable, grid: TimeGrid, q: np.ndarray, blocks,
                        variants: Sequence[tuple],
                        endpoint: np.ndarray | None = None):
    """FK path functionals on the paths q + w, one column each.

    w is the free path of the time-major increment ``blocks``, or its
    bridge to ``endpoint``, walked by ``wiener.path_blocks``. A variant
    ``(a, weight)`` multiplies the damping exp(-int v ds), one trapezoid
    term per path, by the phase exp(-i int a o dw), a Stratonovich term,
    and by ``weight`` of the endpoints; None skips either. Returns
    (columns (P, k), finite mask).
    """
    (integral, *phases), last = walk_sums(
        ((k0, q + w) for k0, w in path_blocks(grid, blocks, endpoint)),
        trapezoid_term(grid, lambda x, s: v(x)),
        *(alpha_term(grid, lambda x, s, a=a: a(x), STRATONOVICH)
          for a, _ in variants if a is not None))
    end, phases, cols = last[-1], iter(phases), []
    # a finite but large -int v overflows the weight; such paths and
    # any non-finite column value are rejected, not averaged
    finite = np.isfinite(integral)
    with np.errstate(over="ignore", invalid="ignore"):
        damping = np.exp(-np.where(finite, integral, 0.0)).astype(complex)
        for a, weight in variants:
            value = damping
            if a is not None:
                value = value * np.exp(-1j * next(phases))
            if weight is not None:
                value = value * np.asarray(weight(end))
            finite &= np.isfinite(value)
            cols.append(value)
    return np.stack(cols, axis=1), finite


def _position(pot: PotentialConfig, x: Sequence[float], name: str):
    """``x`` as a float vector, which must have the potential's length."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (pot.d,):
        raise ValueError(f"{name} has length {x.size}, not d = {pot.d}")
    return x


def _path_functionals(pot: PotentialConfig, grid: TimeGrid,
                      q: Sequence[float], variants: Sequence[tuple],
                      qp: Sequence[float] | None = None,
                      v: Callable | None = None):
    """Chunk function of :func:`_functional_columns` on the paths q + w.

    w is a free Wiener path, or the bridge to ``qp - q`` when ``qp`` is
    given; ``v`` defaults to the scalar potential. q and qp must have
    length ``pot.d``.
    """
    q = _position(pot, q, "q")
    endpoint = None if qp is None else _position(pot, qp, "q'") - q
    v = pot.eval_v if v is None else v

    def chunk_fn(gen, count):
        return _functional_columns(
            v, grid, q, increment_blocks(grid, pot.d, count, gen), variants,
            endpoint)

    return chunk_fn


def _columns_mc(chunk_fn, n_samples: int, stream: RngStream,
                chunk_size: int, workers: int) -> list[MCEstimate]:
    """Reduce ``chunk_fn(gen, count) -> ((count, k) columns, finite mask)``.

    Non-finite paths are rejected and counted; one estimate per column.
    """
    est, _ = reduce_chunks(chunk_fn, n_samples, stream, chunk_size, workers)
    return [MCEstimate(complex(m), float(e), est.n_samples)
            for m, e in zip(est.mean, est.stderr)]


def apply_semigroup(pot: PotentialConfig, psi: Callable, q: Sequence[float],
                    n_paths: int, grid: TimeGrid, rng: RngStream,
                    chunk_size: int = DEFAULT_CHUNK,
                    workers: int = 1) -> MCEstimate:
    """Monte Carlo image of psi under the Schroedinger semigroup at point q.

    Averages exp(-i Strat-int dw . a(q+w)) exp(-int v(q+w) ds) psi(q+w(t))
    over free Wiener paths; paths that evaluate the potential to a
    non-finite value are rejected and counted.
    """
    chunk_fn = _path_functionals(pot, grid, q, [(pot.a, psi)])
    return _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]


def free_kernel(d: int, dq: np.ndarray, t: float) -> float:
    return float((2 * math.pi * t) ** (-d / 2)
                 * math.exp(-float(dq @ dq) / (2 * t)))


def kernel(pot: PotentialConfig, q: Sequence[float], qp: Sequence[float],
           n_paths: int, grid: TimeGrid, rng: RngStream,
           chunk_size: int = DEFAULT_CHUNK, workers: int = 1) -> MCEstimate:
    """Euclidean propagator <q| exp(-tH) |q'> via the bridge factorization.

    The delta-function constraint is realized exactly: the free heat kernel
    multiplies the bridge average of the phase and damping functionals.
    """
    q, qp = _position(pot, q, "q"), _position(pot, qp, "q'")
    chunk_fn = _path_functionals(pot, grid, q, [(pot.a, None)], qp)
    prefactor = free_kernel(pot.d, qp - q, grid.t_end)
    est = _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]
    return MCEstimate(prefactor * est.mean, prefactor * est.stderr,
                      est.n_samples)


def gauge_check(pot: PotentialConfig, chi: Callable, grad_chi: Callable,
                q: Sequence[float], qp: Sequence[float], n_paths: int,
                grid: TimeGrid, rng: RngStream,
                chunk_size: int = DEFAULT_CHUNK,
                workers: int = 1) -> MCEstimate:
    """Per-path gauge-covariance residual with common random bridges.

    Compares the kernel functional with a + grad(chi) against
    exp(i (chi(q) - chi(q'))) times the functional with a, for a gauge chi
    with its analytic gradient ``grad_chi``; the mean residual vanishes in
    the refinement limit by the Stratonovich chain rule.
    """
    q, qp = _position(pot, q, "q"), _position(pot, qp, "q'")

    def shifted_a(x):
        g = np.asarray(grad_chi(x))
        return g if pot.a is None else np.asarray(pot.a(x)) + g

    phase = np.exp(1j * (float(np.asarray(chi(q[None, :]))[0])
                         - float(np.asarray(chi(qp[None, :]))[0])))
    bridged = _path_functionals(pot, grid, q,
                                [(shifted_a, None), (pot.a, None)], qp)

    def chunk_fn(gen, count):
        cols, finite = bridged(gen, count)
        return (cols[:, 0] - phase * cols[:, 1])[:, None], finite

    return _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]


def diamagnetic_check(pot: PotentialConfig, psi: Callable,
                      q: Sequence[float], n_paths: int,
                      grid: TimeGrid, rng: RngStream,
                      chunk_size: int = DEFAULT_CHUNK,
                      workers: int = 1) -> tuple[MCEstimate, MCEstimate]:
    """Magnetic semigroup on psi vs. the free-gauge semigroup on |psi|.

    Uses common random paths; the diamagnetic inequality asserts
    |first.mean| <= second.mean up to Monte Carlo error.
    """
    variants = [(pot.a, psi), (None, lambda x: np.abs(psi(x)))]
    chunk_fn = _path_functionals(pot, grid, q, variants)
    return tuple(_columns_mc(chunk_fn, n_paths, rng, chunk_size, workers))


# ---------------------------------------------------------------------------
# Kato-class diagnostics


_KATO_Z_CUT = 8.0  # Gaussian mass beyond 8 sigma is below 1e-15


def _outside_box(probes: np.ndarray, offsets: np.ndarray,
                 halfwidth: float) -> np.ndarray:
    """(probe, node) mask of the tensor nodes probe + offsets^d that leave
    [-halfwidth, halfwidth]^d: the OR of one (probe, n) mask per axis,
    broadcast along the node axis it indexes."""
    n_probe, d = probes.shape
    outside = np.zeros((n_probe,) + (offsets.size,) * d, dtype=bool)
    for k in range(d):
        axis_mask = np.abs(probes[:, k, None] + offsets) > halfwidth
        shape = [n_probe] + [1] * d
        shape[k + 1] = offsets.size
        outside |= axis_mask.reshape(shape)
    return outside.reshape(n_probe, -1)


def kato_kappa(u: Callable, grid: TimeGrid, probe_points: np.ndarray,
               n_space: int = 64, box_halfwidth: float = 8.0) -> float:
    """max over probes of int_0^t ds (heat_s * u)(x), u >= 0, t = grid.t_end.

    The heat convolution is computed in the rescaled variable
    z = (y - x)/sqrt(s) with ``n_space`` tensor-product Gauss-Legendre nodes
    per axis on [-8, 8]^d, so the kernel stays resolved uniformly in s; the
    time integral is the grid's trapezoid, with the s = 0 value u(x).
    ``box_halfwidth`` declares where u is negligible: a warning is raised
    when sampled points outside the box carry non-negligible u, and a
    ValueError, before allocating, when one time step's nodes or the
    probes' values at every time node are over the budget.
    A u that is NaN or infinite at a probe or a node raises
    FloatingPointError before anything is summed.
    """
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    d = probes.shape[1]
    check_budget("the Kato nodes", probes.shape[0], n_space**d, d)
    check_budget("the Kato values", grid.n_steps + 1, probes.shape[0])
    x1, w1 = gauss_legendre(n_space)
    z1 = _KATO_Z_CUT * x1
    grids = np.meshgrid(*([z1] * d), indexing="ij")
    znodes = np.stack([g.ravel() for g in grids], axis=-1)   # (M, d)
    wgrids = np.meshgrid(*([_KATO_Z_CUT * w1] * d), indexing="ij")
    zweights = np.prod(np.stack([g.ravel() for g in wgrids]), axis=0)
    density = np.exp(-0.5 * np.einsum("md,md->m", znodes, znodes)) \
        / (2 * math.pi) ** (d / 2)
    zweights = zweights * density  # now sums to 1 - O(1e-15)

    # linspace puts the last node exactly on t_end
    s_grid = np.linspace(0.0, grid.t_end, grid.n_steps + 1)

    def u_at(x):
        ux = np.asarray(u(x), dtype=float)
        if not np.isfinite(ux).all():
            raise FloatingPointError("u is not finite at a Kato node")
        if np.any(ux < -1e-12):
            raise ValueError("u must be non-negative")
        return ux

    values = np.empty((grid.n_steps + 1, probes.shape[0]))
    values[0] = u_at(probes)
    u_scale = max(float(values[0].max()), 0.0)
    leak = 0.0
    for i, s in enumerate(s_grid[1:], start=1):
        root_s = math.sqrt(s)
        pts = probes[:, None, :] + root_s * znodes[None, :, :]
        uvals = u_at(pts)
        u_scale = max(u_scale, float(uvals.max()))
        outside = _outside_box(probes, root_s * z1, box_halfwidth)
        if outside.any():
            leak = max(leak, float(np.abs(uvals[outside]).max()))
        values[i] = uvals @ zweights
    if leak > 1e-6 * (1.0 + u_scale):
        warnings.warn("potential is not negligible outside the declared box",
                      RuntimeWarning)
    # each probe's column is one whole-grid block of the paths' trapezoid
    return float(trapezoid_term(grid, lambda v, s: v)(0, values).max())


def box_kappa(pot: PotentialConfig, grid: TimeGrid, n_per_axis: int,
              n_space: int) -> float:
    """kappa_t(v_-), t = grid.t_end, over a tensor grid of n_per_axis**d
    probe points spanning the declared box; a ValueError, before
    allocating, when the probes are over the budget."""
    if pot.v is None:  # v_- = 0, and so is kappa, with no quadrature
        return 0.0
    check_budget("the Kato probes", n_per_axis**pot.d, pot.d)
    axis = np.linspace(-pot.box_halfwidth, pot.box_halfwidth, n_per_axis)
    probes = np.stack(np.meshgrid(*([axis] * pot.d), indexing="ij"),
                      axis=-1).reshape(-1, pot.d)
    return kato_kappa(pot.eval_v_minus, grid, probes, n_space,
                      pot.box_halfwidth)


def khasminskii_bound(pot: PotentialConfig, t: float) -> float:
    """The Khas'minskii bound (1 - kappa_t(v_-))^(-1), kappa the closed
    form of ``pot.closed`` (every preset with a v has one), else the
    quadrature over the box probes.

    Raises ValueError when kappa_t(v_-) >= 1, where the bound is undefined.
    """
    kappa = pot.closed.kappa(t)
    if kappa is None:
        kappa = box_kappa(pot, TimeGrid(t, 48), 33, 64)
    if kappa >= 1.0:
        raise ValueError(f"kappa_t(v_minus) = {kappa:.3f} >= 1; bound undefined")
    return 1.0 / (1.0 - kappa)


def khasminskii_check(pot: PotentialConfig, q: Sequence[float],
                      n_paths: int, grid: TimeGrid, rng: RngStream,
                      chunk_size: int = DEFAULT_CHUNK,
                      workers: int = 1) -> tuple[MCEstimate, float]:
    """Exponential moment of the negative part vs. the Khas'minskii bound.

    Returns the MC estimate of <exp(+int v_-(q + w(s)) ds)> and the bound
    (1 - kappa_t(v_-))^(-1), t = ``grid.t_end``; requires kappa_t(v_-) < 1.
    """
    chunk_fn = _path_functionals(pot, grid, q, [(None, None)],
                                 v=lambda x: -pot.eval_v_minus(x))
    bound = khasminskii_bound(pot, grid.t_end)
    lhs = _columns_mc(chunk_fn, n_paths, rng, chunk_size, workers)[0]
    return lhs, bound


# ---------------------------------------------------------------------------
# presets addressable from the CLI


def _free(d):
    def gaussian(width, center, q, t):
        s = width**2 + t  # the heat flow adds t to the variance
        return ((width**2 / s) ** (d / 2)
                * math.exp(-float((q - center) @ (q - center)) / (2 * s)))

    return PotentialConfig(d=d, closed=ClosedForms(
        kernel=lambda q, qp, t: free_kernel(d, qp - q, t), gaussian=gaussian))


def _constant_well(d, height, halfwidth):
    def kappa(t):
        # E_x v_-(B_s) is h times a product of symmetric unimodal box
        # factors, largest at the centre: h erf(a / sqrt(2 s))^d. The rule
        # runs in u = sqrt(s / t), where the step of erf sits at u ~ a /
        # sqrt(t): below 1, the 64 nodes run on [0, u*] and on pieces 16
        # times longer each, up to 1. Its weights, normalized by their sum,
        # make kappa h t bit for bit where erf rounds to 1, and 0 where v_-
        # vanishes (h <= 0, a <= 0). 2 t would overflow at t near the
        # largest double
        x, wx = gauss_legendre(64)
        a = max(halfwidth, 0.0)
        edges, cut = [0.0], a / math.sqrt(t)
        while 0.0 < cut < 1.0:
            edges.append(cut)
            cut *= 16
        pieces = list(zip(edges, edges[1:] + [1.0]))
        u = np.concatenate([lo + (hi - lo) * (0.5 * (x + 1))
                            for lo, hi in pieces])
        w = np.concatenate([(hi - lo) * wx for lo, hi in pieces]) \
            * u  # ds = 2 t u du
        r = a / math.sqrt(2.0) / math.sqrt(t)
        inside = [math.erf(r / ui) ** d for ui in u]
        return max(height, 0.0) * t * (math.fsum(w * inside) / math.fsum(w))

    return PotentialConfig(
        d=d, v=lambda x: np.where(np.all(np.abs(x) <= halfwidth, axis=-1),
                                  -height, 0.0),
        box_halfwidth=max(4.0, 4 * halfwidth),
        closed=ClosedForms(kappa=kappa))


def _harmonic(d, omega):
    def ground(q, t):  # an eigenfunction with eigenvalue d omega / 2
        return (math.exp(-t * d * omega / 2) * omega ** (d / 4)
                * math.pi ** (-d / 4) * math.exp(-0.5 * omega * float(q @ q)))

    return PotentialConfig(
        d=d, v=lambda x: 0.5 * omega**2 * np.sum(x**2, axis=-1),
        closed=ClosedForms(kernel=lambda q, qp, t: mehler_kernel(
            float(q[0]), float(qp[0]), t, omega) if d == 1 else None,
            ground=ground, omega=omega, kappa=lambda t: 0.0))  # v >= 0


def _coulomb_3d(gamma):
    def v(x):
        r = np.sqrt(np.sum(x**2, axis=-1))
        with np.errstate(divide="ignore"):
            return -gamma / r

    # E_x |x + B_s|^-1 = erf(|x| / sqrt(2 s)) / |x| <= sqrt(2 / (pi s)),
    # its value at x = 0, whose integral over [0, t] is sqrt(8 t / pi)
    return PotentialConfig(d=3, v=v, box_halfwidth=10.0, closed=ClosedForms(
        kappa=lambda t: max(gamma, 0.0) * math.sqrt(8 * t / math.pi)))


# name -> (default parameters, builder); a preset takes no other parameters
POTENTIAL_PRESETS = {
    "free": ({"d": 1}, _free),
    "constant-well": ({"d": 1, "height": 0.3, "halfwidth": 1.0},
                      _constant_well),
    "harmonic": ({"d": 1, "omega": 1.0}, _harmonic),
    "coulomb-3d": ({"gamma": 1.0}, _coulomb_3d),
    "constant-magnetic-2d": ({"b0": 1.0}, lambda b0: PotentialConfig(
        d=2, a=lambda x: 0.5 * b0 * np.stack([-x[..., 1], x[..., 0]],
                                             axis=-1))),
}


def preset_potential(name: str, **params) -> PotentialConfig:
    """Named potential configurations, see :data:`POTENTIAL_PRESETS`."""
    defaults, build = POTENTIAL_PRESETS.get(name, ({}, None))
    if build is None or not set(params) <= set(defaults):
        raise ValueError(f"unknown potential preset {name!r} or parameters "
                         f"{sorted(set(params) - set(defaults))}")
    return build(**{**defaults, **params})


def mehler_kernel(q: float, qp: float, t: float, omega: float = 1.0) -> float:
    """Closed-form harmonic-oscillator Euclidean propagator in d = 1."""
    s = math.sinh(omega * t)
    c = math.cosh(omega * t)
    return math.sqrt(omega / (2 * math.pi * s)) * math.exp(
        -omega * ((q * q + qp * qp) * c - 2 * q * qp) / (2 * s))
