"""Alpha-parameterized stochastic line integrals along discretized paths.

The alpha-point rule evaluates the field at
x = alpha * w(s_v) + (1 - alpha) * w(s_{v-1}), so alpha = 0 is the Ito sum
and alpha = 1/2 the Stratonovich (midpoint-position) sum. Only pointwise
fields g(x, s) are supported; path-history dependence is out of scope.

Every function takes a chunk's time-major increment blocks on a grid (see
:func:`~fklab.wiener.increment_blocks`), walks the paths with
:func:`~fklab.wiener.path_blocks` and sums block by block, one value per
path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wiener import TimeGrid, block_trapezoid, path_blocks

STRATONOVICH = 0.5


@dataclass(frozen=True)
class AlphaScheme:
    """Evaluation-point parameter of the stochastic sum, alpha in [0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class FieldWithDivergence:
    """Vector field g(x, s) together with its analytic divergence in x.

    Both callables are vectorized: ``g`` maps (..., d), (...) -> (..., d) and
    ``div_g`` maps (..., d), (...) -> (...).
    """

    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    div_g: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _alpha_term(grid: TimeGrid, field: FieldWithDivergence, a: float):
    """One :func:`path_blocks` block's alpha-point sums per path."""
    def term(k0, w):
        times = grid.dt * np.arange(k0, k0 + w.shape[1])
        x = a * w[:, 1:] + (1 - a) * w[:, :-1]
        s = a * times[1:] + (1 - a) * times[:-1]
        gv = np.asarray(field.g(x, np.broadcast_to(s, x.shape[:2])))
        return np.einsum("pkd,pkd->p", gv, np.diff(w, axis=1))
    return term


def _trapezoid_term(grid: TimeGrid, u: Callable):
    """One :func:`path_blocks` block's trapezoid of u(w(s), s) per path."""
    def term(k0, w):
        lo, weights = block_trapezoid(grid, k0, w.shape[1] - 1)
        x = w[:, lo:]
        s = grid.dt * np.arange(k0 + lo, k0 + w.shape[1])
        uv = np.asarray(u(x, np.broadcast_to(s, x.shape[:2])))
        if not np.all(np.isfinite(uv)):
            raise FloatingPointError("non-finite value of the integrand")
        return uv @ weights
    return term


def _walk(grid: TimeGrid, blocks, *terms) -> list[np.ndarray]:
    """Each term summed over the blocks of one walk, in block order."""
    totals = [0.0] * len(terms)
    for k0, w in path_blocks(grid, blocks):
        totals = [total + term(k0, w) for total, term in zip(totals, terms)]
    return totals


def alpha_integral_batch(grid: TimeGrid, blocks, field: FieldWithDivergence,
                         scheme: AlphaScheme) -> np.ndarray:
    """Alpha-point stochastic sums for every path, shape (n_paths,)."""
    return _walk(grid, blocks, _alpha_term(grid, field, scheme.alpha))[0]


def time_integral_batch(grid: TimeGrid, blocks,
                        u: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Trapezoidal integral of u(w(s), s) ds per path, shape (n_paths,)."""
    return _walk(grid, blocks, _trapezoid_term(grid, u))[0]


def convert_check_batch(grid: TimeGrid, blocks, field: FieldWithDivergence,
                        scheme: AlphaScheme) -> np.ndarray:
    """Residual of the Ito/Stratonovich conversion formula per path.

    residual = Stratonovich sum - [alpha sum + (1/2 - alpha) * trapz(div g)].
    The mean-square residual vanishes linearly in dt under refinement. The
    three sums share one walk; at alpha = 1/2 the residual is zero, and
    only the first block is drawn, for the path count.
    """
    if scheme.alpha == STRATONOVICH:
        return np.zeros(next(iter(blocks)).shape[1])
    strat, asum, trap = _walk(grid, blocks,
                              _alpha_term(grid, field, STRATONOVICH),
                              _alpha_term(grid, field, scheme.alpha),
                              _trapezoid_term(grid, field.div_g))
    return strat - (asum + (0.5 - scheme.alpha) * trap)
