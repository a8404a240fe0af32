"""Alpha-parameterized stochastic line integrals along discretized paths.

The alpha-point rule evaluates the field at
x = alpha * w(s_v) + (1 - alpha) * w(s_{v-1}), so alpha = 0 is the Ito sum
and alpha = 1/2 the Stratonovich (midpoint-position) sum. Only pointwise
fields g(x, s) are supported; path-history dependence is out of scope.

Every function takes a chunk's time-major increment blocks on a grid (see
:func:`~fklab.wiener.increment_blocks`), walks the paths with
:func:`~fklab.wiener.path_blocks` and sums block by block with
``wiener``'s alpha and trapezoid terms, one value per path; a sum that is
not finite raises FloatingPointError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wiener import (STRATONOVICH, TimeGrid, alpha_term, path_blocks,
                     trapezoid_term, walk_sums)


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


def _sums(grid: TimeGrid, blocks, *terms) -> list[np.ndarray]:
    """Each term summed along the free walk of ``blocks``; a
    FloatingPointError when a sum is not finite."""
    totals, _ = walk_sums(path_blocks(grid, blocks), *terms)
    if not np.isfinite(totals).all():
        raise FloatingPointError("non-finite stochastic or time sum")
    return totals


def alpha_integral_batch(grid: TimeGrid, blocks, field: FieldWithDivergence,
                         scheme: AlphaScheme) -> np.ndarray:
    """Alpha-point stochastic sums for every path, shape (n_paths,)."""
    return _sums(grid, blocks, alpha_term(grid, field.g, scheme.alpha))[0]


def time_integral_batch(grid: TimeGrid, blocks,
                        u: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Trapezoidal integral of u(w(s), s) ds per path, shape (n_paths,)."""
    return _sums(grid, blocks, trapezoid_term(grid, u))[0]


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
    strat, asum, trap = _sums(grid, blocks,
                              alpha_term(grid, field.g, STRATONOVICH),
                              alpha_term(grid, field.g, scheme.alpha),
                              trapezoid_term(grid, field.div_g))
    return strat - (asum + (0.5 - scheme.alpha) * trap)
