"""Alpha-parameterized stochastic line integrals along discretized paths.

The alpha-point rule evaluates the field at
x = alpha * w(s_v) + (1 - alpha) * w(s_{v-1}), so alpha = 0 is the Ito sum
and alpha = 1/2 the Stratonovich (midpoint-position) sum. Only pointwise
fields g(x, s) are supported; path-history dependence is out of scope.

Every function takes a :class:`~fklab.wiener.PathBatch` and returns one
value per path; a single path is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wiener import PathBatch

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


def alpha_integral_batch(batch: PathBatch, field: FieldWithDivergence,
                         scheme: AlphaScheme) -> np.ndarray:
    """Alpha-point stochastic sums for every path in the batch, shape (n_paths,)."""
    a = scheme.alpha
    w = batch.values
    times = batch.grid.times()
    x = a * w[:, 1:, :] + (1 - a) * w[:, :-1, :]
    s = a * times[1:] + (1 - a) * times[:-1]
    gv = np.asarray(field.g(x, np.broadcast_to(s[None, :], x.shape[:2])))
    dw = np.diff(w, axis=1)
    return np.einsum("pkd,pkd->p", gv, dw)


def time_integral_batch(batch: PathBatch,
                        u: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Trapezoidal integral of u(w(s), s) ds per path, shape (n_paths,)."""
    grid = batch.grid
    times = np.broadcast_to(grid.times()[None, :], batch.values.shape[:2])
    uv = np.asarray(u(batch.values, times))
    if not np.all(np.isfinite(uv)):
        raise FloatingPointError("integrand evaluated to a non-finite value")
    weights = np.full(grid.n_steps + 1, grid.dt)
    weights[0] = weights[-1] = grid.dt / 2
    return uv @ weights


def convert_check_batch(batch: PathBatch, field: FieldWithDivergence,
                        scheme: AlphaScheme) -> np.ndarray:
    """Residual of the Ito/Stratonovich conversion formula per path.

    residual = Stratonovich sum - [alpha sum + (1/2 - alpha) * trapz(div g)].
    The mean-square residual vanishes linearly in dt under refinement.
    """
    strat = alpha_integral_batch(batch, field, AlphaScheme(STRATONOVICH))
    if scheme.alpha == STRATONOVICH:
        return np.zeros_like(strat)
    asum = alpha_integral_batch(batch, field, scheme)
    correction = (0.5 - scheme.alpha) * time_integral_batch(batch, field.div_g)
    return strat - (asum + correction)
