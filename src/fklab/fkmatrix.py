"""Monte Carlo checks of the generalized Feynman-Kac identity on matrices.

The ensemble average of the path-ordered exponential driven by d Gaussian
increments and a drift operator B is compared with exp(-t (A^2/2 + B)).
Antithetic pairing (w, -w) is applied throughout; it reduces variance and
is licensed by the reflection invariance of the measure. Each estimator is
one side's functional of the increments, averaged over pairs by
:func:`_matrix_mc`, which also requires an even ``n_paths``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import DEFAULT_CHUNK, MCEstimate, reduce_chunks
from .opalg import (as_operator, as_operator_tuple, expm, gauss_legendre,
                    ordered_prefix, ordered_product_tree, step_factors)
from .streams import RngStream
from .wiener import TimeGrid, sample_increments


@dataclass(frozen=True)
class FKProblem:
    """Operator tuple A, drift B, horizon t and the matching time grid."""

    A: tuple[np.ndarray, ...]
    B: np.ndarray
    t: float
    grid: TimeGrid

    def __post_init__(self) -> None:
        A = as_operator_tuple(self.A)
        B = as_operator(self.B)
        if A and A[0].shape != B.shape:
            raise ValueError("A and B must share one dimension")
        if abs(self.grid.t_end - self.t) > 1e-12:
            raise ValueError("grid horizon must equal t")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def dim(self) -> int:
        return self.B.shape[0]

    @property
    def d(self) -> int:
        return len(self.A)


def rhs_generator(problem: FKProblem) -> np.ndarray:
    """exp(-t (1/2 sum_j A_j^2 + B)), the exact right-hand side."""
    gen = problem.B.astype(complex)
    for Aj in problem.A:
        gen = gen + 0.5 * (Aj @ Aj)
    return expm(-problem.t * gen)


def _matrix_mc(one_side, problem: FKProblem, n_paths: int, rng: RngStream,
               chunk_size: int, workers: int) -> MCEstimate:
    """Antithetic Monte Carlo mean of ``one_side(dW) -> (count, ...)``.

    Each pair draws one increment batch dW of ``problem.grid`` and averages
    ``one_side`` over dW and its reflection -dW. One sample per pair, so
    ``n_samples`` counts pairs; nothing is rejected.
    """
    if n_paths < 2:
        raise ValueError("need at least two paths")
    if n_paths % 2:
        raise ValueError(f"antithetic pairs need an even n_paths: {n_paths}")

    def chunk_fn(gen, count):
        dW = sample_increments(problem.grid, max(problem.d, 1), count, gen)
        return 0.5 * (one_side(dW) + one_side(-dW)), None

    return reduce_chunks(chunk_fn, n_paths // 2, rng, chunk_size, workers)[0]


def estimate_generalized_fk(problem: FKProblem, n_paths: int, rng: RngStream,
                            chunk_size: int = DEFAULT_CHUNK,
                            workers: int = 1) -> MCEstimate:
    """Antithetic Monte Carlo mean of the path-ordered exponential."""
    def one_side(dW):
        return ordered_product_tree(
            step_factors(dW, problem.grid.dt, problem.A, problem.B))

    return _matrix_mc(one_side, problem, n_paths, rng, chunk_size, workers)


def _contract(dW: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_nu dW[p, nu, j] X[p, nu, k] for real dW and complex X.

    The real and imaginary parts are contracted separately, so the real
    increments are never cast to a complex copy.
    """
    dWt = np.swapaxes(dW, 1, 2)
    return dWt @ X.real + 1j * (dWt @ X.imag)


def check_nov_identity(problem: FKProblem, n_paths: int, rng: RngStream,
                       chunk_size: int = DEFAULT_CHUNK,
                       workers: int = 1) -> MCEstimate:
    """Residual of the Gaussian integration-by-parts identity, per component.

    Estimates <int dw_j T_s> + (i/2) A_j <int ds T_s> for each j with the
    midpoint rule for the stochastic sum and the trapezoid for the time
    integral; the mean vanishes as the identity holds. Requires B = 0.
    The prefixes T_1 .. T_n come from ``ordered_prefix`` on the step
    factors; the stochastic sum is two contractions of the increments with
    the prefixes and with their shift by one step (T_0 = I), the time
    integral one sum over the prefixes.
    """
    if np.abs(problem.B).max() > 0:
        raise ValueError("the identity is stated for B = 0")
    m = problem.dim
    d = problem.d
    n = problem.grid.n_steps
    dt = problem.grid.dt
    A = np.stack(problem.A)
    diag = slice(None, None, m + 1)  # diagonal of a flattened m x m matrix

    def one_side(dW):
        count = dW.shape[0]
        F = ordered_prefix(step_factors(dW, dt, problem.A, None))
        T = F.reshape(count, n, m * m)  # T[:, nu] = T_(nu+1)
        stoch = _contract(dW, T) + _contract(dW[:, 1:], T[:, :-1])
        stoch[..., diag] += dW[:, 0, :, None]
        leb = 2.0 * T.sum(axis=1) - T[:, -1]
        leb[..., diag] += 1.0
        leb = (0.5 * dt * leb).reshape(count, m, m)
        return (0.5 * stoch.reshape(count, d, m, m)
                + 0.5j * np.einsum("jab,pbc->pjac", A, leb))

    return _matrix_mc(one_side, problem, n_paths, rng, chunk_size, workers)


def _gauss_legendre_snapped(grid: TimeGrid, n_quad: int):
    """Gauss-Legendre nodes on [0, t] snapped to the nearest grid times."""
    x, w = gauss_legendre(n_quad)
    nodes = 0.5 * grid.t_end * (x + 1.0)
    return np.rint(nodes / grid.dt).astype(int), 0.5 * grid.t_end * w


def check_duhamel(problem: FKProblem, n_paths: int, n_quad: int,
                  rng: RngStream, chunk_size: int = DEFAULT_CHUNK,
                  workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the Duhamel integral equation, with propagated stderr.

    <T_t> - exp(-t A^2 / 2) + int_0^t ds exp(-(t-s) A^2 / 2) B <T_s>, the
    s-integral on snapped Gauss-Legendre nodes with the <T_s> means taken
    from path prefixes of the same ensemble: ``ordered_prefix`` turns each
    side's step factors into T_1 .. T_n in place, and the nodes are read
    straight out of that array (T_0 = I).
    """
    m = problem.dim
    dt = problem.grid.dt
    idx, weights = _gauss_legendre_snapped(problem.grid, n_quad)
    keys = sorted({int(i) for i in idx} | {problem.grid.n_steps})
    # T_k sits at prefix k - 1; T_0 = I is written after the gather
    take = np.maximum(keys, 1) - 1

    def one_side(dW):
        T = ordered_prefix(step_factors(dW, dt, problem.A, problem.B))
        nodes = T[:, take]
        if keys[0] == 0:
            nodes[:, 0] = np.eye(m)
        return nodes

    est = _matrix_mc(one_side, problem, n_paths, rng, chunk_size, workers)
    pos = {k: i for i, k in enumerate(keys)}  # est.mean[pos[k]] = <T_k>

    Asq = np.zeros((m, m), dtype=complex)
    for Aj in problem.A:
        Asq += Aj @ Aj
    t = problem.t
    residual = est.mean[pos[problem.grid.n_steps]] - expm(-0.5 * t * Asq)
    err = est.stderr[pos[problem.grid.n_steps]].astype(float).copy()
    for i, w in zip(idx, weights):
        s = i * dt
        prop = expm(-0.5 * (t - s) * Asq) @ problem.B
        residual = residual + w * prop @ est.mean[pos[int(i)]]
        err += np.abs(w) * np.abs(prop) @ est.stderr[pos[int(i)]]
    return residual, err


def estimate_product_formula(Aplus: np.ndarray, Aminus: np.ndarray,
                             B: np.ndarray, t: float, grid: TimeGrid,
                             n_paths: int, rng: RngStream,
                             chunk_size: int = DEFAULT_CHUNK,
                             workers: int = 1) -> MCEstimate:
    """MC mean of the ordered exponential driven by complex-combined noise.

    Step factors are exp(-i [z A+ + conj(z) A-] - dt B), z = dw1 + i dw2;
    that is the generalized FK problem with A = (A+ + A-, i (A+ - A-)).
    The target is exp(-t (A+ A- + A- A+ + B)).
    """
    Aplus, Aminus = as_operator(Aplus), as_operator(Aminus)
    problem = FKProblem((Aplus + Aminus, 1j * (Aplus - Aminus)), B, t, grid)
    return estimate_generalized_fk(problem, n_paths, rng, chunk_size, workers)


def product_formula_target(Aplus: np.ndarray, Aminus: np.ndarray,
                           B: np.ndarray, t: float) -> np.ndarray:
    return expm(-t * (Aplus @ Aminus + Aminus @ Aplus + as_operator(B)))
