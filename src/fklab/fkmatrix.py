"""Monte Carlo checks of the generalized Feynman-Kac identity on matrices.

The ensemble average of the path-ordered exponential driven by d Gaussian
increments and a drift operator B is compared with exp(-t (A^2/2 + B)).
Antithetic pairing (w, -w) is applied throughout; it reduces variance and
is licensed by the reflection invariance of the measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mc import DEFAULT_CHUNK, MCEstimate, reduce_chunks
from .opalg import (as_operator, as_operator_tuple, expm,
                    ordered_product_tree, step_factors)
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


def _matrix_mc(chunk_fn, n_pairs: int, stream: RngStream, chunk_size: int,
               workers: int) -> MCEstimate:
    """Reduce ``chunk_fn(gen, count) -> (count, ...)`` antithetic pair means.

    One sample per pair, so ``n_samples`` counts pairs; nothing is rejected.
    """
    return reduce_chunks(lambda gen, count: (chunk_fn(gen, count), None),
                         n_pairs, stream, chunk_size, workers)[0]


def _pair_count(n_paths: int) -> int:
    if n_paths < 2:
        raise ValueError("need at least two paths")
    if n_paths % 2:
        raise ValueError(f"antithetic pairs need an even n_paths: {n_paths}")
    return n_paths // 2


def estimate_generalized_fk(problem: FKProblem, n_paths: int, rng: RngStream,
                            chunk_size: int = DEFAULT_CHUNK,
                            workers: int = 1) -> MCEstimate:
    """Antithetic Monte Carlo mean of the path-ordered exponential."""
    dt = problem.grid.dt

    def chunk_fn(gen, count):
        dW = sample_increments(problem.grid, max(problem.d, 1), count, gen)
        T = ordered_product_tree(step_factors(dW, dt, problem.A, problem.B))
        Tr = ordered_product_tree(step_factors(-dW, dt, problem.A, problem.B))
        return 0.5 * (T + Tr)

    return _matrix_mc(chunk_fn, _pair_count(n_paths), rng, chunk_size,
                      workers)


def check_nov_identity(problem: FKProblem, n_paths: int, rng: RngStream,
                       chunk_size: int = DEFAULT_CHUNK,
                       workers: int = 1) -> MCEstimate:
    """Residual of the Gaussian integration-by-parts identity, per component.

    Estimates <int dw_j T_s> + (i/2) A_j <int ds T_s> for each j with the
    midpoint rule for the stochastic sum and the trapezoid for the time
    integral; the mean vanishes as the identity holds. Requires B = 0.
    """
    if np.abs(problem.B).max() > 0:
        raise ValueError("the identity is stated for B = 0")
    m = problem.dim
    d = problem.d
    dt = problem.grid.dt

    def one_side(F, dW, count):
        T = np.broadcast_to(np.eye(m, dtype=complex), (count, m, m)).copy()
        stoch = np.zeros((count, d, m, m), dtype=complex)
        leb = np.zeros((count, m, m), dtype=complex)
        for nu in range(problem.grid.n_steps):
            T_new = F[:, nu] @ T
            mid = 0.5 * (T_new + T)
            stoch += dW[:, nu, :, None, None] * mid[:, None, :, :]
            leb += dt * mid
            T = T_new
        res = stoch.copy()
        for j in range(d):
            res[:, j] += 0.5j * np.einsum("ab,pbc->pac", problem.A[j], leb)
        return res

    def chunk_fn(gen, count):
        dW = sample_increments(problem.grid, d, count, gen)
        F = step_factors(dW, dt, problem.A, None)
        Fr = step_factors(-dW, dt, problem.A, None)
        return 0.5 * (one_side(F, dW, count) + one_side(Fr, -dW, count))

    return _matrix_mc(chunk_fn, _pair_count(n_paths), rng, chunk_size,
                      workers)


def _gauss_legendre_snapped(grid: TimeGrid, n_quad: int):
    """Gauss-Legendre nodes on [0, t] snapped to the nearest grid times."""
    x, w = np.polynomial.legendre.leggauss(n_quad)
    t = grid.t_end
    nodes = 0.5 * t * (x + 1.0)
    weights = 0.5 * t * w
    idx = np.rint(nodes / grid.dt).astype(int)
    return idx, weights


def check_duhamel(problem: FKProblem, n_paths: int, n_quad: int,
                  rng: RngStream, chunk_size: int = DEFAULT_CHUNK,
                  workers: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the Duhamel integral equation, with propagated stderr.

    <T_t> - exp(-t A^2 / 2) + int_0^t ds exp(-(t-s) A^2 / 2) B <T_s>, the
    s-integral on snapped Gauss-Legendre nodes with the <T_s> means taken
    from path prefixes of the same ensemble.
    """
    m = problem.dim
    dt = problem.grid.dt
    idx, weights = _gauss_legendre_snapped(problem.grid, n_quad)
    snap = {int(i) for i in idx} | {problem.grid.n_steps}
    keys = sorted(snap)

    def one_side(F, count):
        T = np.broadcast_to(np.eye(m, dtype=complex), (count, m, m)).copy()
        out = {}
        if 0 in snap:
            out[0] = T.copy()
        for nu in range(problem.grid.n_steps):
            T = F[:, nu] @ T
            if nu + 1 in snap:
                out[nu + 1] = T.copy()
        return out

    def chunk_fn(gen, count):
        dW = sample_increments(problem.grid, max(problem.d, 1), count, gen)
        F = step_factors(dW, dt, problem.A, problem.B)
        Fr = step_factors(-dW, dt, problem.A, problem.B)
        a, b = one_side(F, count), one_side(Fr, count)
        # (count, n_nodes, m, m)
        return np.stack([0.5 * (a[k] + b[k]) for k in keys], axis=1)

    est = _matrix_mc(chunk_fn, _pair_count(n_paths), rng, chunk_size,
                     workers)
    pos = {k: i for i, k in enumerate(keys)}

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
