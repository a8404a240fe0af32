"""Monte Carlo checks of the generalized Feynman-Kac identity on matrices.

The ensemble average of the path-ordered exponential driven by d Gaussian
increments and a drift operator B is compared with exp(-t (A^2/2 + B)).
Antithetic pairing (w, -w) is applied throughout; it reduces variance and
is licensed by the reflection invariance of the measure. Every estimator is
one time-blocked walk of both sides, :func:`_matrix_mc`, which carries each
side's ordered product T_s across blocks of step factors, so a chunk holds
O(paths x block x (d + m^2)) floats, whatever the step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mc import DEFAULT_CHUNK, MCEstimate, reduce_chunks
from .opalg import (as_operator, as_operator_tuple, expm, gauss_legendre,
                    ordered_prefix, ordered_product_tree, stack_product,
                    step_factors)
from .streams import RngStream
from .wiener import TimeGrid, increment_blocks

BLOCK = 64  # time steps per block of the antithetic walk


@dataclass(frozen=True)
class FKProblem:
    """Operator tuple A, drift B and time grid; t must equal grid.t_end."""

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
    return expm(-problem.grid.t_end * gen)


def _matrix_mc(visit, keep, finish, problem: FKProblem, n_paths: int,
               rng: RngStream, chunk_size: int, workers: int) -> MCEstimate:
    """Antithetic Monte Carlo mean of one time-blocked walk per side.

    The sides walk in lockstep: each block of ``BLOCK`` steps draws dW once,
    and side +1 walks dW, then side -1 walks -dW, one block of factors
    alive at a time. Each side folds its carried T = T_s0 (T_0 = I) into
    the block's first factor F[:, 0], so the block's ordered products are
    the T_s. ``visit(s0, dWb, F, T)`` returns a copy of T at the block's end
    and the block's terms X (count, k, m, m) or None; ``keep(kept, X)``
    folds X into the side's kept terms, ``finish(kept, T_n)`` its sample.
    """
    if n_paths < 2 or n_paths % 2:
        raise ValueError(f"antithetic pairs need even n_paths > 0: {n_paths}")
    grid, m = problem.grid, problem.dim

    def chunk_fn(gen, count):
        T = dict.fromkeys((1, -1), np.eye(m, dtype=complex)[None])
        kept = dict.fromkeys((1, -1))
        blocks = increment_blocks(grid, max(problem.d, 1), count, gen, BLOCK)
        for s0, dW in zip(range(0, grid.n_steps, BLOCK), blocks):
            for sign in (1, -1):  # path-major (count, b, d) increments
                dWb = np.multiply(sign, np.swapaxes(dW, 0, 1), order="C")
                F = step_factors(dWb, grid.dt, problem.A, problem.B)
                F[:, 0] = stack_product(F[:, 0], T[sign])
                T[sign], X = visit(s0, dWb, F, T[sign])
                del F  # free these factors before the next are built
                if X is not None:
                    kept[sign] = X if kept[sign] is None \
                        else keep(kept[sign], X)
        return 0.5 * (finish(kept[1], T[1]) + finish(kept[-1], T[-1])), None

    return reduce_chunks(chunk_fn, n_paths // 2, rng, chunk_size, workers)[0]


def estimate_generalized_fk(problem: FKProblem, n_paths: int, rng: RngStream,
                            chunk_size: int = DEFAULT_CHUNK,
                            workers: int = 1) -> MCEstimate:
    """Antithetic Monte Carlo mean of the path-ordered exponential."""
    return _matrix_mc(lambda s0, dWb, F, T: (ordered_product_tree(F), None),
                      None, lambda kept, T: T, problem, n_paths, rng,
                      chunk_size, workers)


def check_nov_identity(problem: FKProblem, n_paths: int, rng: RngStream,
                       chunk_size: int = DEFAULT_CHUNK,
                       workers: int = 1) -> MCEstimate:
    """Residual of the Gaussian integration-by-parts identity, per component.

    Estimates <int dw_j T_s> + (i/2) A_j <int ds T_s> for each j with the
    midpoint rule for the stochastic sum and the trapezoid for the time
    integral; the mean vanishes as the identity holds. Requires B = 0.
    A block's prefixes are the T_(k+1); the real increments meet their
    real and imaginary parts apart, so they are never cast to complex.
    """
    if np.abs(problem.B).max() > 0:
        raise ValueError("the identity is stated for B = 0")
    m, d, dt = problem.dim, problem.d, problem.grid.dt
    A = np.stack(problem.A)

    def visit(dWb, F, T0):
        L = ordered_prefix(F)
        T = L.reshape(len(L), -1, m * m)
        mid = T.copy()  # T_(k+1) + T_k
        mid[:, 1:] += T[:, :-1]
        mid[:, 0] += T0.reshape(-1, m * m)
        dWt = np.swapaxes(dWb, 1, 2)
        X = np.empty((len(L), d + 1, m * m), dtype=complex)
        X[:, :d] = dWt @ mid.real + 1j * (dWt @ mid.imag)
        T.sum(axis=1, out=X[:, d])
        return L[:, -1].copy(), X.reshape(len(L), d + 1, m, m)

    def finish(X, T):
        leb = 0.5 * dt * (2.0 * X[:, d] - T + np.eye(m))
        return 0.5 * X[:, :d] + 0.5j * np.einsum("jab,pbc->pjac", A, leb)

    return _matrix_mc(lambda s0, dWb, F, T: visit(dWb, F, T), np.add,
                      finish, problem, n_paths, rng, chunk_size, workers)


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
    from path prefixes of the same ensemble, the T_k themselves: a block
    keeps those at the nodes s0 < k <= s1; T_0 = I is exact.
    """
    m, dt = problem.dim, problem.grid.dt
    idx, weights = _gauss_legendre_snapped(problem.grid, n_quad)
    keys = sorted({int(i) for i in idx if i > 0} | {problem.grid.n_steps})

    def visit(s0, dWb, F):
        L = ordered_prefix(F)
        ks = [k - s0 - 1 for k in keys if s0 < k <= s0 + dWb.shape[1]]
        return L[:, -1].copy(), L[:, ks]

    est = _matrix_mc(lambda s0, dWb, F, T: visit(s0, dWb, F),
                     lambda a, b: np.concatenate([a, b], axis=1),
                     lambda kept, T: kept, problem, n_paths, rng, chunk_size,
                     workers)
    Asq = sum((Aj @ Aj for Aj in problem.A), np.zeros((m, m), complex))
    mean, sd = dict(zip(keys, est.mean)), dict(zip(keys, est.stderr))
    mean[0], sd[0] = np.eye(m), np.zeros((m, m))
    t, n = problem.grid.t_end, problem.grid.n_steps
    residual = mean[n] - expm(-0.5 * t * Asq)
    err = sd[n].astype(float)
    for i, w in zip(idx, weights):
        prop = expm(-0.5 * (t - i * dt) * Asq) @ problem.B
        residual = residual + w * prop @ mean[int(i)]
        err += np.abs(w) * np.abs(prop) @ sd[int(i)]
    return residual, err


def estimate_product_formula(Aplus: np.ndarray, Aminus: np.ndarray,
                             B: np.ndarray, grid: TimeGrid, n_paths: int,
                             rng: RngStream, chunk_size: int = DEFAULT_CHUNK,
                             workers: int = 1) -> MCEstimate:
    """MC mean of the ordered exponential driven by complex-combined noise.

    Step factors are exp(-i [z A+ + conj(z) A-] - dt B), z = dw1 + i dw2;
    that is the generalized FK problem with A = (A+ + A-, i (A+ - A-)).
    The target is exp(-t (A+ A- + A- A+ + B)), t = grid.t_end.
    """
    Aplus, Aminus, B = as_operator_tuple((Aplus, Aminus, B))
    problem = FKProblem((Aplus + Aminus, 1j * (Aplus - Aminus)), B,
                        grid.t_end, grid)
    return estimate_generalized_fk(problem, n_paths, rng, chunk_size, workers)


def product_formula_target(Aplus: np.ndarray, Aminus: np.ndarray,
                           B: np.ndarray, t: float) -> np.ndarray:
    Aplus, Aminus, B = as_operator_tuple((Aplus, Aminus, B))
    return expm(-t * (Aplus @ Aminus + Aminus @ Aplus + B))
