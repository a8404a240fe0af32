"""Dense complex operator algebra on finite-dimensional spaces.

Provides the matrix exponential (single and batched), the product-integral
solver for the Stratonovich operator SDE, truncated Dyson series, and the
generalized Lie-Trotter product engine. Operators are plain complex ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .wiener import TimeGrid, WienerPath

_EXPM_NORM_LIMIT = 500.0


def as_operator(x) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("operator must be a square matrix")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("operator entries must be finite")
    return m


def as_operator_tuple(components: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    ops = tuple(as_operator(c) for c in components)
    dims = {op.shape[0] for op in ops}
    if len(dims) > 1:
        raise ValueError("operator tuple components must share one dimension")
    return ops


def expm(X: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring (scipy core).

    Raises instead of returning non-finite entries when the norm is extreme.
    """
    X = as_operator(X)
    if np.linalg.norm(X) > _EXPM_NORM_LIMIT:
        raise OverflowError("operator norm too large for a reliable exponential")
    out = scipy.linalg.expm(X)
    if not np.all(np.isfinite(out.view(float))):
        raise OverflowError("matrix exponential overflowed")
    return out


def _expm2_batch(M: np.ndarray) -> np.ndarray:
    """Closed-form exponential for stacked 2x2 matrices, entry by entry.

    Each of the four output entries is computed as its own array and then
    scaled by exp(tr/2) in place. The result is entry-major: a (2, 2, ...)
    buffer returned through ``np.moveaxis``, so each ``out[..., a, b]`` is
    a contiguous array for the ordered product.
    """
    m00, m01, m10, m11 = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    tr2 = 0.5 * (m00 + m11)
    a = m00 - tr2
    delta = np.sqrt(a * a + m01 * m10 + 0j)
    cosh = np.cosh(delta)
    small = np.abs(delta) < 1e-6
    if small.any():
        dsafe = np.where(small, 1.0, delta)
        sinhc = np.where(small, 1.0 + delta * delta / 6.0,
                         np.sinh(dsafe) / dsafe)
    else:
        sinhc = np.sinh(delta) / delta
    scale = np.exp(tr2)
    sa = sinhc * a
    out = np.empty((2, 2) + M.shape[:-2], dtype=complex)
    np.add(cosh, sa, out=out[0, 0, ...])
    np.multiply(sinhc, m01, out=out[0, 1, ...])
    np.multiply(sinhc, m10, out=out[1, 0, ...])
    np.subtract(cosh, sa, out=out[1, 1, ...])
    out *= scale
    return np.moveaxis(out, (0, 1), (-2, -1))


# Pade-13 coefficients for scaling-and-squaring.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def expm_batch(M: np.ndarray) -> np.ndarray:
    """Exponentials of a stack (..., m, m).

    For m == 2 the exact closed form runs on the four entry arrays and the
    result is an entry-major view of shape (..., 2, 2). Larger m use
    Pade-13 scaling-and-squaring and raise ``OverflowError`` instead of
    returning non-finite entries.
    """
    M = np.asarray(M, dtype=complex)
    m = M.shape[-1]
    if m == 2:
        return _expm2_batch(M)
    norm = np.abs(M).sum(axis=-1).max(axis=-1)
    theta13 = 5.37
    s = max(0, int(np.ceil(np.log2(max(float(norm.max()), 1e-300) / theta13))))
    A = M / (2.0**s)
    ident = np.broadcast_to(np.eye(m, dtype=complex), A.shape)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A2 @ A4
    b = _PADE13
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    R = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            R = R @ R
    if not np.all(np.isfinite(R)):
        raise OverflowError("batched matrix exponential overflowed")
    return R


@dataclass(frozen=True)
class ApproximantFamily:
    """Short-time family t >= 0 -> operator with F(0) = identity."""

    evaluator: Callable[[float], np.ndarray]
    dim: int

    def __post_init__(self) -> None:
        F0 = as_operator(self.evaluator(0.0))
        if F0.shape[0] != self.dim:
            raise ValueError("family dimension mismatch")
        if np.abs(F0 - np.eye(self.dim)).max() > 1e-12:
            raise ValueError("family must satisfy F(0) = identity")


def _generator2(dW: np.ndarray, dt: float, A: tuple[np.ndarray, ...],
                B: np.ndarray | None) -> np.ndarray:
    """-i dW . A - dt B for m = 2, built entry by entry.

    -i dW_j (x + iy) = dW_j y - i dW_j x, so each real and imaginary part
    of each entry is a sum over the nonzero coefficients only. The buffer
    is entry-major, (2, 2, ...), returned as a (..., 2, 2) view.
    """
    M = np.zeros((2, 2) + dW.shape[:-1], dtype=complex)
    drift = np.zeros((2, 2), dtype=complex) if B is None else dt * B
    for a, b in np.ndindex(2, 2):
        entry = M[a, b, ...]
        for out, coefs, shift in (
                (entry.real, [Aj[a, b].imag for Aj in A], drift[a, b].real),
                (entry.imag, [-Aj[a, b].real for Aj in A], drift[a, b].imag)):
            for j, c in enumerate(coefs):
                if c != 0:
                    out += dW[..., j] * c
            if shift != 0:
                out -= shift
    return np.moveaxis(M, (0, 1), (-2, -1))


def step_factors(dW: np.ndarray, dt: float, A: Sequence[np.ndarray],
                 B: np.ndarray | None) -> np.ndarray:
    """exp(-i dW . A - dt B) for stacked increments dW of shape (..., d)."""
    A = as_operator_tuple(A)
    m = A[0].shape[0] if A else as_operator(B).shape[0]
    if B is not None:
        B = as_operator(B)
    if m == 2:
        return expm_batch(_generator2(dW, dt, A, B))
    M = np.zeros(dW.shape[:-1] + (m, m), dtype=complex)
    for j, Aj in enumerate(A):
        M += -1j * dW[..., j, None, None] * Aj
    if B is not None:
        M -= dt * B
    return expm_batch(M)


def ordered_exp_sde(path: WienerPath, A: Sequence[np.ndarray],
                    B: np.ndarray | None) -> np.ndarray:
    """Product-integral solution of the Stratonovich operator SDE.

    Later steps multiply on the left, matching the left-pointing time
    ordering of the Dyson exponential. Each factor exp(-i dw . A - dt B)
    preserves unitarity when B = 0 and the A components are Hermitian.
    """
    A = as_operator_tuple(A)
    if A and path.d != len(A):
        raise ValueError("path dimension must match the operator tuple")
    dW = np.diff(path.values, axis=0)
    F = step_factors(dW, path.grid.dt, A, B)
    T = np.eye(F.shape[-1], dtype=complex)
    for nu in range(F.shape[0]):
        T = F[nu] @ T
    return T


def _tree2(F: np.ndarray) -> np.ndarray:
    """ordered_product_tree for m = 2 on the four (P, n) entry arrays."""
    E = np.moveaxis(F, (-2, -1), (0, 1))
    paths, n = F.shape[:2]
    while n > 1:
        half, odd = divmod(n, 2)
        later, earlier = E[..., 1:2 * half:2], E[..., 0:2 * half:2]
        out = np.empty((2, 2, paths, half + odd), dtype=complex)
        tmp = np.empty((paths, half), dtype=complex)
        for a, b in np.ndindex(2, 2):
            c = out[a, b, :, :half]
            np.multiply(later[a, 0], earlier[0, b], out=c)
            c += np.multiply(later[a, 1], earlier[1, b], out=tmp)
        if odd:
            out[..., half] = E[..., n - 1]
        E, n = out, half + odd
    return np.ascontiguousarray(np.moveaxis(E[..., 0], (0, 1), (-2, -1)))


def ordered_product_tree(F: np.ndarray) -> np.ndarray:
    """Left-ordered product F[:, n-1] @ ... @ F[:, 0] by pairwise reduction.

    Adjacent factors are multiplied in place of a sequential loop; the
    association changes but the operand order (later leftmost) does not.
    For m == 2 each level works on the four entry arrays,
    c00 = l00 r00 + l01 r10 and so on, instead of stacked 2x2 matmuls;
    an odd level carries its last factor to the next level unchanged.
    """
    if F.shape[-1] == 2:
        return _tree2(F)
    while F.shape[1] > 1:
        even = F.shape[1] - F.shape[1] % 2
        paired = F[:, 1:even:2] @ F[:, 0:even:2]
        if even != F.shape[1]:
            paired = np.concatenate([paired, F[:, even:]], axis=1)
        F = paired
    return F[:, 0]


def ordered_exp_chunk(dW: np.ndarray, dt: float, A: Sequence[np.ndarray],
                      B: np.ndarray | None) -> np.ndarray:
    """Final-time solutions for a whole batch of increment sets (P, n, d)."""
    return ordered_product_tree(step_factors(dW, dt, A, B))


def dyson_series(path: WienerPath, A: Sequence[np.ndarray],
                 B: np.ndarray | None, order: int) -> np.ndarray:
    """Truncated iterated-integral series on the grid.

    Increments replace w-dot ds and same-index coincidences use the midpoint
    convention, so the truncation is Stratonovich-consistent; the remainder
    is O(t^(order+1)) for a fixed path as t -> 0.
    """
    if not 0 <= order <= 6:
        raise ValueError("order must lie in [0, 6]")
    A = as_operator_tuple(A)
    m = A[0].shape[0] if A else as_operator(B).shape[0]
    n = path.grid.n_steps
    dt = path.grid.dt
    dW = np.diff(path.values, axis=0)
    dF = np.zeros((n, m, m), dtype=complex)
    for j, Aj in enumerate(A):
        dF += -1j * dW[:, j, None, None] * Aj
    if B is not None:
        dF -= dt * as_operator(B)

    total = np.eye(m, dtype=complex)
    # level-by-level cumulative iterated sums; G[nu] holds the value up to node nu
    G = np.broadcast_to(np.eye(m, dtype=complex), (n + 1, m, m)).copy()
    for _ in range(order):
        nxt = np.zeros((n + 1, m, m), dtype=complex)
        acc = np.zeros((m, m), dtype=complex)
        for nu in range(1, n + 1):
            mid = 0.5 * (G[nu] + G[nu - 1])
            acc = acc + dF[nu - 1] @ mid
            nxt[nu] = acc
        G = nxt
        total = total + G[n]
    return total


def trotter_product(family: ApproximantFamily, t: float, n: int) -> np.ndarray:
    """[F(t/n)]^n by repeated squaring-free multiplication."""
    if n < 1:
        raise ValueError("n must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    F = as_operator(family.evaluator(t / n))
    return np.linalg.matrix_power(F, n)


def generator_probe(family: ApproximantFamily, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference estimate of -dF/dt at 0 (candidate generator)."""
    Fp = as_operator(family.evaluator(step))
    Fm = as_operator(family.evaluator(-step))
    return -(Fp - Fm) / (2 * step)
