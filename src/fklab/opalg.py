"""Dense complex operator algebra on finite-dimensional spaces.

Provides the matrix exponential (single and batched), the product-integral
solver for the Stratonovich operator SDE and the generalized Lie-Trotter
product engine. Operators are plain complex ndarrays. The truncated Dyson
series and the finite-difference generator probe that the tests compare
against live in ``tests/oracles.py``.

The operator SDE is solved for a batch only: ``step_factors`` builds
exp(-i dW . A - dt B) for increments of shape (P, n, d) and
``ordered_product_tree`` multiplies them, later factors on the left. One
path is ``ordered_product_tree(step_factors(dW[None], dt, A, B))[0]``.
``ordered_prefix`` turns the factors into every partial product in place,
and ``stack_product`` multiplies two stacks of matrices. Both kernels read
their (P, n, m, m) argument step-major, as (m, m, n, P): on the factors of
time-major increments (n, P, d), seen as (P, n, m, m), a step is one
contiguous row of all P paths. With ``antithetic``, ``step_factors`` builds
the factors of the paths and of their reflections as one batch, from one
2x2 closed form when tr(B A_j') = 0 (X' the traceless part). One kernel set
serves every m, and one kernel, ``_mul``, does every matrix product on the
m^2 entry arrays of entry-major (m, m, ...) buffers, seen as (..., m, m): a
product is m (2m - 1) array operations, c_ab += l_ak r_kb for one a and k
over all b at once, not a stacked ``@`` that pays per matrix. Up to Pade-7
the Pade system of ``expm_batch`` is solved on the same entry arrays by
``_solve``, elimination without pivoting, which the diagonal dominance of
the Pade denominator allows; Pade-9 and -13 keep the pivoted
``np.linalg.solve``. The only branch on m is the exact 2x2 exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

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
    # the Frobenius norm of X / scale cannot overflow; the limit is scaled
    # the same way in Python floats, which give inf without a warning
    scale = float(max(np.abs(X.real).max(), np.abs(X.imag).max()))
    if scale > 0 and np.linalg.norm(X / scale) > _EXPM_NORM_LIMIT / scale:
        raise OverflowError("operator norm too large for a reliable exponential")
    out = scipy.linalg.expm(X)
    if not np.all(np.isfinite(out.view(float))):
        raise OverflowError("matrix exponential overflowed")
    return out


def _expm2_batch(M: np.ndarray, D: np.ndarray | None) -> np.ndarray:
    """Closed-form exponential of stacked 2x2 X = M - D (D = 0 if None),
    entry by entry: X = tr/2 + N, exp(N) = cosh(delta) + sinhc(delta) N,
    scaled by exp(tr/2) unless every trace is 0. Given D with tr(D'M) = 0
    (D' traceless), exp(-M - D) follows on axis -3 from the same delta:
    exp(X)'s entry negated or swapped where D is 0, else formed (both on
    the diagonal if one has drift) from (-D) - M, 0j where M is all 0."""
    drift = np.zeros((2, 2), bool) if D is None else D != 0
    form = drift | (np.eye(2, dtype=bool) & drift.diagonal().any())
    e = [[M[..., i, j] if not form[i, j] or np.any(M[..., i, j]) else 0j
          for j in (0, 1)] for i in (0, 1)]
    Dt = np.zeros((2, 2)) if D is None else D - 0.5 * np.trace(D) * np.eye(2)
    t = sum(Dt[i, j] * e[j][i] for i, j in np.ndindex(2, 2) if Dt[i, j])
    if np.any(t) and abs(t).max() > 1e-12 * abs(Dt).max() * abs(M).max():
        raise ValueError("an antithetic drift must be orthogonal to M")
    m00, m01, m10, m11 = (e[i][j] - D[i, j] if drift[i, j] else e[i][j]
                          for i, j in np.ndindex(2, 2))
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
    sa = sinhc * a
    P = M.shape[-3]
    out = np.empty((2, 2, *M.shape[:-3], P if D is None else 2 * P), complex)
    pos, neg, ntr2 = out[..., :P], out[..., P:], None
    np.add(cosh, sa, out=pos[0, 0])
    np.multiply(sinhc, m01, out=pos[0, 1])
    np.multiply(sinhc, m10, out=pos[1, 0])
    np.subtract(cosh, sa, out=pos[1, 1])
    if D is not None:
        n = [[np.subtract(-D[i, j], e[i][j]) if form[i, j] else None
              for j in (0, 1)] for i in (0, 1)]
        if form[0, 0]:
            ntr2 = 0.5 * (n[0][0] + n[1][1])
            np.multiply(sinhc, n[0][0] - ntr2, out=sa)
            np.add(cosh, sa, out=neg[0, 0])
            np.subtract(cosh, sa, out=neg[1, 1])
        else:
            neg[0, 0], neg[1, 1] = pos[1, 1], pos[0, 0]
        for i, j in ((0, 1), (1, 0)):
            if form[i, j]:
                np.multiply(sinhc, n[i][j], out=neg[i, j])
            else:
                np.negative(pos[i, j], out=neg[i, j])
    if D is not None and np.any(tr2 if ntr2 is None else ntr2):
        neg *= np.exp(-tr2 if ntr2 is None else ntr2)
    if np.any(tr2):
        pos *= np.exp(tr2)
    return np.moveaxis(out, (0, 1), (-2, -1))


# theta_k bounds the norm at which the degree-k Pade approximant to exp is
# accurate to double precision (Higham 2005); above theta_9 the stack is
# scaled to theta_13. The coefficients are b_j = (2k - j)! / (j! (k - j)!).
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.37}
_PADE = {k: tuple(math.factorial(2 * k - j)
                  / (math.factorial(j) * math.factorial(k - j))
                  for j in range(k + 1)) for k in _THETA}


def expm_batch(M: np.ndarray,
               antithetic: np.ndarray | None = None) -> np.ndarray:
    """Exponentials of a stack (..., m, m); with ``antithetic``, a 2x2 drift
    D with tr(D'M) = 0 (D' its traceless part; else ValueError), those of
    ``np.concatenate([M - D, -M - D], axis=-3)`` from one delta.

    m == 2 takes the exact closed form, the only one that shares its work
    between the two sides; ``antithetic`` for other m is a ValueError. Other m
    use Pade 3/5/7/9 or scaled Pade-13, chosen by the stack's largest
    row-sum norm (Higham 2005), on the m^2 entry arrays: each power of A^2
    is added into the odd and even sums as soon as ``_mul`` forms it, so
    only A^2 and the latest power are kept, and U = A (odd sum). Up to
    Pade-7, (V - U) R = V + U is solved by ``_solve`` in the buffers of
    V - U and V + U; Pade-9 and -13 keep ``np.linalg.solve`` with partial
    pivoting, since there V - U, though well conditioned, can have a
    vanishing leading pivot: for A = c [[0, -1], [1, 0]] (+) 0 it is
    Re p_13(i c), zero near c = pi. Non-finite entries raise
    ``OverflowError``.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[-1] == 2:
        return _expm2_batch(M, antithetic)
    if antithetic is not None:
        raise ValueError("an antithetic pair shares the 2x2 closed form only")
    norm = float(np.abs(M).sum(axis=-1).max())
    k = next((k for k in (3, 5, 7, 9) if norm <= _THETA[k]), 13)
    s = 0 if k < 13 else max(0, int(np.ceil(np.log2(norm / _THETA[k]))))
    A = np.moveaxis(M / 2.0**s if s else M, (-2, -1), (0, 1))
    b = _PADE[k]
    # odd = b_1 I + b_3 A^2 + b_5 A^4 + ... and V = b_0 I + b_2 A^2 + ...,
    # summed left to right
    P = A2 = _mul(A, A)
    odd, V = b[3] * A2, b[2] * A2
    for i in range(len(A)):
        odd[i, i] += b[1]
        V[i, i] += b[0]
    U = np.empty_like(A2)  # the scaled power until it holds U
    for j in range(2, k // 2 + 1):
        P = _mul(P, A2)
        odd += np.multiply(P, b[2 * j + 1], out=U)
        V += np.multiply(P, b[2 * j], out=U)
    del P, A2
    _mul(A, odd, U)
    L = np.subtract(V, U, out=odd)
    R = np.add(V, U, out=V)
    del U
    if k <= 7:
        R = _solve(L, R)
    else:
        R = np.moveaxis(np.linalg.solve(
            *(np.moveaxis(X, (0, 1), (-2, -1)) for X in (L, R))),
            (-2, -1), (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            R = _mul(R, R)
    if not np.all(np.isfinite(R)):
        raise OverflowError("batched matrix exponential overflowed")
    return np.moveaxis(R, (0, 1), (-2, -1))


def _solve(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X with L X = R on entry-major stacks (m, m, ...), by Gauss-Jordan
    elimination without pivoting, one row of entries per call; both
    operands are overwritten, and R, which holds X, is returned.

    ``expm_batch`` calls it only on the Pade denominator L = q_k(A) = V - U
    with k <= 7 and ||A|| <= theta_k in the row-sum norm, where skipping
    the pivot search is safe: ||q_k(A) / b_0 - I|| <= p_k(theta_k) / b_0 - 1
    <= 0.6, so every row of L is strictly diagonally dominant, and so is
    every row of what elimination leaves of it (growth factor at most 2,
    Wilkinson 1961). A bound on the condition number alone would not do:
    a well conditioned matrix can have a vanishing leading pivot.
    """
    m = len(L)
    tmp = np.empty(R.shape[1:], dtype=complex)
    for k in range(m):
        inv = 1.0 / L[k, k]
        L[k, k + 1:] *= inv
        R[k] *= inv
        for i in range(m):
            if i == k:
                continue
            f = L[i, k, None]
            if k + 1 < m:
                L[i, k + 1:] -= np.multiply(f, L[k, k + 1:],
                                            out=tmp[:m - k - 1])
            R[i] -= np.multiply(f, R[k], out=tmp)
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


def _generator(dW: np.ndarray, dt: float, A: tuple[np.ndarray, ...],
               B: np.ndarray | None, m: int) -> np.ndarray:
    """-i dW . A - dt B, built entry by entry.

    -i dW_j (x + iy) = dW_j y - i dW_j x, so each real and imaginary part
    of each entry is a sum over the nonzero coefficients only. The buffer
    is entry-major, (m, m, ...), returned as a (..., m, m) view.
    """
    M = np.zeros((m, m) + dW.shape[:-1], dtype=complex)
    drift = np.zeros((m, m), dtype=complex) if B is None else dt * B
    for a, b in np.ndindex(m, m):
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
                 B: np.ndarray | None, antithetic: bool = False) -> np.ndarray:
    """exp(-i dW . A - dt B) for stacked increments dW of shape (..., P, d).

    With ``antithetic``, the factors of the 2P paths
    ``np.concatenate([dW, -dW], axis=-2)``: rows 0 ... P-1 walk dW and rows
    P ... 2P-1 walk -dW. Both halves come from one 2x2 closed form when
    tr(B A_j') is exactly 0 for every j (X' the traceless part of X)."""
    A = as_operator_tuple(A)
    B = np.zeros_like(A[0]) if B is None else as_operator(B)
    shared = antithetic and len(B) == 2 and not any(
        np.trace(B @ (Aj - np.trace(Aj) / 2 * np.eye(2))) for Aj in A)
    if antithetic and not shared:
        dW = np.concatenate([dW, -dW], axis=-2)
    return expm_batch(_generator(dW, dt, A, None if shared else B, len(B)),
                      dt * B if shared else None)


def _mul(L: np.ndarray, R: np.ndarray, out=None) -> np.ndarray:
    """L @ R on entry-major stacks (m, m, ...) that broadcast, into out:
    c_ab = l_a0 r_0b + l_a1 r_1b + ..., a whole row a per call, one product
    temporary of one row for all. Few calls matter with two worker threads:
    numpy drops the interpreter lock in every call on more than 500
    elements, and each drop may hand it to the other thread."""
    m = L.shape[0]
    if out is None:
        out = np.empty(np.broadcast_shapes(L.shape, R.shape), dtype=complex)
    tmp = np.empty(out.shape[1:], dtype=complex)
    for a in range(m):
        c = out[a]
        np.multiply(L[a, 0, None], R[0], out=c)
        for k in range(1, m):
            c += np.multiply(L[a, k, None], R[k], out=tmp)
    return out


def stack_product(L: np.ndarray, R: np.ndarray) -> np.ndarray:
    """L @ R on stacks (..., m, m) that broadcast, by one entry product."""
    L, R = (np.moveaxis(X, (-2, -1), (0, 1)) for X in (L, R))
    return np.moveaxis(_mul(L, R), (0, 1), (-2, -1))


def ordered_product_tree(F: np.ndarray) -> np.ndarray:
    """Left-ordered product F[:, n-1] @ ... @ F[:, 0] by pairwise reduction.

    Adjacent factors are multiplied in place of a sequential loop; the
    association changes but the operand order (later leftmost) does not.
    Each level is one entry product of the later factors with the earlier
    ones; an odd level carries its last factor to the next one unchanged.
    The entry arrays are read step-major, (m, m, n, P), so a step is one
    row of all P paths. Returns a C-contiguous (P, m, m).
    """
    E = F.transpose(2, 3, 1, 0)
    n = E.shape[-2]
    while n > 1:
        half, odd = divmod(n, 2)
        out = np.empty(E.shape[:2] + (half + odd, E.shape[-1]), dtype=complex)
        _mul(E[..., 1:2 * half:2, :], E[..., 0:2 * half:2, :],
             out[..., :half, :])
        if odd:
            out[..., half, :] = E[..., n - 1, :]
        E, n = out, half + odd
    return np.ascontiguousarray(E[..., 0, :].transpose(2, 0, 1))


def ordered_prefix(F: np.ndarray) -> np.ndarray:
    """Overwrite F (P, n, m, m) with its left-ordered prefix products.

    Afterwards ``F[:, k]`` holds ``F[:, k] @ ... @ F[:, 0]``; F is returned.
    This is a blocked scan (Blelloch 1990) over blocks of b = isqrt(n)
    steps: the local scans of all blocks at once, a sequential carry across
    the block ends, then one product of every block with the carry of the
    block before it, so about 3 sqrt(n) entry products do O(n) matrix
    products, each written back into F. The largest temporary, the
    product of that broadcast step, is about as large as F. The entry
    arrays are read step-major, (m, m, n, P): on F a view of step-major
    memory, as the matrix walk builds it, each scan step reads whole rows
    of P paths.
    """
    E = F.transpose(2, 3, 1, 0)  # (m, m, n, P), a view
    n = E.shape[-2]
    b = max(1, math.isqrt(n))
    for j in range(1, b):
        L = E[..., j::b, :]
        L[...] = _mul(L, E[..., j - 1::b, :][..., :L.shape[-2], :])
    ends = [*range(b - 1, n - 1, b), n - 1]
    for prev, end in zip(ends, ends[1:]):
        E[..., end, :] = _mul(E[..., end, :], E[..., prev, :])
    full = n // b
    # splitting one axis in two is always a view, so the writes reach F
    blocks = E[..., :full * b, :].reshape(E.shape[:2] + (full, b, E.shape[-1]))
    blocks[..., 1:, :-1, :] = _mul(blocks[..., 1:, :-1, :],
                                   blocks[..., :-1, -1:, :])
    # the last, partial block; its end was set by the carry
    L = E[..., full * b:n - 1, :]
    L[...] = _mul(L, E[..., full * b - 1, None, :])
    return F


def trotter_product(family: ApproximantFamily, t: float, n: int) -> np.ndarray:
    """[F(t/n)]^n by ``np.linalg.matrix_power`` (binary powering)."""
    if n < 1:
        raise ValueError("n must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    F = as_operator(family.evaluator(t / n))
    return np.linalg.matrix_power(F, n)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, x inside (-1, 1)."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] in O(n) memory: the
    Golub-Welsch nodes (eigenvalues of the Jacobi matrix), symmetrized and
    polished by one Newton step, and weights 2 / ((1 - x^2) P_n'(x)^2)."""
    k = np.arange(1.0, n)
    x = scipy.linalg.eigvalsh_tridiagonal(np.zeros(n),
                                          k / np.sqrt(4 * k * k - 1))
    x = 0.5 * (x - x[::-1])
    p, dp = _legendre(n, x)
    x = x - p / dp
    dp = _legendre(n, x)[1]
    return x, 2 / ((1 - x * x) * dp * dp)
