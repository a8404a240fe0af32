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
and ``stack_product`` multiplies two stacks of matrices.
One kernel set serves every m, and one kernel, ``_mul``, does every matrix
product. It works on the m^2 entry arrays of entry-major (m, m, ...)
buffers, seen as (..., m, m): a product is m^3 array products
c_ab += l_ak r_kb, not a stacked ``@`` that pays per matrix. The only
branch on m is the exact 2x2 exponential.
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


def _expm2_batch(M: np.ndarray) -> np.ndarray:
    """Closed-form exponential for stacked 2x2 matrices, entry by entry:
    each entry of the entry-major result is scaled by exp(tr/2) in place,
    unless every trace is exactly zero and the scale is exactly 1."""
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
    sa = sinhc * a
    out = np.empty((2, 2) + M.shape[:-2], dtype=complex)
    np.add(cosh, sa, out=out[0, 0, ...])
    np.multiply(sinhc, m01, out=out[0, 1, ...])
    np.multiply(sinhc, m10, out=out[1, 0, ...])
    np.subtract(cosh, sa, out=out[1, 1, ...])
    if np.any(tr2):
        out *= np.exp(tr2)
    return np.moveaxis(out, (0, 1), (-2, -1))


# theta_k bounds the norm at which the degree-k Pade approximant to exp is
# accurate to double precision (Higham 2005); above theta_9 the stack is
# scaled to theta_13. The coefficients are b_j = (2k - j)! / (j! (k - j)!).
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.37}
_PADE = {k: tuple(math.factorial(2 * k - j)
                  / (math.factorial(j) * math.factorial(k - j))
                  for j in range(k + 1)) for k in _THETA}


def expm_batch(M: np.ndarray) -> np.ndarray:
    """Exponentials of a stack (..., m, m).

    m == 2 takes the exact closed form. Other m use Pade 3/5/7/9 or scaled
    Pade-13, chosen by the stack's largest row-sum norm (Higham 2005): the
    powers, U and the squarings are entry products, (V - U) R = V + U goes
    to ``np.linalg.solve`` with pivoting, and non-finite entries raise
    ``OverflowError``.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[-1] == 2:
        return _expm2_batch(M)
    norm = float(np.abs(M).sum(axis=-1).max())
    k = next((k for k in (3, 5, 7, 9) if norm <= _THETA[k]), 13)
    s = 0 if k < 13 else max(0, int(np.ceil(np.log2(norm / _THETA[k]))))
    A = np.moveaxis(M / 2.0**s if s else M, (-2, -1), (0, 1))
    ident = np.eye(len(A), dtype=complex)[(...,) + (None,) * (A.ndim - 2)]
    b = _PADE[k]
    # U = A sum_j b_(2j+1) A^(2j) and V = sum_j b_(2j) A^(2j)
    powers = [ident, _mul(A, A)]
    while len(powers) <= k // 2:
        powers.append(_mul(powers[-1], powers[1]))
    U = _mul(A, sum(b[2 * j + 1] * P for j, P in enumerate(powers)))
    V = sum(b[2 * j] * P for j, P in enumerate(powers))
    R = np.linalg.solve(*(np.moveaxis(X, (0, 1), (-2, -1))
                          for X in (V - U, V + U)))
    R = np.moveaxis(R, (-2, -1), (0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            R = _mul(R, R)
    if not np.all(np.isfinite(R)):
        raise OverflowError("batched matrix exponential overflowed")
    return np.moveaxis(R, (0, 1), (-2, -1))


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
                 B: np.ndarray | None) -> np.ndarray:
    """exp(-i dW . A - dt B) for stacked increments dW of shape (..., d)."""
    A = as_operator_tuple(A)
    B = None if B is None else as_operator(B)
    return expm_batch(_generator(dW, dt, A, B, (A[0] if A else B).shape[0]))


def _mul(L: np.ndarray, R: np.ndarray, out=None) -> np.ndarray:
    """L @ R on entry-major stacks (m, m, ...) that broadcast, into out:
    c_ab = l_a0 r_0b + l_a1 r_1b + ..., one product temporary for all."""
    m = L.shape[0]
    if out is None:
        out = np.empty(np.broadcast_shapes(L.shape, R.shape), dtype=complex)
    tmp = np.empty(out.shape[2:], dtype=complex)
    for a, b in np.ndindex(m, m):
        c = out[a, b, ...]
        np.multiply(L[a, 0], R[0, b], out=c)
        for k in range(1, m):
            c += np.multiply(L[a, k], R[k, b], out=tmp)
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
    """
    E = np.moveaxis(F, (-2, -1), (0, 1))
    n = E.shape[-1]
    while n > 1:
        half, odd = divmod(n, 2)
        out = np.empty(E.shape[:-1] + (half + odd,), dtype=complex)
        _mul(E[..., 1:2 * half:2], E[..., 0:2 * half:2], out[..., :half])
        if odd:
            out[..., half] = E[..., n - 1]
        E, n = out, half + odd
    return np.ascontiguousarray(np.moveaxis(E[..., 0], (0, 1), (-2, -1)))


def ordered_prefix(F: np.ndarray) -> np.ndarray:
    """Overwrite F (P, n, m, m) with its left-ordered prefix products.

    Afterwards ``F[:, k]`` holds ``F[:, k] @ ... @ F[:, 0]``; F is returned.
    This is a blocked scan (Blelloch 1990) over blocks of b = isqrt(n)
    steps: the local scans of all blocks at once, a sequential carry across
    the block ends, then one product of every block with the carry of the
    block before it, so about 3 sqrt(n) entry products do O(n) matrix
    products, each written back into F. The largest temporary, the
    product of that broadcast step, is about as large as F.
    """
    E = np.moveaxis(F, (-2, -1), (0, 1))  # (m, m, P, n), a view
    n = E.shape[-1]
    b = max(1, math.isqrt(n))
    for j in range(1, b):
        L = E[..., j::b]
        L[...] = _mul(L, E[..., j - 1::b][..., :L.shape[-1]])
    ends = [*range(b - 1, n - 1, b), n - 1]
    for prev, end in zip(ends, ends[1:]):
        E[..., end] = _mul(E[..., end], E[..., prev])
    full = n // b
    # splitting one axis in two is always a view, so the writes reach F
    blocks = E[..., :full * b].reshape(E.shape[:-1] + (full, b))
    blocks[..., 1:, :-1] = _mul(blocks[..., 1:, :-1], blocks[..., :-1, -1:])
    # the last, partial block; its end was set by the carry
    L = E[..., full * b:n - 1]
    L[...] = _mul(L, E[..., full * b - 1, None])
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
