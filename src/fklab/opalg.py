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
``ordered_prefix`` turns the factors into every partial product in place.
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

    For m == 2 the exact closed form runs on the four entry arrays and the
    result is an entry-major view of shape (..., 2, 2). Larger m use Pade
    3/5/7/9 or scaled Pade-13, chosen by the stack's largest row-sum norm
    (Higham 2005), and raise ``OverflowError`` instead of returning
    non-finite entries.
    """
    M = np.asarray(M, dtype=complex)
    m = M.shape[-1]
    if m == 2:
        return _expm2_batch(M)
    norm = float(np.abs(M).sum(axis=-1).max())
    k = next((k for k in (3, 5, 7, 9) if norm <= _THETA[k]), 13)
    s = 0 if k < 13 else max(0, int(np.ceil(np.log2(norm / _THETA[k]))))
    A = M / (2.0**s) if s else M
    ident = np.broadcast_to(np.eye(m, dtype=complex), A.shape)
    b = _PADE[k]
    # U = A sum_j b_(2j+1) A^(2j) and V = sum_j b_(2j) A^(2j)
    powers = [ident, A @ A]
    while len(powers) <= k // 2:
        powers.append(powers[-1] @ powers[1])
    U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
    V = sum(b[2 * j] * P for j, P in enumerate(powers))
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


def _mul_into(L: np.ndarray, R: np.ndarray) -> None:
    """L <- L @ R on entry-major stacks (m, m, ...); R broadcasts against L.

    For m == 2 each row of L is rebuilt from its two entry arrays,
    c_a0 = l_a0 r_00 + l_a1 r_10 and c_a1 = l_a0 r_01 + l_a1 r_11.
    """
    if L.shape[0] != 2:
        Lm = np.moveaxis(L, (0, 1), (-2, -1))
        # matmul reads an input that overlaps out from a copy
        np.matmul(Lm, np.moveaxis(R, (0, 1), (-2, -1)), out=Lm)
        return
    for a in range(2):
        l0, l1 = L[a, 0], L[a, 1]
        t = l0 * R[0, 1]
        l0 *= R[0, 0]
        l0 += l1 * R[1, 0]
        l1 *= R[1, 1]
        l1 += t


def ordered_prefix(F: np.ndarray) -> np.ndarray:
    """Overwrite F (P, n, m, m) with its left-ordered prefix products.

    Afterwards ``F[:, k]`` holds ``F[:, k] @ ... @ F[:, 0]``; F is returned.
    This is a blocked scan (Blelloch 1990) over blocks of b steps: the
    local scans of all blocks at once (b - 1 array steps), a sequential
    carry across the n / b block ends, then one product of every block
    with the carry of the block before it. For m == 2 the products work on
    the four entry arrays and b = isqrt(n), so about 3 sqrt(n) array steps
    do O(n) products. For m > 2 a stacked @ costs per matrix rather than
    per call, so b = 1 and the carry alone does the n - 1 products. Every
    product is written into F; no temporary is larger than one (P, n) entry
    array.
    """
    E = np.moveaxis(F, (-2, -1), (0, 1))  # (m, m, P, n), a view
    m, n = E.shape[0], E.shape[-1]
    b = max(1, math.isqrt(n)) if m == 2 else 1
    for j in range(1, b):
        L = E[..., j::b]
        _mul_into(L, E[..., j - 1::b][..., :L.shape[-1]])
    ends = [*range(b - 1, n - 1, b), n - 1]
    for prev, end in zip(ends, ends[1:]):
        _mul_into(E[..., end], E[..., prev])
    full = n // b
    # splitting one axis in two is always a view, so the writes reach F
    blocks = E[..., :full * b].reshape(E.shape[:-1] + (full, b))
    _mul_into(blocks[..., 1:, :-1], blocks[..., :-1, -1:])
    # the last, partial block; its end was set by the carry
    _mul_into(E[..., full * b:n - 1], E[..., full * b - 1, None])
    return F


def trotter_product(family: ApproximantFamily, t: float, n: int) -> np.ndarray:
    """[F(t/n)]^n by ``np.linalg.matrix_power`` (binary powering)."""
    if n < 1:
        raise ValueError("n must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    F = as_operator(family.evaluator(t / n))
    return np.linalg.matrix_power(F, n)
