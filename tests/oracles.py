"""Independent reference computations used by the test suite.

Everything here is deliberately implemented with different algorithms than
the package: Taylor-series matrix exponentials, truncated Dyson series,
dense-grid quadrature, finite-difference eigensolvers and generator probes,
error-function integrals, step-by-step ordered products, whole-path
Feynman-Kac functionals and the phase-space transforms with their Fourier
sums as dense N x N DFT matrices.
The ordering-mismatch demo quantizes one symbol at two orderings through
the package's public transform; the standard Hamiltonian's alpha-symbol is
its closed form.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import ndtr

from fklab.opalg import as_operator
from fklab.phasespace import (PeriodicGrid, Symbol, _fractional_shift,
                              _offset_diagonals, alpha_quantize)


def taylor_expm(M: np.ndarray, terms: int = 40) -> np.ndarray:
    """Matrix exponential by scaled Taylor summation in extended precision."""
    M = np.asarray(M, dtype=complex)
    norm = float(np.abs(M).sum(axis=-1).max())
    s = max(0, int(math.ceil(math.log2(max(norm, 1e-30)))) + 1)
    A = (M / 2**s).astype(np.clongdouble)
    out = np.eye(M.shape[0], dtype=np.clongdouble)
    term = np.eye(M.shape[0], dtype=np.clongdouble)
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out.astype(complex)


def double_min_integral(t: float = 1.0, n: int = 2000) -> float:
    """Dense-trapezoid value of the double integral of min(r, s) over [0,t]^2."""
    r = np.linspace(0.0, t, n + 1)
    m = np.minimum(r[:, None], r[None, :])
    w = np.full(n + 1, t / n)
    w[0] = w[-1] = t / (2 * n)
    return float(w @ m @ w)


def harmonic_grid_kernel(q: float, qp: float, t: float,
                         halfwidth: float = 8.0, n: int = 1601) -> float:
    """<q| exp(-tH) |q'> for H = -(1/2) d^2/dx^2 + x^2/2 by grid eigensolve.

    Finite-difference Laplacian with Dirichlet walls far out; the kernel is
    sum_i e^{-t E_i} psi_i(q) psi_i(q') with grid-normalized eigenvectors.
    """
    x = np.linspace(-halfwidth, halfwidth, n)
    dx = x[1] - x[0]
    main = 1.0 / dx**2 + 0.5 * x**2
    off = np.full(n - 1, -0.5 / dx**2)
    H = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(H)
    psi = evecs / math.sqrt(dx)  # L2-normalized on the grid
    iq = int(round((q + halfwidth) / dx))
    iqp = int(round((qp + halfwidth) / dx))
    keep = evals < 60.0  # e^{-60} is far below double precision here
    return float(np.sum(np.exp(-t * evals[keep])
                        * psi[iq, keep] * psi[iqp, keep]))


def well_kato_oracle(height: float, halfwidth: float, t: float,
                     x: float = 0.0, n_time: int = 4000) -> float:
    """kappa integrand for the square well via the Gaussian CDF, densely summed."""
    s = np.linspace(0.0, t, n_time + 1)[1:]
    sq = np.sqrt(s)
    conv = height * (ndtr((halfwidth - x) / sq) - ndtr((-halfwidth - x) / sq))
    w = np.full(n_time, t / n_time)
    # s = 0 contributes u(x) with half trapezoid weight
    u0 = height if abs(x) <= halfwidth else 0.0
    return float(0.5 * (t / n_time) * u0 + conv @ w
                 - 0.5 * (t / n_time) * conv[-1])


def loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(lx, ly, 1)[0])


def prefix_loop(F: np.ndarray) -> np.ndarray:
    """Left-ordered prefixes T_(k+1) = F[:, k] @ T_k, T_0 = I, one step a time.

    Returns (P, n, m, m) with out[:, k] = F[:, k] @ ... @ F[:, 0].
    """
    T = np.broadcast_to(np.eye(F.shape[-1], dtype=complex),
                        (F.shape[0],) + F.shape[2:]).copy()
    out = np.empty(F.shape, dtype=complex)
    for k in range(F.shape[1]):
        T = F[:, k] @ T
        out[:, k] = T
    return out


def full_path_columns(v, grid, positions: np.ndarray, variants):
    """FK path functionals on whole shifted paths (P, n+1, d), one column each.

    The full-path form of ``fkschrodinger._functional_columns``: the
    trapezoid sum of v over all n+1 rows as one matrix-vector product, the
    Stratonovich sums from the whole increment and midpoint arrays, and
    ``weight`` of the last row. Returns (columns (P, k), finite mask).
    """
    dW = np.diff(positions, axis=1)
    mid = 0.5 * (positions[:, 1:, :] + positions[:, :-1, :])
    trap = np.full(grid.n_steps + 1, grid.dt)
    trap[[0, -1]] /= 2
    integral = np.asarray(v(positions), dtype=float) @ trap
    finite = np.isfinite(integral)
    cols = []
    with np.errstate(over="ignore", invalid="ignore"):
        damping = np.exp(-np.where(finite, integral, 0.0)).astype(complex)
        for a, weight in variants:
            value = damping
            if a is not None:
                strat = np.einsum("pkd,pkd->p", np.asarray(a(mid)), dW)
                value = value * np.exp(-1j * strat)
            if weight is not None:
                value = value * np.asarray(weight(positions[:, -1, :]))
            finite &= np.isfinite(value)
            cols.append(value)
    return np.stack(cols, axis=1), finite


def dyson_series(values: np.ndarray, dt: float, A, B, order: int) -> np.ndarray:
    """Truncated iterated-integral series along one path of shape (n+1, d).

    The generator -i dW . A - dt B is built here, not taken from the
    package. Increments replace w-dot ds and same-index coincidences use
    the midpoint convention, so the truncation is Stratonovich-consistent;
    the remainder is O(t^(order+1)) for a fixed path as t -> 0.
    """
    if not 0 <= order <= 6:
        raise ValueError("order must lie in [0, 6]")
    values = np.asarray(values, dtype=float)
    if len(A) not in (0, values.shape[1]):
        raise ValueError("path dimension must match the operator tuple")
    dW = np.diff(values, axis=0)
    n = dW.shape[0]
    m = (A[0] if len(A) else B).shape[0]
    dF = np.zeros((n, m, m), dtype=complex)
    for j, Aj in enumerate(A):
        dF += -1j * dW[:, j, None, None] * Aj
    if B is not None:
        dF -= dt * B

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


def generator_probe(family, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference estimate of -dF/dt at 0 (candidate generator)."""
    Fp = as_operator(family.evaluator(step))
    Fm = as_operator(family.evaluator(-step))
    return -(Fp - Fm) / (2 * step)


def ordering_mismatch_demo(sym_values: np.ndarray, grid, alpha_sym: float,
                           alpha_quant: float) -> np.ndarray:
    """Operator gap from quantizing a classical symbol at the wrong alpha.

    Returns {S}_alpha_quant - {S}_alpha_sym. For symbols with a p g(q) cross
    term the gap realizes the ordering ambiguity i (alpha_q - alpha_s) g'(q)
    in the weak sense (interior, smooth test vectors); symbols depending on p
    alone or q alone give a zero gap.
    """
    mismatched = alpha_quantize(Symbol(grid, sym_values, alpha_quant))
    matched = alpha_quantize(Symbol(grid, sym_values, alpha_sym))
    return mismatched - matched


def dense_alpha_symbol(H: np.ndarray, grid, alpha: float) -> np.ndarray:
    """alpha-symbol values with the sum over offsets as a dense DFT matrix."""
    H = as_operator(H)
    ms = grid.k_indices
    diagonals = H[_offset_diagonals(grid.n_points, ms)]
    centered = _fractional_shift(diagonals, (1 - alpha) * ms, grid.k_indices)
    W = np.exp(1j * np.outer(grid.p, grid.dq * ms))
    return W @ centered


def dense_alpha_quantize(values: np.ndarray, grid, alpha: float) -> np.ndarray:
    """alpha-quantization with the sum over momenta as a dense DFT matrix."""
    n = grid.n_points
    ms = grid.k_indices
    W = np.exp(-1j * np.outer(grid.dq * ms, grid.p))
    centered = (W @ np.asarray(values, dtype=complex)) / n
    diagonals = _fractional_shift(centered, -(1 - alpha) * ms, grid.k_indices)
    H = np.empty((n, n), dtype=complex)
    H[_offset_diagonals(n, ms)] = diagonals
    return H


def dense_spectral_operator(grid, f) -> np.ndarray:
    """f(p-hat) as F diag(f(p)) E / N with both DFT matrices formed."""
    E = np.exp(-1j * np.outer(grid.p, grid.q))
    F = np.exp(1j * np.outer(grid.q, grid.p))
    return (F * np.asarray(f(grid.p))[None, :]) @ E / grid.n_points


def standard_symbol_target(grid: PeriodicGrid, a: Callable | None,
                           div_a: Callable | None, v: Callable | None,
                           alpha: float) -> Symbol:
    """Closed-form alpha-symbol of the symmetrized magnetic Hamiltonian.

    (p - a(q))^2 / 2 + i (alpha - 1/2) a'(q) + v(q): the only ordering
    correction is first order because the operator is quadratic in p-hat.
    """
    q = grid.q
    p = grid.p
    av = np.asarray(a(q), dtype=float) if a is not None else np.zeros_like(q)
    vv = np.asarray(v(q), dtype=float) if v is not None else np.zeros_like(q)
    dav = np.asarray(div_a(q), dtype=float) if div_a is not None \
        else np.zeros_like(q)
    values = (0.5 * (p[:, None] - av[None, :]) ** 2
              + vv[None, :]
              + 1j * (alpha - 0.5) * dav[None, :])
    return Symbol(grid, values, alpha)
