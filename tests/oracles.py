"""Independent reference computations used by the test suite.

Everything here is deliberately implemented with different algorithms than
the package: Taylor-series matrix exponentials, truncated Dyson series,
dense-grid quadrature, finite-difference eigensolvers and generator probes,
error-function integrals, a leak mask from every coordinate of every Kato
node, step-by-step ordered products, a chunk's increments as one whole
time-major draw with its free paths and forward bridges built whole,
whole-path Feynman-Kac functionals, stochastic sums, characteristic
functionals and node moments, and the
phase-space transforms with their Fourier sums as dense N x N DFT
matrices and each diagonal's whole shift (1 - alpha) m in one N x N phase,
not split into a roll and a fraction.
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
from fklab.phasespace import (PeriodicGrid, Symbol, alpha_quantize,
                              momentum_operator, multiplication_operator)


def whole_increments(grid, d: int, n_paths: int,
                     gen: np.random.Generator) -> np.ndarray:
    """A chunk's increments as one time-major (n, n_paths, d) draw from
    ``gen``, scaled by sqrt(dt), transposed to (n_paths, n, d)."""
    dw = gen.standard_normal((grid.n_steps, n_paths, d)) * np.sqrt(grid.dt)
    return np.swapaxes(dw, 0, 1)


def whole_free_paths(dw: np.ndarray, start=0.0) -> np.ndarray:
    """Free paths (P, n+1, d) from ``start`` q, a (d,) vector or (P, d)
    rows, of whole increments (P, n, d): the cumsum of q and the
    increments."""
    q = np.broadcast_to(start, (dw.shape[0], dw.shape[2]))[:, None]
    return np.cumsum(np.concatenate([q, dw], axis=1), axis=1)


def whole_bridges(grid, dw: np.ndarray, start, endpoint) -> np.ndarray:
    """Brownian bridges (P, n+1, d) from ``start`` q to ``endpoint`` q' at
    t, built forward on whole increments (P, n, d): with tau_k = (n - k)
    dt, Y_0 = (q - q')/t, Y_(k+1) = Y_k + dw_k / sqrt(tau_k tau_(k+1)) for
    k + 1 < n, X_k = q' + tau_k Y_k, and X_0 = q, X_n = q' exactly."""
    n = grid.n_steps
    rows = (dw.shape[0], dw.shape[2])
    q, e = (np.broadcast_to(np.asarray(x, dtype=float), rows)
            for x in (start, endpoint))
    tau = (n - np.arange(n + 1)) * grid.dt
    steps = dw[:, :n - 1] / np.sqrt(tau[:n - 1] * tau[1:n])[:, None]
    Y = np.cumsum(np.concatenate([((q - e) / grid.t_end)[:, None], steps],
                                 axis=1), axis=1)
    X = np.empty((dw.shape[0], n + 1, dw.shape[2]))
    X[:, :n] = e[:, None] + tau[:n, None] * Y
    X[:, 0], X[:, n] = q, e
    return X


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


def full_leak_mask(probes: np.ndarray, offsets: np.ndarray,
                   halfwidth: float) -> np.ndarray:
    """(probe, node) mask of the tensor nodes probe + offsets^d outside
    [-halfwidth, halfwidth]^d, from every coordinate of every point."""
    d = probes.shape[1]
    grids = np.meshgrid(*([offsets] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    pts = probes[:, None, :] + nodes[None, :, :]
    return np.any(np.abs(pts) > halfwidth, axis=-1)


def scaled_expm2(M: np.ndarray) -> np.ndarray:
    """The 2x2 closed form of ``expm_batch`` with its exp(tr/2) scale always
    applied, operation for operation, on a stack (..., 2, 2)."""
    m00, m01, m10, m11 = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
    tr2 = 0.5 * (m00 + m11)
    a = m00 - tr2
    delta = np.sqrt(a * a + m01 * m10 + 0j)
    small = np.abs(delta) < 1e-6
    dsafe = np.where(small, 1.0, delta)
    sinhc = np.where(small, 1.0 + delta * delta / 6.0, np.sinh(dsafe) / dsafe)
    cosh, scale = np.cosh(delta), np.exp(tr2)
    out = np.empty(M.shape, dtype=complex)
    out[..., 0, 0] = (cosh + sinhc * a) * scale
    out[..., 0, 1] = (sinhc * m01) * scale
    out[..., 1, 0] = (sinhc * m10) * scale
    out[..., 1, 1] = (cosh - sinhc * a) * scale
    return out


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
    """FK path functionals on whole paths (P, n+1, d), one column each.

    The full-path form of the chunk function of
    ``fkschrodinger._path_functionals``: the trapezoid sum of v over all
    n+1 rows as one matrix-vector product, the Stratonovich sums from the
    whole increment and midpoint arrays, and ``weight`` of the last row.
    Returns (columns (P, k), finite mask).
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


def _trapezoid(grid) -> np.ndarray:
    weights = np.full(grid.n_steps + 1, grid.dt)
    weights[[0, -1]] /= 2
    return weights


def full_alpha_sum(grid, w: np.ndarray, g, alpha: float) -> np.ndarray:
    """Alpha-point sums on whole paths w (P, n+1, d): the field at the
    alpha-points of every step at once, dotted with the position steps."""
    times = grid.times()
    x = alpha * w[:, 1:, :] + (1 - alpha) * w[:, :-1, :]
    s = alpha * times[1:] + (1 - alpha) * times[:-1]
    gv = np.asarray(g(x, np.broadcast_to(s[None, :], x.shape[:2])))
    return np.einsum("pkd,pkd->p", gv, np.diff(w, axis=1))


def full_time_integral(grid, w: np.ndarray, u) -> np.ndarray:
    """Trapezoid sum of u(w(s), s) over all n+1 rows of whole paths."""
    times = np.broadcast_to(grid.times()[None, :], w.shape[:2])
    return np.asarray(u(w, times)) @ _trapezoid(grid)


def full_char_samples(grid, w: np.ndarray, f) -> np.ndarray:
    """Per-path exp(-i trapz(w(s) . f(s) ds)) on whole paths (P, n+1, d)."""
    fv = np.asarray(f.evaluator(grid.times()))
    return np.exp(-1j * np.einsum("pkd,kd,k->p", w, fv, _trapezoid(grid)))


def full_white_noise_samples(grid, w: np.ndarray, f) -> np.ndarray:
    """Per-path exp(-i sum_k f(mid_k) . (w_(k+1) - w_k)) on whole paths."""
    times = grid.times()
    fv = np.asarray(f.evaluator(0.5 * (times[1:] + times[:-1])))
    return np.exp(-1j * np.einsum("pkd,kd->p", np.diff(w, axis=1), fv))


def full_covariance_chunk(grid, d: int, idx):
    """Chunk function of ``wiener.estimate_covariance`` that builds whole
    paths and indexes its nodes out of them.

    The samples are returned row-major: numpy may lay a fancy-indexed
    small chunk out column-major, and the chunk sum, hence the estimate's
    rounding, follows the layout.
    """
    def func(gen, count):
        w = whole_free_paths(whole_increments(grid, d, count, gen))
        at = w[:, idx, :]
        second = np.einsum("paj,pbk->pabjk", at, at).reshape(count, -1)
        return np.ascontiguousarray(
            np.concatenate([at.reshape(count, -1), second], axis=1))
    return func


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


def _fractional_shift(rows: np.ndarray, delta: np.ndarray,
                      kk: np.ndarray) -> np.ndarray:
    """Band-limited resampling of each row from sites j + delta[i] to sites
    j, with the whole shift delta in one N x N phase exp(-2 pi i delta k / N)
    over the centred frequencies kk."""
    n = rows.shape[-1]
    phase = np.exp(-2j * np.pi * np.multiply.outer(delta, kk) / n)
    spectra = np.fft.fftshift(np.fft.fft(rows, axis=-1), axes=-1) * phase
    return np.fft.ifft(np.fft.ifftshift(spectra, axes=-1), axis=-1)


def _offset_diagonals(n: int, ms: np.ndarray) -> tuple:
    """Index arrays whose entry [i, j] addresses H[j, (j + ms[i]) % n]."""
    j = np.arange(n)[None, :]
    return j, (j + ms[:, None]) % n


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


def dense_standard_hamiltonian(grid: PeriodicGrid, a: Callable | None,
                               v: Callable | None) -> np.ndarray:
    """(p-hat - a(q-hat))^2 / 2 + v with the N x N product formed."""
    P = momentum_operator(grid)
    if a is not None:
        P = P - multiplication_operator(grid, a)
    H = 0.5 * (P @ P)
    if v is not None:
        H = H + multiplication_operator(grid, v)
    return H


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
