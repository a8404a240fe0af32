"""Independent reference computations used by the test suite.

Everything here is deliberately implemented with different algorithms than
the package: Taylor-series matrix exponentials, dense-grid quadrature,
finite-difference eigensolvers, and error-function integrals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr


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
