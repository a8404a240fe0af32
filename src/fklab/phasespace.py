"""Alpha-ordered phase-space calculus on a periodic one-dimensional lattice.

An operator H on the N-point position lattice is mapped to its alpha-symbol
H_alpha(p_k, q_j) and back. The forward transform reads, per fixed bra-ket
offset x, the kernel element <q - (1-alpha) x | H | q + alpha x>: the element
H[j, j+m] sits at center q_j + (1-alpha) m dq, so each fixed-offset diagonal
is shifted by (1-alpha) m sites onto the integer lattice before the Fourier
sum over x. The integer part of that shift is an exact cyclic roll, folded
into the index that gathers the diagonals; only the fraction in [0, 1) is
resampled band-limited, with one phase row per distinct fraction, so each
phase argument is at most pi. alpha in {0, 1} resamples no diagonal and
alpha = 1/2 the odd ones. The inverse reverses both steps exactly, so
quantize(symbol(H)) = H to machine precision for every alpha in [0, 1].
The Fourier sum over x and its inverse over p_k are centred FFTs along
axis 0 (``norm="forward"`` puts the 1/N on the inverse); the gather puts
the offsets in FFT order, so no N x N DFT matrix or phase is formed.

alpha = 0, 1/2, 1 give anti-standard, Weyl-Wigner, and standard ordering.
Matrix elements are related to continuum kernels by K(q_j, q_k) = H[j, k]/dq;
with that identification the discrete transforms are the lattice truncations
of H_alpha(p, q) = int dx e^{ipx} K(q - (1-alpha) x, q + alpha x) and of the
inverse (1/L) sum_k e^{ip_k (q - q')} H(p_k, alpha q + (1-alpha) q').

The Lie-Trotter reconstruction has one short-time step, the quantized
pointwise exponential of :func:`short_time_family`, and one matrix power,
:func:`fklab.opalg.trotter_product`. The ordering-mismatch demo and the
closed-form symbol of the standard Hamiltonian, which the tests compare
with, live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mc import ordered_map
from .opalg import ApproximantFamily, as_operator, expm, trotter_product


@dataclass(frozen=True)
class PeriodicGrid:
    """Position lattice q_j = -L/2 + j dq and momenta p_k = 2 pi k / L."""

    n_points: int
    length: float

    def __post_init__(self) -> None:
        if self.n_points < 2 or self.n_points % 2:
            raise ValueError("n_points must be even and at least 2")
        if not self.length > 0:
            raise ValueError("length must be positive")

    @property
    def dq(self) -> float:
        return self.length / self.n_points

    @property
    def q(self) -> np.ndarray:
        return -self.length / 2 + self.dq * np.arange(self.n_points)

    @property
    def k_indices(self) -> np.ndarray:
        return np.arange(-self.n_points // 2, self.n_points // 2)

    @property
    def p(self) -> np.ndarray:
        return 2 * math.pi * self.k_indices / self.length


@dataclass(frozen=True)
class Symbol:
    """Phase-space samples indexed (momentum index, position index)."""

    grid: PeriodicGrid
    values: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        n = self.grid.n_points
        if v.shape != (n, n):
            raise ValueError("symbol values must be N x N")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("symbol values must be finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        object.__setattr__(self, "values", v)


def _offset_diagonals(grid: PeriodicGrid, alpha: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Flat index into H.ravel() of the fixed-offset diagonals, and their
    fractional shifts.

    Row i holds the offset m = ms[i], with ms the offsets in FFT order, and
    entry [i, j] addresses H[j - s, j - s + m] (mod N): the diagonal m,
    rolled by the integer part s = floor((1 - alpha) m) of its shift. The
    fraction (1 - alpha) m - s in [0, 1) is what is left to resample. Each
    entry of H is addressed exactly once.
    """
    n = grid.n_points
    ms = np.fft.ifftshift(grid.k_indices)
    delta = (1 - alpha) * ms
    shift = np.floor(delta)
    # ring[c] is arange(N) rolled to start at c - N; both starts below lie
    # in [N/2, 3N/2] because |s| and |m - s| are at most N/2
    ring = np.lib.stride_tricks.sliding_window_view(
        np.tile(np.arange(n), 3), n)
    starts = n - shift.astype(np.intp)
    return ring[starts] * n + ring[starts + ms], delta - shift


def _fractional_shift(rows: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """Band-limited resampling, in place, of row i from sites j + frac[i] to
    sites j.

    Only the rows with frac != 0 are transformed, and one phase row
    exp(-2 pi i f k / N), k in FFT order, serves every row with the same
    fraction f, so |frac| < 1 bounds each phase argument by pi.
    """
    n = rows.shape[-1]
    moved = np.flatnonzero(frac)
    if moved.size == 0:
        return rows
    moved = moved[np.argsort(frac[moved], kind="stable")]
    fracs, starts = np.unique(frac[moved], return_index=True)
    k = np.fft.ifftshift(np.arange(-(n // 2), n // 2))
    phases = np.exp(-2j * np.pi * np.multiply.outer(fracs, k) / n)
    spectra = np.fft.fft(rows[moved], axis=-1)
    for phase, a, b in zip(phases, starts, [*starts[1:], moved.size]):
        spectra[a:b] *= phase
    rows[moved] = np.fft.ifft(spectra, axis=-1)
    return rows


def alpha_symbol(H: np.ndarray, grid: PeriodicGrid, alpha: float) -> Symbol:
    """Forward transform of an operator matrix to its alpha-symbol.

    Diagonal H gives the position-only symbol v(q) exactly for every alpha;
    Hermitian H gives a real symbol at alpha = 1/2 when H is band-limited
    away from the Nyquist edge.
    """
    H = as_operator(H)
    if H.shape[0] != grid.n_points:
        raise ValueError("operator dimension must match the grid")
    flat, frac = _offset_diagonals(grid, alpha)
    rows = _fractional_shift(np.take(H, flat), frac)
    values = np.fft.ifft(rows, axis=0, norm="forward")
    return Symbol(grid, np.fft.fftshift(values, axes=0), alpha)


def alpha_quantize(sym: Symbol) -> np.ndarray:
    """Inverse transform; exact inverse of :func:`alpha_symbol` at the same alpha."""
    n = sym.grid.n_points
    flat, frac = _offset_diagonals(sym.grid, sym.alpha)
    rows = np.fft.fft(np.fft.ifftshift(sym.values, axes=0), axis=0,
                      norm="forward")
    H = np.empty(n * n, dtype=complex)
    H[flat] = _fractional_shift(rows, -frac)  # every entry exactly once
    return H.reshape(n, n)


# ---------------------------------------------------------------------------
# lattice operators


def spectral_operator(grid: PeriodicGrid, f: Callable[[np.ndarray], np.ndarray]
                      ) -> np.ndarray:
    """f(p-hat), circulant on the lattice: entry [j, l] is c[(j - l) % N],
    c the inverse FFT of f(p_k); no N x N DFT matrix is formed."""
    c = np.fft.ifft(np.fft.ifftshift(np.asarray(f(grid.p), dtype=complex)))
    j = np.arange(grid.n_points)
    return c[(j[:, None] - j) % grid.n_points]


def momentum_operator(grid: PeriodicGrid) -> np.ndarray:
    return spectral_operator(grid, lambda p: p)


def kinetic_operator(grid: PeriodicGrid) -> np.ndarray:
    """Free Laplacian -d^2/2dq^2 with spectrum p_k^2 / 2."""
    return spectral_operator(grid, lambda p: 0.5 * p**2)


def multiplication_operator(grid: PeriodicGrid,
                            v: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    return np.diag(np.asarray(v(grid.q), dtype=complex))


def standard_hamiltonian(grid: PeriodicGrid, a: Callable | None,
                         v: Callable | None) -> np.ndarray:
    """Symmetrized magnetic Schroedinger operator (p-hat - a(q-hat))^2 / 2 + v,
    as p^2/2 - (p a + a p)/2 + a^2/2 + v: p a and a p scale the columns and
    the rows of p-hat, so no N x N product is formed."""
    H = kinetic_operator(grid)
    if a is not None:
        P, aq = momentum_operator(grid), np.asarray(a(grid.q), dtype=complex)
        H += np.diag(0.5 * aq * aq) - 0.5 * (P * aq + aq[:, None] * P)
    if v is not None:
        H = H + multiplication_operator(grid, v)
    return H


# ---------------------------------------------------------------------------
# short-time approximant and Trotter reconstruction


def short_time_family(H: np.ndarray, grid: PeriodicGrid,
                      alpha: float) -> ApproximantFamily:
    """Approximant family t -> R_alpha(t) for the Lie-Trotter engine.

    R_alpha(t) applies the scalar exponential entrywise to H_alpha(p, q),
    complex values included, and quantizes the result at the same alpha;
    R(0) is the identity and -dR/dt at 0 recovers H.
    """
    sym = alpha_symbol(H, grid, alpha)

    def evaluator(t: float) -> np.ndarray:
        return alpha_quantize(Symbol(grid, np.exp(-t * sym.values), alpha))

    return ApproximantFamily(evaluator, grid.n_points)


def trotter_reconstruct(H: np.ndarray, grid: PeriodicGrid, alpha: float,
                        t: float, n_list: Sequence[int],
                        workers: int = 1) -> list[tuple[int, float]]:
    """Frobenius errors of [R_alpha(t/n)]^n against the exact semigroup.

    The error decays like 1/n for smooth symbols, with the same limit
    expm(-tH) for every alpha: the ordering multiplicity only shapes the
    approach.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    target = expm(-t * as_operator(H))
    family = short_time_family(H, grid, alpha)

    def one(n: int) -> tuple[int, float]:
        err = trotter_product(family, t, n) - target
        return n, float(np.linalg.norm(err))

    return ordered_map(one, n_list, workers)
