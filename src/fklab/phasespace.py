"""Alpha-ordered phase-space calculus on a periodic one-dimensional lattice.

An operator H on the N-point position lattice is mapped to its alpha-symbol
H_alpha(p_k, q_j) and back. The forward transform reads, per fixed bra-ket
offset x, the kernel element <q - (1-alpha) x | H | q + alpha x>: the element
H[j, j+m] sits at center q_j + (1-alpha) m dq, so each fixed-offset diagonal
is resampled onto the integer lattice by a band-limited fractional shift
before the Fourier sum over x. The inverse reverses both steps exactly, so
quantize(symbol(H)) = H to machine precision for every alpha in [0, 1].

alpha = 0, 1/2, 1 give anti-standard, Weyl-Wigner, and standard ordering.
Matrix elements are related to continuum kernels by K(q_j, q_k) = H[j, k]/dq;
with that identification the discrete transforms are the lattice truncations
of H_alpha(p, q) = int dx e^{ipx} K(q - (1-alpha) x, q + alpha x) and of the
inverse (1/L) sum_k e^{ip_k (q - q')} H(p_k, alpha q + (1-alpha) q').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mc import ordered_map
from .opalg import ApproximantFamily, as_operator, expm


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


def _fractional_shift(rows: np.ndarray, delta: np.ndarray,
                      kk: np.ndarray) -> np.ndarray:
    """Band-limited resampling of each row from sites j + delta[i] to sites j."""
    n = rows.shape[-1]
    phase = np.exp(-2j * np.pi * np.multiply.outer(delta, kk) / n)
    spectra = np.fft.fftshift(np.fft.fft(rows, axis=-1), axes=-1) * phase
    return np.fft.ifft(np.fft.ifftshift(spectra, axes=-1), axis=-1)


def alpha_symbol(H: np.ndarray, grid: PeriodicGrid, alpha: float) -> Symbol:
    """Forward transform of an operator matrix to its alpha-symbol.

    Diagonal H gives the position-only symbol v(q) exactly for every alpha;
    Hermitian H gives a real symbol at alpha = 1/2 when H is band-limited
    away from the Nyquist edge.
    """
    H = as_operator(H)
    n = grid.n_points
    if H.shape[0] != n:
        raise ValueError("operator dimension must match the grid")
    ms = grid.k_indices  # offsets x = m dq, centered
    j = np.arange(n)
    diagonals = np.stack([H[j, (j + m) % n] for m in ms])
    centered = _fractional_shift(diagonals, (1 - alpha) * ms, grid.k_indices)
    W = np.exp(1j * np.outer(grid.p, grid.dq * ms))
    return Symbol(grid, W @ centered, alpha)


def alpha_quantize(sym: Symbol) -> np.ndarray:
    """Inverse transform; exact inverse of :func:`alpha_symbol` at the same alpha."""
    grid = sym.grid
    n = grid.n_points
    ms = grid.k_indices
    W = np.exp(-1j * np.outer(grid.dq * ms, grid.p))
    centered = (W @ sym.values) / n
    diagonals = _fractional_shift(centered, -(1 - sym.alpha) * ms,
                                  grid.k_indices)
    H = np.zeros((n, n), dtype=complex)
    j = np.arange(n)
    for mi, m in enumerate(ms):
        H[j, (j + m) % n] = diagonals[mi]
    return H


# ---------------------------------------------------------------------------
# lattice operators


def spectral_operator(grid: PeriodicGrid, f: Callable[[np.ndarray], np.ndarray]
                      ) -> np.ndarray:
    """f(p-hat) via the discrete Fourier diagonalization."""
    E = np.exp(-1j * np.outer(grid.p, grid.q))
    F = np.exp(1j * np.outer(grid.q, grid.p))
    return (F * np.asarray(f(grid.p))[None, :]) @ E / grid.n_points


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
    """Symmetrized magnetic Schroedinger operator (p-hat - a(q-hat))^2 / 2 + v."""
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


def wraparound_leak(H: np.ndarray, grid: PeriodicGrid) -> float:
    """Largest matrix element coupling sites more than a quarter period apart.

    A compactly supported operator reaches such separations only through the
    periodic wraparound, so this bounds the error of using L as a stand-in
    for the whole line.
    """
    H = as_operator(H)
    n = grid.n_points
    j = np.arange(n)
    sep = np.abs(j[:, None] - j[None, :])
    sep = np.minimum(sep, n - sep)
    far = sep > n // 4
    return float(np.abs(H[far]).max()) if far.any() else 0.0


# ---------------------------------------------------------------------------
# short-time approximant and Trotter reconstruction


def short_time_R(H: np.ndarray, grid: PeriodicGrid, alpha: float,
                 t: float) -> np.ndarray:
    """Quantization of the pointwise exponential of the alpha-symbol.

    The scalar exponential is applied entrywise to H_alpha(p, q), complex
    values included, and then quantized at the same alpha; R(0) is the
    identity and -dR/dt at 0 recovers H.
    """
    sym = alpha_symbol(H, grid, alpha)
    return alpha_quantize(Symbol(grid, np.exp(-t * sym.values), alpha))


def short_time_family(H: np.ndarray, grid: PeriodicGrid,
                      alpha: float) -> ApproximantFamily:
    """Approximant family t -> R_alpha(t) for the Lie-Trotter engine."""
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
    sym = alpha_symbol(H, grid, alpha)

    def one(n: int) -> tuple[int, float]:
        if n < 1:
            raise ValueError("n must be positive")
        step = alpha_quantize(Symbol(grid, np.exp(-(t / n) * sym.values), alpha))
        err = np.linalg.matrix_power(step, n) - target
        return n, float(np.linalg.norm(err))

    return ordered_map(one, n_list, workers)


def ordering_mismatch_demo(sym_values: np.ndarray, grid: PeriodicGrid,
                           alpha_sym: float, alpha_quant: float) -> np.ndarray:
    """Operator gap from quantizing a classical symbol at the wrong alpha.

    Returns {S}_alpha_quant - {S}_alpha_sym. For symbols with a p g(q) cross
    term the gap realizes the ordering ambiguity i (alpha_q - alpha_s) g'(q)
    in the weak sense (interior, smooth test vectors); symbols depending on p
    alone or q alone give a zero gap.
    """
    mismatched = alpha_quantize(Symbol(grid, sym_values, alpha_quant))
    matched = alpha_quantize(Symbol(grid, sym_values, alpha_sym))
    return mismatched - matched


# ---------------------------------------------------------------------------
# CSV export


def symbol_to_csv(sym: Symbol, path: str) -> None:
    """Row-major CSV with interleaved re/im columns and a grid header."""
    _matrix_to_csv(sym.values, sym.grid, sym.alpha, path)


def operator_to_csv(H: np.ndarray, grid: PeriodicGrid, path: str,
                    alpha: float = float("nan")) -> None:
    _matrix_to_csv(as_operator(H), grid, alpha, path)


def _matrix_to_csv(values: np.ndarray, grid: PeriodicGrid, alpha: float,
                   path: str) -> None:
    interleaved = np.empty((values.shape[0], 2 * values.shape[1]))
    interleaved[:, 0::2] = values.real
    interleaved[:, 1::2] = values.imag
    header = f"n_points={grid.n_points},length={grid.length!r},alpha={alpha!r}"
    np.savetxt(path, interleaved, delimiter=",", header=header, fmt="%.17g")
