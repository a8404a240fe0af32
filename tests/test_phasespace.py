"""Alpha-symbol / alpha-quantization calculus on the periodic lattice."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab.opalg import expm, trotter_product
from fklab.phasespace import (PeriodicGrid, Symbol, _offset_diagonals,
                              alpha_quantize, alpha_symbol, kinetic_operator,
                              momentum_operator, multiplication_operator,
                              short_time_family, spectral_operator,
                              standard_hamiltonian, trotter_reconstruct)
from fklab.streams import RngStream

from oracles import (dense_alpha_quantize, dense_alpha_symbol,
                     dense_spectral_operator, dense_standard_hamiltonian,
                     generator_probe, loglog_slope, ordering_mismatch_demo,
                     standard_symbol_target)

GRID = PeriodicGrid(32, 12.0)


def bernoulli4(x):
    # C^2 periodic quartic: fourth derivative is discontinuous, nothing lower
    return x**4 - 2 * x**3 + x**2 - 1.0 / 30.0


def smooth_fields(L):
    def a(q):
        return 30.0 * bernoulli4(np.mod(q / L + 0.5, 1.0))

    def da(q):
        u = np.mod(q / L + 0.5, 1.0)
        return 30.0 * (4 * u**3 - 6 * u**2 + 2 * u) / L

    def v(q):
        return 15.0 * bernoulli4(np.mod(q / L + 0.75, 1.0))

    return a, da, v


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(31, 10.0)
    with pytest.raises(ValueError):
        PeriodicGrid(32, 0.0)
    g = PeriodicGrid(8, 4.0)
    assert g.dq == 0.5
    assert g.q[0] == -2.0 and g.p[4] == 0.0


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol(GRID, np.zeros((3, 3)), 0.5)
    with pytest.raises(ValueError):
        Symbol(GRID, np.full((32, 32), np.nan), 0.5)
    with pytest.raises(ValueError):
        Symbol(GRID, np.zeros((32, 32)), 1.5)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1 / math.sqrt(2), 1.0])
def test_roundtrip_exact_all_alpha(alpha):
    gen = RngStream(40).generator()
    H = gen.standard_normal((32, 32)) + 1j * gen.standard_normal((32, 32))
    back = alpha_quantize(alpha_symbol(H, GRID, alpha))
    assert np.abs(back - H).max() <= 1e-10


@settings(derandomize=True, max_examples=60, deadline=None)
@given(half_n=st.integers(1, 32), log_length=st.floats(-1.0, 2.0),
       alpha=st.floats(0.0, 1.0), log_scale=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2**32 - 1))
def test_roundtrip_for_any_alpha_and_operator(half_n, log_length, alpha,
                                               log_scale, seed):
    # both directions: quantize(symbol(H)) = H and symbol(quantize(S)) = S;
    # the FFTs and the N x N phase matrices give errors near N eps |H|
    grid = PeriodicGrid(2 * half_n, 10.0**log_length)
    n = grid.n_points
    gen = RngStream(seed).generator()
    H = 10.0**log_scale * (gen.standard_normal((n, n))
                           + 1j * gen.standard_normal((n, n)))
    bound = 1e-14 * n * np.abs(H).max()
    back = alpha_quantize(alpha_symbol(H, grid, alpha))
    assert np.abs(back - H).max() <= bound
    again = alpha_symbol(alpha_quantize(Symbol(grid, H, alpha)), grid, alpha)
    assert np.abs(again.values - H).max() <= bound


@pytest.mark.parametrize("n", [2, 6, 16, 512])
def test_fft_transforms_match_dense_dft(n):
    # N = 6 is not a power of two; N = 512 is the benchmark lattice
    grid = PeriodicGrid(n, 7.0)
    gen = RngStream(50 + n).generator()
    H = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    bound = 1e-14 * n * np.abs(H).max()
    # 1, 4, 2, 4 and 1 distinct fractions; 1/3 and 0.3 (3 and 10 in exact
    # arithmetic) round to up to 70 at N = 512; against the whole shift in
    # one phase
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0, 1 / 3, 0.3):
        sym = alpha_symbol(H, grid, alpha).values
        assert np.abs(sym - dense_alpha_symbol(H, grid, alpha)).max() <= bound
        back = alpha_quantize(Symbol(grid, H, alpha))
        dense = dense_alpha_quantize(H, grid, alpha)
        assert np.abs(back - dense).max() <= bound
    for f in (lambda p: p, lambda p: p**2 / 2, lambda p: np.exp(-0.2 * p**2)):
        dense = dense_spectral_operator(grid, f)
        err = np.abs(spectral_operator(grid, f) - dense).max()
        assert err <= 1e-14 * n * np.abs(dense).max()


@settings(derandomize=True, max_examples=80, deadline=None)
@given(half_n=st.integers(1, 32), alpha=st.floats(0.0, 1.0))
def test_offset_index_is_a_permutation(half_n, alpha):
    # every entry of H is gathered once, so alpha_quantize's np.empty is
    # fully written; the fractions left to resample lie in [0, 1)
    n = 2 * half_n
    flat, frac = _offset_diagonals(PeriodicGrid(n, 3.0), alpha)
    assert flat.dtype == np.intp and flat.shape == (n, n)
    assert np.array_equal(np.sort(flat, axis=None), np.arange(n * n))
    assert frac.shape == (n,) and np.all((0.0 <= frac) & (frac < 1.0))


@pytest.mark.parametrize("alpha, moved, phase_rows",
                         [(0.0, 0, 0), (1.0, 0, 0), (0.5, 32, 1),
                          (0.25, 48, 3), (0.75, 48, 3)])
def test_only_fractional_rows_are_resampled(monkeypatch, alpha, moved,
                                            phase_rows):
    # integer shifts are rolls in the gather: alpha in {0, 1} runs no row
    # FFT, alpha = 1/2 resamples the N/2 odd offsets, 1/4 and 3/4 the 3N/4
    # offsets that are not multiples of 4, each with one phase row per
    # distinct fraction
    rows, phases = [], []

    def counted(fn):
        def wrapper(a, *args, axis=-1, **kwargs):
            if axis == -1:
                rows.append(a.shape[0])
            return fn(a, *args, axis=axis, **kwargs)
        return wrapper

    def exp(x, *args, **kwargs):
        if np.iscomplexobj(x) and np.ndim(x) == 2:
            phases.append(x.shape[0])
        return np_exp(x, *args, **kwargs)

    grid = PeriodicGrid(64, 8.0)
    H = standard_hamiltonian(grid, None, lambda q: 0.5 * q**2)
    np_exp = np.exp
    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
    monkeypatch.setattr(np, "exp", exp)
    sym = alpha_symbol(H, grid, alpha)
    assert rows == [moved] * 2 * (moved > 0)
    assert phases == [phase_rows] * (phase_rows > 0)
    alpha_quantize(sym)
    assert rows == [moved] * 4 * (moved > 0)
    assert phases == [phase_rows] * 2 * (phase_rows > 0)


def test_linearity_of_transform():
    gen = RngStream(41).generator()
    H1 = gen.standard_normal((32, 32)) + 1j * gen.standard_normal((32, 32))
    H2 = gen.standard_normal((32, 32)) + 1j * gen.standard_normal((32, 32))
    s1 = alpha_symbol(H1, GRID, 0.3).values
    s2 = alpha_symbol(H2, GRID, 0.3).values
    # power-of-two scalars commute exactly with the FFT pipeline
    assert np.array_equal(alpha_symbol(4.0 * H1, GRID, 0.3).values, 4.0 * s1)
    both = alpha_symbol(H1 + H2, GRID, 0.3).values
    assert np.abs(both - (s1 + s2)).max() <= 1e-12


def test_diagonal_operator_gives_position_symbol():
    v = np.cos(2 * math.pi * GRID.q / GRID.length)
    H = np.diag(v.astype(complex))
    for alpha in (0.0, 0.5, 1.0):
        sym = alpha_symbol(H, GRID, alpha)
        assert np.abs(sym.values - v[None, :]).max() <= 1e-12


def test_kinetic_symbol_is_half_p_squared():
    sym = alpha_symbol(kinetic_operator(GRID), GRID, 0.5)
    target = 0.5 * GRID.p[:, None] ** 2 * np.ones((1, 32))
    assert np.abs(sym.values - target).max() <= 1e-8


def test_momentum_operator_is_hermitian():
    P = momentum_operator(GRID)
    assert np.abs(P - P.conj().T).max() <= 1e-12


def test_weyl_symbol_of_hermitian_operator_is_real():
    v = np.exp(np.cos(2 * math.pi * GRID.q / GRID.length))
    H = kinetic_operator(GRID) + multiplication_operator(GRID, lambda q: v)
    sym = alpha_symbol(H, GRID, 0.5)
    assert np.abs(sym.values.imag).max() <= 1e-10


@pytest.mark.parametrize("with_a", [False, True])
def test_standard_hamiltonian_matches_dense_product(with_a):
    # p a and a p as column and row scalings against (P - A) @ (P - A)
    for grid in (GRID, PeriodicGrid(256, 16.0)):
        a, _, v = smooth_fields(grid.length)
        a = a if with_a else None
        ref = dense_standard_hamiltonian(grid, a, v)
        err = np.abs(standard_hamiltonian(grid, a, v) - ref).max()
        assert err <= 1e-12 * np.abs(ref).max()


def test_standard_symbol_imaginary_part():
    # the alpha-dependence of the symbol is i (alpha - 1/2) a'(q)
    a, da, v = smooth_fields(GRID.length)
    H = standard_hamiltonian(GRID, a, v)
    for alpha in (0.0, 1.0):
        sym = alpha_symbol(H, GRID, alpha)
        target = (alpha - 0.5) * da(GRID.q)
        window = np.abs(GRID.p) <= 2.0
        err = np.abs(sym.values[window].imag - target[None, :])
        assert err.max() <= 0.05 * (1 + np.abs(target).max())


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_standard_symbol_grid_convergence(alpha):
    # fixed momentum window |p| <= 4; C^2 fields give order >= 1.7
    errs = []
    for n in (32, 64, 128):
        grid = PeriodicGrid(n, 12.0)
        a, da, v = smooth_fields(grid.length)
        H = standard_hamiltonian(grid, a, v)
        sym = alpha_symbol(H, grid, alpha)
        target = standard_symbol_target(grid, a, da, v, alpha)
        window = np.abs(grid.p) <= 4.0
        errs.append(np.abs(sym.values[window] - target.values[window]).max())
    slope = loglog_slope([32, 64, 128], errs)
    assert slope <= -1.7, f"order {-slope} too low: errors {errs}"


def test_quantize_position_symbol_is_diagonal():
    v = np.sin(2 * math.pi * GRID.q / GRID.length)
    sym = Symbol(GRID, np.broadcast_to(v, (32, 32)).copy(), 0.25)
    H = alpha_quantize(sym)
    assert np.abs(H - np.diag(v)).max() <= 1e-12


def test_cross_term_quantization_matches_symmetrization():
    # {p g(q)}_alpha = (g p-hat + p-hat g)/2 + i (alpha - 1/2) g'(q), checked
    # weakly on an interior Gaussian where wraparound is negligible
    g = 2.0 + np.cos(2 * math.pi * GRID.q / GRID.length)
    dg = (-2 * math.pi / GRID.length) * np.sin(
        2 * math.pi * GRID.q / GRID.length)
    P = momentum_operator(GRID)
    G = np.diag(g.astype(complex))
    psi = np.exp(-GRID.q ** 2).astype(complex)
    for alpha in (0.0, 1.0):
        sym = Symbol(GRID, GRID.p[:, None] * g[None, :], alpha)
        Q = alpha_quantize(sym)
        ref = 0.5 * (G @ P + P @ G) + 1j * (alpha - 0.5) * np.diag(dg)
        gap = (Q - ref) @ psi
        assert np.abs(gap).max() <= 1e-6 * np.abs(ref @ psi).max()


def test_cross_term_half_alpha_gap_decays():
    # at alpha = 1/2 the half-site resampling leaves an O(dq) Nyquist
    # artifact; within a fixed momentum window it decays first order
    errs = []
    for n in (32, 64, 128):
        grid = PeriodicGrid(n, 12.0)
        g = 2.0 + np.cos(2 * math.pi * grid.q / grid.length)
        P = momentum_operator(grid)
        G = np.diag(g.astype(complex))
        proj = spectral_operator(grid,
                                 lambda p: (np.abs(p) <= 4.0).astype(float))
        Q = alpha_quantize(Symbol(grid, grid.p[:, None] * g[None, :], 0.5))
        gap = proj @ (Q - 0.5 * (G @ P + P @ G)) @ proj
        errs.append(np.abs(gap).max())
    slope = loglog_slope([32, 64, 128], errs)
    assert slope <= -0.9, f"decay order {-slope} too low: {errs}"


def test_ordering_mismatch_p_only_and_q_only():
    sp = np.broadcast_to(GRID.p[:, None], (32, 32)).copy()
    sq = np.broadcast_to(np.cos(GRID.q)[None, :], (32, 32)).copy()
    assert np.abs(ordering_mismatch_demo(sp, GRID, 0.0, 1.0)).max() <= 1e-10
    assert np.abs(ordering_mismatch_demo(sq, GRID, 0.0, 1.0)).max() <= 1e-10


def test_ordering_mismatch_cross_term():
    # symbol p q: standard vs anti-standard quantization differ by i * identity
    sym = GRID.p[:, None] * GRID.q[None, :]
    gap = ordering_mismatch_demo(sym, GRID, 0.0, 1.0)
    psi = np.exp(-GRID.q ** 2).astype(complex)
    acted = gap @ psi
    assert np.abs(acted - 1j * psi).max() <= 1e-6
    same = ordering_mismatch_demo(sym, GRID, 0.5, 0.5)
    assert np.abs(same).max() <= 1e-10


def test_short_time_identity_and_generator():
    a, da, v = smooth_fields(GRID.length)
    H = standard_hamiltonian(GRID, a, v)
    R0 = short_time_family(H, GRID, 0.5).evaluator(0.0)
    assert np.abs(R0 - np.eye(32)).max() <= 1e-10
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        fam = short_time_family(H, GRID, alpha)
        probe = generator_probe(fam, step=1e-6)
        assert np.abs(probe - H).max() <= 1e-5 * (1 + np.abs(H).max())


def test_short_time_exact_for_diagonal_operator():
    v = np.cos(2 * math.pi * GRID.q / GRID.length)
    H = np.diag(v.astype(complex))
    R = short_time_family(H, GRID, 0.7).evaluator(0.9)
    assert np.abs(R - np.diag(np.exp(-0.9 * v))).max() <= 1e-10


def test_short_time_exact_for_free_laplacian():
    H = kinetic_operator(GRID)
    R = short_time_family(H, GRID, 0.5).evaluator(0.4)
    exact = spectral_operator(GRID, lambda p: np.exp(-0.4 * 0.5 * p**2))
    assert np.abs(R - exact).max() <= 1e-8


def test_trotter_reconstruct_first_order():
    a, da, v = smooth_fields(GRID.length)
    H = standard_hamiltonian(GRID, a, v)
    target = expm(-0.5 * H)
    for alpha in (0.0, 0.5, 1.0):
        pairs = trotter_reconstruct(H, GRID, alpha, 0.5,
                                    [8, 16, 32, 64, 128], workers=2)
        ns = [n for n, _ in pairs]
        errs = [e for _, e in pairs]
        assert errs[-1] < errs[0]
        slope = loglog_slope(ns[-3:], errs[-3:])
        assert -1.4 <= slope <= -0.6, f"alpha={alpha}: slope {slope}"
        # common limit: the finest product is close to expm(-tH)
        fine = trotter_product(short_time_family(H, GRID, alpha), 0.5, 512)
        assert np.linalg.norm(fine - target) <= 0.02 * np.linalg.norm(target)


def test_trotter_reconstruct_exact_for_diagonal():
    v = np.cos(2 * math.pi * GRID.q / GRID.length)
    H = np.diag(v.astype(complex))
    pairs = trotter_reconstruct(H, GRID, 0.3, 1.0, [1, 4])
    assert all(err <= 1e-10 for _, err in pairs)


def test_trotter_reconstruct_rejects_negative_time():
    # exp(+H) has no Trotter limit to check; trotter_product rejects t < 0 too
    H = standard_hamiltonian(GRID, None, lambda q: 0.5 * q**2)
    with pytest.raises(ValueError, match="non-negative"):
        trotter_reconstruct(H, GRID, 0.5, -1.0, [4])
