"""Dense operator algebra: exponentials, ordered products, Dyson series."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab.opalg import (_PADE, _THETA, ApproximantFamily, _expm3_batch,
                         _singular_span, _solve, as_operator,
                         as_operator_tuple, expm, expm_batch, gauss_legendre,
                         ordered_prefix, ordered_product_tree, stack_product,
                         step_factors, trotter_product)
from fklab.streams import RngStream
from fklab.wiener import TimeGrid

from oracles import (dyson_series, generator_probe, prefix_loop, scaled_expm2,
                     taylor_expm, whole_free_paths, whole_increments)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
JX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
JY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2)
JZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
I3 = np.eye(3)


def test_as_operator_validation():
    with pytest.raises(ValueError):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0], [0, 0]]))
    with pytest.raises(ValueError):
        as_operator_tuple([SX, np.eye(3)])
    assert as_operator(SX.T).dtype == complex  # non-contiguous input is fine


def test_expm_against_taylor_oracle():
    gen = RngStream(1).generator()
    for dim in (2, 3, 5):
        M = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        assert np.allclose(expm(M), taylor_expm(M), atol=1e-12)


def test_expm_overflow_guard():
    with pytest.raises(OverflowError):
        expm(1e4 * np.eye(2))


def test_expm_guard_raises_before_norm_overflow():
    # the Frobenius norm of 1e155 squares past the float range; the guard
    # must raise OverflowError without printing an overflow warning
    X = np.zeros((3, 3), dtype=complex)
    X[0, 0] = 1e155j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            expm(X)
        with pytest.raises(OverflowError):
            expm(np.full((2, 2), 1e300 + 1e300j))


def test_expm_batch_2x2_closed_form():
    gen = RngStream(2).generator()
    M = gen.standard_normal((50, 2, 2)) + 1j * gen.standard_normal((50, 2, 2))
    out = expm_batch(M)
    for i in range(50):
        assert np.allclose(out[i], taylor_expm(M[i]), atol=1e-12)


def test_expm_batch_2x2_small_delta_branch():
    # nilpotent generator: delta = 0 exercises the series branch
    N = np.array([[[0.0, 1e-9], [0.0, 0.0]]], dtype=complex)
    out = expm_batch(N)
    assert np.allclose(out[0], np.eye(2) + N[0], atol=1e-15)


def test_expm_batch_2x2_traceless_skips_scale_bit_exact():
    # every trace exactly zero: exp(0) = 1, so leaving the scale out keeps
    # every bit; one nonzero trace scales the whole stack as before
    gen = RngStream(24).generator()
    M = 0.3 * (gen.standard_normal((64, 2, 2))
               + 1j * gen.standard_normal((64, 2, 2)))
    M[..., 1, 1] = -M[..., 0, 0]
    M[0] = 0.0
    M[1] = [[0.0, 1e-9], [0.0, 0.0]]  # delta = 0: series branch
    out = np.ascontiguousarray(expm_batch(M))
    assert out.tobytes() == scaled_expm2(M).tobytes()
    # the Pauli step factors of the benchmark problems, zero steps included
    dW = 0.1 * gen.standard_normal((8, 16, 2))
    dW[0] = 0.0
    for A in ((SX,), (SX, SY), (SY, SZ)):
        F = np.ascontiguousarray(step_factors(dW[..., :len(A)], 0.01, A, None))
        ref = scaled_expm2(_generator(dW[..., :len(A)], 0.01, A, None))
        assert F.tobytes() == ref.tobytes()
    M[2, 1, 1] += 0.5
    out = np.ascontiguousarray(expm_batch(M))
    assert out.tobytes() == scaled_expm2(M).tobytes()


def test_expm_batch_pade_path():
    gen = RngStream(3).generator()
    M = gen.standard_normal((10, 4, 4)) + 1j * gen.standard_normal((10, 4, 4))
    out = expm_batch(3.0 * M)
    for i in range(10):
        assert np.allclose(out[i], taylor_expm(3.0 * M[i]), atol=1e-10)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 3, 4, 5]),
       log_norms=st.lists(st.floats(-8.0, 1.0), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_expm_batch_matches_taylor_across_norms(m, log_norms, seed):
    # a batch of random complex matrices with row-sum norms 1e-8 .. 10; for
    # m > 2 the batch shares one Pade scaling, set by its largest norm
    norms = 10.0 ** np.asarray(log_norms)
    gen = RngStream(seed).generator()
    shape = (len(norms), m, m)
    M = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    M *= (norms / np.abs(M).sum(axis=-1).max(axis=-1))[:, None, None]
    out = expm_batch(M)
    for k, norm in enumerate(norms):
        # |exp(M)| <= exp(|M|); the kernels reach 1e-15 of that bound
        err = np.abs(out[k] - taylor_expm(M[k])).max()
        assert err <= 2e-14 * math.exp(norm), (m, norm, err)


# Higham's theta_3, theta_5, theta_7, theta_9 and theta_13
PADE_THETAS = (1.495585217958292e-2, 2.539398330063230e-1,
               9.504178996162932e-1, 2.097847961257068, 5.371920351148152)


@pytest.mark.parametrize("m", [3, 4])
def test_expm_batch_pade_degree_boundaries(m):
    # largest norm just inside and just past each low degree's theta, and
    # 2 theta_13 on the scaled Pade-13 path
    gen = RngStream(70 + m).generator()
    tops = [theta * f for theta in PADE_THETAS[:4] for f in (0.999, 1.001)]
    for top in tops + [2 * PADE_THETAS[4]]:
        norms = top * np.array([1.0, 0.3, 1e-4])
        shape = (len(norms), m, m)
        M = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        M *= (norms / np.abs(M).sum(axis=-1).max(axis=-1))[:, None, None]
        out = expm_batch(M)
        for k, norm in enumerate(norms):
            err = np.abs(out[k] - taylor_expm(M[k])).max()
            assert err <= 2e-14 * math.exp(norm), (top, norm, err)
    zero = expm_batch(np.zeros((5, m, m), dtype=complex))
    assert np.array_equal(zero, np.broadcast_to(np.eye(m), zero.shape))


def test_expm_batch_pade_overflow_raises():
    with pytest.raises(OverflowError):
        expm_batch(np.full((1, 3, 3), 1e306 + 0j))


@pytest.mark.parametrize("m", [1, 3, 4, 8])
def test_solve_matches_linalg_solve_at_each_pade_theta(m):
    # (V - U) X = V + U of degree k for a stack whose largest row-sum norm
    # is theta_k, the largest that degree takes, for the degrees expm_batch
    # hands to _solve; entry-major for _solve
    gen = RngStream(80 + m).generator()
    for k, theta in zip((3, 5, 7), PADE_THETAS):
        shape = (64, m, m)
        A = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        A *= theta * np.linspace(1.0, 1e-3, 64)[:, None, None] / np.abs(
            A).sum(axis=-1).max(axis=-1)[:, None, None]
        powers = [np.broadcast_to(np.eye(m), shape)]
        while len(powers) <= k // 2:
            powers.append(powers[-1] @ A @ A)
        b = _PADE[k]
        U = A @ sum(b[2 * j + 1] * P for j, P in enumerate(powers))
        V = sum(b[2 * j] * P for j, P in enumerate(powers))
        ref = np.linalg.solve(V - U, V + U)
        L, R = (np.ascontiguousarray(np.moveaxis(X, 0, -1))
                for X in (V - U, V + U))
        X = np.moveaxis(_solve(L, R), -1, 0)
        assert np.abs(X - ref).max() <= 1e-14 * np.abs(ref).max(), (k, m)


def test_expm_batch_one_by_one_is_exp():
    gen = RngStream(86).generator()
    for top in (*PADE_THETAS, 3 * PADE_THETAS[4]):
        z = top * np.exp(2j * np.pi * gen.random(32)) * np.linspace(1, 1e-3, 32)
        out = expm_batch(z[:, None, None])[:, 0, 0]
        # exp's relative condition number at z is |z|
        err = np.abs(out - np.exp(z)) / np.abs(np.exp(z))
        assert np.all(err <= 4e-15 * (1 + np.abs(z))), top


def test_expm_batch_up_to_pade7_calls_no_linalg_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    gen = RngStream(87).generator()
    M = gen.standard_normal((16, 3, 3)) + 1j * gen.standard_normal((16, 3, 3))
    for top in PADE_THETAS[:3]:
        expm_batch(top * M / np.abs(M).sum(axis=-1).max())


SY0 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])


def test_expm_batch_rotation_by_multiples_of_pi():
    # -i c (sigma_y + 0) rotates the first two axes by c; at c = pi the
    # leading entry of the Pade-13 denominator V - U is Re p_13(i pi), zero
    # to rounding, and at 2^j pi that of the scaled one
    for j in range(7):
        for c in (math.pi * 2**j, math.pi * 2**j * (1 + 1e-12)):
            ref = np.eye(3, dtype=complex)
            ref[:2, :2] = [[math.cos(c), -math.sin(c)],
                           [math.sin(c), math.cos(c)]]
            err = np.abs(expm_batch(-1j * c * SY0[None])[0] - ref).max()
            assert err <= 1e-14 * 2**j, (c, err)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_expm_batch_of_real_generators_is_exact(m):
    # -i c H for an imaginary Hermitian H (like spin-1 J_y) is c K with K
    # real, and so is V - U. Each K here is mostly a rotation of the first
    # two axes, so the leading entry of V - U at c K, sum_j b_j (K^j)[0, 0]
    # (-c)^j, has roots r below theta_13, where the unscaled Pade-13 has a
    # zero first pivot; c runs up to theta_13 and through r (1 + eps)
    gen = RngStream(90 + m).generator()
    eps = np.array([0.0, 1e-10, 1e-8, 1e-6, 1e-4])
    for _ in range(4):
        X = gen.standard_normal((m, m))
        X[0, 1] += 2 * m
        K = (X - X.T) / np.abs(X - X.T).sum(axis=-1).max()
        coef = [b * np.linalg.matrix_power(-K, j)[0, 0]
                for j, b in enumerate(_PADE[13])]
        roots = np.polynomial.Polynomial(coef).roots()
        roots = roots.real[(abs(roots.imag) < 1e-9) & (0 < roots.real)
                           & (roots.real < 0.99 * _THETA[13])]
        c = np.concatenate([np.linspace(0.0, _THETA[13], 1025)[1:],
                            np.outer(roots, 1 + np.r_[eps, -eps]).ravel()])
        w, V = np.linalg.eigh(1j * K)
        ref = (V * np.exp(-1j * c[:, None] * w)[:, None, :]) @ V.conj().T
        err = np.abs(expm_batch(c[:, None, None] * K) - ref).max()
        assert len(roots) and err <= 1e-14, (roots, err)


@pytest.mark.parametrize("norm, bound", [(0.9, 7.0), (20.0, 8.0)],
                         ids=["pade7", "scaled-pade13"])
def test_expm_batch_peak_is_a_few_outputs(norm, bound):
    # the tracemalloc peak as a multiple of the output: 6.3 at Pade-7 and
    # 7.3 at scaled Pade-13 (the stack scaled by 1/4 is one more), so one
    # more output-sized temporary breaks the bound
    gen = RngStream(88).generator()
    shape = (1024, 32, 3, 3)
    M = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    M *= norm / np.abs(M).sum(axis=-1).max()
    tracemalloc.start()
    try:
        out = expm_batch(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * out.nbytes, peak / out.nbytes


@pytest.mark.parametrize("B", [None, np.zeros((2, 2)), SZ],
                         ids=["none", "zero", "sigma-z"])
def test_shared_antithetic_factors_form_no_zero_entry(B):
    # the noise of (sigma_x, sigma_y) has a zero diagonal and, at B = 0 as
    # at sigma_z, it enters as constants: the peak of one (32, 1024, 2)
    # block is 2.07 outputs, 2.32 with tr/2 and a as arrays of zeros
    dW = 0.05 * RngStream(89).generator().standard_normal((32, 1024, 2))
    tracemalloc.start()
    try:
        out = step_factors(dW, 1 / 512, (SX, SY), B, antithetic=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * out.nbytes, peak / out.nbytes


def test_expm_batch_of_a_zero_stack():
    # every entry of M enters as the constant 0j, and the outputs still
    # have the stack's shape: exp(0) = I, and exp(-D) on both sides of an
    # antithetic pair with a diagonal drift D
    Z = np.zeros((3, 4, 2, 2), dtype=complex)
    assert np.array_equal(expm_batch(Z), np.broadcast_to(np.eye(2), Z.shape))
    D = np.diag([0.3, -0.1])
    both = expm_batch(Z, antithetic=D)
    assert both.shape == (3, 8, 2, 2)
    assert np.allclose(both, np.diag(np.exp([-0.3, 0.1])), rtol=1e-15)


def test_expm_batch_2x2_entry_path_against_taylor():
    gen = RngStream(21).generator()
    M = 0.05 * (gen.standard_normal((4, 8, 2, 2))
                + 1j * gen.standard_normal((4, 8, 2, 2)))
    M[0, 0] = [[0.3, 1e-9], [0.0, 0.3]]  # delta = 0: series branch
    M[0, 1] = [[0.2, 1e-7], [1e-7, 0.2 + 1e-7j]]  # 0 < |delta| < 1e-6
    out = expm_batch(M)
    assert out.shape == M.shape
    for idx in np.ndindex(M.shape[:2]):
        assert np.allclose(out[idx], taylor_expm(M[idx]), rtol=0, atol=1e-14)


def _antithetic_batches():
    """(name, M) 2x2 stacks covering every branch of the closed form:
    traceless, with a trace and on the small-delta branch."""
    gen = RngStream(28).generator()

    def stack(top, count=6):
        shape = (count, 2, 2)
        M = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        norms = top * np.linspace(1.0, 1e-3, count)
        return M * (norms / np.abs(M).sum(axis=-1).max(axis=-1))[:, None, None]

    traceless = stack(0.5)
    traceless[..., 1, 1] = -traceless[..., 0, 0]
    small = 1e-3 * stack(0.5)
    small[0] = [[0.3, 1e-9], [0.0, 0.3]]  # delta = 0
    small[1] = [[0.2, 1e-7], [1e-7, 0.2 + 1e-7j]]  # 0 < |delta| < 1e-6
    yield "traceless", traceless
    yield "trace", stack(2.0)
    yield "small-delta", small


ANTITHETIC_BATCHES = dict(_antithetic_batches())


@pytest.mark.parametrize("M", ANTITHETIC_BATCHES.values(),
                         ids=ANTITHETIC_BATCHES.keys())
def test_expm_batch_antithetic_equals_both_sides(M):
    # exp(-M - D) follows exp(M - D) on the P axis, equal to the plain call
    # on both (an exact zero may differ in sign) at D = 0, and for a real
    # diagonal D on a zero diagonal, where both sides' delta have one set
    # of bits; a leading batch axis is kept
    M = M.reshape(2, 3, *M.shape[1:])
    drifts = [np.diag([0.3, -0.1]), 1e-7 * np.diag([3.0, -1.0])]
    for X, D in [(M, np.zeros((2, 2)))] + [(M * (1 - np.eye(2)), D)
                                           for D in drifts]:
        both = expm_batch(X, antithetic=D)
        assert both.shape == (2, 6) + M.shape[2:]
        assert np.array_equal(both, expm_batch(
            np.concatenate([X - D, -X - D], axis=-3)))
    # a complex diagonal enters as one constant per side, and numpy's
    # complex product of a constant with an array need not round as its
    # product of two arrays does, so the two may part in the last bit
    X, D = M * (1 - np.eye(2)), np.diag([0.3, -0.1 + 0.2j])
    assert np.allclose(expm_batch(X, antithetic=D), expm_batch(
        np.concatenate([X - D, -X - D], axis=-3)), rtol=0, atol=1e-15)


def test_expm_batch_antithetic_rejects_a_drift_not_orthogonal_to_m():
    # the -M - D side reuses the delta of M - D only when tr(D'M) = 0, as
    # for sigma_z against M = 0.1 sigma_x, not for a drift with a sigma_x part
    M = 0.1 * np.ones((4, 2, 2)) * (1 - np.eye(2))
    assert np.array_equal(expm_batch(M, antithetic=SZ)[4:],
                          expm_batch(-M - SZ))
    for D in (SX, SX + SZ, 0.5 * np.eye(2) - SX):
        with pytest.raises(ValueError, match="orthogonal"):
            expm_batch(M, antithetic=D)


def test_antithetic_pair_needs_the_2x2_form():
    # expm_batch shares its work between the two sides at m = 2 only; the
    # antithetic step factors are those of the 2P paths dW and -dW for every
    # m and B, shared (m = 2 with B orthogonal to A, or a spin-1 span with
    # B orthogonal to A) or not
    with pytest.raises(ValueError, match="2x2"):
        expm_batch(0.1 * np.ones((4, 3, 3)), antithetic=np.zeros((3, 3)))
    dW = 0.3 * RngStream(29).generator().standard_normal((3, 4, 2))
    for A, B in [((SX, SY), np.zeros((2, 2))), ((SX, SY), SZ),
                 ((JX,), np.zeros((3, 3))), ((JX,), JZ),
                 ((0.1 * np.ones((3, 3)),), np.zeros((3, 3)))]:
        dWd = dW[..., :len(A)]
        both = step_factors(dWd, 0.01, A, B, antithetic=True)
        ref = step_factors(np.concatenate([dWd, -dWd], axis=-2), 0.01, A, B)
        if B is JZ:
            # the 3x3 closed form squares each side's traceless part: the
            # concatenated call by one entry product of N - D', the shared
            # one as N^2 -+ {N, D'} + D'^2, which rounds otherwise
            assert np.abs(both - ref).max() <= 1e-15
        else:
            assert np.array_equal(both, ref)


def _spin1_span(gen, count):
    """count random complex combinations of J_x, J_y, J_z and I."""
    c = gen.standard_normal((count, 4)) + 1j * gen.standard_normal((count, 4))
    return np.einsum("pk,kab->pab", c, np.array([JX, JY, JZ, I3]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(log_norms=st.lists(st.floats(-8.0, 1.0), min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_spin1_closed_form_matches_taylor_across_norms(log_norms, seed):
    # random spin-1 generators with a trace at row-sum norms 1e-8 .. 10,
    # the nilpotent J_x + i J_y (delta = 0, X^2 != 0, exp = I + X + X^2/2)
    # and J_x + i J_y + 1e-7 J_z (delta = 1e-7 before scaling, so delta/2
    # stays under sinhc's 1e-6 series switch at every norm here) at the
    # first norm
    gen = RngStream(seed).generator()
    nil = JX + 1j * JY
    M = np.concatenate([_spin1_span(gen, len(log_norms)),
                        [nil, nil + 1e-7 * JZ]])
    norms = 10.0 ** np.r_[log_norms, log_norms[0], log_norms[0]]
    M *= (norms / np.abs(M).sum(axis=-1).max(axis=-1))[:, None, None]
    out = _expm3_batch(M, None)
    for k, norm in enumerate(norms):
        err = np.abs(out[k] - taylor_expm(M[k])).max()
        assert err <= 2e-14 * math.exp(norm), (norm, err)
    X = M[-2]
    assert np.abs(out[-2] - (np.eye(3) + X + 0.5 * X @ X)).max() <= 1e-15


def test_spin1_closed_form_overflow_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for X in (800.0 * JZ, 800.0 * np.eye(3), np.full((3, 3), np.inf)):
            with pytest.raises(OverflowError):
                _expm3_batch(X[None], None)


def test_singular_span_accepts_the_spin1_class():
    # every combination of the spin-1 J's has a singular traceless part,
    # at any scale, with a trace on B, and so has every real antisymmetric
    # 3x3 generator (Rodrigues)
    gen = RngStream(91).generator()
    for r in (1, 2, 3):
        for sub in itertools.combinations((JX, JY, JZ), r):
            c = 10 * (gen.standard_normal((3, r)) +
                      1j * gen.standard_normal((3, r)))
            A = tuple(np.tensordot(c[:2], np.array(sub), 1))
            B = np.tensordot(c[2], np.array(sub), 1)
            assert _singular_span(A + (B,))
            assert _singular_span(A + (B + (0.3 - 2j) * I3,))
            assert _singular_span((1e-6 * A[0], 1e3 * B))
    L = [np.zeros((3, 3)) for _ in range(3)]
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        L[k][i, j], L[k][j, i] = -1.0, 1.0
    assert _singular_span(L)
    assert _singular_span((np.zeros((3, 3)), I3))


def test_singular_span_rejects_other_generators():
    gen = RngStream(92).generator()
    rand = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
    for X in (0.1 * np.ones((3, 3)), np.diag([1.0, 2.0, -3.0]), rand):
        assert not _singular_span((X,))
        assert not _singular_span((JX, JY, X))


@pytest.mark.parametrize("A, B", [
    ((JX, JY), JZ), ((JX,), JZ), ((JX, JY), None), ((JY,), JZ + 0.7 * I3),
    ((JX + 0.2 * I3,), JZ - 0.4 * I3), ((JX, JY), 2 * JZ - 0.3j * I3)],
    ids=["xy-z", "x-z", "xy", "y-z+0.7", "x+0.2-z-0.4", "xy-2z-0.3i"])
def test_shared_spin1_factors_per_drift(A, B):
    # every drift here is orthogonal to A, so the two sides share one delta;
    # at B = 0 the -dW side negates s1 N and gets the concatenated call's
    # bits, and with a drift it forms its square as N^2 + {N, D'} + D'^2
    # where the concatenated call squares N + D' by one entry product, so
    # the two part by rounding
    dW = 0.3 * RngStream(32).generator().standard_normal((5, 8, 2))
    dW = dW[..., :len(A)]
    both = step_factors(dW, 0.01, A, B, antithetic=True)
    ref = step_factors(np.concatenate([dW, -dW], axis=-2), 0.01, A, B)
    if B is None:
        assert np.array_equal(both, ref)
    else:
        assert np.abs(both - ref).max() <= 1e-15
    pade = expm_batch(_generator(np.concatenate([dW, -dW], axis=-2), 0.01,
                                 A, B))
    assert np.abs(both - pade).max() <= 1e-15


def test_spin1_closed_form_rejects_a_drift_not_orthogonal_to_m():
    # the -M - D side from the delta of M - D when tr(D'M) = 0, as for J_z
    # against M = 0.1 (J_x + J_y), not for a drift with a J_x or J_y part
    M = 0.1 * (JX + JY)[None]
    assert np.allclose(_expm3_batch(M, JZ)[1:], taylor_expm(-M[0] - JZ),
                       rtol=0, atol=1e-15)
    for D in (JX, JZ + JY):
        with pytest.raises(ValueError, match="orthogonal"):
            _expm3_batch(M, D)


def test_shared_spin1_factors_peak_below_three_outputs():
    # one (32, 1024)-pair block at B = J_z peaks at 2.46 outputs: the noise
    # generator and N^2 are half an output each; Pade-7 on the concatenated
    # generator peaks at 7.4 outputs and the unshared closed form at 3.85
    dW = 0.09 * RngStream(89).generator().standard_normal((32, 1024, 2))
    tracemalloc.start()
    try:
        out = step_factors(dW, 1 / 128, (JX, JY), JZ, antithetic=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * out.nbytes, peak / out.nbytes


I2 = np.eye(2)


@pytest.mark.parametrize("A, B, scale, exact", [
    ((SX, SY), SZ, 1.0, True), ((SX,), SZ, 1.0, True),
    ((SX,), SY, 1.0, True), ((SX,), SZ + 0.7 * I2, 1.0, True),
    ((SX + 0.2 * I2,), SZ - 0.4 * I2, 1.0, True), ((SX,), SZ, 1e-9, True),
    ((SX,), 2 * SZ + 0.3j * SY, 1.0, False)],
    ids=["xy-z", "x-z", "x-y", "x-z+0.7", "x+0.2-z-0.4", "small-delta",
         "x-mixed"])
def test_shared_antithetic_factors_per_drift(A, B, scale, exact):
    # every drift here is orthogonal to A, so the two sides share one
    # closed form, and the -dW side gets the bits of the concatenated call
    dW = 0.3 * scale * RngStream(31).generator().standard_normal((5, 8, 2))
    dW = dW[..., :len(A)]
    both = step_factors(dW, 0.01 * scale, A, B, antithetic=True)
    ref = step_factors(np.concatenate([dW, -dW], axis=-2), 0.01 * scale, A, B)
    if exact:
        assert np.array_equal(both, ref)
    else:
        # for 2 sigma_z + 0.3 i sigma_y, m01 and m10 both have a real
        # (drift) and an imaginary (noise) part, and the imaginary part of
        # m01 m10 vanishes in exact arithmetic; numpy's complex product,
        # which fuses one multiply into the add, leaves the rounding error
        # of one real product there, of opposite sign on the two sides, so
        # the -dW side's own delta differs from the shared one in its last
        # bits
        assert np.abs(both - ref).max() <= 1e-15


SIZES = [1, 2, 3, 4, 5]


def _generator(dW, dt, A, B):
    M = sum(-1j * dW[..., j, None, None] * Aj for j, Aj in enumerate(A))
    return M - dt * B if B is not None else M


def _sparse(gen, m):
    # each entry zero, real, imaginary or complex, so that every coefficient
    # test of the entry-wise generator is taken
    kind = gen.integers(0, 4, (m, m))
    return (gen.standard_normal((m, m)) * (kind & 1)
            + 1j * gen.standard_normal((m, m)) * (kind >> 1))


@pytest.mark.parametrize("n_A, drift", [(2, True), (2, False), (1, True)],
                         ids=["A2-B", "A2", "A1-B"])
@pytest.mark.parametrize("m", SIZES, ids=lambda m: f"m{m}")
def test_step_factors_entry_path_exact(m, n_A, drift):
    gen = RngStream(22 + m).generator()
    A = tuple(_sparse(gen, m) for _ in range(n_A))
    B = _sparse(gen, m) if drift else None
    dW = 0.1 * gen.standard_normal((3, 17, n_A))
    F = step_factors(dW, 0.01, A, B)
    assert F.shape == (3, 17, m, m)
    assert np.array_equal(F, expm_batch(_generator(dW, 0.01, A, B)))


def _left_loop(F):
    out = []
    for p in range(F.shape[0]):
        T = np.eye(F.shape[-1], dtype=complex)
        for nu in range(F.shape[1]):
            T = F[p, nu] @ T
        out.append(T)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 513])
@pytest.mark.parametrize("paths", [1, 4])
@pytest.mark.parametrize("m", SIZES, ids=lambda m: f"m{m}")
def test_ordered_product_tree_matches_loop(m, paths, n):
    gen = RngStream(23).generator()
    shape = (paths, n, m, m)
    H = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    F = expm_batch(-0.1j * (H + np.conj(np.swapaxes(H, -1, -2))))  # unitary
    tree = ordered_product_tree(F)
    assert tree.shape == (paths, m, m)
    assert np.allclose(tree, _left_loop(F), rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", SIZES)
def test_ordered_product_tree_noncontiguous_input(m):
    gen = RngStream(24).generator()
    G = gen.standard_normal((6, 22, m, m)) + 1j * gen.standard_normal((6, 22, m, m))
    # strided slice with reversed rows, 7 factors per path
    F = (0.6 / m * G)[::2, 1::3, ::-1, :]
    assert m == 1 or not F.flags.c_contiguous
    before = F.copy()
    assert np.allclose(ordered_product_tree(F), _left_loop(F), rtol=0, atol=1e-13)
    assert np.array_equal(F, before)


def _hermitian(gen, m):
    H = gen.standard_normal((m, m)) + 1j * gen.standard_normal((m, m))
    return (H + H.conj().T) / (2 * m)


@pytest.mark.parametrize("n", [1, 2, 7, 511, 512, 513])
@pytest.mark.parametrize("m", SIZES, ids=lambda m: f"m{m}")
def test_ordered_prefix_matches_loop(n, m):
    # unitary factors keep every prefix of norm 1, so an absolute bound
    # holds at any n; n = 7 and 513 end in a partial block
    gen = RngStream(25).generator()
    A = (_hermitian(gen, m), _hermitian(gen, m))
    dW = 0.2 * gen.standard_normal((3, n, len(A)))
    F = step_factors(dW, 0.05, A, 1j * _hermitian(gen, m))
    expected = prefix_loop(F)
    out = ordered_prefix(F)
    assert out is F  # written in place
    assert np.allclose(F, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", SIZES)
def test_ordered_prefix_keeps_exact_zeros(m):
    # upper-triangular factors: the strictly lower entries are exactly zero
    # in every factor and in every product
    gen = RngStream(26).generator()
    F = np.triu(gen.standard_normal((4, 40, m, m))
                + 1j * gen.standard_normal((4, 40, m, m)))
    F = 0.5 * F + np.eye(m)
    lower = np.tril(np.ones((m, m), dtype=bool), -1)
    ordered_prefix(F)
    assert np.all(F[..., lower] == 0)
    # diagonal generators give diagonal step factors
    diag = np.diag(np.arange(1.0, m + 1)).astype(complex)
    dW = gen.standard_normal((4, 40, 1))
    F = ordered_prefix(step_factors(dW, 0.1, (diag,), 0.3 * diag))
    assert np.all(F[..., ~np.eye(m, dtype=bool)] == 0)


@pytest.mark.parametrize("m", SIZES)
def test_ordered_prefix_strided_input(m):
    gen = RngStream(27).generator()
    G = 0.3 * (gen.standard_normal((6, 70, m, m))
               + 1j * gen.standard_normal((6, 70, m, m)))
    before = G.copy()
    F = G[::2, 1::3]  # 3 paths, 23 factors, not contiguous
    expected = prefix_loop(F)
    ordered_prefix(F)
    assert np.allclose(G[::2, 1::3], expected, rtol=0, atol=1e-13)
    untouched = np.ones(G.shape[:2], dtype=bool)
    untouched[::2, 1::3] = False
    assert np.array_equal(G[untouched], before[untouched])


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65])
@pytest.mark.parametrize("m", [2, 3])
def test_kernels_same_bits_on_path_and_step_major_memory(m, n):
    # the matrix walk hands the kernels a (P, n, m, m) view of step-major
    # (m, m, n, P) memory; C-contiguous factors give the same bits
    gen = RngStream(29).generator()
    shape = (m, m, n, 5)
    steps = 0.6 / m * (gen.standard_normal(shape)
                       + 1j * gen.standard_normal(shape))
    view = steps.transpose(3, 2, 0, 1)
    path = np.ascontiguousarray(view)
    tree = ordered_product_tree(view)
    assert tree.shape == (5, m, m) and tree.flags.c_contiguous
    assert tree.tobytes() == ordered_product_tree(path).tobytes()
    ordered_prefix(view)
    ordered_prefix(path)
    assert np.ascontiguousarray(view).tobytes() == path.tobytes()


@pytest.mark.parametrize("m", SIZES)
def test_stack_product_same_bits_as_the_entry_sum(m):
    # each entry is l_a0 r_0b + l_a1 r_1b + ..., summed in k order, so the
    # product's bits do not depend on how the entries are batched
    gen = RngStream(30).generator()
    L, R = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
            for shape in ((4, 1, m, m), (1, 3, m, m)))
    expected = np.empty((4, 3, m, m), dtype=complex)
    for a, b in np.ndindex(m, m):
        expected[..., a, b] = L[..., a, 0] * R[..., 0, b]
        for k in range(1, m):
            expected[..., a, b] += L[..., a, k] * R[..., k, b]
    assert stack_product(L, R).tobytes() == expected.tobytes()


def test_step_factor_definition():
    dW = np.array([0.3, -0.2])
    F = step_factors(dW[None, :], 0.01, (SX, SY), SZ)
    expected = taylor_expm(-1j * (0.3 * SX - 0.2 * SY) - 0.01 * SZ)
    assert np.allclose(F[0], expected, atol=1e-12)


def test_ordered_exp_left_multiplication_hand_check():
    # two non-commuting steps: the later factor must sit on the left
    g = TimeGrid(1.0, 2)
    dW = np.array([[0.4, 0.0], [0.0, 0.7]])
    T = ordered_product_tree(step_factors(dW[None], g.dt, (SX, SY), None))[0]
    F1 = taylor_expm(-1j * 0.4 * SX)
    F2 = taylor_expm(-1j * 0.7 * SY)
    assert np.allclose(T, F2 @ F1, atol=1e-12)
    assert not np.allclose(T, F1 @ F2)


def test_ordered_exp_unitary_when_hermitian():
    g = TimeGrid(1.0, 64)
    dW = whole_increments(g, 2, 1, RngStream(4).generator())
    T = ordered_product_tree(step_factors(dW, g.dt, (SX, SY), None))[0]
    assert np.allclose(T @ T.conj().T, np.eye(2), atol=1e-12)


def test_dyson_first_order_drift_only():
    g = TimeGrid(0.25, 8)
    out = dyson_series(np.zeros((9, 1)), g.dt, (np.zeros((2, 2)),), SZ,
                       order=1)
    assert np.allclose(out, np.eye(2) - 0.25 * SZ, atol=1e-14)


def test_dyson_converges_to_ordered_exp():
    g = TimeGrid(0.05, 32)
    path = whole_free_paths(
        whole_increments(g, 1, 1, RngStream(7).generator()))[0]
    dW = np.diff(path, axis=0)
    exact = ordered_product_tree(step_factors(dW[None], g.dt, (SX,), SZ))[0]
    errs = [np.abs(dyson_series(path, g.dt, (SX,), SZ, k) - exact).max()
            for k in range(5)]
    assert errs[4] < errs[2] < errs[0]
    assert errs[4] < 1e-4


def test_dyson_order_range():
    g = TimeGrid(0.1, 4)
    with pytest.raises(ValueError):
        dyson_series(np.zeros((5, 1)), g.dt, (SX,), None, order=7)


def test_dyson_path_dimension_must_match():
    g = TimeGrid(0.1, 4)
    with pytest.raises(ValueError, match="dimension"):
        dyson_series(np.zeros((5, 2)), g.dt, (SX,), None, order=2)


def test_approximant_family_identity_guard():
    with pytest.raises(ValueError):
        ApproximantFamily(lambda t: 2 * np.eye(2), 2)
    fam = ApproximantFamily(lambda t: taylor_expm(-t * SZ.astype(complex)), 2)
    assert fam.dim == 2


def test_trotter_product_semigroup_invariance():
    fam = ApproximantFamily(lambda t: expm(-t * (SZ + 0.5 * SX)), 2)
    a = trotter_product(fam, 1.0, 8)
    b = trotter_product(fam, 1.0, 16)
    assert np.allclose(a, b, atol=1e-12)  # exact semigroup: n-independent
    with pytest.raises(ValueError):
        trotter_product(fam, 1.0, 0)


def test_trotter_limit_for_nonexact_family():
    H = SZ + 0.3 * SX

    def F(t):
        return np.eye(2) - t * H + 0.5 * t**2 * (H @ H) @ SX * 0  # order 1
    fam = ApproximantFamily(F, 2)
    target = taylor_expm(-1.0 * H)
    errs = [np.abs(trotter_product(fam, 1.0, n) - target).max()
            for n in (8, 64, 512)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 0.005


def test_generator_probe_recovers_generator():
    H = 0.7 * SX + 0.2 * SZ
    fam = ApproximantFamily(lambda t: expm(-t * H), 2)
    probe = generator_probe(fam)
    assert np.allclose(probe, H, atol=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 47, 64, 96])
def test_gauss_legendre_matches_companion_rule(n):
    # numpy's leggauss takes the nodes from the n x n companion matrix
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.all(x == -x[::-1]) and np.all(w == w[::-1])
    assert np.abs(x - xr).max() <= 2.3e-16
    assert np.abs(w / wr - 1).max() <= 5e-12
    # exact for polynomials up to degree 2n - 1
    for k in range(0, 2 * n, 2):
        assert w @ x**k == pytest.approx(2 / (k + 1), rel=1e-13, abs=1e-15)
