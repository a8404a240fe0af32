"""Dense operator algebra: exponentials, ordered products, Dyson series."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab.opalg import (ApproximantFamily, as_operator, as_operator_tuple,
                         dyson_series, expm, expm_batch, generator_probe,
                         ordered_prefix, ordered_product_tree, step_factors,
                         trotter_product)
from fklab.streams import RngStream
from fklab.wiener import TimeGrid, WienerPath, sample_increments, sample_paths

from oracles import prefix_loop, taylor_expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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


def test_expm_batch_pade_path():
    gen = RngStream(3).generator()
    M = gen.standard_normal((10, 4, 4)) + 1j * gen.standard_normal((10, 4, 4))
    out = expm_batch(3.0 * M)
    for i in range(10):
        assert np.allclose(out[i], taylor_expm(3.0 * M[i]), atol=1e-10)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(m=st.sampled_from([2, 3, 4]),
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


def test_expm_batch_pade_overflow_raises():
    with pytest.raises(OverflowError):
        expm_batch(np.full((1, 3, 3), 1e306 + 0j))


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


def _generator(dW, dt, A, B):
    M = sum(-1j * dW[..., j, None, None] * Aj for j, Aj in enumerate(A))
    return M - dt * B if B is not None else M


@pytest.mark.parametrize("A, B", [
    ((SX, SY), SZ),  # SX, SY and SZ each hold zero entries
    ((SX + 0.5j * SZ, SY), None),
    ((SY,), SX + 0.25 * SZ),
])
def test_step_factors_2x2_entry_path_exact(A, B):
    dW = 0.1 * RngStream(22).generator().standard_normal((3, 17, len(A)))
    F = step_factors(dW, 0.01, A, B)
    assert F.shape == (3, 17, 2, 2)
    assert np.array_equal(F, expm_batch(_generator(dW, 0.01, A, B)))


def _left_loop(F):
    out = []
    for p in range(F.shape[0]):
        T = np.eye(2, dtype=complex)
        for nu in range(F.shape[1]):
            T = F[p, nu] @ T
        out.append(T)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 513])
@pytest.mark.parametrize("paths", [1, 4])
def test_ordered_product_tree_2x2_matches_loop(n, paths):
    gen = RngStream(23).generator()
    H = gen.standard_normal((paths, n, 2, 2)) + 1j * gen.standard_normal((paths, n, 2, 2))
    F = expm_batch(-0.1j * (H + np.conj(np.swapaxes(H, -1, -2))))  # unitary
    tree = ordered_product_tree(F)
    assert tree.shape == (paths, 2, 2)
    assert np.allclose(tree, _left_loop(F), rtol=0, atol=1e-13)


def test_ordered_product_tree_2x2_noncontiguous_input():
    gen = RngStream(24).generator()
    G = gen.standard_normal((6, 22, 2, 2)) + 1j * gen.standard_normal((6, 22, 2, 2))
    # strided slice with reversed rows, 7 factors per path
    F = (0.6 * G)[::2, 1::3, ::-1, :]
    assert not F.flags.c_contiguous
    before = F.copy()
    assert np.allclose(ordered_product_tree(F), _left_loop(F), rtol=0, atol=1e-13)
    assert np.array_equal(F, before)


JX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
JZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


@pytest.mark.parametrize("n", [1, 2, 7, 511, 512, 513])
@pytest.mark.parametrize("A, B", [((SX, SY), 1j * SZ), ((JX,), 1j * JZ)],
                         ids=["m2", "m3"])
def test_ordered_prefix_matches_loop(n, A, B):
    # unitary factors keep every prefix of norm 1, so an absolute bound
    # holds at any n; n = 7 and 513 end in a partial block
    dW = 0.2 * RngStream(25).generator().standard_normal((3, n, len(A)))
    F = step_factors(dW, 0.05, A, B)
    expected = prefix_loop(F)
    out = ordered_prefix(F)
    assert out is F  # written in place
    assert np.allclose(F, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [2, 3])
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


@pytest.mark.parametrize("m", [2, 3])
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
    dW = sample_increments(g, 2, 1, RngStream(4).generator())
    T = ordered_product_tree(step_factors(dW, g.dt, (SX, SY), None))[0]
    assert np.allclose(T @ T.conj().T, np.eye(2), atol=1e-12)


def test_ordered_product_tree_matches_loop():
    gen = RngStream(5).generator()
    F = gen.standard_normal((3, 7, 2, 2)) + 1j * gen.standard_normal((3, 7, 2, 2))
    tree = ordered_product_tree(F.copy())
    for p in range(3):
        loop = np.eye(2, dtype=complex)
        for nu in range(7):
            loop = F[p, nu] @ loop
        assert np.allclose(tree[p], loop, atol=1e-12)


def test_dyson_first_order_drift_only():
    g = TimeGrid(0.25, 8)
    path = WienerPath(g, np.zeros((9, 1)))
    out = dyson_series(path, (np.zeros((2, 2)),), SZ, order=1)
    assert np.allclose(out, np.eye(2) - 0.25 * SZ, atol=1e-14)


def test_dyson_converges_to_ordered_exp():
    g = TimeGrid(0.05, 32)
    path = WienerPath(g, sample_paths(g, 1, 1, RngStream(7)).values[0])
    dW = np.diff(path.values, axis=0)
    exact = ordered_product_tree(step_factors(dW[None], g.dt, (SX,), SZ))[0]
    errs = [np.abs(dyson_series(path, (SX,), SZ, k) - exact).max()
            for k in range(5)]
    assert errs[4] < errs[2] < errs[0]
    assert errs[4] < 1e-4


def test_dyson_order_range():
    g = TimeGrid(0.1, 4)
    path = WienerPath(g, np.zeros((5, 1)))
    with pytest.raises(ValueError):
        dyson_series(path, (SX,), None, order=7)


def test_dyson_path_dimension_must_match():
    g = TimeGrid(0.1, 4)
    with pytest.raises(ValueError, match="dimension"):
        dyson_series(WienerPath(g, np.zeros((5, 2))), (SX,), None, order=2)


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
