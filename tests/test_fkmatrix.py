"""Monte Carlo verification of the matrix Feynman-Kac identities."""

import math
import tracemalloc

import numpy as np
import pytest

from fklab import fkmatrix, opalg, wiener
from fklab.fkmatrix import (FKProblem, check_duhamel, check_nov_identity,
                            estimate_generalized_fk, estimate_product_formula,
                            product_formula_target, rhs_generator)
from fklab.mc import reduce_chunks
from fklab.opalg import step_factors
from fklab.streams import RngStream
from fklab.wiener import TimeGrid

from oracles import prefix_loop, taylor_expm, whole_increments

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)
JX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
JZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


def test_problem_validation():
    with pytest.raises(ValueError):
        FKProblem((SX,), np.eye(3), 1.0, TimeGrid(1.0, 8))
    with pytest.raises(ValueError):
        FKProblem((SX,), SZ, 2.0, TimeGrid(1.0, 8))
    prob = FKProblem((SX, SY), SZ, 0.5, TimeGrid(0.5, 8))
    assert prob.dim == 2 and prob.d == 2


def test_rhs_generator_oracle():
    prob = FKProblem((SX, SY), SZ, 0.8, TimeGrid(0.8, 4))
    expected = taylor_expm(-0.8 * (0.5 * (SX @ SX + SY @ SY) + SZ))
    assert np.allclose(rhs_generator(prob), expected, atol=1e-12)


def test_generalized_fk_pauli_x():
    # A = sigma_x, B = 0: target exp(-t/2) * identity
    prob = FKProblem((SX,), Z2, 1.0, TimeGrid(1.0, 128))
    est = estimate_generalized_fk(prob, 20000, RngStream(1))
    target = rhs_generator(prob)
    assert np.allclose(np.diag(target), math.exp(-0.5))
    frob = np.linalg.norm(est.mean - target)
    assert frob <= max(3 * np.linalg.norm(est.stderr), 1e-2)


def test_generalized_fk_with_drift():
    prob = FKProblem((SX,), SZ, 0.5, TimeGrid(0.5, 128))
    est = estimate_generalized_fk(prob, 20000, RngStream(2))
    frob = np.linalg.norm(est.mean - rhs_generator(prob))
    assert frob <= max(3 * np.linalg.norm(est.stderr), 1e-2)


def test_generalized_fk_two_components():
    prob = FKProblem((SX, SY), Z2, 0.5, TimeGrid(0.5, 128))
    est = estimate_generalized_fk(prob, 20000, RngStream(3))
    frob = np.linalg.norm(est.mean - rhs_generator(prob))
    assert frob <= max(3 * np.linalg.norm(est.stderr), 1e-2)


def test_worker_invariance_bitwise():
    prob = FKProblem((SX,), SZ, 0.5, TimeGrid(0.5, 32))
    a = estimate_generalized_fk(prob, 8000, RngStream(4), chunk_size=1024,
                                workers=1)
    b = estimate_generalized_fk(prob, 8000, RngStream(4), chunk_size=1024,
                                workers=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_antithetic_pairing_exact_symmetry():
    # odd-in-w entries vanish identically under (w, -w) averaging
    prob = FKProblem((SX,), Z2, 1.0, TimeGrid(1.0, 64))
    est = estimate_generalized_fk(prob, 4000, RngStream(5))
    assert np.all(est.mean[0, 1] == 0.0) and np.all(est.stderr[0, 1] == 0.0)


def test_nov_identity_requires_zero_drift():
    prob = FKProblem((SX,), SZ, 1.0, TimeGrid(1.0, 16))
    with pytest.raises(ValueError):
        check_nov_identity(prob, 100, RngStream(6))


def test_nov_identity_residual():
    prob = FKProblem((SX, SY), Z2, 1.0, TimeGrid(1.0, 128))
    est = check_nov_identity(prob, 20000, RngStream(7))
    z = np.where(np.asarray(est.stderr) > 0,
                 np.abs(est.mean) / np.where(np.asarray(est.stderr) > 0,
                                             est.stderr, 1.0),
                 np.abs(est.mean) * 1e12)
    assert z.max() <= 4.0


def test_duhamel_residual():
    prob = FKProblem((SX,), SZ, 1.0, TimeGrid(1.0, 128))
    res, err = check_duhamel(prob, 20000, 12, RngStream(8))
    ok = np.where(err > 0, np.abs(res) <= 4 * err, np.abs(res) <= 1e-10)
    assert np.all(ok)


def _nov_loop_side(prob, dW):
    """One antithetic side of the Nov residual, one time step at a time."""
    T = prefix_loop(step_factors(dW, prob.grid.dt, prob.A, None))
    m = prob.dim
    prev = np.eye(m, dtype=complex)
    stoch = np.zeros((dW.shape[0], prob.d, m, m), dtype=complex)
    leb = np.zeros((dW.shape[0], m, m), dtype=complex)
    for nu in range(prob.grid.n_steps):
        mid = 0.5 * (T[:, nu] + prev)
        stoch += dW[:, nu, :, None, None] * mid[:, None]
        leb += prob.grid.dt * mid
        prev = T[:, nu]
    for j, Aj in enumerate(prob.A):
        stoch[:, j] += 0.5j * (Aj @ leb)
    return stoch


def _duhamel_loop_nodes(prob, dW, n_quad):
    """<T_s> at the snapped Gauss-Legendre nodes and t, from the loop."""
    T = prefix_loop(step_factors(dW, prob.grid.dt, prob.A, prob.B))
    T = np.concatenate([np.broadcast_to(np.eye(prob.dim), T[:, :1].shape),
                        T], axis=1)
    x = np.polynomial.legendre.leggauss(n_quad)[0]
    idx = np.rint(0.5 * (x + 1.0) * prob.grid.n_steps).astype(int)
    return T[:, sorted(set(idx) | {prob.grid.n_steps})]


def _loop_mean(prob, side, n_pairs, chunk, seed):
    """Antithetic mean of ``side(dW)`` on the estimators' increments, drawn
    whole: the blocks of the estimators' walk concatenate to this draw."""
    def chunk_fn(gen, count):
        dW = whole_increments(prob.grid, max(prob.d, 1), count, gen)
        return 0.5 * (side(dW) + side(-dW)), None
    return reduce_chunks(chunk_fn, n_pairs, RngStream(seed), chunk)[0]


def _assert_matches_loop(est, ref):
    assert np.allclose(est.mean, ref.mean, rtol=0, atol=1e-13)
    assert np.allclose(est.stderr, ref.stderr, rtol=1e-10, atol=1e-15)
    assert np.array_equal(est.stderr == 0, ref.stderr == 0)


# n_steps below one block, exactly one block, one block and one step, two
# whole blocks, two blocks and one step, and four blocks and a partial one
# (at BLOCK = 32); of the 12 Duhamel nodes one falls on step 0 at 16, 32 and
# 33, one on the only block's end at 32 and one on the second block's end
# at 65
BLOCK_STEPS = [16, fkmatrix.BLOCK, fkmatrix.BLOCK + 1, 64, 65, 130]
CASES = dict(argnames="A, B",
             argvalues=[((SX, SY), Z2), ((SX,), SZ), ((JX,), JZ)],
             ids=["pauli-xy", "pauli-x-drift", "spin1"])


@pytest.mark.parametrize("n_steps", BLOCK_STEPS)
@pytest.mark.parametrize(**CASES)
def test_nov_and_duhamel_match_per_step_loop(A, B, n_steps):
    # the same paths reduced through a per-step loop: only the association
    # of the products and sums differs
    prob = FKProblem(A, B, 1.0, TimeGrid(1.0, n_steps))
    n_pairs, chunk = 96, 40
    if not np.any(B):
        est = check_nov_identity(prob, 2 * n_pairs, RngStream(12), chunk)
        ref = _loop_mean(prob, lambda dW: _nov_loop_side(prob, dW), n_pairs,
                         chunk, 12)
        _assert_matches_loop(est, ref)
    res, err = check_duhamel(prob, 2 * n_pairs, 12, RngStream(12), chunk)
    ref = _loop_mean(prob, lambda dW: _duhamel_loop_nodes(prob, dW, 12),
                     n_pairs, chunk, 12)
    # the residual is a fixed linear map of the node means and stderrs
    x, w = np.polynomial.legendre.leggauss(12)
    idx = np.rint(0.5 * (x + 1.0) * prob.grid.n_steps).astype(int)
    keys = sorted(set(idx) | {prob.grid.n_steps})
    Asq = sum(Aj @ Aj for Aj in prob.A)
    res_ref = ref.mean[-1] - taylor_expm(-0.5 * Asq)
    err_ref = ref.stderr[-1].copy()
    for i, wi in zip(idx, 0.5 * w):
        prop = taylor_expm(-0.5 * (1.0 - i * prob.grid.dt) * Asq) @ prob.B
        res_ref = res_ref + wi * prop @ ref.mean[keys.index(i)]
        err_ref = err_ref + abs(wi) * np.abs(prop) @ ref.stderr[keys.index(i)]
    assert np.allclose(res, res_ref, rtol=0, atol=1e-12)
    assert np.allclose(err, err_ref, rtol=1e-10, atol=1e-15)


@pytest.mark.parametrize("n_steps", BLOCK_STEPS)
@pytest.mark.parametrize(**CASES)
def test_generalized_fk_matches_per_step_loop(A, B, n_steps):
    # T_n from the block trees and the carry against T_n from the loop
    prob = FKProblem(A, B, 1.0, TimeGrid(1.0, n_steps))
    est = estimate_generalized_fk(prob, 192, RngStream(15), 40)
    ref = _loop_mean(prob, lambda dW: prefix_loop(
        step_factors(dW, prob.grid.dt, prob.A, prob.B))[:, -1], 96, 40, 15)
    _assert_matches_loop(est, ref)


@pytest.mark.parametrize("n_steps", [1, fkmatrix.BLOCK, fkmatrix.BLOCK + 1])
def test_antithetic_pair_cancels_the_off_diagonal_exactly(n_steps):
    # for A = (sigma_x,) and B = sigma_z every factor of the -dW path is
    # sigma_z F sigma_z for the factor F of the dW path, bit for bit, and so
    # is their product: each pair's off-diagonal is exactly 0, and so are
    # the mean's off-diagonal entries and their stderr
    prob = FKProblem((SX,), SZ, 1.0, TimeGrid(1.0, n_steps))
    est = estimate_generalized_fk(prob, 192, RngStream(16), 40)
    off = ~np.eye(2, dtype=bool)
    assert np.all(est.mean[off] == 0) and np.all(est.stderr[off] == 0)
    assert np.all(est.mean[~off] != 0) and np.all(est.stderr[~off] > 0)


@pytest.mark.parametrize("chunk", [16, 50, 256])
def test_nov_and_duhamel_worker_invariance_bitwise(chunk):
    nov = FKProblem((SX, SY), Z2, 1.0, TimeGrid(1.0, 64))
    duh = FKProblem((SX,), SZ, 1.0, TimeGrid(1.0, 64))
    runs = []
    for workers in (1, 2):
        est = check_nov_identity(nov, 512, RngStream(13), chunk, workers)
        res, err = check_duhamel(duh, 512, 12, RngStream(13), chunk, workers)
        runs.append((est.mean, est.stderr, res, err))
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


def test_prefix_checks_hold_one_factor_array():
    # the prefixes overwrite the step factors, one block of both sides'
    # paths at a time
    prob = FKProblem((SX, SY), Z2, 1.0, TimeGrid(1.0, 256))
    count = 128
    dW = whole_increments(prob.grid, 2, count, RngStream(14).generator())
    factor_bytes = count * 256 * 4 * 16
    tracemalloc.start()
    try:
        step_factors(dW, prob.grid.dt, prob.A, None)
        build = tracemalloc.get_traced_memory()[1]
        for check in (lambda: check_nov_identity(prob, 2 * count,
                                                 RngStream(14), count),
                      lambda: check_duhamel(prob, 2 * count, 12,
                                            RngStream(14), count)):
            tracemalloc.reset_peak()
            check()
            assert tracemalloc.get_traced_memory()[1] < build + factor_bytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("A, B, shared",
                         [((SX, SY), Z2, True), ((SX, SY), SZ, True),
                          ((JX,), np.zeros((3, 3)), True),
                          ((SX,), SX + SZ, False)],
                         ids=["B0", "Bz", "spin1-B0", "x-drift-xz"])
def test_one_exponential_per_block_when_drift_is_orthogonal(monkeypatch, A,
                                                            B, shared):
    # one exponential call builds a block's factors of both antithetic sides
    # for every (A, B); a closed form (m = 2, or a 3x3 span whose traceless
    # parts are singular, as for J_x) shares its work between the sides when
    # tr(B A_j') = 0 for every j, as at B = 0 and for sigma_z against
    # (sigma_x, sigma_y), and not for sigma_x + sigma_z against sigma_x
    calls = []

    def counted(exp):
        def call(M, antithetic=None):
            calls.append(antithetic is not None)
            return exp(M, antithetic)
        return call

    for name in ("expm_batch", "_expm3_batch"):
        monkeypatch.setattr(opalg, name, counted(getattr(opalg, name)))
    prob = FKProblem(A, B, 1.0, TimeGrid(1.0, 130))
    blocks = -(-130 // fkmatrix.BLOCK)
    runs = [lambda: estimate_generalized_fk(prob, 64, RngStream(17), 16),
            lambda: check_duhamel(prob, 64, 12, RngStream(17), 16)]
    if not np.any(B):
        runs.append(lambda: check_nov_identity(prob, 64, RngStream(17), 16))
    for run in runs:
        calls.clear()
        run()  # 2 chunks
        assert calls == [shared] * (2 * blocks)


def test_shared_factor_pair_counts_both_sides_in_the_budget(monkeypatch):
    # one block of 64 pairs' factors is 128 paths x BLOCK steps x 2 x 2
    # complex whether the sides share the closed form (B = 0) or not
    # (B = sigma_z): one double short of it both are rejected before any
    # factor is built, and in it both run
    def refuse(*args, **kwargs):
        raise AssertionError("step_factors ran")

    block_bytes = 128 * fkmatrix.BLOCK * 4 * 16
    grid = TimeGrid(1.0, fkmatrix.BLOCK)
    for B in (Z2, SZ):
        prob = FKProblem((SX, SY), B, 1.0, grid)
        with monkeypatch.context() as patch:
            patch.setattr(wiener, "MAX_INCREMENT_BYTES", block_bytes - 8)
            patch.setattr(fkmatrix, "step_factors", refuse)
            with pytest.raises(ValueError, match="budget"):
                estimate_generalized_fk(prob, 128, RngStream(12))
        with monkeypatch.context() as patch:
            patch.setattr(wiener, "MAX_INCREMENT_BYTES", block_bytes)
            est = estimate_generalized_fk(prob, 128, RngStream(12))
        assert np.all(np.isfinite(est.mean))


# estimator and call on 2 * 128 paths in one chunk
MATRIX_MEMORY_CASES = {
    "generalized_fk": lambda grid: estimate_generalized_fk(
        FKProblem((SX, SY), SZ, 1.0, grid), 256, RngStream(16), 128),
    "nov_identity": lambda grid: check_nov_identity(
        FKProblem((SX, SY), Z2, 1.0, grid), 256, RngStream(16), 128),
    "duhamel": lambda grid: check_duhamel(
        FKProblem((SX,), SZ, 1.0, grid), 256, 12, RngStream(16), 128),
}


def _chunk_peak(estimator: str, n_steps: int) -> int:
    """Traced peak of one chunk of ``estimator``, increments included."""
    tracemalloc.start()
    try:
        MATRIX_MEMORY_CASES[estimator](TimeGrid(1.0, n_steps))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimator", MATRIX_MEMORY_CASES)
def test_matrix_chunk_memory_does_not_grow_with_steps(estimator):
    # the walk draws one block of increments for both sides and holds one
    # block of factors and the carried products, so 4 times the steps
    # adds nothing
    short, long = (_chunk_peak(estimator, n) for n in (256, 1024))
    assert long <= 1.1 * short + 2**16, (short, long)


@pytest.mark.parametrize("estimator", ["nov_identity", "duhamel"])
def test_carried_product_pins_no_block(estimator):
    # one block against several: a carried T that is a view into a block's
    # prefixes would keep that block alive while the next one is built
    one, several = (_chunk_peak(estimator, n)
                    for n in (fkmatrix.BLOCK, 256))
    assert several <= 1.1 * one + 2**16, (one, several)


def test_product_formula_ladder():
    Ap = np.array([[0, 1], [0, 0]], dtype=complex)
    Am = Ap.conj().T.copy()
    target = product_formula_target(Ap, Am, Z2, 1.0)
    assert np.allclose(target, math.exp(-1.0) * np.eye(2), atol=1e-12)
    est = estimate_product_formula(Ap, Am, Z2, TimeGrid(1.0, 128), 20000,
                                   RngStream(9))
    frob = np.linalg.norm(est.mean - target)
    assert frob <= max(3 * np.linalg.norm(est.stderr), 1e-2)


def test_product_formula_with_drift():
    Ap = np.array([[0, 1], [0, 0]], dtype=complex)
    Am = Ap.conj().T.copy()
    est = estimate_product_formula(Ap, Am, 0.4 * SZ, TimeGrid(0.5, 128),
                                   20000, RngStream(10))
    target = product_formula_target(Ap, Am, 0.4 * SZ, 0.5)
    frob = np.linalg.norm(est.mean - target)
    assert frob <= max(3 * np.linalg.norm(est.stderr), 1e-2)


@pytest.mark.parametrize("dims", [(1, 2), (2, 3)])
def test_product_formula_rejects_operands_of_different_sizes(dims):
    Ap, Am = (np.eye(n, dtype=complex) for n in dims)
    B = np.zeros((dims[1], dims[1]), dtype=complex)
    with pytest.raises(ValueError, match="dimension"):
        estimate_product_formula(Ap, Am, B, TimeGrid(1.0, 8), 8,
                                 RngStream(11))
    with pytest.raises(ValueError, match="dimension"):
        product_formula_target(Ap, Am, B, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        product_formula_target(Am, Am, np.zeros_like(Ap), 1.0)


def test_minimum_path_count():
    prob = FKProblem((SX,), Z2, 1.0, TimeGrid(1.0, 8))
    with pytest.raises(ValueError):
        estimate_generalized_fk(prob, 1, RngStream(11))


def test_odd_path_count_rejected():
    # antithetic estimators pair every path with its reflection
    prob = FKProblem((SX,), Z2, 1.0, TimeGrid(1.0, 8))
    with pytest.raises(ValueError, match="even"):
        estimate_generalized_fk(prob, 7, RngStream(11))
    with pytest.raises(ValueError, match="even"):
        estimate_product_formula(SX, Z2, Z2, TimeGrid(1.0, 8), 7,
                                 RngStream(11))


def test_factor_block_over_budget_rejected_before_any_factor(monkeypatch):
    # 32768 paths x 32 steps x 9 x 9 complex is 1.27 GiB, over the 1 GiB
    # budget; 8 pairs of the same problem run
    def refuse(*args, **kwargs):
        raise AssertionError("step_factors ran")

    A9 = np.diag(np.linspace(-1.0, 1.0, 9)).astype(complex)
    prob = FKProblem((A9,), np.zeros((9, 9)), 1.0, TimeGrid(1.0, 64))
    with monkeypatch.context() as patch:
        patch.setattr(fkmatrix, "step_factors", refuse)
        with pytest.raises(ValueError, match="budget"):
            estimate_generalized_fk(prob, 2 * 16384, RngStream(12))
    est = estimate_generalized_fk(prob, 16, RngStream(12))
    assert est.mean.shape == (9, 9) and np.all(np.isfinite(est.mean))
