"""Monte Carlo verification of the matrix Feynman-Kac identities."""

import math

import numpy as np
import pytest

from fklab.fkmatrix import (FKProblem, check_duhamel, check_nov_identity,
                            estimate_generalized_fk, estimate_product_formula,
                            product_formula_target, rhs_generator)
from fklab.streams import RngStream
from fklab.wiener import TimeGrid

from oracles import taylor_expm

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)


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


def test_product_formula_ladder():
    Ap = np.array([[0, 1], [0, 0]], dtype=complex)
    Am = Ap.conj().T.copy()
    target = product_formula_target(Ap, Am, Z2, 1.0)
    assert np.allclose(target, math.exp(-1.0) * np.eye(2), atol=1e-12)
    est = estimate_product_formula(Ap, Am, Z2, 1.0, TimeGrid(1.0, 128),
                                   20000, RngStream(9))
    frob = np.linalg.norm(est.mean - target)
    assert frob <= max(3 * np.linalg.norm(est.stderr), 1e-2)


def test_product_formula_with_drift():
    Ap = np.array([[0, 1], [0, 0]], dtype=complex)
    Am = Ap.conj().T.copy()
    est = estimate_product_formula(Ap, Am, 0.4 * SZ, 0.5, TimeGrid(0.5, 128),
                                   20000, RngStream(10))
    target = product_formula_target(Ap, Am, 0.4 * SZ, 0.5)
    frob = np.linalg.norm(est.mean - target)
    assert frob <= max(3 * np.linalg.norm(est.stderr), 1e-2)


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
        estimate_product_formula(SX, Z2, Z2, 1.0, TimeGrid(1.0, 8), 7,
                                 RngStream(11))
