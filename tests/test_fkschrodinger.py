"""Schroedinger-semigroup estimators, kernels, and Kato-class diagnostics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fklab import fkschrodinger, wiener
from fklab.fkschrodinger import (POTENTIAL_PRESETS, PathRejectionOverflow,
                                 PotentialConfig, _functional_columns,
                                 _outside_box, apply_semigroup,
                                 diamagnetic_check, free_kernel, gauge_check,
                                 box_kappa, kato_kappa, kernel,
                                 khasminskii_check, mehler_kernel,
                                 preset_potential)
from fklab.stochint import (AlphaScheme, FieldWithDivergence,
                            convert_check_batch)
from fklab.opalg import gauss_legendre
from fklab.streams import RngStream
from fklab.wiener import BLOCK as _BLOCK
from fklab.wiener import TestFunction as PathTestFunction
from fklab.wiener import (MAX_INCREMENT_BYTES, TimeGrid,
                          estimate_char_functional, estimate_covariance,
                          estimate_white_noise_functional, increment_blocks)

from oracles import (full_leak_mask, full_path_columns, harmonic_grid_kernel,
                     well_kato_oracle, whole_bridges, whole_free_paths,
                     whole_increments)


def gauss_psi(width=1.0, center=0.0):
    def f(x):
        return np.exp(-np.sum((x - center) ** 2, axis=-1) / (2 * width**2))
    return f


def harmonic_ground(d=1):
    def f(x):
        return math.pi ** (-d / 4) * np.exp(-0.5 * np.sum(x**2, axis=-1))
    return f


# ---------------------------------------------------------------------------
# configuration plumbing


def test_preset_unknown_name_and_params():
    with pytest.raises(ValueError):
        preset_potential("nonsense")
    with pytest.raises(ValueError):
        preset_potential("harmonic", omega=1.0, typo=3)


def test_eval_v_from_parts_and_free():
    well = preset_potential("constant-well", height=0.5, halfwidth=1.0)
    x = np.array([[0.0], [2.0]])
    assert np.allclose(well.eval_v(x), [-0.5, 0.0])
    assert np.allclose(well.eval_v_minus(x), [0.5, 0.0])
    free = preset_potential("free", d=2)
    assert free.eval_v(np.zeros((4, 2))).shape == (4,)
    assert np.all(free.eval_v(np.zeros((4, 2))) == 0.0)
    # the negative part follows from v alone, for every preset
    for name in POTENTIAL_PRESETS:
        pot = preset_potential(name)
        axis = np.linspace(-3.0, 3.0, 7)
        probes = np.stack(np.meshgrid(*([axis] * pot.d), indexing="ij"),
                          axis=-1).reshape(-1, pot.d)
        expected = np.maximum(-pot.eval_v(probes), 0)
        assert pot.eval_v_minus(probes).tobytes() == expected.tobytes(), name


# ---------------------------------------------------------------------------
# semigroup action and kernels


def test_free_semigroup_gaussian_closed_form():
    # exp(t Lap/2) on exp(-x^2/2) is (1+t)^(-1/2) exp(-x^2/(2(1+t)))
    pot = preset_potential("free", d=1)
    q, t = 0.4, 0.5
    est = apply_semigroup(pot, gauss_psi(), [q], 20000, TimeGrid(t, 64),
                          RngStream(20))
    target = (1 + t) ** -0.5 * math.exp(-q**2 / (2 * (1 + t)))
    assert abs(est.mean - target) <= 4 * est.stderr


def test_harmonic_ground_state_decay():
    # the ground state decays by exp(-t d/2) under the semigroup
    pot = preset_potential("harmonic")
    t = 0.8
    est = apply_semigroup(pot, harmonic_ground(), [0.3], 40000,
                          TimeGrid(t, 128), RngStream(21))
    target = math.exp(-0.5 * t) * harmonic_ground()(np.array([[0.3]]))[0]
    assert abs(est.mean - target) <= 4 * est.stderr


def test_free_kernel_zero_variance():
    pot = preset_potential("free", d=2)
    est = kernel(pot, [0.0, 0.0], [0.5, -0.3], 500, TimeGrid(0.7, 32),
                 RngStream(22))
    target = free_kernel(2, np.array([0.5, -0.3]), 0.7)
    assert est.mean == pytest.approx(target, abs=1e-14)
    assert est.stderr == 0.0


def test_harmonic_kernel_mehler_and_grid_oracle():
    pot = preset_potential("harmonic")
    q, qp, t = 0.2, -0.5, 1.0
    est = kernel(pot, [q], [qp], 40000, TimeGrid(t, 128), RngStream(23))
    closed = mehler_kernel(q, qp, t)
    independent = harmonic_grid_kernel(q, qp, t)
    assert closed == pytest.approx(independent, rel=1e-4)
    assert abs(est.mean - closed) <= max(4 * est.stderr, 0.01 * closed)


def linear_chi(c):
    """The gauge chi(x) = c sum_j x_j and its gradient."""
    return lambda x: c * np.sum(x, axis=-1), lambda x: np.full_like(x, c)


def sine_chi(amp, k):
    """The gauge chi(x) = amp sin(k sum_j x_j) and its gradient."""
    return (lambda x: amp * np.sin(k * np.sum(x, axis=-1)),
            lambda x: amp * k * np.cos(k * x))


# each scalar path estimator on 100 paths, called with (pot, grid, rng)
# and optional chunk_size / workers keywords; the horizon is grid.t_end
SCALAR_ESTIMATORS = {
    "apply_semigroup": lambda pot, grid, rng, **kw: apply_semigroup(
        pot, gauss_psi(), [0.0], 100, grid, rng, **kw),
    "kernel": lambda pot, grid, rng, **kw: kernel(
        pot, [0.0], [1.0], 100, grid, rng, **kw),
    "gauge_check": lambda pot, grid, rng, **kw: gauge_check(
        pot, *linear_chi(0.4), [0.0], [1.0], 100, grid, rng, **kw),
    "diamagnetic_check": lambda pot, grid, rng, **kw: diamagnetic_check(
        pot, gauss_psi(), [0.0], 100, grid, rng, **kw),
    "khasminskii_check": lambda pot, grid, rng, **kw: khasminskii_check(
        pot, [0.0], 100, grid, rng, **kw),
}


@pytest.mark.parametrize("estimator", sorted(SCALAR_ESTIMATORS))
def test_points_off_the_dimension_rejected(estimator):
    # each estimator starts its paths at q = [0.0], of length 1, in d = 2
    pot = preset_potential("free", d=2)
    with pytest.raises(ValueError, match="not d = 2"):
        SCALAR_ESTIMATORS[estimator](pot, TimeGrid(1.0, 16), RngStream(24))


@pytest.mark.parametrize("q, qp", [([0.0], [0.5]), ([0.0] * 3, [0.5]),
                                   ([0.0], [0.5] * 3)])
def test_kernel_endpoints_off_the_dimension_rejected(q, qp):
    # q = [0], q' = [0.5] used to broadcast over d = 3 paths and give 0.0387
    pot = preset_potential("harmonic", d=3)
    with pytest.raises(ValueError, match="not d = 3"):
        kernel(pot, q, qp, 100, TimeGrid(1.0, 16), RngStream(24))


@pytest.mark.parametrize("estimator", sorted(SCALAR_ESTIMATORS))
def test_estimates_do_not_depend_on_workers(estimator):
    # chunks of 32 of the 100 paths, the last one partial, and 37 steps,
    # so the time walk ends mid-block
    pot = PotentialConfig(d=1, v=lambda x: 0.1 * np.sum(x**2, axis=-1) - 0.2,
                          a=lambda x: 0.5 * np.sin(x))
    grid = TimeGrid(1.0, 2 * _BLOCK + 5)
    runs = [SCALAR_ESTIMATORS[estimator](pot, grid, RngStream(37),
                                         chunk_size=32, workers=workers)
            for workers in (1, 2)]
    assert repr(runs[0]) == repr(runs[1])


def _traced_peak(call) -> int:
    """The traced peak of ``call()``, increments included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MAGNETIC = PotentialConfig(
    d=2, v=lambda x: 0.1 * np.sum(x**2, axis=-1),
    a=preset_potential("constant-magnetic-2d").a)

# estimator and call on 256 paths of a grid
MEMORY_CASES = {
    "apply_semigroup": lambda grid: apply_semigroup(
        preset_potential("harmonic", d=3), gauss_psi(), [0.1, 0.0, -0.2],
        256, grid, RngStream(38)),
    "kernel": lambda grid: kernel(
        preset_potential("harmonic"), [0.2], [-0.5], 256, grid,
        RngStream(39)),
    "gauge_check": lambda grid: gauge_check(
        MAGNETIC, lambda x: 0.3 * np.sum(np.sin(0.5 * x), axis=-1),
        lambda x: 0.15 * np.cos(0.5 * x), [0.0, 0.1], [0.3, 0.0], 256, grid,
        RngStream(40)),
    # the other path experiments: one stochint-convergence chunk, the
    # covariance at three nodes and the two linear functionals
    "convert_check_batch": lambda grid: convert_check_batch(
        grid, increment_blocks(grid, 1, 256, RngStream(41).generator()),
        FieldWithDivergence(lambda x, s: x,
                            lambda x, s: np.ones(x.shape[:-1])),
        AlphaScheme(0.0)),
    "estimate_covariance": lambda grid: estimate_covariance(
        grid, 2, 256, RngStream(42),
        [grid.n_steps // 4, grid.n_steps // 2, grid.n_steps]),
    "estimate_char_functional": lambda grid: estimate_char_functional(
        grid, PathTestFunction(lambda s: np.ones((len(s), 2)), 1.0), 256,
        RngStream(43)),
    "estimate_white_noise_functional": lambda grid:
        estimate_white_noise_functional(
            grid, PathTestFunction(lambda s: np.ones((len(s), 2)), 1.0), 256,
            RngStream(44)),
}


@pytest.mark.parametrize("estimator", sorted(MEMORY_CASES))
def test_chunk_memory_does_not_grow_with_steps(estimator):
    # the walk draws its increments a block at a time and holds a few
    # blocks of them and of positions, so 16 times the steps adds nothing
    short, long = (_traced_peak(lambda: MEMORY_CASES[estimator](
        TimeGrid(1.0, n))) for n in (64, 1024))
    assert long <= 1.1 * short + 2**16, (short, long)


@pytest.mark.parametrize("estimator", ["apply_semigroup", "kernel"])
def test_free_and_bridge_walks_hold_no_whole_increments(estimator):
    # the increments of 256 paths of 4096 steps would take 24 MiB whole in
    # d = 3 (the free walk) and 8 MiB in d = 1 (the forward bridge): each
    # walk holds one block of them
    short, long = (_traced_peak(lambda: MEMORY_CASES[estimator](
        TimeGrid(1.0, n))) for n in (256, 4096))
    assert long <= 1.1 * short + 2**16, (short, long)


@pytest.mark.parametrize("estimator", ["estimate_char_functional",
                                       "estimate_white_noise_functional"])
def test_wiener_functionals_hold_no_whole_grid_arrays(estimator):
    # times, f values or weights of all 16384 steps would take 256 KiB in
    # d = 2: each block evaluates f at its own times
    short, long = (_traced_peak(lambda: MEMORY_CASES[estimator](
        TimeGrid(1.0, n))) for n in (64, 16384))
    assert long <= 1.1 * short + 2**16, (short, long)


def _overflowing_v(x):
    """Harmonic, with an overflowing -int v for x_0 > 1.2 and v = inf for
    x_0 < -1.2."""
    v = 0.5 * np.sum(x**2, axis=-1) - 0.2
    v = np.where(x[..., 0] > 1.2, -1e6, v)
    return np.where(x[..., 0] < -1.2, np.inf, v)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_steps=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                3 * _BLOCK + 5]),
       d=st.integers(1, 3), bridge=st.booleans(), with_a=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_functionals_match_full_path_oracle(n_steps, d, bridge,
                                                    with_a, seed):
    grid = TimeGrid(0.7, n_steps)
    draw = np.random.default_rng(seed)
    q = draw.uniform(-0.5, 0.5, d)
    endpoint = draw.uniform(-1.0, 1.0, d) if bridge else None
    blocks = increment_blocks(grid, d, 64, RngStream(seed).generator())
    seen = []

    def psi(x):
        seen.append(x.copy())
        return np.exp(-np.sum(x**2, axis=-1))

    a = (lambda x: 0.7 * np.sin(x[..., ::-1]) + 0.2 * x) if with_a else None
    variants = [(a, psi), (None, None)]
    cols, finite = _functional_columns(_overflowing_v, grid, q, blocks,
                                       variants, endpoint)
    dw = whole_increments(grid, d, 64, RngStream(seed).generator())
    w = whole_bridges(grid, dw, endpoint) if bridge else whole_free_paths(dw)
    ref, ref_finite = full_path_columns(_overflowing_v, grid, q + w, variants)
    assert finite.tobytes() == ref_finite.tobytes()
    assert np.all(np.abs(cols[finite] - ref[finite])
                  <= 1e-13 * np.abs(ref[finite]))
    # psi sees the oracle's endpoints bit for bit, q + endpoint on bridges
    assert seen[0].tobytes() == seen[1].tobytes()
    if bridge:
        assert seen[0].tobytes() == np.broadcast_to(
            q + endpoint, seen[0].shape).tobytes()


@pytest.mark.parametrize("with_a", [False, True], ids=["no-a", "a"])
@pytest.mark.parametrize("n_steps", [1, _BLOCK, _BLOCK + 1], ids=str)
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bridge", [False, True], ids=["free", "bridge"])
def test_functional_columns_take_rows_or_vectors_bitwise(bridge, d, n_steps,
                                                         with_a):
    # the chunk function hands q and the endpoint over as (P, d) rows, so
    # that the walk adds arrays of one layout; (d,) vectors give the same
    # bytes, endpoint weights and rejected paths included
    grid = TimeGrid(0.7, n_steps)
    draw = np.random.default_rng(10 * d + n_steps)
    q = draw.uniform(-0.5, 0.5, d)
    endpoint = draw.uniform(-1.0, 1.0, d) if bridge else None
    a = (lambda x: 0.7 * np.sin(x[..., ::-1]) + 0.2 * x) if with_a else None
    variants = [(a, lambda x: np.exp(-np.sum(x**2, axis=-1))), (None, None)]

    def columns(q, endpoint):
        blocks = increment_blocks(grid, d, 64, RngStream(47).generator())
        return _functional_columns(_overflowing_v, grid, q, blocks, variants,
                                   endpoint)

    rows = [x if x is None else np.tile(x, (64, 1)) for x in (q, endpoint)]
    (cols, finite), (ref, ref_finite) = columns(*rows), columns(q, endpoint)
    assert cols.tobytes() == ref.tobytes()
    assert finite.tobytes() == ref_finite.tobytes()


def test_singular_potential_rejects_paths():
    pot = preset_potential("coulomb-3d", gamma=1.0)
    bad = PotentialConfig(d=pot.d, v=lambda x: np.where(
        np.sum(x**2, axis=-1) < 10.0, np.inf, 0.0), box_halfwidth=10.0)
    with pytest.raises(PathRejectionOverflow):
        apply_semigroup(bad, gauss_psi(), [0.0, 0.0, 0.0], 2000,
                        TimeGrid(0.5, 16), RngStream(25))


# ---------------------------------------------------------------------------
# gauge covariance and the diamagnetic inequality


def test_gauge_linear_chi_residual_is_exactly_zero():
    # linear chi: the Stratonovich midpoint sum telescopes pathwise
    pot = preset_potential("free", d=1)
    est = gauge_check(pot, *linear_chi(0.8), [0.0], [0.6], 400,
                      TimeGrid(1.0, 64), RngStream(26))
    assert abs(est.mean) < 1e-13
    assert est.stderr < 1e-13


def test_gauge_sine_chi_residual_consistent_with_zero():
    pot = PotentialConfig(d=1)
    # with q' = q = 0 the leading weak bias is odd in the bridge and
    # averages out, leaving the residual noise-dominated
    est = gauge_check(pot, *sine_chi(0.3, 0.5), [0.0], [0.0], 20000,
                      TimeGrid(0.25, 256), RngStream(27))
    assert abs(est.mean) <= 4 * est.stderr


def test_gauge_bias_decays_with_refinement():
    # the per-path mean residual is O(dt): halving dt roughly halves it
    pot = PotentialConfig(d=1)
    biases = []
    for n in (32, 128, 512):
        est = gauge_check(pot, *sine_chi(0.3, 0.5), [0.0], [0.4], 60000,
                          TimeGrid(1.0, n), RngStream(28))
        biases.append(abs(est.mean))
    assert biases[2] < biases[1] < biases[0]
    assert biases[2] < 0.3 * biases[0]


@pytest.mark.parametrize("estimator", ["gauge_check", "diamagnetic_check"])
def test_one_potential_evaluation_per_chunk(estimator):
    # the damping exp(-int v ds) is shared by every column of a chunk
    calls = []

    def v(x):
        calls.append(x.shape)
        return 0.1 * np.sum(x**2, axis=-1)

    pot = PotentialConfig(d=1, v=v)
    # 100 paths are one chunk
    SCALAR_ESTIMATORS[estimator](pot, TimeGrid(1.0, 8), RngStream(34))
    assert calls == [(9, 100, 1)]  # time-major


def test_diamagnetic_inequality():
    pot = preset_potential("constant-magnetic-2d", b0=1.5)
    with_a, without_a = diamagnetic_check(pot, gauss_psi(), [0.4, 0.1],
                                          20000, TimeGrid(1.0, 64),
                                          RngStream(30))
    gap = abs(with_a.mean) - without_a.mean.real
    assert gap <= 4 * (with_a.stderr + without_a.stderr)


def test_diamagnetic_equality_without_field():
    pot = preset_potential("free", d=1)

    def psi(x):
        return np.exp(-np.sum(x**2, axis=-1))

    with_a, without_a = diamagnetic_check(pot, psi, [0.0], 500,
                                          TimeGrid(0.5, 16), RngStream(31))
    assert with_a.mean == pytest.approx(without_a.mean, abs=1e-14)


# ---------------------------------------------------------------------------
# Kato-class diagnostics


def test_kato_constant_potential_exact():
    # (heat_s * c)(x) = c, so kappa = c t for any probe set
    c, t = 0.7, 0.8
    probes = np.linspace(-2, 2, 9)[:, None]
    kappa = kato_kappa(lambda x: np.full(x.shape[:-1], c), TimeGrid(t, 48),
                       probes, box_halfwidth=np.inf)
    assert kappa == pytest.approx(c * t, abs=1e-12)


def test_kato_well_matches_dense_oracle():
    height, halfwidth, t = 0.4, 1.0, 0.8
    well = preset_potential("constant-well", height=height,
                            halfwidth=halfwidth)
    probes = np.linspace(-4, 4, 65)[:, None]
    kappa = kato_kappa(well.eval_v_minus, TimeGrid(t, 96), probes,
                       n_space=96, box_halfwidth=well.box_halfwidth)
    # the max over probes is attained at the center by symmetry
    oracle = well_kato_oracle(height, halfwidth, t, x=0.0)
    assert kappa == pytest.approx(oracle, rel=2e-3)


def test_kato_kappa_vanishes_with_time():
    well = preset_potential("constant-well", height=0.4, halfwidth=1.0)
    probes = np.linspace(-2, 2, 17)[:, None]
    ks = [kato_kappa(well.eval_v_minus, TimeGrid(t, 48), probes,
                     box_halfwidth=well.box_halfwidth)
          for t in (0.1, 0.2, 0.4)]
    assert 0.0 < ks[0] < ks[1] < ks[2]


def test_kato_rejects_negative_u():
    with pytest.raises(ValueError):
        kato_kappa(lambda x: -np.ones(x.shape[:-1]), TimeGrid(0.5, 48),
                   np.zeros((1, 1)))


def test_kato_box_leak_warning():
    # a constant potential is clearly not negligible outside any finite box
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kato_kappa(lambda x: np.ones(x.shape[:-1]), TimeGrid(0.5, 48),
                   np.zeros((1, 1)), box_halfwidth=0.5)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_leak_mask_matches_full_mask(d):
    # the per-axis OR is the every-coordinate mask bit for bit, on and off
    # the box edge
    gen = RngStream(60 + d).generator()
    probes = gen.uniform(-3.0, 3.0, (17, d))
    probes[0] = 2.0
    offsets = np.concatenate([gen.normal(0.0, 1.5, 9), [0.0, 1.0, -5.0]])
    for halfwidth in (0.5, 3.0, np.inf):
        mask = _outside_box(probes, offsets, halfwidth)
        assert mask.dtype == bool
        assert np.array_equal(mask, full_leak_mask(probes, offsets,
                                                   halfwidth))


@pytest.mark.parametrize("halfwidth", [0.5, 8.0])
def test_kato_leak_matches_full_mask(monkeypatch, halfwidth):
    # a d = 2 well of halfwidth 1 (v_- = 0.4 inside) leaks past the 0.5 box
    # and not past the 8 box: kappa and the warning are those of the
    # every-coordinate mask
    well = preset_potential("constant-well", d=2, height=0.4, halfwidth=1.0)
    axis = np.linspace(-halfwidth, halfwidth, 5)
    probes = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                      axis=-1).reshape(-1, 2)

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kappa = kato_kappa(well.eval_v_minus, TimeGrid(1.0, 8), probes,
                               24, halfwidth)
        return kappa, [str(w.message) for w in caught]

    kappa, warned = run()
    monkeypatch.setattr(fkschrodinger, "_outside_box", full_leak_mask)
    assert run() == (kappa, warned)
    assert kappa > 0.0
    assert len(warned) == (1 if halfwidth == 0.5 else 0)


def test_kato_nodes_rejected_before_allocating():
    # one time step of 1024^3 nodes in R^3 would take 24 GiB: the check
    # comes before the quadrature nodes and before any call of u
    def u(x):
        raise AssertionError("u was evaluated")

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            kato_kappa(u, TimeGrid(0.5, 48), np.zeros((1, 3)), 1024)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError, match="budget"):
        kato_kappa(u, TimeGrid(0.5, 48), np.zeros((1, 1)),
                   MAX_INCREMENT_BYTES // 8 + 1)


def test_kato_values_rejected_before_allocating(monkeypatch):
    # in a budget of 1000 doubles the 4 nodes of one probe fit and its
    # values at 2001 time nodes do not: the check comes before any call of u
    def u(x):
        raise AssertionError("u was evaluated")

    monkeypatch.setattr(wiener, "MAX_INCREMENT_BYTES", 8000)
    with pytest.raises(ValueError, match="Kato values"):
        kato_kappa(u, TimeGrid(0.5, 2000), np.zeros((1, 1)), 4)


def test_box_kappa_probes_rejected_before_allocating(monkeypatch):
    # in a budget of 1000 doubles the 23^2 x 2 probe coordinates of a d = 2
    # well do not fit: box_kappa checks them before it builds them
    def refuse(*args, **kwargs):
        raise AssertionError("kato_kappa ran")

    monkeypatch.setattr(wiener, "MAX_INCREMENT_BYTES", 8000)
    monkeypatch.setattr(fkschrodinger, "kato_kappa", refuse)
    well = preset_potential("constant-well", d=2)
    with pytest.raises(ValueError, match="Kato probes"):
        box_kappa(well, TimeGrid(0.5, 4), 23, 2)


def test_kato_nodes_take_linear_memory():
    # 2000 Gauss-Legendre nodes on one probe: no n_space x n_space matrix
    tracemalloc.start()
    try:
        kappa = kato_kappa(lambda x: np.ones(x.shape[:-1]), TimeGrid(0.5, 2),
                           np.zeros((1, 1)), 2000)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert abs(kappa - 0.5) <= 1e-12


def _inverse_distance(center):
    def u(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 1.0 / np.linalg.norm(x - center, axis=-1)
    return u


# a singular u on a probe (the s = 0 column), on the middle node of an odd
# n_space that sits on that probe, and on one node off the probe; and a NaN
@pytest.mark.parametrize("u, n_space", [
    (_inverse_distance(0.0), 48),
    (_inverse_distance(0.0), 49),
    (_inverse_distance(math.sqrt(0.5) * (8.0 * gauss_legendre(48)[0][30])),
     48),
    (lambda x: np.where(np.abs(x[..., 0]) > 3.0, np.nan, 0.0), 48)])
def test_kato_rejects_non_finite_u(u, n_space):
    with pytest.raises(FloatingPointError, match="not finite"):
        kato_kappa(u, TimeGrid(0.5, 1), np.zeros((1, 1)), n_space,
                   box_halfwidth=np.inf)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("halfwidth", [1.0, 8.0])
@pytest.mark.parametrize("t", [1 / 64, 0.5, 1.0])
def test_well_kappa_matches_quad(d, halfwidth, t):
    # at the centre, E v_-(B_s) = h erf(a / sqrt(2 s))^d
    well = preset_potential("constant-well", d=d, height=0.3,
                            halfwidth=halfwidth)
    ref = 0.3 * quad(lambda s: math.erf(halfwidth / math.sqrt(2 * s)) ** d,
                     0.0, t, epsabs=1e-14, epsrel=1e-13)[0]
    assert abs(well.closed.kappa(t) - ref) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("halfwidth", [0.001, 0.01, 0.03, 0.1, 0.3, 0.7])
@pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
def test_narrow_well_kappa_matches_quad(d, halfwidth, t):
    # erf(a / sqrt(2 s)) steps down at s ~ a^2 << t: quad runs on the
    # pieces [0, a^2], [a^2, 4 a^2], ... of [0, t]
    cuts = [halfwidth**2 * 4.0**k for k in range(40)
            if halfwidth**2 * 4.0**k < t]
    edges = [0.0] + cuts + [t]
    ref = math.fsum(quad(
        lambda s: math.erf(halfwidth / math.sqrt(2 * s)) ** d, lo, hi,
        epsabs=0.0, epsrel=2e-14, limit=200)[0]
        for lo, hi in zip(edges, edges[1:]))
    well = preset_potential("constant-well", d=d, height=1.0,
                            halfwidth=halfwidth)
    assert abs(well.closed.kappa(t) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("t", [1 / 64, 0.5])
def test_wide_well_kappa_is_h_t(d, t):
    # no Gaussian leaves a halfwidth-8 well by t = 0.5: erf rounds to 1
    well = preset_potential("constant-well", d=d, height=0.3, halfwidth=8.0)
    assert well.closed.kappa(t) == 0.3 * t


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("height, halfwidth", [(-1, 1.0), (0, 1.0),
                                               (0.3, -1), (0.3, 0)])
def test_no_well_has_zero_kappa(d, height, halfwidth):
    # a barrier, or a box of no width, has v_- = 0 almost everywhere
    well = preset_potential("constant-well", d=d, height=height,
                            halfwidth=halfwidth)
    assert well.closed.kappa(0.5) == 0.0


def test_well_kappa_at_the_largest_horizon_is_finite():
    # 2 t overflows at t = 1e308; kappa ~ h a sqrt(8 t / pi) is far above 1
    well = preset_potential("constant-well", height=0.3, halfwidth=1.0)
    assert 1.0 < well.closed.kappa(1e308) < math.inf


@pytest.mark.parametrize("height, halfwidth, t", [(0.3, 1.0, 0.5),
                                                  (0.4, 1.0, 0.8),
                                                  (0.3, 0.2, 1.0)])
def test_well_kappa_matches_dense_oracle(height, halfwidth, t):
    well = preset_potential("constant-well", height=height,
                            halfwidth=halfwidth)
    assert well.closed.kappa(t) == pytest.approx(
        well_kato_oracle(height, halfwidth, t), rel=1e-8)


@pytest.mark.parametrize("gamma", [1.0, 2.5, 0.0, -1.0])
def test_coulomb_kappa(gamma):
    # the sup of int_0^t E_x |x + B_s|^-1 ds is at x = 0
    pot = preset_potential("coulomb-3d", gamma=gamma)
    for t in (1 / 64, 0.25, 1.0):
        assert pot.closed.kappa(t) == pytest.approx(
            max(gamma, 0.0) * math.sqrt(8 * t / math.pi), rel=1e-15)


@pytest.mark.parametrize("name", sorted(POTENTIAL_PRESETS))
def test_every_preset_with_v_has_a_closed_kappa(name):
    # no preset with a v falls back to the Kato quadrature
    defaults, build = POTENTIAL_PRESETS[name]
    pot = build(**defaults)
    for t in (1 / 64, 0.5, 1.0):
        kappa = pot.closed.kappa(t)
        if pot.v is None:
            assert kappa is None
        else:
            assert math.isfinite(kappa) and kappa >= 0.0


def _preset_fingerprint(pot: PotentialConfig) -> tuple:
    """d, v and a on a grid of points and each closed form at one point."""
    axis = np.linspace(-3.0, 3.0, 13)
    x = np.stack(np.meshgrid(*([axis] * pot.d), indexing="ij"),
                 axis=-1).reshape(-1, pot.d)
    q, qp, c = np.full(pot.d, 0.1), np.full(pot.d, -0.3), pot.closed
    return (pot.d, pot.eval_v(x).tobytes(),
            None if pot.a is None else np.asarray(pot.a(x)).tobytes(),
            c.kernel(q, qp, 0.5), c.gaussian(1.0, qp, q, 0.5),
            c.ground(q, 0.5), c.omega, c.kappa(0.5))


@pytest.mark.parametrize("name, key", [
    (name, key) for name, (defaults, _) in sorted(POTENTIAL_PRESETS.items())
    for key in defaults])
def test_every_preset_parameter_changes_the_potential(name, key):
    # a preset parameter that no run reads would change none of these
    default = POTENTIAL_PRESETS[name][0][key]
    changed = default + 1 if isinstance(default, int) else 2 * default + 0.5
    assert _preset_fingerprint(preset_potential(name)) \
        != _preset_fingerprint(preset_potential(name, **{key: changed}))


def test_khasminskii_bound_holds():
    pot = preset_potential("constant-well", height=0.3, halfwidth=1.0)
    lhs, bound = khasminskii_check(pot, [0.0], 40000, TimeGrid(1.0, 64),
                                   RngStream(32))
    assert bound > 1.0
    assert lhs.mean.real <= bound + 4 * lhs.stderr
    assert lhs.mean.real >= 1.0  # exponential of a non-negative integral


def test_khasminskii_rejects_supercritical_kappa():
    pot = preset_potential("constant-well", height=5.0, halfwidth=2.0)
    with pytest.raises(ValueError):
        khasminskii_check(pot, [0.0], 100, TimeGrid(2.0, 8), RngStream(33))
