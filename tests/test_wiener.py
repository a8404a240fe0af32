"""Wiener-measure sampling, bridges, and characteristic functionals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab import wiener
from fklab.mc import mc_run
from fklab.streams import RngStream
from fklab.wiener import TestFunction as PathTestFunction
from fklab.wiener import (MAX_INCREMENT_BYTES, TimeGrid, block_trapezoid,
                          bridge_from_free, estimate_char_functional,
                          estimate_covariance,
                          estimate_white_noise_functional, increment_blocks,
                          path_blocks, paths_from_increments,
                          sample_increments)

from oracles import (double_min_integral, full_char_samples,
                     full_covariance_chunk, full_white_noise_samples,
                     whole_bridges, whole_free_paths, whole_increments)


def walked(grid, d, n_paths, seed, endpoint=None, block=wiener.BLOCK,
           start=0.0):
    """Whole paths (n_paths, n+1, d), the oracles' layout, concatenated from
    the time-major blocks of ``path_blocks`` on stream ``seed``: free from
    ``start``, or bridges from ``start`` to ``endpoint``."""
    rows = []
    blocks = increment_blocks(grid, d, n_paths, RngStream(seed).generator(),
                              block)
    e = None if endpoint is None else np.asarray(endpoint, dtype=float)
    for k0, w in path_blocks(grid, blocks, start, e):
        # every block, the partial last one and bridges too, is one
        # C-contiguous (m+1, n_paths, d) array
        assert 2 <= w.shape[0] <= block + 1
        assert w.shape[1:] == (n_paths, d) and w.flags.c_contiguous
        rows.append((w[1:] if k0 else w).copy())  # the buffer is reused
    return np.concatenate(rows, axis=0).swapaxes(0, 1)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert np.allclose(g.times(), 0.25 * np.arange(9))


def test_increment_statistics():
    g = TimeGrid(2.0, 64)
    gen = RngStream(0).generator()
    dw = sample_increments(g, 3, 4000, gen, 64)
    assert dw.shape == (64, 4000, 3)  # time-major
    assert dw.var() == pytest.approx(g.dt, rel=0.05)


def test_increments_are_scaled_in_place_bitwise():
    # the draw is scaled by sqrt(dt) in place: the bits of
    # standard_normal(shape) * sqrt(dt), and no second block at the peak;
    # 64 KiB is below the 256 KiB from which numpy itself reuses a
    # temporary operand of * as its output
    g = TimeGrid(0.7, 16)
    ref = RngStream(48).generator().standard_normal((16, 256, 2)) \
        * np.sqrt(g.dt)
    tracemalloc.start()
    try:
        got = sample_increments(g, 2, 256, RngStream(48).generator(), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == ref.tobytes()
    assert peak < 1.5 * got.nbytes, (peak, got.nbytes)


def test_paths_from_increments_cumsum():
    g = TimeGrid(1.0, 3)
    dw = np.array([[[1.0], [2.0], [-1.0]]])
    vals = paths_from_increments(g, dw)
    assert np.allclose(vals[0, :, 0], [0.0, 1.0, 3.0, 2.0])


def test_increment_budget_rejected_before_allocating():
    # a block of 10**9 steps of one path would take 8 GB, and one chunk's
    # second moments at three nodes in d = 64 4.5 GiB: the check comes first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            sample_increments(TimeGrid(1.0, 10**9), 1, 1,
                              RngStream(0).generator(), 10**9)
        with pytest.raises(ValueError, match="second moments"):
            estimate_covariance(TimeGrid(1.0, 4), 64, 16384, RngStream(0),
                                [1, 2, 3])
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    steps = MAX_INCREMENT_BYTES // 24 + 1
    with pytest.raises(ValueError, match="budget"):
        sample_increments(TimeGrid(1.0, steps), 3, 1,
                          RngStream(0).generator(), steps)


def test_a_walk_of_any_length_draws_one_block_at_a_time():
    # 10**9 steps are drawn as blocks of BLOCK steps, never as one array
    blocks = increment_blocks(TimeGrid(1.0, 10**9), 3, 2,
                              RngStream(0).generator())
    assert next(blocks).shape == (wiener.BLOCK, 2, 3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_steps=st.integers(1, 70), block=st.integers(1, 20),
       d=st.integers(1, 3), bridge=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_path_blocks_are_the_full_paths_bitwise(n_steps, block, d, bridge,
                                                seed):
    g = TimeGrid(1.0, n_steps)
    draw = np.random.default_rng(seed)
    start = draw.uniform(-1.0, 1.0, d)
    endpoint = draw.uniform(-2.0, 2.0, d) if bridge else None
    dw = whole_increments(g, d, 5, RngStream(seed).generator())
    full = whole_free_paths(dw, start) if endpoint is None \
        else whole_bridges(g, dw, start, endpoint)
    got = walked(g, d, 5, seed, endpoint, block, start)
    assert got.tobytes() == full.tobytes()


@pytest.mark.parametrize("bridge", [False, True], ids=["free", "bridge"])
@pytest.mark.parametrize("block", [1, 7, 16, None], ids=str)
def test_walk_is_the_whole_draw_oracle_bitwise(block, bridge):
    # the blocks concatenate to one time-major draw whatever their size,
    # so the walk is the oracle's whole cumsum, or its forward bridge
    g = TimeGrid(1.3, 53)
    endpoint = np.array([0.4, -1.1, 2.0]) if bridge else None
    dw = whole_increments(g, 3, 17, RngStream(45).generator())
    full = whole_free_paths(dw) if endpoint is None \
        else whole_bridges(g, dw, 0.0, endpoint)
    got = walked(g, 3, 17, 45, endpoint, block or g.n_steps)
    assert got.tobytes() == full.tobytes()


def test_bridge_moments_at_three_nodes():
    # mean s e / t and covariance s_j (t - s_k) / t for s_j <= s_k
    g, e = TimeGrid(1.5, 64), np.array([0.8])
    nodes = np.array([16, 32, 48])
    x = walked(g, 1, 40000, 46, e)[:, nodes, 0]
    s = nodes * g.dt
    mean_err = np.abs(x.mean(axis=0) - s * e[0] / g.t_end)
    assert np.all(mean_err <= 4 * x.std(axis=0) / math.sqrt(len(x)))
    dev = x - x.mean(axis=0)
    prod = dev[:, :, None] * dev[:, None, :]
    lo, hi = np.minimum.outer(s, s), np.maximum.outer(s, s)
    cov_err = np.abs(prod.mean(axis=0) - lo * (g.t_end - hi) / g.t_end)
    assert np.all(cov_err <= 4 * prod.std(axis=0) / math.sqrt(len(x)))


def test_bridge_endpoint_bit_exact():
    g = TimeGrid(1.5, 37)
    endpoint = np.array([0.3, -1.7])
    batch = walked(g, 2, 50, 3, endpoint)
    assert np.all(batch[:, -1, :] == endpoint)
    assert np.all(batch[:, 0, :] == 0.0)
    single = walked(g, 2, 1, 4, endpoint)
    assert np.all(single[0, -1] == endpoint)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n_steps=st.integers(1, 64),
       log_t=st.floats(-3.0, 2.0), n_paths=st.integers(1, 5),
       data=st.data())
def test_bridge_endpoint_pinned_for_any_grid(d, n_steps, log_t, n_paths, data):
    endpoint = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d,
                                  max_size=d))
    seed = data.draw(st.integers(0, 2**32 - 1))
    batch = walked(TimeGrid(10.0**log_t, n_steps), d, n_paths, seed,
                   endpoint)
    assert batch.shape == (n_paths, n_steps + 1, d)
    assert np.all(batch[:, -1, :] == np.asarray(endpoint))
    assert np.all(batch[:, 0, :] == 0.0)
    assert np.all(np.isfinite(batch))


def test_bridge_midpoint_variance():
    # Var of a standard bridge at t/2 is t/4
    g = TimeGrid(1.0, 64)
    mid = walked(g, 1, 40000, 5, [0.0])[:, 32, 0]
    assert mid.mean() == pytest.approx(0.0, abs=4 * 0.5 / 200)
    assert mid.var() == pytest.approx(0.25, rel=0.05)


def test_covariance_matches_min():
    g = TimeGrid(1.0, 64)
    idx = [16, 32, 48]
    est = estimate_covariance(g, 2, 40000, RngStream(6), idx)
    times = np.array(idx) * g.dt
    second = est.mean[6:].reshape(3, 3, 2, 2)
    err = est.stderr[6:].reshape(3, 3, 2, 2)
    target = (np.minimum.outer(times, times)[:, :, None, None]
              * np.eye(2)[None, None])
    assert np.all(np.abs(second - target) <= 4 * err + 1e-12)


def test_char_functional_indicator_oracle():
    g = TimeGrid(1.0, 256)
    c = math.sqrt(2.0)
    f = PathTestFunction(lambda s: np.full((len(s), 1), c), 1.0)
    est = estimate_char_functional(g, f, 20000, RngStream(8))
    target = math.exp(-0.5 * c**2 * double_min_integral(1.0))
    assert target == pytest.approx(math.exp(-1 / 3), abs=1e-5)
    assert abs(est.mean - target) <= 4 * est.stderr


def test_white_noise_functional_indicator():
    g = TimeGrid(1.0, 256)
    f = PathTestFunction(lambda s: np.ones((len(s), 1)), 1.0)
    est = estimate_white_noise_functional(g, f, 20000, RngStream(9))
    assert abs(est.mean - math.exp(-0.5)) <= 4 * est.stderr


def test_white_noise_functional_peak_is_the_walks():
    # the white-noise term reads f only at the block's midpoints and holds
    # one row of increments at a time, so its peak is the walk's own, no
    # higher than the char functional's (331.9 KiB against 268 KiB when it
    # went through alpha_term's midpoint positions); 256 paths, 64 steps
    g = TimeGrid(1.0, 64)
    f = _test_function(2, 5)
    peaks = []
    for estimate in (estimate_char_functional,
                     estimate_white_noise_functional):
        estimate(g, f, 256, RngStream(5))
        tracemalloc.start()
        try:
            estimate(g, f, 256, RngStream(5))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0], peaks


def test_support_beyond_horizon_rejected():
    g = TimeGrid(1.0, 16)
    f = PathTestFunction(lambda s: np.ones((len(s), 1)), 2.0)
    with pytest.raises(ValueError):
        estimate_char_functional(g, f, 10, RngStream(10))
    with pytest.raises(ValueError):
        estimate_white_noise_functional(g, f, 10, RngStream(10))


def test_bridge_linear_drift_transform():
    # the transform subtracts s/t times the endpoint mismatch
    g = TimeGrid(2.0, 4)
    free = np.zeros((1, 5, 1))
    free[0, :, 0] = [0.0, 1.0, 1.0, 1.0, 2.0]
    pinned = bridge_from_free(g, free, np.array([0.0]))
    assert np.allclose(pinned[0, :, 0], [0.0, 0.5, 0.0, -0.5, 0.0])


def test_block_trapezoid_weights_sum_to_the_grid_rule():
    g = TimeGrid(1.0, 37)
    walk = path_blocks(g, increment_blocks(g, 1, 1, RngStream(0).generator()))
    blocks = [block_trapezoid(g, k0, w.shape[0] - 1) for k0, w in walk]
    assert [lo for lo, _ in blocks] == [0, 1, 1]
    weights = np.concatenate([w for _, w in blocks])
    expected = np.full(38, g.dt)
    expected[[0, -1]] /= 2
    assert weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize("nodes", [[-1], [65], [0, 65]])
def test_covariance_rejects_nodes_off_the_grid(nodes, monkeypatch):
    # -1 read the endpoint and 65 failed inside a chunk; now both are
    # input errors found before any increment is drawn
    def sample(*args):
        raise AssertionError("increments were drawn")

    monkeypatch.setattr(wiener, "sample_increments", sample)
    with pytest.raises(ValueError, match="node indices"):
        estimate_covariance(TimeGrid(1.0, 64), 2, 100, RngStream(11), nodes)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n_steps=st.sampled_from([1, 15, 16, 17, 53]), d=st.integers(1, 3),
       n_nodes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_covariance_is_the_full_path_oracle_bitwise(n_steps, d, n_nodes,
                                                     seed):
    g = TimeGrid(1.0, n_steps)
    idx = np.random.default_rng(seed).integers(0, n_steps + 1, n_nodes)
    est = estimate_covariance(g, d, 40, RngStream(seed), idx, chunk_size=16)
    ref = mc_run(full_covariance_chunk(g, d, idx), 40, RngStream(seed), 16)
    assert est.mean.tobytes() == ref.mean.tobytes()
    assert est.stderr.tobytes() == ref.stderr.tobytes()


def _test_function(d, seed):
    k = np.random.default_rng(seed).uniform(-2.0, 2.0, (2, d))
    return PathTestFunction(
        lambda s: np.cos(np.outer(s, k[0])) + np.outer(s, k[1]), 1.0)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_steps=st.sampled_from([1, 15, 16, 17, 53]), d=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_linear_functionals_match_full_path_oracle(n_steps, d, seed):
    # one path per estimate, so the estimate is that path's sample
    g = TimeGrid(1.0, n_steps)
    f = _test_function(d, seed)
    w = whole_free_paths(whole_increments(g, d, 1,
                                          RngStream(seed).generator()))
    for estimate, oracle in ((estimate_char_functional, full_char_samples),
                             (estimate_white_noise_functional,
                              full_white_noise_samples)):
        value = estimate(g, f, 1, RngStream(seed)).mean
        ref = oracle(g, w, f)[0]
        assert abs(value - ref) <= 1e-13


# each chunked path estimator of this module on 100 paths of 37 steps in
# d = 2, called with (rng, chunk_size, workers)
_G37 = TimeGrid(1.0, 37)
PATH_ESTIMATORS = {
    "covariance": lambda rng, c, w: estimate_covariance(
        _G37, 2, 100, rng, [5, 16, 37], chunk_size=c, workers=w),
    "char_functional": lambda rng, c, w: estimate_char_functional(
        _G37, _test_function(2, 0), 100, rng, c, w),
    "white_noise_functional": lambda rng, c, w:
        estimate_white_noise_functional(_G37, _test_function(2, 0), 100, rng,
                                        c, w),
}


@pytest.mark.parametrize("estimator", sorted(PATH_ESTIMATORS))
def test_path_estimates_do_not_depend_on_workers(estimator):
    runs = [PATH_ESTIMATORS[estimator](RngStream(43), 32, workers)
            for workers in (1, 2)]
    assert repr(runs[0]) == repr(runs[1])


def test_char_and_white_noise_draw_the_same_increments():
    # f = 1 makes the white-noise sum w(1), and so does a char-functional
    # f that puts 2 / dt on the last node, whose trapezoid weight is dt / 2
    g = TimeGrid(1.0, 8)
    one = PathTestFunction(lambda s: np.ones((len(s), 1)), 1.0)
    delta = PathTestFunction(
        lambda s: np.where(s == 1.0, 2 / g.dt, 0.0)[:, None], 1.0)
    white = estimate_white_noise_functional(g, one, 50, RngStream(44))
    char = estimate_char_functional(g, delta, 50, RngStream(44))
    assert abs(white.mean - char.mean) <= 1e-14
