"""Wiener-measure sampling, bridges, and characteristic functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab.streams import RngStream
from fklab.wiener import TestFunction as PathTestFunction
from fklab.wiener import (PathBatch, TimeGrid, WienerPath,
                          bridge_from_free, estimate_char_functional,
                          estimate_covariance,
                          estimate_white_noise_functional,
                          paths_from_increments, sample_bridges,
                          sample_increments, sample_paths)

from oracles import double_min_integral


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 8)
    assert g.dt == 0.25
    assert np.allclose(g.times(), 0.25 * np.arange(9))


def test_path_must_start_at_origin():
    g = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        WienerPath(g, np.ones((5, 1)))
    with pytest.raises(ValueError):
        WienerPath(g, np.zeros((3, 1)))


def test_increment_statistics():
    g = TimeGrid(2.0, 64)
    gen = RngStream(0).generator()
    dw = sample_increments(g, 3, 4000, gen)
    assert dw.shape == (4000, 64, 3)
    assert dw.var() == pytest.approx(g.dt, rel=0.05)


def test_paths_from_increments_cumsum():
    g = TimeGrid(1.0, 3)
    dw = np.array([[[1.0], [2.0], [-1.0]]])
    vals = paths_from_increments(g, dw)
    assert np.allclose(vals[0, :, 0], [0.0, 1.0, 3.0, 2.0])


def test_bridge_endpoint_bit_exact():
    g = TimeGrid(1.5, 37)
    endpoint = np.array([0.3, -1.7])
    batch = sample_bridges(g, 2, endpoint, 50, RngStream(3))
    assert np.all(batch.values[:, -1, :] == endpoint)
    assert np.all(batch.values[:, 0, :] == 0.0)
    single = sample_bridges(g, 2, endpoint, 1, RngStream(4))
    assert np.all(single.values[0, -1] == endpoint)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n_steps=st.integers(1, 64),
       log_t=st.floats(-3.0, 2.0), n_paths=st.integers(1, 5),
       data=st.data())
def test_bridge_endpoint_pinned_for_any_grid(d, n_steps, log_t, n_paths, data):
    endpoint = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d,
                                  max_size=d))
    seed = data.draw(st.integers(0, 2**32 - 1))
    batch = sample_bridges(TimeGrid(10.0**log_t, n_steps), d, endpoint,
                           n_paths, RngStream(seed))
    assert batch.values.shape == (n_paths, n_steps + 1, d)
    assert np.all(batch.values[:, -1, :] == np.asarray(endpoint))
    assert np.all(batch.values[:, 0, :] == 0.0)
    assert np.all(np.isfinite(batch.values))


def test_bridge_midpoint_variance():
    # Var of a standard bridge at t/2 is t/4
    g = TimeGrid(1.0, 64)
    batch = sample_bridges(g, 1, [0.0], 40000, RngStream(5))
    mid = batch.values[:, 32, 0]
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
    batch = sample_paths(g, 1, 20000, RngStream(8))
    c = math.sqrt(2.0)
    f = PathTestFunction(lambda s: np.full((len(s), 1), c), 1.0)
    est = estimate_char_functional(batch, f)
    target = math.exp(-0.5 * c**2 * double_min_integral(1.0))
    assert target == pytest.approx(math.exp(-1 / 3), abs=1e-5)
    assert abs(est.mean - target) <= 4 * est.stderr


def test_white_noise_functional_indicator():
    g = TimeGrid(1.0, 256)
    batch = sample_paths(g, 1, 20000, RngStream(9))
    f = PathTestFunction(lambda s: np.ones((len(s), 1)), 1.0)
    est = estimate_white_noise_functional(batch, f)
    assert abs(est.mean - math.exp(-0.5)) <= 4 * est.stderr


def test_support_beyond_horizon_rejected():
    g = TimeGrid(1.0, 16)
    batch = sample_paths(g, 1, 10, RngStream(10))
    f = PathTestFunction(lambda s: np.ones((len(s), 1)), 2.0)
    with pytest.raises(ValueError):
        estimate_char_functional(batch, f)
    with pytest.raises(ValueError):
        estimate_white_noise_functional(batch, f)


def test_bridge_linear_drift_transform():
    # the transform subtracts s/t times the endpoint mismatch
    g = TimeGrid(2.0, 4)
    free = np.zeros((1, 5, 1))
    free[0, :, 0] = [0.0, 1.0, 1.0, 1.0, 2.0]
    pinned = bridge_from_free(g, free, np.array([0.0]))
    assert np.allclose(pinned[0, :, 0], [0.0, 0.5, 0.0, -0.5, 0.0])
