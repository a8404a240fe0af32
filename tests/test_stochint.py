"""Alpha-point stochastic sums and the Ito/Stratonovich conversion."""

import numpy as np
import pytest

from fklab.stochint import (STRATONOVICH, AlphaScheme, FieldWithDivergence,
                            alpha_integral_batch, convert_check_batch,
                            time_integral_batch)
from fklab.streams import RngStream
from fklab.wiener import PathBatch, TimeGrid, sample_paths

from oracles import loglog_slope

LINEAR = FieldWithDivergence(lambda x, s: x,
                             lambda x, s: np.full(x.shape[:-1], 1.0))


def test_alpha_range_enforced():
    with pytest.raises(ValueError):
        AlphaScheme(-0.1)
    with pytest.raises(ValueError):
        AlphaScheme(1.1)
    assert AlphaScheme(0.5).alpha == STRATONOVICH


def test_ito_sum_linear_field_closed_form():
    # sum w_{v-1} (w_v - w_{v-1}) = (w_n^2 - sum dw^2) / 2
    g = TimeGrid(1.0, 128)
    batch = sample_paths(g, 1, 200, RngStream(1))
    ito = alpha_integral_batch(batch, LINEAR, AlphaScheme(0.0))
    w = batch.values[:, :, 0]
    expected = 0.5 * (w[:, -1] ** 2 - (np.diff(w, axis=1) ** 2).sum(axis=1))
    assert np.allclose(ito, expected, atol=1e-12)


def test_stratonovich_sum_linear_field_telescopes():
    # midpoint positions make sum exactly w_t^2 / 2 for g(x) = x
    g = TimeGrid(1.0, 128)
    batch = sample_paths(g, 1, 200, RngStream(2))
    strat = alpha_integral_batch(batch, LINEAR, AlphaScheme(0.5))
    assert np.allclose(strat, 0.5 * batch.values[:, -1, 0] ** 2, atol=1e-12)


def test_time_integral_trapezoid():
    g = TimeGrid(1.0, 4)
    values = np.zeros((1, 5, 1))
    values[0, :, 0] = [0.0, 1.0, 2.0, 3.0, 4.0]
    batch = PathBatch(g, values)
    out = time_integral_batch(batch, lambda x, s: x[..., 0])
    assert out[0] == pytest.approx(2.0)


def test_time_integral_nonfinite_raises():
    g = TimeGrid(1.0, 4)
    batch = sample_paths(g, 1, 3, RngStream(3))
    with pytest.raises(FloatingPointError):
        time_integral_batch(batch, lambda x, s: 1.0 / (x[..., 0] - x[..., 0]))


def test_conversion_residual_zero_at_half():
    g = TimeGrid(1.0, 64)
    batch = sample_paths(g, 1, 100, RngStream(4))
    res = convert_check_batch(batch, LINEAR, AlphaScheme(0.5))
    assert np.all(res == 0.0)


def test_conversion_mean_square_slope():
    ms = {0.0: [], 1.0: []}
    steps = [64, 128, 256, 512, 1024]
    for n in steps:
        g = TimeGrid(1.0, n)
        batch = sample_paths(g, 1, 2000, RngStream(5))
        for alpha in ms:
            r = convert_check_batch(batch, LINEAR, AlphaScheme(alpha))
            ms[alpha].append(float((r**2).mean()))
    for alpha, series in ms.items():
        slope = loglog_slope(steps, series)
        assert -1.3 <= slope <= -0.7, f"alpha={alpha}: slope {slope}"


def test_time_integral_of_time_on_one_path():
    g = TimeGrid(1.0, 32)
    batch = sample_paths(g, 2, 1, RngStream(6))
    out = time_integral_batch(batch, lambda x, s: s)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(0.5)


def test_time_dependent_field_uses_alpha_times():
    g = TimeGrid(1.0, 2)
    values = np.zeros((1, 3, 1))
    values[0, :, 0] = [0.0, 1.0, 1.0]
    batch = PathBatch(g, values)
    field = FieldWithDivergence(lambda x, s: s[..., None] * 0 + s[..., None],
                                lambda x, s: np.zeros(x.shape[:-1]))
    out = alpha_integral_batch(batch, field, AlphaScheme(1.0))
    # alpha = 1 evaluates at the right endpoint times 0.5, 1.0
    assert out[0] == pytest.approx(0.5 * 1.0 + 1.0 * 0.0)
