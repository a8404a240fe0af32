"""Alpha-point stochastic sums and the Ito/Stratonovich conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab.stochint import (STRATONOVICH, AlphaScheme, FieldWithDivergence,
                            alpha_integral_batch, convert_check_batch,
                            time_integral_batch)
from fklab.streams import RngStream
from fklab.wiener import TimeGrid, increment_blocks

from oracles import (full_alpha_sum, full_time_integral, loglog_slope,
                     whole_free_paths, whole_increments)

LINEAR = FieldWithDivergence(lambda x, s: x,
                             lambda x, s: np.full(x.shape[:-1], 1.0))


def increments(grid, d, n_paths, seed):
    """The increment blocks of stream ``seed``, as a list to walk again."""
    return list(increment_blocks(grid, d, n_paths,
                                 RngStream(seed).generator()))


def whole_paths(grid, d, n_paths, seed):
    """The same increments' whole free paths (n_paths, n+1, d)."""
    return whole_free_paths(whole_increments(grid, d, n_paths,
                                             RngStream(seed).generator()))


def test_alpha_range_enforced():
    with pytest.raises(ValueError):
        AlphaScheme(-0.1)
    with pytest.raises(ValueError):
        AlphaScheme(1.1)
    assert AlphaScheme(0.5).alpha == STRATONOVICH


def test_ito_sum_linear_field_closed_form():
    # sum w_{v-1} (w_v - w_{v-1}) = (w_n^2 - sum dw^2) / 2
    g = TimeGrid(1.0, 128)
    dw = increments(g, 1, 200, 1)
    ito = alpha_integral_batch(g, dw, LINEAR, AlphaScheme(0.0))
    w = whole_paths(g, 1, 200, 1)[:, :, 0]
    expected = 0.5 * (w[:, -1] ** 2 - (np.diff(w, axis=1) ** 2).sum(axis=1))
    assert np.allclose(ito, expected, atol=1e-12)


def test_stratonovich_sum_linear_field_telescopes():
    # midpoint positions make sum exactly w_t^2 / 2 for g(x) = x
    g = TimeGrid(1.0, 128)
    dw = increments(g, 1, 200, 2)
    strat = alpha_integral_batch(g, dw, LINEAR, AlphaScheme(0.5))
    end = whole_paths(g, 1, 200, 2)[:, -1, 0]
    assert np.allclose(strat, 0.5 * end ** 2, atol=1e-12)


def test_time_integral_trapezoid():
    # the path 0, 1, 2, 3, 4 on [0, 1], one time-major block
    g = TimeGrid(1.0, 4)
    out = time_integral_batch(g, [np.ones((4, 1, 1))], lambda x, s: x[..., 0])
    assert out[0] == pytest.approx(2.0)


def test_time_integral_nonfinite_raises():
    g = TimeGrid(1.0, 4)
    with pytest.raises(FloatingPointError):
        time_integral_batch(g, increments(g, 1, 3, 3),
                            lambda x, s: np.full(x.shape[:-1], np.inf))


INFINITE = FieldWithDivergence(lambda x, s: np.full(x.shape, np.inf),
                               lambda x, s: np.zeros(x.shape[:-1]))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_nonfinite_alpha_sums_raise(alpha):
    # inf . dw sums to +-inf or, where the signs of dw mix, nan: no sum
    # returns it as a value
    g = TimeGrid(1.0, 20)
    dw = increments(g, 1, 64, 8)
    with pytest.raises(FloatingPointError):
        alpha_integral_batch(g, dw, INFINITE, AlphaScheme(alpha))
    if alpha != STRATONOVICH:
        with pytest.raises(FloatingPointError):
            convert_check_batch(g, dw, INFINITE, AlphaScheme(alpha))


def test_conversion_residual_zero_at_half():
    g = TimeGrid(1.0, 64)
    res = convert_check_batch(g, increments(g, 1, 100, 4), LINEAR,
                              AlphaScheme(0.5))
    assert np.all(res == 0.0)


def test_conversion_mean_square_slope():
    ms = {0.0: [], 1.0: []}
    steps = [64, 128, 256, 512, 1024]
    for n in steps:
        g = TimeGrid(1.0, n)
        dw = increments(g, 1, 2000, 5)
        for alpha in ms:
            r = convert_check_batch(g, dw, LINEAR, AlphaScheme(alpha))
            ms[alpha].append(float((r**2).mean()))
    for alpha, series in ms.items():
        slope = loglog_slope(steps, series)
        assert -1.3 <= slope <= -0.7, f"alpha={alpha}: slope {slope}"


def test_time_integral_of_time_on_one_path():
    g = TimeGrid(1.0, 32)
    out = time_integral_batch(g, increments(g, 2, 1, 6), lambda x, s: s)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(0.5)


def test_time_dependent_field_uses_alpha_times():
    # the path 0, 1, 1 on [0, 1], one time-major block
    g = TimeGrid(1.0, 2)
    dw = [np.array([[[1.0]], [[0.0]]])]
    field = FieldWithDivergence(lambda x, s: s[..., None] * 0 + s[..., None],
                                lambda x, s: np.zeros(x.shape[:-1]))
    out = alpha_integral_batch(g, dw, field, AlphaScheme(1.0))
    # alpha = 1 evaluates at the right endpoint times 0.5, 1.0
    assert out[0] == pytest.approx(0.5 * 1.0 + 1.0 * 0.0)


SMOOTH = FieldWithDivergence(
    lambda x, s: np.sin(x[..., ::-1]) * (1 + s[..., None]) + 0.3 * x,
    lambda x, s: 0.3 * x.shape[-1] + np.cos(x[..., 0]) * s)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_steps=st.sampled_from([1, 15, 16, 17, 53]), d=st.integers(1, 3),
       alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_blocked_sums_match_full_path_oracle(n_steps, d, alpha, seed):
    g = TimeGrid(0.8, n_steps)
    dw = increments(g, d, 32, seed)
    w = whole_paths(g, d, 32, seed)
    pairs = [
        (alpha_integral_batch(g, dw, SMOOTH, AlphaScheme(alpha)),
         full_alpha_sum(g, w, SMOOTH.g, alpha)),
        (time_integral_batch(g, dw, SMOOTH.div_g),
         full_time_integral(g, w, SMOOTH.div_g)),
        (convert_check_batch(g, dw, SMOOTH, AlphaScheme(alpha)),
         full_alpha_sum(g, w, SMOOTH.g, 0.5)
         - (full_alpha_sum(g, w, SMOOTH.g, alpha) + (0.5 - alpha)
            * full_time_integral(g, w, SMOOTH.div_g))),
    ]
    for blocked, full in pairs:
        assert np.all(np.abs(blocked - full) <= 1e-13 * (1 + np.abs(full)))


@pytest.mark.parametrize("n_steps", [1, 16, 17, 53])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
def test_conversion_walk_matches_separate_sums_bitwise(n_steps, alpha):
    # one walk adds each block to the three totals in the order that the
    # three batch functions add them
    g = TimeGrid(0.8, n_steps)
    dw = increments(g, 2, 64, 7)
    strat = alpha_integral_batch(g, dw, SMOOTH, AlphaScheme(STRATONOVICH))
    asum = alpha_integral_batch(g, dw, SMOOTH, AlphaScheme(alpha))
    trap = time_integral_batch(g, dw, SMOOTH.div_g)
    expected = strat - (asum + (0.5 - alpha) * trap)
    out = convert_check_batch(g, dw, SMOOTH, AlphaScheme(alpha))
    assert out.tobytes() == expected.tobytes()
