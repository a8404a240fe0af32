"""Random streams and the deterministic Monte Carlo reducer."""

import numpy as np
import pytest

from fklab.mc import MCEstimate, mc_run
from fklab.streams import RngStream


def test_same_stream_reproduces_bits():
    a = RngStream(123, 4).generator().standard_normal(100)
    b = RngStream(123, 4).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, 0).generator().standard_normal(100)
    b = RngStream(123, 1).generator().standard_normal(100)
    assert not np.allclose(a, b)


def test_offset_shifts_index():
    assert RngStream(5, 2).offset(3) == RngStream(5, 5)


def test_negative_stream_index_rejected():
    with pytest.raises(ValueError):
        RngStream(1, -1)


def _normal_chunk(gen, count):
    return gen.standard_normal(count)


def test_mc_run_known_mean():
    est = mc_run(_normal_chunk, 40000, RngStream(7))
    assert abs(est.mean) <= 4 * est.stderr
    assert est.n_samples == 40000
    assert est.stderr == pytest.approx(1 / 200, rel=0.1)


def test_mc_run_worker_invariance():
    one = mc_run(_normal_chunk, 50000, RngStream(9), chunk_size=4096, workers=1)
    four = mc_run(_normal_chunk, 50000, RngStream(9), chunk_size=4096, workers=4)
    assert one.mean == four.mean
    assert one.stderr == four.stderr


def test_mc_run_chunk_size_changes_partition_only():
    # different chunking draws different numbers, but stays deterministic
    a = mc_run(_normal_chunk, 10000, RngStream(9), chunk_size=1000)
    b = mc_run(_normal_chunk, 10000, RngStream(9), chunk_size=1000)
    assert a.mean == b.mean


@pytest.mark.parametrize("n_samples", [0, -3])
def test_mc_run_rejects_empty_sample_count(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        mc_run(_normal_chunk, n_samples, RngStream(9))


@pytest.mark.parametrize("chunk_size", [0, -1])
def test_mc_run_rejects_empty_chunk(chunk_size):
    with pytest.raises(ValueError, match="chunk_size"):
        mc_run(_normal_chunk, 100, RngStream(9), chunk_size=chunk_size)


def test_mc_run_vector_samples():
    est = mc_run(lambda gen, count: gen.standard_normal((count, 3)) + [1, 2, 3],
                 20000, RngStream(11))
    assert est.mean.shape == (3,)
    assert np.all(np.abs(est.mean - [1, 2, 3]) <= 4 * est.stderr)


def test_mc_run_complex_samples():
    est = mc_run(lambda gen, count: np.exp(1j * gen.standard_normal(count)),
                 20000, RngStream(13))
    target = np.exp(-0.5)  # characteristic function of a standard normal
    assert abs(est.mean - target) <= 4 * est.stderr


def test_z_conventions():
    est = MCEstimate(np.array([1.0, 2.0]), np.array([0.5, 0.0]), 10)
    z = est.z(np.array([2.0, 2.0]))
    assert z[0] == pytest.approx(2.0)
    assert z[1] == 0.0
    assert MCEstimate(1.0, 0.0, 10).z(0.0) == np.inf
