"""Random streams and the deterministic Monte Carlo reducer."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fklab import mc
from fklab.cli import Row
from fklab.mc import (PathRejectionOverflow, _estimate, _merge, _moments,
                      mc_run, ordered_map, reduce_chunks)
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


def test_mc_run_stderr_survives_large_offset():
    # 1e8 + N(0, 1): E[x^2] - E[x]^2 cancels 16 digits; the pairwise merge
    # of per-chunk deviations keeps the unit standard deviation
    n = 100_000
    est = mc_run(lambda gen, count: 1e8 + gen.standard_normal(count), n,
                 RngStream(3), chunk_size=4096)
    assert est.stderr * np.sqrt(n) == pytest.approx(1.0, rel=0.02)


def test_mc_run_workers_one_and_two_bit_identical():
    def chunk(gen, count):
        x = gen.standard_normal((count, 3))
        return np.exp(1j * x) + x**2

    one = mc_run(chunk, 20000, RngStream(17), chunk_size=3000, workers=1)
    two = mc_run(chunk, 20000, RngStream(17), chunk_size=3000, workers=2)
    assert np.array_equal(one.mean, two.mean)
    assert np.array_equal(one.stderr, two.stderr)


_SAMPLES = np.random.default_rng(5).standard_normal((64, 2)) * [1.0, 1e3] + 7.0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(cuts=st.lists(st.integers(0, 64), max_size=8),
       complex_samples=st.booleans())
def test_merge_matches_unsplit_for_any_cut_points(cuts, complex_samples):
    x = _SAMPLES[:, 0] + 1j * _SAMPLES[:, 1] if complex_samples else _SAMPLES
    bounds = [0, *sorted(cuts), len(x)]
    parts = [_moments(x[a:b]) for a, b in zip(bounds, bounds[1:])]
    merged = _estimate(functools.reduce(_merge, parts, (0, 0j, 0.0)))
    whole = _estimate(_moments(x))
    assert merged.n_samples == whole.n_samples == len(x)
    np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
    np.testing.assert_allclose(merged.stderr, whole.stderr, rtol=1e-12)


class _RecordingPool:
    """A ThreadPoolExecutor stand-in that records ``max_workers`` and maps
    in the calling thread, so no thread is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, cpus, expected", [
    (2**63, 64, 5),     # no more threads than items
    (2**63, 3, 3),      # nor than CPUs
    (4, 64, 4),
    (2**63, None, None),  # an unknown CPU count runs in the caller
])
def test_ordered_map_caps_its_threads(monkeypatch, workers, cpus, expected):
    monkeypatch.setattr(mc, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    assert ordered_map(lambda x: x * x, range(5), workers) \
        == [0, 1, 4, 9, 16]
    assert _RecordingPool.sizes == ([] if expected is None else [expected])


def test_reduce_chunks_counts_rejections():
    def chunk(gen, count):
        x = gen.standard_normal(count)
        finite = np.ones(count, dtype=bool)
        finite[0] = False  # one rejected sample per chunk
        x[0] = np.nan
        return x, finite

    est, rejected = reduce_chunks(chunk, 20000, RngStream(2), chunk_size=10000)
    assert (est.n_samples, rejected) == (19998, 2)
    assert np.isfinite(est.mean) and np.isfinite(est.stderr)
    with pytest.raises(PathRejectionOverflow):
        reduce_chunks(chunk, 2000, RngStream(2), chunk_size=500)


def test_z_conventions():
    # the z the CSV prints: |mean - target| / stderr, 0 where both vanish
    assert Row("q", "-", 1.0, 0.5, 2.0, True).z == pytest.approx(2.0)
    assert Row("q", "-", 2.0, 0.0, 2.0, True).z == 0.0
    assert Row("q", "-", 1.0, 0.0, 0.0, True).z == np.inf
