"""Monte Carlo accumulation with one deterministic chunked reducer.

Every stochastic estimator ends in :func:`reduce_chunks`. Chunk ``c`` draws
from ``stream.offset(c)`` and returns its samples with an optional
finite-mask; masked-out samples are counted as rejected, and more than 0.1%
of them raise :class:`PathRejectionOverflow`. Each chunk is summarized as
``(n, sum, M2)``, M2 the summed squared deviation from the chunk mean, and
the summaries are merged in chunk order by the pairwise rule of Chan, Golub
& LeVeque (*Algorithms for computing the sample variance*, 1983),

    M2 = M2_a + M2_b + |sum_b / n_b - sum_a / n_a|^2 n_a n_b / (n_a + n_b),

so no variance comes from subtracting large second moments, and results
are bit-identical for a given seed whatever the worker count.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .streams import RngStream

DEFAULT_CHUNK = 16384


class PathRejectionOverflow(FloatingPointError):
    """Raised when more than 0.1% of paths give a non-finite sample."""


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with entrywise standard error and sample count."""

    mean: np.ndarray | complex
    stderr: np.ndarray | float
    n_samples: int


def _chunk_sizes(n_samples: int, chunk_size: int) -> list[int]:
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    sizes = [chunk_size] * (n_samples // chunk_size)
    if n_samples % chunk_size:
        sizes.append(n_samples % chunk_size)
    return sizes


def ordered_map(fn: Callable, items: Iterable, workers: int = 1) -> list:
    """``[fn(x) for x in items]``, on up to ``workers`` threads, in order."""
    items = list(items)
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _moments(samples: np.ndarray) -> tuple:
    """(n, sum, M2) of the samples along axis 0."""
    n = samples.shape[0]
    total = samples.sum(axis=0)
    dev = samples - total / max(n, 1)
    return n, total, (dev.real**2 + dev.imag**2).sum(axis=0)


def _merge(a: tuple, b: tuple) -> tuple:
    """Pairwise (n, sum, M2) merge; an empty side adds nothing to M2."""
    (na, sa, qa), (nb, sb, qb) = a, b
    q = qa + qb
    if na and nb:
        delta = sb / nb - sa / na
        q = q + (delta.real**2 + delta.imag**2) * (na * nb / (na + nb))
    return na + nb, sa + sb, q


def _estimate(moments: tuple) -> MCEstimate:
    """Mean and stderr from merged (n, sum, M2); 0-d results become scalars."""
    n, total, m2 = moments
    mean, stderr = total / n, np.sqrt(m2 / max(n - 1, 1) / n)
    if np.ndim(mean) == 0:
        return MCEstimate(complex(mean), float(stderr), n)
    return MCEstimate(mean, stderr, n)


def reduce_chunks(chunk_fn: Callable, n_samples: int, stream: RngStream,
                  chunk_size: int = DEFAULT_CHUNK,
                  workers: int = 1) -> tuple[MCEstimate, int]:
    """Reduce ``chunk_fn(generator, count) -> (samples, finite or None)``.

    ``samples`` has shape (count, ...); ``finite`` is a (count,) bool mask
    of the rows to keep, or None to keep all. ``chunk_fn`` must be pure
    given its generator; chunk ``c`` draws from ``stream.offset(c)`` and
    the merge order is fixed by chunk index. Returns the estimate of the
    kept samples (``n_samples`` counts them) and the rejected count.
    """
    sizes = _chunk_sizes(n_samples, chunk_size)

    def one_chunk(c: int) -> tuple:
        samples, finite = chunk_fn(stream.offset(c).generator(), sizes[c])
        if finite is None:
            return _moments(np.asarray(samples)), 0
        return _moments(samples[finite]), int(np.count_nonzero(~finite))

    parts = ordered_map(one_chunk, range(len(sizes)), workers)
    moments = functools.reduce(_merge, (m for m, _ in parts), (0, 0j, 0.0))
    rejected = sum(r for _, r in parts)
    if rejected > 0.001 * (moments[0] + rejected):
        raise PathRejectionOverflow(
            f"{rejected} of {moments[0] + rejected} paths gave a non-finite "
            "sample (singular potential or overflowing weight)")
    return _estimate(moments), rejected


def mc_run(
    func: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    stream: RngStream,
    chunk_size: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> MCEstimate:
    """Accumulate ``func(generator, count) -> (count, ...)`` samples.

    A :func:`reduce_chunks` adapter with nothing rejected; the result does
    not depend on ``workers``.
    """
    return reduce_chunks(lambda gen, count: (func(gen, count), None),
                         n_samples, stream, chunk_size, workers)[0]
