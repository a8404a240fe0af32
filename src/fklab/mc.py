"""Monte Carlo accumulation with deterministic chunked reduction.

Every stochastic estimator in the package returns an :class:`MCEstimate`.
Sampling is split into fixed-size chunks, each driven by its own
:class:`~fklab.streams.RngStream`; partial sums are reduced in chunk order,
so results are bit-identical for a given seed regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .streams import RngStream

DEFAULT_CHUNK = 16384


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with entrywise standard error and sample count."""

    mean: np.ndarray | complex
    stderr: np.ndarray | float
    n_samples: int

    def z(self, target) -> np.ndarray | float:
        """Entrywise |mean - target| / stderr (0 where both vanish)."""
        diff = np.abs(np.asarray(self.mean) - np.asarray(target))
        err = np.asarray(self.stderr)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(err > 0, diff / np.where(err > 0, err, 1.0),
                         np.where(diff > 0, np.inf, 0.0))
        return z if z.shape else float(z)


def _chunk_sizes(n_samples: int, chunk_size: int) -> list[int]:
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    sizes = [chunk_size] * (n_samples // chunk_size)
    if n_samples % chunk_size:
        sizes.append(n_samples % chunk_size)
    return sizes


def mc_run(
    func: Callable[[np.random.Generator, int], np.ndarray],
    n_samples: int,
    stream: RngStream,
    chunk_size: int = DEFAULT_CHUNK,
    workers: int = 1,
) -> MCEstimate:
    """Accumulate ``func(generator, count) -> (count, ...)`` samples.

    ``func`` must be pure given its generator; chunk ``c`` draws from
    ``stream.offset(c)``. The reduction order is fixed by chunk index, so the
    result does not depend on ``workers``.
    """
    sizes = _chunk_sizes(n_samples, chunk_size)

    def one_chunk(c: int) -> tuple[np.ndarray, np.ndarray, int]:
        gen = stream.offset(c).generator()
        samples = np.asarray(func(gen, sizes[c]))
        s = samples.sum(axis=0)
        sq = (samples.real**2 + samples.imag**2).sum(axis=0)
        return s, sq, samples.shape[0]

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(one_chunk, range(len(sizes))))
    else:
        partials = [one_chunk(c) for c in range(len(sizes))]

    total = partials[0][0].astype(complex)
    sumsq = np.asarray(partials[0][1], dtype=float)
    count = partials[0][2]
    for s, sq, n in partials[1:]:
        total = total + s
        sumsq = sumsq + sq
        count += n

    mean = total / count
    if count > 1:
        var = np.maximum(sumsq / count - np.abs(mean) ** 2, 0.0) * count / (count - 1)
    else:
        var = np.zeros_like(sumsq)
    stderr = np.sqrt(var / count)
    if np.ndim(mean) == 0:
        return MCEstimate(complex(mean), float(stderr), count)
    return MCEstimate(mean, stderr, count)
