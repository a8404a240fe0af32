"""Wiener-measure sampling on uniform time grids.

Every walk draws its increments a block of steps at a time, time-major,
from its chunk's generator (:func:`increment_blocks`), so the blocks are
one (n, n_paths, d) draw whatever their size, and :func:`path_blocks` turns
them into free paths or bridges: a chunk holds O(n_paths * block * d)
floats whatever n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mc import DEFAULT_CHUNK, MCEstimate, mc_run
from .streams import RngStream


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid s_k = k * dt on [0, t_end], with dt = t_end / n_steps."""

    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class TestFunction:
    """Deterministic R_+ -> R^d integrand with compact support.

    ``evaluator`` maps an array of times (n,) to values (n, d) and must
    vanish for s > support_end.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_end: float


# largest array (a block of increments, second moments, Kato nodes, a
# lattice operator) one chunk may allocate; more is an input error
MAX_INCREMENT_BYTES = 2**30

# time steps per block of the path walk
BLOCK = 16


def check_budget(what: str, *shape: int) -> None:
    """Raise ValueError when ``what``, an array of doubles of ``shape``,
    would exceed :data:`MAX_INCREMENT_BYTES`."""
    if 8 * math.prod(shape) > MAX_INCREMENT_BYTES:
        raise ValueError(f"{what}, {' x '.join(map(str, shape))} doubles, are "
                         f"over the {MAX_INCREMENT_BYTES >> 20} MiB budget")


def sample_increments(grid: TimeGrid, d: int, n_paths: int,
                      gen: np.random.Generator, steps: int) -> np.ndarray:
    """Gaussian increments of variance dt for ``steps`` time steps, shape
    (steps, n_paths, d); a ValueError, before allocating, over budget."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    check_budget("the increments", steps, n_paths, d)
    return gen.standard_normal((steps, n_paths, d)) * np.sqrt(grid.dt)


def increment_blocks(grid: TimeGrid, d: int, n_paths: int,
                     gen: np.random.Generator, block: int = BLOCK):
    """Yield the increments of ``n_paths`` paths from ``gen`` in time order,
    as (m <= ``block``, n_paths, d) blocks of one (n, n_paths, d) draw."""
    for k0 in range(0, grid.n_steps, block):
        yield sample_increments(grid, d, n_paths, gen,
                                min(block, grid.n_steps - k0))


def paths_from_increments(grid: TimeGrid, dw: np.ndarray) -> np.ndarray:
    """Whole free paths (n_paths, n+1, d) of increments (n_paths, n, d);
    no fklab module calls it, it stays because perfbench/tracer.py wraps it."""
    out = np.zeros((dw.shape[0], grid.n_steps + 1, dw.shape[2]))
    np.cumsum(dw, axis=1, out=out[:, 1:])
    return out


def path_blocks(grid: TimeGrid, blocks, endpoint: np.ndarray | None = None):
    """Yield ``(k0, w)`` for each time-major increment block (m, P, d) of
    ``blocks`` (the first the longest): w (P, m+1, d), valid until the next
    block, is the path at steps k0 .. k0+m, row 0 the last row of the
    block before. It is the free path, a carried cumsum, or with
    ``endpoint`` e the Brownian bridge to e at t, built forward (Levy;
    Karatzas & Shreve 5.6.B): tau_k = (n - k) dt, Y_0 = -e/t,
    Y_(k+1) = Y_k + dw_k / sqrt(tau_k tau_(k+1)), w_k = e + tau_k Y_k,
    with w_0 = 0 and w_n = e exact and the last increment unused."""
    n, k0 = grid.n_steps, 0
    for dw in blocks:
        m = dw.shape[0]
        if k0 == 0:
            buf = np.zeros((dw.shape[1], m + 1, dw.shape[2]))
            if endpoint is not None:
                buf[:, 0] = -endpoint / grid.t_end
        steps = buf[:, 1:m + 1]
        if endpoint is None:
            steps[...] = np.swapaxes(dw, 0, 1)
        else:
            tau = (n - np.arange(k0, k0 + m + 1)) * grid.dt
            root = np.sqrt(tau[:-1] * tau[1:])
            root[root == 0] = np.inf  # tau_n = 0: the last step adds 0
            np.divide(np.swapaxes(dw, 0, 1), root[:, None], out=steps)
        steps[:, 0] += buf[:, 0]
        np.cumsum(steps, axis=1, out=steps)
        w = buf[:, :m + 1]
        if endpoint is not None:
            w = endpoint + tau[:, None] * w
            if k0 == 0:
                w[:, 0] = 0.0
            if k0 + m == n:
                w[:, -1] = endpoint
        yield k0, w
        buf[:, 0] = buf[:, m]
        k0 += m


def block_trapezoid(grid: TimeGrid, k0: int, m: int) -> tuple[int, np.ndarray]:
    """Trapezoid weights of the :func:`path_blocks` block at steps k0 .. k0+m.

    Returns ``(lo, weights)``: the block adds its rows lo .. m to the sum
    (a later block skips row 0, the last row of the block before), with
    weight dt, halved at the two ends of the grid.
    """
    lo = 0 if k0 == 0 else 1
    weights = np.full(m + 1 - lo, grid.dt)
    if lo == 0:
        weights[0] /= 2
    if k0 + m == grid.n_steps:
        weights[-1] /= 2
    return lo, weights


def bridge_from_free(grid: TimeGrid, values: np.ndarray,
                     endpoint: np.ndarray) -> np.ndarray:
    """Pin free paths (n_paths, n+1, d) to the endpoint by linear drift; no
    fklab module calls it, it stays because perfbench/tracer.py wraps it."""
    s = grid.times() / grid.t_end  # (n+1,)
    correction = values[:, -1:, :] - endpoint[None, None, :]
    pinned = values - s[None, :, None] * correction
    pinned[:, -1, :] = endpoint  # exact pinning, no rounding residue
    return pinned


def _linear_functional(grid: TimeGrid, f: TestFunction, G: np.ndarray,
                       n_paths: int, rng: RngStream, chunk_size: int,
                       workers: int) -> MCEstimate:
    """Mean of exp(-i sum_k dw_k . G_k) over Wiener increments, G (n, d)."""
    if f.support_end > grid.t_end + 1e-12:
        raise ValueError("test function support exceeds the time horizon")

    def func(gen: np.random.Generator, count: int) -> np.ndarray:
        blocks = increment_blocks(grid, G.shape[1], count, gen)
        Gs = np.split(G, range(BLOCK, grid.n_steps, BLOCK))
        return np.exp(-1j * sum(np.tensordot(dw, Gb, axes=([0, 2], [0, 1]))
                                for dw, Gb in zip(blocks, Gs)))

    return mc_run(func, n_paths, rng, chunk_size, workers)


def estimate_char_functional(grid: TimeGrid, f: TestFunction, n_paths: int,
                             rng: RngStream, chunk_size: int = DEFAULT_CHUNK,
                             workers: int = 1) -> MCEstimate:
    """Monte Carlo functional Fourier transform <exp(-i trapz(w . f ds))>.

    The trapezoid sum over nodes s_j with weights c_j is linear in the
    increments, sum_k dw_k . G_k with G_k = sum_{j>k} c_j f(s_j), so no path
    is built. The target for Wiener statistics is
    exp(-1/2 * integral integral min(r, s) f(r) . f(s) dr ds).
    """
    _, weights = block_trapezoid(grid, 0, grid.n_steps)
    cf = weights[:, None] * np.asarray(f.evaluator(grid.times()))
    G = np.cumsum(cf[:0:-1], axis=0)[::-1]  # (n, d): G_k sums j > k
    return _linear_functional(grid, f, G, n_paths, rng, chunk_size, workers)


def estimate_white_noise_functional(grid: TimeGrid, f: TestFunction,
                                    n_paths: int, rng: RngStream,
                                    chunk_size: int = DEFAULT_CHUNK,
                                    workers: int = 1) -> MCEstimate:
    """White-noise characteristic functional <exp(-i sum_k f(mid_k) . dw_k)>,
    the Stratonovich sum; target exp(-1/2 * integral f^2)."""
    times = grid.times()
    G = np.asarray(f.evaluator(0.5 * (times[1:] + times[:-1])))
    return _linear_functional(grid, f, G, n_paths, rng, chunk_size, workers)


def estimate_covariance(grid: TimeGrid, d: int, n_paths: int, rng: RngStream,
                        node_indices: Sequence[int],
                        chunk_size: int = DEFAULT_CHUNK,
                        workers: int = 1) -> MCEstimate:
    """Means and second moments of path values at selected grid nodes.

    Returns an estimate whose mean stacks [w_j(s_a)] and [w_j(s_a) w_k(s_b)]
    as a flat vector: first d * len(nodes) first-moment entries, then the
    full (node, node, j, k) second-moment block. The nodes are picked out
    of :func:`path_blocks` as the blocks pass. Raises ValueError, before
    sampling, on a node outside 0 .. n_steps and when one chunk's second
    moments would exceed the budget.
    """
    idx = np.asarray(node_indices, dtype=int).reshape(-1)
    if np.any(idx < 0) or np.any(idx > grid.n_steps):
        raise ValueError(f"node indices must lie in 0 .. {grid.n_steps}")
    check_budget("one chunk's second moments", min(n_paths, chunk_size),
                 len(idx), len(idx), d, d)

    def func(gen: np.random.Generator, count: int) -> np.ndarray:
        at = np.empty((count, len(idx), d))  # (count, a, d)
        for k0, w in path_blocks(grid, increment_blocks(grid, d, count, gen)):
            here = (idx >= k0) & (idx < k0 + w.shape[1])
            at[:, here] = w[:, idx[here] - k0]
        second = np.einsum("paj,pbk->pabjk", at, at).reshape(count, -1)
        return np.concatenate([at.reshape(count, -1), second], axis=1)

    return mc_run(func, n_paths, rng, chunk_size=chunk_size, workers=workers)
