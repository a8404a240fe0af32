"""Wiener-measure sampling on uniform time grids.

Every path quantity is a functional of one chunk's increments ``dw``
(n_paths, n, d). :func:`path_blocks` is the one way from increments to
positions: it walks :data:`BLOCK` time steps at a time, so a chunk holds
O(n_paths * BLOCK * d) floats beside its increments whatever n. Estimators
are chunked through :func:`fklab.mc.mc_run`. ``paths_from_increments`` and
``bridge_from_free`` (the linear-drift bridge, which pins the endpoint
bit-exactly) are the whole-path forms, kept as the references of the
blocked walk; no fklab module calls them.
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


# largest array one chunk may allocate: every chunk holds its increments
# whole, so a larger chunk is an input error (exit 2 in the CLI) instead of
# an out-of-memory failure; Kato nodes and lattice operators share it
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
                      gen: np.random.Generator) -> np.ndarray:
    """Gaussian increments with component variance dt, shape (n_paths, n, d).

    Raises ValueError, before allocating, when the array would exceed
    :data:`MAX_INCREMENT_BYTES`.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    check_budget("the increments", n_paths, grid.n_steps, d)
    out = gen.standard_normal((n_paths, grid.n_steps, d))
    out *= np.sqrt(grid.dt)
    return out


def paths_from_increments(grid: TimeGrid, dw: np.ndarray) -> np.ndarray:
    """Cumulative sums with a zero row prepended, shape (n_paths, n+1, d)."""
    n_paths, _, d = dw.shape
    out = np.empty((n_paths, grid.n_steps + 1, d))
    out[:, 0] = 0.0
    np.cumsum(dw, axis=1, out=out[:, 1:])
    return out


def path_blocks(dw: np.ndarray, block: int = BLOCK):
    """:func:`paths_from_increments` one block of time steps at a time.

    Yields ``(k0, w)`` with w (n_paths, m+1, d) the free path at steps
    k0 .. k0+m, m <= ``block``; row 0 repeats the last row of the block
    before (zero for the first). Each block is a sequential cumsum that
    starts from that carried row, so the values are bit-identical to the
    full path. ``w`` is a view into one reused buffer, valid until the next
    block is drawn.
    """
    n_paths, n, d = dw.shape
    buf = np.zeros((n_paths, block + 1, d))
    for k0 in range(0, n, block):
        m = min(block, n - k0)
        steps = buf[:, 1:m + 1]
        steps[...] = dw[:, k0:k0 + m]
        if k0:
            steps[:, 0] += buf[:, 0]
        np.cumsum(steps, axis=1, out=steps)
        yield k0, buf[:, :m + 1]
        buf[:, 0] = buf[:, m]


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
    """Pin free paths (n_paths, n+1, d) to the endpoint by linear drift."""
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
        dw = sample_increments(grid, G.shape[1], count, gen)
        return np.exp(-1j * (dw.reshape(count, -1) @ G.ravel()))

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
        dw = sample_increments(grid, d, count, gen)
        at = np.empty((count, len(idx), d))  # (count, a, d)
        for k0, w in path_blocks(dw):
            here = (idx >= k0) & (idx < k0 + w.shape[1])
            at[:, here] = w[:, idx[here] - k0]
        second = np.einsum("paj,pbk->pabjk", at, at).reshape(count, -1)
        return np.concatenate([at.reshape(count, -1), second], axis=1)

    return mc_run(func, n_paths, rng, chunk_size=chunk_size, workers=workers)
