"""Wiener-measure sampling on uniform time grids.

Every walk draws its increments a block of steps at a time, time-major,
from its chunk's generator (:func:`increment_blocks`), so the blocks are
one (n, n_paths, d) draw whatever their size, and :func:`path_blocks` turns
them into free paths or bridges, a running sum of whole (n_paths, d) rows:
a chunk holds O(n_paths * block * d) floats whatever n. Every path sum is
written once, here: :func:`walk_sums` adds up the block terms
:func:`trapezoid_term` and :func:`alpha_term`.
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

STRATONOVICH = 0.5  # alpha of the midpoint-position sum


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
    dw = gen.standard_normal((steps, n_paths, d))
    dw *= np.sqrt(grid.dt)
    return dw


def increment_blocks(grid: TimeGrid, d: int, n_paths: int,
                     gen: np.random.Generator, block: int = BLOCK):
    """Yield the increments of ``n_paths`` paths from ``gen`` in time order,
    as (m <= ``block``, n_paths, d) blocks of one (n, n_paths, d) draw."""
    for k0 in range(0, grid.n_steps, block):
        yield sample_increments(grid, d, n_paths, gen,
                                min(block, grid.n_steps - k0))


def paths_from_increments(grid: TimeGrid, dw: np.ndarray) -> np.ndarray:
    """Whole free paths (n_paths, n+1, d) of increments (n_paths, n, d),
    path-major, not the walk's layout; no fklab module calls it, it stays
    because perfbench/tracer.py wraps it."""
    out = np.zeros((dw.shape[0], grid.n_steps + 1, dw.shape[2]))
    np.cumsum(dw, axis=1, out=out[:, 1:])
    return out


def path_blocks(grid: TimeGrid, blocks, endpoint: np.ndarray | None = None):
    """Yield ``(k0, w)`` for each time-major increment block (m, P, d) of
    ``blocks`` (the first the longest): w (m+1, P, d), time-major too and
    valid until the next block, is the path at steps k0 .. k0+m, row 0 the
    last row of the block before. It is the free path, a running sum added
    one contiguous (P, d) row at a time, or with ``endpoint`` e, a (d,)
    vector or (P, d) rows, the Brownian bridge to e at t, built forward
    (Levy; Karatzas & Shreve 5.6.B): tau_k = (n - k) dt, Y_0 = -e/t,
    Y_(k+1) = Y_k + dw_k / sqrt(tau_k tau_(k+1)), w_k = e + tau_k Y_k,
    with w_0 = 0 and w_n = e exact and the last increment unused."""
    n, k0 = grid.n_steps, 0
    for dw in blocks:
        m = dw.shape[0]
        if k0 == 0:
            buf = np.zeros((m + 1,) + dw.shape[1:])
            if endpoint is not None:
                buf[0] = -endpoint / grid.t_end
        w, steps = buf[:m + 1], dw
        if endpoint is not None:
            tau = (n - np.arange(k0, k0 + m + 1)) * grid.dt
            root = np.sqrt(tau[:-1] * tau[1:])
            root[root == 0] = np.inf  # tau_n = 0: the last step adds 0
            steps = np.divide(dw, root[:, None, None], out=w[1:])
        for k in range(m):  # contiguous rows, in the order of a cumsum
            np.add(w[k], steps[k], out=w[k + 1])
        if endpoint is not None:
            w = endpoint + tau[:, None, None] * w
            if k0 == 0:
                w[0] = 0.0
            if k0 + m == n:
                w[-1] = endpoint
        yield k0, w
        buf[0] = buf[m]
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


def alpha_term(grid: TimeGrid, g: Callable, a: float):
    """The alpha-point sums of g(x, s) . dw of one :func:`path_blocks`
    block per path, x = a w(s_k+1) + (1 - a) w(s_k) and s likewise, times
    broadcast to (k, P): a = 0 is Ito's sum, a = 1/2 Stratonovich's."""
    def term(k0, w):
        times = grid.dt * np.arange(k0, k0 + w.shape[0])
        s = a * times[1:] + (1 - a) * times[:-1]
        # x is freed when g returns, before the difference is allocated
        gv = np.asarray(g(a * w[1:] + (1 - a) * w[:-1],
                          np.broadcast_to(s[:, None], (s.size, w.shape[1]))))
        return np.einsum("kpd,kpd->p", gv, w[1:] - w[:-1])
    return term


def trapezoid_term(grid: TimeGrid, u: Callable):
    """The trapezoid of u(w(s), s) ds over one :func:`path_blocks` block per
    path, the :func:`block_trapezoid` weights times the block's rows of u;
    s is the block's times broadcast to (k, P)."""
    def term(k0, w):
        lo, weights = block_trapezoid(grid, k0, w.shape[0] - 1)
        x = w[lo:]
        s = grid.dt * np.arange(k0 + lo, k0 + w.shape[0])[:, None]
        return weights @ np.asarray(u(x, np.broadcast_to(s, x.shape[:2])))
    return term


def walk_sums(walk, *terms) -> tuple[list, np.ndarray]:
    """Each term summed over the ``(k0, w)`` blocks of ``walk`` in block
    order, and the last block. An overflowing or invalid value raises no
    warning: its sum is not finite, and the caller checks the sums."""
    totals = [0.0] * len(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, w in walk:
            totals = [t + term(k0, w) for t, term in zip(totals, terms)]
    return totals, w


def bridge_from_free(grid: TimeGrid, values: np.ndarray,
                     endpoint: np.ndarray) -> np.ndarray:
    """Pin free paths (n_paths, n+1, d), path-major, not the walk's layout,
    to the endpoint by linear drift; no fklab module calls it, it stays
    because perfbench/tracer.py wraps it."""
    s = grid.times() / grid.t_end  # (n+1,)
    correction = values[:, -1:, :] - endpoint[None, None, :]
    pinned = values - s[None, :, None] * correction
    pinned[:, -1, :] = endpoint  # exact pinning, no rounding residue
    return pinned


def estimate_char_functional(grid: TimeGrid, f: TestFunction, n_paths: int,
                             rng: RngStream, chunk_size: int = DEFAULT_CHUNK,
                             workers: int = 1) -> MCEstimate:
    """Monte Carlo functional Fourier transform <exp(-i trapz(w . f ds))>,
    the trapezoid term of w . f(s); the target for Wiener statistics is
    exp(-1/2 * integral integral min(r, s) f(r) . f(s) dr ds)."""
    term = trapezoid_term(grid, lambda x, s: np.einsum(
        "kpd,kd->kp", x, f.evaluator(s[:, 0])))
    return _phase_mean(grid, f, term, n_paths, rng, chunk_size, workers)


def estimate_white_noise_functional(grid: TimeGrid, f: TestFunction,
                                    n_paths: int, rng: RngStream,
                                    chunk_size: int = DEFAULT_CHUNK,
                                    workers: int = 1) -> MCEstimate:
    """White-noise characteristic functional <exp(-i sum_k f(mid_k) . dw_k)>,
    the Stratonovich term of g(x, s) = f(s); target exp(-1/2 int f^2)."""
    term = alpha_term(grid, lambda x, s: np.broadcast_to(
        f.evaluator(s[:, 0])[:, None], x.shape), STRATONOVICH)
    return _phase_mean(grid, f, term, n_paths, rng, chunk_size, workers)


def _phase_mean(grid: TimeGrid, f: TestFunction, term, n_paths: int,
                rng: RngStream, chunk_size: int, workers: int) -> MCEstimate:
    """Mean of exp(-i S) over free paths, S the sum of ``term``, which reads
    f at s[:, 0], the block's times; f must vanish beyond the horizon."""
    if f.support_end > grid.t_end + 1e-12:
        raise ValueError("test function support exceeds the time horizon")
    d = np.shape(f.evaluator(np.zeros(1)))[1]

    def func(gen: np.random.Generator, count: int) -> np.ndarray:
        walk = path_blocks(grid, increment_blocks(grid, d, count, gen))
        return np.exp(-1j * walk_sums(walk, term)[0][0])

    return mc_run(func, n_paths, rng, chunk_size, workers)


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
            here = (idx >= k0) & (idx < k0 + w.shape[0])
            at[:, here] = w[idx[here] - k0].swapaxes(0, 1)
        second = np.einsum("paj,pbk->pabjk", at, at).reshape(count, -1)
        return np.concatenate([at.reshape(count, -1), second], axis=1)

    return mc_run(func, n_paths, rng, chunk_size=chunk_size, workers=workers)
