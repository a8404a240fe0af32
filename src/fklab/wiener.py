"""Wiener-measure sampling on uniform time grids.

Paths are represented at grid points only; integrals along paths use the
trapezoidal rule and stochastic sums use increment-based rules from
:mod:`fklab.stochint`. Brownian bridges are built from free paths by the
linear-drift transform, which pins the endpoint bit-exactly.

The API is batch-only: samplers return a :class:`PathBatch` of shape
(n_paths, n+1, d), and one path is a batch with ``n_paths = 1``.
Estimators end in :mod:`fklab.mc`: ``estimate_covariance`` through
``mc_run``, the characteristic functionals of an in-memory batch through
``sample_mean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .mc import DEFAULT_CHUNK, MCEstimate, mc_run, sample_mean
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
class PathBatch:
    """A stack of paths sharing one grid; values has shape (n_paths, n+1, d)."""

    grid: TimeGrid
    values: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[2]


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


def path_blocks(dw: np.ndarray, block: int):
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


def sample_paths(grid: TimeGrid, d: int, n_paths: int, rng: RngStream) -> PathBatch:
    """Draw an ensemble of independent Wiener paths as one batch."""
    gen = rng.generator()
    return PathBatch(grid, paths_from_increments(
        grid, sample_increments(grid, d, n_paths, gen)))


def bridge_from_free(grid: TimeGrid, values: np.ndarray,
                     endpoint: np.ndarray) -> np.ndarray:
    """Pin free paths (n_paths, n+1, d) to the endpoint by linear drift."""
    s = grid.times() / grid.t_end  # (n+1,)
    correction = values[:, -1:, :] - endpoint[None, None, :]
    pinned = values - s[None, :, None] * correction
    pinned[:, -1, :] = endpoint  # exact pinning, no rounding residue
    return pinned


def sample_bridges(grid: TimeGrid, d: int, endpoint: Sequence[float],
                   n_paths: int, rng: RngStream) -> PathBatch:
    """Brownian bridges from 0 to ``endpoint`` over [0, t_end], as one batch."""
    endpoint = np.asarray(endpoint, dtype=float).reshape(-1)
    if endpoint.shape[0] != d:
        raise ValueError("endpoint dimension does not match d")
    free = sample_paths(grid, d, n_paths, rng).values
    return PathBatch(grid, bridge_from_free(grid, free, endpoint))


def _check_support(grid: TimeGrid, f: TestFunction) -> None:
    if f.support_end > grid.t_end + 1e-12:
        raise ValueError("test function support exceeds the time horizon")


def char_functional_samples(batch: PathBatch, f: TestFunction) -> np.ndarray:
    """Per-path exp(-i * trapz(w(s) . f(s) ds)), shape (n_paths,)."""
    grid = batch.grid
    fv = np.asarray(f.evaluator(grid.times()))  # (n+1, d)
    weights = np.full(grid.n_steps + 1, grid.dt)
    weights[0] = weights[-1] = grid.dt / 2
    integrand = np.einsum("pkd,kd,k->p", batch.values, fv, weights)
    return np.exp(-1j * integrand)


def estimate_char_functional(batch: PathBatch, f: TestFunction) -> MCEstimate:
    """Monte Carlo functional Fourier transform of the ensemble at f.

    The target for Wiener statistics is
    exp(-1/2 * integral integral min(r, s) f(r) . f(s) dr ds).
    """
    _check_support(batch.grid, f)
    return sample_mean(char_functional_samples(batch, f))


def white_noise_functional_samples(batch: PathBatch, f: TestFunction) -> np.ndarray:
    """Per-path exp(-i * Stratonovich sum of f(s) . dw(s))."""
    grid = batch.grid
    times = grid.times()
    mid = 0.5 * (times[1:] + times[:-1])
    fv = np.asarray(f.evaluator(mid))  # (n, d)
    dw = np.diff(batch.values, axis=1)
    integrand = np.einsum("pkd,kd->p", dw, fv)
    return np.exp(-1j * integrand)


def estimate_white_noise_functional(batch: PathBatch,
                                    f: TestFunction) -> MCEstimate:
    """White-noise characteristic functional; target exp(-1/2 * integral f^2)."""
    _check_support(batch.grid, f)
    return sample_mean(white_noise_functional_samples(batch, f))


def estimate_covariance(grid: TimeGrid, d: int, n_paths: int, rng: RngStream,
                        node_indices: Sequence[int],
                        chunk_size: int = DEFAULT_CHUNK,
                        workers: int = 1) -> MCEstimate:
    """Means and second moments of path values at selected grid nodes.

    Returns an estimate whose mean stacks [w_j(s_a)] and [w_j(s_a) w_k(s_b)]
    as a flat vector: first d * len(nodes) first-moment entries, then the
    full (node, node, j, k) second-moment block. Raises ValueError, before
    sampling, when one chunk's second moments would exceed the budget.
    """
    idx = np.asarray(node_indices, dtype=int)
    check_budget("one chunk's second moments", min(n_paths, chunk_size),
                 len(idx), len(idx), d, d)

    def func(gen: np.random.Generator, count: int) -> np.ndarray:
        vals = paths_from_increments(grid, sample_increments(grid, d, count, gen))
        at = vals[:, idx, :]  # (count, a, d)
        first = at.reshape(count, -1)
        second = np.einsum("paj,pbk->pabjk", at, at).reshape(count, -1)
        return np.concatenate([first, second], axis=1)

    return mc_run(func, n_paths, rng, chunk_size=chunk_size, workers=workers)
