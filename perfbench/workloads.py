"""The four benchmark workloads, generated from the benchmark seed.

Each workload is a closed loop: one caller runs its parts back to back.
A part is either one ``fklab run`` experiment (kind ``cli``), executed
through ``fklab.cli.main`` with a generated JSON config, or one public
estimator call (kind ``api``). fklab sees only the generated configs; the
benchmark seed decides every config seed.

This module uses only the standard library, so the launcher can import it
without numpy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

WORKERS = 2

# matrices as nested [re, im] entry pairs, the CLI's matrix format
SX = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
SY = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]
SZ = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
_R = 1 / math.sqrt(2)
JX = [[[0, 0], [_R, 0], [0, 0]], [[_R, 0], [0, 0], [_R, 0]],
      [[0, 0], [_R, 0], [0, 0]]]
JY = [[[0, 0], [0, -_R], [0, 0]], [[0, _R], [0, 0], [0, -_R]],
      [[0, 0], [0, _R], [0, 0]]]
JZ = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
      [[0, 0], [0, 0], [-1, 0]]]

# z threshold of the benchmark's CLI configs: a false alarm on a correct
# program stays below 1e-6 per entry, so every seed the benchmark may be
# given passes while a biased estimator still fails
ZMAX = 5.0
# criterion 5's threshold for the Nov and Duhamel residuals
PREFIX_ZMAX = 4.0
ROUNDTRIP_TOL = 1e-10
# time_to_accuracy_s projects each Monte Carlo part's wall time to this
# worst-entry stderr by the 1/sqrt(N) law
TTA_STDERR = 1e-3


@dataclass(frozen=True)
class Part:
    """One operation of a workload.

    ``spec`` is a complete CLI config for kind ``cli``; for kind ``api`` it
    names the estimator and holds its arguments.
    """

    name: str
    kind: str
    spec: dict
    monte_carlo: bool
    tags: tuple = field(default=())
    rotation: int = 0


# a timed run cycles its passes through this many config seeds, so that
# time_to_accuracy_s does not rest on the stderr of a single seed
ROTATIONS = 6


def derive_seed(seed: int, workload: str, part: str, rotation: int) -> int:
    """64-bit config seed of one part, fixed by the benchmark seed."""
    text = f"{seed}:{workload}:{part}:{rotation}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _grid(t_end: float, n_steps: int) -> dict:
    return {"t_end": t_end, "n_steps": n_steps}


def _fk_pauli(tiny: bool) -> list[Part]:
    n_paths, n_steps = (8, 16) if tiny else (2048, 512)
    return [Part("fk-matrix", "cli", {
        "experiment": "fk-matrix", "n_paths": n_paths,
        "grid": _grid(1.0, n_steps),
        "params": {"A": [SX, SY], "B": SZ, "zmax": ZMAX}}, True)]


def _fk_prefix(tiny: bool) -> list[Part]:
    n_paths, n_steps, chunk = (8, 16, 2) if tiny else (1024, 512, 256)
    common = {"t": 1.0, "n_steps": n_steps, "n_paths": n_paths,
              "chunk_size": chunk}
    return [
        Part("nov-identity", "api",
             dict(common, estimator="check_nov_identity", A=[SX, SY],
                  B=None), True),
        Part("duhamel", "api",
             dict(common, estimator="check_duhamel", A=[SX], B=SZ,
                  n_quad=12), True),
    ]


def _scalar_paths(tiny: bool) -> list[Part]:
    n_paths, n_steps = (8, 16) if tiny else (32768, 256)

    def cli(experiment, params, t_end=1.0):
        return Part(experiment, "cli", {
            "experiment": experiment, "n_paths": n_paths,
            "grid": _grid(t_end, n_steps), "params": params}, True)

    return [
        cli("fk-kernel", {"potential": {"name": "harmonic"}}),
        cli("fk-semigroup", {"potential": {"name": "harmonic", "d": 3},
                             "psi": {"name": "harmonic-ground"},
                             "zmax": ZMAX}),
        cli("gauge", {"potential": {"name": "free", "d": 2},
                      "chi": {"name": "sine", "amplitude": 0.3,
                              "wavenumber": 0.5},
                      "q": [0.0, 0.0], "q_prime": [0.0, 0.0],
                      "zmax": ZMAX}),
        cli("diamagnetic", {"potential": {"name": "constant-magnetic-2d"},
                            "psi": {"name": "gaussian"}}),
        cli("khasminskii", {"potential": {"name": "constant-well"}}),
        cli("stochint-convergence", {"alpha": 0.0}),
        cli("wiener-stats", {"d": 2, "zmax": ZMAX}),
    ]


TROTTER_N = (4, 8, 16, 32)


def _dense_ops(tiny: bool) -> list[Part]:
    n_paths, n_steps, n_points, n_lattice = \
        (8, 16, 16, 16) if tiny else (1024, 128, 512, 64)
    parts = [Part("fk-matrix-spin1", "cli", {
        "experiment": "fk-matrix", "n_paths": n_paths,
        "grid": _grid(1.0, n_steps),
        "params": {"A": [JX, JY], "B": JZ, "zmax": ZMAX}}, True)]
    for op in ("harmonic", "random-hermitian"):
        parts.append(Part(f"roundtrip-{op}", "cli", {
            "experiment": "phasespace-roundtrip",
            "params": {"n_points": n_points, "length": 16.0,
                       "operator": {"name": op}}}, False, ("roundtrip",)))
    for n in TROTTER_N:
        parts.append(Part(f"trotter-n{n}", "cli", {
            "experiment": "trotter",
            "params": {"n_points": n_lattice, "length": 16.0, "n": n}},
            False, ("trotter",)))
    return parts


_WORKLOADS = {
    "fk-pauli": _fk_pauli,
    "fk-prefix": _fk_prefix,
    "scalar-paths": _scalar_paths,
    "dense-ops": _dense_ops,
}

NAMES = tuple(_WORKLOADS)

# workers each workload keeps busy, and so the threads its calibration runs
# in: fk-pauli and the spin-1 part of dense-ops have one chunk per call
BUSY_WORKERS = {"fk-pauli": 1, "fk-prefix": 2, "scalar-paths": 2,
                "dense-ops": 1}


def parts(workload: str, seed: int, tiny: bool = False,
          rotation: int = 0) -> list[Part]:
    """The workload's parts with config seeds derived from ``seed``.

    ``tiny`` shrinks every size to a few paths and steps, for tests.
    """
    out = []
    for p in _WORKLOADS[workload](tiny):
        spec = dict(p.spec, seed=derive_seed(seed, workload, p.name, rotation))
        out.append(Part(p.name, p.kind, spec, p.monte_carlo, p.tags,
                        rotation))
    return out
