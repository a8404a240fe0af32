"""Monte Carlo laboratory for Feynman-Kac semigroups and phase-space calculus.

Subpackages cover Wiener-measure sampling (:mod:`fklab.wiener`), alpha-point
stochastic integrals (:mod:`fklab.stochint`), dense operator algebra
(:mod:`fklab.opalg`), matrix Feynman-Kac checks (:mod:`fklab.fkmatrix`),
Schroedinger-semigroup estimators (:mod:`fklab.fkschrodinger`), periodic
phase-space quantization (:mod:`fklab.phasespace`), and the experiment
runner (:mod:`fklab.cli`).
"""

from .mc import MCEstimate, mc_run
from .streams import RngStream
from .wiener import TimeGrid

__all__ = [
    "MCEstimate",
    "mc_run",
    "RngStream",
    "TimeGrid",
]

__version__ = "0.1.0"
