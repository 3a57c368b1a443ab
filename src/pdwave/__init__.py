"""Probability-density-wave model of quantum measurement.

A numerical library for exponential-envelope wave functions, non-Hermitian
normal-operator algebra, non-unitary density-matrix evolution, Monte Carlo
measurement statistics, Sturm-Liouville eigenproblems, and complex
space-time identity checks.  The scenario runner behind the ``pdwave``
command is ``pdwave.cli``; importing the package does not load it.
"""

from . import analysis, core, evolution, freewave, measurement, potential, spectral
from .core import (
    Branch,
    ConvergenceError,
    DEFAULT_CONSTANTS,
    EigenRecord,
    FreeWaveParams,
    PhysicalConstants,
    RegionError,
    dispersion_omega,
    make_free_state,
)

__all__ = [
    "Branch",
    "ConvergenceError",
    "DEFAULT_CONSTANTS",
    "EigenRecord",
    "FreeWaveParams",
    "PhysicalConstants",
    "RegionError",
    "dispersion_omega",
    "make_free_state",
]

__version__ = "0.1.0"
