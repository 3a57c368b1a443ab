"""Probability-density-wave model of quantum measurement.

A numerical library for exponential-envelope wave functions, non-Hermitian
normal-operator algebra, non-unitary density-matrix evolution, Monte Carlo
measurement statistics, Sturm-Liouville eigenproblems, and complex
space-time identity checks.  ``import pdwave`` loads only ``pdwave.core``; each
other submodule, the ``pdwave.cli`` scenario runner included, loads on first access.
"""

import importlib

from .core import (
    Branch,
    ConvergenceError,
    EigenRecord,
    FreeWaveParams,
    RegionError,
    dispersion_omega,
    make_free_state,
)

__all__ = [
    "Branch",
    "ConvergenceError",
    "EigenRecord",
    "FreeWaveParams",
    "RegionError",
    "dispersion_omega",
    "make_free_state",
]

__version__ = "0.1.0"

_SUBMODULES = {"analysis", "cli", "evolution", "freewave", "measurement", "potential", "spectral"}


def __getattr__(name: str):
    """Import submodule ``name`` on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
