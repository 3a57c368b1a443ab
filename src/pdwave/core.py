"""Shared domain types, physical constants, and validated constructors.

Complex-valued quantities (eigenvalues, wave amplitudes, complex positions
and times) are represented with Python's built-in ``complex``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class RegionError(ValueError):
    """A space-time probe lies outside the branch region of a wave.

    Signals that the caller crossed the measurement point without switching
    branch, or placed a differential stencil across the envelope kink.
    """


class ConvergenceError(RuntimeError):
    """An iterative numerical routine failed to converge."""

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in natural units (all default to 1)."""

    hbar: float = 1.0
    mass: float = 1.0
    kB: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "kB"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


DEFAULT_CONSTANTS = PhysicalConstants()


class Branch(enum.Enum):
    """Side of the measurement point a traveling wave occupies.

    INCOMING waves live on x >= v*t and decay toward +infinity; OUTGOING
    waves live on x <= v*t and decay toward -infinity.  The two branches
    coincide with a plane wave on the line x = v*t.
    """

    INCOMING = "incoming"
    OUTGOING = "outgoing"


def dispersion_omega(
    k: float, R: float, v: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Angular frequency of the exponential-envelope free wave.

    hbar*omega = hbar^2 k^2 / (2 m) - hbar^2 R^2 / (8 m v^2); the second
    term is the quantum-potential correction, which vanishes when R = 0.
    """
    if not all(math.isfinite(q) for q in (k, R, v)):
        raise ValueError("k, R, v must be finite")
    if v <= 0.0:
        raise ValueError(f"v must be positive, got {v!r}")
    hbar, m = constants.hbar, constants.mass
    return hbar * k * k / (2.0 * m) - hbar * R * R / (8.0 * m * v * v)


@dataclass(frozen=True)
class FreeWaveParams:
    """Parameters of the free-particle exponential-envelope wave family.

    ``make_free_state`` guarantees k = m*v/hbar and the dispersion relation
    for omega; direct construction skips those two checks so that
    deliberately off-shell states can be fed to the residual diagnostics.
    """

    k: float
    omega: float
    R: float
    v: float
    branch: Branch
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        for name in ("k", "omega", "R", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.R < 0.0:
            raise ValueError(f"envelope rate R must be nonnegative, got {self.R!r}")
        if self.v < 0.0:
            raise ValueError(f"speed v must be nonnegative, got {self.v!r}")

    @property
    def is_normalized(self) -> bool:
        """True when R = v, i.e. total probability v/R equals one."""
        return math.isclose(self.R, self.v, rel_tol=1e-12, abs_tol=1e-15)

    def satisfies_dispersion(self, tol: float = 1e-12) -> bool:
        """Check hbar*omega + hbar^2 R^2/(8 m v^2) - hbar^2 k^2/(2 m) = 0."""
        if self.v == 0.0:
            return self.omega == 0.0 and self.R == 0.0
        hbar, m = self.constants.hbar, self.constants.mass
        gap = (
            hbar * self.omega
            + hbar * hbar * self.R * self.R / (8.0 * m * self.v * self.v)
            - hbar * hbar * self.k * self.k / (2.0 * m)
        )
        scale = max(1.0, abs(hbar * self.omega), hbar * hbar * self.k * self.k / (2.0 * m))
        return abs(gap) <= tol * scale


ObservableTag = str
OBSERVABLE_TAGS = ("H", "Hdagger", "P", "S", "X_c", "T_c")


@dataclass(frozen=True)
class EigenRecord:
    """A (possibly complex) measurement-rule value for one observable."""

    observable: ObservableTag
    value: complex
    at_mp: bool = False

    def __post_init__(self) -> None:
        if self.observable not in OBSERVABLE_TAGS:
            raise ValueError(f"unknown observable {self.observable!r}")
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError("eigenvalue components must be finite")
        if self.at_mp and self.value.imag != 0.0:
            raise ValueError("a measurement-point record must carry a real value")


def at_arrival(x: float, t: float, v: float, tol: float) -> bool:
    """Arrival condition of a wave peak: |x - v*t| <= tol * max(1, |x|)."""
    return abs(x - v * t) <= tol * max(1.0, abs(x))


def make_free_state(
    v: float,
    R: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    branch: Branch = Branch.INCOMING,
) -> FreeWaveParams:
    """Construct a free wave state moving along +x with speed v.

    Sets k = m*v/hbar and omega from the dispersion relation, so every
    returned state satisfies the family invariants.
    """
    if not (math.isfinite(v) and math.isfinite(R)):
        raise ValueError("v and R must be finite")
    if v <= 0.0:
        raise ValueError(f"v must be positive, got {v!r}")
    if R < 0.0:
        raise ValueError(f"R must be nonnegative, got {R!r}")
    k = constants.mass * v / constants.hbar
    omega = dispersion_omega(k, R, v, constants)
    return FreeWaveParams(k=k, omega=omega, R=R, v=v, branch=branch, constants=constants)
