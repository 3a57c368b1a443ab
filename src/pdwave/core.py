"""Shared domain types, physical constants, and validated constructors.

Complex-valued quantities (eigenvalues, wave amplitudes, complex positions
and times) are represented with Python's built-in ``complex``.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


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
    """Side of the arrival line t = tau(x) a traveling wave occupies.

    INCOMING waves live on t <= tau(x), OUTGOING waves on t >= tau(x); a
    free wave has tau(x) = x/v, so INCOMING lives on x >= v*t.  The two
    branches coincide with a plane wave on the arrival line.
    """

    INCOMING = "incoming"
    OUTGOING = "outgoing"

    @property
    def sign(self) -> int:
        """+1 incoming, -1 outgoing: the sign of t - tau(x) in the envelope."""
        return 1 if self is Branch.INCOMING else -1


def envelope_lag(branch: Branch, t: float, tau):
    """Signed lag sign*(t - tau) of probes with arrival times tau at time t.

    The lag is at most 0 on the branch's side of the arrival line.  Raises
    RegionError when any lag exceeds 1e-9*max(1, |t|, max|tau|).
    """
    tau = np.asarray(tau, dtype=float)
    lag = branch.sign * (t - tau)
    slack = 1e-9 * max(1.0, abs(t), float(np.max(np.abs(tau))))
    if np.any(lag > slack):
        raise RegionError(f"{branch.value} probe at t = {t} lags {float(np.max(lag))} "
                          "past its arrival line t = tau(x)")
    return lag


def on_arrival(t: float, tau: float, tol: float = 1e-9) -> bool:
    """|t - tau| <= tol*max(1, |t|, |tau|): at tol = 1e-9, both envelope_lag branches accept t."""
    return abs(t - tau) <= tol * max(1.0, abs(t), abs(tau))


def stencil_step(step: float, room: float) -> float:
    """``step`` capped at a quarter of ``room``, the probes' distance to the arrival line.

    Raises RegionError when no stencil fits: the room is empty, or so narrow
    that the square of half the step underflows.
    """
    h = min(step, 0.25 * room)
    if not (h > 0.0 and (0.5 * h) ** 2 >= sys.float_info.min):
        raise RegionError(f"no finite-difference step fits in room {room} to the arrival line")
    return h


def central_difference(f, z, h, order: int = 1):
    """Derivative of f at z of order 1 or 2, Richardson-extrapolated (Richardson 1911).

    D(s) is the second-order central difference over the step s, and
    (4*D(h/2) - D(h))/3 cancels its h^2 error term.  A complex h steps
    along its own direction in the complex plane.
    """
    twice = 2.0 * f(z) if order == 2 else None

    def central(s):
        if order == 1:
            return (f(z + s) - f(z - s)) / (2.0 * s)
        return (f(z + s) - twice + f(z - s)) / (s * s)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


@dataclass(frozen=True, eq=False)
class MeasurementEvent:
    """Arrival of a wave peak at the device particle at (x, t).

    ``tau`` is the arriving component's arrival time at x, x/speed for a
    free wave when omitted.  An event exists only on arrival: construction
    raises ValueError unless ``on_arrival(t, tau, tol)``.
    """

    x: float
    t: float
    speed: float
    tol: float = 1e-9
    tau: float | None = None

    def __post_init__(self) -> None:
        if self.tau is None:
            if self.speed == 0.0:
                raise ValueError("a wave of speed 0 never arrives: an event needs tau")
            object.__setattr__(self, "tau", self.x / self.speed)
        if not on_arrival(self.t, self.tau, self.tol):
            raise ValueError(f"event at t = {self.t} is off the arrival line t = {self.tau}")


def dispersion_omega(
    k: float, R: float, v: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> float:
    """Angular frequency of the exponential-envelope free wave.

    hbar*omega = hbar^2 k^2 / (2 m) - hbar^2 R^2 / (8 m v^2); the second
    term is the quantum-potential correction, which vanishes when R = 0.
    Raises OverflowError, naming R and v, when omega leaves float range.
    """
    if not all(math.isfinite(q) for q in (k, R, v)):
        raise ValueError("k, R, v must be finite")
    if v <= 0.0:
        raise ValueError(f"v must be positive, got {v!r}")
    hbar, m = constants.hbar, constants.mass
    # (R/v)*(R/v), not (R/v)**2, which raises an unnamed OverflowError on Python floats.
    omega = hbar * k * k / (2.0 * m) - hbar * (R / v) * (R / v) / (8.0 * m)
    if not math.isfinite(omega):
        raise OverflowError(f"dispersion omega leaves float range at R = {R!r}, v = {v!r}")
    return omega


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


@dataclass(frozen=True)
class EigenRecord:
    """A (possibly complex) measurement-rule value for one observable."""

    value: complex
    at_mp: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value.real) and math.isfinite(self.value.imag)):
            raise ValueError("eigenvalue components must be finite")
        if self.at_mp and self.value.imag != 0.0:
            raise ValueError("a measurement-point record must carry a real value")


@functools.cache
def _gauss_legendre_16() -> tuple[np.ndarray, np.ndarray]:
    """Order-16 Gauss-Legendre nodes and weights, so only a quadrature loads numpy.polynomial."""
    return np.polynomial.legendre.leggauss(16)


def _gauss_segment(f, a, b):
    """Order-16 Gauss-Legendre integral of f along the straight segment a -> b."""
    nodes, weights = _gauss_legendre_16()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * np.sum(weights * f(mid + half * nodes))


def _panel_quadrature(f, a: float, b: float) -> float:
    """Real part of the integral of f over [a, b] on 200 Gauss-Legendre panels.

    Panels are summed in order, so the result is reproducible to the bit.
    """
    edges = np.linspace(a, b, 201)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += _gauss_segment(f, lo, hi).real
    return float(total)


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
