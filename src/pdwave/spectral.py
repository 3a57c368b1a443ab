"""Non-Hermitian normal-operator algebra on the free wave family.

Observables act spectrally: on a family state each operator returns a
complex scalar eigenvalue, whose imaginary part is proportional to the
envelope rate and drops to zero at the measurement point (hermitization).
The complex space-time embedding x_c = x + ix, t_c = t + it carries a
plane wave on which the canonical commutators are checked numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_CONSTANTS,
    EigenRecord,
    FreeWaveParams,
    PhysicalConstants,
    at_arrival,
)

__all__ = [
    "ComplexCoordinate",
    "GalileanPhase",
    "apply_observable",
    "hermitize_at_mp",
    "commutator_check",
    "psi_complex",
    "complex_schrodinger_residual",
    "galilean_phase",
    "probability_field",
]

MP_TOL = 1e-9


@dataclass(frozen=True)
class ComplexCoordinate:
    """A point (x_c, t_c) in complex space-time.

    The canonical embedding has im(x_c) = re(x_c) and im(t_c) = re(t_c);
    general points are allowed with ``canonical=False``.
    """

    x_c: complex
    t_c: complex
    canonical: bool = True

    def __post_init__(self) -> None:
        if self.canonical:
            if not (
                math.isclose(self.x_c.imag, self.x_c.real, rel_tol=0, abs_tol=1e-12)
                and math.isclose(self.t_c.imag, self.t_c.real, rel_tol=0, abs_tol=1e-12)
            ):
                raise ValueError("canonical coordinates require im = re componentwise")

    @classmethod
    def canonical_point(cls, x: float, t: float) -> "ComplexCoordinate":
        return cls(x_c=x * (1.0 + 1.0j), t_c=t * (1.0 + 1.0j))


def apply_observable(
    obs: str,
    state: FreeWaveParams,
    at: tuple[float, float] | None = None,
    t0: float | None = None,
) -> EigenRecord:
    """Spectral value of an observable on a family state.

    H -> hbar*omega + i*hbar*R/2;  Hdagger -> its conjugate;
    P -> hbar*k + i*hbar*R/(2v);  S -> v*t0 + i*hbar*R*t0/(2 m v)
    (position of the system at the earlier time t0 <= x/v).  When ``at``
    = (x, t) satisfies the arrival condition x = v*t, the hermitized
    (real) value is returned with ``at_mp=True``.
    """
    hbar, m = state.constants.hbar, state.constants.mass
    if obs == "H":
        value = complex(hbar * state.omega, 0.5 * hbar * state.R)
    elif obs == "Hdagger":
        value = complex(hbar * state.omega, -0.5 * hbar * state.R)
    elif obs == "P":
        value = complex(hbar * state.k, 0.5 * hbar * state.R / state.v)
    elif obs == "S":
        if t0 is None:
            raise ValueError("S requires the sampling time t0")
        if at is not None and t0 > at[0] / state.v + MP_TOL:
            raise ValueError("S requires t0 <= x/v (system has not passed the probe)")
        value = complex(state.v * t0, 0.5 * hbar * state.R * t0 / (m * state.v))
    else:
        raise ValueError(f"unknown observable {obs!r}")

    if at is not None and at_arrival(at[0], at[1], state.v, MP_TOL):
        return EigenRecord(observable=obs, value=complex(value.real, 0.0), at_mp=True)
    return EigenRecord(observable=obs, value=value, at_mp=False)


def hermitize_at_mp(record: EigenRecord, event) -> EigenRecord:
    """Drop the imaginary part of an eigenvalue at a measurement event.

    ``event`` must carry the event position ``x``, time ``t``, and the
    measured component's ``speed``; the arrival condition x = v*t is
    enforced.  Idempotent: a record already at the MP is returned as is.
    """
    if record.at_mp and record.value.imag == 0.0:
        return record
    if hasattr(event, "is_at_mp"):
        at_mp = event.is_at_mp()
    else:
        at_mp = at_arrival(event.x, event.t, event.speed, MP_TOL)
    if not at_mp:
        raise ValueError("event does not satisfy the arrival condition x = v*t")
    return replace(record, value=complex(record.value.real, 0.0), at_mp=True)


def psi_complex(state: FreeWaveParams, coord: ComplexCoordinate) -> complex:
    """Free wave in complex space-time: exp[i k x_c - i omega t_c].

    On the canonical line this equals exp[(1 - i)(omega t - k x)].
    """
    return cmath.exp(1j * state.k * coord.x_c - 1j * state.omega * coord.t_c)


_CANONICAL_DIR = (1.0 + 1.0j) / math.sqrt(2.0)


def _exp(u):
    """Elementwise np.exp that raises OverflowError, as cmath.exp does, instead of inf."""
    with np.errstate(all="ignore"):
        out = np.exp(u)
    if not np.all(np.isfinite(out)):
        raise OverflowError("exp leaves float range in complex space-time")
    return out


def _d1(f, z: complex, h: float) -> complex:
    """Richardson-extrapolated central first derivative along the canonical line."""
    step = h * _CANONICAL_DIR

    def central(s):
        return (f(z + s) - f(z - s)) / (2.0 * s)

    return (4.0 * central(0.5 * step) - central(step)) / 3.0


def _d2(f, z: complex, h: float) -> complex:
    """Richardson-extrapolated central second derivative along the canonical line."""
    step = h * _CANONICAL_DIR

    def central(s):
        return (f(z + s) - 2.0 * f(z) + f(z - s)) / (s * s)

    return (4.0 * central(0.5 * step) - central(step)) / 3.0


def commutator_check(
    pair: str,
    state: FreeWaveParams,
    probe_grid,
    h: float = 5e-3,
) -> complex:
    """Mean of ((AB - BA) psi) / psi over canonical probe points.

    ``pair="XcPc"`` checks the position-momentum commutator with
    p_c = -i hbar d/dx_c; ``pair="TcHc"`` checks time-energy with
    t_c realized as multiplication by x_c / v on the family and
    H_c = -(hbar^2/2m) d^2/dx_c^2.  Both must equal i*hbar.
    """
    hbar, m = state.constants.hbar, state.constants.mass
    z = np.asarray(probe_grid, dtype=float) * (1.0 + 1.0j)
    if z.size == 0:
        raise ValueError("probe grid is empty")

    def psi(u):
        return _exp(1j * state.k * u)

    psi_z = psi(z)
    underflow = np.abs(psi_z) < 1e-300
    if np.any(underflow):
        raise ValueError(f"|psi| underflows at probe point {z[np.argmax(underflow)]}")
    if pair == "XcPc":
        ab = z * (-1j * hbar) * _d1(psi, z, h)
        ba = -1j * hbar * _d1(lambda u: u * psi(u), z, h)
    elif pair == "TcHc":
        c = -hbar * hbar / (2.0 * m)
        ab = (z / state.v) * c * _d2(psi, z, h)
        ba = c * _d2(lambda u: (u / state.v) * psi(u), z, h)
    else:
        raise ValueError(f"unknown commutator pair {pair!r}")
    return complex(np.mean((ab - ba) / psi_z))


def complex_schrodinger_residual(
    state: FreeWaveParams, probe_grid, t: float = 0.0, h: float = 5e-3
) -> float:
    """Max residual of -(hbar^2/2m) psi_xx = i hbar psi_t in complex space-time.

    Derivatives are taken numerically along the canonical directions at
    points x_c = x(1+i), t_c = t(1+i).  The residual vanishes when
    hbar*omega = hbar^2 k^2 / 2m; with the envelope dispersion it equals
    the quantum-potential gap hbar^2 R^2/(8 m v^2) times |psi|.
    """
    hbar, m = state.constants.hbar, state.constants.mass
    z = np.asarray(probe_grid, dtype=float) * (1.0 + 1.0j)
    if z.size == 0:
        raise ValueError("probe grid is empty")
    t_c = t * (1.0 + 1.0j)
    lhs = -(hbar * hbar / (2.0 * m)) * _d2(
        lambda u: _exp(1j * state.k * u - 1j * state.omega * t_c), z, h)
    rhs = 1j * hbar * _d1(lambda u: _exp(1j * state.k * z - 1j * state.omega * u), t_c, h)
    return float(np.max(np.abs(lhs - rhs)))


@dataclass(frozen=True)
class GalileanPhase:
    """Linear phase f(x, t) = k x - omega t induced by a frame boost."""

    k: float
    omega: float

    def __call__(self, x: float, t: float) -> float:
        return self.k * x - self.omega * t


def galilean_phase(
    v: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> GalileanPhase:
    """Phase descriptor of the boost by speed v: k = m v/hbar, omega = k v/2."""
    if v <= 0.0:
        raise ValueError("v must be positive")
    k = constants.mass * v / constants.hbar
    return GalileanPhase(k=k, omega=0.5 * k * v)


def galilean_conditions(
    phase: GalileanPhase, v: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> tuple[float, float]:
    """Residuals of the first-order invariance conditions for a linear phase.

    (hbar/m) f_x - v = 0  and  (hbar/2m) f_x^2 - v f_x - f_t = 0.  Both
    vanish for the descriptor returned by ``galilean_phase``, whose phase is
    linear, so its f_xx = 0 holds by construction.
    """
    hbar, m = constants.hbar, constants.mass
    c1 = hbar * phase.k / m - v
    c2 = hbar * phase.k**2 / (2.0 * m) - v * phase.k + phase.omega
    return (c1, c2)


def probability_field(s: float, params: FreeWaveParams) -> float:
    """Probability of finding the system at separation s from itself: e^{-s}.

    Requires a normalized state (R = v), for which the co-moving envelope
    takes this parameter-free form.
    """
    if s < 0.0:
        raise ValueError("separation must be nonnegative")
    if not params.is_normalized:
        raise ValueError("probability field requires a normalized state (R = v)")
    return math.exp(-s)
