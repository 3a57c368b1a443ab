"""Non-Hermitian normal-operator algebra on the free wave family.

Observables act spectrally: on a family state each operator returns a
complex scalar eigenvalue, whose imaginary part is proportional to the
envelope rate and drops to zero at the measurement point (hermitization).
The complex space-time embedding x_c = x + ix, t_c = t + it carries a
plane wave on which the canonical commutators are checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .core import (
    Branch,
    EigenRecord,
    FreeWaveParams,
    MeasurementEvent,
    central_difference,
    envelope_lag,
    on_arrival,
)

__all__ = [
    "apply_observable",
    "hermitize_at_mp",
    "commutator_check",
    "complex_schrodinger_residual",
    "probability_field",
]


def apply_observable(
    obs: str,
    state: FreeWaveParams,
    at: tuple[float, float] | None = None,
    t0: float | None = None,
) -> EigenRecord:
    """Spectral value of an observable on a family state.

    H -> hbar*omega + i*hbar*R/2;  Hdagger -> its conjugate;
    P -> hbar*k + i*hbar*R/(2v);  S -> v*t0 + i*hbar*R*t0/(2 m v)
    (position of the system at a time t0 before the probe's arrival x/v).
    When ``at`` = (x, t) is on the arrival line t = x/v of a moving state,
    the hermitized (real) value is returned with ``at_mp=True``.
    """
    hbar, m = state.constants.hbar, state.constants.mass
    if obs in ("P", "S") and state.v == 0.0:
        raise ValueError(f"observable {obs} needs v > 0: at v = 0 its imaginary part divides by v")
    if obs == "H":
        value = complex(hbar * state.omega, 0.5 * hbar * state.R)
    elif obs == "Hdagger":
        value = complex(hbar * state.omega, -0.5 * hbar * state.R)
    elif obs == "P":
        value = complex(hbar * state.k, 0.5 * hbar * state.R / state.v)
    elif obs == "S":
        if t0 is None:
            raise ValueError("S requires the sampling time t0")
        if at is not None:
            envelope_lag(Branch.INCOMING, t0, at[0] / state.v)
        value = complex(state.v * t0, 0.5 * hbar * state.R * t0 / (m * state.v))
    else:
        raise ValueError(f"unknown observable {obs!r}")

    if at is not None and state.v > 0.0 and on_arrival(at[1], at[0] / state.v):
        return EigenRecord(value=complex(value.real, 0.0), at_mp=True)
    return EigenRecord(value=value, at_mp=False)


def hermitize_at_mp(record: EigenRecord, event: MeasurementEvent) -> EigenRecord:
    """Drop the imaginary part of an eigenvalue at a measurement event.

    An event exists only on arrival, so any ``MeasurementEvent`` will do;
    anything else raises ValueError.  Idempotent.
    """
    if not isinstance(event, MeasurementEvent):
        raise ValueError(f"hermitization needs a MeasurementEvent, got {type(event).__name__}")
    return replace(record, value=complex(record.value.real, 0.0), at_mp=True)


# The step of every derivative along the canonical line x_c = x(1 + i).
_STEP = 5e-3 * ((1.0 + 1.0j) / math.sqrt(2.0))


def _exp(u):
    """Elementwise np.exp that raises OverflowError, as cmath.exp does, instead of inf."""
    with np.errstate(all="ignore"):
        out = np.exp(u)
    if not np.all(np.isfinite(out)):
        raise OverflowError("exp leaves float range in complex space-time")
    return out


def commutator_check(pair: str, state: FreeWaveParams, probe_grid) -> complex:
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
        ab = z * (-1j * hbar) * central_difference(psi, z, _STEP)
        ba = -1j * hbar * central_difference(lambda u: u * psi(u), z, _STEP)
    elif pair == "TcHc":
        c = -hbar * hbar / (2.0 * m)
        ab = (z / state.v) * c * central_difference(psi, z, _STEP, order=2)
        ba = c * central_difference(lambda u: (u / state.v) * psi(u), z, _STEP, order=2)
    else:
        raise ValueError(f"unknown commutator pair {pair!r}")
    return complex(np.mean((ab - ba) / psi_z))


def complex_schrodinger_residual(state: FreeWaveParams, probe_grid, t: float = 0.0) -> float:
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
    lhs = -(hbar * hbar / (2.0 * m)) * central_difference(
        lambda u: _exp(1j * state.k * u - 1j * state.omega * t_c), z, _STEP, order=2)
    rhs = 1j * hbar * central_difference(
        lambda u: _exp(1j * state.k * z - 1j * state.omega * u), t_c, _STEP)
    return float(np.max(np.abs(lhs - rhs)))


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
