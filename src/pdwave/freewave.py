"""Free-particle probability waves: envelopes, normalization, residual checks.

The family consists of a plane wave carried by an exponential envelope that
travels with the particle.  The incoming form lives on x >= v*t, the
outgoing form on x <= v*t, and both reduce to the bare plane wave on the
measurement-point line x = v*t.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DEFAULT_CONSTANTS,
    Branch,
    FreeWaveParams,
    PhysicalConstants,
    RegionError,
    dispersion_omega,
)

__all__ = [
    "Grid1D",
    "dispersion_omega",
    "min_momentum",
    "psi_free",
    "prob_density_free",
    "total_probability",
    "total_probability_quadrature",
    "normalize_state",
    "schrodinger_residual",
]

# Slack for deciding whether a probe sits on the allowed side of x = v*t.
_REGION_RTOL = 1e-9


@dataclass(frozen=True)
class Grid1D:
    """Uniform spatial probe grid at a single time."""

    x_min: float
    x_max: float
    n: int
    t: float

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be < x_max")
        if self.n < 3:
            raise ValueError("need at least 3 samples")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


def min_momentum(
    R: float, v: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> tuple[float, float]:
    """Least possible momentum pair +-hbar*R/(2v) of a zero-energy state."""
    if v <= 0.0:
        raise ValueError("v must be positive")
    p = constants.hbar * R / (2.0 * v)
    return (p, -p)


def _check_region(params: FreeWaveParams, x, t: float) -> None:
    """Reject probes on the wrong side of the measurement point x = v*t."""
    x = np.asarray(x, dtype=float)
    seam = params.v * t
    slack = _REGION_RTOL * max(1.0, abs(seam), float(np.max(np.abs(x))))
    if params.branch is Branch.INCOMING:
        if np.any(x < seam - slack):
            raise RegionError(
                f"incoming wave requires x >= v*t = {seam}; got min x = {x.min()}"
            )
    else:
        if np.any(x > seam + slack):
            raise RegionError(
                f"outgoing wave requires x <= v*t = {seam}; got max x = {x.max()}"
            )


def _envelope_lag(params: FreeWaveParams, x, t: float):
    """Signed lag behind the peak: t - x/v incoming, x/v - t outgoing.

    Probes on the wrong side of the measurement point are rejected first.
    """
    _check_region(params, x, t)
    xs = np.asarray(x, dtype=float)
    if params.branch is Branch.INCOMING:
        return t - xs / params.v
    return xs / params.v - t


def psi_free(params: FreeWaveParams, x, t: float):
    """Wave function of the free state at (x, t); x may be an array.

    Incoming: exp[(R/2)(t - x/v)] * exp[i(kx - omega*t)];
    outgoing: exp[(R/2)(x/v - t)] * exp[i(kx - omega*t)].
    On x = v*t both agree with the plane wave exp[i(kx - omega*t)].
    """
    envelope = np.exp(0.5 * params.R * _envelope_lag(params, x, t))
    xs = np.asarray(x, dtype=float)
    phase = np.exp(1j * (params.k * xs - params.omega * t))
    out = envelope * phase
    return complex(out) if np.isscalar(x) else out


def prob_density_free(params: FreeWaveParams, x, t: float):
    """Probability density |psi|^2, evaluated from the envelope directly."""
    out = np.exp(params.R * _envelope_lag(params, x, t))
    return float(out) if np.isscalar(x) else out


def total_probability(params: FreeWaveParams) -> float:
    """Closed-form total probability of one branch: v/R.

    The envelope integral from the measurement point to infinity is exact;
    R = 0 makes the state a plane wave whose integral diverges.
    """
    if params.R == 0.0:
        raise ValueError("total probability diverges for R = 0 (plane-wave regime)")
    return params.v / params.R


def total_probability_quadrature(
    params: FreeWaveParams, t: float = 0.0, efolds: float = 40.0, panels: int = 200
) -> float:
    """Quadrature cross-check of the branch integral on a truncated domain.

    Integrates the density from the measurement point out to
    ``efolds * v/R`` (tail mass exp(-efolds)) with composite Gauss-Legendre.
    """
    if params.R == 0.0:
        raise ValueError("total probability diverges for R = 0 (plane-wave regime)")
    width = efolds * params.v / params.R
    nodes, weights = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, width, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        u = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * np.sum(weights * np.exp(-params.R * u / params.v))
    return float(total)


def normalize_state(params: FreeWaveParams) -> FreeWaveParams:
    """Set R = v (total probability one) and recompute omega accordingly."""
    if params.v <= 0.0:
        raise ValueError("v must be positive")
    omega = dispersion_omega(params.k, params.v, params.v, params.constants)
    return replace(params, R=params.v, omega=omega)


def _analytic_rates(params: FreeWaveParams) -> tuple[complex, complex]:
    """Return (beta, alpha) with psi_t = beta*psi and psi_x = alpha*psi."""
    sign = 1.0 if params.branch is Branch.INCOMING else -1.0
    beta = sign * 0.5 * params.R - 1j * params.omega
    alpha = -sign * 0.5 * params.R / params.v + 1j * params.k
    return beta, alpha


def schrodinger_residual(
    params: FreeWaveParams,
    grid: Grid1D,
    method: str = "analytic",
    h_x: float = 1e-3,
    h_t: float = 1e-3,
    relative: bool = False,
) -> float:
    """Max norm of i*hbar*psi_t + (hbar^2/2m)*psi_xx over the grid.

    ``method="analytic"`` uses the exact derivatives of the family, whose
    residual vanishes iff the dispersion relation and v = hbar*k/m hold.
    ``method="fd"`` uses second-order central differences with steps
    (h_x, h_t); the grid (widened by the stencil) must stay at least three
    steps away from the envelope kink at x = v*t.  ``relative=True``
    normalizes each pointwise residual by the larger of its two terms,
    which measures pure finite-difference truncation.
    """
    xs = grid.xs()
    t = grid.t
    hbar, m = params.constants.hbar, params.constants.mass
    c = hbar * hbar / (2.0 * m)

    if method == "analytic":
        _check_region(params, xs, t)
        beta, alpha = _analytic_rates(params)
        psi = psi_free(params, xs, t)
        res = np.abs((1j * hbar * beta + c * alpha * alpha) * psi)
        if relative:
            scale = np.maximum(
                np.maximum(hbar * np.abs(beta), c * np.abs(alpha) ** 2) * np.abs(psi),
                1e-300,
            )
            res = res / scale
        return float(res.max())

    if method != "fd":
        raise ValueError(f"unknown method {method!r}")

    # Guard band: the whole stencil must sit in one branch, three steps clear
    # of the kink at x = v*t.
    seam_lo = params.v * (t - h_t)
    seam_hi = params.v * (t + h_t)
    if params.branch is Branch.INCOMING:
        if xs.min() - h_x < max(seam_lo, seam_hi) + 3.0 * h_x:
            raise RegionError("finite-difference stencil straddles the measurement point")
    else:
        if xs.max() + h_x > min(seam_lo, seam_hi) - 3.0 * h_x:
            raise RegionError("finite-difference stencil straddles the measurement point")

    d_t = (psi_free(params, xs, t + h_t) - psi_free(params, xs, t - h_t)) / (2.0 * h_t)
    psi0 = psi_free(params, xs, t)
    d_xx = (
        psi_free(params, xs + h_x, t) - 2.0 * psi0 + psi_free(params, xs - h_x, t)
    ) / (h_x * h_x)
    term_t = 1j * hbar * d_t
    term_x = c * d_xx
    res = np.abs(term_t + term_x)
    if relative:
        scale = np.maximum(np.maximum(np.abs(term_t), np.abs(term_x)), 1e-300)
        res = res / scale
    return float(res.max())
