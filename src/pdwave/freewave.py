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
    FreeWaveParams,
    _panel_quadrature,
    central_difference,
    dispersion_omega,
    envelope_lag,
    stencil_steps,
)

__all__ = [
    "Grid1D",
    "dispersion_omega",
    "psi_free",
    "prob_density_free",
    "total_probability",
    "total_probability_quadrature",
    "normalize_state",
    "schrodinger_residual",
]


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


def _lag(params: FreeWaveParams, t: float, x):
    """``envelope_lag`` at tau = x/v."""
    return envelope_lag(params.branch, t, np.asarray(x, dtype=float) / params.v)


def _fd_steps(params: FreeWaveParams, grid: Grid1D) -> tuple[float, float]:
    """``stencil_steps`` (h_x, h_t) of the state on the grid, at its rates |k| and R/2v
    along x and |omega| and R/2 along t."""
    room_t = -float(np.max(_lag(params, grid.t, grid.xs())))
    return stencil_steps(room_t, params.v, max(abs(params.k), params.R / (2.0 * params.v)),
                         max(abs(params.omega), 0.5 * params.R))


def psi_free(params: FreeWaveParams, x, t: float):
    """Wave function of the free state at (x, t); x may be an array.

    Incoming: exp[(R/2)(t - x/v)] * exp[i(kx - omega*t)];
    outgoing: exp[(R/2)(x/v - t)] * exp[i(kx - omega*t)].
    On x = v*t both agree with the plane wave exp[i(kx - omega*t)].
    """
    xs = np.asarray(x, dtype=float)
    envelope = np.exp(0.5 * params.R * _lag(params, t, xs))
    phase = np.exp(1j * (params.k * xs - params.omega * t))
    out = envelope * phase
    return complex(out) if np.isscalar(x) else out


def prob_density_free(params: FreeWaveParams, x, t: float):
    """Probability density |psi|^2, evaluated from the envelope directly."""
    out = np.exp(params.R * _lag(params, t, x))
    return float(out) if np.isscalar(x) else out


def total_probability(params: FreeWaveParams) -> float:
    """Closed-form total probability of one branch: v/R.

    The envelope integral from the measurement point to infinity is exact;
    R = 0 makes the state a plane wave whose integral diverges.
    """
    if params.R == 0.0:
        raise ValueError("total probability diverges for R = 0 (plane-wave regime)")
    return params.v / params.R


def total_probability_quadrature(params: FreeWaveParams) -> float:
    """Quadrature cross-check of the branch integral on a truncated domain.

    Integrates the density from the measurement point out to 40 v/R (tail
    mass exp(-40)) with composite Gauss-Legendre.
    """
    if params.R == 0.0:
        raise ValueError("total probability diverges for R = 0 (plane-wave regime)")
    return _panel_quadrature(lambda u: np.exp(-params.R * u / params.v),
                             0.0, 40.0 * params.v / params.R)


def normalize_state(params: FreeWaveParams) -> FreeWaveParams:
    """Set R = v (total probability one) and recompute omega accordingly."""
    omega = dispersion_omega(params.k, params.v, params.v)
    return replace(params, R=params.v, omega=omega)


def _analytic_rates(params: FreeWaveParams) -> tuple[complex, complex]:
    """Return (beta, alpha) with psi_t = beta*psi and psi_x = alpha*psi."""
    sign = params.branch.sign
    beta = sign * 0.5 * params.R - 1j * params.omega
    alpha = -sign * 0.5 * params.R / params.v + 1j * params.k
    return beta, alpha


def schrodinger_residual(params: FreeWaveParams, grid: Grid1D, method: str = "analytic") -> float:
    """Max norm of i*hbar*psi_t + (hbar^2/2m)*psi_xx over the grid.

    ``method="analytic"`` uses the exact derivatives of the family, whose
    residual vanishes iff the dispersion relation and v = hbar*k/m hold.
    ``method="fd"`` takes ``core.central_difference`` with steps scaled to
    the state (``_fd_steps``) and normalizes each pointwise residual by the
    larger of its two terms, which measures pure finite-difference truncation.
    """
    xs = grid.xs()
    t = grid.t

    if method == "analytic":
        psi = psi_free(params, xs, t)
        beta, alpha = _analytic_rates(params)
        return float(np.max(np.abs((1j * beta + 0.5 * alpha * alpha) * psi)))
    if method != "fd":
        raise ValueError(f"unknown method {method!r}")

    h_x, h_t = _fd_steps(params, grid)
    term_t = 1j * central_difference(lambda tt: psi_free(params, xs, tt), t, h_t)
    term_x = 0.5 * central_difference(lambda x: psi_free(params, x, t), xs, h_x, order=2)
    scale = np.maximum(np.maximum(np.abs(term_t), np.abs(term_x)), 1e-300)
    return float(np.max(np.abs(term_t + term_x) / scale))
