"""Uncertainty decompositions, contour integrals, and normalization checks.

Complex-valued observables split their sample variance between real and
imaginary parts; the probability densities extend to entire functions of
the complex position, so closed-contour integrals vanish and open paths
depend only on their endpoints.  The distribution function of a traveling
envelope normalizes to one by a change of variables, independent of the
envelope's parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DEFAULT_CONSTANTS,
    FreeWaveParams,
    PhysicalConstants,
    RegionError,
    _gauss_segment,
    _panel_quadrature,
)

__all__ = [
    "ComplexSampleSet",
    "Contour",
    "UncertaintyReport",
    "uncertainty_decompose",
    "heisenberg_check",
    "contour_integral",
    "negative_density_slope",
    "distribution_normalize",
    "quantum_potential",
]


@dataclass(frozen=True, eq=False)
class ComplexSampleSet:
    """Samples of a complex-valued observable."""

    values: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.values, dtype=complex)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(z)):
            raise ValueError("samples must be finite")
        z.setflags(write=False)
        object.__setattr__(self, "values", z)

    @classmethod
    def from_pairs(cls, pairs) -> "ComplexSampleSet":
        arr = np.asarray(pairs, dtype=float)
        return cls(values=arr[:, 0] + 1j * arr[:, 1])


@dataclass(frozen=True)
class UncertaintyReport:
    """Variance split of a complex observable.

    The exact algebraic identities are var_complex = var_real - var_imag
    + 2i*covariance, so the real part of the complex variance equals
    var_real - var_imag and the covariance shows up purely in the
    imaginary part.
    """

    var_real: float
    var_imag: float
    var_complex: complex
    covariance: float


def uncertainty_decompose(samples: ComplexSampleSet) -> UncertaintyReport:
    """Population variances of re, im, and the complex second moment.

    <z^2> - <z>^2 expands exactly into the real moments, so var_complex is
    assembled from them and the documented identities hold bit-for-bit.
    """
    z = samples.values
    re, im = z.real, z.imag
    var_real = float(np.mean(re * re) - np.mean(re) ** 2)
    var_imag = float(np.mean(im * im) - np.mean(im) ** 2)
    covariance = float(np.mean(re * im) - np.mean(re) * np.mean(im))
    var_complex = complex(var_real - var_imag, 2.0 * covariance)
    return UncertaintyReport(
        var_real=var_real,
        var_imag=var_imag,
        var_complex=var_complex,
        covariance=covariance,
    )


def heisenberg_check(
    dx_imag: float, dp_imag: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> bool:
    """Imaginary-part uncertainty product against the floor hbar/2."""
    if dx_imag < 0.0 or dp_imag < 0.0:
        raise ValueError("uncertainties must be nonnegative")
    return dx_imag * dp_imag >= 0.5 * constants.hbar


@dataclass(frozen=True, eq=False)
class Contour:
    """Polyline of complex positions at a fixed complex time.

    The contour is closed when its last vertex returns to its first.
    """

    vertices: np.ndarray
    t_c: complex = 0.0

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=complex)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need at least two vertices")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @property
    def closed(self) -> bool:
        v = self.vertices
        return bool(abs(v[0] - v[-1]) < 1e-15 * max(1.0, abs(v[0])))

    @classmethod
    def from_csv(cls, path, t_c: complex = 0.0) -> "Contour":
        """Read vertices from a CSV with header columns re_x, im_x."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2:
            raise ValueError("contour CSV must have columns re_x, im_x")
        return cls(vertices=data[:, 0] + 1j * data[:, 1], t_c=t_c)


def _adaptive_segment(f, a: complex, b: complex, tol: float, depth: int = 0) -> complex:
    whole = _gauss_segment(f, a, b)
    mid = 0.5 * (a + b)
    split = _gauss_segment(f, a, mid) + _gauss_segment(f, mid, b)
    if abs(whole - split) < tol:
        return split
    if depth >= 12:
        raise ConvergenceError("contour quadrature did not converge", iterations=depth)
    return _adaptive_segment(f, a, mid, 0.5 * tol, depth + 1) + _adaptive_segment(
        f, mid, b, 0.5 * tol, depth + 1
    )


def contour_integral(params: FreeWaveParams, contour: Contour, tol: float = 1e-10) -> complex:
    """Integrate the branch density exp[sign*R*(t_c - z/v)] along a polyline.

    The sign is the state's ``branch.sign``: +1 incoming, -1 outgoing.  The
    density is entire in the complex position z, so a closed contour
    integrates to zero (Cauchy) and open paths with the same endpoints
    agree.  Each segment uses order-16 Gauss-Legendre with adaptive
    bisection, at most 12 halvings deep, until the split disagreement is below ``tol``.
    """
    v = contour.vertices
    if np.any(v[1:] == v[:-1]):
        raise ValueError("contour contains a zero-length segment")
    rate = params.R * params.branch.sign

    def density(z):
        return np.exp(rate * (contour.t_c - z / params.v))

    total = 0.0 + 0.0j
    for a, b in zip(v[:-1], v[1:]):
        total += _adaptive_segment(density, complex(a), complex(b), tol)
    return total


def negative_density_slope(params: FreeWaveParams, x: float, t: float) -> float:
    """Spatial slope of the incoming distribution: -(R/v) exp[R(t - x/v)].

    Strictly negative while the system approaches the measurement point;
    this signed derivative is the computable content of the negative
    probability density.
    """
    if not x > params.v * t:
        raise RegionError("slope is defined on the incoming side x > v*t")
    return -(params.R / params.v) * math.exp(params.R * (t - x / params.v))


def distribution_normalize(
    params: FreeWaveParams,
    t: float = 0.0,
    x_max: float | None = None,
) -> float:
    """Total probability via the change of variables d(pi): always one.

    The distribution function pi of the incoming wave decreases from 1 at
    x = v*t toward 0, so -integral of d(pi) from pi=1 to pi=0 equals one
    regardless of the envelope parameters.  In operator terms pi(x) is the
    state's average of the position projectors accumulated up to x, and the
    full total is the average of the identity.  A Gauss-Legendre quadrature
    of -d(pi)/dx over the truncated domain cross-checks the value to 1e-8.
    """
    if params.R <= 0.0:
        raise ValueError("distribution is non-monotone for R = 0 (plane-wave regime)")
    start = params.v * t
    if x_max is None:
        x_max = start + 40.0 * params.v / params.R

    def pi_of(x):
        return np.exp(params.R * (t - x / params.v))

    value = float(pi_of(start) - 0.0)

    def slope(x):
        return -(params.R / params.v) * pi_of(x)

    quad = -_panel_quadrature(slope, start, x_max)
    if abs(quad - value) > 1e-8:
        raise ConvergenceError(f"quadrature cross-check deviates: {quad} vs {value}")
    return value


def quantum_potential(params: FreeWaveParams, x: float, t: float) -> float:
    """Quantum-potential term of the energy balance at (x, t).

    Evaluates (hbar^2/4m) [P''/P - (P'/P)^2/2] for the exponential
    envelope, which reduces to hbar^2 R^2/(8 m v^2): the exact gap between
    the plane-wave energy and the family's frequency.  It vanishes for the
    R = 0 plane wave left at a measurement point.
    """
    R = params.R
    if params.v == 0.0:
        return 0.0
    log_slope = -params.branch.sign * R / params.v
    curvature = log_slope * log_slope  # P = exp(linear): P''/P = (P'/P)^2
    hbar, m = params.constants.hbar, params.constants.mass
    return hbar * hbar / (4.0 * m) * (curvature - 0.5 * log_slope * log_slope)
