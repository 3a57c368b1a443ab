"""Uncertainty decompositions, contour integrals, and the quantum potential.

Complex-valued observables split their sample variance between real and
imaginary parts; the probability densities extend to entire functions of
the complex position, so closed-contour integrals vanish and open paths
depend only on their endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConvergenceError, FreeWaveParams, _gauss_segment, _read_rows

__all__ = [
    "ComplexSampleSet",
    "Contour",
    "UncertaintyReport",
    "uncertainty_decompose",
    "heisenberg_check",
    "contour_integral",
    "quantum_potential",
]

_BLOCK = 1 << 14  # samples per uncertainty pass; a 256 kB complex block stays in L2


@dataclass(frozen=True, eq=False)
class ComplexSampleSet:
    """Samples of a complex-valued observable."""

    values: np.ndarray

    def __post_init__(self) -> None:
        z = np.ascontiguousarray(self.values, dtype=complex)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("need at least two samples")
        f = z.view(float)  # min and max carry NaN through; max reads min's 512 kB from L2
        blocks = (f[i:i + (1 << 16)] for i in range(0, f.size, 1 << 16))
        if not all(np.isfinite(b.min()) and np.isfinite(b.max()) for b in blocks):
            raise ValueError("samples must be finite")
        z.setflags(write=False)
        object.__setattr__(self, "values", z)


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

    One pass over ``_BLOCK``-sample blocks centred on the complex mean, so a large
    mean does not cancel, summed by np.sum (pairwise; BLAS dot's order follows the
    thread count).  <(z - <z>)^2> expands exactly into the real moments, so var_complex
    is assembled from them and the documented identities hold bit-for-bit.
    """
    z = samples.values
    mean, buf = z.mean(), np.empty(min(z.size, _BLOCK), dtype=complex)
    s_rr = s_ii = s_ri = 0.0
    for start in range(0, z.size, _BLOCK):
        d = np.subtract(z[start:start + _BLOCK], mean, out=buf[:min(_BLOCK, z.size - start)])
        s_rr += np.sum(d.real * d.real)
        s_ii += np.sum(d.imag * d.imag)
        s_ri += np.sum(d.real * d.imag)
    var_real, var_imag, covariance = (float(s / z.size) for s in (s_rr, s_ii, s_ri))
    var_complex = complex(var_real - var_imag, 2.0 * covariance)
    return UncertaintyReport(
        var_real=var_real,
        var_imag=var_imag,
        var_complex=var_complex,
        covariance=covariance,
    )


def heisenberg_check(dx_imag: float, dp_imag: float) -> bool:
    """Imaginary-part uncertainty product against the floor hbar/2."""
    if dx_imag < 0.0 or dp_imag < 0.0:
        raise ValueError("uncertainties must be nonnegative")
    return dx_imag * dp_imag >= 0.5


@dataclass(frozen=True, eq=False)
class Contour:
    """Polyline of complex positions, at time 0."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=complex)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("need at least two vertices")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    @classmethod
    def from_csv(cls, path) -> "Contour":
        """Read vertices from a CSV with header columns re_x, im_x."""
        data = _read_rows(path, delimiter=",", skiprows=1)
        if data.shape[1] != 2:
            raise ValueError("contour CSV must have columns re_x, im_x")
        return cls(vertices=data[:, 0] + 1j * data[:, 1])


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


def contour_integral(params: FreeWaveParams, contour: Contour) -> complex:
    """Integrate the branch density exp[-sign*R*z/v] along a polyline.

    The sign is the state's ``branch.sign``: +1 incoming, -1 outgoing.  The
    density is entire in the complex position z, so a closed contour
    integrates to zero (Cauchy) and open paths with the same endpoints
    agree.  Each segment uses order-16 Gauss-Legendre with adaptive
    bisection, at most 12 halvings deep, until the split disagreement is below 1e-10.
    """
    v = contour.vertices
    if np.any(v[1:] == v[:-1]):
        raise ValueError("contour contains a zero-length segment")
    rate = params.R * params.branch.sign

    def density(z):
        return np.exp(rate * (0.0 - z / params.v))  # not -z/v: 0.0 - 0.0 gives +0.0, not -0.0

    total = 0.0 + 0.0j
    for a, b in zip(v[:-1], v[1:]):
        total += _adaptive_segment(density, complex(a), complex(b), 1e-10)
    return total


def quantum_potential(params: FreeWaveParams) -> float:
    """Quantum-potential term of the energy balance, the same at every (x, t).

    Evaluates (hbar^2/4m) [P''/P - (P'/P)^2/2] for the exponential
    envelope, which reduces to hbar^2 R^2/(8 m v^2) on either branch: the
    exact gap between the plane-wave energy and the family's frequency.  It
    vanishes for the R = 0 plane wave left at a measurement point.
    """
    r = params.R / params.v
    return 0.25 * (0.5 * r * r)
