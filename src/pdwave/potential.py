"""Inhomogeneous probability waves in a static potential and their eigenproblem.

A state in a time-independent potential carries a position-dependent wave
number k(x) and speed v(x) = hbar*k(x)/m.  Its density is an inhomogeneous
traveling wave whose arrival time at x is the integral of 1/v, and the
radial amplitude R(x) of the bound problem satisfies a Sturm-Liouville
equation solved here by Numerov shooting with a dense-matrix cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal

from .core import (
    DEFAULT_CONSTANTS,
    Branch,
    ConvergenceError,
    PhysicalConstants,
    RegionError,
)
from .freewave import Grid1D

__all__ = [
    "PotentialSpec",
    "SLProblem",
    "SLSolution",
    "MpLimitReport",
    "arrival_time",
    "psi_potential",
    "prob_density_potential",
    "continuity_residual",
    "solve_sturm_liouville",
    "mp_limit_check",
    "mode_arrival_times",
    "load_potential_tables",
]


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Sampled potential V(x) and local wave number k(x) for one state.

    The local speed v(x) = hbar*k(x)/m must stay positive on the whole
    domain.  Between samples, k and V are cubic-spline interpolated;
    arrival times and phases are the exact integrals of the interpolants.
    """

    x_samples: np.ndarray
    V: np.ndarray
    kx: np.ndarray
    R: float
    omega: float
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        xs = np.asarray(self.x_samples, dtype=float)
        V = np.asarray(self.V, dtype=float)
        kx = np.asarray(self.kx, dtype=float)
        if xs.ndim != 1 or xs.size < 8:
            raise ValueError("need at least 8 strictly increasing x samples")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("x samples must be strictly increasing")
        if V.shape != xs.shape or kx.shape != xs.shape:
            raise ValueError("V and kx must match x_samples in shape")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(V)) and np.all(np.isfinite(kx))):
            raise ValueError("samples must be finite")
        if self.R < 0.0 or not math.isfinite(self.R):
            raise ValueError("envelope rate R must be finite and nonnegative")
        if np.any(kx <= 0.0):
            raise ValueError("local speed v(x) = hbar*k(x)/m must be positive everywhere")
        for a in (xs, V, kx):
            a.setflags(write=False)
        object.__setattr__(self, "x_samples", xs)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "kx", kx)

        k_spline = CubicSpline(xs, kx)
        v = self.constants.hbar * kx / self.constants.mass
        # Positivity can fail between nodes even when samples are positive.
        probe = np.linspace(xs[0], xs[-1], 8 * xs.size)
        if np.any(k_spline(probe) <= 0.0):
            raise ValueError("interpolated k(x) dips to zero between samples")
        inv_v_spline = CubicSpline(xs, 1.0 / v)
        object.__setattr__(self, "_k_spline", k_spline)
        object.__setattr__(self, "_v_spline", CubicSpline(xs, v))
        object.__setattr__(self, "_tau_spline", inv_v_spline.antiderivative())
        object.__setattr__(self, "_phase_spline", k_spline.antiderivative())

    @property
    def x_start(self) -> float:
        return float(self.x_samples[0])

    @property
    def x_end(self) -> float:
        return float(self.x_samples[-1])

    def k_at(self, x):
        return self._k_spline(x)

    def v_at(self, x):
        return self._v_spline(x)

    def _check_domain(self, x) -> None:
        xs = np.asarray(x, dtype=float)
        slack = 1e-12 * max(1.0, abs(self.x_start), abs(self.x_end))
        if np.any(xs < self.x_start - slack) or np.any(xs > self.x_end + slack):
            raise ValueError(
                f"x outside domain [{self.x_start}, {self.x_end}]"
            )


def arrival_time(spec: PotentialSpec, x):
    """Travel time from the domain start to x: the integral of 1/v(x')."""
    spec._check_domain(x)
    tau = spec._tau_spline(x) - spec._tau_spline(spec.x_start)
    return float(tau) if np.isscalar(x) else tau


def _phase(spec: PotentialSpec, x):
    """Accumulated phase integral of k(x') from the domain start."""
    return spec._phase_spline(x) - spec._phase_spline(spec.x_start)


def _envelope_lag(spec: PotentialSpec, branch: Branch, x, t: float):
    """Signed lag behind the peak: t - tau(x) incoming, tau(x) - t outgoing.

    Probes on the wrong side of the arrival time are rejected first.
    """
    tau = np.asarray(arrival_time(spec, x))
    slack = 1e-9 * max(1.0, float(np.max(np.abs(tau))), abs(t))
    if branch is Branch.INCOMING:
        if np.any(t > tau + slack):
            raise RegionError("incoming wave requires t <= arrival time at x")
        return t - tau
    if np.any(t < tau - slack):
        raise RegionError("outgoing wave requires t >= arrival time at x")
    return tau - t


def psi_potential(spec: PotentialSpec, branch: Branch, x, t: float, x_mp=None):
    """Wave function of the potential state at (x, t).

    |k_mp/k(x)|^(1/2) * exp[+-(R/2)(t - tau(x))] * exp[i(phase(x) - omega*t)],
    where tau is the arrival-time integral and k_mp = k at the measurement
    point ``x_mp`` (defaults to the probe x, which pins |psi| = 1 on
    arrival there).
    """
    lag = _envelope_lag(spec, branch, x, t)
    xs = np.asarray(x, dtype=float)
    k_here = spec.k_at(xs)
    k_mp = spec.k_at(x_mp) if x_mp is not None else k_here
    prefactor = np.sqrt(np.abs(k_mp / k_here))
    envelope = np.exp(0.5 * spec.R * lag)
    phase = np.exp(1j * (_phase(spec, xs) - spec.omega * t))
    out = prefactor * envelope * phase
    return complex(out) if np.isscalar(x) else out


def prob_density_potential(spec: PotentialSpec, branch: Branch, x, t: float, x_mp=None):
    """Probability density (k_mp/|k(x)|) * exp[+-R(t - tau(x))]."""
    lag = _envelope_lag(spec, branch, x, t)
    xs = np.asarray(x, dtype=float)
    k_here = spec.k_at(xs)
    k_mp = spec.k_at(x_mp) if x_mp is not None else k_here
    out = np.abs(k_mp / k_here) * np.exp(spec.R * lag)
    return float(out) if np.isscalar(x) else out


def continuity_residual(
    spec: PotentialSpec,
    branch: Branch,
    grid: Grid1D,
    h_x: float = 1e-3,
    h_t: float = 1e-3,
    x_mp=None,
    density=None,
) -> float:
    """Max |dP/dt + d(P*v)/dx| over the grid, by central differences.

    The identity holds exactly for the family's density, so the returned
    value measures finite-difference truncation.  ``density`` may override
    the density function (used to verify the check catches injected
    defects).  The whole stencil must stay inside one branch region.
    """
    xs = grid.xs()
    t = grid.t
    if x_mp is None:
        x_mp = spec.x_start
    if density is None:
        def density(x_, t_):
            return prob_density_potential(spec, branch, x_, t_, x_mp=x_mp)

    v_min = float(np.min(spec.v_at(np.linspace(spec.x_start, spec.x_end, 256))))
    guard = 3.0 * max(h_t, h_x / v_min)
    tau_lo = np.min(arrival_time(spec, xs - h_x))
    tau_hi = np.max(arrival_time(spec, xs + h_x))
    if branch is Branch.INCOMING:
        if t + h_t > tau_lo - guard:
            raise RegionError("stencil straddles the measurement point")
    else:
        if t - h_t < tau_hi + guard:
            raise RegionError("stencil straddles the measurement point")

    dP_dt = (density(xs, t + h_t) - density(xs, t - h_t)) / (2.0 * h_t)
    flux_plus = density(xs + h_x, t) * spec.v_at(xs + h_x)
    flux_minus = density(xs - h_x, t) * spec.v_at(xs - h_x)
    d_flux = (flux_plus - flux_minus) / (2.0 * h_x)
    return float(np.max(np.abs(dP_dt + d_flux)))


@dataclass(frozen=True)
class MpLimitReport:
    """Arrival-point checks: free-particle behavior at the measurement point."""

    D_equals_k_mp: bool
    R_zero_consistent: bool
    plane_wave_residual: float


def mp_limit_check(spec: PotentialSpec, x: float, mp_rate: float = 0.0) -> MpLimitReport:
    """Verify the state behaves as a free plane wave on arrival at x.

    At t = arrival_time(x): density and amplitude prefactor equal one, and
    in the gauge where the accumulated phase is anchored at the measurement
    point the wave equals exp[i(k_mp*x - omega*t)].  ``mp_rate`` is the
    envelope rate in force at the measurement event; any nonzero value is
    inconsistent with a measurement.
    """
    spec._check_domain(x)
    t_arr = arrival_time(spec, x)
    k_mp = float(spec.k_at(x))

    density = prob_density_potential(spec, Branch.INCOMING, x, t_arr, x_mp=x)
    prefactor = math.sqrt(abs(k_mp / float(spec.k_at(x))))
    d_ok = abs(density - 1.0) < 1e-10 and abs(prefactor - 1.0) < 1e-10

    psi = psi_potential(spec, Branch.INCOMING, x, t_arr, x_mp=x)
    gauge = np.exp(1j * (k_mp * x - _phase(spec, x)))
    plane = np.exp(1j * (k_mp * x - spec.omega * t_arr))
    residual = abs(psi * gauge - plane)

    return MpLimitReport(
        D_equals_k_mp=bool(d_ok),
        R_zero_consistent=(mp_rate == 0.0),
        plane_wave_residual=float(residual),
    )


@dataclass(frozen=True, eq=False)
class SLProblem:
    """Eigenproblem for the radial amplitude on [x0, x_end].

    (hbar^2/2m) R'' - [hbar^2 k^2(x)/2m + V(x)] R + hbar*omega R = 0 with
    R'(x0) = 0 and R(x_end) = 0 (finite truncation of decay at infinity).
    ``kx`` and ``V`` are sampled on a uniform grid over the domain.
    """

    x0: float
    x_end: float
    kx: np.ndarray
    V: np.ndarray
    n_eigen: int
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self) -> None:
        if not self.x0 < self.x_end:
            raise ValueError("x0 must be < x_end")
        if self.n_eigen < 1:
            raise ValueError("must request at least one eigenvalue")
        kx = np.asarray(self.kx, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if kx.ndim != 1 or kx.size < 8 or V.shape != kx.shape:
            raise ValueError("kx and V must be 1-d samples of equal length >= 8")
        kx.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "kx", kx)
        object.__setattr__(self, "V", V)

    def sample_grid(self) -> np.ndarray:
        return np.linspace(self.x0, self.x_end, self.kx.size)

    def effective_potential(self, x) -> np.ndarray:
        """W(x) = hbar^2 k^2(x)/2m + V(x)."""
        grid = self.sample_grid()
        hbar, m = self.constants.hbar, self.constants.mass
        w = hbar * hbar * self.kx**2 / (2.0 * m) + self.V
        return CubicSpline(grid, w)(x)


@dataclass(frozen=True, eq=False)
class SLSolution:
    """Lowest eigenpairs, eigenfunctions trapezoid-orthonormal on the grid."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    x: np.ndarray

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) <= 0):
            raise ValueError("eigenvalues must be strictly increasing")
        gram = self.gram_matrix()
        if np.max(np.abs(gram - np.eye(ev.size))) > 1e-8:
            raise ValueError("eigenfunctions are not orthonormal to 1e-8")

    def gram_matrix(self) -> np.ndarray:
        h = self.x[1] - self.x[0]
        w = np.full(self.x.size, h)
        w[0] = w[-1] = 0.5 * h
        return np.einsum("ik,k,jk->ij", self.eigenfunctions, w, self.eigenfunctions)


def _matrix_eigen(
    w_spline, x0: float, x_end: float, n_grid: int, n_eigen: int, constants: PhysicalConstants
):
    """Dense (tridiagonal) second-order eigensolve with Neumann-left BC.

    Returns eigenvalues and eigenfunction samples on the full grid
    including the Dirichlet endpoint.  The Neumann ghost row is folded to
    a symmetric matrix whose natural weight is the trapezoid rule, so the
    returned functions are trapezoid-orthonormal by construction.
    """
    x = np.linspace(x0, x_end, n_grid)
    h = x[1] - x[0]
    c = constants.hbar**2 / (2.0 * constants.mass)
    W = w_spline(x)
    # Unknowns at x[0..n-2]; R(x_end) = 0 eliminated.
    diag = 2.0 * c / h**2 + W[:-1]
    off = np.full(n_grid - 2, -c / h**2)
    off[0] *= math.sqrt(2.0)  # symmetrized Neumann ghost row
    if n_eigen > n_grid - 1:
        raise ConvergenceError(
            f"only {n_grid - 1} eigenvalues exist below the discretization ceiling"
        )
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_eigen - 1))
    # Undo the row scaling, append the Dirichlet zero, normalize per trapezoid.
    funcs = np.zeros((n_eigen, n_grid))
    for j in range(n_eigen):
        u = vecs[:, j].copy()
        u[0] *= math.sqrt(2.0)
        funcs[j, :-1] = u / math.sqrt(h)
        if funcs[j, 0] < 0.0:  # sign convention: positive at the left edge
            funcs[j] = -funcs[j]
    return vals, funcs, x


def _numerov_sweep(E: float, x: np.ndarray, W: np.ndarray, constants: PhysicalConstants):
    """Numerov integration of R'' = f(x) R from a Neumann start.

    Returns (terminal value scaled by the max amplitude, interior node count).
    """
    h = x[1] - x[0]
    two_m = 2.0 * constants.mass / constants.hbar**2
    f = two_m * (W - E)
    # Taylor start through h^4 keeps the scheme fourth-order at the edge.
    f0 = f[0]
    fp0 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    fpp0 = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    y = np.empty_like(x)
    y[0] = 1.0
    y[1] = 1.0 + 0.5 * h**2 * f0 + h**3 * fp0 / 6.0 + h**4 * (fpp0 + f0 * f0) / 24.0

    w = 1.0 - h**2 * f / 12.0
    nodes = 0
    for i in range(1, x.size - 1):
        y[i + 1] = ((12.0 - 10.0 * w[i]) * y[i] - w[i - 1] * y[i - 1]) / w[i + 1]
        if y[i + 1] * y[i] < 0.0:
            nodes += 1
        if abs(y[i + 1]) > 1e250:
            y[: i + 2] *= 1e-200
    peak = np.max(np.abs(y))
    return float(y[-1] / peak), nodes


def _shooting_eigenvalues(
    w_spline,
    x0: float,
    x_end: float,
    n_grid: int,
    n_eigen: int,
    constants: PhysicalConstants,
    max_iter: int = 200,
) -> np.ndarray:
    """Numerov-shooting eigenvalues located by node-count bisection."""
    x = np.linspace(x0, x_end, n_grid)
    W = w_spline(x)
    L = x_end - x0
    c = constants.hbar**2 / (2.0 * constants.mass)

    def boundary(E):
        return _numerov_sweep(E, x, W, constants)

    e_lo = float(np.min(W)) - 1.0
    e_hi = float(np.min(W)) + c * ((n_eigen + 2) * math.pi / L) ** 2
    for _ in range(80):
        if boundary(e_hi)[1] > n_eigen:
            break
        e_hi = e_lo + 2.0 * (e_hi - e_lo)
    else:
        raise ConvergenceError(
            f"could not bracket {n_eigen} eigenvalues below the ceiling", iterations=80
        )

    eigenvalues = []
    for j in range(n_eigen):
        lo, hi = e_lo, e_hi
        # Bisect on the node count: eigenvalue j sits where the count
        # passes from <= j to > j.
        for it in range(max_iter):
            mid = 0.5 * (lo + hi)
            if boundary(mid)[1] <= j:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-9 * max(1.0, abs(lo)):
                break
        else:
            raise ConvergenceError("node-count bisection stalled", iterations=max_iter)
        f_lo, f_hi = boundary(lo)[0], boundary(hi)[0]
        if f_lo == 0.0:
            eigenvalues.append(lo)
            continue
        if f_lo * f_hi > 0.0:
            # The bracket collapsed onto the root; accept the midpoint.
            eigenvalues.append(0.5 * (lo + hi))
            continue
        a, b, fa = lo, hi, f_lo
        for it in range(max_iter):
            m = 0.5 * (a + b)
            fm = boundary(m)[0]
            if fm == 0.0 or (b - a) <= 1e-14 * max(1.0, abs(m)):
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        eigenvalues.append(0.5 * (a + b))
    return np.asarray(eigenvalues)


def solve_sturm_liouville(
    problem: SLProblem, backend: str = "shooting", n_grid: int = 2001
) -> SLSolution:
    """Solve the radial eigenproblem for the lowest ``n_eigen`` pairs.

    ``backend="shooting"`` locates eigenvalues with fourth-order Numerov
    shooting; ``backend="matrix"`` uses a dense second-order tridiagonal
    discretization with Richardson extrapolation over grids h and h/2.
    Eigenfunctions always come from the matrix discretization on the fine
    grid (trapezoid-orthonormal by construction).
    """
    w_spline = problem.effective_potential
    n_fine = 2 * n_grid - 1
    vals_fine, funcs, x_fine = _matrix_eigen(
        w_spline, problem.x0, problem.x_end, n_fine, problem.n_eigen, problem.constants
    )

    if backend == "matrix":
        vals_coarse, _, _ = _matrix_eigen(
            w_spline, problem.x0, problem.x_end, n_grid, problem.n_eigen, problem.constants
        )
        eigenvalues = (4.0 * vals_fine - vals_coarse) / 3.0
    elif backend == "shooting":
        eigenvalues = _shooting_eigenvalues(
            w_spline, problem.x0, problem.x_end, n_grid, problem.n_eigen, problem.constants
        )
    else:
        raise ValueError(f"unknown backend {backend!r}")

    return SLSolution(eigenvalues=np.asarray(eigenvalues), eigenfunctions=funcs, x=x_fine)


def mode_arrival_times(
    eigenvalues, x: float, constants: PhysicalConstants = DEFAULT_CONSTANTS
) -> np.ndarray:
    """Arrival times x/v_n for mode speeds v_n = hbar*k_n/m, k_n from E_n.

    Distinct discrete energies give a strictly ordered set of times.
    """
    E = np.asarray(eigenvalues, dtype=float)
    if np.any(E <= 0):
        raise ValueError("mode energies must be positive to define a speed")
    k_n = np.sqrt(2.0 * constants.mass * E) / constants.hbar
    v_n = constants.hbar * k_n / constants.mass
    return x / v_n


def load_potential_tables(
    v_table_path,
    k_table_path,
    R: float,
    omega: float,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> PotentialSpec:
    """Build a PotentialSpec from two whitespace-separated text tables.

    ``v_table_path`` holds rows "x V" and ``k_table_path`` rows "x k";
    lines starting with '#' are comments.  If the two x grids differ, k is
    spline-interpolated onto the potential's grid.
    """
    xv = np.loadtxt(v_table_path, comments="#", ndmin=2)
    xk = np.loadtxt(k_table_path, comments="#", ndmin=2)
    if xv.shape[1] != 2 or xk.shape[1] != 2:
        raise ValueError("tables must have exactly two columns")
    x, V = xv[:, 0], xv[:, 1]
    if xk.shape[0] == x.shape[0] and np.allclose(xk[:, 0], x):
        kx = xk[:, 1]
    else:
        kx = CubicSpline(xk[:, 0], xk[:, 1])(x)
    return PotentialSpec(x_samples=x, V=V, kx=kx, R=R, omega=omega, constants=constants)
