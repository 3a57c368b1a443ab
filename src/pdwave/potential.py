"""Inhomogeneous probability waves in a static potential and their eigenproblem.

A state in a time-independent potential carries a position-dependent wave
number k(x) and speed v(x) = hbar*k(x)/m.  Its density is an inhomogeneous
traveling wave whose arrival time at x is the integral of 1/v, and the
radial amplitude R(x) of the bound problem satisfies a Sturm-Liouville
equation solved here by Numerov shooting with a dense-matrix cross-check.
Shooting brackets each eigenvalue by node counts and converges it by
Illinois steps on the end value of a summed-difference Numerov recurrence.
Each sweep of that recurrence is one banded lower-triangular BLAS solve in
four unknowns per grid step, laid out so that the solve rounds as the
point-by-point loop does, whether or not the BLAS kernel fuses multiply
and add; the loop itself runs only where the solution must be rescaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_CONSTANTS,
    Branch,
    ConvergenceError,
    PhysicalConstants,
    central_difference,
    envelope_lag,
    stencil_step,
)
from .freewave import Grid1D

__all__ = [
    "PotentialSpec",
    "SLProblem",
    "SLSolution",
    "arrival_time",
    "psi_potential",
    "prob_density_potential",
    "continuity_residual",
    "matrix_eigen",
    "solve_sturm_liouville",
    "mp_limit_check",
    "mode_arrival_times",
    "load_potential_tables",
]


class _Spline:
    """Piecewise polynomial sum_j c[j, i] (x - x[i])**j on [x[i], x[i+1]], rounded as PPoly."""

    def __init__(self, x, c):
        self.x, self.c = x, c

    def __call__(self, xp):
        # PPoly's order: lowest power first, each s**j the product of the previous and s.
        xp = np.asarray(xp, dtype=float)
        i = np.searchsorted(self.x[1:-1], xp, "right")
        s, z, out = xp - self.x[i], 1.0, 0.0 + self.c[0, i]
        for c in self.c[1:]:
            z = z * s
            out = out + c[i] * z
        return out

    def antiderivative(self) -> _Spline:
        """The antiderivative that is 0 at x[0]."""
        c = self.c / np.arange(1.0, len(self.c) + 1.0)[:, None]
        h = np.broadcast_to(np.diff(self.x), c.shape)
        # Piece ends, summed term by term in order as PPoly's fix_continuity does.
        ends = np.cumsum((c * np.cumprod(h, axis=0)).T)[len(c) - 1::len(c)]
        return _Spline(self.x, np.vstack([np.r_[0.0, ends[:-1]], c]))

    def minimum(self) -> float:
        """The least value on [x[0], x[-1]]: each cubic's ends and turning points."""
        c0, c1, c2, c3 = self.c
        h = np.diff(self.x)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -(c2 + np.copysign(np.sqrt(c2 * c2 - 3.0 * c1 * c3), c2))
            s = np.clip([0 * h, h, q / (3 * c3), c1 / q], 0.0, h)
        values = c0 + s * (c1 + s * (c2 + s * c3))
        return float(np.min(values[~np.isnan(values)]))


def _tridiagonal_solve(a, b, c, d):
    """Solve a[i] s[i-1] + b[i] s[i] + c[i] s[i+1] = d[i], where a[0] = c[-1] = 0."""
    n = b.size
    if n == 1:
        return d / b
    if n % 2 == 0:  # an identity row at the end gives every odd row two neighbours
        a, b, c, d = (np.append(v, pad) for v, pad in zip((a, b, c, d), (0.0, 1.0, 0.0, 0.0)))
    # Odd-even cyclic reduction (Hockney 1965), stable for diagonally dominant systems:
    # each odd row absorbs its even neighbours; the even unknowns follow from the odd.
    alpha, gamma = -a[1::2] / b[:-1:2], -c[1::2] / b[2::2]
    s = np.empty(b.size)
    s[1::2] = odd = _tridiagonal_solve(
        alpha * a[:-1:2], b[1::2] + alpha * c[:-1:2] + gamma * a[2::2],
        gamma * c[2::2], d[1::2] + alpha * d[:-1:2] + gamma * d[2::2])
    s[::2] = (d[::2] - a[::2] * np.r_[0.0, odd] - c[::2] * np.r_[odd, 0.0]) / b[::2]
    return s[:n]


def _spline(x, y) -> _Spline:
    """Not-a-knot cubic spline through (x, y), as scipy's ``CubicSpline(x, y)``.

    The slopes solve de Boor's system (A Practical Guide to Splines, 1978) in
    scipy's rows; each end row folded into its neighbour leaves a strictly
    diagonally dominant system.  Two points give the line, three the parabola.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    if x.size < 4:  # the derivatives of the line or the parabola through the points
        mid = (dx[-1] * slope[0] + dx[0] * slope[-1]) / (dx[0] + dx[-1])
        s = np.array([2 * slope[0] - mid, mid, 2 * slope[-1] - mid])[: x.size]
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        b0 = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        b1 = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        diag, rhs = 2 * (dx[:-1] + dx[1:]), 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        diag[[0, -1]] -= d0, d1
        rhs[[0, -1]] -= b0, b1
        inner = _tridiagonal_solve(np.r_[0.0, dx[2:]], diag, np.r_[dx[:-2], 0.0], rhs)
        s = np.r_[(b0 - d0 * inner[0]) / dx[1], inner, (b1 - d1 * inner[-1]) / dx[-2]]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return _Spline(x, np.stack([y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx]))


def eigh_tridiagonal(d, e, **kwargs):
    """``scipy.linalg.eigh_tridiagonal``, imported on first use: only sturm-liouville needs it."""
    from scipy import linalg

    return linalg.eigh_tridiagonal(d, e, **kwargs)


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Sampled potential V(x) and local wave number k(x) for one state.

    The local speed v(x) = hbar*k(x)/m must stay positive on the whole domain.
    Between samples, k and 1/v are not-a-knot cubic splines computed in numpy;
    arrival times and phases are their exact integrals.
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

        k_spline = _spline(xs, kx)
        v = self.constants.hbar * kx / self.constants.mass
        # Positivity can fail between nodes even when samples are positive.
        if k_spline.minimum() <= 0.0:
            raise ValueError("interpolated k(x) dips to zero between samples")
        inv_v_spline = _spline(xs, 1.0 / v)
        object.__setattr__(self, "_k_spline", k_spline)
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
        return self.constants.hbar * self._k_spline(x) / self.constants.mass

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


def psi_potential(spec: PotentialSpec, branch: Branch, x, t: float, x_mp=None):
    """Wave function of the potential state at (x, t).

    |k_mp/k(x)|^(1/2) * exp[+-(R/2)(t - tau(x))] * exp[i(phase(x) - omega*t)],
    where tau is the arrival-time integral and k_mp = k at the measurement
    point ``x_mp`` (defaults to the probe x, which pins |psi| = 1 on
    arrival there).  Probes on the wrong side of arrival raise RegionError.
    """
    lag = envelope_lag(branch, t, arrival_time(spec, x))
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
    lag = envelope_lag(branch, t, arrival_time(spec, x))
    xs = np.asarray(x, dtype=float)
    k_here = spec.k_at(xs)
    k_mp = spec.k_at(x_mp) if x_mp is not None else k_here
    out = np.abs(k_mp / k_here) * np.exp(spec.R * lag)
    return float(out) if np.isscalar(x) else out


def continuity_residual(spec: PotentialSpec, branch: Branch, grid: Grid1D, density=None) -> float:
    """Max |dP/dt + d(P*v)/dx| over the grid, by ``core.central_difference``.

    The identity holds exactly for the family's density, so the returned
    value measures finite-difference truncation.  ``density`` may override
    the density function (used to verify the check catches injected
    defects).  The steps are 1e-2 over the density's rates R/v_min in x and
    R in t, each capped by ``stencil_step`` at a quarter of the room to the
    arrival line, so the whole stencil stays inside one branch region.
    """
    xs = grid.xs()
    t = grid.t
    if density is None:
        def density(x_, t_):
            return prob_density_potential(spec, branch, x_, t_, x_mp=spec.x_start)

    room_t = -float(np.max(envelope_lag(branch, t, arrival_time(spec, xs))))
    v_min = float(np.min(spec.v_at(np.linspace(spec.x_start, spec.x_end, 256))))
    h_x = stencil_step(1e-2 / max(1.0, spec.R / v_min), v_min * room_t)
    h_t = stencil_step(1e-2 / max(1.0, spec.R), room_t)
    dP_dt = central_difference(lambda tt: density(xs, tt), t, h_t)
    d_flux = central_difference(lambda x: density(x, t) * spec.v_at(x), xs, h_x)
    return float(np.max(np.abs(dP_dt + d_flux)))


def mp_limit_check(spec: PotentialSpec, x: float) -> float:
    """Plane-wave residual of the state on arrival at x.

    At t = arrival_time(x), in the gauge where the accumulated phase is
    anchored at the measurement point, the wave equals
    exp[i(k_mp*x - omega*t)]; returns the modulus of the difference.
    """
    spec._check_domain(x)
    t_arr = arrival_time(spec, x)
    k_mp = float(spec.k_at(x))
    psi = psi_potential(spec, Branch.INCOMING, x, t_arr, x_mp=x)
    gauge = np.exp(1j * (k_mp * x - _phase(spec, x)))
    plane = np.exp(1j * (k_mp * x - spec.omega * t_arr))
    return float(abs(psi * gauge - plane))


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
        hbar, m = self.constants.hbar, self.constants.mass
        w = hbar * hbar * kx**2 / (2.0 * m) + V
        if not np.all(np.isfinite(w)):
            raise ValueError("effective potential hbar^2 k^2/2m + V must be finite")
        object.__setattr__(self, "_w_spline", _spline(self.sample_grid(), w))

    def sample_grid(self) -> np.ndarray:
        return np.linspace(self.x0, self.x_end, self.kx.size)

    def effective_potential(self, x) -> np.ndarray:
        """W(x) = hbar^2 k^2(x)/2m + V(x), a cubic spline through the samples."""
        return self._w_spline(x)


@dataclass(frozen=True, eq=False)
class SLSolution:
    """Lowest eigenvalues by shooting and by the Richardson-extrapolated matrix."""

    eigenvalues: np.ndarray
    matrix_eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        for name in ("eigenvalues", "matrix_eigenvalues"):
            if np.any(np.diff(getattr(self, name)) <= 0):
                raise ValueError(f"{name} must be strictly increasing")


def matrix_eigen(problem: SLProblem, n_grid: int, eigvals_only: bool = False):
    """Dense (tridiagonal) second-order eigensolve with Neumann-left BC.

    Returns eigenvalues, eigenfunction samples on the full grid including
    the Dirichlet endpoint, and that grid, or with ``eigvals_only`` the
    eigenvalues alone (LAPACK stebz either way, so the same bits).  The
    Neumann ghost row is folded to a symmetric matrix whose natural weight
    is the trapezoid rule, so the functions are trapezoid-orthonormal by
    construction.
    """
    if n_grid < 3:  # the Neumann ghost row needs an off-diagonal entry
        raise ValueError(f"matrix_eigen needs at least 3 grid points, got n_grid = {n_grid}")
    if problem.n_eigen > n_grid - 1:
        raise ConvergenceError(
            f"only {n_grid - 1} eigenvalues exist below the discretization ceiling"
        )
    x = np.linspace(problem.x0, problem.x_end, n_grid)
    h = x[1] - x[0]
    c = problem.constants.hbar**2 / (2.0 * problem.constants.mass)
    # Unknowns at x[0..n-2]; R(x_end) = 0 eliminated.
    diag = 2.0 * c / h**2 + problem.effective_potential(x)[:-1]
    off = np.full(n_grid - 2, -c / h**2)
    off[0] *= math.sqrt(2.0)  # symmetrized Neumann ghost row
    lowest = {"select": "i", "select_range": (0, problem.n_eigen - 1)}
    if eigvals_only:
        return eigh_tridiagonal(diag, off, eigvals_only=True, **lowest)
    vals, vecs = eigh_tridiagonal(diag, off, **lowest)
    # Undo the row scaling, append the Dirichlet zero, normalize per trapezoid.
    funcs = np.zeros((problem.n_eigen, n_grid))
    for j in range(problem.n_eigen):
        u = vecs[:, j].copy()
        u[0] *= math.sqrt(2.0)
        funcs[j, :-1] = u / math.sqrt(h)
        if funcs[j, 0] < 0.0:  # sign convention: positive at the left edge
            funcs[j] = -funcs[j]
    return vals, funcs, x


def _numerov_band(n_grid: int) -> np.ndarray:
    """The parts of ``_numerov_sweep``'s banded matrix that do not depend on E.

    Row r of the Fortran-ordered 5 x 4(n_grid - 2) band holds the r-th
    subdiagonal, so entry [r, j] multiplies unknown j in the equation of
    unknown j + r.  A sweep overwrites the w entries of row 0 and the
    -h^2 f entries of row 1; every other entry is 1, -1 or 0.
    """
    band = np.zeros((5, 4 * (n_grid - 2)), order="F")
    band[0] = 1.0
    band[1] = -1.0
    band[4, 1::4] = band[4, 2::4] = -1.0  # D_i - D_(i-1), z_(i+1) - z_i
    return band


def _numerov_sweep(
    E: float, x: np.ndarray, W: np.ndarray, constants: PhysicalConstants, band=None
) -> tuple[int, float, int]:
    """Numerov integration of R'' = f(x) R from a Neumann start.

    Returns ``(nodes, y_end, rescales)``: the interior node count, which by
    Sturm oscillation is the number of eigenvalues below E; the end value
    R(x_end); and how often the carried values were scaled by 1e-200 once
    |R| grew past 1e250, so that R(x_end) = y_end * 1e200**rescales.

    The recurrence is Numerov's in summed-difference form (Blatt 1967): it
    carries z = w*R with w = 1 - h^2 f/12 and its first difference D, as
    D += h^2 f_i R_i, z += D, R = z/w.  E enters through h^2 f at full
    precision.  The three-term form rounds w, which is 1 +- 5e-8 at 2001
    points, and so resolves E only in steps of about 12 eps/(h^2 2m/hbar^2).

    A sweep is one banded lower-triangular solve (BLAS dtbsv) in four
    unknowns per step, q_i = h^2 f_i R_i, D_i = D_(i-1) + q_i,
    z_(i+1) = z_i + D_i and w_(i+1) R_(i+1) = z_(i+1).  ``band`` is
    ``_numerov_band(x.size)``, built once per solve; the sweep writes its w
    and h^2 f entries.  Four unknowns, not three, make the solve round as
    the loop does: a BLAS kernel may fuse each multiply with its add, and
    here every product is either exact (a coefficient of +-1) or added to
    the 0 of q's own row.  The recurrence in Python floats takes over where
    the solve gives a non-finite R or |R| > 1e250, the first point the loop
    would rescale, so ``(nodes, y_end, rescales)`` are the loop's bits.
    """
    h = x[1] - x[0]
    two_m = 2.0 * constants.mass / constants.hbar**2
    f = two_m * (W - E)
    # Taylor start through h^4 keeps the scheme fourth-order at the edge.
    f0 = f[0]
    fp0 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    fpp0 = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    dy = float(0.5 * h**2 * f0 + h**3 * fp0 / 6.0 + h**4 * (fpp0 + f0 * f0) / 24.0)

    h2f = h**2 * f
    w = 1.0 - h2f / 12.0
    # Python floats from here, as the loop: their products overflow to inf, not raise.
    y = 1.0 + dy
    w1, h2f0, h2f1 = float(w[1]), float(h2f[0]), float(h2f[1])
    z = w1 * y
    d = dy - (h2f1 * y - h2f0) / 12.0  # z1 - z0, without the rounding of w
    from scipy.linalg.blas import dtbsv

    if band is None:
        band = _numerov_band(x.size)
    band[0, 3::4] = w[2:]
    band[1, 3::4] = -h2f[2:]  # the last entry lies outside the matrix
    rhs = np.zeros(band.shape[1])
    rhs[:3] = h2f1 * y, d, z  # q_1, D_0 and z_1 come from the known R_1
    R = dtbsv(4, band, rhs, lower=1, overwrite_x=1)[3::4]
    if np.max(np.abs(R)) <= 1e250:  # False for inf and nan too
        with np.errstate(over="ignore", under="ignore"):  # a Python float's product
            nodes = (y * R[0] < 0.0) + np.count_nonzero(R[1:] * R[:-1] < 0.0)
        return int(nodes), float(R[-1]), 0
    return _numerov_loop(h2f.tolist(), w.tolist(), y, z, d)


def _numerov_loop(h2f: list, w: list, y: float, z: float, d: float) -> tuple[int, float, int]:
    """``_numerov_sweep``'s recurrence point by point, scaling past |R| = 1e250."""
    nodes = rescales = 0
    for h2f_i, w_next in zip(h2f[1:-1], w[2:]):
        d += h2f_i * y
        z += d
        y_prev, y = y, z / w_next
        if y * y_prev < 0.0:
            nodes += 1
        if abs(y) > 1e250:
            y_prev, y, z, d = y_prev * 1e-200, y * 1e-200, z * 1e-200, d * 1e-200
            rescales += 1
    return nodes, y, rescales


def _shooting_eigenvalues(problem: SLProblem, n_grid: int, seeds=()) -> tuple[np.ndarray, int]:
    """Numerov-shooting eigenvalues: node-count brackets, Illinois steps.

    Every sweep's node count tightens the bracket of every eigenvalue, as
    in Barth-Martin-Wilkinson bisection: eigenvalue j lies above each
    energy with at most j nodes and below each with more.  Once the
    bracket isolates eigenvalue j (j nodes at its low end, j + 1 at its
    high end), (-1)^j R(x_end) falls from positive to negative across it,
    and Illinois regula falsi (Dowell & Jarratt 1971) converges on that
    root.  The step is a bisection instead while the bracket does not
    isolate, while its ends were rescaled a different number of times (a
    deep forbidden region makes R(x_end) a near-step), and after two steps
    that failed to halve it.  Each eigenvalue stops at a bracket width of
    1e-14*max(1, |E|).

    ``seeds`` holds estimates of the eigenvalues in order, such as the
    matrix backend's.  After the global bracket, each seed E_j is swept at
    E_j -+ 1e-7*max(1, |E_j|) where that lies inside eigenvalue j's
    bracket.  Node counts place those sweeps like any other, so wherever
    the counts rise with E, as they do on a grid that resolves the modes, a
    wrong seed costs sweeps but cannot change the answer; a non-finite one
    is skipped.  Returns ``(eigenvalues, sweeps)``, the Numerov sweeps taken.
    """
    n_eigen, constants = problem.n_eigen, problem.constants
    x = np.linspace(problem.x0, problem.x_end, n_grid)
    W = problem.effective_potential(x)
    band = _numerov_band(n_grid)
    L = problem.x_end - problem.x0
    c = constants.hbar**2 / (2.0 * constants.mass)
    # The tightest (E, nodes, y_end, rescales) swept below and above each eigenvalue.
    lo = [(-math.inf,)] * n_eigen
    hi = [(math.inf,)] * n_eigen
    sweeps = 0

    def shoot(E: float) -> int:
        nonlocal sweeps
        sweeps += 1
        nodes, y_end, rescales = _numerov_sweep(E, x, W, constants, band)
        point = (E, nodes, y_end, rescales)
        for j in range(nodes, n_eigen):
            if E > lo[j][0]:
                lo[j] = point
        for j in range(min(nodes, n_eigen)):
            if E < hi[j][0]:
                hi[j] = point
        return nodes

    e_lo = float(np.min(W)) - 1.0
    # No eigenvalue lies below min(W); nodes there mean the grid is too coarse.
    spurious = shoot(e_lo)
    if spurious:
        raise ConvergenceError(f"Numerov sweep counts {spurious} nodes below min(W)")
    e_hi = float(np.min(W)) + c * ((n_eigen + 2) * math.pi / L) ** 2
    for _ in range(80):
        if shoot(e_hi) > n_eigen:
            break
        e_hi = e_lo + 2.0 * (e_hi - e_lo)
    else:
        raise ConvergenceError(
            f"could not bracket {n_eigen} eigenvalues below the ceiling", iterations=80
        )
    for j, seed in enumerate(seeds):
        delta = 1e-7 * max(1.0, abs(seed))
        for E in (float(seed - delta), float(seed + delta)):
            if lo[j][0] < E < hi[j][0]:  # elsewhere it cannot narrow, and past e_hi may overflow
                shoot(E)

    eigenvalues = []
    for j in range(n_eigen):
        sign = -1.0 if j % 2 else 1.0
        weight = [1.0, 1.0]  # Illinois halvings of the low and high end values
        last = None  # the end the previous Illinois step replaced
        width_ref, stale = math.inf, 0
        for _ in range(200):
            (a, nodes_a, y_a, scale_a), (b, nodes_b, y_b, scale_b) = lo[j], hi[j]
            mid = 0.5 * (a + b)
            tol = 1e-14 * max(1.0, abs(mid))
            if b - a <= tol:
                break
            if b - a <= 0.5 * width_ref:
                width_ref, stale = b - a, 0
            g_a, g_b = sign * y_a * weight[0], sign * y_b * weight[1]
            illinois = (stale < 2 and (nodes_a, nodes_b, scale_a) == (j, j + 1, scale_b)
                        and g_a > 0.0 > g_b)
            if illinois:
                # A step under the tolerance goes just across the root, so the
                # bracket collapses instead of creeping up on it from one side.
                E = a + g_a * (b - a) / (g_a - g_b)
                E = min(max(E, a + 0.5 * tol), b - 0.5 * tol)
            else:
                E = mid
            stale += 1
            side = 0 if shoot(E) <= j else 1
            weight[side] = 1.0
            if illinois and side == last:
                weight[1 - side] *= 0.5
            last = side if illinois else None
        else:
            raise ConvergenceError("shooting stalled", iterations=200)
        eigenvalues.append(mid)
    gaps = np.diff(eigenvalues)
    if np.any(gaps <= 0.0):
        j = int(np.argmax(gaps <= 0.0))
        raise ConvergenceError(
            f"shooting eigenvalues {j} and {j + 1} coincide at {eigenvalues[j]:.6g}: "
            "a bracket width of 1e-14*|E| cannot resolve their spacing"
        )
    return np.asarray(eigenvalues), sweeps


def _richardson(fine, coarse):
    """Second-order eigenvalues on grids h/2 and h, extrapolated to fourth order."""
    return (4.0 * fine - coarse) / 3.0


def solve_sturm_liouville(problem: SLProblem, n_grid: int = 2001) -> SLSolution:
    """Solve the radial eigenproblem for the lowest ``n_eigen`` eigenvalues, two ways.

    The matrix eigenvalues are second-order tridiagonal solves on ``n_grid``
    and ``2*n_grid - 1`` points, Richardson-extrapolated to fourth order.  The
    shooting eigenvalues are bracketed by node counts and converged by Illinois
    steps over fourth-order Numerov sweeps on ``n_grid`` points, seeded by the
    matrix values; node counts still decide every bracket, so on a grid that
    resolves the modes the two stay independent.  ``matrix_eigen`` gives the
    eigenfunctions.  Fewer than 4 points raise ValueError, and fewer than
    ``n_eigen + 1`` ConvergenceError.
    """
    if n_grid < 4:  # the Numerov start takes f''(x0) from 4 points
        raise ValueError("solve_sturm_liouville needs at least 4 grid points, "
                         f"got n_grid = {n_grid}")
    matrix = _richardson(matrix_eigen(problem, 2 * n_grid - 1, eigvals_only=True),
                         matrix_eigen(problem, n_grid, eigvals_only=True))
    eigenvalues, _ = _shooting_eigenvalues(problem, n_grid, seeds=matrix)
    return SLSolution(eigenvalues, matrix)


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
    if xk.shape[0] < 2 or not np.all(np.isfinite(xk)):
        raise ValueError("k_table needs at least 2 rows of finite x and k")
    if np.any(np.diff(xk[:, 0]) <= 0):
        raise ValueError("k_table x must be strictly increasing")
    x, V = xv[:, 0], xv[:, 1]
    if xk.shape[0] == x.shape[0] and np.allclose(xk[:, 0], x):
        kx = xk[:, 1]
    else:
        kx = _spline(xk[:, 0], xk[:, 1])(x)
    return PotentialSpec(x_samples=x, V=V, kx=kx, R=R, omega=omega, constants=constants)
