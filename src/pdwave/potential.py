"""Inhomogeneous probability waves in a static potential and their eigenproblem.

A state in a time-independent potential carries a position-dependent wave
number k(x) and speed v(x) = hbar*k(x)/m.  Its density is an inhomogeneous
traveling wave whose arrival time at x is the integral of 1/v, and the
radial amplitude R(x) of the bound problem satisfies a Sturm-Liouville
equation solved here by Numerov shooting with a dense-matrix cross-check
whose two grids LAPACK bisects at once, on two threads, without the GIL, in
the OpenBLAS numpy loaded; only ``matrix_eigen``, for eigenvectors, imports scipy.
Shooting brackets each eigenvalue by node counts and converges it by
Illinois steps on the end value of a summed-difference Numerov recurrence.
Each sweep of that recurrence is one banded triangular BLAS solve in
four unknowns per grid step, laid out so that the solve rounds as the
point-by-point loop does, whether or not the BLAS kernel fuses multiply
and add; the loop itself runs only where the solution must be rescaled.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Branch, ConvergenceError, _both, _read_rows, _richardson,
                   central_difference, envelope_lag, stencil_steps)
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
    "load_potential_table",
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
    """Not-a-knot cubic spline through 4 or more points (x, y), as scipy's ``CubicSpline(x, y)``.

    The slopes solve de Boor's system (A Practical Guide to Splines, 1978) in
    scipy's rows; each end row folded into its neighbour leaves a strictly
    diagonally dominant system.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
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


@functools.cache
def _lapack():
    """dstebz and dtbsv as ctypes functions, which release the GIL, and their integer type:
    by name from numpy's ILP64 OpenBLAS, else (Accelerate, MKL) scipy's cython pointers."""
    void_p, obj, api = ctypes.c_void_p, ctypes.py_object, ctypes.pythonapi
    dstebz, dtbsv = (ctypes.CFUNCTYPE(None, *[void_p] * n) for n in (18, 9))
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        return dstebz(("scipy_dstebz_64_", lib)), dtbsv(("scipy_dtbsv_64_", lib)), ctypes.c_int64
    except (AttributeError, OSError):
        from scipy.linalg import cython_blas, cython_lapack
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, obj)(("PyCapsule_GetName", api))
    address = ctypes.PYFUNCTYPE(void_p, obj, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    lapack, blas = cython_lapack.__pyx_capi__["dstebz"], cython_blas.__pyx_capi__["dtbsv"]
    return dstebz(address(lapack, name(lapack))), dtbsv(address(blas, name(blas))), ctypes.c_int


def eigh_tridiagonal(d, e, n: int):
    """The lowest ``n`` eigenvalues of the symmetric tridiagonal matrix (d, e), without the GIL.

    They are scipy's ``eigh_tridiagonal`` values for ``select="i"`` bit for bit, errors too:
    the same LAPACK ``dstebz`` call, made by ctypes on ``_lapack``'s route.
    """
    d, e = np.asarray_chkfinite(d, float, "C"), np.asarray_chkfinite(e, float, "C")
    if d.ndim != 1 or e.shape != (d.size - 1,):  # LAPACK reads n, n - 1 values
        raise ValueError(f"need 1-d d, e one shorter; got {d.shape}, {e.shape}")
    dstebz, _, int_t = _lapack()
    ints = np.array([d.size, 1, n, 0, 0, 0], int_t)  # n il iu; m nsplit info
    reals = np.zeros(3)  # vl and vu, unused, and abstol, 0 for eps*|T|
    w, work = np.empty(d.size), np.empty(4 * d.size)
    iblock, isplit, iwork = (np.empty(k * d.size, int_t) for k in (1, 1, 3))
    i, r, s = ints.ctypes.data, reals.ctypes.data, ints.itemsize
    dstebz(b"I", b"E", i, r, r + 8, i + s, i + 2 * s, r + 16, d.ctypes, e.ctypes, i + 3 * s,
           i + 4 * s, w.ctypes, iblock.ctypes, isplit.ctypes, work.ctypes, iwork.ctypes, i + 5 * s)
    info, driver = ints[5], "stebz (eigh_tridiagonal)"  # as scipy's _check_info, word for word
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} did not converge (LAPACK info={info})")
    return w[:ints[3]]


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """Local wave number k(x) of one state, sampled at 8 or more points.

    The local speed v(x) = hbar*k(x)/m must stay positive on the whole domain.
    Between samples, k and 1/v are not-a-knot cubic splines computed in numpy;
    arrival times and phases are their exact integrals.
    """

    x_samples: np.ndarray
    kx: np.ndarray
    R: float
    omega: float

    def __post_init__(self) -> None:
        xs = np.asarray(self.x_samples, dtype=float)
        kx = np.asarray(self.kx, dtype=float)
        if xs.ndim != 1 or xs.size < 8:
            raise ValueError("need at least 8 strictly increasing x samples")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("x samples must be strictly increasing")
        if kx.shape != xs.shape:
            raise ValueError("kx must match x_samples in shape")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(kx))):
            raise ValueError("samples must be finite")
        if self.R < 0.0 or not math.isfinite(self.R):
            raise ValueError("envelope rate R must be finite and nonnegative")
        if np.any(kx <= 0.0):
            raise ValueError("local speed v(x) = hbar*k(x)/m must be positive everywhere")
        for a in (xs, kx):
            a.setflags(write=False)
        object.__setattr__(self, "x_samples", xs)
        object.__setattr__(self, "kx", kx)

        k_spline = _spline(xs, kx)
        k_min = k_spline.minimum()
        # Positivity can fail between nodes even when samples are positive.
        if k_min <= 0.0:
            raise ValueError("interpolated k(x) dips to zero between samples")
        inv_v_spline = _spline(xs, 1.0 / kx)  # v = hbar*k/m = k
        object.__setattr__(self, "_k_spline", k_spline)
        object.__setattr__(self, "_k_min", k_min)
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

    def _check_in_domain(self, x, name: str) -> None:
        """Raise ValueError naming ``name`` unless x lies in the domain, up to 1e-12 of its scale."""
        slack = 1e-12 * max(1.0, abs(self.x_start), abs(self.x_end))
        if not (np.all(x >= self.x_start - slack) and np.all(x <= self.x_end + slack)):
            raise ValueError(f"{name} lies outside the domain [{self.x_start}, {self.x_end}]")


def arrival_time(spec: PotentialSpec, x):
    """Travel time from the domain start to x: the integral of 1/v(x'), exactly 0 at the start."""
    spec._check_in_domain(np.asarray(x, dtype=float), "x")
    tau = spec._tau_spline(x)
    return float(tau) if np.isscalar(x) else tau


def _incoming(spec: PotentialSpec, x, t: float, x_mp):
    """The lag of probes x at t, x as an array and the ratio k(x_mp)/k(x)."""
    spec._check_in_domain(x_mp, f"x_mp = {x_mp}")
    lag = envelope_lag(Branch.INCOMING, t, arrival_time(spec, x))
    xs = np.asarray(x, dtype=float)
    return lag, xs, spec.k_at(x_mp) / spec.k_at(xs)


def psi_potential(spec: PotentialSpec, x, t: float, x_mp):
    """Wave function of the potential state at (x, t).

    |k_mp/k(x)|^(1/2) * exp[(R/2)(t - tau(x))] * exp[i(phase(x) - omega*t)],
    where tau is the arrival-time integral and k_mp = k at the measurement
    point ``x_mp``.  Probes past their arrival raise RegionError.
    """
    lag, xs, ratio = _incoming(spec, x, t, x_mp)
    prefactor = np.sqrt(np.abs(ratio))
    envelope = np.exp(0.5 * spec.R * lag)
    phase = np.exp(1j * (spec._phase_spline(xs) - spec.omega * t))
    out = prefactor * envelope * phase
    return complex(out) if np.isscalar(x) else out


def prob_density_potential(spec: PotentialSpec, x, t: float, x_mp):
    """Probability density (k_mp/|k(x)|) * exp[R(t - tau(x))], with psi_potential's errors."""
    lag, _, ratio = _incoming(spec, x, t, x_mp)
    out = np.abs(ratio) * np.exp(spec.R * lag)
    return float(out) if np.isscalar(x) else out


def continuity_residual(spec: PotentialSpec, grid: Grid1D) -> float:
    """Max |dP/dt + d(P*v)/dx| over the grid, by ``core.central_difference``.

    The identity holds exactly for the family's density, so the returned
    value measures finite-difference truncation.  The steps are
    ``stencil_steps`` at the density's rates R/v_min in x and R in t, so the
    whole stencil stays before the arrival line.
    """
    xs = grid.xs()
    t = grid.t

    def density(x_, t_):
        return prob_density_potential(spec, x_, t_, x_mp=spec.x_start)

    room_t = -float(np.max(envelope_lag(Branch.INCOMING, t, arrival_time(spec, xs))))
    v_min = spec._k_min  # v = k at hbar = m = 1
    h_x, h_t = stencil_steps(room_t, v_min, spec.R / v_min, spec.R)
    dP_dt = central_difference(lambda tt: density(xs, tt), t, h_t)
    d_flux = central_difference(lambda x: density(x, t) * spec.k_at(x), xs, h_x)
    return float(np.max(np.abs(dP_dt + d_flux)))


def mp_limit_check(spec: PotentialSpec, x: float) -> float:
    """Plane-wave residual of the state on arrival at x.

    At t = arrival_time(x), in the gauge where the accumulated phase is
    anchored at the measurement point, the wave equals
    exp[i(k_mp*x - omega*t)]; returns the modulus of the difference.
    """
    t_arr = arrival_time(spec, x)
    k_mp = float(spec.k_at(x))
    psi = psi_potential(spec, x, t_arr, x_mp=x)
    gauge = np.exp(1j * (k_mp * x - spec._phase_spline(x)))
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
        w = kx**2 / 2.0 + V
        if not np.all(np.isfinite(w)):
            raise ValueError("effective potential hbar^2 k^2/2m + V must be finite")
        object.__setattr__(self, "_w_spline", _spline(np.linspace(self.x0, self.x_end, kx.size), w))

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


def _tridiagonal(problem: SLProblem, n_grid: int):
    """The scheme's symmetric matrix on ``n_grid`` points, (diagonal, off-diagonal), and x."""
    x = np.linspace(problem.x0, problem.x_end, n_grid)
    h = (x[-1] - x[0]) / (n_grid - 1)  # not x[1] - x[0], which rounds at x0's scale
    # Unknowns at x[0..n-2]; R(x_end) = 0 eliminated; hbar^2/2m = 1/2.
    diag = 1.0 / h**2 + problem.effective_potential(x)[:-1]
    off = np.full(n_grid - 2, -0.5 / h**2)
    off[0] *= math.sqrt(2.0)  # symmetrized Neumann ghost row
    return diag, off, x


def matrix_eigen(problem: SLProblem, n_grid: int):
    """Dense (tridiagonal) second-order eigensolve with Neumann-left BC, by scipy.

    Returns eigenvalues, eigenfunction samples on the full grid including
    the Dirichlet endpoint, and that grid.  The Neumann ghost row is folded
    to a symmetric matrix whose natural weight is the trapezoid rule, so the
    functions are trapezoid-orthonormal by construction.
    """
    if n_grid < 3:  # the Neumann ghost row needs an off-diagonal entry
        raise ValueError(f"matrix_eigen needs at least 3 grid points, got n_grid = {n_grid}")
    if problem.n_eigen > n_grid - 1:
        raise ConvergenceError(
            f"only {n_grid - 1} eigenvalues exist below the discretization ceiling"
        )
    diag, off, x = _tridiagonal(problem, n_grid)
    h = (x[-1] - x[0]) / (n_grid - 1)
    from scipy import linalg
    # Eigenvalues 0 to n_eigen - 1 by index, with their vectors.
    vals, vecs = linalg.eigh_tridiagonal(diag, off, False, "i", (0, problem.n_eigen - 1))
    # Undo the row scaling, append the Dirichlet zero, normalize per trapezoid.
    funcs = np.zeros((problem.n_eigen, n_grid))
    funcs[:, :-1] = vecs.T / math.sqrt(h)
    funcs[:, 0] = vecs[0] * math.sqrt(2.0) / math.sqrt(h)
    funcs[funcs[:, 0] < 0.0] *= -1.0  # sign convention: positive at the left edge
    return vals, funcs, x


def _numerov_band(n_grid: int) -> tuple:
    """``_numerov_sweep``'s band, right-hand side and dtbsv bound to both, which solves in place.

    Column j of the Fortran-ordered 5 x 4(n_grid - 2) band is the equation
    of unknown j: entry [4 - r, j] multiplies unknown j - r.  A sweep
    overwrites the w entries of row 4 and the -h^2 f entries of row 3;
    every other entry is 1, -1 or 0.
    """
    band = np.zeros((5, 4 * (n_grid - 2)), order="F")
    band[4] = 1.0
    band[3] = -1.0
    band[0, 5::4] = band[0, 6::4] = -1.0  # D_i - D_(i-1), z_(i+1) - z_i
    rhs, (_, dtbsv, int_t) = np.empty(band.shape[1]), _lapack()
    n, k, lda, incx = (ctypes.byref(int_t(v)) for v in (band.shape[1], 4, 5, 1))  # kept alive
    return band, rhs, functools.partial(dtbsv, b"U", b"T", b"N", n, k, band.ctypes.data, lda,
                                        rhs.ctypes.data, incx)


def _numerov_sweep(E: float, x: np.ndarray, W: np.ndarray,
                   work: tuple) -> tuple[int, float, int]:
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

    A sweep is one banded triangular solve (BLAS dtbsv) in four unknowns
    per step, q_i = h^2 f_i R_i, D_i = D_(i-1) + q_i, z_(i+1) = z_i + D_i
    and w_(i+1) R_(i+1) = z_(i+1), on the transposed upper band, which
    OpenBLAS solves by dot products, faster than the lower band's axpys.
    ``work`` is ``_numerov_band(x.size)``, built once per solve.  Four
    unknowns, not three, make the solve round as the loop does: each dot
    product has at most two nonzero terms, both exact (a coefficient of
    +-1) or h^2 f_i R_i alone, so it rounds once however a kernel orders or
    fuses it.  The recurrence in Python floats takes over where the solve
    gives a non-finite R or |R| > 1e250, the first point the loop would
    rescale, so ``(nodes, y_end, rescales)`` are the loop's bits.
    """
    h = (x[-1] - x[0]) / (x.size - 1)
    f = 2.0 * (W - E)  # 2m/hbar^2 (W - E)
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
    band, rhs, solve = work
    band[4, 3::4] = w[2:]
    band[3, 4::4] = -h2f[2:-1]
    rhs.fill(0.0)
    rhs[:3] = h2f1 * y, d, z  # q_1, D_0 and z_1 come from the known R_1
    solve()
    R = rhs[3::4]
    if np.abs(R).max() <= 1e250:  # False for inf and nan too
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
    n_eigen = problem.n_eigen
    x = np.linspace(problem.x0, problem.x_end, n_grid)
    W = problem.effective_potential(x)
    work = _numerov_band(n_grid)
    L = problem.x_end - problem.x0
    # The tightest (E, nodes, y_end, rescales) swept below and above each eigenvalue.
    lo = [(-math.inf,)] * n_eigen
    hi = [(math.inf,)] * n_eigen
    sweeps = 0

    def shoot(E: float) -> int:
        nonlocal sweeps
        sweeps += 1
        nodes, y_end, rescales = _numerov_sweep(E, x, W, work)
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
    e_hi = float(np.min(W)) + 0.5 * ((n_eigen + 2) * math.pi / L) ** 2
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


def solve_sturm_liouville(problem: SLProblem, n_grid: int = 2001) -> SLSolution:
    """Solve the radial eigenproblem for the lowest ``n_eigen`` eigenvalues, two ways.

    The matrix eigenvalues are second-order tridiagonal solves on ``n_grid``
    and ``2*n_grid - 1`` points, the finer on a worker thread at the same
    time, Richardson-extrapolated to fourth order.  The shooting eigenvalues
    are bracketed by node counts and converged by Illinois steps over
    fourth-order Numerov sweeps on ``n_grid`` points, seeded by the matrix
    values; node counts still decide every bracket, so on a grid that
    resolves the modes the two stay independent.  ``matrix_eigen`` gives the
    eigenfunctions.  Fewer than 4 points, or fewer than 2 a level, raise
    ValueError.
    """
    if n_grid < 4:  # the Numerov start takes f''(x0) from 4 points
        raise ValueError("solve_sturm_liouville needs at least 4 grid points, "
                         f"got n_grid = {n_grid}")
    if n_grid < 2 * problem.n_eigen:  # under 2 points a level, Numerov's levels are spurious
        raise ValueError(f"n_grid = {n_grid} has fewer than 2 points per level of "
                         f"n_eigen = {problem.n_eigen}: it must be at least {2 * problem.n_eigen}")
    fine, coarse = (_tridiagonal(problem, n)[:2] for n in (2 * n_grid - 1, n_grid))
    _lapack()  # the first lookup, or the fallback's scipy import, allocates on this thread
    matrix = _richardson(*_both(lambda: eigh_tridiagonal(*fine, problem.n_eigen),
                                lambda: eigh_tridiagonal(*coarse, problem.n_eigen)))
    eigenvalues, _ = _shooting_eigenvalues(problem, n_grid, seeds=matrix)
    return SLSolution(eigenvalues, matrix)


def mode_arrival_times(eigenvalues, x: float) -> np.ndarray:
    """Arrival times x/v_n for mode speeds v_n = hbar*k_n/m, k_n from E_n.

    Distinct discrete energies give a strictly ordered set of times.
    """
    E = np.asarray(eigenvalues, dtype=float)
    if np.any(E <= 0):
        raise ValueError("mode energies must be positive to define a speed")
    return x / np.sqrt(2.0 * E)  # v_n = k_n = sqrt(2 E_n)


def load_potential_table(path, R: float, omega: float) -> PotentialSpec:
    """Build a PotentialSpec from a whitespace-separated text table of rows "x k".

    Lines starting with '#' are comments.  The x column is the spline grid.
    """
    xk = _read_rows(path, comments="#")
    if xk.shape[1] != 2:
        raise ValueError("the table must have exactly two columns, x and k")
    return PotentialSpec(x_samples=xk[:, 0], kx=xk[:, 1], R=R, omega=omega)
