import ctypes
import math
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from pdwave.core import Branch, ConvergenceError, RegionError, make_free_state
from pdwave import freewave as fw
from pdwave import potential as pot


def constant_spec(v=1.0, R=1.0, omega=0.375, x1=5.0, n=201):
    xs = np.linspace(0.0, x1, n)
    return pot.PotentialSpec(
        x_samples=xs, kx=np.full_like(xs, v), R=R, omega=omega
    )


def linear_spec(x1=1.0, n=201, R=1.0, omega=0.375):
    xs = np.linspace(0.0, x1, n)
    return pot.PotentialSpec(
        x_samples=xs, kx=1.0 + xs, R=R, omega=omega
    )


def _knots(n, uniform, seed):
    """n increasing knots, uniform or with neighbour spacing ratios within 1e-3..1e3."""
    rng = np.random.default_rng(seed)
    if uniform:
        return np.linspace(rng.uniform(-5.0, 5.0), rng.uniform(6.0, 50.0), n)
    return rng.uniform(-5.0, 5.0) + np.cumsum(10.0 ** rng.uniform(-1.5, 1.5, n)) - 1.0


class TestSpline:
    """The numpy not-a-knot spline, with scipy's CubicSpline as the oracle."""

    @settings(max_examples=200)
    @given(n=st.integers(4, 2000), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_cubic_spline(self, n, uniform, seed):
        x = _knots(n, uniform, seed)
        rng = np.random.default_rng(seed + 1)
        y = rng.normal(size=n) + (np.sin(x) if rng.random() < 0.5 else 0.0)
        probe = np.concatenate([x, rng.uniform(x[0], x[-1], 3 * n), 0.5 * (x[1:] + x[:-1])])
        ours, oracle = pot._spline(x, y), CubicSpline(x, y)
        for got, want in ((ours(probe), oracle(probe)),
                          (ours.antiderivative()(probe), oracle.antiderivative()(probe))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @given(n=st.integers(4, 60), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_exact_minimum_is_below_the_sampled_one(self, n, uniform, seed):
        x = _knots(n, uniform, seed)
        spline = pot._spline(x, np.random.default_rng(seed + 1).normal(size=n))
        sampled = spline(np.linspace(x[0], x[-1], 8 * n))  # the check the exact one replaced
        scale = np.max(np.abs(sampled))
        assert spline.minimum() <= np.min(sampled) + 1e-13 * scale
        assert spline.minimum() >= np.min(spline(np.linspace(x[0], x[-1], 20001))) - 1e-3 * scale

    def test_dip_between_samples_is_rejected(self):
        xs = np.linspace(0.0, 1.0, 9)
        kx = np.array([5.0, 5.0, 5.0, 5.0, 0.05, 0.05, 5.0, 5.0, 5.0])
        assert CubicSpline(xs, kx)(0.5625) < 0.0
        with pytest.raises(ValueError, match="dips to zero between samples"):
            pot.PotentialSpec(x_samples=xs, kx=kx, R=1.0, omega=0.5)

    def test_dip_between_the_old_probe_points_is_rejected(self):
        # The same dip lifted until its only negative part, near x = 0.5624,
        # falls between two of the 8*n probe points the sampled check used.
        xs = np.linspace(0.0, 1.0, 9)
        kx = np.array([5.0, 5.0, 5.0, 5.0, 0.05, 0.05, 5.0, 5.0, 5.0]) + 0.9351
        assert np.min(CubicSpline(xs, kx)(np.linspace(0.0, 1.0, 8 * xs.size))) > 1e-4
        assert np.min(CubicSpline(xs, kx)(np.linspace(0.56, 0.565, 501))) < -1e-4
        with pytest.raises(ValueError, match="dips to zero between samples"):
            pot.PotentialSpec(x_samples=xs, kx=kx, R=1.0, omega=0.5)


class TestArrivalTime:
    def test_constant_speed(self):
        assert pot.arrival_time(constant_spec(), 2.0) == pytest.approx(2.0, abs=1e-10)

    def test_linear_speed_closed_form(self):
        spec = linear_spec()
        assert pot.arrival_time(spec, 1.0) == pytest.approx(math.log(2.0), abs=1e-8)

    def test_double_speed(self):
        spec = constant_spec(v=2.0)
        assert pot.arrival_time(spec, 3.0) == pytest.approx(1.5, abs=1e-10)

    def test_quadrature_matches_scipy(self):
        spec = linear_spec()
        oracle, _ = quad(lambda u: 1.0 / (1.0 + u), 0.0, 0.8)
        assert pot.arrival_time(spec, 0.8) == pytest.approx(oracle, rel=1e-8)

    def test_outside_domain(self):
        with pytest.raises(ValueError):
            pot.arrival_time(constant_spec(), 9.0)
        with pytest.raises(ValueError, match="^x lies outside the domain"):
            pot.arrival_time(constant_spec(), np.array([1.0, math.nan]))

    def test_nonpositive_speed_rejected(self):
        xs = np.linspace(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            pot.PotentialSpec(
                x_samples=xs, kx=xs - 0.5, R=1.0, omega=0.5
            )


class TestWaves:
    def test_constant_k_degenerates_to_free_wave(self):
        spec = constant_spec()
        state = make_free_state(1.0, 1.0)
        xs = np.linspace(1.0, 4.0, 23)
        free = fw.psi_free(state, xs, 0.5)
        here = pot.psi_potential(spec, xs, 0.5, x_mp=0.0)
        assert np.max(np.abs(free - here)) < 1e-10
        free_d = fw.prob_density_free(state, xs, 0.5)
        here_d = pot.prob_density_potential(spec, xs, 0.5, x_mp=0.0)
        assert np.max(np.abs(free_d - here_d)) < 1e-12

    def test_unit_modulus_on_arrival(self):
        spec = linear_spec()
        t_arr = pot.arrival_time(spec, 0.7)
        psi = pot.psi_potential(spec, 0.7, t_arr, x_mp=0.7)
        assert abs(psi) == pytest.approx(1.0, abs=1e-10)

    def test_phase_integral(self):
        spec = linear_spec()
        t_arr = pot.arrival_time(spec, 1.0)
        psi = pot.psi_potential(spec, 1.0, t_arr, x_mp=1.0)
        expected = np.exp(1j * (1.5 - spec.omega * t_arr))
        assert psi == pytest.approx(expected, abs=1e-10)

    def test_density_prefactor(self):
        # k doubles between the measurement point and the probe.
        xs = np.linspace(0.0, 1.0, 101)
        spec = pot.PotentialSpec(
            x_samples=xs, kx=1.0 + xs, R=1.0, omega=0.375
        )
        t_arr = pot.arrival_time(spec, 1.0)
        d = pot.prob_density_potential(spec, 1.0, t_arr, x_mp=0.0)
        assert d == pytest.approx(0.5, abs=1e-10)

    def test_density_one_on_arrival(self):
        spec = linear_spec()
        t_arr = pot.arrival_time(spec, 0.4)
        assert pot.prob_density_potential(spec, 0.4, t_arr, x_mp=0.4) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x_mp", [-40.0, 10.0, math.nan])
    @pytest.mark.parametrize("wave", [pot.psi_potential, pot.prob_density_potential],
                             ids=["psi", "density"])
    def test_measurement_point_outside_the_domain_raises(self, wave, x_mp):
        # Not k's spline extrapolated: at x_mp = -40 that gave k_mp = -39 and a density of 4.79.
        spec = linear_spec(x1=5.0)
        with pytest.raises(ValueError, match=rf"^x_mp = {x_mp} lies outside the domain \[0.0, 5.0\]"):
            wave(spec, 3.0, 0.5, x_mp=x_mp)
        for edge in (spec.x_start, spec.x_end):
            assert np.isfinite(wave(spec, 3.0, 0.5, x_mp=edge))

    def test_region_mismatch(self):
        spec = constant_spec()
        with pytest.raises(RegionError):
            pot.psi_potential(spec, 1.0, 2.0, x_mp=0.0)


class TestSharedArrivalRule:
    """A free wave and a constant-k state of the same speed obey one side-of-arrival rule."""

    @given(v=st.floats(0.1, 10.0), R=st.floats(0.01, 10.0), t=st.floats(0.0, 4.0))
    def test_boundary_of_both_families(self, v, R, t):
        spec = constant_spec(v=v, R=R, x1=50.0 * v, n=64)
        x = v * t
        free_on_line = x / v  # the free wave's tau(x), so the lag is exactly 0
        pot_on_line = pot.arrival_time(spec, x)
        for branch in Branch:
            state = replace(make_free_state(v, R), branch=branch)
            assert fw.prob_density_free(state, x, free_on_line) == 1.0
            # 1e-6 (relative) past the line: later for incoming, earlier for outgoing.
            free_past = free_on_line + branch.sign * 1e-6 * max(1.0, free_on_line)
            for probe in (lambda: fw.psi_free(state, x, free_past),
                          lambda: fw.prob_density_free(state, x, free_past)):
                with pytest.raises(RegionError):
                    probe()
        # Potential states are incoming only: the same rule on the incoming side.
        assert pot.prob_density_potential(spec, x, pot_on_line, x_mp=x) == 1.0
        pot_past = pot_on_line + 1e-6 * max(1.0, pot_on_line)
        for probe in (lambda: pot.psi_potential(spec, x, pot_past, x_mp=x),
                      lambda: pot.prob_density_potential(spec, x, pot_past, x_mp=x)):
            with pytest.raises(RegionError):
                probe()

    @given(v=st.floats(0.1, 10.0), R=st.floats(0.01, 10.0), t=st.floats(0.0, 4.0))
    def test_outgoing_density_is_the_free_envelope_bit_for_bit(self, v, R, t):
        state = replace(make_free_state(v, R), branch=Branch.OUTGOING)
        xs = np.linspace(v * t - 3.0, v * t, 9)
        assert np.array_equal(fw.prob_density_free(state, xs, t), np.exp(R * (xs / v - t)))


class TestContinuity:
    def test_constant_speed(self):
        spec = constant_spec()
        grid = fw.Grid1D(2.0, 3.0, 21, 1.0)
        assert pot.continuity_residual(spec, grid) < 1e-6

    def test_linear_speed(self):
        xs = np.linspace(0.0, 5.0, 401)
        spec = pot.PotentialSpec(
            x_samples=xs, kx=1.0 + xs, R=1.0, omega=0.375
        )
        grid = fw.Grid1D(2.0, 3.0, 21, 0.5)
        assert pot.continuity_residual(spec, grid) < 1e-6

    def test_stencil_takes_the_exact_least_speed(self, monkeypatch):
        # k = 2 dips to 0.1 at x = 0.95 over a width of ~0.005, between two points of
        # a 256-point grid, whose samples read a least speed of ~2.
        xs = np.linspace(0.0, 4.0, 2001)
        kx = 2.0 - 1.9 * np.exp(-(((xs - xs[475]) / 0.0025) ** 2))
        spec = pot.PotentialSpec(x_samples=xs, kx=kx, R=1.0, omega=0.375)
        assert np.min(spec.k_at(np.linspace(0.0, 4.0, 256))) > 1.99
        speeds, steps = [], pot.stencil_steps
        monkeypatch.setattr(pot, "stencil_steps",
                            lambda room_t, v, *rates: speeds.append(v) or steps(room_t, v, *rates))
        pot.continuity_residual(spec, fw.Grid1D(2.0, 3.0, 21, 0.25))
        dense = np.min(CubicSpline(xs, kx)(np.linspace(0.94, 0.96, 20001)))
        assert speeds == [pytest.approx(dense, rel=1e-9)]

    def test_detects_corrupted_rate(self, monkeypatch):
        spec = constant_spec()
        grid = fw.Grid1D(2.0, 2.5, 11, 1.0)

        def corrupted_density(x, t):
            # Envelope rate doubled in the time factor only.
            tau = pot.arrival_time(spec, x)
            return np.exp(2.0 * spec.R * t) * np.exp(-spec.R * tau)

        monkeypatch.setattr(pot, "prob_density_potential",
                            lambda spec_, x, t, x_mp: corrupted_density(x, t))
        res = pot.continuity_residual(spec, grid)
        # The d/dt term contributes 2R*P while the flux term removes only R*P.
        floor = spec.R * float(np.min(corrupted_density(grid.xs(), grid.t)))
        assert res >= 0.9 * floor
        assert res > 0.05

    def test_grid_straddling_seam(self):
        spec = constant_spec()
        grid = fw.Grid1D(0.9, 2.0, 11, 1.0)
        with pytest.raises(RegionError):
            pot.continuity_residual(spec, grid)


class TestMpLimit:
    def test_constant_k_all_pass(self):
        assert pot.mp_limit_check(constant_spec(), 2.0) < 1e-12

    def test_linear_k(self):
        assert pot.mp_limit_check(linear_spec(), 1.0) < 1e-10


def _loop_sweep(E, x, W):
    """The Numerov sweep as a point-by-point loop in Python floats: the banded solve's oracle."""
    h = x[1] - x[0]
    f = 2.0 * (W - E)  # 2m/hbar^2 (W - E)
    f0 = f[0]
    fp0 = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    fpp0 = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    dy = float(0.5 * h**2 * f0 + h**3 * fp0 / 6.0 + h**4 * (fpp0 + f0 * f0) / 24.0)
    h2f = h**2 * f
    w, h2f = (1.0 - h2f / 12.0).tolist(), h2f.tolist()
    y = 1.0 + dy
    z, d = w[1] * y, dy - (h2f[1] * y - h2f[0]) / 12.0
    nodes = rescales = 0
    for h2f_i, w_next in zip(h2f[1:-1], w[2:]):
        d += h2f_i * y
        z += d
        y_prev, y = y, z / w_next
        nodes += y * y_prev < 0.0
        if abs(y) > 1e250:
            y_prev, y, z, d = y_prev * 1e-200, y * 1e-200, z * 1e-200, d * 1e-200
            rescales += 1
    return nodes, y, rescales


class TestSturmLiouville:
    def box(self, n_eigen=6, x1=1.0, k0=0.0, n=64):
        return pot.SLProblem(
            x0=0.0, x_end=x1, kx=np.full(n, k0), V=np.zeros(n), n_eigen=n_eigen
        )

    @pytest.mark.parametrize("preset, x1, n_grid, rescales", [
        ("box", 1.0, 1001, 0), ("box", 1.0, 1501, 0), ("box", 1.0, 2001, 0),
        ("harmonic", 5.0, 1001, 0), ("harmonic", 5.0, 1501, 0), ("harmonic", 5.0, 2001, 0),
        ("harmonic", 40.0, 2001, 1), ("harmonic", 60.0, 2001, 3),  # deep forbidden regions
    ])
    def test_banded_sweep_is_the_loop_bit_for_bit(self, preset, x1, n_grid, rescales,
                                                   monkeypatch):
        xs = np.linspace(0.0, x1, 64)
        V = np.zeros(64) if preset == "box" else 0.5 * xs**2
        problem = pot.SLProblem(x0=0.0, x_end=x1, kx=np.zeros(64), V=V, n_eigen=1)
        x = np.linspace(0.0, x1, n_grid)
        W, band = problem.effective_potential(x), pot._numerov_band(n_grid)
        loop, fallbacks = pot._numerov_loop, []
        monkeypatch.setattr(pot, "_numerov_loop", lambda *a: fallbacks.append(a) or loop(*a))

        def outcome(sweep, E, *band):
            try:
                nodes, y_end, scaled = sweep(E, x, W, *band)
            except FloatingPointError as exc:
                return str(exc)
            assert type(nodes) is int and type(y_end) is float
            return nodes, y_end.hex(), scaled

        # In run_scenario's errstate.  At 1e150 the solve overflows to inf and the
        # loop takes over; at 1e200 both overflow already in the Taylor start.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for E in (-1.0, 0.5, 3.0, 20.0, 60.0, 200.0, 1e3, 5e3, 1e150, 1e200):
                expected, taken = outcome(_loop_sweep, E), len(fallbacks)
                assert outcome(pot._numerov_sweep, E, band) == expected, E
                if E == 1e200:
                    assert expected == "overflow encountered in scalar multiply"
                    continue
                _, y_end, scaled = expected
                rescaled = scaled > 0 or not math.isfinite(float.fromhex(y_end))
                assert len(fallbacks) - taken == rescaled, E
                if E == -1.0:
                    assert scaled == rescales

    def test_sweep_counts_eigenvalues_below_energy(self):
        problem = self.box()
        x = np.linspace(problem.x0, problem.x_end, 2001)
        W, band = problem.effective_potential(x), pot._numerov_band(2001)
        exact = ((np.arange(6) + 0.5) * np.pi) ** 2 / 2.0

        def nodes(E):
            count, _, _ = pot._numerov_sweep(E, x, W, band)
            return count

        assert nodes(0.5 * exact[0]) == 0
        for j in range(1, 6):
            count = nodes(0.5 * (exact[j - 1] + exact[j]))
            assert type(count) is int and count == j

    def test_box_closed_form(self):
        sol = pot.solve_sturm_liouville(self.box())
        exact = ((np.arange(6) + 0.5) * np.pi) ** 2 / 2.0
        assert np.max(np.abs(sol.eigenvalues - exact) / exact) < 1e-6
        assert sol.eigenvalues[0] == pytest.approx(1.2337005501361697, rel=1e-6)

    def test_box_shooting_resolves_energy_below_the_rounding_of_w(self):
        # The three-term recurrence rounds w = 1 - h^2 f/12 and lands 1.8e-9 off.
        sol = pot.solve_sturm_liouville(self.box(), n_grid=2001)
        exact = ((np.arange(6) + 0.5) * np.pi) ** 2 / 2.0
        assert np.max(np.abs(sol.eigenvalues - exact) / exact) < 1e-10

    def test_shooting_takes_few_sweeps_per_eigenvalue(self, monkeypatch):
        sweep, energies = pot._numerov_sweep, []

        def counted(E, *args):
            energies.append(E)
            return sweep(E, *args)

        monkeypatch.setattr(pot, "_numerov_sweep", counted)
        pot.solve_sturm_liouville(self.box(), n_grid=2001)
        assert len(energies) <= 2 + 5 * 6

    def shoot(self, problem, seeds=(), n_grid=2001):
        return pot._shooting_eigenvalues(problem, n_grid, seeds)

    def richardson(self, problem, n_grid=2001):
        return pot.solve_sturm_liouville(problem, n_grid=n_grid).matrix_eigenvalues

    def test_shooting_counts_its_sweeps(self, monkeypatch):
        sweep, energies = pot._numerov_sweep, []

        def counted(E, *args):
            energies.append(E)
            return sweep(E, *args)

        monkeypatch.setattr(pot, "_numerov_sweep", counted)
        _, sweeps = self.shoot(self.box())
        assert sweeps == len(energies)

    @pytest.mark.parametrize("n_eigen", [1, 6])
    def test_seeding_lowers_the_sweep_count(self, n_eigen):
        problem = self.box(n_eigen=n_eigen)
        unseeded, unseeded_sweeps = self.shoot(problem)
        seeded, seeded_sweeps = self.shoot(problem, self.richardson(problem))
        assert seeded_sweeps < unseeded_sweeps
        assert seeded_sweeps <= 2 + 5 * n_eigen
        np.testing.assert_allclose(seeded, unseeded, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("wrong", [
        lambda E: E * (1.0 + 1e-6),
        lambda E: np.r_[E[1:], 2.0 * E[-1] - E[-2]],  # each seed one level up
        lambda E: np.r_[E[-1], E[:-1]],  # each seed one level down, the first at the top
        lambda E: np.zeros_like(E),
        lambda E: -E,
        lambda E: np.full_like(E, 1e200),  # a sweep there overflows and counts 0 nodes
    ], ids=["off-1e-6-relative", "one-level-up", "one-level-down", "zero", "negative", "huge"])
    def test_wrong_seeds_cannot_change_the_answer(self, wrong):
        problem = self.box()
        unseeded, _ = self.shoot(problem)
        seeded, _ = self.shoot(problem, wrong(self.richardson(problem)))
        assert np.all(np.abs(seeded - unseeded) <= 1e-14 * np.maximum(1.0, np.abs(unseeded)))

    def test_non_finite_seeds_are_skipped(self, monkeypatch):
        problem = self.box()
        unseeded, unseeded_sweeps = self.shoot(problem)
        seeds = [math.nan, math.inf, -math.inf, math.nan, math.inf, -math.inf]
        seeded, seeded_sweeps = self.shoot(problem, seeds)
        assert seeded_sweeps == unseeded_sweeps
        np.testing.assert_array_equal(seeded, unseeded)

    @pytest.mark.parametrize("n_grid", [2001, 4001])  # the coarse and the fine grid
    def test_coarse_eigenvalues_alone_are_bit_identical(self, n_grid):
        # The solve's values-only bisection (order 'E') and scipy's in matrix_eigen (order 'B').
        problem = self.box()
        vals, _, _ = pot.matrix_eigen(problem, n_grid)
        diag, off, _ = pot._tridiagonal(problem, n_grid)
        alone = pot.eigh_tridiagonal(diag, off, 6)
        np.testing.assert_array_equal(alone, vals)

    def test_backends_share_one_fine_grid_solve(self, monkeypatch):
        eigh, calls = pot.eigh_tridiagonal, []

        def counted(d, e, n):
            calls.append((d.size, n))
            return eigh(d, e, n)

        monkeypatch.setattr(pot, "eigh_tridiagonal", counted)
        pot.solve_sturm_liouville(self.box(), n_grid=2001)
        assert sorted(calls) == [(2000, 6), (4000, 6)]  # unknowns of the coarse and fine grid

    def failing_solve(self, monkeypatch, fails):
        """Solve the box with eigh_tridiagonal raising ``fails[size]`` for that many unknowns;
        the fine grid's raise comes 50 ms late, after the coarse grid's."""
        eigh, baseline = pot.eigh_tridiagonal, threading.active_count()

        def failing(d, e, n):
            if d.size == 4000:
                time.sleep(0.05)
            if d.size in fails:
                raise fails[d.size]
            return eigh(d, e, n)

        monkeypatch.setattr(pot, "eigh_tridiagonal", failing)
        try:
            pot.solve_sturm_liouville(self.box(), n_grid=2001)
        finally:
            assert threading.active_count() == baseline  # the worker was joined

    @pytest.mark.parametrize("sizes, raised", [((4000,), 4000), ((2000,), 2000),
                                               ((4000, 2000), 4000)],
                             ids=["fine", "coarse", "both"])
    def test_concurrent_grids_raise_what_the_sequential_solve_did(self, sizes, raised,
                                                                  monkeypatch):
        # _richardson(fine, coarse) evaluated the fine grid first, so its error wins.
        fails = {n: np.linalg.LinAlgError(f"no eigenvalues on {n} unknowns") for n in sizes}
        with pytest.raises(np.linalg.LinAlgError, match=f"^no eigenvalues on {raised} unknowns$"):
            self.failing_solve(monkeypatch, fails)

    def test_worker_is_joined_when_the_main_thread_raises(self, monkeypatch):
        class Interrupt(BaseException):
            pass

        with pytest.raises(Interrupt):
            self.failing_solve(monkeypatch, {2000: Interrupt()})

    def test_fine_grid_runs_on_a_worker_in_the_callers_errstate(self, monkeypatch):
        eigh, seen = pot.eigh_tridiagonal, {}

        def recording(d, e, n):
            seen[d.size] = np.geterr()["over"], threading.current_thread() is threading.main_thread()
            return eigh(d, e, n)

        monkeypatch.setattr(pot, "eigh_tridiagonal", recording)
        with np.errstate(over="raise"):
            pot.solve_sturm_liouville(self.box(), n_grid=2001)
        assert seen == {4000: ("raise", False), 2000: ("raise", True)}

    def test_backends_agree(self):
        sol = pot.solve_sturm_liouville(self.box())
        rel = np.abs(sol.eigenvalues - sol.matrix_eigenvalues) / np.abs(sol.matrix_eigenvalues)
        assert np.max(rel) < 1e-6

    def test_constant_k_shifts_spectrum(self):
        base = pot.solve_sturm_liouville(self.box(n_eigen=3))
        shifted = pot.solve_sturm_liouville(self.box(n_eigen=3, k0=2.0))
        # hbar^2 k0^2 / 2m = 2 exactly.
        assert np.max(np.abs(shifted.eigenvalues - base.eigenvalues - 2.0)) < 1e-6

    def test_half_line_harmonic(self):
        xs = np.linspace(0.0, 8.0, 128)
        prob = pot.SLProblem(
            x0=0.0, x_end=8.0, kx=np.zeros(128), V=0.5 * xs**2, n_eigen=2
        )
        sol = pot.solve_sturm_liouville(prob)
        assert sol.eigenvalues[0] == pytest.approx(0.5, abs=1e-3)
        assert sol.eigenvalues[1] == pytest.approx(2.5, abs=1e-3)
        assert np.max(np.abs(sol.eigenvalues - sol.matrix_eigenvalues)) < 1e-6

    def test_eigenfunctions_orthonormal(self):
        _, funcs, x = pot.matrix_eigen(self.box(), 4001)
        gram = np.array([[np.trapezoid(f * g, x) for g in funcs] for f in funcs])
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_box_eigenfunction_shape(self):
        _, funcs, x = pot.matrix_eigen(self.box(n_eigen=1), 4001)
        exact = np.sqrt(2.0) * np.cos(0.5 * np.pi * x)
        overlap = np.trapezoid(funcs[0] * exact, x)
        assert abs(abs(overlap) - 1.0) < 1e-6

    def harmonic(self, n_eigen=4):
        xs = np.linspace(0.0, 8.0, 128)
        return pot.SLProblem(x0=0.0, x_end=8.0, kx=np.zeros(128), V=0.5 * xs**2,
                             n_eigen=n_eigen)

    @pytest.mark.parametrize("n_eigen", [1, 6])
    def test_matrix_eigen_shapes(self, n_eigen):
        problem = self.box(n_eigen=n_eigen)
        vals, funcs, x = pot.matrix_eigen(problem, 501)
        assert vals.shape == (n_eigen,) and funcs.shape == (n_eigen, 501)
        np.testing.assert_array_equal(x, np.linspace(0.0, 1.0, 501))
        assert pot.solve_sturm_liouville(problem, 501).matrix_eigenvalues.shape == (n_eigen,)

    @pytest.mark.parametrize("problem", ["box", "harmonic"])
    def test_matrix_eigen_solves_its_difference_equation(self, problem):
        # -c (f[i-1] - 2 f[i] + f[i+1]) / h^2 + W f[i] = E f[i], ghost f[-1] = f[1], f[-1] = 0.
        problem = getattr(self, problem)()
        vals, funcs, x = pot.matrix_eigen(problem, 2001)
        h, c = x[1] - x[0], 0.5
        W = problem.effective_potential(x)
        for E, f in zip(vals, funcs):
            left = np.concatenate(([f[1]], f[:-2]))
            lhs = -c * (left - 2.0 * f[:-1] + f[1:]) / h**2 + W[:-1] * f[:-1]
            scale = (4.0 * c / h**2 + np.max(np.abs(W))) * np.max(np.abs(f))
            assert np.max(np.abs(lhs - E * f[:-1])) < 1e-12 * scale

    def test_matrix_eigen_boundary_values(self):
        _, funcs, _ = pot.matrix_eigen(self.box(), 2001)
        assert np.all(funcs[:, -1] == 0.0)  # Dirichlet at x_end
        assert np.all(funcs[:, 0] > 0.0)  # sign convention at the Neumann edge

    @pytest.mark.parametrize("problem", ["box", "harmonic"])
    def test_matrix_eigen_nodes_follow_sturm_oscillation(self, problem):
        _, funcs, _ = pot.matrix_eigen(getattr(self, problem)(), 2001)
        nodes = [int(np.sum(f[:-2] * f[1:-1] < 0.0)) for f in funcs]
        assert nodes == list(range(len(funcs)))

    def test_matrix_eigen_too_many_eigenvalues(self):
        with pytest.raises(ConvergenceError, match="only 25 eigenvalues exist"):
            pot.matrix_eigen(self.box(n_eigen=26), 26)

    def test_richardson_beats_both_grids(self):
        problem = self.box()
        exact = ((np.arange(6) + 0.5) * np.pi) ** 2 / 2.0
        fine, _, _ = pot.matrix_eigen(problem, 4001)
        error = np.abs(pot.solve_sturm_liouville(problem).matrix_eigenvalues - exact)
        # Fourth order down to the bisection floor eps*|T| ~ 2e-9, from 1.6e-8..2.3e-4.
        assert np.all(error < 0.1 * np.abs(fine - exact)) and np.max(error) < 1e-8

    def test_domain_growth_monotonicity(self):
        sols = [pot.solve_sturm_liouville(self.box(n_eigen=4, x1=x1), n_grid=1001)
                for x1 in (1.0, 1.5, 2.0)]
        for name in ("eigenvalues", "matrix_eigenvalues"):
            eigs = [getattr(sol, name) for sol in sols]
            for smaller, larger in zip(eigs[1:], eigs[:-1]):
                assert np.all(smaller <= larger + 1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_effective_potential_rejected(self, bad):
        V = np.zeros(64)
        V[10] = bad
        with pytest.raises(ValueError, match="effective potential"):
            pot.SLProblem(x0=0.0, x_end=1.0, kx=np.zeros(64), V=V, n_eigen=2)

    def test_too_many_eigenvalues(self):
        # The matrix holds n_grid - 1 = 25 levels.
        with pytest.raises(ConvergenceError, match="only 25 eigenvalues exist"):
            pot.matrix_eigen(self.box(n_eigen=50), 26)

    @pytest.mark.parametrize("n_eigen, n_grid", [(50, 26), (4, 7), (3, 5)])
    def test_fewer_than_two_points_a_level_is_rejected(self, n_eigen, n_grid, monkeypatch):
        # There Numerov's node counts give spurious levels (box n_eigen = 4, n_grid = 7:
        # 49% off), so the solve refuses the grid before it sweeps or diagonalizes.
        monkeypatch.setattr(pot, "eigh_tridiagonal", None)
        monkeypatch.setattr(pot, "_numerov_sweep", None)
        with pytest.raises(ValueError, match=(
                f"^n_grid = {n_grid} has fewer than 2 points per level of "
                f"n_eigen = {n_eigen}: it must be at least {2 * n_eigen}$")):
            pot.solve_sturm_liouville(self.box(n_eigen=n_eigen), n_grid=n_grid)

    def test_two_points_a_level_are_enough(self):
        assert pot.solve_sturm_liouville(self.box(n_eigen=3), n_grid=6).eigenvalues.size == 3

    @pytest.mark.parametrize("n_grid", [0, 1, 2, 3])
    def test_tiny_grid_names_its_point_count(self, n_grid):
        # Below 4 points the Numerov start, and below 3 the matrix, would index past the grid.
        with pytest.raises(ValueError, match=f"at least 4 grid points, got n_grid = {n_grid}$"):
            pot.solve_sturm_liouville(self.box(n_eigen=1), n_grid=n_grid)
        if n_grid < 3:
            with pytest.raises(ValueError, match=f"at least 3 grid points, got n_grid = {n_grid}$"):
                pot.matrix_eigen(self.box(n_eigen=1), n_grid)
        else:
            assert pot.matrix_eigen(self.box(n_eigen=1), n_grid)[0].shape == (1,)

    def test_solution_validation(self):
        fields = vars(pot.solve_sturm_liouville(self.box(n_eigen=2)))
        assert list(fields) == ["eigenvalues", "matrix_eigenvalues"]
        flipped = {name: fields[name][::-1] for name in ("eigenvalues", "matrix_eigenvalues")}
        # Either array out of order is rejected; with both, the shooting one is named.
        for names in (["eigenvalues"], ["matrix_eigenvalues"], list(flipped)):
            with pytest.raises(ValueError, match=f"^{names[0]} must be strictly increasing"):
                pot.SLSolution(**{**fields, **{n: flipped[n] for n in names}})

    def test_solution_rejects_a_repeated_eigenvalue(self):
        with pytest.raises(ValueError, match="^matrix_eigenvalues must be strictly increasing"):
            pot.SLSolution(np.array([1.0, 2.0]), np.array([1.5, 1.5]))

    def test_natural_unit_forms_are_the_hbar_m_forms_bit_for_bit(self):
        # At hbar = m = 1 each dropped factor multiplies or divides by 1.0, which is exact.
        hbar, m = 1.0, 1.0
        xs = np.linspace(0.0, 5.0, 64)
        kx, V = 0.3 + np.sin(xs) ** 2, 0.5 * xs**2
        problem = pot.SLProblem(x0=0.0, x_end=5.0, kx=kx, V=V, n_eigen=4)
        w = pot._spline(xs, hbar * hbar * kx**2 / (2.0 * m) + V)
        x = np.linspace(0.0, 5.0, 301)
        assert np.array_equal(problem.effective_potential(x), w(x))
        energies = pot.solve_sturm_liouville(problem, n_grid=401).eigenvalues
        v_n = hbar * (np.sqrt(2.0 * m * energies) / hbar) / m
        assert np.array_equal(pot.mode_arrival_times(energies, 3.0), 3.0 / v_n)

    def test_mode_arrival_times_distinct(self):
        sol = pot.solve_sturm_liouville(self.box())
        times = pot.mode_arrival_times(sol.matrix_eigenvalues, 1.0)
        assert times.size == np.unique(times).size
        assert np.all(np.diff(times) < 0)  # faster modes arrive sooner


def _tridiagonal_problems(count=200, seed=30):
    """Seeded (d, e, k): n log-uniform in 3..4001 with both ends, k in 1..min(n - 1, 100).

    Box, harmonic and random diagonals in turn; every fourth off-diagonal has
    zeros that split the matrix into blocks.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = (3, 4001)[i] if i < 2 else int(np.exp(rng.uniform(math.log(3), math.log(4001))))
        k = int(rng.integers(1, min(n - 1, 100) + 1))
        h = rng.uniform(1.0, 10.0) / n
        e = np.full(n - 1, -0.5 / h**2)
        e[0] *= math.sqrt(2.0)
        if i % 3 == 0:
            d = np.full(n, 1.0 / h**2)
        elif i % 3 == 1:
            d = 1.0 / h**2 + 0.5 * (h * np.arange(n)) ** 2
        else:
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            d, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
        if i % 4 == 3:
            e[rng.choice(n - 1, size=1 + n // 100, replace=False)] = 0.0
        yield d, e, k


class TestEighTridiagonal:
    """The ctypes dstebz path against scipy.linalg.eigh_tridiagonal, its oracle."""

    @pytest.mark.parametrize("count", [200], ids=["values"])
    def test_is_scipys_bit_for_bit(self, count):
        for d, e, k in _tridiagonal_problems(count):
            scipys = linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                             select_range=(0, k - 1))
            np.testing.assert_array_equal(pot.eigh_tridiagonal(d, e, k), scipys,
                                          err_msg=f"n = {d.size}, k = {k}")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_raises_scipys_error(self, bad):
        d, e = np.ones(5), np.full(4, 0.5)
        e[2] = bad
        with pytest.raises(ValueError) as scipys:
            linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(str(scipys.value))}$"):
            pot.eigh_tridiagonal(d, e, 2)

    @pytest.mark.parametrize("info", [-3, 2])
    def test_lapack_info_raises_scipys_error(self, info, monkeypatch):
        from scipy.linalg import _decomp

        def dstebz(*args):
            ctypes.c_int.from_address(args[-1]).value = info

        monkeypatch.setattr(pot, "_dstebz", lambda: dstebz)
        with pytest.raises((ValueError, np.linalg.LinAlgError)) as scipys:
            _decomp._check_info(info, "stebz (eigh_tridiagonal)")
        with pytest.raises(scipys.type, match=f"^{re.escape(str(scipys.value))}$"):
            pot.eigh_tridiagonal(np.ones(4), np.ones(3), 2)

    @pytest.mark.parametrize("d, e", [(np.ones(4), np.ones(4)), (np.ones((2, 2)), np.ones(3))],
                             ids=["d0-e0-i", "d1-e1-i"])
    def test_what_lapack_cannot_take_is_refused_before_it(self, d, e, monkeypatch):
        monkeypatch.setattr(pot, "_dstebz", None)
        with pytest.raises(ValueError, match="^need 1-d d, e one shorter; got"):
            pot.eigh_tridiagonal(d, e, 2)


def test_load_potential_table(tmp_path):
    xs = np.linspace(0.0, 2.0, 51)
    k_path = tmp_path / "k.txt"
    k_lines = ["# x k"] + [f"{float(x)!r} {float(1.0 + x)!r}" for x in xs]
    k_path.write_text("\n".join(k_lines) + "\n")
    spec = pot.load_potential_table(k_path, R=1.0, omega=0.375)
    assert spec.x_samples.tolist() == xs.tolist()
    assert spec.kx[0] == pytest.approx(1.0)
    assert pot.arrival_time(spec, 2.0) == pytest.approx(math.log(3.0), abs=1e-6)


@pytest.mark.parametrize("rows, message", [
    ("0 1 2\n" * 8, "the table must have exactly two columns"),
    ("".join(f"{x} 1\n" for x in range(7)), "need at least 8 strictly increasing x samples"),
])
def test_load_potential_table_refuses_a_short_or_wide_table(rows, message, tmp_path):
    k_path = tmp_path / "k.txt"
    k_path.write_text(rows)
    with pytest.raises(ValueError, match=f"^{message}"):
        pot.load_potential_table(k_path, R=1.0, omega=0.375)
