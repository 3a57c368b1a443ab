import cmath
import dataclasses
import math
import re

import numpy as np
import pytest

from pdwave.core import EigenRecord, PhysicalConstants, central_difference, make_free_state
from pdwave.measurement import MeasurementEvent, detect_mp
from pdwave import spectral as sp


CANON = make_free_state(1.0, 1.0)
GRID_A = np.linspace(0.1, 1.0, 7)
GRID_B = np.linspace(1.3, 2.0, 7)


# Every spectral derivative steps 5e-3 along the canonical line x_c = x(1 + i).
STEP = 5e-3 * ((1.0 + 1.0j) / math.sqrt(2.0))


def _commutator_loop(pair, state, probe_grid):
    """Reference: ``commutator_check`` one probe point at a time, with cmath.

    np.exp and cmath.exp may differ in the last bit, which the second
    difference over |h| = 5e-3 magnifies by about 1/h^2 = 4e4; comparisons with
    this loop therefore allow 1e-9.
    """
    hbar, m = state.constants.hbar, state.constants.mass
    values = []
    for x in probe_grid:
        z = complex(x, x)

        def psi(u):
            return cmath.exp(1j * state.k * u)

        if pair == "XcPc":
            ab = z * (-1j * hbar) * central_difference(psi, z, STEP)
            ba = -1j * hbar * central_difference(lambda u: u * psi(u), z, STEP)
        else:
            c = -hbar * hbar / (2.0 * m)
            ab = (z / state.v) * c * central_difference(psi, z, STEP, order=2)
            ba = c * central_difference(lambda u: (u / state.v) * psi(u), z, STEP, order=2)
        values.append((ab - ba) / psi(z))
    return complex(np.mean(values))


def _residual_loop(state, probe_grid, t):
    """Reference: ``complex_schrodinger_residual`` one probe point at a time, with cmath."""
    hbar, m = state.constants.hbar, state.constants.mass
    t_c = t * (1.0 + 1.0j)
    worst = 0.0
    for x in probe_grid:
        z = complex(x, x)
        lhs = -(hbar * hbar / (2.0 * m)) * central_difference(
            lambda u: cmath.exp(1j * state.k * u - 1j * state.omega * t_c), z, STEP, order=2)
        rhs = 1j * hbar * central_difference(
            lambda u: cmath.exp(1j * state.k * z - 1j * state.omega * u), t_c, STEP)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _parent_derivative(f, z, order):
    """``spectral._d1`` (order 1) or ``_d2`` (order 2) at h = 5e-3, as they were
    before ``core.central_difference`` replaced them."""
    step = 5e-3 * ((1.0 + 1.0j) / math.sqrt(2.0))

    def central(s):
        if order == 1:
            return (f(z + s) - f(z - s)) / (2.0 * s)
        return (f(z + s) - 2.0 * f(z) + f(z - s)) / (s * s)

    return (4.0 * central(0.5 * step) - central(step)) / 3.0


def _parent_commutator(pair, state, probe_grid):
    """``commutator_check`` as it was, on the parent's own stencils."""
    hbar, m = state.constants.hbar, state.constants.mass
    z = np.asarray(probe_grid, dtype=float) * (1.0 + 1.0j)

    def psi(u):
        return sp._exp(1j * state.k * u)

    if pair == "XcPc":
        ab = z * (-1j * hbar) * _parent_derivative(psi, z, 1)
        ba = -1j * hbar * _parent_derivative(lambda u: u * psi(u), z, 1)
    else:
        c = -hbar * hbar / (2.0 * m)
        ab = (z / state.v) * c * _parent_derivative(psi, z, 2)
        ba = c * _parent_derivative(lambda u: (u / state.v) * psi(u), z, 2)
    return complex(np.mean((ab - ba) / psi(z)))


def _parent_residual(state, probe_grid, t):
    """``complex_schrodinger_residual`` as it was, on the parent's own stencils."""
    hbar, m = state.constants.hbar, state.constants.mass
    z = np.asarray(probe_grid, dtype=float) * (1.0 + 1.0j)
    t_c = t * (1.0 + 1.0j)
    lhs = -(hbar * hbar / (2.0 * m)) * _parent_derivative(
        lambda u: sp._exp(1j * state.k * u - 1j * state.omega * t_c), z, 2)
    rhs = 1j * hbar * _parent_derivative(
        lambda u: sp._exp(1j * state.k * z - 1j * state.omega * u), t_c, 1)
    return float(np.max(np.abs(lhs - rhs)))


@pytest.mark.parametrize("state", [CANON, make_free_state(1.7, 0.4, PhysicalConstants(0.8, 1.3))])
@pytest.mark.parametrize("grid", [GRID_A, GRID_B])
def test_values_are_bit_identical_to_the_parent_stencils(state, grid):
    # The shared stencil takes the same steps in the same order, so every bit
    # stays; the parent's values are recomputed here because they move in
    # their last bits with numpy's SIMD dispatch of the complex exp.
    for pair in ("XcPc", "TcHc"):
        assert sp.commutator_check(pair, state, grid) == _parent_commutator(pair, state, grid)
    for t in (0.0, 0.4):
        assert sp.complex_schrodinger_residual(state, grid, t) == _parent_residual(state, grid, t)


class TestApplyObservable:
    def test_energy(self):
        rec = sp.apply_observable("H", CANON)
        assert rec.value == pytest.approx(0.375 + 0.5j)
        assert not rec.at_mp

    def test_adjoint_energy(self):
        assert sp.apply_observable("Hdagger", CANON).value == pytest.approx(0.375 - 0.5j)

    def test_momentum(self):
        assert sp.apply_observable("P", CANON).value == pytest.approx(1.0 + 0.5j)

    def test_position(self):
        rec = sp.apply_observable("S", CANON, t0=1.0)
        assert rec.value == pytest.approx(1.0 + 0.5j)

    def test_position_at_mp_is_real(self):
        rec = sp.apply_observable("S", CANON, at=(2.0, 2.0), t0=2.0)
        assert rec.at_mp
        assert rec.value == pytest.approx(2.0 + 0.0j)

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            sp.apply_observable("L", CANON)

    def test_s_requires_t0(self):
        with pytest.raises(ValueError):
            sp.apply_observable("S", CANON)

    # The absorbed wave that a recording measurement leaves: R = v = 0.
    ABSORBED = dataclasses.replace(CANON, k=0.0, omega=0.0, R=0.0, v=0.0)

    @pytest.mark.parametrize("obs, t0", [("P", None), ("S", 1.0)])
    def test_momentum_and_position_need_a_moving_wave(self, obs, t0):
        with pytest.raises(ValueError, match=rf"observable {obs} needs v > 0: at v = 0"):
            sp.apply_observable(obs, self.ABSORBED, t0=t0)

    @pytest.mark.parametrize("obs", ["H", "Hdagger"])
    def test_energy_of_the_absorbed_wave_is_zero(self, obs):
        assert sp.apply_observable(obs, self.ABSORBED).value == 0.0

    def test_energy_difference_is_ihbar_R(self):
        h = sp.apply_observable("H", CANON).value
        hd = sp.apply_observable("Hdagger", CANON).value
        assert h - hd == 1j * CANON.constants.hbar * CANON.R

    def test_normality(self):
        h = sp.apply_observable("H", CANON).value
        hd = sp.apply_observable("Hdagger", CANON).value
        assert h * hd - hd * h == 0.0
        assert h * hd == abs(h) ** 2


class TestHermitize:
    def event(self):
        return detect_mp(CANON, 2.0, 2.0)

    def test_energy(self):
        rec = EigenRecord(0.375 + 0.5j)
        out = sp.hermitize_at_mp(rec, self.event())
        assert out.value == 0.375 + 0j
        assert out.at_mp

    def test_momentum(self):
        rec = EigenRecord(1.0 + 0.5j)
        assert sp.hermitize_at_mp(rec, self.event()).value == 1.0 + 0j

    def test_idempotent(self):
        rec = EigenRecord(0.375 + 0.0j, at_mp=True)
        assert sp.hermitize_at_mp(rec, self.event()) == rec

    def test_rejects_off_mp_event(self):
        class Probe:
            x, t, speed = 2.0, 1.0, 1.0

        with pytest.raises(ValueError):
            sp.hermitize_at_mp(EigenRecord(0.375 + 0.5j), Probe())


class TestCommutators:
    def test_position_momentum(self):
        val = sp.commutator_check("XcPc", CANON, GRID_A)
        assert abs(val - 1j) < 1e-8

    def test_time_energy(self):
        val = sp.commutator_check("TcHc", CANON, GRID_A)
        assert abs(val - 1j) < 1e-8

    def test_hbar_scaling(self):
        state = make_free_state(1.0, 1.0, PhysicalConstants(hbar=2.0))
        assert abs(sp.commutator_check("XcPc", state, GRID_A) - 2j) < 1e-8
        assert abs(sp.commutator_check("TcHc", state, GRID_A) - 2j) < 1e-8

    def test_grid_independence(self):
        for pair in ("XcPc", "TcHc"):
            a = sp.commutator_check(pair, CANON, GRID_A)
            b = sp.commutator_check(pair, CANON, GRID_B)
            assert abs(a - b) < 1e-8

    def test_unknown_pair(self):
        with pytest.raises(ValueError):
            sp.commutator_check("PcXc", CANON, GRID_A)

    def test_matches_the_pointwise_cmath_loop(self):
        state = make_free_state(1.7, 0.4, PhysicalConstants(hbar=0.8, mass=1.3))
        for pair in ("XcPc", "TcHc"):
            for s, grid in ((CANON, GRID_A), (state, GRID_B)):
                expected = _commutator_loop(pair, s, grid)
                assert abs(sp.commutator_check(pair, s, grid) - expected) < 1e-9

    @pytest.mark.parametrize("pair", ["XcPc", "TcHc"])
    def test_empty_probe_grid_raises(self, pair):
        with pytest.raises(ValueError, match="probe grid is empty"):
            sp.commutator_check(pair, CANON, np.array([]))

    def test_underflow_names_first_offending_point(self):
        # |psi| = exp(-k x) on the canonical line drops below 1e-300 past x ~ 691.
        with pytest.raises(ValueError, match=re.escape("probe point (800+800j)")):
            sp.commutator_check("XcPc", CANON, [0.5, 800.0, 900.0])

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            sp.commutator_check("TcHc", CANON, [0.5, -800.0])


class TestComplexResidual:
    def test_vanishes_for_plane_dispersion(self):
        state = dataclasses.replace(CANON, omega=0.5)
        assert sp.complex_schrodinger_residual(state, GRID_A) < 1e-10

    def test_matches_the_pointwise_cmath_loop(self):
        state = make_free_state(1.7, 0.4, PhysicalConstants(hbar=0.8, mass=1.3))
        for s, grid, t in ((CANON, GRID_A, 0.0), (state, GRID_B, 0.4)):
            expected = _residual_loop(s, grid, t)
            assert abs(sp.complex_schrodinger_residual(s, grid, t) - expected) < 1e-9

    def test_empty_probe_grid_raises(self):
        with pytest.raises(ValueError, match="probe grid is empty"):
            sp.complex_schrodinger_residual(CANON, [])

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            sp.complex_schrodinger_residual(CANON, [-800.0])

    def test_quantum_potential_gap(self):
        # With the envelope dispersion the residual equals the vanished
        # quantum-potential term times |psi|.
        gap = 0.125
        for x in GRID_A:
            res = sp.complex_schrodinger_residual(CANON, [x])
            expected = gap * abs(cmath.exp(1j * CANON.k * complex(x, x)))
            assert abs(res - expected) < 1e-8

    def test_hbar_scaling(self):
        base = dataclasses.replace(CANON, omega=0.5)
        doubled = dataclasses.replace(
            base, constants=PhysicalConstants(hbar=2.0)
        )
        # hbar^2 k^2/2m = 2 vs hbar*omega = 1: residual (2-1)*|psi|.
        res = sp.complex_schrodinger_residual(doubled, [0.3])
        expected = 1.0 * abs(cmath.exp(1j * complex(0.3, 0.3)))
        assert res == pytest.approx(expected, abs=1e-8)


class TestProbabilityField:
    def test_values(self):
        state = make_free_state(1.0, 1.0)
        assert sp.probability_field(0.0, state) == 1.0
        assert sp.probability_field(1.0, state) == pytest.approx(math.exp(-1.0))
        assert sp.probability_field(math.log(2.0), state) == pytest.approx(0.5)

    def test_negative_separation(self):
        with pytest.raises(ValueError):
            sp.probability_field(-0.1, make_free_state(1.0, 1.0))

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            sp.probability_field(1.0, make_free_state(1.0, 2.0))
