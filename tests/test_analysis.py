import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from pdwave.core import (
    Branch, ConvergenceError, PhysicalConstants, RegionError, make_free_state,
)
from pdwave import analysis as an


CANON = make_free_state(1.0, 1.0)


class TestUncertainty:
    def test_constant_imaginary_part(self):
        # The family's momentum has constant imaginary part hbar*R/(2v).
        z = np.array([1.0, 2.0, 3.0, 4.0]) + 0.5j
        rep = an.uncertainty_decompose(an.ComplexSampleSet(values=z))
        assert rep.var_imag == 0.0
        assert rep.var_complex.imag == 0.0
        assert rep.var_complex.real == rep.var_real

    def test_zero_variance(self):
        z = np.full(5, 1.0 + 1.0j)
        rep = an.uncertainty_decompose(an.ComplexSampleSet(values=z))
        assert (rep.var_real, rep.var_imag, rep.covariance) == (0.0, 0.0, 0.0)
        assert rep.var_complex == 0.0

    def test_independent_parts_monte_carlo(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 2.0, 100000) + 1j * rng.normal(0, 1.0, 100000)
        rep = an.uncertainty_decompose(an.ComplexSampleSet(values=z))
        assert rep.var_complex.real == pytest.approx(3.0, rel=0.05)

    def test_identity_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.normal(size=100) + 1j * rng.normal(size=100) * rng.uniform(0.1, 3)
            rep = an.uncertainty_decompose(an.ComplexSampleSet(values=z))
            assert rep.var_real - rep.var_imag - rep.var_complex.real == 0.0
            assert rep.var_complex.imag - 2.0 * rep.covariance == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            an.ComplexSampleSet(values=np.array([1.0 + 0j]))

    def test_from_pairs(self):
        s = an.ComplexSampleSet.from_pairs([(1.0, 2.0), (3.0, 4.0)])
        assert np.array_equal(s.values, np.array([1 + 2j, 3 + 4j]))


class TestHeisenberg:
    def test_boundary_inclusive(self):
        assert an.heisenberg_check(1.0, 0.5)

    def test_below_floor(self):
        assert not an.heisenberg_check(0.1, 0.1)

    def test_small_hbar_limit(self):
        tiny = PhysicalConstants(hbar=1e-300)
        assert an.heisenberg_check(0.0, 0.0, tiny) or an.heisenberg_check(
            1e-100, 1e-100, tiny
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            an.heisenberg_check(-1.0, 0.5)


class TestContour:
    def square(self):
        return an.Contour(vertices=np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex))

    def test_closed_contour_vanishes(self):
        assert abs(an.contour_integral(CANON, self.square())) < 1e-9

    def test_outgoing_density_too(self):
        outgoing = replace(CANON, branch=Branch.OUTGOING)
        assert abs(an.contour_integral(outgoing, self.square())) < 1e-9

    @pytest.mark.parametrize("v, R", [(1.0, 1.0), (2.0, 0.5), (0.7, 1.3)])
    def test_density_follows_the_branch(self, v, R):
        # The outgoing density exp[R(z/v - t_c)] grows along the segment 0 -> 1.
        outgoing = replace(make_free_state(v, R), branch=Branch.OUTGOING)
        assert abs(an.contour_integral(outgoing, self.square())) < 1e-9
        seg = an.Contour(vertices=np.array([0, 1], dtype=complex))
        val = an.contour_integral(outgoing, seg)
        assert abs(val - math.expm1(R / v) * v / R) < 1e-9

    def test_path_independence(self):
        a = an.Contour(vertices=np.array([0, 1, 1 + 1j], dtype=complex))
        b = an.Contour(vertices=np.array([0, 1j, 1 + 1j], dtype=complex))
        va = an.contour_integral(CANON, a)
        vb = an.contour_integral(CANON, b)
        assert abs(va - vb) < 1e-9

    def test_straight_segment_closed_form(self):
        seg = an.Contour(vertices=np.array([0, 1], dtype=complex))
        val = an.contour_integral(CANON, seg)
        assert abs(val - (1.0 - math.exp(-1.0))) < 1e-9

    def test_refinement_invariance(self):
        seg = an.Contour(vertices=np.array([0, 0.5 + 0.5j, 1 + 1j], dtype=complex))
        fine_vertices = np.array(
            [0, 0.25 + 0.25j, 0.5 + 0.5j, 0.75 + 0.75j, 1 + 1j], dtype=complex
        )
        fine = an.Contour(vertices=fine_vertices)
        coarse_val = an.contour_integral(CANON, seg)
        fine_val = an.contour_integral(CANON, fine)
        assert abs(coarse_val - fine_val) < 1e-10

    def test_unresolvable_oscillation_stops_at_twelve_halvings(self):
        # R/v = 1e7: along the imaginary axis the density turns ~1.6e6 times.
        steep = make_free_state(1e-7, 1.0)
        seg = an.Contour(vertices=np.array([0, 1j], dtype=complex))
        with pytest.raises(ConvergenceError) as err:
            an.contour_integral(steep, seg)
        assert err.value.iterations == 12

    def test_zero_length_segment_rejected(self):
        c = an.Contour(vertices=np.array([0, 0, 1], dtype=complex))
        with pytest.raises(ValueError):
            an.contour_integral(CANON, c)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "contour.csv"
        path.write_text("re_x,im_x\n0.0,0.0\n1.0,0.0\n1.0,1.0\n0.0,1.0\n0.0,0.0\n")
        c = an.Contour.from_csv(path)
        assert c.closed
        assert abs(an.contour_integral(CANON, c)) < 1e-9

    def test_from_csv_open_polyline(self, tmp_path):
        path = tmp_path / "contour.csv"
        path.write_text("re_x,im_x\n0.0,0.0\n1.0,0.0\n1.0,1.0\n")
        assert not an.Contour.from_csv(path).closed


class TestNegativeSlope:
    def test_value(self):
        assert an.negative_density_slope(CANON, 3.0, 1.0) == pytest.approx(
            -math.exp(-2.0), abs=1e-12
        )

    def test_tail_vanishes(self):
        assert abs(an.negative_density_slope(CANON, 60.0, 1.0)) < 1e-20

    def test_always_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            t = rng.uniform(0.0, 3.0)
            x = CANON.v * t + rng.uniform(0.01, 5.0)
            assert an.negative_density_slope(CANON, x, t) < 0.0

    def test_region_enforced(self):
        with pytest.raises(RegionError):
            an.negative_density_slope(CANON, 1.0, 2.0)


class TestDistributionNormalize:
    def test_unit_total(self):
        assert an.distribution_normalize(CANON) == pytest.approx(1.0, abs=1e-8)

    def test_unnormalized_rate_still_one(self):
        state = make_free_state(1.0, 3.0)
        assert an.distribution_normalize(state) == pytest.approx(1.0, abs=1e-8)

    def test_truncated_domain(self):
        state = make_free_state(2.0, 0.5)
        x_max = state.v * 0.0 + 40.0 * state.v / state.R
        assert an.distribution_normalize(state, x_max=x_max) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_reparameterization_invariance(self):
        # x -> v*t + lam*(x - v*t) rescales the domain but not the total.
        state, t, lam = CANON, 0.5, 2.7
        start = state.v * t

        def reparam_slope(x):
            u = start + lam * (x - start)
            return -lam * (state.R / state.v) * math.exp(state.R * (t - u / state.v))

        total, _ = quad(reparam_slope, start, start + 60.0 / lam)
        assert -total == pytest.approx(an.distribution_normalize(state, t=t), abs=1e-8)

    def test_plane_wave_rejected(self):
        with pytest.raises(ValueError):
            an.distribution_normalize(make_free_state(1.0, 0.0))


class TestClassicalPoint:
    def test_quantum_potential_vanishes_at_mp(self):
        # The wave left at the measurement point has envelope rate R = 0.
        assert an.quantum_potential(make_free_state(1.0, 0.0), 2.0, 2.0) == 0.0

    def test_off_mp_gap(self):
        assert an.quantum_potential(CANON, 3.0, 1.0) == pytest.approx(0.125, abs=1e-12)

    def test_gap_formula(self):
        state = make_free_state(2.0, 3.0)
        expected = 1.0 * 9.0 / (8.0 * 1.0 * 4.0)
        assert an.quantum_potential(state, 5.0, 1.0) == pytest.approx(expected, abs=1e-12)
