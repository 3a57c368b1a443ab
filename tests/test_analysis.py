import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pdwave.core import Branch, ConvergenceError, FreeWaveParams, make_free_state
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

    def test_large_mean_does_not_cancel(self):
        # mean(a*b) - mean(a)*mean(b) gave var_real 2.0 here, against np.var's 1.0003.
        rng = np.random.default_rng(11)
        re, im = 1e8 + rng.normal(0, 1.0, 100000), 1e8 + rng.normal(0, 2.0, 100000)
        rep = an.uncertainty_decompose(an.ComplexSampleSet(values=re + 1j * im))
        assert rep.var_real == pytest.approx(np.var(re), rel=1e-9)
        assert rep.var_imag == pytest.approx(np.var(im), rel=1e-9)
        covariance = np.mean((re - re.mean()) * (im - im.mean()))
        assert rep.covariance == pytest.approx(covariance, rel=1e-9)

    @pytest.mark.parametrize("n", [2, an._BLOCK - 1, an._BLOCK, an._BLOCK + 1, 3 * an._BLOCK + 7])
    def test_block_edges_match_one_shot_moments(self, n):
        # Correlated parts keep the covariance O(1), so 1e-14 relative is a rounding bound.
        rng = np.random.default_rng(n)
        x = 3.0 + rng.normal(0, 2.0, n)
        z = x + 1j * (0.5 * x + rng.normal(0, 1.0, n) - 1.0)
        rep = an.uncertainty_decompose(an.ComplexSampleSet(values=z))
        d = z - z.mean()
        one_shot = np.mean(d.real * d.real), np.mean(d.imag * d.imag), np.mean(d.real * d.imag)
        assert (rep.var_real, rep.var_imag, rep.covariance) == pytest.approx(one_shot, rel=1e-14)

    def test_peak_memory_is_one_block(self):
        # Three full-size product temporaries at 1e6 samples peaked at 8.0 MB.
        rng = np.random.default_rng(3)
        samples = an.ComplexSampleSet(values=rng.normal(size=1_000_000) + 1j)
        tracemalloc.start()
        try:
            an.uncertainty_decompose(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_finiteness_check_makes_no_full_size_temporary(self):
        # np.all(np.isfinite(z)) peaked at 1.0 MB, a boolean per sample.
        z = np.random.default_rng(4).normal(size=1_000_000) + 1j
        tracemalloc.start()
        try:
            an.ComplexSampleSet(values=z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_sample_rejected(self, bad, part):
        z = np.ones(5, dtype=complex)
        getattr(z, part)[2] = bad
        with np.errstate(all="raise"), pytest.raises(ValueError, match="samples must be finite"):
            an.ComplexSampleSet(values=z)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            an.ComplexSampleSet(values=np.array([1.0 + 0j]))


class TestHeisenberg:
    def test_boundary_inclusive(self):
        assert an.heisenberg_check(1.0, 0.5)

    def test_below_floor(self):
        assert not an.heisenberg_check(0.1, 0.1)

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
        assert abs(an.contour_integral(CANON, c)) < 1e-9

    def test_from_csv_open_polyline(self, tmp_path):
        path = tmp_path / "contour.csv"
        path.write_text("re_x,im_x\n0.0,0.0\n1.0,0.0\n1.0,1.0\n")
        assert an.Contour.from_csv(path).vertices.tolist() == [0.0, 1.0, 1.0 + 1.0j]


class TestClassicalPoint:
    def test_quantum_potential_vanishes_at_mp(self):
        # The wave left at the measurement point has envelope rate R = 0.
        assert an.quantum_potential(make_free_state(1.0, 0.0)) == 0.0

    def test_off_mp_gap(self):
        assert an.quantum_potential(CANON) == pytest.approx(0.125, abs=1e-12)

    def test_gap_formula(self):
        state = make_free_state(2.0, 3.0)
        expected = 1.0 * 9.0 / (8.0 * 1.0 * 4.0)
        assert an.quantum_potential(state) == pytest.approx(expected, abs=1e-12)

    @given(R=st.floats(min_value=0.0, allow_infinity=False),
           v=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           branch=st.sampled_from(Branch))
    @example(R=5e-162, v=1.0, branch=Branch.OUTGOING)  # detour 0.0, closed form 5e-324
    def test_closed_form_equals_the_curvature_detour(self, R, v, branch):
        state = FreeWaveParams(k=1.0, omega=0.0, R=R, v=v, branch=branch)
        # The former evaluation, kept as the reference; hbar^2/4m = 0.25.
        log_slope = -branch.sign * R / v
        curvature = log_slope * log_slope
        detour = 0.25 * (curvature - 0.5 * log_slope * log_slope)
        value = an.quantum_potential(state)
        if curvature == 0.0 or 2.0 * sys.float_info.min <= curvature < math.inf:
            # Halving is exact and a - a/2 is exact (Sterbenz): the same bits.
            assert value == detour
        elif curvature == math.inf:
            # inf - inf made the detour nan; the closed form overflows to inf.
            assert math.isnan(detour) and value == math.inf
        else:
            # A subnormal curvature/2 rounds in the detour: one ulp apart at most.
            assert abs(value - detour) <= math.ulp(0.0)
