import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdwave.core import Branch, RegionError, make_free_state
from pdwave import freewave as fw


CANON = make_free_state(1.0, 1.0)

speeds = st.floats(min_value=0.1, max_value=10.0)
rates = st.floats(min_value=0.01, max_value=10.0)


def test_dispersion_omega_examples():
    assert fw.dispersion_omega(1.0, 1.0, 1.0) == pytest.approx(0.375, abs=1e-15)
    assert fw.dispersion_omega(1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert fw.dispersion_omega(2.0, 2.0, 2.0) == pytest.approx(1.875, abs=1e-15)


def test_psi_on_seam_is_plane_wave():
    val = fw.psi_free(CANON, 2.0, 2.0)
    assert val == pytest.approx(cmath.exp(1.25j), abs=1e-15)
    assert abs(val) == pytest.approx(1.0, abs=1e-15)


def test_psi_envelope_decay():
    assert abs(fw.psi_free(CANON, 3.0, 1.0)) == pytest.approx(math.exp(-1.0), abs=1e-12)


@given(v=speeds, R=rates, t=st.floats(min_value=0.0, max_value=5.0))
def test_unit_density_at_seam(v, R, t):
    s = make_free_state(v, R)
    assert abs(fw.psi_free(s, v * t, t)) == pytest.approx(1.0, rel=1e-12)
    assert fw.prob_density_free(s, v * t, t) == pytest.approx(1.0, rel=1e-12)


def test_branch_continuity_at_seam():
    outgoing = dataclasses.replace(CANON, branch=Branch.OUTGOING)
    x, t = 1.7, 1.7
    plane = cmath.exp(1j * (CANON.k * x - CANON.omega * t))
    assert fw.psi_free(CANON, x, t) == pytest.approx(plane, abs=1e-14)
    assert fw.psi_free(outgoing, x, t) == pytest.approx(plane, abs=1e-14)


def test_region_mismatch_raises():
    with pytest.raises(RegionError):
        fw.psi_free(CANON, 0.5, 1.0)  # incoming but x < v*t
    outgoing = dataclasses.replace(CANON, branch=Branch.OUTGOING)
    with pytest.raises(RegionError):
        fw.prob_density_free(outgoing, 3.0, 1.0)


def test_density_examples():
    assert fw.prob_density_free(CANON, 3.0, 1.0) == pytest.approx(math.exp(-2.0), abs=1e-12)
    outgoing = dataclasses.replace(CANON, branch=Branch.OUTGOING)
    assert fw.prob_density_free(outgoing, 0.0, 2.0) == pytest.approx(
        math.exp(-2.0), abs=1e-12
    )


@given(v=speeds, R=rates)
def test_envelope_monotonicity(v, R):
    s = make_free_state(v, R)
    t = 1.0
    xs = np.linspace(v * t, v * t + 3.0, 50)
    dens = fw.prob_density_free(s, xs, t)
    assert np.all(np.diff(dens) < 0)
    out = dataclasses.replace(s, branch=Branch.OUTGOING)
    xs_l = np.linspace(v * t - 3.0, v * t, 50)
    assert np.all(np.diff(fw.prob_density_free(out, xs_l, t)) > 0)


def test_total_probability():
    assert fw.total_probability(make_free_state(2.0, 1.0)) == pytest.approx(2.0)
    assert fw.total_probability(make_free_state(1.0, 1.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="diverges"):
        fw.total_probability(make_free_state(1.0, 0.0))


def test_quadrature_cross_check():
    s = make_free_state(1.7, 0.6)
    closed = fw.total_probability(s)
    quad = fw.total_probability_quadrature(s)
    assert abs(closed - quad) / closed < 1e-8


def test_normalize_state():
    s = fw.normalize_state(make_free_state(1.0, 3.0))
    assert s.R == 1.0
    assert s.omega == pytest.approx(0.375, abs=1e-15)
    canonical = make_free_state(1.0, 1.0)
    assert fw.normalize_state(canonical) == canonical
    s2 = fw.normalize_state(make_free_state(2.0, 0.5))
    assert fw.total_probability(s2) == pytest.approx(1.0)


@given(v=speeds, R=rates)
def test_normalized_total_probability_is_one(v, R):
    s = fw.normalize_state(make_free_state(v, R))
    assert fw.total_probability(s) == pytest.approx(1.0, abs=1e-12)


def test_residual_analytic_canonical():
    grid = fw.Grid1D(2.0, 4.0, 101, 1.0)
    assert fw.schrodinger_residual(CANON, grid) < 1e-12


# Beside the canonical state, the factors of a system-pointer composite: their product
# solves the composite equation because each solves its own.
@pytest.mark.parametrize("state, grid", [(CANON, fw.Grid1D(2.0, 4.0, 101, 1.0))] + [
    (make_free_state(v, v), fw.Grid1D(2.0, 2.5, 9, 0.5)) for v in (1.0, 1.5, 0.5, 0.8)],
    ids=["canonical", "factor_v1.0", "factor_v1.5", "factor_v0.5", "factor_v0.8"])
def test_residual_fd_canonical(state, grid):
    assert fw.schrodinger_residual(state, grid, method="fd") < 1e-6


def test_residual_detects_wrong_dispersion():
    # Near the measurement point |psi| ~ 1, so the residual is the full
    # dispersion gap |hbar*omega_wrong - hbar*omega_true| = 0.125.
    bad = dataclasses.replace(CANON, omega=0.5)
    grid = fw.Grid1D(2.0, 2.2, 41, 2.0)
    res = fw.schrodinger_residual(bad, grid)
    gap = 0.125
    min_psi = math.exp(-0.5 * 0.2)
    assert res >= gap * min_psi > 0.1
    # Pointwise the residual is exactly the gap times |psi|.
    assert res == pytest.approx(gap * 1.0, rel=1e-12)


@given(v=speeds, R=rates)
def test_residual_iff_dispersion(v, R):
    s = make_free_state(v, R)
    grid = fw.Grid1D(1.1 * v, 2.1 * v, 9, 1.0)
    assert fw.schrodinger_residual(s, grid) < 1e-12
    bad = dataclasses.replace(s, omega=s.omega + 0.3)
    assert fw.schrodinger_residual(bad, grid) > 1e-6


def test_residual_grid_must_avoid_seam():
    grid = fw.Grid1D(2.0, 4.0, 21, 2.0)  # left edge on x = v*t
    with pytest.raises(RegionError):
        fw.schrodinger_residual(CANON, grid, method="fd")


def test_grid_validation():
    with pytest.raises(ValueError):
        fw.Grid1D(1.0, 1.0, 10, 0.0)
    with pytest.raises(ValueError):
        fw.Grid1D(0.0, 1.0, 2, 0.0)
