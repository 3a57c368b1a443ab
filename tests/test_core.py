import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdwave.core import (
    Branch,
    EigenRecord,
    FreeWaveParams,
    PhysicalConstants,
    RegionError,
    central_difference,
    dispersion_omega,
    envelope_lag,
    make_free_state,
    stencil_step,
)


def test_canonical_state():
    s = make_free_state(1.0, 1.0)
    assert s.k == 1.0
    assert s.omega == pytest.approx(0.375, abs=1e-15)
    assert s.branch is Branch.INCOMING


def test_plane_wave_limit():
    s = make_free_state(1.0, 0.0)
    assert s.k == 1.0
    assert s.omega == pytest.approx(0.5, abs=1e-15)


def test_fast_state():
    s = make_free_state(2.0, 2.0)
    assert s.k == 2.0
    assert s.omega == pytest.approx(1.875, abs=1e-15)


def test_explicit_constants():
    c = PhysicalConstants(hbar=2.0, mass=3.0)
    s = make_free_state(4.0, 1.0, constants=c)
    assert s.k == pytest.approx(3.0 * 4.0 / 2.0)
    assert s.omega == dispersion_omega(s.k, s.R, s.v, c)


def test_deterministic_construction():
    assert make_free_state(1.5, 0.7) == make_free_state(1.5, 0.7)


@given(
    v=st.floats(min_value=0.1, max_value=10.0),
    R=st.floats(min_value=0.0, max_value=10.0),
)
def test_dispersion_identity_holds(v, R):
    s = make_free_state(v, R)
    hbar, m = s.constants.hbar, s.constants.mass
    gap = (
        hbar * s.omega
        + hbar**2 * s.R**2 / (8.0 * m * s.v**2)
        - hbar**2 * s.k**2 / (2.0 * m)
    )
    assert abs(gap) <= 1e-12 * max(1.0, abs(hbar * s.omega))
    assert s.omega == dispersion_omega(s.k, s.R, s.v)


@pytest.mark.parametrize("v", [0.0, -1.0, math.nan, math.inf])
def test_rejects_bad_speed(v):
    with pytest.raises(ValueError):
        make_free_state(v, 1.0)


def test_rejects_negative_or_nonfinite_rate():
    with pytest.raises(ValueError):
        make_free_state(1.0, -0.5)
    with pytest.raises(ValueError):
        make_free_state(1.0, math.nan)


def test_constants_must_be_positive():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(kB=math.inf)


def test_dispersion_omega_rejects_nonfinite():
    with pytest.raises(ValueError):
        dispersion_omega(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        dispersion_omega(1.0, 1.0, 0.0)


def test_eigen_record_validation():
    EigenRecord(value=1 + 2j)
    EigenRecord(value=1.0 + 0j, at_mp=True)
    with pytest.raises(ValueError):
        EigenRecord(value=1 + 2j, at_mp=True)


def test_off_shell_construction_allowed_for_diagnostics():
    s = FreeWaveParams(k=1.0, omega=0.5, R=1.0, v=1.0, branch=Branch.INCOMING)
    assert s.omega != dispersion_omega(s.k, s.R, s.v)


def test_normalized_flag():
    assert make_free_state(2.0, 2.0).is_normalized
    assert not make_free_state(2.0, 1.0).is_normalized


def test_branch_sign():
    assert (Branch.INCOMING.sign, Branch.OUTGOING.sign) == (1, -1)


def test_envelope_lag_sides():
    # Incoming probes lie before their arrival times, outgoing ones after.
    assert envelope_lag(Branch.INCOMING, 1.0, [1.0, 3.0]).tolist() == [0.0, -2.0]
    assert envelope_lag(Branch.OUTGOING, 3.0, [1.0, 3.0]).tolist() == [-2.0, 0.0]
    with pytest.raises(RegionError):
        envelope_lag(Branch.INCOMING, 1.5, [1.0, 3.0])
    with pytest.raises(RegionError):
        envelope_lag(Branch.OUTGOING, 2.0, [1.0, 3.0])


def test_envelope_lag_slack():
    # Slack 1e-9*max(1, |t|, max|tau|) forgives rounding, and no more.
    assert envelope_lag(Branch.INCOMING, 1.0 + 9e-10, 1.0) > 0.0
    with pytest.raises(RegionError, match="incoming"):
        envelope_lag(Branch.INCOMING, 1.0 + 2e-9, 1.0)
    assert envelope_lag(Branch.INCOMING, 100.0 + 9e-8, 100.0) > 0.0
    with pytest.raises(RegionError, match="outgoing"):
        envelope_lag(Branch.OUTGOING, 2.0 - 3e-9, 2.0)


def test_stencil_step_is_capped_at_a_quarter_of_the_room():
    assert stencil_step(1e-2, 1.0) == 1e-2
    assert stencil_step(1e-2, 0.02) == 0.005
    # No room, a probe past the line, or a step whose half squares below the
    # smallest normal float leaves no stencil that fits.
    edge = 8.0 * math.sqrt(sys.float_info.min)  # room / 4 = h, (h / 2)^2 = min
    for room in (0.0, -1e-12, 1e-300, 0.99 * edge):
        with pytest.raises(RegionError, match="no finite-difference step fits"):
            stencil_step(1e-2, room)
    assert stencil_step(1e-2, 1.01 * edge) == 0.25 * 1.01 * edge


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("direction", [1.0, (1.0 + 1.0j) / math.sqrt(2.0)])
def test_central_difference_is_fourth_order(order, direction):
    # d^n/dz^n exp(iz) = i^n exp(iz).  Halving h cuts the O(h^4) error 16-fold.
    z = np.array([0.3, 0.7])
    exact = 1j**order * np.exp(1j * z)
    errors = [np.max(np.abs(central_difference(lambda u: np.exp(1j * u), z, h * direction, order)
                            - exact)) for h in (0.2, 0.1)]
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.1)
    assert errors[1] < 1e-5
