import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdwave.core import (
    Branch,
    EigenRecord,
    FreeWaveParams,
    RegionError,
    _both,
    central_difference,
    dispersion_omega,
    envelope_lag,
    make_free_state,
    stencil_steps,
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


def test_deterministic_construction():
    assert make_free_state(1.5, 0.7) == make_free_state(1.5, 0.7)


@given(
    v=st.floats(min_value=0.1, max_value=10.0),
    R=st.floats(min_value=0.0, max_value=10.0),
)
def test_dispersion_identity_holds(v, R):
    s = make_free_state(v, R)
    gap = s.omega + s.R**2 / (8.0 * s.v**2) - s.k**2 / 2.0
    assert abs(gap) <= 1e-12 * max(1.0, abs(s.omega))
    assert s.omega == dispersion_omega(s.k, s.R, s.v)


@pytest.mark.parametrize("v", [0.0, -1.0, math.nan, math.inf])
def test_rejects_bad_speed(v):
    message = "v must be positive" if math.isfinite(v) else "must be finite"
    with pytest.raises(ValueError, match=message):
        make_free_state(v, 1.0)


@pytest.mark.parametrize("R", [-0.5, math.nan, math.inf])
def test_rejects_negative_or_nonfinite_rate(R):
    message = "R must be nonnegative" if math.isfinite(R) else "must be finite"
    with pytest.raises(ValueError, match=message):
        make_free_state(1.0, R)


@pytest.mark.parametrize("v", [0.0, -1.0])
def test_free_wave_needs_a_positive_speed(v):
    # Every free wave arrives somewhere: v = 0 has no arrival line x = v*t.
    with pytest.raises(ValueError, match="speed v must be positive"):
        FreeWaveParams(k=0.0, omega=0.0, R=0.0, v=v, branch=Branch.INCOMING)


@given(k=st.floats(-1e100, 1e100), R=st.floats(0.0, 1e50), v=st.floats(1e-50, 1e50))
def test_dispersion_is_the_hbar_m_form_bit_for_bit(k, R, v):
    # At hbar = m = 1 each dropped factor multiplies or divides by 1.0, which is exact.
    hbar, m = 1.0, 1.0
    assert dispersion_omega(k, R, v) == hbar * k * k / (2.0 * m) - hbar * (R / v) * (R / v) / (8.0 * m)


def test_dispersion_omega_rejects_nonfinite():
    with pytest.raises(ValueError):
        dispersion_omega(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        dispersion_omega(1.0, 1.0, 0.0)


def test_eigen_record_validation():
    EigenRecord(value=1 + 2j)
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            EigenRecord(value=bad)


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
    assert stencil_steps(1.0, 1.0, 0.5, 1.0) == (1e-2, 1e-2)  # each rate at least 1
    assert stencil_steps(1.0, 2.0, 10.0, 4.0) == (1e-2 / 10.0, 1e-2 / 4.0)
    assert stencil_steps(0.02, 1.0, 0.0, 0.0) == (0.005, 0.005)
    assert stencil_steps(0.02, 0.5, 0.0, 0.0) == (0.0025, 0.005)  # room v*room_t in x
    # No room, a probe past the line, or a step whose half squares below the
    # smallest normal float leaves no stencil that fits, in t or in x alone.
    edge = 8.0 * math.sqrt(sys.float_info.min)  # room / 4 = h, (h / 2)^2 = min
    for room_t, v in [(0.0, 1.0), (-1e-12, 1.0), (1e-300, 1.0), (0.99 * edge, 1.0),
                      (1.0, 0.99 * edge)]:
        with pytest.raises(RegionError, match="no finite-difference step fits"):
            stencil_steps(room_t, v, 0.0, 0.0)
    assert stencil_steps(1.01 * edge, 1.0, 0.0, 0.0) == (0.25 * 1.01 * edge,) * 2


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


def test_both_returns_first_then_second():
    assert _both(lambda: "first", lambda: "second") == ("first", "second")


class _Stop(BaseException):
    pass


def _raise(exc):
    raise exc


def _late(value):
    """A ``first`` that returns ``value`` 50 ms late, after ``second`` has raised."""
    time.sleep(0.05)
    return value


@pytest.mark.parametrize("first, second, raised", [
    (lambda: _late(1), lambda: _raise(KeyError("second")), KeyError),
    (lambda: _raise(_Stop()), lambda: 2, _Stop),
    (lambda: _raise(_Stop()), lambda: _raise(KeyError("second")), _Stop),
], ids=["second-alone", "first-base-exception", "first-ahead-of-second"])
def test_both_raises_as_the_sequential_expression_and_leaves_no_thread(first, second, raised):
    threads = threading.active_count()
    with pytest.raises(raised):
        _both(first, second)
    assert threading.active_count() == threads
