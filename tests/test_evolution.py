import math

import numpy as np
import pytest

from pdwave.core import make_free_state
from pdwave.spectral import apply_observable
from pdwave import evolution as ev


def three_state(weights=(0.5, 0.3, 0.2), speeds=(1.0, 2.0, 3.0)):
    waves = tuple(make_free_state(v, v) for v in speeds)
    return ev.SuperposedState(np.sqrt(weights).astype(complex), waves)


def single_state(v=1.0, R=1.0):
    return ev.SuperposedState(np.array([1.0 + 0j]), (make_free_state(v, R),))


class TestSuperposedState:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            ev.SuperposedState(
                np.array([0.5 + 0j, 0.5 + 0j]),
                (make_free_state(1.0, 1.0), make_free_state(2.0, 2.0)),
            )

    def test_component_count_must_match(self):
        with pytest.raises(ValueError):
            ev.SuperposedState(np.array([1.0 + 0j]), ())

    def test_probabilities(self):
        state = three_state()
        assert state.probabilities() == pytest.approx([0.5, 0.3, 0.2])


class TestEvolveState:
    def test_single_component_growth(self):
        out = ev.evolve_state(single_state(R=1.0), 2.0)
        assert out.norm_sq == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_zero_time_is_identity(self):
        state = three_state()
        out = ev.evolve_state(state, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_mp_regime_is_unitary(self):
        state = ev.SuperposedState(
            np.array([1.0 + 0j]), (make_free_state(1.0, 0.0),)
        )
        out = ev.evolve_state(state, 3.7)
        assert out.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_norm_growth_law_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            R = rng.uniform(0.0, 3.0)
            t = rng.uniform(0.0, 2.0)
            state = ev.SuperposedState(
                np.array([1.0 + 0j]), (make_free_state(1.0, R),)
            )
            ratio = ev.evolve_state(state, t).norm_sq
            assert abs(ratio - math.exp(R * t)) <= 1e-10 * math.exp(R * t)


class TestDensityMatrix:
    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            ev.DensityMatrix(np.array([[1.0, 1.0j], [1.0j, 1.0]]))

    def test_psd_enforced(self):
        with pytest.raises(ValueError):
            ev.DensityMatrix(np.array([[1.0, 0.0], [0.0, -0.5]], dtype=complex))

    def test_json_round_trip(self):
        rho = ev.reduce_to_mixture(three_state())
        clone = ev.DensityMatrix.from_json(rho.to_json())
        assert np.array_equal(clone.entries, rho.entries)

    def test_json_layout(self):
        import json

        rho = ev.DensityMatrix(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
        obj = json.loads(rho.to_json())
        assert obj["n"] == 2
        assert obj["entries"][1] == [0.0, 0.5]  # row-major (0,1) entry


class TestEvolveDensity:
    def eigs(self, state):
        return [apply_observable("H", w).value for w in state.waves]

    def test_trace_growth_for_equal_rates(self):
        waves = tuple(make_free_state(v, 1.0) for v in (1.0, 2.0))
        state = ev.SuperposedState(np.sqrt([0.5, 0.5]).astype(complex), waves)
        rho = ev.reduce_to_mixture(state)
        out = ev.evolve_density(rho, self.eigs(state), 2.0)
        assert out.trace() == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_zero_time_identity(self):
        state = three_state()
        rho = ev.reduce_to_mixture(state)
        out = ev.evolve_density(rho, self.eigs(state), 0.0)
        assert np.array_equal(out.entries, rho.entries)

    def test_pure_state_stays_rank_one(self):
        state = three_state()
        amps = state.amplitudes
        rho = ev.DensityMatrix(np.outer(amps, amps.conj()))
        out = ev.evolve_density(rho, self.eigs(state), 1.5)
        eigenvalues = np.sort(np.linalg.eigvalsh(out.entries))[::-1]
        assert eigenvalues[1] < 1e-10 * eigenvalues[0]

    def test_semigroup(self):
        state = three_state()
        rho = ev.reduce_to_mixture(state)
        eigs = self.eigs(state)
        one_step = ev.evolve_density(rho, eigs, 1.0)
        two_step = ev.evolve_density(ev.evolve_density(rho, eigs, 0.35), eigs, 0.65)
        assert np.max(np.abs(one_step.entries - two_step.entries)) < 1e-10

    def test_is_the_hbar_form_bit_for_bit(self):
        # exp(-i*H*t/hbar): at hbar = 1 the division is exact.
        state = three_state()
        rho, eigs = ev.reduce_to_mixture(state), np.asarray(self.eigs(state))
        m = np.exp(-1j * eigs * 0.7 / 1.0)
        expected = np.outer(m, m.conj()) * rho.entries
        assert np.array_equal(ev.evolve_density(rho, eigs, 0.7).entries, expected)


class TestReduction:
    def test_equal_weights(self):
        state = three_state(weights=(1 / 3, 1 / 3, 1 / 3))
        rho = ev.reduce_to_mixture(state)
        assert np.allclose(np.diag(rho.entries).real, 1 / 3, atol=1e-12)

    def test_single_amplitude_stays_pure(self):
        state = three_state(weights=(1.0, 0.0, 0.0), speeds=(1.0, 2.0, 3.0))
        rho = ev.reduce_to_mixture(state)
        assert ev.purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_weights_on_diagonal(self):
        rho = ev.reduce_to_mixture(three_state())
        assert np.diag(rho.entries).real == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)

    def test_off_diagonals_exactly_zero(self):
        rho = ev.reduce_to_mixture(three_state())
        off = rho.entries - np.diag(np.diag(rho.entries))
        assert np.all(off == 0.0)

    def test_trace_preserved(self):
        assert ev.reduce_to_mixture(three_state()).trace() == pytest.approx(
            1.0, abs=1e-12
        )


class TestPurity:
    def test_values(self):
        assert ev.purity(ev.reduce_to_mixture(three_state())) == pytest.approx(
            0.38, abs=1e-12
        )
        uniform = three_state(weights=(1 / 3, 1 / 3, 1 / 3))
        assert ev.purity(ev.reduce_to_mixture(uniform)) == pytest.approx(
            1 / 3, abs=1e-12
        )

    def test_requires_unit_trace(self):
        rho = ev.DensityMatrix(np.diag([0.5, 0.1]).astype(complex))
        with pytest.raises(ValueError):
            ev.purity(rho)

    def test_purity_equals_sum_fourth_powers(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            w = rng.dirichlet(np.ones(4))
            waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(4))
            state = ev.SuperposedState(np.sqrt(w).astype(complex), waves)
            p = ev.purity(ev.reduce_to_mixture(state))
            assert p == pytest.approx(float(np.sum(w**2)), abs=1e-12)
            if np.sum(w > 1e-9) >= 2:
                assert p < 1.0


class TestEntropy:
    def test_closed_form(self):
        traj = ev.entropy_trajectory(single_state(), [0.0, 1.0, 2.0])
        assert traj.S[0] == 0.0
        assert traj.S[2] == pytest.approx(-2.0, abs=1e-12)

    def test_post_measurement_zero(self):
        traj = ev.entropy_trajectory(
            single_state(), [0.0, 2.0], measurement_times=[2.0]
        )
        assert traj.post_measurement_S == pytest.approx([0.0])

    def test_constant_slope(self):
        traj = ev.entropy_trajectory(single_state(v=1.5, R=1.5), np.linspace(0, 3, 31))
        slopes = np.diff(traj.S) / np.diff(traj.times)
        assert np.max(np.abs(slopes + 1.5)) < 1e-10

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            ev.entropy_trajectory(single_state(v=1.0, R=2.0), [0.0, 1.0])
