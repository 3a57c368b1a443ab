import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from pdwave.core import Branch, MeasurementEvent, RegionError, envelope_lag, make_free_state
from pdwave.evolution import SuperposedState, purity
from pdwave.freewave import prob_density_free
from pdwave.spectral import apply_observable, hermitize_at_mp
from pdwave import measurement as ms
from pdwave import potential as pot


def born_state(weights=(0.5, 0.3, 0.2)):
    waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(len(weights)))
    return SuperposedState(np.sqrt(weights).astype(complex), waves)


class TestDetect:
    def test_free_hit(self):
        event = ms.detect_mp(make_free_state(1.0, 1.0), 2.0, 2.0)
        assert event is not None
        assert (event.x, event.t, event.tau) == (2.0, 2.0, 2.0)

    def test_free_miss(self):
        assert ms.detect_mp(make_free_state(1.0, 1.0), 2.0, 1.0) is None

    @pytest.mark.parametrize("target, name", [
        (pot.PotentialSpec(x_samples=np.linspace(0.0, 2.0, 201),
                           kx=1.0 + np.linspace(0.0, 2.0, 201), R=1.0, omega=0.375),
         "PotentialSpec"),
        ((make_free_state(1.0, 1.0),), "tuple"),
        (None, "NoneType"),
    ])
    def test_other_targets_are_named(self, target, name):
        with pytest.raises(TypeError, match=f"on {name}$"):
            ms.detect_mp(target, 1.0, math.log(2.0))

    def test_superposed_component(self):
        state = born_state()
        event = ms.detect_mp(state, 4.0, 2.0)  # second component, v = 2
        assert event is not None and event.tau == 2.0
        assert ms.detect_mp(state, 3.5, 2.0) is None

    def test_event_invariant(self):
        with pytest.raises(ValueError, match="off the arrival line"):
            ms.MeasurementEvent(x=2.0, t=1.0, tau=2.0)

    def test_event_needs_its_arrival_time(self):
        with pytest.raises(TypeError, match="tau"):
            ms.MeasurementEvent(x=2.0, t=2.0)

    def test_detection_matches_event_condition_far_out(self):
        # The event accepts |t - x/v| <= tol * max(1, |t|, |x/v|); detection agrees.
        x, t = 1e6, 1e6 + 5e-4
        ms.MeasurementEvent(x=x, t=t, tau=x)
        assert ms.detect_mp(make_free_state(1.0, 1.0), x, t) is not None
        assert ms.detect_mp(born_state(), x, t) is not None
        assert ms.detect_mp(make_free_state(1.0, 1.0), x, x + 5e-3) is None

    def test_event_is_re_exported(self):
        assert ms.MeasurementEvent is MeasurementEvent


class TestOneArrivalRule:
    # A probe of a free wave just past its arrival time x/v, inside the slack
    # 1e-9*max(1, |t|, |x/v|) but 500 times the old |x - v*t| <= 1e-9 bound.
    V, X = 1e3, 1.0
    T = X / V + 5e-10

    def test_fast_probe_is_detected_and_hermitized(self):
        state = make_free_state(self.V, self.V)
        event = ms.detect_mp(state, self.X, self.T)
        assert event is not None and event.tau == self.X / self.V
        out = hermitize_at_mp(apply_observable("H", state), event)
        assert out.value == complex(state.omega, 0.0)

    @given(v=st.floats(1e-3, 1e3), x=st.floats(-1e3, 1e3), offset=st.floats(-3.0, 3.0))
    @example(v=1e3, x=1.0, offset=0.5)
    @example(v=1e3, x=1.0, offset=1.5)
    @example(v=1e-3, x=1e3, offset=-0.9)
    def test_detection_lag_observable_and_event_agree(self, v, x, offset):
        # t sits `offset` slack widths from the arrival time x/v.
        tau = x / v
        t = tau + offset * 1e-9 * max(1.0, abs(tau))
        state = make_free_state(v, v)

        def accepted(branch):
            try:
                envelope_lag(branch, t, tau)
            except RegionError:
                return False
            return True

        try:
            MeasurementEvent(x, t, tau)
            constructs = True
        except ValueError:
            constructs = False
        detected = ms.detect_mp(state, x, t) is not None
        lags = accepted(Branch.INCOMING) and accepted(Branch.OUTGOING)
        assert detected == lags == constructs


class TestSampling:
    def test_certain_outcome(self):
        state = born_state(weights=(1.0, 0.0, 0.0))
        rng = np.random.default_rng(0)
        assert all(ms.sample_outcome(state, rng) == 0 for _ in range(20))

    def test_seed_determinism(self):
        state = born_state()
        a = [ms.sample_outcome(state, np.random.default_rng(9)) for _ in range(1)]
        b = [ms.sample_outcome(state, np.random.default_rng(9)) for _ in range(1)]
        seq_a = np.random.default_rng(9)
        seq_b = np.random.default_rng(9)
        assert [ms.sample_outcome(state, seq_a) for _ in range(50)] == [
            ms.sample_outcome(state, seq_b) for _ in range(50)
        ]
        assert a == b

    def test_frequency_within_three_sigma(self):
        state = born_state()
        rep = ms.run_ensemble(state, 100000, seed=1)
        bound = 3.0 * math.sqrt(0.5 * 0.5 / 100000)
        assert bound == pytest.approx(0.00474, abs=5e-6)
        assert abs(rep.frequencies[0] - 0.5) < bound


class TestEnsemble:
    def test_counts_sum(self):
        rep = ms.run_ensemble(born_state(), 12345, seed=3, workers=3)
        assert int(rep.counts.sum()) == 12345

    def test_bit_reproducible(self):
        a = ms.run_ensemble(born_state(), 50000, seed=11, workers=4)
        b = ms.run_ensemble(born_state(), 50000, seed=11, workers=4)
        assert np.array_equal(a.counts, b.counts)
        ta, tb = a.table(), b.table()
        assert list(ta) == list(tb)
        assert all(np.array_equal(ta[key], tb[key]) for key in ta)

    def test_born_convergence_sample(self):
        # Ten-seed sanity slice of the hundred-seed acceptance criterion.
        state = born_state()
        weights = np.array([0.5, 0.3, 0.2])
        sigma = np.sqrt(weights * (1 - weights) / 1e5)
        passed = 0
        for seed in range(10):
            rep = ms.run_ensemble(state, 100000, seed=seed)
            ok = np.all(np.abs(rep.frequencies - weights) < 3 * sigma)
            p_value = stats.chi2.sf(rep.chi_square, df=2)
            passed += bool(ok and p_value > 0.001)
        assert passed >= 9

    def test_each_stream_is_one_multinomial_draw(self):
        state = born_state()
        # One trial over two workers leaves the second stream a draw of 0 trials.
        for n_trials, trials in ((10000, (3334, 3333, 3333)), (1, (1, 0))):
            children = np.random.SeedSequence(8).spawn(len(trials))
            expected = sum(np.random.default_rng(child).multinomial(m, state.probabilities())
                           for child, m in zip(children, trials))
            rep = ms.run_ensemble(state, n_trials, seed=8, workers=len(trials))
            assert np.array_equal(rep.counts, expected)

    def test_memory_does_not_grow_with_n_trials(self):
        state = born_state()
        tracemalloc.start()
        try:
            rep = ms.run_ensemble(state, 10_000_000, seed=2, workers=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(rep.counts.sum()) == 10_000_000
        assert peak < 1_000_000

    def test_chi_square_p_values_are_uniform(self):
        # Under the Born rule the p-value of an ensemble's chi-square is U(0, 1).
        p_values = [stats.chi2.sf(ms.run_ensemble(born_state(), 1000, seed=seed).chi_square,
                                  df=2) for seed in range(200)]
        assert stats.kstest(p_values, "uniform").pvalue > 0.001

    def test_p_value_matches_chi2_sf(self):
        x = np.concatenate([np.linspace(0.0, 60.0, 601),
                            np.random.default_rng(7).uniform(0.0, 60.0, 2000)])
        # Ensembles of 2 to 9 outcomes, then large df over their own bulk and tail.
        cases = [(df, x, 1e-13) for df in range(1, 9)]
        cases += [(df, np.concatenate([x, np.linspace(0.0, 2.0 * df, 3001)]), 1e-11)
                  for df in (99, 2999)]
        for df, xs, rtol in cases:
            counts = np.ones(df + 1)
            ours = np.array([ms.EnsembleReport(df + 1, counts, counts / (df + 1),
                                               counts / (df + 1), float(v)).p_value()
                             for v in xs])
            reference = stats.chi2.sf(xs, df)
            assert np.all(np.abs(ours - reference) <= rtol * reference), df
        assert ms.EnsembleReport(2, np.ones(2), np.full(2, 0.5), np.full(2, 0.5),
                                 0.0).p_value() == 1.0

    def test_one_outcome_has_no_z_score(self):
        rep = ms.run_ensemble(born_state(weights=(1.0,)), 1000, seed=5)
        with pytest.raises(ValueError, match="weights give an outcome a Born probability"):
            rep.z_scores()

    def test_zero_born_probability_is_refused(self):
        with pytest.raises(ValueError, match="weights give an outcome a Born probability of 0"):
            ms.run_ensemble(born_state(weights=(1.0, 0.0)), 1000, seed=5)

    def test_csv_columns(self):
        table = ms.run_ensemble(born_state(), 1000, seed=5).table()
        assert list(table) == ["outcome", "count", "frequency", "expected", "z_score"]
        assert [len(column) for column in table.values()] == [3] * 5


class TestDiracProjection:
    def test_collapse(self):
        state = born_state()
        event = ms.detect_mp(state.waves[0], 2.0, 2.0)
        post = ms.dirac_project(state, 0, event)
        assert post.amplitudes == pytest.approx([1.0, 0.0, 0.0])

    def test_post_state_plane_wave_density(self):
        state = born_state()
        event = ms.detect_mp(state.waves[0], 2.0, 2.0)
        post = ms.dirac_project(state, 0, event)
        assert post.waves[0].branch is Branch.OUTGOING
        assert prob_density_free(post.waves[0], event.x, event.t) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_idempotent(self):
        state = born_state()
        event = ms.detect_mp(state.waves[0], 2.0, 2.0)
        once = ms.dirac_project(state, 0, event)
        twice = ms.dirac_project(once, 0, event)
        assert np.array_equal(once.amplitudes, twice.amplitudes)
        assert once.waves == twice.waves

    def test_event_outcome_mismatch(self):
        state = born_state()
        event = ms.detect_mp(state.waves[0], 2.0, 2.0)  # v = 1 arrival
        with pytest.raises(ValueError):
            ms.dirac_project(state, 1, event)  # v = 2 component not at MP

    def test_composite_collapses_its_pointer(self):
        comp = TestComposite().composite()
        post = ms.dirac_project(comp, 0, ms.detect_mp(comp.waves[0], 1.0, 1.0))
        assert post.collapsed
        assert post.pointer_components[0].branch is Branch.OUTGOING
        assert post.pointer_components[1] == comp.pointer_components[1]
        assert ms.von_neumann_project is ms.dirac_project


class TestComposite:
    def composite(self, weights=(0.5, 0.5)):
        systems = tuple(make_free_state(v, v) for v in (1.0, 2.0))
        pointers = tuple(make_free_state(v, v) for v in (3.0, 4.0))
        return ms.tensor_compose(systems, pointers, np.sqrt(weights).astype(complex))

    def test_pure_product_limit(self):
        comp = self.composite(weights=(1.0, 0.0))
        assert comp.amplitudes[0] == 1.0 + 0j

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            ms.tensor_compose(
                (make_free_state(1.0, 1.0),),
                (make_free_state(2.0, 2.0), make_free_state(3.0, 3.0)),
                np.array([1.0 + 0j]),
            )

    def test_duplicate_pointers_rejected(self):
        p = make_free_state(3.0, 3.0)
        with pytest.raises(ValueError):
            ms.tensor_compose(
                (make_free_state(1.0, 1.0), make_free_state(2.0, 2.0)),
                (p, p),
                np.sqrt([0.5, 0.5]).astype(complex),
            )


class TestVonNeumann:
    def test_collapse_to_product(self):
        comp = TestComposite().composite()
        event = ms.detect_mp(comp.system_components[0], 1.0, 1.0)
        post = ms.von_neumann_project(comp, 0, event)
        assert post.amplitudes == pytest.approx([1.0, 0.0])
        assert post.collapsed
        assert post.system_components[0].branch is Branch.OUTGOING
        assert post.pointer_components[0].branch is Branch.OUTGOING

    def test_post_factors_unit_density_at_mp(self):
        comp = TestComposite().composite()
        event = ms.detect_mp(comp.system_components[0], 1.0, 1.0)
        post = ms.von_neumann_project(comp, 0, event)
        sys_w = post.system_components[0]
        assert prob_density_free(sys_w, sys_w.v * 1.0, 1.0) == pytest.approx(1.0)

    def test_idempotent(self):
        comp = TestComposite().composite()
        event = ms.detect_mp(comp.system_components[0], 1.0, 1.0)
        once = ms.von_neumann_project(comp, 0, event)
        assert ms.von_neumann_project(once, 0, event) is once

    def test_composite_is_a_superposition(self):
        comp = TestComposite().composite(weights=(0.64, 0.36))
        assert isinstance(comp, SuperposedState)
        assert comp.system_components is comp.waves
        flat = SuperposedState(comp.amplitudes, comp.waves)
        assert np.array_equal(ms.run_ensemble(comp, 10_000, seed=3).counts,
                              ms.run_ensemble(flat, 10_000, seed=3).counts)

    def test_outcome_frequencies(self):
        weights = np.array([0.64, 0.36])
        systems = tuple(make_free_state(v, v) for v in (1.0, 2.0))
        flat = SuperposedState(np.sqrt(weights).astype(complex), systems)
        rep = ms.run_ensemble(flat, 100000, seed=17)
        sigma = np.sqrt(weights * (1 - weights) / 1e5)
        assert np.all(np.abs(rep.frequencies - weights) < 3 * sigma)


@pytest.mark.parametrize("project", ["dirac", "von_neumann"])
def test_pure_unmeasured_state_is_projected(project):
    # Unit amplitude alone is no no-op: the INCOMING wave must still become
    # the outgoing post-measurement wave.
    waves = (make_free_state(1.0, 1.0), make_free_state(2.0, 2.0))
    pointers = (make_free_state(3.0, 3.0), make_free_state(4.0, 4.0))
    state = (SuperposedState(np.array([1.0, 0.0]), waves) if project == "dirac"
             else ms.tensor_compose(waves, pointers, [1.0, 0.0]))
    fn = ms.dirac_project if project == "dirac" else ms.von_neumann_project
    event = ms.detect_mp(waves[0], 1.0, 1.0)
    post = fn(state, 0, event)
    assert post.waves[0].branch is Branch.OUTGOING
    assert fn(post, 0, event) is post


class TestMixtureDensity:
    def test_preferred_basis_equality(self):
        direct = ms.mixture_density(
            [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)],
            [0.5, 0.5],
        )
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
        rotated = ms.mixture_density([plus, minus], [0.5, 0.5])
        assert np.max(np.abs(direct.entries - rotated.entries)) < 1e-12

    def test_single_state_projector(self):
        rho = ms.mixture_density([np.array([1, 0], dtype=complex)], [1.0])
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_mixture(self):
        rho = ms.mixture_density(
            [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)],
            [0.7, 0.3],
        )
        assert np.diag(rho.entries).real == pytest.approx([0.7, 0.3])
        assert purity(rho) == pytest.approx(0.58, abs=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ms.mixture_density([np.array([1, 0], dtype=complex)], [0.9])


class TestCompareAverages:
    def test_single_component(self):
        comp = ms.tensor_compose(
            (make_free_state(1.0, 1.0),),
            (make_free_state(2.0, 2.0),),
            np.array([1.0 + 0j]),
        )
        avgs = ms.compare_averages(comp, [0.375 + 0.5j])
        assert avgs.entangled_avg == 0.375 + 0.5j
        assert avgs.reduced_avg == 0.375

    def test_equal_weights(self):
        comp = TestComposite().composite()
        avgs = ms.compare_averages(comp, [0.375 + 0.5j, 0.875 + 0.5j])
        assert avgs.entangled_avg == pytest.approx(0.625 + 0.5j)
        assert avgs.reduced_avg == pytest.approx(0.625)

    def test_mp_regime_is_real(self):
        comp = TestComposite().composite()
        avgs = ms.compare_averages(comp, [0.5 + 0j, 2.0 + 0j])
        assert avgs.entangled_avg.imag == 0.0
        assert avgs.entangled_avg.real == avgs.reduced_avg

    def test_real_part_always_matches_reduced(self):
        rng = np.random.default_rng(13)
        comp = TestComposite().composite()
        for _ in range(25):
            eigs = rng.normal(size=2) + 1j * rng.uniform(0, 1, 2)
            avgs = ms.compare_averages(comp, eigs)
            assert avgs.entangled_avg.real == avgs.reduced_avg
