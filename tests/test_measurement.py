import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from pdwave.core import Branch, make_free_state
from pdwave.evolution import SuperposedState, purity
from pdwave.freewave import Grid1D, prob_density_free
from pdwave.spectral import apply_observable
from pdwave import measurement as ms
from pdwave import potential as pot


def born_state(weights=(0.5, 0.3, 0.2)):
    waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(len(weights)))
    return SuperposedState(np.sqrt(weights).astype(complex), waves)


class TestDetect:
    def test_free_hit(self):
        event = ms.detect_mp(make_free_state(1.0, 1.0), 2.0, 2.0)
        assert event is not None
        assert (event.x, event.t, event.speed) == (2.0, 2.0, 1.0)

    def test_free_miss(self):
        assert ms.detect_mp(make_free_state(1.0, 1.0), 2.0, 1.0) is None

    def test_potential_arrival(self):
        xs = np.linspace(0.0, 2.0, 201)
        spec = pot.PotentialSpec(
            x_samples=xs, V=np.zeros_like(xs), kx=1.0 + xs, R=1.0, omega=0.375
        )
        tol = 1e-6
        assert ms.detect_mp(spec, 1.0, math.log(2.0), tol=tol) is not None
        assert ms.detect_mp(spec, 1.0, math.log(2.0) + 10 * tol, tol=tol) is None

    def test_superposed_component(self):
        state = born_state()
        event = ms.detect_mp(state, 4.0, 2.0)  # second component, v = 2
        assert event is not None and event.speed == 2.0
        assert ms.detect_mp(state, 3.5, 2.0) is None

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            ms.detect_mp(make_free_state(1.0, 1.0), 1.0, 1.0, tol=0.0)

    def test_event_invariant(self):
        with pytest.raises(ValueError):
            ms.MeasurementEvent(x=2.0, t=1.0, speed=1.0)

    def test_detection_matches_event_condition_far_out(self):
        # The event accepts |x - v*t| <= tol * max(1, |x|); detection agrees.
        x, t = 1e6, 1e6 + 5e-4
        ms.MeasurementEvent(x=x, t=t, speed=1.0)
        assert ms.detect_mp(make_free_state(1.0, 1.0), x, t) is not None
        assert ms.detect_mp(born_state(), x, t) is not None
        assert ms.detect_mp(make_free_state(1.0, 1.0), x, x + 5e-3) is None


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
        children = np.random.SeedSequence(8).spawn(3)
        expected = sum(np.random.default_rng(child).multinomial(m, state.probabilities())
                       for child, m in zip(children, (3334, 3333, 3333)))
        assert np.array_equal(ms.run_ensemble(state, 10000, seed=8, workers=3).counts,
                              expected)

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

    def test_record_stops_particle(self):
        state = born_state()
        event = ms.detect_mp(state.waves[0], 2.0, 2.0)
        post = ms.dirac_project(state, 0, event, record=True)
        assert post.waves[0].v == 0.0
        assert post.waves[0].R == 0.0


class TestComposite:
    def composite(self, weights=(0.5, 0.5)):
        systems = tuple(make_free_state(v, v) for v in (1.0, 2.0))
        pointers = tuple(make_free_state(v, v) for v in (3.0, 4.0))
        return ms.tensor_compose(systems, pointers, np.sqrt(weights).astype(complex))

    def test_product_eigenvalue(self):
        comp = self.composite()
        vals = ms.composite_eigenvalues(comp, system_eigs=[2.0, 1.0], pointer_eigs=[3.0, 1.0])
        assert vals[0] == 6.0

    def test_default_energy_products(self):
        comp = self.composite()
        vals = ms.composite_eigenvalues(comp)
        expected = np.array(
            [
                apply_observable("H", s).value * apply_observable("H", q).value
                for s, q in zip(comp.system_components, comp.pointer_components)
            ]
        )
        assert np.array_equal(vals, expected)

    def test_pure_product_limit(self):
        comp = self.composite(weights=(1.0, 0.0))
        assert comp.amplitudes[0] == 1.0 + 0j

    def test_composite_schrodinger_residual(self):
        systems = (make_free_state(1.0, 1.0), make_free_state(1.5, 1.5))
        pointers = (make_free_state(0.5, 0.5), make_free_state(0.8, 0.8))
        comp = ms.tensor_compose(systems, pointers, np.sqrt([0.5, 0.5]).astype(complex))
        grid = Grid1D(2.0, 2.5, 9, 0.5)
        assert ms.composite_schrodinger_residual(comp, 0, grid, grid) < 1e-6

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


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("project", ["dirac", "von_neumann"])
def test_pure_unmeasured_state_is_projected(project, record):
    # Unit amplitude alone is no no-op: the INCOMING wave must still become
    # the post-measurement wave, absorbed if recorded, else outgoing.
    waves = (make_free_state(1.0, 1.0), make_free_state(2.0, 2.0))
    pointers = (make_free_state(3.0, 3.0), make_free_state(4.0, 4.0))
    state = (SuperposedState(np.array([1.0, 0.0]), waves) if project == "dirac"
             else ms.tensor_compose(waves, pointers, [1.0, 0.0]))
    fn = ms.dirac_project if project == "dirac" else ms.von_neumann_project
    event = ms.detect_mp(waves[0], 1.0, 1.0)
    post = fn(state, 0, event, record=record)
    if record:
        assert (post.waves[0].v, post.waves[0].R) == (0.0, 0.0)
    else:
        assert post.waves[0].branch is Branch.OUTGOING
    assert fn(post, 0, event, record=record) is post


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
