"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import math
import time

import numpy as np
from scipy import stats

from pdwave import analysis as an
from pdwave import cli
from pdwave import evolution as ev
from pdwave import freewave as fw
from pdwave import measurement as ms
from pdwave import potential as pot
from pdwave import spectral as sp
from pdwave.core import make_free_state


def _report(num: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}" + (f" ({detail})" if detail else ""))


def test_criterion_01_dispersion_fidelity():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    worst_analytic = 0.0
    worst_fd = 0.0
    for _ in range(1000):
        v = rng.uniform(0.1, 10.0)
        R = rng.uniform(0.0, 10.0)
        s = make_free_state(v, R)
        grid = fw.Grid1D(1.05 * v, 2.05 * v, 7, 1.0)
        worst_analytic = max(worst_analytic, fw.schrodinger_residual(s, grid))
        # The fd residual takes its steps from the state and is relative,
        # so it measures pure truncation.
        worst_fd = max(worst_fd, fw.schrodinger_residual(s, grid, method="fd"))
    elapsed = time.perf_counter() - start
    ok = worst_analytic < 1e-12 and worst_fd < 1e-6 and elapsed < 5.0
    _report(
        1,
        "dispersion fidelity",
        ok,
        f"analytic={worst_analytic:.2e}, fd={worst_fd:.2e}, {elapsed:.2f}s",
    )
    assert worst_analytic < 1e-12
    assert worst_fd < 1e-6
    assert elapsed < 5.0


def test_criterion_02_normalization():
    rng = np.random.default_rng(2)
    worst_total = 0.0
    worst_quad = 0.0
    for _ in range(1000):
        s = make_free_state(rng.uniform(0.1, 10.0), rng.uniform(0.01, 10.0))
        normalized = fw.normalize_state(s)
        total = fw.total_probability(normalized)
        worst_total = max(worst_total, abs(total - 1.0))
        quad = fw.total_probability_quadrature(normalized)
        worst_quad = max(worst_quad, abs(total - quad))
    ok = worst_total <= 1e-10 and worst_quad <= 1e-8
    _report(2, "normalization", ok, f"total={worst_total:.2e}, quad={worst_quad:.2e}")
    assert worst_total <= 1e-10
    assert worst_quad <= 1e-8


def test_criterion_03_non_unitarity_law():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        R = rng.uniform(0.0, 3.0)
        t = rng.uniform(0.0, 2.0)
        state = ev.SuperposedState(np.array([1.0 + 0j]), (make_free_state(1.0, R),))
        ratio = ev.evolve_state(state, t).norm_sq
        worst = max(worst, abs(ratio - math.exp(R * t)) / math.exp(R * t))
    mp_state = ev.SuperposedState(np.array([1.0 + 0j]), (make_free_state(1.0, 0.0),))
    mp_ratio = ev.evolve_state(mp_state, 5.0).norm_sq
    ok = worst <= 1e-10 and mp_ratio == 1.0
    _report(3, "non-unitarity law", ok, f"worst={worst:.2e}, R=0 ratio={mp_ratio}")
    assert worst <= 1e-10
    assert mp_ratio == 1.0


def test_criterion_04_purity_loss():
    rng = np.random.default_rng(4)
    worst = 0.0
    strict = True
    for _ in range(200):
        n = rng.integers(2, 6)
        w = rng.dirichlet(np.ones(n))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(n))
        state = ev.SuperposedState(np.sqrt(w) * phases, waves)
        p = ev.purity(ev.reduce_to_mixture(state))
        worst = max(worst, abs(p - float(np.sum(w**2))))
        if np.sum(w > 1e-9) >= 2 and not p < 1.0:
            strict = False
    ok = worst <= 1e-12 and strict
    _report(4, "purity loss", ok, f"worst={worst:.2e}")
    assert worst <= 1e-12
    assert strict


def test_criterion_05_born_statistics():
    weights = np.array([0.5, 0.3, 0.2])
    waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(3))
    state = ev.SuperposedState(np.sqrt(weights).astype(complex), waves)
    sigma = np.sqrt(weights * (1.0 - weights) / 1e5)
    start = time.perf_counter()
    passes = 0
    for seed in range(100):
        rep = ms.run_ensemble(state, 100000, seed=seed)
        within = np.all(np.abs(rep.frequencies - weights) < 3.0 * sigma)
        p_value = stats.chi2.sf(rep.chi_square, df=2)
        passes += bool(within and p_value > 0.001)
    elapsed = time.perf_counter() - start
    ok = passes >= 99 and elapsed < 10.0
    _report(5, "Born statistics", ok, f"{passes}/100 seeds, {elapsed:.2f}s")
    assert passes >= 99
    assert elapsed < 10.0


def test_criterion_06_projection_postulates():
    weights = (0.5, 0.3, 0.2)
    state = ev.SuperposedState(
        np.sqrt(weights).astype(complex),
        tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(3)),
    )
    event = ms.detect_mp(state.waves[0], 2.0, 2.0)
    post = ms.dirac_project(state, 0, event)
    dirac_vector = np.array_equal(post.amplitudes, np.array([1, 0, 0], dtype=complex))
    dirac_density = fw.prob_density_free(post.waves[0], event.x, event.t)
    twice = ms.dirac_project(post, 0, event)
    dirac_idempotent = np.array_equal(post.amplitudes, twice.amplitudes) and (
        post.waves == twice.waves
    )

    composite = ms.tensor_compose(
        (make_free_state(1.0, 1.0), make_free_state(2.0, 2.0)),
        (make_free_state(3.0, 3.0), make_free_state(4.0, 4.0)),
        np.sqrt([0.5, 0.5]).astype(complex),
    )
    vn_event = ms.detect_mp(composite.system_components[0], 1.5, 1.5)
    vn_post = ms.von_neumann_project(composite, 0, vn_event)
    vn_vector = np.array_equal(vn_post.amplitudes, np.array([1, 0], dtype=complex))
    sys_w = vn_post.system_components[0]
    ptr_w = vn_post.pointer_components[0]
    vn_density = fw.prob_density_free(sys_w, sys_w.v * 1.5, 1.5) * fw.prob_density_free(
        ptr_w, ptr_w.v * 1.5, 1.5
    )
    vn_idempotent = ms.von_neumann_project(vn_post, 0, vn_event) is vn_post

    ok = (
        dirac_vector
        and dirac_density == 1.0
        and dirac_idempotent
        and vn_vector
        and vn_density == 1.0
        and vn_idempotent
    )
    _report(6, "projection postulates", ok,
            f"densities=({dirac_density}, {vn_density})")
    assert ok


def test_criterion_07_sturm_liouville_oracle():
    start = time.perf_counter()
    worst_closed = 0.0
    worst_agree = 0.0
    for k0 in (0.0, 2.0):
        problem = pot.SLProblem(
            x0=0.0, x_end=1.0, kx=np.full(64, k0), V=np.zeros(64), n_eigen=6
        )
        sol = pot.solve_sturm_liouville(problem, n_grid=2000)
        shoot, dense = sol.eigenvalues, sol.matrix_eigenvalues
        exact = ((np.arange(6) + 0.5) * np.pi) ** 2 / 2.0 + k0**2 / 2.0
        worst_closed = max(worst_closed, float(np.max(np.abs(shoot - exact) / exact)))
        worst_agree = max(worst_agree, float(np.max(np.abs(shoot - dense) / np.abs(dense))))
    elapsed = time.perf_counter() - start
    ok = worst_closed < 1e-6 and worst_agree < 1e-6 and elapsed < 5.0
    _report(
        7,
        "Sturm-Liouville oracle equivalence",
        ok,
        f"closed={worst_closed:.2e}, agree={worst_agree:.2e}, {elapsed:.2f}s",
    )
    assert worst_closed < 1e-6
    assert worst_agree < 1e-6
    assert elapsed < 5.0


def test_criterion_08_continuity():
    xs_c = np.linspace(0.0, 5.0, 201)
    constant = pot.PotentialSpec(
        x_samples=xs_c, kx=np.ones_like(xs_c), R=1.0, omega=0.375
    )
    xs_l = np.linspace(0.0, 5.0, 401)
    linear = pot.PotentialSpec(
        x_samples=xs_l, kx=1.0 + xs_l, R=1.0, omega=0.375
    )
    res_const = pot.continuity_residual(constant, fw.Grid1D(2.0, 3.0, 21, 1.0))
    res_linear = pot.continuity_residual(linear, fw.Grid1D(2.0, 3.0, 21, 0.5))
    ok = res_const < 1e-6 and res_linear < 1e-6
    _report(8, "continuity", ok, f"const={res_const:.2e}, linear={res_linear:.2e}")
    assert res_const < 1e-6
    assert res_linear < 1e-6


def test_criterion_09_commutators():
    state = make_free_state(1.0, 1.0)
    grids = (np.linspace(0.1, 1.0, 7), np.linspace(1.3, 2.0, 7))
    worst = 0.0
    for pair in ("XcPc", "TcHc"):
        for grid in grids:
            worst = max(worst, abs(sp.commutator_check(pair, state, grid) - 1j))
    ok = worst <= 1e-8
    _report(9, "commutators", ok, f"worst={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_10_entropy_trajectory():
    state = ev.SuperposedState(np.array([1.0 + 0j]), (make_free_state(1.0, 1.0),))
    traj = ev.entropy_trajectory(
        state, np.linspace(0.0, 2.0, 41), measurement_times=[2.0]
    )
    slopes = np.diff(traj.S) / np.diff(traj.times)
    slope_err = float(np.max(np.abs(slopes + 1.0)))
    ok = slope_err <= 1e-10 and traj.S[0] == 0.0 and np.all(traj.post_measurement_S == 0.0)
    _report(10, "entropy trajectory", ok, f"slope_err={slope_err:.2e}")
    assert slope_err <= 1e-10
    assert traj.S[0] == 0.0
    assert np.all(traj.post_measurement_S == 0.0)


def test_criterion_11_contour_cauchy():
    state = make_free_state(1.0, 1.0)
    square = an.Contour(vertices=np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex))
    closed_mag = abs(an.contour_integral(state, square))
    path_a = an.Contour(vertices=np.array([0, 1, 1 + 1j], dtype=complex))
    path_b = an.Contour(vertices=np.array([0, 1j, 1 + 1j], dtype=complex))
    path_gap = abs(
        an.contour_integral(state, path_a)
        - an.contour_integral(state, path_b)
    )
    segment = an.Contour(vertices=np.array([0, 1], dtype=complex))
    seg_err = abs(
        an.contour_integral(state, segment) - (1.0 - math.exp(-1.0))
    )
    ok = closed_mag < 1e-9 and path_gap < 1e-9 and seg_err <= 1e-9
    _report(
        11,
        "contour/Cauchy",
        ok,
        f"closed={closed_mag:.2e}, paths={path_gap:.2e}, segment={seg_err:.2e}",
    )
    assert closed_mag < 1e-9
    assert path_gap < 1e-9
    assert seg_err <= 1e-9


def test_criterion_12_preferred_basis():
    direct = ms.mixture_density(
        [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)], [0.5, 0.5]
    )
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2.0)
    minus = np.array([1, -1], dtype=complex) / math.sqrt(2.0)
    rotated = ms.mixture_density([plus, minus], [0.5, 0.5])
    basis_gap = float(np.max(np.abs(direct.entries - rotated.entries)))

    composite = ms.tensor_compose(
        (make_free_state(1.0, 1.0), make_free_state(2.0, 2.0)),
        (make_free_state(3.0, 3.0), make_free_state(4.0, 4.0)),
        np.sqrt([0.5, 0.5]).astype(complex),
    )
    eigs = [sp.apply_observable("H", w).value for w in composite.system_components]
    avgs = ms.compare_averages(composite, eigs)
    p = composite.probabilities()
    expected_imag = float(
        np.sum(p * np.array([0.5 * w.R for w in composite.system_components]))
    )
    real_match = avgs.entangled_avg.real == avgs.reduced_avg
    imag_match = avgs.entangled_avg.imag == expected_imag
    ok = basis_gap < 1e-12 and real_match and imag_match
    _report(12, "preferred basis", ok, f"basis_gap={basis_gap:.2e}")
    assert basis_gap < 1e-12
    assert real_match
    assert imag_match


def test_criterion_13_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[ensemble]\nweights = 0.5,0.3,0.2\nn_trials = 100000\nworkers = 2\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["--scenario", "ensemble", "--config", str(cfg), "--seed", "42"]
    code_a = cli.main(args + ["--out", str(out_a)])
    code_b = cli.main(args + ["--out", str(out_b)])
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and all(
        (out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names_a
    )
    ok = code_a == 0 and code_b == 0 and identical
    _report(13, "determinism", ok, f"files={names_a}")
    assert code_a == 0 and code_b == 0
    assert identical
    report = json.loads((out_a / "report.json").read_text())
    assert report["all_passed"] is True


def test_acceptance_summary_is_complete():
    # Keep the criterion list in sync with this module.
    import sys

    names = [n for n in dir(sys.modules[__name__]) if n.startswith("test_criterion_")]
    assert len(names) == 13
