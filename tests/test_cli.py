import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import pdwave
from pdwave import cli


ALL_SCENARIOS = list(cli.SCENARIOS)
GOLDEN = Path(__file__).parent / "golden"
# Golden directory name -> (scenario, format[, config entries]) of the run it holds.
GOLDEN_RUNS = {s: (s, "csv") for s in ALL_SCENARIOS} | {
    f"{s}-json": (s, "json")
    for s in ("free-wave", "ensemble", "contour", "composite", "entropy", "uncertainty",
              "decoherence", "field", "potential-wave", "sturm-liouville")
} | {
    "sturm-liouville-harmonic": (
        "sturm-liouville", "csv", "preset = harmonic\nn_eigen = 10\nn_grid = 1001"
    ),
}


def golden_argv(golden_name, out, config_dir) -> list[str]:
    """CLI arguments of the run that golden directory ``golden_name`` holds, written to ``out``.

    The run has seed 42 and ``--check``; its config file, if any, goes to ``config_dir``.
    """
    scenario, fmt, *entries = GOLDEN_RUNS[golden_name]
    config = []
    if entries:
        ini = Path(config_dir) / "golden.ini"
        ini.write_text(f"[{scenario}]\n{entries[0]}\n")
        config = ["--config", str(ini)]
    return ["--scenario", scenario, "--out", str(out), "--seed", "42", "--check",
            "--format", fmt, *config]


def run_golden(golden_name, out, config_dir) -> int:
    """Exit code of ``golden_argv``'s run, in this process."""
    return cli.main(golden_argv(golden_name, out, config_dir))


def assert_matches_golden(out, golden_name) -> None:
    """Every file in ``out``, report.json included, matches the committed golden output."""
    golden = GOLDEN / golden_name
    written = sorted(f.name for f in out.iterdir())
    assert written == sorted(f.name for f in golden.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), name


def child_env(**variables) -> dict:
    """This process's environment for a child that imports this pdwave, plus ``variables``."""
    return {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(pdwave.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("golden_name", list(GOLDEN_RUNS))
def test_scenario_runs_clean_with_check(golden_name, tmp_path, tmp_path_factory):
    assert run_golden(golden_name, tmp_path, tmp_path_factory.mktemp("config")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["scenario"] == GOLDEN_RUNS[golden_name][0]
    for check in report["checks"]:
        assert set(check) >= {"name", "passed", "value"}

    assert_matches_golden(tmp_path, golden_name)


@pytest.mark.parametrize(
    "entries",
    [
        "n_eigen = 1",
        # Deep forbidden regions: the Numerov recurrence passes 1e250 and is rescaled.
        "preset = harmonic\nx1 = 40\nn_eigen = 3",
        "preset = harmonic\nx1 = 40",
        "preset = harmonic\nx1 = 60",
    ],
)
def test_sturm_liouville_edge_config_passes_check(entries, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[sturm-liouville]\n{entries}\n")
    assert cli.main(
        ["--scenario", "sturm-liouville", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--check"]
    ) == 0


@pytest.mark.parametrize("preset", ["box", "harmonic"])
def test_two_points_per_level_reads_coarse_levels(preset, tmp_path):
    # At exactly 2 points a level, n_grid = 2*n_eigen, the runner's seeded shooting gives
    # coarse levels, not the spurious ones its node counts give unseeded (box level 2:
    # 30.30 seeded, 56.10 unseeded, 30.72 by the matrix): only the 1e-6 checks fail.
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[sturm-liouville]\npreset = {preset}\nn_grid = 6\nn_eigen = 3\n")
    out = tmp_path / "out"
    assert cli.main(["--scenario", "sturm-liouville", "--config", str(cfg), "--out", str(out),
                     "--check"]) == 3
    report = json.loads((out / "report.json").read_text())
    assert {c["name"] for c in report["checks"] if not c["passed"]} <= {
        "backends_agree", "closed_form_match"}
    rows = [line.split(",") for line in (out / "sturm_liouville.csv").read_text().split()[1:]]
    shooting, matrix = (np.array([float(row[i]) for row in rows]) for i in (1, 2))
    assert np.all(np.abs(shooting - matrix) < 0.023 * matrix)


def test_backends_agree_catches_a_wrong_richardson_step(tmp_path, monkeypatch, capsys):
    # The seeds come from the same step, so shooting must not inherit the defect.
    monkeypatch.setattr(pdwave.potential, "_richardson",
                        lambda fine, coarse: (2.0 * fine - coarse) / 3.0)
    assert cli.main(["--scenario", "sturm-liouville", "--out", str(tmp_path), "--check"]) == 3
    assert "backends_agree" in capsys.readouterr().err
    report = json.loads((tmp_path / "report.json").read_text())
    assert {c["name"] for c in report["checks"] if not c["passed"]} == {"backends_agree"}


def test_free_wave_has_unit_density_row(tmp_path):
    cli.main(["--scenario", "free-wave", "--out", str(tmp_path)])
    body = (tmp_path / "free_wave_t1.csv").read_text().splitlines()
    assert body[0] == "x,t,P,psi_re,psi_im"
    assert any(
        row.startswith("2.000000000000,2.000000000000,1.000000000000")
        for row in body[1:]
    )


def test_sorted_unique_matches_np_unique_on_free_wave_grids():
    # A free-wave grid is linspace(lo, hi, n) plus mp_x, which may fall on a grid point,
    # sit in a span too small to separate the points, or be a zero of the other sign.
    rng = np.random.default_rng(19)
    for _ in range(20_000):
        n, lo = int(rng.integers(2, 200)), float(rng.choice([0.0, -0.0, rng.normal()]))
        xs = np.linspace(lo, lo + float(rng.choice([1e-300, 1e-15, rng.uniform(1e-3, 9.0)])), n)
        mp_x = float(rng.choice([xs[rng.integers(n)], 0.0, -0.0, rng.uniform(xs[0], xs[-1])]))
        grid = np.append(xs, mp_x)
        assert cli._sorted_unique(grid).tobytes() == np.unique(grid).tobytes(), grid


def test_entropy_outputs_closed_form_rows(tmp_path):
    cli.main(["--scenario", "entropy", "--out", str(tmp_path)])
    rows = (tmp_path / "entropy.csv").read_text().splitlines()
    assert rows[0] == "t,S,is_post_measurement"
    assert "2.000000000000,-2.000000000000,0" in rows
    assert "2.000000000000,0.000000000000,1" in rows


def _run_potential_wave_check(tmp_path, entries):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[potential-wave]\nprofile = constant\n{entries}\n")
    out = tmp_path / "out"
    code = cli.main(["--scenario", "potential-wave", "--config", str(cfg),
                     "--out", str(out), "--check"])
    return code, json.loads((out / "report.json").read_text())


@pytest.mark.parametrize("R, omega", [(0.1, 0.375), (0.5, 0.375), (2.0, 0.375),
                                      (3.0, 0.375), (1.0, 0.2), (2.0, -1.5)])
def test_constant_profile_degenerates_to_the_free_wave(R, omega, tmp_path):
    # The free wave is built with the spec's omega, so both sides are one state.
    code, report = _run_potential_wave_check(tmp_path, f"R = {R}\nomega = {omega}")
    assert code == 0
    check = next(c for c in report["checks"] if c["name"] == "degeneration_matches_free_wave")
    assert check["value"] == 0.0


def test_degeneration_check_catches_a_skewed_arrival_time(tmp_path, monkeypatch, capsys):
    arrival_time = pdwave.potential.arrival_time
    monkeypatch.setattr(pdwave.potential, "arrival_time",
                        lambda spec, x: 1.01 * arrival_time(spec, x))
    code, report = _run_potential_wave_check(tmp_path, "R = 1.0")
    assert code == 3
    assert "degeneration_matches_free_wave" in capsys.readouterr().err
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "degeneration_matches_free_wave" in failed


def test_chi_square_catches_a_tally_off_in_aggregate(tmp_path, monkeypatch, capsys):
    # Eight equal weights, each count n/8 +- round(2.9 sigma) with the sign alternating:
    # every |z| is 2.897, within 3 sigma, while the chi-square's p is 2.7e-10.
    run_ensemble = pdwave.measurement.run_ensemble

    def skewed(state, n_trials, seed, workers=1):
        p = run_ensemble(state, n_trials, seed, workers).expected
        shift = np.round(2.9 * np.sqrt(n_trials * p * (1.0 - p))) * (-1.0) ** np.arange(p.size)
        counts = np.rint(n_trials * p + shift).astype(np.int64)
        chi_square = float(np.sum((counts - n_trials * p) ** 2 / (n_trials * p)))
        return pdwave.measurement.EnsembleReport(n_trials, counts, counts / n_trials, p,
                                                 chi_square)

    monkeypatch.setattr(pdwave.measurement, "run_ensemble", skewed)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[composite]\nweights = 1,1,1,1,1,1,1,1\nn_trials = 80000\n"
                   "system_speeds = 1,2,3,4,5,6,7,8\npointer_speeds = 9,10,11,12,13,14,15,16\n")
    out = tmp_path / "out"
    assert cli.main(["--scenario", "composite", "--config", str(cfg), "--out", str(out),
                     "--check"]) == 3
    assert "chi_square_p_above_0.001" in capsys.readouterr().err
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert {c["name"] for c in checks if not c["passed"]} == {"chi_square_p_above_0.001"}
    assert all(abs(abs(c["value"]) - 2.897) < 1e-3 for c in checks if "sigma" in c["name"])


def test_factor_checks_catch_a_conjugated_wave(tmp_path, monkeypatch, capsys):
    # The conjugate solves the time-reversed equation, not the free one.
    psi_free = pdwave.freewave.psi_free
    monkeypatch.setattr(pdwave.freewave, "psi_free", lambda *a: np.conj(psi_free(*a)))
    assert cli.main(["--scenario", "composite", "--out", str(tmp_path), "--check"]) == 3
    err = capsys.readouterr().err
    names = {"system_0_dispersion_residual_fd", "pointer_0_dispersion_residual_fd"}
    assert all(name in err for name in names)
    report = json.loads((tmp_path / "report.json").read_text())
    assert {c["name"] for c in report["checks"] if not c["passed"]} == names


def test_ensemble_csv_schema(tmp_path):
    cli.main(["--scenario", "ensemble", "--out", str(tmp_path), "--seed", "1"])
    rows = (tmp_path / "ensemble.csv").read_text().splitlines()
    assert rows[0] == "outcome,count,frequency,expected,z_score"
    assert len(rows) == 4


def test_byte_identical_reruns(tmp_path):
    runs = {"ensemble": "", "uncertainty": f"n_samples = {3 * pdwave.analysis._BLOCK - 1}"}
    for scenario, entries in runs.items():
        out_a = tmp_path / scenario / "a"
        out_b = tmp_path / scenario / "b"
        cfg = tmp_path / f"{scenario}.ini"
        cfg.write_text(f"[{scenario}]\n{entries}\n")
        args = ["--scenario", scenario, "--config", str(cfg), "--seed", "42"]
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_changes_ensemble_output(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.main(["--scenario", "ensemble", "--seed", "1", "--out", str(out_a)])
    cli.main(["--scenario", "ensemble", "--seed", "2", "--out", str(out_b)])
    assert (out_a / "ensemble.csv").read_bytes() != (out_b / "ensemble.csv").read_bytes()


def _uncertainty_samples(n, sigma_re, sigma_im, tmp_path, monkeypatch):
    """The sample array a seed-9 uncertainty run hands to uncertainty_decompose."""
    seen = []
    decompose = pdwave.analysis.uncertainty_decompose
    monkeypatch.setattr(pdwave.analysis, "uncertainty_decompose",
                        lambda samples: seen.append(samples.values) or decompose(samples))
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[uncertainty]\nn_samples = {n}\nsigma_re = {sigma_re}\n"
                   f"sigma_im = {sigma_im}\nseed = 9\n")
    threads = threading.active_count()
    assert cli.main(["--scenario", "uncertainty", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    assert threading.active_count() == threads
    return seen[0]


def _two_stream_normals(n, sigma_re, sigma_im):
    child_re, child_im = np.random.SeedSequence(9).spawn(2)
    expected = np.empty(n, dtype=complex)
    expected.real = np.random.default_rng(child_re).normal(0.0, sigma_re, n)
    expected.imag = np.random.default_rng(child_im).normal(0.0, sigma_im, n)
    return expected


@pytest.mark.parametrize("n", [2, pdwave.analysis._BLOCK + 1, 3 * pdwave.analysis._BLOCK - 1])
@pytest.mark.parametrize("sigma_re, sigma_im", [(2.0, 1.0), (0.0, 1.0), (2.0, 0.0)])
def test_uncertainty_draws_are_rng_normal(n, sigma_re, sigma_im, tmp_path, monkeypatch):
    # Bytes, not values: at sigma = 0, sigma*x alone would give -0.0 where normal gives +0.0.
    samples = _uncertainty_samples(n, sigma_re, sigma_im, tmp_path, monkeypatch)
    assert samples.tobytes() == _two_stream_normals(n, sigma_re, sigma_im).tobytes()


def test_uncertainty_draws_do_not_depend_on_scheduling(tmp_path, monkeypatch):
    # The worker's part is filled inline at start(), before the main thread's part.
    monkeypatch.setattr(threading.Thread, "start", threading.Thread.run)
    monkeypatch.setattr(threading.Thread, "join", lambda self, timeout=None: None)
    n = 3 * pdwave.analysis._BLOCK - 1
    samples = _uncertainty_samples(n, 2.0, 1.0, tmp_path, monkeypatch)
    assert samples.tobytes() == _two_stream_normals(n, 2.0, 1.0).tobytes()


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[ensemble]\nweights = 0.6,0.4\nn_trials = 2000\nseed = 5\n"
                   f"output = {tmp_path / 'keyed'}\nformat = json\n")
    args = ["--scenario", "ensemble", "--config", str(cfg)]
    out = tmp_path / "out"
    assert cli.main([*args, "--out", str(out)]) == 0
    assert not (tmp_path / "keyed").exists()  # --out overrides the output key
    records = json.loads((out / "ensemble.json").read_text())["records"]
    assert len(records) == 2  # two outcomes, in the format key's format
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 5

    out2 = tmp_path / "out2"
    assert cli.main([*args, "--seed", "9", "--format", "csv", "--out", str(out2)]) == 0
    assert json.loads((out2 / "report.json").read_text())["seed"] == 9
    assert sorted(p.name for p in out2.iterdir()) == [
        "ensemble.csv", "ensemble_arrivals.csv", "report.json"]

    # "." is the default's value, but given as a flag it still wins.
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    assert cli.main([*args, "--out", "."]) == 0
    assert not (tmp_path / "keyed").exists()
    assert (here / "ensemble.json").is_file()

    assert cli.main(args) == 0  # with no flag, the output key decides
    assert (tmp_path / "keyed" / "report.json").is_file()


def test_json_format(tmp_path):
    cli.main(["--scenario", "field", "--out", str(tmp_path), "--format", "json"])
    obj = json.loads((tmp_path / "field.json").read_text())
    assert obj["records"][0]["field"] == 1.0


def test_config_keys_are_case_sensitive(tmp_path):
    # "R" must survive INI parsing without being folded to "r".
    cfg = tmp_path / "run.ini"
    cfg.write_text("[free-wave]\nv = 2.0\nR = 2.0\nmp_x = 4.0\n")
    out = tmp_path / "out"
    assert cli.main(
        ["--scenario", "free-wave", "--config", str(cfg), "--out", str(out)]
    ) == 0
    rows = (out / "free_wave_t0.csv").read_text().splitlines()
    assert rows[1].startswith("2.000000000000,")  # peak at v*t = 2


def _failed_run_code(scenario, entries, tmp_path):
    """Exit code of a run of INI ``entries``, which must leave ``--out`` as it found it.

    The run goes once into a new ``--out`` and once into an existing one that
    holds a sentinel file; both runs must end with the same code.
    """
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{scenario}]\n{entries}\n")
    args = ["--scenario", scenario, "--config", str(cfg), "--out"]
    code = cli.main([*args, str(tmp_path / "new" / "dir")])
    assert not (tmp_path / "new").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "sentinel.txt").write_text("kept\n")
    assert cli.main([*args, str(existing)]) == code
    assert [p.name for p in existing.iterdir()] == ["sentinel.txt"]
    return code


# Values outside their key's domain: rejected before the runner starts.
_OUTSIDE_DOMAIN = [
    ("free-wave", "v = 0"),
    ("free-wave", "R = -1"),
    ("free-wave", "n = 1"),
    ("free-wave", "span = 0"),
    ("free-wave", "mp_x = nan"),
    ("free-wave", "times ="),
    ("free-wave", "times = 1,-1"),
    ("potential-wave", "n = 1"),
    ("potential-wave", "R = -1"),
    ("potential-wave", "t = -1"),
    ("ensemble", "n_trials = 0"),
    ("ensemble", "workers = 0"),
    ("ensemble", "workers = 100000000"),
    ("decoherence", "speeds = -1,2,3"),
    ("decoherence", "t = nan"),
    ("entropy", "v = 0"),
    ("entropy", "measure_at = -1"),
    ("sturm-liouville", "n_grid = 100000000"),
    ("uncertainty", "n_samples = 1"),
    ("uncertainty", "n_samples = 100000000000"),
    ("uncertainty", "sigma_re = -1"),
    ("contour", "v = 0"),
    ("contour", "R = -1"),
    ("composite", "n_trials = 0"),
    ("composite", "system_speeds = -1,2"),
    ("field", "v = 0"),
    ("field", "s_max = -1"),
    ("field", "n = 100000000000"),
]


class TestExitCodes:
    def test_unknown_scenario_is_config_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--scenario", "warp", "--out", str(tmp_path)])
        assert err.value.code == 1

    def test_bad_value_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[ensemble]\nn_trials = banana\n")
        assert cli.main(
            ["--scenario", "ensemble", "--config", str(cfg), "--out", str(tmp_path)]
        ) == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "abc", "[contour] seed = abc: must be an integer from 0 to 18446744073709551615"),
        ("--seed", "18446744073709551616", "[contour] seed = 18446744073709551616: must be"),
        ("--format", "xml", "[contour] format = xml: must be one of csv, json"),
    ])
    def test_bad_flag_gets_its_key_message(self, flag, value, message, tmp_path, capsys):
        assert cli.main(["--scenario", "contour", "--out", str(tmp_path / "out"), flag, value]) == 1
        assert capsys.readouterr().err.startswith(f"pdwave: config error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, entry", [
        ("ensemble", "flux_capacitance = 1.21"),
        ("potential-wave", "v_table = v.txt"),  # the (x, V) table that nothing read is gone
    ])
    def test_unknown_key_is_config_error(self, scenario, entry, tmp_path, capsys):
        assert _failed_run_code(scenario, entry, tmp_path) == 1
        key = entry.split()[0]
        assert capsys.readouterr().err.startswith(
            f"pdwave: config error: [{scenario}] unknown key {key!r}")

    def test_missing_table_is_runtime_error(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[potential-wave]\nk_table = /nonexistent/k.txt\n")
        assert cli.main(
            ["--scenario", "potential-wave", "--config", str(cfg),
             "--out", str(tmp_path)]
        ) == 2
        assert cfg.is_file()  # the rejected run leaves an existing --out in place

    _K_ROWS = [f"{x} {1 + x}" for x in range(8)]  # k = 1 + x on x = 0..7

    @pytest.mark.parametrize(
        "k_rows, message",
        [
            (["0 1"], "need at least 8 strictly increasing x samples"),
            (_K_ROWS[:7], "need at least 8 strictly increasing x samples"),
            (_K_ROWS[:2] + ["1 3"] + _K_ROWS[3:], "x samples must be strictly increasing"),
            (_K_ROWS[:2] + ["0.5 3"] + _K_ROWS[3:], "x samples must be strictly increasing"),
            (_K_ROWS[:2] + ["nan 3"] + _K_ROWS[3:], "samples must be finite"),
            (_K_ROWS[:2] + ["2 inf"] + _K_ROWS[3:], "samples must be finite"),
            (_K_ROWS[:2] + ["2 0"] + _K_ROWS[3:],
             "local speed v(x) = hbar*k(x)/m must be positive"),
            ([f"{row} 0" for row in _K_ROWS], "the table must have exactly two columns"),
            ([], "the table holds no rows"),
            (["# x k", ""], "the table holds no rows"),
        ],
        ids=["one-row", "seven-rows", "repeated-x", "decreasing-x", "nan-x", "infinite-k",
             "zero-k", "three-columns", "empty", "comments-only"],
    )
    def test_bad_k_table_is_config_error(self, k_rows, message, tmp_path, capsys):
        k_path = tmp_path / "k.txt"
        k_path.write_text("".join(f"{row}\n" for row in k_rows))
        assert _failed_run_code("potential-wave", f"k_table = {k_path}", tmp_path) == 1
        assert capsys.readouterr().err.startswith(
            f"pdwave: config error: k_table {k_path}: {message}")

    @pytest.mark.parametrize("rows, message", [
        ("", "the table holds no rows"),
        ("0,0\n1,0\n1,0\n", "contour contains a zero-length segment"),
        ("0,0,0\n1,0,0\n", "contour CSV must have columns re_x, im_x"),
    ], ids=["header-only", "repeated-vertex", "three-columns"])
    def test_bad_contour_csv_is_config_error(self, rows, message, tmp_path, capsys):
        csv_path = tmp_path / "contour.csv"
        csv_path.write_text("re_x,im_x\n" + rows)
        assert _failed_run_code("contour", f"contour_csv = {csv_path}", tmp_path) == 1
        line = f"pdwave: config error: contour_csv {csv_path}: {message}"
        assert capsys.readouterr().err.splitlines() == [line, line]  # one line a run, no warning

    @pytest.mark.parametrize(
        "entries, message",
        [
            # Grid step 500: the Numerov weight turns negative below min(W).
            ("x1 = 1e6", "counts 1999 nodes below min(W)"),
            # Grid step 0.05 on a harmonic well: the Numerov weight turns negative past x = 69.
            ("preset = harmonic\nx1 = 100", "Numerov sweep counts 615 nodes below min(W)"),
            # W ~ 5e15: bisection resolves ~50, about the level spacing.
            ("k0 = 1e8", "eigenvalues 0 and 1 coincide"),
        ],
    )
    def test_unbracketable_grid_is_runtime_error(self, entries, message, tmp_path, capsys):
        assert _failed_run_code("sturm-liouville", entries, tmp_path) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, entries, message",
        [
            # (1e200)^2 and (1e160)^2 pass the largest float.
            ("uncertainty", "sigma_re = 1e200",
             "second moment overflows the float range (overflow encountered in multiply); "
             "lower sigma_re = 1e+200 or sigma_im = 1.0"),
            ("uncertainty", "sigma_im = 1e160", "lower sigma_re = 2.0 or sigma_im = 1e+160"),
            # The draws themselves overflow here.
            ("uncertainty", "sigma_re = 1e308", "lower sigma_re = 1e+308 or sigma_im = 1.0"),
            # Here they overflow in the thread that fills z.imag, under the copied errstate.
            ("uncertainty", "sigma_im = 1e308", "lower sigma_re = 2.0 or sigma_im = 1e+308"),
            # core.dispersion_omega names the keys: (R/v)^2 with R = 1 overflows,
            # or R^2 (and k^2, with k = m*v/hbar) overflows.
            ("contour", "v = 1e-300", "v = 1e-300"),
            ("free-wave", "v = 1e-300", "v = 1e-300"),
            ("free-wave", "R = 1e308", "R = 1e+308"),
            ("field", "v = 1e308", "v = 1e+308"),
        ],
    )
    def test_overflow_or_nan_is_runtime_error(
        self, scenario, entries, message, tmp_path, capsys
    ):
        threads = threading.active_count()
        assert _failed_run_code(scenario, entries, tmp_path) == 2
        assert message in capsys.readouterr().err
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "scenario, entries, named",
        [
            ("sturm-liouville", "n_grid = 4", ("n_grid = 4", "n_eigen = 6")),
            # Under 2 points a level, Numerov's node counts stop rising with E, and
            # shooting cannot bracket the levels of these two.
            ("sturm-liouville", "n_grid = 7", ("n_grid = 7", "n_eigen = 6", "at least 12")),
            ("sturm-liouville", "n_grid = 5\nn_eigen = 3", ("n_grid = 5", "n_eigen = 3")),
            # max(speeds) = 3: 3*236.6 = 709.8 passes ln(max float) = 709.78.
            ("decoherence", "t = 236.6", ("t = 236.6", "speeds up to 3.0")),
            ("decoherence", "speeds = 1,2,710\nt = 0.5", ("t = 0.5", "speeds up to 710.0")),
            # span/(n-1) = 0.025 is below the float spacing 2^-5 at v*t = 2e14, so the
            # probe window repeats points; the monotone checks failed on them.
            ("free-wave", "times = 2e14", ("times = 2", "span = 3.0", "n = 121")),
            ("free-wave", "times = 1e300", ("times = 1e+300", "span = 3.0", "n = 121")),
            # The table supplies the grid and k, so these keys must keep their defaults;
            # they are checked before the table, so k.txt need not exist.
            ("potential-wave", "k_table = k.txt\nprofile = constant",
             ("k_table k.txt", "profile = constant")),
            ("potential-wave", "k_table = k.txt\nx0 = 0.5", ("k_table k.txt", "x0 = 0.5")),
            ("potential-wave", "k_table = k.txt\nx0 = 0.5\nx1 = 4",
             ("k_table k.txt", "x0 = 0.5", "x1 = 4.0")),
        ],
    )
    def test_cross_key_rejection_names_both_keys(
        self, scenario, entries, named, tmp_path, capsys
    ):
        assert _failed_run_code(scenario, entries, tmp_path) == 1
        err = capsys.readouterr().err
        assert all(text in err for text in named)

    @pytest.mark.parametrize("entries", ["", "profile = linear\nx0 = 0\nx1 = 5"])
    def test_k_table_runs_with_the_keys_it_replaces_at_their_defaults(self, entries, tmp_path):
        k_path = tmp_path / "k.txt"
        k_path.write_text(_k_table(0.0))
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[potential-wave]\nk_table = {k_path}\n{entries}\n")
        assert cli.main(["--scenario", "potential-wave", "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--check"]) == 0

    @pytest.mark.parametrize("entries", ["t = 236.5", "speeds = 1,2,709"])
    def test_decoherence_just_inside_the_float_range_runs(self, entries, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[decoherence]\n{entries}\n")
        assert cli.main(["--scenario", "decoherence", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0

    def test_free_wave_window_above_the_float_spacing_passes_check(self, tmp_path):
        # At v*t = 1e14 the float spacing is 2^-6, under span/(n-1) = 0.025.
        cfg = tmp_path / "run.ini"
        cfg.write_text("[free-wave]\ntimes = 1e14\n")
        assert cli.main(["--scenario", "free-wave", "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--check"]) == 0

    @pytest.mark.parametrize(
        "scenario, entries",
        [
            # exp underflows to 0.0 in the tail (exp(-3000) here, exp(-s) past s ~ 745):
            # the zeros end the strictly falling values, so the monotone checks hold.
            ("free-wave", "v = 1e-3"),
            ("field", "s_max = 800"),
            ("field", "s_max = 1e300"),
            ("field", "s_max = 1e308"),
        ],
    )
    def test_underflowed_tail_passes_the_monotone_checks(self, scenario, entries, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{scenario}]\n{entries}\n")
        assert cli.main(["--scenario", scenario, "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--check"]) == 0

    @pytest.mark.parametrize("entries", ["v = 1", "v = 1e-3"])
    def test_flipped_envelope_fails_the_monotone_check(self, entries, tmp_path, capsys,
                                                       monkeypatch):
        # Reversed, the envelope rises towards its arrival line, and an underflowed
        # tail's zeros come first.
        density = pdwave.freewave.prob_density_free
        monkeypatch.setattr(pdwave.freewave, "prob_density_free", lambda *a: density(*a)[::-1])
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[free-wave]\n{entries}\n")
        assert cli.main(["--scenario", "free-wave", "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--check"]) == 3
        err = capsys.readouterr().err
        assert all(f"envelope_monotone_t{i}" in err for i in range(3))
        assert "peak_density_one" not in err
        assert (tmp_path / "out" / "report.json").is_file()

    @pytest.mark.parametrize(
        "scenario, entries",
        [
            # R = v, so the quantum-potential term hbar*(R/v)^2/(8m) is hbar/8m.
            ("field", "v = 1e-300"),
            ("entropy", "v = 1e-300"),
            ("composite", "system_speeds = 1e-300,1"),
            ("decoherence", "speeds = 1e-300,1,2"),
        ],
    )
    def test_tiny_speed_with_equal_rate_passes_check(self, scenario, entries, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{scenario}]\n{entries}\n")
        assert cli.main(["--scenario", scenario, "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--check"]) == 0

    def test_tiny_contour_rate_passes_the_closed_form(self, tmp_path):
        # The expected segment integral -expm1(-R/v)*v/R stays 1 as R/v -> 0,
        # where (1 - exp(-R/v))*v/R would cancel to 0.
        cfg = tmp_path / "run.ini"
        cfg.write_text("[contour]\nR = 1e-300\n")
        assert cli.main(["--scenario", "contour", "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--check"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_passed"]

    def test_failed_run_leaves_existing_out_unchanged(self, tmp_path, monkeypatch):
        def fails_after_writing(p, report):
            yield "field", {"s": [0.0]}
            raise cli.ConvergenceError("solver gave up")

        monkeypatch.setitem(cli._TABLE, "field", (fails_after_writing, cli._TABLE["field"][1]))
        (tmp_path / "sentinel.txt").write_text("kept\n")
        assert cli.main(["--scenario", "field", "--out", str(tmp_path)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["sentinel.txt"]

    def test_directory_target_leaves_out_unchanged(self, tmp_path, capsys):
        # An earlier run with other values, with one of its files now a directory.
        out, cfg = tmp_path / "out", tmp_path / "run.ini"
        cfg.write_text("[free-wave]\nR = 0.5\n")
        assert cli.main(["--scenario", "free-wave", "--config", str(cfg), "--out", str(out)]) == 0
        (out / "free_wave_t2.csv").unlink()
        (out / "free_wave_t2.csv").mkdir()
        (out / "sentinel.txt").write_text("kept\n")
        before = {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()}
        assert cli.main(["--scenario", "free-wave", "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"pdwave: {out / 'free_wave_t2.csv'} is a directory\n"
        assert {p.name: p.is_dir() or p.read_bytes() for p in out.iterdir()} == before

    def test_failed_check_exits_three(self, tmp_path, monkeypatch):
        def broken(p, report):
            report.add("always_fails", False, 1.0)
            return ()

        monkeypatch.setitem(cli._TABLE, "field", (broken, cli._TABLE["field"][1]))
        assert cli.main(
            ["--scenario", "field", "--out", str(tmp_path), "--check"]
        ) == 3
        assert cli.main(["--scenario", "field", "--out", str(tmp_path)]) == 0


    @pytest.mark.parametrize(
        "scenario, entries",
        [
            ("sturm-liouville", "preset = square"),
            ("potential-wave", "profile = cubic"),
            ("ensemble", "weights = 0.5,-0.2"),
            ("decoherence", "weights = 0.5,0.3,-0.2"),
            ("composite", "weights = 0.5,-0.2"),
            ("ensemble", "weights = 0.5,nan"),
            ("ensemble", "weights ="),
            # A Born probability of 0 or 1 makes that outcome's z-score 0/0.
            ("ensemble", "weights = 1"),
            ("ensemble", "weights = 1e-300,1"),
            ("composite", "weights = 1e-300,1"),
            # p ~ 5e-321: sqrt(p(1-p)/n_trials) underflows to 0.
            ("ensemble", "weights = 1e-320,1,1"),
            ("composite", "weights = 1e-320,1,1\nsystem_speeds = 1,2,3\n"
                          "pointer_speeds = 1.5,2.5,3.5"),
            # 5e-324 over a sum of 2 rounds to p = 0, whose chi-square term is 0/0.
            ("ensemble", "weights = 5e-324,1,1"),
            ("composite", "weights = 5e-324,1,1\nsystem_speeds = 1,2,3\n"
                          "pointer_speeds = 1.5,2.5,3.5"),
            ("sturm-liouville", "n_eigen = 0"),
            ("sturm-liouville", "x1 = 0"),
            ("sturm-liouville", "x1 = nan"),
            ("sturm-liouville", "k0 = nan"),
            ("sturm-liouville", "n_grid = 3"),
            # n_eigen = 6 needs n_grid >= 12, 2 points per level.
            ("sturm-liouville", "n_grid = 4"),
            # exp(R*t) with R = v past the largest float: max(speeds)*max(t, 1) > 709.78,
            # through the norm law or the semigroup check's step to t = 1.
            ("decoherence", "t = 2000"),
            ("decoherence", "speeds = 1,2,710\nt = 0.5"),
            ("sturm-liouville", "k0 = 1e200"),
            ("entropy", "n = 0"),
            ("entropy", "n = 1"),
            ("field", "n = 1"),
            ("potential-wave", "t = 100"),
            ("potential-wave", "x_mp = 100"),
            ("field", "seed = abc"),
            ("field", "seed = 1.5"),
            *_OUTSIDE_DOMAIN,
        ],
    )
    def test_value_rejected_while_running_is_config_error(
        self, scenario, entries, tmp_path, capsys
    ):
        assert _failed_run_code(scenario, entries, tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("pdwave: config error: ")
        assert entries.split()[0] in err

    # The library's own ValueError messages need not name the config key.  All
    # but x1 and pointer_speeds now fail their key's domain first, and
    # _OUTSIDE_DOMAIN checks that their messages name the key; x_mp's own
    # message names it (test_value_rejected_while_running_is_config_error).
    @pytest.mark.parametrize(
        "scenario, entries",
        [
            ("free-wave", "v = 0"),
            ("free-wave", "R = -1"),
            ("free-wave", "n = 1"),
            ("free-wave", "span = 0"),
            # R = 0 keeps omega finite at v = 1e-300, and the residual grid 2v..4v
            # then lies within the finite-difference stencil's reach of the seam.
            ("free-wave", "R = 0\nv = 1e-300"),
            ("potential-wave", "n = 1"),
            ("potential-wave", "R = -1"),
            ("potential-wave", "x1 = -1"),
            ("ensemble", "n_trials = 0"),
            ("ensemble", "workers = 0"),
            ("decoherence", "speeds = -1,2,3"),
            ("entropy", "v = 0"),
            ("uncertainty", "n_samples = 1"),
            ("uncertainty", "sigma_re = -1"),
            ("contour", "v = 0"),
            ("contour", "R = -1"),
            ("composite", "n_trials = 0"),
            ("composite", "pointer_speeds = 3,3"),
            ("composite", "system_speeds = -1,2"),
            ("field", "v = 0"),
            ("field", "s_max = -1"),
        ],
    )
    def test_value_rejected_by_the_library_is_config_error(
        self, scenario, entries, tmp_path, capsys
    ):
        assert _failed_run_code(scenario, entries, tmp_path) == 1
        assert capsys.readouterr().err.startswith("pdwave: config error: ")


def _raw(value) -> str:
    """A parameter value as a config file spells it."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def test_every_default_lies_in_its_domain():
    run_defaults = {key: default for key, (default, _) in cli._RUN_KEYS.items()}
    for scenario, (_, keys) in cli._TABLE.items():
        defaults = {key: default for key, (default, _) in keys.items()} | run_defaults
        raw = {key: _raw(default) for key, default in defaults.items()}
        assert cli._resolve_parameters(scenario, raw) == defaults
        assert cli._resolve_parameters(scenario, {}) == defaults


def _k_table(bump: float) -> str:
    """An (x, k) table of k = 1 + x on 41 rows over [0, 2], its middle k raised by ``bump``."""
    k = 1.0 + np.linspace(0.0, 2.0, 41)
    k[20] += bump
    return "".join(f"{x!r} {y!r}\n" for x, y in zip(np.linspace(0.0, 2.0, 41).tolist(), k.tolist()))


# One in-domain change per scenario and key, away from the defaults, that must move some
# output byte or the exit code.  A list key changes its last element.  A file key maps
# to the file's contents before and after one value inside it changes.  [free-wave]
# mp_x = 2.5 would move no byte: it lands on a grid point of all three windows.
_REACHING_CHANGES = {
    "free-wave": {"v": "1.5", "R": "0.5", "mp_x": "2.013", "times": "1,2,3.5", "span": "2.5",
                  "n": "120"},
    "potential-wave": {"profile": "constant", "R": "0.5", "omega": "0.5", "x0": "0.5",
                       "x1": "4", "n": "200", "t": "0.25", "x_mp": "1.5",
                       "k_table": (_k_table(0.0), _k_table(0.01))},
    "ensemble": {"weights": "0.5,0.3,0.25", "workers": "2", "n_trials": "99999"},
    "decoherence": {"weights": "0.5,0.3,0.25", "speeds": "1,2,2.5", "t": "0.5"},
    "entropy": {"v": "1.5", "t_max": "1.5", "measure_at": "1", "n": "40"},
    "sturm-liouville": {"preset": "harmonic", "x0": "-0.5", "x1": "1.5", "n_eigen": "5",
                        "n_grid": "2000", "k0": "0.5"},
    "uncertainty": {"n_samples": "99999", "sigma_re": "1.5", "sigma_im": "0.5"},
    "contour": {"v": "1.5", "R": "0.5", "contour_csv": ("re_x,im_x\n0,0\n1,0\n1,1\n",
                                                       "re_x,im_x\n0,0\n1,0\n1,2\n")},
    "composite": {"weights": "0.5,0.4", "system_speeds": "1,2.5", "n_trials": "99999"},
    "field": {"s_max": "2", "n": "60"},
}
_RUN_KEY_CHANGES = {"seed": "1", "format": "json"}

# Keys whose listed change moves no byte, each with the reason it stays.  The test
# asserts that the change still moves none, so a key that gains a reader leaves here.
_UNREACHING_CHANGES = {
    ("field", "v"): ("7", "the runner builds a state from v only to pass probability_field's "
                          "guard and maps exp(-s); the bulk-emit deck sets the key, and it "
                          "gets a reader once the field is computed from the density"),
    ("composite", "pointer_speeds"): (
        "3,40", "only pair 0's factors get a dispersion_residual_fd check; each further "
                "pair's two fd residuals cost about 0.45 ms against about 3.3 ms for a "
                "whole composite item, and the two composite items sit at the median of "
                "the bulk-sampling deck, whose run_s.p50 would rise 14-28%"),
} | {(scenario, "output"): ("elsewhere", "it names the directory the files go to, so it "
                                         "has no bytes of its own") for scenario in cli.SCENARIOS}


def _run_outputs(scenario, entries, out) -> tuple:
    """Exit code and {file name: bytes} of a run of ``entries``, written to ``out``."""
    ini = out.with_suffix(".ini")
    entries = {"output": str(out)} | entries
    ini.write_text(f"[{scenario}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    code = cli.main(["--scenario", scenario, "--config", str(ini)])
    out = Path(entries["output"])
    return code, {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}


@pytest.mark.parametrize("scenario, key", sorted(
    {(s, k) for s, (_, keys) in cli._TABLE.items() for k in [*keys, *cli._RUN_KEYS]}
    | {(s, k) for s, changes in _REACHING_CHANGES.items() for k in changes}
    | set(_UNREACHING_CHANGES)))
def test_every_key_reaches_an_output(scenario, key, tmp_path):
    assert key in {**cli._TABLE[scenario][1], **cli._RUN_KEYS}, "a change of no key"
    listed = {**_REACHING_CHANGES[scenario], **_RUN_KEY_CHANGES}
    change, reason = _UNREACHING_CHANGES.get((scenario, key), (listed.get(key), None))
    assert change is not None, f"[{scenario}] {key} has no listed change"
    if key == "output":
        change = str(tmp_path / change)
    base = {}
    if isinstance(change, tuple):  # a file key: the same file, one value inside it changed
        path, (old, new) = tmp_path / "input.txt", change
        path.write_text(old)
        base, change = {key: path}, path
    first = _run_outputs(scenario, base, tmp_path / "base")
    if base:
        path.write_text(new)
    second = _run_outputs(scenario, {key: change}, tmp_path / "changed")
    assert first[0] == 0
    moved = first != second
    assert moved == (reason is None), reason or f"[{scenario}] {key} = {change} moves no byte"


def _runner_file_access(source: str) -> list[str]:
    """Each place where a ``_run_*`` function of ``source`` writes a file or reads the format."""
    found = []
    for fn in ast.parse(source).body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_run_")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in {"emit_output", "write_text", "write_bytes", "open"}:
                    found.append(f"{fn.name} calls {name}")
            elif (isinstance(node, ast.Attribute) and node.attr == "format"
                  or isinstance(node, ast.Constant) and node.value == "format"):
                found.append(f"{fn.name} reads format")
    return found


def test_runners_leave_files_to_run_scenario():
    # A runner yields (stem, table) pairs; run_scenario alone names and writes the files.
    source = Path(cli.__file__).read_text()
    assert _runner_file_access(source) == []
    assert {fn.__name__ for fn, _ in cli._TABLE.values()} <= {
        node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    offender = ('def _run_x(p, report):\n    emit_output({}, p["format"], "x.csv")\n'
                '    open("y").write("z")\n    Path("w").write_text(cfg.format)\n')
    assert sorted(_runner_file_access(offender)) == [
        "_run_x calls emit_output", "_run_x calls open", "_run_x calls write_text",
        "_run_x reads format", "_run_x reads format"]


# Values every key is also drawn from, whatever its domain: its edges and beyond.
EDGES = ["nan", "inf", "-inf", "1e-300", "-1e-300", "1e308", "-1e308", "0", "-1", ""]


def _small_in_domain(default, domain):
    """Config strings inside one key's domain, with sizes kept small."""
    text, test = domain
    if isinstance(default, str):
        if text.startswith("one of "):
            return st.sampled_from(text.removeprefix("one of ").split(", "))
        return st.sampled_from(["", "/nonexistent/table.txt"])
    if isinstance(default, int):
        lo, cap = map(int, re.fullmatch(r"an integer from (\d+) to (\d+)", text).groups())
        return st.integers(lo, min(cap, lo + 40)).map(str)
    floats = st.floats(-4.0, 4.0).filter(test).map(repr)
    if isinstance(default, tuple):
        return st.lists(floats, min_size=1, max_size=4).map(",".join)
    return floats


def _edges(domain):
    cap = re.fullmatch(r"an integer from \d+ to (\d+)", domain[0])
    return EDGES + [str(int(cap.group(1)) + 1)] if cap else EDGES


@st.composite
def _configs(draw):
    """A scenario and a value for each of its keys; zero to two keys get an edge value."""
    scenario = draw(st.sampled_from(cli.SCENARIOS))
    keys = cli._TABLE[scenario][1]
    entries = {key: draw(_small_in_domain(default, domain))
               for key, (default, domain) in keys.items()}
    for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=2, unique=True)):
        entries[key] = draw(st.sampled_from(_edges(keys[key][1])))
    return scenario, entries


def _data_files(scenario, entries, fmt):
    """The data files a successful run writes."""
    if scenario == "free-wave":
        stems = [f"free_wave_t{i}" for i in range(len(entries["times"].split(",")))]
    elif scenario == "ensemble":
        stems = ["ensemble", "ensemble_arrivals"]
    else:
        stems = [scenario.replace("-", "_")]
    names = [f"{stem}.{fmt}" for stem in stems]
    return names + ["density_matrix.json"] if scenario == "decoherence" else names


@settings(max_examples=800)
@given(config=_configs(), fmt=st.sampled_from(["csv", "json"]), existing=st.booleans())
def test_every_config_ends_in_a_documented_exit(config, fmt, existing):
    # The property: exit 0-3 with nothing raised, and --out either holds the
    # full file set with report.json or is as the run found it.
    scenario, entries = config
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(f"[{scenario}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
        out = Path(tmp) / "out"
        before = []
        if existing:
            out.mkdir()
            (out / "sentinel.txt").write_text("kept\n")
            before = ["sentinel.txt"]
        code = cli.main(["--scenario", scenario, "--config", str(ini), "--out", str(out),
                         "--format", fmt, "--check"])
        assert code in (0, 1, 2, 3)
        event(f"exit {code}")
        written = sorted(p.name for p in out.iterdir()) if out.exists() else None
        if code in (1, 2):
            assert written == (before or None)
        else:
            expected = before + ["report.json"] + _data_files(scenario, entries, fmt)
            assert written == sorted(expected)
            for name in expected:  # no NaN or infinity reaches a file
                text = (out / name).read_text()
                assert not re.search(r"\b(?:nan|inf|NaN|Infinity)\b", text), name


# Keys of the in-domain probe and how many values each takes, drawn log-uniformly
# from [0.1, 10].  With fixed finite-difference steps and a fixed composite probe
# grid, 19 free-wave configs of this draw failed dispersion_residual_fd, and 14
# composite ones failed: 3 their residual, 11 with probes past an arrival line.
_PROBE_KEYS = {"free-wave": {"v": 1, "R": 1},
               "composite": {"system_speeds": 2, "pointer_speeds": 2}}


@pytest.mark.parametrize("scenario", list(_PROBE_KEYS))
def test_in_domain_probe_passes_every_check(scenario, tmp_path):
    rng = np.random.default_rng(2026)
    failed = []
    for i in range(40):
        entries = "".join(
            f"{key} = {','.join(map(repr, (10.0 ** rng.uniform(-1.0, 1.0, n)).tolist()))}\n"
            for key, n in _PROBE_KEYS[scenario].items())
        ini, out = tmp_path / f"{i}.ini", tmp_path / f"out{i}"
        ini.write_text(f"[{scenario}]\n{entries}")
        code = cli.main(["--scenario", scenario, "--config", str(ini), "--out", str(out),
                         "--check"])
        if code != 0 or not json.loads((out / "report.json").read_text())["all_passed"]:
            failed.append(entries)
    assert failed == []


def _run_python(args, cwd):
    src = str(Path(pdwave.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_module_entry_point_runs_without_warnings(tmp_path):
    proc = _run_python(["-W", "error", "-m", "pdwave.cli", "--scenario", "contour",
                    "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert (tmp_path / "out" / "report.json").is_file()


def test_package_import_does_not_load_the_runner(tmp_path):
    proc = _run_python(["-c", "import sys, pdwave; "
                    "print('pdwave.cli' in sys.modules, 'scipy.stats' in sys.modules)"],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


SUBMODULES = ("analysis", "cli", "core", "evolution", "freewave", "measurement", "potential",
              "spectral")


def _pdwave_modules(names) -> set:
    return {m for m in names if m.split(".")[0] == "pdwave"}


def test_package_import_loads_only_core_until_a_submodule_is_used(tmp_path):
    proc = _run_python(["-c", "import json, sys, pdwave\n"
                        "before = sorted(sys.modules)\n"
                        "pdwave.freewave\n"
                        "print(json.dumps([before, sorted(sys.modules)]))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout)
    assert _pdwave_modules(before) == {"pdwave", "pdwave.core"}
    assert _pdwave_modules(after) == {"pdwave", "pdwave.core", "pdwave.freewave"}


def test_every_submodule_resolves_on_the_package():
    from pdwave import analysis, cli, core, evolution, freewave, measurement, potential, spectral

    modules = [analysis, cli, core, evolution, freewave, measurement, potential, spectral]
    assert [m.__name__ for m in modules] == [f"pdwave.{name}" for name in SUBMODULES]
    assert all(getattr(pdwave, name) is m for name, m in zip(SUBMODULES, modules))
    with pytest.raises(AttributeError, match="no_such_module"):
        pdwave.no_such_module
    assert not hasattr(pdwave, "no_such_module")


_MODULES_AFTER_RUN = """
import json, sys, threading
from pdwave import cli
imported = sorted(sys.modules)
assert cli.main(["--scenario", sys.argv[1], "--out", "out"]) == 0
print(json.dumps([imported, sorted(sys.modules), threading.active_count()]))
"""

# The pdwave submodules each scenario loads besides pdwave.core and pdwave.cli.
SCENARIO_MODULES = {
    "free-wave": {"freewave"},
    "potential-wave": {"freewave", "potential"},
    "ensemble": {"evolution", "measurement"},
    "decoherence": {"evolution", "spectral"},
    "entropy": {"evolution"},
    "sturm-liouville": {"freewave", "potential"},
    "uncertainty": {"analysis"},
    "contour": {"analysis"},
    "composite": {"evolution", "freewave", "measurement", "spectral"},
    "field": {"spectral"},
}


@pytest.mark.parametrize("scenario", ALL_SCENARIOS)
def test_scenarios_import_only_what_they_run(scenario, tmp_path):
    proc = _run_python(["-c", _MODULES_AFTER_RUN, scenario], tmp_path)
    assert proc.returncode == 0, proc.stderr
    imported, loaded, threads = json.loads(proc.stdout)
    imported, loaded = set(imported), set(loaded)
    assert threads == 1  # no thread outlives main
    assert _pdwave_modules(imported) == {"pdwave", "pdwave.core", "pdwave.cli"}
    assert "scipy" not in imported
    assert _pdwave_modules(loaded) == {"pdwave", "pdwave.core", "pdwave.cli"} | {
        f"pdwave.{name}" for name in SCENARIO_MODULES[scenario]}
    # scipy.linalg brings numpy.ma, numpy.polynomial and concurrent.futures.
    if scenario == "sturm-liouville":
        assert "scipy.linalg" in loaded and "scipy.interpolate" not in loaded
        # The eigensolve starts its one thread with no pool either.  concurrent.futures
        # itself comes with scipy.linalg, through numpy.testing; a pool would add these.
        assert not {"concurrent.futures.thread", "queue"} & loaded
    else:
        assert "scipy" not in loaded
        assert "numpy.ma" not in loaded
        # Only the Gauss-Legendre quadratures need numpy.polynomial.
        assert ("numpy.polynomial" in loaded) == (scenario in ("free-wave", "contour"))
        # The uncertainty runner starts its one thread with no pool.
        assert not {"concurrent.futures", "queue"} & loaded


def test_eigh_tridiagonal_is_a_module_function_for_the_tracer():
    # perfbench/tracer.py wraps it as a module global; a local import would bypass the span.
    fn = pdwave.potential.eigh_tridiagonal
    assert inspect.isfunction(fn) and fn.__module__ == "pdwave.potential"


# perfbench/tracer.py looks names up on pdwave by string; a signature or module change
# that drops one would break a --trace run only when the benchmark runs.
_TRACED_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
import pdwave, pdwave.cli, tracer
missing = [f"{layer}.{name}" for layer, names in tracer.EXTRA_NAMES.items() for name in names
           if not hasattr(getattr(pdwave, layer), name)]
missing += [f"{layer}.{cls}.{attr}" for layer, cls, attr, _ in tracer.METHODS
            if not hasattr(getattr(getattr(pdwave, layer), cls, None), attr)]
assert not missing, f"the tracer's names missing on pdwave: {missing}"
spans = tracer.Tracer()
spans.install(pdwave)
assert pdwave.cli.main(["--scenario", sys.argv[3], "--out", sys.argv[2]]) == 0
print(*[span["name"] for span in spans.records()], sep="\\n")
"""


def _traced_spans(scenario, tmp_path) -> list[str]:
    """The name of each span of one traced ``scenario`` run, a name once per span."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    proc = _run_python(["-c", _TRACED_RUN, str(perfbench), str(tmp_path / "out"), scenario],
                       tmp_path)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_benchmark_tracer_finds_its_names_and_traces_a_run(tmp_path):
    assert "potential.PotentialSpec" in _traced_spans("potential-wave", tmp_path)


def test_benchmark_tracer_sees_the_sturm_liouville_kernels(tmp_path):
    # The eigen-ladder workload's kernel metrics read these spans: the solve's two
    # bisections, one a grid, and the Numerov sweeps of its shooting.
    spans = _traced_spans("sturm-liouville", tmp_path)
    assert spans.count("potential.solve_sturm_liouville") == 1
    assert spans.count("potential.eigh_tridiagonal") == 2
    assert spans.count("potential._numerov_sweep") >= 1


@pytest.mark.parametrize(
    "demo", sorted((Path(__file__).parent.parent / "demos").glob("*.py")), ids=lambda p: p.name
)
def test_demo_runs_without_warnings(demo, tmp_path):
    proc = _run_python(["-W", "error", str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


class TestEmitOutput:
    def test_complex_column_pair(self, tmp_path):
        path = tmp_path / "x.csv"
        cli.emit_output({"val": [1.0 + 0.5j]}, "csv", path)
        rows = path.read_text().splitlines()
        assert rows[0] == "val_re,val_im"
        assert rows[1] == "1.000000000000,0.500000000000"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_output({"a": [], "b": []}, "csv", path)
        assert path.read_text() == "a,b\n"

    def test_scalar_repeats_down_its_column(self, tmp_path):
        path = tmp_path / "x.csv"
        cli.emit_output({"x": [1.0, 2.0], "t": 0.5}, "csv", path)
        assert path.read_text().splitlines() == [
            "x,t", "1.000000000000,0.500000000000", "2.000000000000,0.500000000000"
        ]

    def test_columns_of_unequal_length_raise(self, tmp_path):
        with pytest.raises(ValueError, match="columns differ in length"):
            cli.emit_output({"x": [1.0, 2.0], "y": [1.0]}, "csv", tmp_path / "x.csv")

    @pytest.mark.parametrize("table, column", [
        ({"x": [1.0, 2.0], "label": ["ok", "a,b"]}, "label"),
        ({"label": 'say "hi"', "n": [1, 2]}, "label"),
        ({"label": ["line\r"]}, "label"),
        ({"a\nb": [1.0]}, "a\nb"),
        ({"z,w": [1j]}, "z,w_re"),
    ])
    def test_csv_rejects_strings_it_cannot_write_unquoted(self, table, column, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(ValueError, match=re.escape(f"x.csv: column {column!r}")):
            cli.emit_output(table, "csv", path)
        assert not path.exists()
        json_path = cli.emit_output(table, "json", tmp_path / "x.json")
        assert column in json.loads(json_path.read_text(encoding="utf-8"))["records"][0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_raises_and_writes_nothing(self, fmt, bad, tmp_path):
        path = tmp_path / f"x.{fmt}"
        with pytest.raises(FloatingPointError, match=f"x.{fmt}: b_im = "):
            cli.emit_output({"a": [1.0], "b": [complex(0.0, bad)]}, fmt, path)
        assert not path.exists()

    def test_report_with_non_finite_value_raises(self, tmp_path, monkeypatch, capsys):
        report = cli.Report(scenario="field", seed=0)
        with pytest.raises(FloatingPointError,
                           match="^report.json: residual = nan is not finite$"):
            report.add_residual("residual", float("nan"), 1e-12)
        assert report.checks == []
        # In a run the check's NaN ends it with exit 2, and no report.json is written.
        monkeypatch.setattr(pdwave.spectral, "probability_field", lambda s, state: math.nan)
        assert _failed_run_code("field", "", tmp_path) == 2
        assert "report.json: field_at_ln2_is_half = nan is not finite" in capsys.readouterr().err

    def test_json_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "x.json"
        values = {"a": math.pi, "b": 1.0 / 3.0, "c": 2.0 ** -52, "z": 0.1 + 0.2j}
        cli.emit_output(values, "json", path)  # scalars: a one-row table
        loaded = json.loads(path.read_text())["records"][0]
        assert loaded["a"] == math.pi
        assert loaded["b"] == 1.0 / 3.0
        assert loaded["c"] == 2.0 ** -52
        assert loaded["z_re"] == (0.1 + 0.2j).real
        assert loaded["z_im"] == (0.1 + 0.2j).imag


def _old_format_float(x: float) -> str:
    if x != 0.0 and (abs(x) >= 1e16 or abs(x) < 1e-12):
        return f"{x:.12e}"
    return f"{x:.12f}"


def _old_emit_text(table: dict, fmt: str) -> str:
    """Reference writer: per-row dicts through ``json.dumps``, per-cell ``_old_format_float``."""
    lengths = {np.size(c) for c in table.values() if np.ndim(c)}
    n = lengths.pop() if lengths else 1
    columns = {}
    for key, column in table.items():
        a = np.broadcast_to(column, (n,))
        parts = {f"{key}_re": a.real, f"{key}_im": a.imag} if a.dtype.kind == "c" else {key: a}
        columns.update(parts)
    if fmt == "csv":
        cells = [map(_old_format_float if a.dtype.kind == "f" else str, a.tolist())
                 for a in columns.values()]
        return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"
    records = [dict(zip(columns, row)) for row in zip(*(a.tolist() for a in columns.values()))]
    return json.dumps({"records": records}, sort_keys=True, indent=1) + "\n"


# Subnormals, signed zeros, the ends of the float range and both sides of the
# thresholds where the writers switch to scientific notation: 1e-12 and 1e16 in
# CSV, 1e-4 and 1e16 in JSON.
_EDGE_FLOATS = [
    v for x in (5e-324, 2.2250738585072014e-308, 1e-310, 0.0, 1e-300, 1e300,
                1.7976931348623157e308, 1e-12, 1e-4, 1e16, 0.1, 1.0 / 3.0)
    for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))
    for v in (y, -y) if math.isfinite(v)
]
_floats = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
_CELLS = {
    "float": _floats,
    "int": st.integers(-(2**63), 2**63 - 1),
    "bool": st.booleans(),
    "str": st.one_of(_texts, st.sampled_from(["π≈3.14", "ünïcödé", "日本", "a%sb", '"\\\n'])),
    "complex": st.builds(complex, _floats, _floats),
}


@st.composite
def _tables(draw):
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 50)))
    keys = draw(st.lists(st.one_of(_texts.filter(bool), st.sampled_from(["x", "P", "psi"])),
                         min_size=1, max_size=6, unique=True))
    table = {}
    for key in keys:
        kind = draw(st.sampled_from(sorted(_CELLS)))
        if draw(st.integers(0, 4)) == 0:  # a broadcast scalar
            table[key] = draw(_CELLS[kind])
        else:
            table[key] = draw(st.lists(_CELLS[kind], min_size=n, max_size=n))
    return table


def _needs_csv_quoting(table: dict) -> bool:
    """Whether a column name or string cell of ``table`` holds , " CR or LF."""
    n = max((len(c) for c in table.values() if isinstance(c, list)), default=1)
    cells = [s for c in table.values() for s in (c if isinstance(c, list) else [c] * n)
             if isinstance(s, str)]
    return any(ch in s for s in [*table, *cells] for ch in ',"\r\n')


@settings(max_examples=400, deadline=None)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_emit_output_bytes_match_the_row_wise_reference_writer(table, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        if fmt == "csv" and _needs_csv_quoting(table):
            # The reference writer wrote these unquoted, shifting or splitting rows.
            with pytest.raises(ValueError, match="t.csv: column "):
                cli.emit_output(table, fmt, Path(tmp) / "t.csv")
            return
        path = cli.emit_output(table, fmt, Path(tmp) / f"t.{fmt}")
        assert path.read_bytes() == _old_emit_text(table, fmt).encode("utf-8")


def test_json_emit_never_reaches_the_pure_python_encoder(tmp_path, monkeypatch):
    # Any indent sends json.dumps onto the pure-Python _iterencode path.
    def refuse(*args, **kwargs):
        raise AssertionError("emit_output reached json's pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    n = 2000
    x = np.linspace(-1.0, 1.0, n)
    table = {"x": x, "i": np.arange(n), "label": "ψ-wave", "psi": np.exp(1j * x)}
    path = cli.emit_output(table, "json", tmp_path / "t.json")
    records = json.loads(path.read_text(encoding="utf-8"))["records"]
    assert len(records) == n
    last = table["psi"][-1]
    assert records[-1] == {"i": n - 1, "label": "ψ-wave", "psi_im": last.imag,
                           "psi_re": last.real, "x": 1.0}


_EXACT_LIMIT = 2.0**52 / 1e12  # where the CSV writer's exact integer path ends


def _hard_floats() -> np.ndarray:
    """Floats where a %.12f, %.12e or repr cell is easy to get wrong, each with both signs.

    For repr: both sides of 1e-4; the subnormals 1e-323 and 8e-323; every power
    of 10 and of 2; integers from 2**53 to 2**63; and 1e23, whose shortest form
    has a choice of last digit.
    """
    points = [0.0, 1e-12, 1e16, _EXACT_LIMIT, 5e-324, 1e-310, 2.2250738585072014e-308,
              1.7976931348623157e308, 1.7e308, 0.5e-12, 1.5e-12, 4503.5, 4503.6, 2.0**51 / 1e12,
              *(10.0**k - 5e-13 for k in range(4)), *(10.0**k + 5e-13 for k in range(4)),
              1e-4, 1e-323, 8e-323, 1e23, *(10.0**k for k in range(-323, 309)),
              *(2.0**k for k in range(-1074, 1024)),
              *(float(2**k + 2**j) for k in range(53, 64) for j in range(k - 53, k + 1, 3))]
    near = [y for x in points for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
    return np.array([v for x in near for v in (x, -x) if math.isfinite(v)])


def _edge_table(rng: np.random.Generator, n: int) -> dict:
    """``n`` rows of every column kind, their floats mixing hard cases into random ones."""
    sign = lambda: rng.choice([-1.0, 1.0], n)
    hard = _hard_floats()
    floats = [
        np.exp(rng.uniform(-745.0, 709.0, n)) * sign(),  # subnormals up to 8e307
        rng.uniform(-2.0 * _EXACT_LIMIT, 2.0 * _EXACT_LIMIT, n),
        (2 * rng.integers(0, 2**24, n) + 1) * 2.0**-13 * sign(),  # exact ties, N + 1/2
        (2 * rng.integers(0, 2**40, n) + 1) * 2.0**-13 * sign(),  # ties past the exact range
        (rng.integers(0, 2**52, n) + 0.5) / 1e12 * sign(),  # p rounded onto or near a tie
    ]
    for x in floats:
        x[rng.integers(0, n, n // 10)] = rng.choice(hard, n // 10)
    ints = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)
    ints[:4] = [-(2**63), 2**63 - 1, 0, -1]
    return {"a": floats[0], "b": floats[1], "tie": floats[2], "far": floats[3],
            "z": floats[4] + 1j * rng.permutation(np.resize(hard, n)), "t": 0.125, "i": ints,
            "u": rng.integers(0, 2**64 - 1, n, np.uint64, endpoint=True),
            "flag": rng.random(n) < 0.5}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2_000, 12_000))
def test_csv_bytes_match_the_reference_writer_at_scale(fmt, seed, n):
    # 20,000 to 120,000 cells, several blocks of rows, in run_scenario's errstate.
    table = _edge_table(np.random.default_rng(seed), n)
    with tempfile.TemporaryDirectory() as tmp, \
            np.errstate(over="raise", invalid="raise", divide="raise"):
        path = cli.emit_output(table, fmt, Path(tmp) / f"t.{fmt}")
        assert path.read_bytes() == _old_emit_text(table, fmt).encode("utf-8")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("disabled", ["AVX512_SPR AVX512_ICL X86_V4",
                                      "AVX512_SPR AVX512_ICL X86_V4 X86_V3"])
def test_csv_bytes_do_not_depend_on_simd_dispatch(disabled, fmt, tmp_path):
    # The CSV cells come from correctly rounded IEEE operations only, and the
    # JSON float cells from integer arithmetic only, so numpy's choice of SIMD
    # kernels must not move a byte.
    hard = _hard_floats()
    table = {**_edge_table(np.random.default_rng(2026), hard.size), "hard": hard}
    np.savez(tmp_path / "table.npz", **table)
    expected = cli.emit_output(table, fmt, tmp_path / f"here.{fmt}").read_bytes()
    env = child_env(NPY_DISABLE_CPU_FEATURES=disabled)
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy does not load with {disabled} disabled: {probe.stderr[-300:]}")
    script = ("import sys, numpy as np; from pdwave import cli; t = np.load(sys.argv[1]); "
              "cli.emit_output({k: t[k] for k in t.files}, sys.argv[3], sys.argv[2])")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "table.npz"),
                           str(tmp_path / f"there.{fmt}"), fmt],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / f"there.{fmt}").read_bytes() == expected


@pytest.mark.parametrize("coretype", ["SkylakeX", "Haswell", "Nehalem"])
@pytest.mark.parametrize("golden_name", [g for g in GOLDEN_RUNS if g.startswith("sturm-liouville")])
def test_sturm_liouville_goldens_do_not_depend_on_the_blas_kernel(golden_name, coretype,
                                                                   tmp_path):
    # Each Numerov sweep is a BLAS banded solve, and OpenBLAS picks its kernels by CPU:
    # SkylakeX's fuse multiply and add where Haswell's and Nehalem's did not here.  A
    # layout of the solve that rounds as the loop does holds the goldens under each.
    env = child_env(OPENBLAS_CORETYPE=coretype)
    probe = subprocess.run(
        [sys.executable, "-c", "import numpy as np; from scipy.linalg.blas import dtbsv; "
         "dtbsv(1, np.ones((2, 2), order='F'), np.ones(2), lower=1)"],
        env=env, capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"scipy's BLAS does not run kernel {coretype}: {probe.stderr[-300:]}")
    script = "import sys; from pdwave import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", script,
                           *golden_argv(golden_name, tmp_path / "out", tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert_matches_golden(tmp_path / "out", golden_name)


@pytest.mark.parametrize("fmt, kernel, tail", [
    ("csv", "_float_cells", "\n9.000000000000,0.500000000000\n"),
    ("json", "_repr_cells", '  {\n   "t": 0.5,\n   "x": 9.0\n  }\n ]\n}\n'),
])
def test_broadcast_column_is_formatted_once(fmt, kernel, tail, tmp_path, monkeypatch):
    made = []
    cells = getattr(cli, kernel)
    monkeypatch.setattr(cli, kernel, lambda x: made.append(x.size) or cells(x))
    path = cli.emit_output({"x": np.arange(10.0), "t": 0.5}, fmt, tmp_path / f"t.{fmt}")
    assert made == [11]  # one kernel call: ten x cells and the one t cell
    assert path.read_text().endswith(tail)


@pytest.mark.parametrize("fmt, text", [("csv", "x,t\n"), ("json", '{\n "records": []\n}\n')])
def test_scalar_column_of_an_empty_table(fmt, text, tmp_path):
    path = cli.emit_output({"x": np.array([]), "t": 0.5}, fmt, tmp_path / f"t.{fmt}")
    assert path.read_text() == text
