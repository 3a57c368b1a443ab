import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
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


def run_golden(golden_name, out, config_dir) -> int:
    """Exit code of the run that golden directory ``golden_name`` holds, written to ``out``.

    The run has seed 42 and ``--check``; its config file, if any, goes to ``config_dir``.
    """
    scenario, fmt, *entries = GOLDEN_RUNS[golden_name]
    config = []
    if entries:
        ini = Path(config_dir) / "golden.ini"
        ini.write_text(f"[{scenario}]\n{entries[0]}\n")
        config = ["--config", str(ini)]
    return cli.main(
        ["--scenario", scenario, "--out", str(out), "--seed", "42", "--check",
         "--format", fmt, *config]
    )


@pytest.mark.parametrize("golden_name", list(GOLDEN_RUNS))
def test_scenario_runs_clean_with_check(golden_name, tmp_path, tmp_path_factory):
    assert run_golden(golden_name, tmp_path, tmp_path_factory.mktemp("config")) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["scenario"] == GOLDEN_RUNS[golden_name][0]
    for check in report["checks"]:
        assert set(check) >= {"name", "passed", "value"}

    # Every file, report.json included, matches the committed golden output.
    golden = GOLDEN / golden_name
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == sorted(f.name for f in golden.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


@pytest.mark.parametrize(
    "entries",
    [
        "n_eigen = 1",
        # Deep forbidden region: the Numerov recurrence grows by ~1e250.
        "preset = harmonic\nx1 = 40\nn_eigen = 3",
    ],
)
def test_sturm_liouville_edge_config_passes_check(entries, tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[sturm-liouville]\n{entries}\n")
    assert cli.main(
        ["--scenario", "sturm-liouville", "--config", str(cfg),
         "--out", str(tmp_path / "out"), "--check"]
    ) == 0


def test_free_wave_has_unit_density_row(tmp_path):
    cli.main(["--scenario", "free-wave", "--out", str(tmp_path)])
    body = (tmp_path / "free_wave_t1.csv").read_text().splitlines()
    assert body[0] == "x,t,P,psi_re,psi_im"
    assert any(
        row.startswith("2.000000000000,2.000000000000,1.000000000000")
        for row in body[1:]
    )


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
    arrival_time = cli.potential.arrival_time
    monkeypatch.setattr(cli.potential, "arrival_time",
                        lambda spec, x: 1.01 * arrival_time(spec, x))
    code, report = _run_potential_wave_check(tmp_path, "R = 1.0")
    assert code == 3
    assert "degeneration_matches_free_wave" in capsys.readouterr().err
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "degeneration_matches_free_wave" in failed


def test_ensemble_csv_schema(tmp_path):
    cli.main(["--scenario", "ensemble", "--out", str(tmp_path), "--seed", "1"])
    rows = (tmp_path / "ensemble.csv").read_text().splitlines()
    assert rows[0] == "outcome,count,frequency,expected,z_score"
    assert len(rows) == 4


def test_byte_identical_reruns(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["--scenario", "ensemble", "--seed", "42"]
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


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[ensemble]\nweights = 0.6,0.4\nn_trials = 2000\nseed = 5\n"
                   f"output = {tmp_path / 'unused'}\n")
    out = tmp_path / "out"
    assert cli.main(
        ["--scenario", "ensemble", "--config", str(cfg), "--out", str(out)]
    ) == 0
    assert not (tmp_path / "unused").exists()  # --out overrides the output entry
    rows = (out / "ensemble.csv").read_text().splitlines()
    assert len(rows) == 3  # two outcomes
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 5

    out2 = tmp_path / "out2"
    cli.main(
        ["--scenario", "ensemble", "--config", str(cfg), "--seed", "9",
         "--out", str(out2)]
    )
    assert json.loads((out2 / "report.json").read_text())["seed"] == 9


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

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[ensemble]\nflux_capacitance = 1.21\n")
        assert cli.main(
            ["--scenario", "ensemble", "--config", str(cfg), "--out", str(tmp_path)]
        ) == 1

    def test_missing_table_is_runtime_error(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[potential-wave]\nv_table = /nonexistent/v.txt\nk_table = /nonexistent/k.txt\n"
        )
        assert cli.main(
            ["--scenario", "potential-wave", "--config", str(cfg),
             "--out", str(tmp_path)]
        ) == 2
        assert cfg.is_file()  # the rejected run leaves an existing --out in place

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("n_grid = 4", "could not bracket"),
            # Grid step 500: the Numerov weight turns negative below min(W).
            ("x1 = 1e6", "counts 1999 nodes below min(W)"),
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
            ("decoherence", "t = 2000", "overflow encountered in exp"),
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
        assert _failed_run_code(scenario, entries, tmp_path) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario, entries, check",
        [
            # exp(-s) underflows to 0.0 past s ~ 745, so the field stops decreasing.
            ("field", "s_max = 1e308", "field_monotone_decreasing"),
        ],
    )
    def test_extreme_in_domain_value_fails_a_named_check(
        self, scenario, entries, check, tmp_path, capsys
    ):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{scenario}]\n{entries}\n")
        assert cli.main(["--scenario", scenario, "--config", str(cfg),
                         "--out", str(tmp_path / "out"), "--check"]) == 3
        assert check in capsys.readouterr().err
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
        def fails_after_writing(cfg, out, report):
            cli.emit_output({"s": [0.0]}, cfg.format, out / "field.csv")
            raise cli.ConvergenceError("solver gave up")

        monkeypatch.setitem(cli._TABLE, "field", (fails_after_writing, cli._TABLE["field"][1]))
        (tmp_path / "sentinel.txt").write_text("kept\n")
        assert cli.main(["--scenario", "field", "--out", str(tmp_path)]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["sentinel.txt"]

    def test_failed_check_exits_three(self, tmp_path, monkeypatch):
        def broken(cfg, out, report):
            report.add("always_fails", False, 1.0)

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
            ("sturm-liouville", "n_eigen = 0"),
            ("sturm-liouville", "x1 = 0"),
            ("sturm-liouville", "x1 = nan"),
            ("sturm-liouville", "k0 = nan"),
            ("sturm-liouville", "n_grid = 3"),
            ("sturm-liouville", "k0 = 1e200"),
            ("entropy", "n = 0"),
            ("entropy", "n = 1"),
            ("field", "n = 1"),
            ("potential-wave", "t = 100"),
            ("potential-wave", "v_table = v.txt"),  # without its k_table
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
    # but x1, x_mp and pointer_speeds now fail their key's domain first, and
    # _OUTSIDE_DOMAIN checks that their messages name the key.
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
            ("potential-wave", "x_mp = 100"),
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
    for scenario, (_, keys) in cli._TABLE.items():
        defaults = {key: default for key, (default, _) in keys.items()}
        raw = {key: _raw(default) for key, default in defaults.items()}
        assert cli._resolve_parameters(scenario, raw) == defaults


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


_SCIPY_AFTER_RUNS = """
import json, sys
def scipy():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from pdwave import cli
loaded = {"import": scipy()}
for scenario in ("free-wave", "ensemble"):
    assert cli.main(["--scenario", scenario, "--out", scenario]) == 0
    loaded[scenario] = scipy()
print(json.dumps(loaded))
"""


def test_scenarios_import_only_the_scipy_they_call(tmp_path):
    proc = _run_python(["-c", _SCIPY_AFTER_RUNS], tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["import"] == []

    def under(names, package):
        return [m for m in names if m == package or m.startswith(package + ".")]

    for package in ("scipy.stats", "scipy.interpolate", "scipy.linalg", "scipy.special"):
        assert under(loaded["free-wave"], package) == [], package
    assert under(loaded["ensemble"], "scipy") == []


def test_eigh_tridiagonal_is_a_module_function_for_the_tracer():
    # perfbench/tracer.py wraps it as a module global; a local import would bypass the span.
    fn = pdwave.potential.eigh_tridiagonal
    assert inspect.isfunction(fn) and fn.__module__ == "pdwave.potential"


def test_chi_square_sf_matches_chi2_sf():
    from scipy import stats

    x = np.concatenate([np.linspace(0.0, 60.0, 601),
                        np.random.default_rng(7).uniform(0.0, 60.0, 2000)])
    # Ensembles of 2 to 9 outcomes, then large df over their own bulk and tail.
    cases = [(df, x, 1e-13) for df in range(1, 9)]
    cases += [(df, np.concatenate([x, np.linspace(0.0, 2.0 * df, 3001)]), 1e-11)
              for df in (99, 2999)]
    for df, xs, rtol in cases:
        ours = np.array([cli._chi_square_sf(float(v), df) for v in xs])
        reference = stats.chi2.sf(xs, df)
        assert np.all(np.abs(ours - reference) <= rtol * reference), df
    assert cli._chi_square_sf(0.0, 1) == 1.0


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_raises_and_writes_nothing(self, fmt, bad, tmp_path):
        path = tmp_path / f"x.{fmt}"
        with pytest.raises(FloatingPointError, match=f"x.{fmt}: b_im = "):
            cli.emit_output({"a": [1.0], "b": [complex(0.0, bad)]}, fmt, path)
        assert not path.exists()

    def test_report_with_non_finite_value_raises(self, tmp_path):
        report = cli.Report(scenario="field", seed=0)
        report.add_residual("residual", float("nan"), 1e-12)
        with pytest.raises(FloatingPointError, match="report.json: value = nan"):
            report.write(tmp_path)
        assert not (tmp_path / "report.json").exists()

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
# two thresholds where the CSV writer switches to scientific notation.
_EDGE_FLOATS = [
    v for x in (5e-324, 2.2250738585072014e-308, 1e-310, 0.0, 1e-300, 1e300,
                1.7976931348623157e308, 1e-12, 1e16, 0.1, 1.0 / 3.0)
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


@settings(max_examples=400, deadline=None)
@given(table=_tables(), fmt=st.sampled_from(["csv", "json"]))
def test_emit_output_bytes_match_the_row_wise_reference_writer(table, fmt):
    with tempfile.TemporaryDirectory() as tmp:
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
