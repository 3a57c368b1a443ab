import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdwave
from pdwave import cli


ALL_SCENARIOS = list(cli.SCENARIOS)
GOLDEN = Path(__file__).parent / "golden"
# Golden directory name -> (scenario, format) of the run it holds.
GOLDEN_RUNS = {s: (s, "csv") for s in ALL_SCENARIOS} | {
    f"{s}-json": (s, "json") for s in ("free-wave", "ensemble")
}


@pytest.mark.parametrize("golden_name", list(GOLDEN_RUNS))
def test_scenario_runs_clean_with_check(golden_name, tmp_path):
    scenario, fmt = GOLDEN_RUNS[golden_name]
    code = cli.main(
        ["--scenario", scenario, "--out", str(tmp_path), "--seed", "42", "--check",
         "--format", fmt]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is True
    assert report["scenario"] == scenario
    for check in report["checks"]:
        assert set(check) >= {"name", "passed", "value"}

    # Every file, report.json included, matches the committed golden output.
    golden = GOLDEN / golden_name
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == sorted(f.name for f in golden.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name


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
    cfg.write_text("[ensemble]\nweights = 0.6,0.4\nn_trials = 2000\nseed = 5\n")
    out = tmp_path / "out"
    assert cli.main(
        ["--scenario", "ensemble", "--config", str(cfg), "--out", str(out)]
    ) == 0
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

    def test_failed_check_exits_three(self, tmp_path, monkeypatch):
        def broken(cfg, out, report):
            report.add("always_fails", False, 1.0)

        monkeypatch.setitem(cli._RUNNERS, "field", broken)
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
        ],
    )
    def test_value_rejected_while_running_is_config_error(
        self, scenario, entries, tmp_path, capsys
    ):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{scenario}]\n{entries}\n")
        assert cli.main(
            ["--scenario", scenario, "--config", str(cfg), "--out", str(tmp_path)]
        ) == 1
        assert capsys.readouterr().err.startswith("pdwave: config error: ")


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


class TestEmitOutput:
    def test_complex_column_pair(self, tmp_path):
        path = tmp_path / "x.csv"
        cli.emit_output([{"val": 1.0 + 0.5j}], "csv", path)
        rows = path.read_text().splitlines()
        assert rows[0] == "val_re,val_im"
        assert rows[1] == "1.000000000000,0.500000000000"

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        cli.emit_output([], "csv", path, columns=["a", "b"])
        assert path.read_text() == "a,b\n"

    def test_json_round_trip_bit_exact(self, tmp_path):
        import math

        path = tmp_path / "x.json"
        values = {"a": math.pi, "b": 1.0 / 3.0, "c": 2.0 ** -52, "z": 0.1 + 0.2j}
        cli.emit_output([values], "json", path)
        loaded = json.loads(path.read_text())["records"][0]
        assert loaded["a"] == math.pi
        assert loaded["b"] == 1.0 / 3.0
        assert loaded["c"] == 2.0 ** -52
        assert loaded["z_re"] == (0.1 + 0.2j).real
        assert loaded["z_im"] == (0.1 + 0.2j).imag
