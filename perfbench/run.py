"""pdwave benchmark: scenario runs in a closed loop, one client, one run at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from a checkout of the repository; it imports pdwave from ``src/``.
Workloads (see workloads.py for the decks):

  cold-cli       the nine fast scenarios at their defaults, each a fresh
                 ``python -m pdwave.cli`` process: import cost dominates.
  eigen-ladder   sturm-liouville runs in one warm process: Numerov shooting.
  bulk-sampling  ensemble, composite and uncertainty runs in one warm
                 process: RNG draws and moments over ~80 MB arrays.
  bulk-emit      free-wave, field, entropy and potential-wave runs at 8.5e3
                 to 8e4 points, csv and json: serialization and writes.

Every run must exit 0 under ``--check``, leave ``report.json`` with
``all_passed: true`` and every data file with the expected record count;
any other run is counted as failed and not timed.  With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` the run
is split into an untraced and a traced half and the line holds the
per-layer metrics and the tracing overhead; predictions.json lists which
end-to-end metric each layer metric should move, and where it should not.
Scratch files, raw samples and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer as tracing
import workloads
from worker import closed_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 60
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """Environment for every process started: pdwave from src/, threads capped."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            env[var] = str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def environment() -> dict:
    """Machine, library versions and the code measured."""
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = _read(f"{index}/size")
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        top, commit = git.stdout.split()
        commit = commit if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model, "caches": caches,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "git_commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def import_times(stderr: str) -> dict:
    """Seconds spent importing pdwave and scipy.stats, from ``-X importtime``.

    scipy loads ``scipy.stats`` through ``importlib``, which the log skips,
    so its cost is the sum over the outermost ``scipy.stats.*`` entries.
    """
    entries = []  # (depth, name, cumulative seconds), children before parents
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            entries.append((depth, name.strip(), int(parts[1]) / 1e6))
    pdwave = stats = 0.0
    stack = []  # (depth, inside a scipy.stats entry), walking parents first
    for depth, name, seconds in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_stats = name == "scipy.stats" or name.startswith("scipy.stats.")
        if is_stats and not inside:
            stats += seconds
        if name == "pdwave":
            pdwave = seconds
        stack.append((depth, inside or is_stats))
    return {"pdwave": pdwave, "scipy.stats": stats}


def spawn(cmd: list[str], env: dict, log: Path, timeout: float):
    """Run a process to completion; return (exit code or None, seconds, stdout)."""
    start = time.perf_counter()
    with open(log, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env,
                                cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
            code = None
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    return code, time.perf_counter() - start, stdout


class Bench:
    """One benchmark run: the deck, the scratch directory and child processes."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seconds, self.trace, self.work = workload, seconds, trace, work
        self.env = child_env()
        self.deck = workloads.make_deck(workload, seed, work / "configs")
        self.warm = workloads.warmup_item(workload, work / "configs")
        self.spans_path = work.parent / f"spans-{work.name}.jsonl.gz"
        self.imports: list[dict] = []
        self.problems: list[str] = []

    # -- cold: one process per scenario run --------------------------------

    def run_cli(self, item, out: Path, index: int, spans: Path | None = None,
                importtime: bool = False):
        args = ["--scenario", item["scenario"], "--config", item["config"],
                "--out", str(out), "--check"]
        if spans is None:
            cmd = [sys.executable, "-m", "pdwave.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(index), "--", *args]
        if importtime:
            cmd[1:1] = ["-X", "importtime"]
        log = self.work / "stderr.txt"
        code, elapsed, _ = spawn(cmd, self.env, log, RUN_TIMEOUT_S)
        if importtime:
            self.imports.append(import_times(log.read_text(encoding="utf-8")))
        return code, elapsed

    def cold(self) -> tuple[list[float], list[dict]]:
        setup = []
        for i in range(SETUP_SAMPLES):
            out = self.work / f"warmup{i}"
            code, elapsed = self.run_cli(self.warm, out, -1, importtime=self.trace)
            self.check_warmup(workloads.verify(self.warm, out, code))
            shutil.rmtree(out, ignore_errors=True)
            setup.append(elapsed)
        half = self.seconds / 2 if self.trace else self.seconds
        windows = [closed_loop(self.deck, half, self.run_cli, self.work)]
        if self.trace:
            span_dir = self.work / "spans"
            span_dir.mkdir()
            window = closed_loop(
                self.deck, half,
                lambda item, out, i: self.run_cli(item, out, i, span_dir / f"{i}.jsonl.gz"),
                self.work)
            spans = [s for path in sorted(span_dir.glob("*.jsonl.gz")) for s in tracing.load(path)]
            tracing.dump(self.spans_path, spans)
            window["layers"] = tracing.layer_metrics(spans, window["attempted"])
            windows.append(window)
        return setup, windows

    # -- warm: one worker process per benchmark run ------------------------

    def run_worker(self, setup_only: bool) -> dict:
        deck, warm = self.work / "deck.json", self.work / "warmup.json"
        deck.write_text(json.dumps(self.deck), encoding="utf-8")
        warm.write_text(json.dumps(self.warm), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "worker.py"), "--deck", str(deck), "--warmup", str(warm),
               "--workdir", str(self.work), "--seconds", str(self.seconds)]
        if self.trace:
            cmd[1:1] = ["-X", "importtime"]
        if setup_only:
            cmd.append("--setup-only")
        elif self.trace:
            cmd += ["--spans", str(self.spans_path)]
        log = self.work / "stderr.txt"
        code, _, stdout = spawn(cmd, self.env, log, self.seconds + 120)
        stderr = log.read_text(encoding="utf-8")
        if code != 0:
            sys.stderr.write(stderr[-4000:])
            raise SystemExit(f"perfbench: worker exited with {code}")
        sys.stderr.write("".join(line + "\n" for line in stderr.splitlines()
                                 if line.startswith("perfbench:")))
        if self.trace:
            self.imports.append(import_times(stderr))
        result = json.loads(stdout.strip().splitlines()[-1])
        self.check_warmup(result["warmup_problem"])
        return result

    def warm_loop(self) -> tuple[list[float], list[dict]]:
        probes = [self.run_worker(setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        final = self.run_worker(setup_only=False)
        return [r["setup_s"] for r in probes + [final]], final["windows"]

    # -- shared ------------------------------------------------------------

    def check_warmup(self, problem: str | None) -> None:
        if problem is not None:
            self.problems.append(f"warm-up run failed: {problem}")
            print(f"perfbench: warm-up run failed: {problem}", file=sys.stderr)

    def run(self) -> tuple[list[float], list[dict]]:
        return self.cold() if self.workload == "cold-cli" else self.warm_loop()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def runs_per_s(window: dict) -> float:
    return len(window["samples"]) / window["busy_s"] if window["busy_s"] else 0.0


def p75(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=4)[2] if len(samples) > 1 else samples[0]


def end_to_end(setup: list[float], window: dict) -> dict:
    samples = window["samples"]
    return {
        "runs_per_s": metric(runs_per_s(window), "1/s"),
        "run_s.p50": metric(statistics.median(samples), "s"),
        "run_s.p75": metric(p75(samples), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                              "MB"),
        "success_ratio": metric(len(samples) / window["attempted"], "ratio"),
    }


# Layer metrics are means per traced scenario run, except rates and ratios.
LAYER_UNITS = {"calls": "count/run", "rows": "count/run", "points": "count/run",
               "draws": "count/run", "numerov_energies": "count/run",
               "gauss_segments": "count/run", "density_matrix_builds": "count/run",
               "draws_per_s": "1/s", "numerov_energies_per_eigenvalue": "ratio",
               "accepted_segment_ratio": "ratio"}


def per_layer(imports: list[dict], untraced: dict, traced: dict) -> dict:
    out = {
        "import.pdwave_s": metric(statistics.median(i.get("pdwave", 0.0) for i in imports), "s"),
        "import.scipy_stats_s": metric(
            statistics.median(i.get("scipy.stats", 0.0) for i in imports), "s"),
    }
    for name, value in traced["layers"].items():
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s/run")
        out[name] = metric(value, unit)
    succeeded = len(traced["samples"])
    out["cli.bytes_written"] = metric(
        traced["bytes_written"] / succeeded if succeeded else 0.0, "B/run")
    out["trace.runs"] = metric(traced["attempted"], "count")
    out["trace.overhead_runs_per_s"] = metric(runs_per_s(untraced) - runs_per_s(traced), "1/s")
    return out


def report(args, bench: Bench, setup: list[float], windows: list[dict]) -> dict:
    attempted = sum(w["attempted"] for w in windows)
    failed = sum(w["failed"] for w in windows)
    timed = windows[0]["samples"]
    if not timed:
        raise SystemExit("perfbench: no run succeeded, nothing to time")
    beyond = sum(t > p75(timed) for t in timed)
    print(f"perfbench {args.workload} seed {args.seed}: {len(timed)} timed runs "
          f"({beyond} beyond p75), {failed} of {attempted} failed "
          f"(failed_ratio {failed / attempted:.4f})")
    if args.trace:
        metrics = per_layer(bench.imports, windows[0], windows[1])
        print(f"  tracing overhead: {runs_per_s(windows[0]):.4f} untraced - "
              f"{runs_per_s(windows[1]):.4f} traced runs/s")
    else:
        metrics = end_to_end(setup, windows[0])
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not bench.problems
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test(work: Path) -> int:
    """A config pdwave cannot run must count as one failed run, cold and warm."""
    bench = Bench("cold-cli", 0, 3.0, False, work)
    bench.deck = [workloads.failing_item(work / "configs"),
                  workloads.warmup_item("cold-cli", work / "configs")]
    results = {"cold": closed_loop(bench.deck, 3.0, bench.run_cli, work)}
    bench.warm = bench.deck[1]
    bench.seconds = 1.0
    results["warm"] = bench.run_worker(setup_only=False)["windows"][0]
    ok = True
    for mode, window in results.items():
        expected = (window["attempted"] + 1) // 2  # the failing config comes first
        passed = window["attempted"] >= 2 and window["failed"] == expected
        ok &= passed
        print(f"self-test {mode}: {window['failed']} of {window['attempted']} runs failed, "
              f"expected {expected}: {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pdwave" / "__init__.py").is_file():
        print(f"perfbench: no pdwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    work = ROOT / ".perfbench" / (
        "self-test" if args.self_test else f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.self_test:
            return self_test(work)
        env = environment()
        print("environment: " + json.dumps(env))
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
        setup, windows = bench.run()
        (work.parent / f"samples-{work.name}.json").write_text(
            json.dumps({"environment": env, "setup": setup, "windows": windows}),
            encoding="utf-8")
        result = report(args, bench, setup, windows)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
