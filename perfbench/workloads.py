"""Seeded workload decks of pdwave scenario configs, and output verification.

A deck is the list of scenario runs one benchmark run cycles through.  Each
item is an INI config file that pdwave reads, plus the data files (and
their row counts) a correct run must leave next to ``report.json``.  The
workload seed fixes every generated value.  Run sizes vary with the seed by
a percent or less, so seeds differ in inputs and order but hardly in the
amount of work per deck cycle.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("cold-cli", "eigen-ladder", "bulk-sampling", "bulk-emit")

# pdwave's scenario defaults, as far as the expected row counts depend on them.
DEFAULTS = {
    "free-wave": {"v": 1.0, "mp_x": 2.0, "times": [1.0, 2.0, 3.0], "span": 3.0, "n": 121},
    "potential-wave": {"profile": "linear", "x0": 0.0, "x1": 5.0, "n": 201, "t": 0.5},
    "ensemble": {"weights": [0.5, 0.3, 0.2]},
    "decoherence": {},
    "entropy": {"n": 41},
    "sturm-liouville": {"n_eigen": 6},
    "uncertainty": {},
    "contour": {},
    "composite": {"weights": [0.5, 0.5]},
    "field": {"n": 61},
}

COLD_SCENARIOS = ("free-wave", "potential-wave", "ensemble", "decoherence", "entropy",
                  "uncertainty", "contour", "composite", "field")

# One rung per n_eigen from 4 to 10.  Shooting integrates about 54 trial
# energies per eigenvalue, each over n_grid points, so n_grid ~ 8000/n_eigen
# (kept within 1001..2001) gives every rung about the same Numerov work.
LADDER = [(n_eigen, min(2001, max(1001, round(8008 / n_eigen)))) for n_eigen in range(4, 11)]

# Ensemble and composite runs end in 3-sigma and chi-square checks, which
# by design fail about one run in a hundred.  Their configs, pdwave seeds
# included, are therefore fixed (each passes with the sampler pdwave had when
# this benchmark was written); the workload seed varies their order and the
# uncertainty runs.
SAMPLING = [
    ("ensemble", {"weights": "0.5,0.3,0.2", "n_trials": 10_000_000, "workers": 1, "seed": 11}),
    ("ensemble", {"weights": "0.1,0.2,0.3,0.15,0.25", "n_trials": 10_000_000,
                  "workers": 2, "seed": 12}),
    ("ensemble", {"weights": "1,2,3,4,5,6,7,8", "n_trials": 10_000_000, "workers": 1,
                  "seed": 13}),
    ("ensemble", {"weights": "3,1,2,5", "n_trials": 9_000_000, "workers": 2, "seed": 14}),
    ("composite", {"weights": "0.5,0.5", "system_speeds": "1.0,2.0",
                   "pointer_speeds": "3.0,4.0", "n_trials": 8_000_000, "seed": 15}),
    ("composite", {"weights": "0.2,0.3,0.5", "system_speeds": "1.0,1.5,2.5",
                   "pointer_speeds": "3.0,3.5,4.0", "n_trials": 8_000_000, "seed": 16}),
]
UNCERTAINTY_RUNS = 4

# Points per run for each (scenario, format), sized so that every bulk-emit
# run cost about 0.3 s when this benchmark was written: run-time quantiles
# then fall inside one cluster instead of between cheap and dear runs.
EMIT_POINTS = {
    ("free-wave", "csv"): 15_000, ("free-wave", "json"): 8_500,  # per time, 3 times
    ("field", "csv"): 80_000, ("field", "json"): 28_000,
    ("entropy", "csv"): 70_000, ("entropy", "json"): 36_000,
    ("potential-wave", "csv"): 45_000, ("potential-wave", "json"): 26_000,
}


def _floats(raw) -> list[float]:
    if isinstance(raw, str):
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    return list(raw)


def _free_wave_rows(p: dict) -> list[int]:
    # The runner adds the measurement point to a window that contains it,
    # unless the grid already holds it: count with the same grid.
    import numpy as np

    rows = []
    for t in _floats(p["times"]):
        peak = p["v"] * t
        lo, hi = (peak, peak + p["span"]) if peak <= p["mp_x"] else (peak - p["span"], peak)
        xs = np.linspace(lo, hi, p["n"])
        if lo <= p["mp_x"] <= hi:
            xs = np.unique(np.concatenate([xs, [p["mp_x"]]]))
        rows.append(int(xs.size))
    return rows


def _tau(profile: str, dx: float) -> float:
    # Arrival time from the domain start with hbar = m = 1: k(x) is 1
    # (constant) or 1 + (x - x0) (linear), and v = k.
    return dx if profile == "constant" else math.log1p(dx)


def _potential_wave_rows(p: dict) -> int:
    """Probes the runner keeps: those the wave has not yet reached at t."""
    step = (p["x1"] - p["x0"]) / (p["n"] - 1)
    cut = p["t"] + 1e-9
    rows = 0
    for i in range(p["n"]):
        tau = _tau(p["profile"], i * step)
        if abs(tau - cut) < 1e-7:
            raise ValueError("probe too close to the arrival front for a definite count")
        rows += tau >= cut
    return rows


def expected_files(scenario: str, params: dict, fmt: str) -> dict:
    """Data files a correct run writes, mapped to their record count."""
    p = {**DEFAULTS[scenario], **params}
    if scenario == "free-wave":
        return {f"free_wave_t{i}.{fmt}": n for i, n in enumerate(_free_wave_rows(p))}
    if scenario == "potential-wave":
        return {f"potential_wave.{fmt}": _potential_wave_rows(p)}
    if scenario == "ensemble":
        k = len(_floats(p["weights"]))
        return {f"ensemble.{fmt}": k, f"ensemble_arrivals.{fmt}": k}
    if scenario == "decoherence":
        return {f"decoherence.{fmt}": 1, "density_matrix.json": None}
    if scenario == "entropy":
        return {f"entropy.{fmt}": int(p["n"]) + 1}  # one post-measurement row
    if scenario == "sturm-liouville":
        return {f"sturm_liouville.{fmt}": int(p["n_eigen"])}
    if scenario == "uncertainty":
        return {f"uncertainty.{fmt}": 1}
    if scenario == "contour":
        return {f"contour.{fmt}": 4}
    if scenario == "composite":
        return {f"composite.{fmt}": len(_floats(p["weights"]))}
    if scenario == "field":
        return {f"field.{fmt}": int(p["n"])}
    raise ValueError(f"unknown scenario {scenario!r}")


def _item(cfg_dir: Path, label: str, scenario: str, params: dict, fmt: str = "csv") -> dict:
    lines = [f"[{scenario}]"] + [f"{k} = {v}" for k, v in params.items()]
    lines.append(f"format = {fmt}")
    path = cfg_dir / f"{label}.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"label": label, "scenario": scenario, "config": str(path),
            "expected": expected_files(scenario, params, fmt)}


def _emit_params(rng: random.Random, scenario: str, fmt: str) -> dict:
    n = EMIT_POINTS[scenario, fmt] + rng.randrange(-200, 201)
    if scenario == "free-wave":
        v = round(rng.uniform(0.8, 1.5), 4)
        return {"v": v, "R": round(v * rng.uniform(0.7, 1.3), 4), "mp_x": 2.0,
                "times": ",".join(f"{t:.4f}" for t in sorted(rng.uniform(0.2, 4.0)
                                                              for _ in range(3))),
                "span": round(rng.uniform(2.0, 3.0), 4), "n": n}
    if scenario == "field":
        return {"s_max": round(rng.uniform(2.0, 4.0), 4), "n": n,
                "v": round(rng.uniform(0.5, 2.0), 4)}
    if scenario == "entropy":
        t_max = round(rng.uniform(1.0, 3.0), 4)
        return {"v": round(rng.uniform(0.5, 3.0), 4), "t_max": t_max, "n": n,
                "measure_at": round(rng.uniform(0.0, t_max), 4)}
    # potential-wave: x0 = 0 and R = 1 keep the constant profile's
    # free-wave comparison valid; t sits midway between two probes.
    profile = rng.choice(("constant", "linear"))
    x1 = round(rng.uniform(4.0, 6.0), 4)
    step = x1 / (n - 1)
    i = rng.randrange(n // 20, n // 5)
    t = 0.5 * (_tau(profile, i * step) + _tau(profile, (i + 1) * step))
    return {"profile": profile, "x0": 0.0, "x1": x1, "n": n, "t": t, "x_mp": 1.0}


def make_deck(workload: str, seed: int, cfg_dir: Path) -> list[dict]:
    """The seeded list of scenario runs one benchmark run cycles through."""
    rng = random.Random(f"{workload}:{seed}")
    cfg_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cold-cli":
        order = list(COLD_SCENARIOS)
        rng.shuffle(order)
        return [_item(cfg_dir, f"{i:02d}-{s}", s, {}) for i, s in enumerate(order)]
    if workload == "eigen-ladder":
        presets = ["box", "harmonic"] * 4
        rng.shuffle(presets)
        rungs = list(LADDER)
        rng.shuffle(rungs)
        return [
            _item(cfg_dir, f"{i:02d}-{presets[i]}-e{n_eigen}", "sturm-liouville",
                  {"preset": presets[i], "n_eigen": n_eigen,
                   "n_grid": min(2001, max(1001, n_grid + rng.randrange(-25, 26)))})
            for i, (n_eigen, n_grid) in enumerate(rungs)
        ]
    if workload == "bulk-sampling":
        runs = list(SAMPLING)
        for _ in range(UNCERTAINTY_RUNS):
            runs.append(("uncertainty", {
                "n_samples": 3_000_000 + rng.randrange(-50_000, 50_001),
                "sigma_re": round(rng.uniform(1.5, 3.0), 4),
                "sigma_im": round(rng.uniform(0.5, 1.2), 4),
                "seed": rng.randrange(2**32)}))
        rng.shuffle(runs)
        return [_item(cfg_dir, f"{i:02d}-{s}", s, dict(p)) for i, (s, p) in enumerate(runs)]
    if workload == "bulk-emit":
        runs = list(EMIT_POINTS)
        rng.shuffle(runs)
        return [_item(cfg_dir, f"{i:02d}-{s}-{fmt}", s, _emit_params(rng, s, fmt), fmt)
                for i, (s, fmt) in enumerate(runs)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_item(workload: str, cfg_dir: Path) -> dict:
    """The fixed run a process makes before timing, the same for every seed."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    if workload == "cold-cli":
        return _item(cfg_dir, "warmup", "contour", {})
    if workload == "eigen-ladder":
        return _item(cfg_dir, "warmup", "sturm-liouville",
                     {"preset": "box", "n_eigen": 4, "n_grid": 1001})
    if workload == "bulk-sampling":
        return _item(cfg_dir, "warmup", "ensemble",
                     {"weights": "0.5,0.3,0.2", "n_trials": 1_000_000, "seed": 11})
    if workload == "bulk-emit":
        return _item(cfg_dir, "warmup", "free-wave", {"n": 2000}, "json")
    raise ValueError(f"unknown workload {workload!r}")


def failing_item(cfg_dir: Path) -> dict:
    """A config pdwave accepts but cannot run: an empty entropy grid."""
    cfg_dir.mkdir(parents=True, exist_ok=True)
    return _item(cfg_dir, "failing", "entropy", {"n": 0})


def _records(path: Path) -> int:
    if path.suffix == ".csv":
        lines = path.read_text(encoding="utf-8").splitlines()
        return len([line for line in lines if line]) - 1  # header row
    return len(json.loads(path.read_text(encoding="utf-8"))["records"])


def verify(item: dict, out: Path, exit_code) -> str | None:
    """Why a run's outputs are wrong, or None if they are all correct."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report.get("scenario") != item["scenario"] or not report.get("checks"):
            return "report.json names another scenario or has no checks"
        if report.get("all_passed") is not True:
            failed = [c["name"] for c in report["checks"] if not c.get("passed")]
            return f"checks failed: {', '.join(failed)}"
        for name, rows in item["expected"].items():
            if not (out / name).is_file():
                return f"missing {name}"
            if rows is not None and (got := _records(out / name)) != rows:
                return f"{name} has {got} records, expected {rows}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def bytes_written(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
