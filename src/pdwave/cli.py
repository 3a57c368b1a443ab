"""Scenario runner: drives every module from a config file, emits data + report.

Usage: pdwave --scenario NAME [--config PATH] [--out DIR] [--seed N]
              [--format csv|json] [--check]

Config files are flat INI text with one section per scenario and
``key = value`` entries; command-line flags override config keys.  Every
run writes the scenario's data files plus a ``report.json`` listing each
invariant check with its residual and pass/fail.  Exit codes: 0 success,
1 config parse error, 2 numerical non-convergence or I/O failure, 3 a
check failed in ``--check`` mode.  Values rejected while a scenario runs
(an unknown preset, non-positive weights) are config errors too.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from . import analysis, evolution, freewave, measurement, potential, spectral
from .core import (
    Branch,
    ConvergenceError,
    make_free_state,
)

__all__ = ["ScenarioConfig", "run_scenario", "emit_output", "main"]

# Every scenario's parameters and their defaults; a key's type is the type of
# its default (tuples hold comma-separated floats).
_DEFAULTS: dict[str, dict] = {
    "free-wave": {"v": 1.0, "R": 1.0, "mp_x": 2.0, "times": (1.0, 2.0, 3.0),
                  "span": 3.0, "n": 121},
    "potential-wave": {"profile": "linear", "R": 1.0, "omega": 0.375,
                       "x0": 0.0, "x1": 5.0, "n": 201, "t": 0.5,
                       "x_mp": 1.0, "v_table": "", "k_table": ""},
    "ensemble": {"weights": (0.5, 0.3, 0.2), "n_trials": 100000, "workers": 1},
    "decoherence": {"weights": (0.5, 0.3, 0.2), "speeds": (1.0, 2.0, 3.0), "t": 1.0},
    "entropy": {"v": 1.0, "t_max": 2.0, "n": 41, "measure_at": 2.0},
    "sturm-liouville": {"preset": "box", "x0": 0.0, "x1": 1.0, "n_eigen": 6,
                        "n_grid": 2001, "k0": 0.0},
    "uncertainty": {"n_samples": 100000, "sigma_re": 2.0, "sigma_im": 1.0},
    "contour": {"v": 1.0, "R": 1.0, "contour_csv": ""},
    "composite": {"weights": (0.5, 0.5), "system_speeds": (1.0, 2.0),
                  "pointer_speeds": (3.0, 4.0), "n_trials": 100000},
    "field": {"s_max": 3.0, "n": 61, "v": 1.0},
}

SCENARIOS = tuple(_DEFAULTS)


class ConfigError(ValueError):
    """Malformed configuration (unknown scenario, bad key, bad value)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully resolved scenario run request."""

    scenario: str
    parameters: dict
    seed: int = 0
    output: str = "."
    format: str = "csv"
    check: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")


# ---------------------------------------------------------------------------
# Output helpers


def _format_float(x: float) -> str:
    if x != x or abs(x) in (float("inf"),):
        return repr(x)
    if x != 0.0 and (abs(x) >= 1e16 or abs(x) < 1e-12):
        return f"{x:.12e}"
    return f"{x:.12f}"


def _flatten_record(record: dict) -> dict:
    flat = {}
    for key, value in record.items():
        if isinstance(value, complex):
            flat[f"{key}_re"] = float(value.real)
            flat[f"{key}_im"] = float(value.imag)
        elif isinstance(value, (np.floating,)):
            flat[key] = float(value)
        elif isinstance(value, (np.integer,)):
            flat[key] = int(value)
        else:
            flat[key] = value
    return flat


def emit_output(records, fmt: str, path, columns: list[str] | None = None) -> Path:
    """Write records (list of dicts) as CSV or JSON.

    CSV: UTF-8, comma separated, one header row, floats at 12 digits after
    the point, complex values split into ``_re``/``_im`` column pairs.
    JSON: a single object with full-precision floats (round-trips
    bit-exactly) and deterministic key order.  ``columns`` pins the header
    for an empty record set.
    """
    path = Path(path)
    flat = [_flatten_record(r) for r in records]
    columns = list(columns) if columns is not None else []
    for r in flat:
        for key in r:
            if key not in columns:
                columns.append(key)
    if fmt == "csv":
        lines = [",".join(columns)]
        for r in flat:
            cells = []
            for key in columns:
                value = r.get(key, "")
                if isinstance(value, bool):
                    cells.append(str(int(value)))
                elif isinstance(value, float):
                    cells.append(_format_float(value))
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        path.write_text(
            json.dumps({"records": flat}, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return path


@dataclass
class Report:
    """Accumulates named invariant checks for report.json."""

    scenario: str
    seed: int
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, value: float, tolerance: float | None = None):
        entry = {"name": name, "passed": bool(passed), "value": float(value)}
        if tolerance is not None:
            entry["tolerance"] = float(tolerance)
        self.checks.append(entry)

    def add_residual(self, name: str, residual: float, tolerance: float):
        self.add(name, abs(residual) <= tolerance, residual, tolerance)

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def write(self, out_dir: Path) -> Path:
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "checks": self.checks,
            "all_passed": self.all_passed,
        }
        path = out_dir / "report.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", "utf-8")
        return path


# ---------------------------------------------------------------------------
# Parameter parsing


def _parse_value(scenario: str, key: str, raw: str, default):
    """Parse a config string as the type of the key's default."""
    try:
        if isinstance(default, tuple):
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if isinstance(default, str):
            return raw.strip()
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"[{scenario}] {key} = {raw!r}: {exc}") from exc


def _resolve_parameters(scenario: str, overrides: dict) -> dict:
    defaults = _DEFAULTS[scenario]
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"[{scenario}] unknown keys: {sorted(unknown)}")
    parsed = {
        key: _parse_value(scenario, key, raw, defaults[key])
        for key, raw in overrides.items()
    }
    return {**defaults, **parsed}


def load_config(path, scenario: str) -> dict:
    """Read the scenario's section from a flat INI config file."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys like "R" are case-sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not parser.has_section(scenario):
        return {}
    return dict(parser.items(scenario))


# ---------------------------------------------------------------------------
# Scenario implementations


def _run_free_wave(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = make_free_state(p["v"], p["R"])
    for idx, t in enumerate(p["times"]):
        peak = state.v * t
        if peak <= p["mp_x"]:
            branch_state = state
            lo, hi = peak, peak + p["span"]
        else:
            branch_state = dataclasses.replace(state, branch=Branch.OUTGOING)
            lo, hi = peak - p["span"], peak
        xs = np.linspace(lo, hi, p["n"])
        if lo <= p["mp_x"] <= hi:
            xs = np.unique(np.concatenate([xs, [p["mp_x"]]]))
        psi = freewave.psi_free(branch_state, xs, t)
        dens = freewave.prob_density_free(branch_state, xs, t)
        records = [
            {"x": float(x), "t": t, "P": float(d), "psi": complex(c)}
            for x, d, c in zip(xs, dens, psi)
        ]
        emit_output(records, cfg.format, out / f"free_wave_t{idx}.{cfg.format}")
        report.add_residual(f"peak_density_one_t{idx}", float(np.max(dens)) - 1.0, 1e-12)
        monotone = np.all(np.diff(dens) < 0) if branch_state.branch is Branch.INCOMING \
            else np.all(np.diff(dens) > 0)
        report.add(f"envelope_monotone_t{idx}", bool(monotone), float(np.max(np.abs(np.diff(dens)))))

    seam = freewave.psi_free(state, state.v * 5.0, 5.0) - freewave.psi_free(
        dataclasses.replace(state, branch=Branch.OUTGOING), state.v * 5.0, 5.0
    )
    report.add_residual("branch_continuity_at_seam", abs(seam), 1e-12)
    grid = freewave.Grid1D(2.0 * state.v, 4.0 * state.v, 101, 1.0)
    report.add_residual(
        "dispersion_residual_analytic", freewave.schrodinger_residual(state, grid), 1e-12
    )
    report.add_residual(
        "dispersion_residual_fd",
        freewave.schrodinger_residual(state, grid, method="fd", relative=True),
        1e-6,
    )
    normalized = freewave.normalize_state(state)
    report.add_residual(
        "normalization_closed_vs_quadrature",
        freewave.total_probability(normalized)
        - freewave.total_probability_quadrature(normalized),
        1e-8,
    )


def _make_potential_spec(p: dict) -> potential.PotentialSpec:
    if p["v_table"] and p["k_table"]:
        return potential.load_potential_tables(
            p["v_table"], p["k_table"], R=p["R"], omega=p["omega"]
        )
    xs = np.linspace(p["x0"], p["x1"], p["n"])
    if p["profile"] == "constant":
        kx = np.ones_like(xs)
    elif p["profile"] == "linear":
        kx = 1.0 + xs - xs[0]
    else:
        raise ConfigError(f"unknown potential profile {p['profile']!r}")
    return potential.PotentialSpec(
        x_samples=xs, V=np.zeros_like(xs), kx=kx, R=p["R"], omega=p["omega"]
    )


def _run_potential_wave(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    spec = _make_potential_spec(p)
    xs = np.linspace(spec.x_start, spec.x_end, p["n"])
    t = p["t"]
    tau = potential.arrival_time(spec, xs)
    inside = xs[tau >= t + 1e-9]
    psi = potential.psi_potential(spec, Branch.INCOMING, inside, t, x_mp=p["x_mp"])
    dens = potential.prob_density_potential(spec, Branch.INCOMING, inside, t, x_mp=p["x_mp"])
    records = [
        {"x": float(x), "t": t, "P": float(d), "psi": complex(c)}
        for x, d, c in zip(inside, dens, psi)
    ]
    emit_output(records, cfg.format, out / f"potential_wave.{cfg.format}")

    mp = potential.mp_limit_check(spec, p["x_mp"])
    report.add("mp_density_and_prefactor_one", mp.D_equals_k_mp, 1.0)
    report.add("mp_rate_zero_consistent", mp.R_zero_consistent, 0.0)
    report.add_residual("mp_plane_wave_residual", mp.plane_wave_residual, 1e-10)
    arrive = potential.arrival_time(spec, p["x_mp"])
    report.add("arrival_time_at_mp", True, arrive)

    mid = 0.5 * (spec.x_start + spec.x_end)
    g = freewave.Grid1D(mid, mid + 0.2 * (spec.x_end - spec.x_start), 41,
                        0.25 * potential.arrival_time(spec, mid))
    report.add_residual(
        "continuity_residual",
        potential.continuity_residual(spec, Branch.INCOMING, g),
        1e-6,
    )
    if p["profile"] == "constant" and not p["v_table"]:
        state = make_free_state(1.0, p["R"])
        probe = np.linspace(mid, spec.x_end, 17)
        free_psi = freewave.psi_free(state, probe, 0.1)
        pot_psi = potential.psi_potential(spec, Branch.INCOMING, probe, 0.1,
                                          x_mp=spec.x_start)
        report.add_residual(
            "degeneration_matches_free_wave",
            float(np.max(np.abs(free_psi - pot_psi))),
            1e-10,
        )


def _normalized_weights(weights) -> np.ndarray:
    """Config weights scaled to sum to one; each must be finite and positive."""
    weights = np.asarray(weights, dtype=float)
    if weights.size == 0 or not np.all(np.isfinite(weights) & (weights > 0)):
        raise ConfigError("weights must be finite and positive")
    return weights / weights.sum()


def _add_three_sigma_checks(report: Report, rep: measurement.EnsembleReport) -> None:
    """One check per outcome: its frequency lies within 3 sigma of |a_i|^2."""
    for i, z in enumerate(rep.z_scores()):
        report.add(f"outcome_{i}_within_3_sigma", bool(abs(z) < 3.0), float(z), 3.0)


def _ensemble_state(weights) -> evolution.SuperposedState:
    weights = _normalized_weights(weights)
    waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(weights.size))
    return evolution.SuperposedState(amplitudes=np.sqrt(weights).astype(complex), waves=waves)


def _run_ensemble(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = _ensemble_state(p["weights"])
    rep = measurement.run_ensemble(state, p["n_trials"], seed=cfg.seed,
                                   workers=p["workers"])
    emit_output(rep.records(), cfg.format, out / f"ensemble.{cfg.format}")
    p_value = float(stats.chi2.sf(rep.chi_square, df=rep.counts.size - 1))
    report.add("counts_sum_to_trials", int(rep.counts.sum()) == rep.n_trials,
               float(rep.counts.sum()))
    _add_three_sigma_checks(report, rep)
    report.add("chi_square_p_above_0.001", p_value > 0.001, p_value, 0.001)

    # Arrival order is reported, not used for probabilities.
    arrivals = [
        {"outcome": i, "arrival_time": 1.0 / w.v}
        for i, w in enumerate(state.waves)
    ]
    emit_output(arrivals, cfg.format, out / f"ensemble_arrivals.{cfg.format}")


def _run_decoherence(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    weights = _normalized_weights(p["weights"])
    if len(p["speeds"]) != weights.size:
        raise ConfigError("speeds and weights must pair up")
    waves = tuple(make_free_state(v, v) for v in p["speeds"])
    state = evolution.SuperposedState(np.sqrt(weights).astype(complex), waves)

    evolved = evolution.evolve_state(state, p["t"])
    expected_norm = float(np.sum(weights * np.exp([w.R * p["t"] for w in waves])))
    report.add_residual("norm_growth_law", evolved.norm_sq - expected_norm, 1e-10)

    mixed = evolution.reduce_to_mixture(state)
    pure_purity = evolution.purity(evolution.reduce_to_mixture(
        evolution.SuperposedState(np.array([1.0 + 0j]), (waves[0],))
    ))
    report.add_residual("pure_state_purity_one", pure_purity - 1.0, 1e-12)
    mix_purity = evolution.purity(mixed)
    report.add_residual("mixture_purity_sum_a4", mix_purity - float(np.sum(weights**2)),
                        1e-12)
    off_diag = mixed.entries - np.diag(np.diag(mixed.entries))
    report.add_residual("coherences_exactly_zero", float(np.max(np.abs(off_diag))), 0.0)

    eigs = [spectral.apply_observable("H", w).value for w in waves]
    r_a = evolution.evolve_density(mixed, eigs, 0.4)
    r_ab = evolution.evolve_density(r_a, eigs, 0.6)
    r_b = evolution.evolve_density(mixed, eigs, 1.0)
    report.add_residual(
        "density_semigroup",
        float(np.max(np.abs(r_ab.entries - r_b.entries))),
        1e-10,
    )
    (out / f"density_matrix.json").write_text(mixed.to_json() + "\n", "utf-8")
    records = [{"t": p["t"], "norm_sq": evolved.norm_sq, "purity": mix_purity}]
    emit_output(records, cfg.format, out / f"decoherence.{cfg.format}")


def _run_entropy(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = evolution.SuperposedState(
        np.array([1.0 + 0j]), (make_free_state(p["v"], p["v"]),)
    )
    times = np.linspace(0.0, p["t_max"], p["n"])
    traj = evolution.entropy_trajectory(state, times, measurement_times=[p["measure_at"]])
    records = [
        {"t": float(t), "S": float(s), "is_post_measurement": 0}
        for t, s in zip(traj.times, traj.S)
    ]
    for t, s in zip(traj.measurement_times, traj.post_measurement_S):
        records.append({"t": float(t), "S": float(s), "is_post_measurement": 1})
    emit_output(records, cfg.format, out / f"entropy.{cfg.format}")

    report.add_residual("entropy_zero_at_start", float(traj.S[0]), 0.0)
    slopes = np.diff(traj.S) / np.diff(traj.times)
    report.add_residual(
        "entropy_slope_minus_kB_v",
        float(np.max(np.abs(slopes + state.waves[0].constants.kB * p["v"]))),
        1e-10,
    )
    report.add_residual("post_measurement_entropy_zero",
                        float(np.max(np.abs(traj.post_measurement_S), initial=0.0)), 0.0)


def _run_sturm_liouville(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    n_samples = 201
    xs = np.linspace(p["x0"], p["x1"], n_samples)
    if p["preset"] == "box":
        V = np.zeros_like(xs)
    elif p["preset"] == "harmonic":
        V = 0.5 * xs**2
    else:
        raise ConfigError(f"unknown preset {p['preset']!r}")
    problem = potential.SLProblem(
        x0=p["x0"], x_end=p["x1"], kx=np.full(n_samples, p["k0"]), V=V,
        n_eigen=p["n_eigen"],
    )
    shoot = potential.solve_sturm_liouville(problem, backend="shooting",
                                            n_grid=p["n_grid"])
    dense = potential.solve_sturm_liouville(problem, backend="matrix",
                                            n_grid=p["n_grid"])
    records = []
    for j in range(p["n_eigen"]):
        records.append({
            "n": j,
            "energy_shooting": float(shoot.eigenvalues[j]),
            "energy_matrix": float(dense.eigenvalues[j]),
            "backend_gap": float(shoot.eigenvalues[j] - dense.eigenvalues[j]),
        })
    emit_output(records, cfg.format, out / f"sturm_liouville.{cfg.format}")

    rel_gap = np.max(
        np.abs(shoot.eigenvalues - dense.eigenvalues) / np.abs(dense.eigenvalues)
    )
    report.add_residual("backends_agree", float(rel_gap), 1e-6)
    gram_err = float(np.max(np.abs(shoot.gram_matrix() - np.eye(p["n_eigen"]))))
    report.add_residual("eigenfunction_orthonormality", gram_err, 1e-8)
    report.add("eigenvalues_increasing", bool(np.all(np.diff(shoot.eigenvalues) > 0)),
               float(np.min(np.diff(shoot.eigenvalues))))
    if p["preset"] == "box":
        L = p["x1"] - p["x0"]
        exact = ((np.arange(p["n_eigen"]) + 0.5) * np.pi / L) ** 2 / 2.0 + p["k0"] ** 2 / 2.0
        rel = float(np.max(np.abs(shoot.eigenvalues - exact) / exact))
        report.add_residual("closed_form_match", rel, 1e-6)


def _run_uncertainty(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    z = rng.normal(0.0, p["sigma_re"], p["n_samples"]) + 1j * rng.normal(
        0.0, p["sigma_im"], p["n_samples"]
    )
    rep = analysis.uncertainty_decompose(analysis.ComplexSampleSet(values=z))
    records = [{
        "var_real": rep.var_real,
        "var_imag": rep.var_imag,
        "var_complex": rep.var_complex,
        "covariance": rep.covariance,
    }]
    emit_output(records, cfg.format, out / f"uncertainty.{cfg.format}")

    report.add_residual(
        "variance_identity_exact",
        rep.var_real - rep.var_imag - rep.var_complex.real,
        0.0,
    )
    report.add_residual("covariance_in_imag_part",
                        rep.var_complex.imag - 2.0 * rep.covariance, 0.0)
    expected = p["sigma_re"] ** 2 - p["sigma_im"] ** 2
    if expected != 0.0:
        report.add_residual(
            "complex_variance_statistical",
            (rep.var_complex.real - expected) / expected,
            0.05,
        )
    report.add("heisenberg_boundary_true", analysis.heisenberg_check(1.0, 0.5), 1.0)
    report.add("heisenberg_below_false", not analysis.heisenberg_check(0.1, 0.1), 0.0)


def _run_contour(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = make_free_state(p["v"], p["R"])
    square = analysis.Contour(
        vertices=np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex), closed=True
    )
    path_a = analysis.Contour(vertices=np.array([0, 1, 1 + 1j], dtype=complex))
    path_b = analysis.Contour(vertices=np.array([0, 1j, 1 + 1j], dtype=complex))
    segment = analysis.Contour(vertices=np.array([0, 1], dtype=complex))

    closed_val = analysis.contour_integral("IncomingP1", state, square)
    val_a = analysis.contour_integral("IncomingP1", state, path_a)
    val_b = analysis.contour_integral("IncomingP1", state, path_b)
    seg_val = analysis.contour_integral("IncomingP1", state, segment)

    records = [
        {"name": "closed_square", "value": closed_val},
        {"name": "path_a", "value": val_a},
        {"name": "path_b", "value": val_b},
        {"name": "segment_0_to_1", "value": seg_val},
    ]
    if p["contour_csv"]:
        user = analysis.Contour.from_csv(p["contour_csv"])
        records.append(
            {"name": "user_contour",
             "value": analysis.contour_integral("IncomingP1", state, user)}
        )
    emit_output(records, cfg.format, out / f"contour.{cfg.format}")

    report.add_residual("closed_contour_zero", abs(closed_val), 1e-9)
    report.add_residual("path_independence", abs(val_a - val_b), 1e-9)
    expected = (1.0 - np.exp(-state.R / state.v)) * state.v / state.R
    report.add_residual("segment_closed_form", abs(seg_val - expected), 1e-9)


def _run_composite(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    weights = _normalized_weights(p["weights"])
    if not (len(p["system_speeds"]) == len(p["pointer_speeds"]) == weights.size):
        raise ConfigError("weights, system_speeds, pointer_speeds must pair up")
    systems = tuple(make_free_state(v, v) for v in p["system_speeds"])
    pointers = tuple(make_free_state(v, v) for v in p["pointer_speeds"])
    composite = measurement.tensor_compose(systems, pointers,
                                           np.sqrt(weights).astype(complex))

    eig_products = measurement.composite_eigenvalues(composite)
    factor_products = np.array([
        spectral.apply_observable("H", s).value * spectral.apply_observable("H", q).value
        for s, q in zip(systems, pointers)
    ])
    report.add_residual("product_eigenvalue_identity",
                        float(np.max(np.abs(eig_products - factor_products))), 1e-12)

    grid = freewave.Grid1D(2.0, 2.5, 9, 0.5)
    report.add_residual(
        "composite_schrodinger_residual",
        measurement.composite_schrodinger_residual(
            composite, 0, grid, grid, h_x=2.5e-4, h_t=2.5e-4
        ),
        1e-6,
    )

    # Outcome statistics over the pointer basis.
    flat = evolution.SuperposedState(np.sqrt(weights).astype(complex), systems)
    rep = measurement.run_ensemble(flat, p["n_trials"], seed=cfg.seed)
    _add_three_sigma_checks(report, rep)

    event = measurement.detect_mp(systems[0], systems[0].v * 1.0, 1.0)
    projected = measurement.von_neumann_project(composite, 0, event)
    again = measurement.von_neumann_project(projected, 0, event)
    report.add("projection_unit_amplitude",
               bool(np.isclose(abs(projected.amplitudes[0]), 1.0)),
               float(abs(projected.amplitudes[0])))
    report.add("projection_idempotent", again is projected, 1.0)
    report.add("irreversibility_flag", projected.collapsed, 1.0)

    mix_direct = measurement.mixture_density(
        [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)], [0.5, 0.5]
    )
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    mix_rotated = measurement.mixture_density([plus, minus], [0.5, 0.5])
    report.add_residual(
        "preferred_basis_same_density",
        float(np.max(np.abs(mix_direct.entries - mix_rotated.entries))),
        1e-12,
    )

    eigs = [spectral.apply_observable("H", s).value for s in systems]
    avgs = measurement.compare_averages(composite, eigs)
    report.add_residual("entangled_real_part_is_reduced",
                        avgs.entangled_avg.real - avgs.reduced_avg, 0.0)
    expected_imag = float(np.sum(weights * [0.5 * s.constants.hbar * s.R for s in systems]))
    report.add_residual("entangled_imag_part",
                        avgs.entangled_avg.imag - expected_imag, 1e-12)

    records = [
        {**r, "entangled_avg": complex(avgs.entangled_avg),
         "reduced_avg": float(avgs.reduced_avg)}
        for r in rep.records()
    ]
    emit_output(records, cfg.format, out / f"composite.{cfg.format}")


def _run_field(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = freewave.normalize_state(make_free_state(p["v"], p["v"]))
    ss = np.linspace(0.0, p["s_max"], p["n"])
    values = [spectral.probability_field(float(s), state) for s in ss]
    records = [{"s": float(s), "field": float(f)} for s, f in zip(ss, values)]
    emit_output(records, cfg.format, out / f"field.{cfg.format}")
    report.add_residual("field_at_zero_is_one", values[0] - 1.0, 0.0)
    report.add_residual(
        "field_at_ln2_is_half",
        spectral.probability_field(float(np.log(2.0)), state) - 0.5,
        1e-15,
    )
    report.add("field_monotone_decreasing", bool(np.all(np.diff(values) < 0)),
               float(np.max(np.diff(values))))


_RUNNERS = {
    "free-wave": _run_free_wave,
    "potential-wave": _run_potential_wave,
    "ensemble": _run_ensemble,
    "decoherence": _run_decoherence,
    "entropy": _run_entropy,
    "sturm-liouville": _run_sturm_liouville,
    "uncertainty": _run_uncertainty,
    "contour": _run_contour,
    "composite": _run_composite,
    "field": _run_field,
}


def run_scenario(config: ScenarioConfig) -> int:
    """Execute a scenario, write its data files and report.json.

    Returns the process exit code (0 success; 1 a value the scenario
    rejects; 2 numerical/I-O failure; 3 when ``check`` is set and some
    invariant check failed).
    """
    out = Path(config.output)
    try:
        out.mkdir(parents=True, exist_ok=True)
        report = Report(scenario=config.scenario, seed=config.seed)
        _RUNNERS[config.scenario](config, out, report)
        report.write(out)
    except ConfigError as exc:
        print(f"pdwave: config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, OSError, FloatingPointError) as exc:
        print(f"pdwave: {exc}", file=sys.stderr)
        return 2
    if config.check and not report.all_passed:
        failed = [c["name"] for c in report.checks if not c["passed"]]
        print(f"pdwave: checks failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"pdwave: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = _Parser(prog="pdwave", description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", required=True, choices=SCENARIOS)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="unsigned 64-bit seed")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--check", action="store_true",
                        help="exit 3 if any invariant check fails")
    args = parser.parse_args(argv)

    try:
        overrides: dict = {}
        seed = 0
        fmt = "csv"
        out_dir = args.out
        if args.config:
            section = load_config(args.config, args.scenario)
            seed = int(section.pop("seed", seed))
            fmt = section.pop("format", fmt)
            out_dir = section.pop("output", out_dir) if args.out == "." else out_dir
            overrides = section
        if args.seed is not None:
            seed = args.seed
        if args.format is not None:
            fmt = args.format
        config = ScenarioConfig(
            scenario=args.scenario,
            parameters=_resolve_parameters(args.scenario, overrides),
            seed=seed,
            output=out_dir,
            format=fmt,
            check=args.check,
        )
    except (ConfigError, ValueError) as exc:
        print(f"pdwave: config error: {exc}", file=sys.stderr)
        return 1

    return run_scenario(config)


if __name__ == "__main__":
    sys.exit(main())
