"""Scenario runner: drives every module from a config file, emits data + report.

Usage: pdwave --scenario NAME [--config PATH] [--out DIR] [--seed N]
              [--format csv|json] [--check]

Config files are flat INI text with one section per scenario and
``key = value`` entries; command-line flags override config keys.  Every
run writes the scenario's data files plus a ``report.json`` listing each
invariant check with its residual and pass/fail.  Exit codes: 0 success,
1 a value outside its key's domain or rejected by the runner or library,
2 numerical non-convergence, overflow, non-finite output or I/O failure,
3 a check failed in ``--check`` mode.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, evolution, freewave, measurement, potential, spectral
from .core import (
    Branch,
    ConvergenceError,
    make_free_state,
)

__all__ = ["ScenarioConfig", "run_scenario", "emit_output", "main"]


class ConfigError(ValueError):
    """Malformed configuration (unknown scenario, bad key, bad value)."""


# A config key's domain is a (description, test) pair.  A tuple value must be
# non-empty, with every element passing the test.
_FINITE = "finite", math.isfinite
_POSITIVE = "finite and positive", lambda x: 0.0 < x < math.inf
_NONNEGATIVE = "finite and nonnegative", lambda x: 0.0 <= x < math.inf
_TEXT = "text", lambda s: True


def _within(values: range | tuple) -> tuple:
    text = (f"an integer from {values[0]} to {values[-1]}" if isinstance(values, range)
            else "one of " + ", ".join(values))
    return text, values.__contains__


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


def _csv_floats(a: np.ndarray) -> list:
    """CSV cells of a float column: 12 decimals, scientific if 0 < |x| < 1e-12 or |x| >= 1e16."""
    x = a.astype(float, copy=False)
    cells = ("%.12f\n" * x.size % tuple(x.tolist())).splitlines()
    for i in np.flatnonzero((x != 0.0) & ((np.abs(x) >= 1e16) | (np.abs(x) < 1e-12))):
        cells[i] = f"{x[i]:.12e}"
    return cells


def _require_finite(path: Path, rows) -> None:
    """Raise FloatingPointError naming ``path`` if a float in ``rows`` is NaN or inf."""
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise FloatingPointError(f"{path.name}: {key} = {value} is not finite")


def emit_output(table: dict, fmt: str, path) -> Path:
    """Write a table of named columns as CSV or JSON.

    A column is an array or a list; a scalar is repeated down its column.
    CSV: UTF-8, comma separated, one header row, floats at 12 digits after
    the point, complex columns split into ``_re``/``_im`` column pairs.
    JSON: ``{"records": [...]}``, one object per row, in the bytes of ``json.dumps(...,
    sort_keys=True, indent=1)``: sorted keys, one-space indent and ``repr`` floats
    (round-trip bit-exactly).  NaN or inf raises FloatingPointError.
    """
    path = Path(path)
    lengths = {np.size(c) for c in table.values() if np.ndim(c)}
    if len(lengths) > 1:
        raise ValueError(f"{path.name}: columns differ in length {sorted(lengths)}")
    n = lengths.pop() if lengths else 1
    columns = {}
    for key, column in table.items():
        a = np.broadcast_to(column, (n,))
        parts = {f"{key}_re": a.real, f"{key}_im": a.imag} if a.dtype.kind == "c" else {key: a}
        for name, part in parts.items():
            if part.dtype.kind == "f" and not np.all(np.isfinite(part)):
                bad = part[~np.isfinite(part)][0]
                raise FloatingPointError(f"{path.name}: {name} = {bad} is not finite")
            columns[name] = part
    if fmt == "csv":
        cells = [_csv_floats(a) if a.dtype.kind == "f" else map(str, a.tolist())
                 for a in columns.values()]
        lines = [",".join(columns), *map(",".join, zip(*cells))]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        reprs = {"f": float.__repr__, "i": int.__repr__, "u": int.__repr__}
        keys = sorted(columns)
        cells = [map(reprs.get(columns[k].dtype.kind, json.dumps), columns[k].tolist())
                 for k in keys]
        fields = ",\n".join(f"   {json.dumps(k).replace('%', '%%')}: %s" for k in keys)
        records = ",\n".join(map(f"  {{\n{fields}\n  }}".__mod__, zip(*cells)))
        body = f"[\n{records}\n ]" if records else "[]"
        path.write_text(f'{{\n "records": {body}\n}}\n', encoding="utf-8")
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
        path = out_dir / "report.json"
        _require_finite(path, self.checks)
        payload = {
            "scenario": self.scenario,
            "seed": self.seed,
            "checks": self.checks,
            "all_passed": self.all_passed,
        }
        text = json.dumps(payload, sort_keys=True, indent=1)
        path.write_text(text + "\n", "utf-8")
        return path


# ---------------------------------------------------------------------------
# Parameter parsing


def _parse_value(scenario: str, key: str, raw: str, default, domain: tuple):
    """Parse a config string as the type of the key's default, within its domain."""
    text, test = domain
    try:
        if isinstance(default, tuple):
            items = value = tuple(float(tok) for tok in raw.split(",") if tok.strip())
        else:
            value = raw.strip() if isinstance(default, str) else type(default)(raw)
            items = (value,)
    except ValueError:
        items = ()
    if not (items and all(map(test, items))):
        raise ConfigError(f"[{scenario}] {key} = {raw.strip()}: must be {text}")
    return value


def _resolve_parameters(scenario: str, overrides: dict) -> dict:
    keys = _TABLE[scenario][1]
    parameters = {key: default for key, (default, _) in keys.items()}
    for key, raw in overrides.items():
        if key not in keys:
            raise ConfigError(f"[{scenario}] unknown key {key!r}")
        parameters[key] = _parse_value(scenario, key, raw, *keys[key])
    return parameters


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
            branch_state = replace(state, branch=Branch.OUTGOING)
            lo, hi = peak - p["span"], peak
        xs = np.linspace(lo, hi, p["n"])
        if lo <= p["mp_x"] <= hi:
            xs = np.unique(np.concatenate([xs, [p["mp_x"]]]))
        psi = freewave.psi_free(branch_state, xs, t)
        dens = freewave.prob_density_free(branch_state, xs, t)
        emit_output({"x": xs, "t": t, "P": dens, "psi": psi}, cfg.format,
                    out / f"free_wave_t{idx}.{cfg.format}")
        report.add_residual(f"peak_density_one_t{idx}", float(np.max(dens)) - 1.0, 1e-12)
        monotone = np.all(branch_state.branch.sign * np.diff(dens) < 0)
        report.add(f"envelope_monotone_t{idx}", bool(monotone), float(np.max(np.abs(np.diff(dens)))))

    seam = freewave.psi_free(state, state.v * 5.0, 5.0) - freewave.psi_free(
        replace(state, branch=Branch.OUTGOING), state.v * 5.0, 5.0
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
    if bool(p["v_table"]) != bool(p["k_table"]):
        raise ConfigError("v_table and k_table must be given together")
    if p["v_table"]:
        return potential.load_potential_tables(
            p["v_table"], p["k_table"], R=p["R"], omega=p["omega"]
        )
    xs = np.linspace(p["x0"], p["x1"], p["n"])
    kx = np.ones_like(xs) if p["profile"] == "constant" else 1.0 + xs - xs[0]
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
    if inside.size == 0:
        raise ConfigError(f"t = {t} is past the arrival time of all n = {p['n']} probes")
    psi = potential.psi_potential(spec, Branch.INCOMING, inside, t, x_mp=p["x_mp"])
    dens = potential.prob_density_potential(spec, Branch.INCOMING, inside, t, x_mp=p["x_mp"])
    emit_output({"x": inside, "t": t, "P": dens, "psi": psi}, cfg.format,
                out / f"potential_wave.{cfg.format}")

    report.add_residual("mp_plane_wave_residual",
                        potential.mp_limit_check(spec, p["x_mp"]), 1e-10)

    mid = 0.5 * (spec.x_start + spec.x_end)
    g = freewave.Grid1D(mid, mid + 0.2 * (spec.x_end - spec.x_start), 41,
                        0.25 * potential.arrival_time(spec, mid))
    report.add_residual(
        "continuity_residual",
        potential.continuity_residual(spec, Branch.INCOMING, g),
        1e-6,
    )
    if p["profile"] == "constant" and not p["v_table"]:
        state = replace(make_free_state(1.0, p["R"]), omega=spec.omega)
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
    """Config weights scaled to sum to one."""
    return np.asarray(weights) / np.sum(weights)


def _sampled_state(state: evolution.SuperposedState, n_trials: int) -> evolution.SuperposedState:
    """``state``, once checked fit to be sampled ``n_trials`` times.

    Each outcome's z-score divides by sqrt(p(1-p)/n_trials)
    (``EnsembleReport.z_scores``), which must not be 0.
    """
    p = state.probabilities()
    if not np.all(np.sqrt(p * (1.0 - p) / n_trials) > 0.0):
        raise ConfigError("weights give an outcome a Born probability too close to 0 or 1 "
                          f"for a z-score over {n_trials} trials")
    return state


def _add_three_sigma_checks(report: Report, rep: measurement.EnsembleReport) -> None:
    """One check per outcome: its frequency lies within 3 sigma of |a_i|^2."""
    for i, z in enumerate(rep.z_scores()):
        report.add(f"outcome_{i}_within_3_sigma", bool(abs(z) < 3.0), float(z), 3.0)


def _chi_square_sf(x: float, df: int) -> float:
    """P(chi^2_df > x) for integer df, from the closed-form series of the tail.

    Even df: the Poisson tail sum_{k < df/2} e^{-x/2} (x/2)^k / k!.  Odd df:
    erfc(sqrt(x/2)) plus the half-integer terms e^{-x/2} (x/2)^{k+1/2} /
    Gamma(k + 3/2).  Each term is one exp of a log-space sum, so no power
    or factorial overflows at large df.
    """
    if x <= 0.0:
        return 1.0
    half, log_half = 0.5 * x, math.log(0.5 * x)
    offset = 0.0 if df % 2 == 0 else 0.5
    terms = [math.exp((k + offset) * log_half - half - math.lgamma(k + offset + 1.0))
             for k in range(df // 2)]
    if offset:
        terms.append(math.erfc(math.sqrt(half)))
    return min(1.0, math.fsum(terms))


def _run_ensemble(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    waves = tuple(make_free_state(float(i + 1), float(i + 1)) for i in range(len(p["weights"])))
    amplitudes = np.sqrt(_normalized_weights(p["weights"])).astype(complex)
    state = _sampled_state(evolution.SuperposedState(amplitudes, waves), p["n_trials"])
    rep = measurement.run_ensemble(state, p["n_trials"], seed=cfg.seed, workers=p["workers"])
    emit_output(rep.table(), cfg.format, out / f"ensemble.{cfg.format}")
    p_value = _chi_square_sf(rep.chi_square, rep.counts.size - 1)
    _add_three_sigma_checks(report, rep)
    report.add("chi_square_p_above_0.001", p_value > 0.001, p_value, 0.001)

    # Arrival order is reported, not used for probabilities.
    arrivals = {"outcome": np.arange(state.n), "arrival_time": [1.0 / w.v for w in state.waves]}
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
    mix_purity = evolution.purity(mixed)
    report.add_residual("mixture_purity_sum_a4", mix_purity - float(np.sum(weights**2)),
                        1e-12)

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
    emit_output({"t": p["t"], "norm_sq": evolved.norm_sq, "purity": mix_purity}, cfg.format,
                out / f"decoherence.{cfg.format}")


def _run_entropy(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = evolution.SuperposedState(
        np.array([1.0 + 0j]), (make_free_state(p["v"], p["v"]),)
    )
    times = np.linspace(0.0, p["t_max"], p["n"])
    traj = evolution.entropy_trajectory(state, times, measurement_times=[p["measure_at"]])
    table = {"t": np.concatenate([traj.times, traj.measurement_times]),
             "S": np.concatenate([traj.S, traj.post_measurement_S]),
             "is_post_measurement": np.repeat([0, 1], [traj.S.size, traj.post_measurement_S.size])}
    emit_output(table, cfg.format, out / f"entropy.{cfg.format}")

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
    if not p["x0"] < p["x1"]:
        raise ConfigError(f"x0 must be < x1, got {p['x0']}, {p['x1']}")
    n_samples = 201
    xs = np.linspace(p["x0"], p["x1"], n_samples)
    V = np.zeros_like(xs) if p["preset"] == "box" else 0.5 * xs**2
    problem = potential.SLProblem(
        x0=p["x0"], x_end=p["x1"], kx=np.full(n_samples, p["k0"]), V=V,
        n_eigen=p["n_eigen"],
    )
    shoot = potential.solve_sturm_liouville(problem, backend="shooting",
                                            n_grid=p["n_grid"])
    dense = potential.solve_sturm_liouville(problem, backend="matrix",
                                            n_grid=p["n_grid"])
    table = {"n": np.arange(p["n_eigen"]), "energy_shooting": shoot.eigenvalues,
             "energy_matrix": dense.eigenvalues,
             "backend_gap": shoot.eigenvalues - dense.eigenvalues}
    emit_output(table, cfg.format, out / f"sturm_liouville.{cfg.format}")

    rel_gap = np.max(
        np.abs(shoot.eigenvalues - dense.eigenvalues) / np.abs(dense.eigenvalues)
    )
    report.add_residual("backends_agree", float(rel_gap), 1e-6)
    if p["preset"] == "box":
        L = p["x1"] - p["x0"]
        exact = ((np.arange(p["n_eigen"]) + 0.5) * np.pi / L) ** 2 / 2.0 + p["k0"] ** 2 / 2.0
        rel = float(np.max(np.abs(shoot.eigenvalues - exact) / exact))
        report.add_residual("closed_form_match", rel, 1e-6)


def _run_uncertainty(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    z = np.empty(p["n_samples"], dtype=complex)  # filled in place, with no complex temporary
    z.real = rng.normal(0.0, p["sigma_re"], p["n_samples"])
    z.imag = rng.normal(0.0, p["sigma_im"], p["n_samples"])
    rep = analysis.uncertainty_decompose(analysis.ComplexSampleSet(values=z))
    emit_output(asdict(rep), cfg.format, out / f"uncertainty.{cfg.format}")

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


def _run_contour(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = make_free_state(p["v"], p["R"])
    square = analysis.Contour(vertices=np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex))
    path_a = analysis.Contour(vertices=np.array([0, 1, 1 + 1j], dtype=complex))
    path_b = analysis.Contour(vertices=np.array([0, 1j, 1 + 1j], dtype=complex))
    segment = analysis.Contour(vertices=np.array([0, 1], dtype=complex))

    closed_val = analysis.contour_integral(state, square)
    val_a = analysis.contour_integral(state, path_a)
    val_b = analysis.contour_integral(state, path_b)
    seg_val = analysis.contour_integral(state, segment)

    values = {"closed_square": closed_val, "path_a": val_a, "path_b": val_b,
              "segment_0_to_1": seg_val}
    if p["contour_csv"]:
        user = analysis.Contour.from_csv(p["contour_csv"])
        values["user_contour"] = analysis.contour_integral(state, user)
    emit_output({"name": list(values), "value": list(values.values())}, cfg.format,
                out / f"contour.{cfg.format}")

    report.add_residual("closed_contour_zero", abs(closed_val), 1e-9)
    report.add_residual("path_independence", abs(val_a - val_b), 1e-9)
    expected = -np.expm1(-state.R / state.v) * state.v / state.R
    report.add_residual("segment_closed_form", abs(seg_val - expected), 1e-9)


def _run_composite(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    weights = _normalized_weights(p["weights"])
    if not (len(p["system_speeds"]) == len(p["pointer_speeds"]) == weights.size):
        raise ConfigError("weights, system_speeds, pointer_speeds must pair up")
    systems = tuple(make_free_state(v, v) for v in p["system_speeds"])
    pointers = tuple(make_free_state(v, v) for v in p["pointer_speeds"])
    composite = _sampled_state(
        measurement.tensor_compose(systems, pointers, np.sqrt(weights)), p["n_trials"])

    grid = freewave.Grid1D(2.0, 2.5, 9, 0.5)
    report.add_residual(
        "composite_schrodinger_residual",
        measurement.composite_schrodinger_residual(
            composite, 0, grid, grid, h_x=2.5e-4, h_t=2.5e-4
        ),
        1e-6,
    )

    # Outcome statistics over the pointer basis.
    rep = measurement.run_ensemble(composite, p["n_trials"], seed=cfg.seed)
    _add_three_sigma_checks(report, rep)

    event = measurement.detect_mp(systems[0], systems[0].v * 1.0, 1.0)
    projected = measurement.von_neumann_project(composite, 0, event)
    again = measurement.von_neumann_project(projected, 0, event)
    report.add("projection_idempotent", again is projected, 1.0)

    eigs = [spectral.apply_observable("H", s).value for s in systems]
    avgs = measurement.compare_averages(composite, eigs)
    expected_imag = float(np.sum(weights * [0.5 * s.constants.hbar * s.R for s in systems]))
    report.add_residual("entangled_imag_part",
                        avgs.entangled_avg.imag - expected_imag, 1e-12)

    emit_output({**rep.table(), **asdict(avgs)}, cfg.format, out / f"composite.{cfg.format}")


def _run_field(cfg: ScenarioConfig, out: Path, report: Report) -> None:
    p = cfg.parameters
    state = freewave.normalize_state(make_free_state(p["v"], p["v"]))
    ss = np.linspace(0.0, p["s_max"], p["n"])
    values = [spectral.probability_field(float(s), state) for s in ss]
    emit_output({"s": ss, "field": values}, cfg.format, out / f"field.{cfg.format}")
    report.add_residual("field_at_zero_is_one", values[0] - 1.0, 0.0)
    report.add_residual(
        "field_at_ln2_is_half",
        spectral.probability_field(float(np.log(2.0)), state) - 0.5,
        1e-15,
    )
    report.add("field_monotone_decreasing", bool(np.all(np.diff(values) < 0)),
               float(np.max(np.diff(values))))


# Every scenario's runner and, per config key, its default (which sets the key's type)
# and the weakest domain with finite outputs, capped to admit the benchmark's largest run.
_TABLE: dict[str, tuple] = {
    "free-wave": (_run_free_wave, {
        "v": (1.0, _POSITIVE), "R": (1.0, _NONNEGATIVE), "mp_x": (2.0, _FINITE),
        "times": ((1.0, 2.0, 3.0), _NONNEGATIVE), "span": (3.0, _POSITIVE),
        "n": (121, _within(range(2, 15_201)))}),
    "potential-wave": (_run_potential_wave, {
        "profile": ("linear", _within(("constant", "linear"))), "R": (1.0, _NONNEGATIVE),
        "omega": (0.375, _FINITE), "x0": (0.0, _FINITE), "x1": (5.0, _FINITE),
        "n": (201, _within(range(8, 45_201))), "t": (0.5, _NONNEGATIVE),
        "x_mp": (1.0, _FINITE), "v_table": ("", _TEXT), "k_table": ("", _TEXT)}),
    "ensemble": (_run_ensemble, {
        "weights": ((0.5, 0.3, 0.2), _POSITIVE), "workers": (1, _within(range(1, 3))),
        "n_trials": (100000, _within(range(1, 10_000_001)))}),
    "decoherence": (_run_decoherence, {
        "weights": ((0.5, 0.3, 0.2), _POSITIVE), "speeds": ((1.0, 2.0, 3.0), _POSITIVE),
        "t": (1.0, _NONNEGATIVE)}),
    "entropy": (_run_entropy, {
        "v": (1.0, _POSITIVE), "t_max": (2.0, _POSITIVE), "measure_at": (2.0, _NONNEGATIVE),
        "n": (41, _within(range(2, 70_201)))}),
    "sturm-liouville": (_run_sturm_liouville, {
        "preset": ("box", _within(("box", "harmonic"))), "x0": (0.0, _FINITE),
        "x1": (1.0, _FINITE), "n_eigen": (6, _within(range(1, 101))),
        "n_grid": (2001, _within(range(4, 2002))),
        "k0": (0.0, ("finite with a finite square", lambda k: math.isfinite(k * k)))}),
    "uncertainty": (_run_uncertainty, {
        "n_samples": (100000, _within(range(2, 3_050_001))),
        "sigma_re": (2.0, _NONNEGATIVE), "sigma_im": (1.0, _NONNEGATIVE)}),
    "contour": (_run_contour, {
        "v": (1.0, _POSITIVE), "R": (1.0, _POSITIVE), "contour_csv": ("", _TEXT)}),
    "composite": (_run_composite, {
        "weights": ((0.5, 0.5), _POSITIVE), "system_speeds": ((1.0, 2.0), _POSITIVE),
        "pointer_speeds": ((3.0, 4.0), _POSITIVE),
        "n_trials": (100000, _within(range(1, 10_000_001)))}),
    "field": (_run_field, {
        "s_max": (3.0, _NONNEGATIVE), "v": (1.0, _POSITIVE), "n": (61, _within(range(2, 80_201)))}),
}

SCENARIOS = tuple(_TABLE)


def run_scenario(config: ScenarioConfig) -> int:
    """Execute a scenario, write its data files and report.json.

    Returns the process exit code (0 success; 1 a value the scenario or
    the library rejects; 2 numerical/I-O failure, overflow, NaN and memory
    exhaustion included; 3 when ``check`` is set and some check failed).
    Files are staged inside ``--out`` and renamed into it once report.json
    is written, so a run that returns 1 or 2 leaves ``--out`` as it was.
    """
    out = Path(config.output)
    created = next((d for d in reversed((out, *out.parents)) if not d.exists()), None)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".pdwave-", dir=out) as staging:
            stage = Path(staging)
            report = Report(scenario=config.scenario, seed=config.seed)
            # Overflow or NaN fails the run instead of reaching the output files.
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                _TABLE[config.scenario][0](config, stage, report)
            report.write(stage)
            for path in stage.iterdir():
                path.replace(out / path.name)
    except ValueError as exc:
        message, code = f"config error: {exc}", 1
    except (ConvergenceError, OSError, ArithmeticError, MemoryError) as exc:
        message, code = str(exc), 2
    else:
        if config.check and not report.all_passed:
            failed = [c["name"] for c in report.checks if not c["passed"]]
            print(f"pdwave: checks failed: {', '.join(failed)}", file=sys.stderr)
            return 3
        return 0
    print(f"pdwave: {message}", file=sys.stderr)
    if created is not None:
        shutil.rmtree(created, ignore_errors=True)
    return code


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
        overrides = load_config(args.config, args.scenario) if args.config else {}
        seed = _parse_value(args.scenario, "seed", overrides.pop("seed", "0"), 0,
                            _within(range(2**64)))
        fmt = overrides.pop("format", "csv")
        out_dir = overrides.pop("output", ".")
        config = ScenarioConfig(
            scenario=args.scenario,
            parameters=_resolve_parameters(args.scenario, overrides),
            seed=seed if args.seed is None else args.seed,
            output=out_dir if args.out == "." else args.out,
            format=args.format or fmt,
            check=args.check,
        )
    except ValueError as exc:
        print(f"pdwave: config error: {exc}", file=sys.stderr)
        return 1

    return run_scenario(config)


if __name__ == "__main__":
    sys.exit(main())
