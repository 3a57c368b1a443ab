"""Span tracer that instruments pdwave from outside the package.

``Tracer.install`` replaces each module's public functions, plus the
module-level names the kernels look up, with wrappers that record a span:
name, start, end, parent and the scenario run it belongs to.  Spans stay in
memory until the process is done with them, then ``dump`` writes them out.
``layer_metrics`` turns a list of spans into the per-layer numbers the
benchmark reports.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

LAYERS = ("cli", "core", "freewave", "potential", "spectral", "evolution",
          "measurement", "analysis")

# Private or imported names the kernels call through module globals, so a
# wrapper installed on the module sees every call.
EXTRA_NAMES = {
    "cli": ("_resolve_parameters",),
    "potential": ("_numerov_sweep", "eigh_tridiagonal"),
    "analysis": ("_gauss_segment", "_adaptive_segment"),
}

# Methods traced on the class itself: report writing and the constructors
# whose cost or count the per-layer metrics name.
METHODS = (
    ("cli", "Report", "write", "cli.Report.write"),
    ("potential", "PotentialSpec", "__init__", "potential.PotentialSpec"),
    ("evolution", "DensityMatrix", "__init__", "evolution.DensityMatrix"),
)


def _size(x) -> int:
    import numpy as np

    return int(np.size(x))


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _eigenvalues_shot(args, kwargs):
    backend = kwargs.get("backend", args[1] if len(args) > 1 else "shooting")
    return _arg(args, kwargs, 0, "problem").n_eigen if backend == "shooting" else 0


# Work done by one call, counted at the layer boundary.
WORK = {
    "cli.emit_output": lambda a, k: len(_arg(a, k, 0, "records")),
    "freewave.psi_free": lambda a, k: _size(_arg(a, k, 1, "x")),
    "freewave.prob_density_free": lambda a, k: _size(_arg(a, k, 1, "x")),
    "measurement.run_ensemble": lambda a, k: int(_arg(a, k, 1, "n_trials")),
    "potential.solve_sturm_liouville": _eigenvalues_shot,
}


class Tracer:
    """Collects spans in memory for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, run, work)
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, sid, name, start, parent, work) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.run, work))

    def call(self, name: str, fn, args=(), kwargs=None, work=None):
        """Run ``fn`` inside a span named ``name``."""
        kwargs = kwargs or {}
        units = work(args, kwargs) if work else None
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, name, start, parent, units)

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, work)

        return traced

    def install(self, package) -> None:
        """Wrap the traced names of every pdwave module, in every namespace."""
        modules = [getattr(package, layer) for layer in LAYERS]
        replaced = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            names = [
                n for n, obj in vars(module).items()
                if not n.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ]
            for n in names + list(EXTRA_NAMES.get(layer, ())):
                original = getattr(module, n)
                replaced[id(original)] = self.wrap(f"{layer}.{n}", original)
        # Modules import each other's functions by name, so patch every alias.
        for module in [package, *modules]:
            for n, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, n, replaced[id(obj)])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    def records(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "run": run, "work": work}
                for sid, name, start, end, parent, run, work in self.spans]


def dump(path, spans: list[dict]) -> None:
    """Write spans as gzipped JSON lines (a traced bulk-emit run makes ~1e5)."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.writelines(json.dumps(s) + "\n" for s in spans)


def load(path) -> list[dict]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_metrics(spans: list[dict], runs: int) -> dict:
    """Per-run layer times and counts from spans of ``runs`` scenario runs.

    Self time is a span's duration minus the time its direct children cover.
    ``<layer>.s`` is the time of a layer's outermost spans, so nested calls
    within one layer are not counted twice.
    """
    by_key = {(s["run"], s["id"]): s for s in spans}
    child_time: dict = {}
    adaptive_parents = set()
    for s in spans:
        if s["name"] == "analysis._adaptive_segment":
            adaptive_parents.add((s["run"], s["parent"]))
        key = (s["run"], s["parent"])
        child_time[key] = child_time.get(key, 0.0) + s["end"] - s["start"]

    total, calls, work, self_s = {}, {}, {}, {}
    layer_s = {layer: 0.0 for layer in LAYERS}
    layer_self = {layer: 0.0 for layer in LAYERS}
    leaves = 0
    for s in spans:
        name, dt = s["name"], s["end"] - s["start"]
        own = dt - child_time.get((s["run"], s["id"]), 0.0)
        total[name] = total.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + (s["work"] or 0)
        self_s[name] = self_s.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        if layer in layer_s:
            layer_self[layer] += own
            parent = by_key.get((s["run"], s["parent"]))
            if parent is None or parent["name"].split(".", 1)[0] != layer:
                layer_s[layer] += dt
        if name == "analysis._adaptive_segment" and (s["run"], s["id"]) not in adaptive_parents:
            leaves += 1

    def per_run(value):
        return value / runs if runs else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    adaptive = calls.get("analysis._adaptive_segment", 0)
    out = {
        "cli.resolve_s": per_run(total.get("cli._resolve_parameters", 0.0)),
        "cli.run_scenario.self_s": per_run(self_s.get("cli.run_scenario", 0.0)),
        "cli.report_write_s": per_run(total.get("cli.Report.write", 0.0)),
        "cli.emit_output.s": per_run(total.get("cli.emit_output", 0.0)),
        "cli.emit_output.calls": per_run(calls.get("cli.emit_output", 0)),
        "cli.emit_output.rows": per_run(work.get("cli.emit_output", 0)),
        "potential.solve_sturm_liouville.s":
            per_run(total.get("potential.solve_sturm_liouville", 0.0)),
        "potential.numerov_sweep.s": per_run(total.get("potential._numerov_sweep", 0.0)),
        "potential.numerov_energies": per_run(calls.get("potential._numerov_sweep", 0)),
        "potential.numerov_energies_per_eigenvalue": ratio(
            calls.get("potential._numerov_sweep", 0),
            work.get("potential.solve_sturm_liouville", 0)),
        "potential.eigh_tridiagonal.s":
            per_run(total.get("potential.eigh_tridiagonal", 0.0)),
        "potential.eigh_tridiagonal.calls":
            per_run(calls.get("potential.eigh_tridiagonal", 0)),
        "potential.PotentialSpec.s": per_run(total.get("potential.PotentialSpec", 0.0)),
        "measurement.run_ensemble.s":
            per_run(total.get("measurement.run_ensemble", 0.0)),
        "measurement.draws": per_run(work.get("measurement.run_ensemble", 0)),
        "measurement.draws_per_s": ratio(work.get("measurement.run_ensemble", 0),
                                         total.get("measurement.run_ensemble", 0.0)),
        "analysis.uncertainty_decompose.s":
            per_run(total.get("analysis.uncertainty_decompose", 0.0)),
        "analysis.contour_integral.s":
            per_run(total.get("analysis.contour_integral", 0.0)),
        "analysis.gauss_segments": per_run(calls.get("analysis._gauss_segment", 0)),
        # Each adaptive step evaluates three Gauss segments; an accepted leaf
        # keeps two of them.
        "analysis.accepted_segment_ratio": ratio(2 * leaves, 3 * adaptive),
        "freewave.psi_free.s": per_run(total.get("freewave.psi_free", 0.0)),
        "freewave.prob_density_free.s":
            per_run(total.get("freewave.prob_density_free", 0.0)),
        "freewave.points": per_run(work.get("freewave.psi_free", 0)
                                   + work.get("freewave.prob_density_free", 0)),
        "freewave.total_probability_quadrature.s":
            per_run(total.get("freewave.total_probability_quadrature", 0.0)),
        "spectral.probability_field.calls":
            per_run(calls.get("spectral.probability_field", 0)),
        "spectral.s": per_run(layer_s["spectral"]),
        "evolution.density_matrix_builds":
            per_run(calls.get("evolution.DensityMatrix", 0)),
        "evolution.s": per_run(layer_s["evolution"]),
        "core.make_free_state.calls": per_run(calls.get("core.make_free_state", 0)),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = per_run(layer_self[layer])
    return out
