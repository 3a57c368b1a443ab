"""Measurement-point detection, outcome sampling, and projection postulates.

A measurement happens when a component's probability-wave peak reaches the
device particle at x = v*t (free) or t = arrival_time(x) (potential).
Outcomes are drawn categorically from the squared amplitudes; projection
collapses the superposition to a single unit-amplitude component whose
wave is a plane wave at the measurement point.  Composites pair system
and pointer waves with postulated pointer orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Branch, FreeWaveParams, at_arrival
from .evolution import DensityMatrix, SuperposedState
from .freewave import Grid1D, psi_free
from .potential import PotentialSpec, arrival_time
from .spectral import apply_observable

__all__ = [
    "MeasurementEvent",
    "CompositeState",
    "EnsembleReport",
    "detect_mp",
    "sample_outcome",
    "run_ensemble",
    "dirac_project",
    "tensor_compose",
    "composite_eigenvalues",
    "composite_schrodinger_residual",
    "von_neumann_project",
    "mixture_density",
    "compare_averages",
]


@dataclass(frozen=True, eq=False)
class MeasurementEvent:
    """Arrival of a wave peak at the device particle.

    The event pins the measurement-point regime: the component found there
    is left as a plane wave with envelope rate zero, which is what lets
    downstream hermitization return real eigenvalues.
    """

    x: float
    t: float
    speed: float
    tol: float = 1e-9
    kind: str = "free"

    def __post_init__(self) -> None:
        if self.kind == "free" and not self.is_at_mp():
            raise ValueError("event does not satisfy the arrival condition x = v*t")

    def is_at_mp(self) -> bool:
        """Arrival condition: x = v*t for free waves (checked at detection
        against the amplitude's arrival integral for potential waves)."""
        if self.kind != "free":
            return True
        return at_arrival(self.x, self.t, self.speed, self.tol)


def detect_mp(target, x: float, t: float, tol: float = 1e-9) -> MeasurementEvent | None:
    """Return a measurement event iff the wave peak is at (x, t).

    ``target`` may be a FreeWaveParams (the event's own arrival condition
    |x - v*t| <= tol * max(1, |x|)), a PotentialSpec (condition
    |t - arrival_time(x)| <= tol), or a SuperposedState (any component's
    peak arriving).  Absence of an event is a value, not an error.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if isinstance(target, PotentialSpec):
        if abs(t - arrival_time(target, x)) <= tol:
            return MeasurementEvent(
                x=x, t=t, speed=float(target.v_at(x)), tol=tol, kind="potential"
            )
        return None
    if isinstance(target, (FreeWaveParams, SuperposedState)):
        waves = target.waves if isinstance(target, SuperposedState) else (target,)
        for wave in waves:
            if at_arrival(x, t, wave.v, tol):
                return MeasurementEvent(x=x, t=t, speed=wave.v, tol=max(tol, 1e-9))
        return None
    raise TypeError(f"cannot detect a measurement point on {type(target).__name__}")


def sample_outcome(state: SuperposedState, rng: np.random.Generator) -> int:
    """Draw one outcome index with probability |a_i|^2."""
    return int(rng.choice(state.n, p=state.probabilities()))


@dataclass(frozen=True, eq=False)
class EnsembleReport:
    """Outcome statistics of repeated single-shot measurements."""

    n_trials: int
    counts: np.ndarray
    frequencies: np.ndarray
    expected: np.ndarray
    chi_square: float

    def __post_init__(self) -> None:
        if int(np.sum(self.counts)) != self.n_trials:
            raise ValueError("counts must sum to n_trials")

    def z_scores(self) -> np.ndarray:
        sigma = np.sqrt(self.expected * (1.0 - self.expected) / self.n_trials)
        return (self.frequencies - self.expected) / sigma

    def table(self) -> dict:
        """Columns outcome, count, frequency, expected and z_score, one row per outcome."""
        return {"outcome": np.arange(self.counts.size), "count": self.counts,
                "frequency": self.frequencies, "expected": self.expected,
                "z_score": self.z_scores()}


def run_ensemble(
    state: SuperposedState, n_trials: int, seed: int, workers: int = 1
) -> EnsembleReport:
    """Measure ``n_trials`` identical copies and tally outcome frequencies.

    Trials are split across ``workers`` independent deterministic streams
    spawned from the seed.  The tally of m independent categorical trials
    is distributed as one multinomial(m, |a_i|^2) draw, so each stream makes
    that single draw: work and memory grow with the number of outcomes, not
    with ``n_trials``.  Merged counts are order-independent, so the report
    is bit-reproducible for a fixed (seed, workers) pair.
    """
    if n_trials < 1 or workers < 1:
        raise ValueError("n_trials and workers must be positive")
    probs = state.probabilities()
    children = np.random.SeedSequence(seed).spawn(workers)
    base, extra = divmod(n_trials, workers)
    counts = np.zeros(state.n, dtype=np.int64)
    for i, child in enumerate(children):
        m = base + (1 if i < extra else 0)
        if m == 0:
            continue
        counts += np.random.default_rng(child).multinomial(m, probs)
    freq = counts / n_trials
    chi_square = float(np.sum((counts - n_trials * probs) ** 2 / (n_trials * probs)))
    return EnsembleReport(
        n_trials=n_trials,
        counts=counts,
        frequencies=freq,
        expected=probs,
        chi_square=chi_square,
    )


def _post_measurement_waves(waves: tuple, outcome: int, record: bool) -> tuple:
    """Replace the measured component by the plane wave left at the event.

    A recorded outcome absorbs the particle (R = v = 0 stops it); otherwise
    it is re-emitted on the outgoing branch.
    """
    if not 0 <= outcome < len(waves):
        raise ValueError("outcome index out of range")
    wave = waves[outcome]
    if record:
        post = FreeWaveParams(
            k=0.0, omega=0.0, R=0.0, v=0.0, branch=wave.branch, constants=wave.constants
        )
    else:
        post = replace(wave, branch=Branch.OUTGOING)
    return tuple(post if i == outcome else w for i, w in enumerate(waves))


def _project(state: SuperposedState, outcome: int, event: MeasurementEvent, record: bool,
             **changes) -> SuperposedState:
    """Collapse ``state`` onto ``outcome``, replacing ``changes`` fields as well.

    A no-op when the outcome already has unit amplitude and every field
    already holds its post-measurement value; otherwise the event must be
    the outcome component's arrival.
    """
    changes["waves"] = _post_measurement_waves(state.waves, outcome, record)
    amps = np.zeros(state.n, dtype=complex)
    amps[outcome] = 1.0
    if np.array_equal(state.amplitudes, amps) and all(
        getattr(state, name) == value for name, value in changes.items()
    ):
        return state
    if not at_arrival(event.x, event.t, state.waves[outcome].v, event.tol):
        raise ValueError("event does not match the outcome component's arrival")
    return replace(state, amplitudes=amps, **changes)


def dirac_project(
    state: SuperposedState,
    outcome: int,
    event: MeasurementEvent,
    record: bool = False,
) -> SuperposedState:
    """Collapse a superposition to the component found at the event.

    The surviving amplitude is exactly one and the surviving wave is the
    measurement-point plane wave: with ``record=True`` the particle is
    stopped and absorbed (R = v = 0); otherwise it is re-emitted on the
    outgoing branch.  Projecting an already-projected state is a no-op.
    """
    return _project(state, outcome, event, record)


@dataclass(frozen=True, eq=False)
class CompositeState(SuperposedState):
    """Entangled system+pointer state: sum_i a_i psi_i (x) phi_i.

    A superposition whose ``waves`` are the system factors psi_i, each
    paired with a pointer factor phi_i.  Pointer states must be pairwise
    distinct; they represent macroscopically distinguishable device
    configurations whose mutual orthogonality makes the paired product
    states theta_i orthogonal.
    """

    pointer_components: tuple[FreeWaveParams, ...]
    collapsed: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        pointers = tuple(self.pointer_components)
        if len(pointers) != self.n:
            raise ValueError("component counts must match the amplitude count")
        if len(set(pointers)) != self.n:
            raise ValueError("pointer states must be mutually orthogonal (distinct)")
        object.__setattr__(self, "pointer_components", pointers)

    @property
    def system_components(self) -> tuple[FreeWaveParams, ...]:
        return self.waves


def tensor_compose(system_states, pointer_states, amplitudes) -> CompositeState:
    """Build the entangled composite sum_i a_i psi_i (x) phi_i."""
    return CompositeState(amplitudes, tuple(system_states), tuple(pointer_states))


def composite_eigenvalues(
    composite: CompositeState, system_eigs=None, pointer_eigs=None
) -> np.ndarray:
    """Eigenvalues of A (x) B on the product components: lambda_i * eta_i.

    Defaults to the energy eigenvalues of each factor.
    """
    if system_eigs is None:
        system_eigs = [apply_observable("H", w).value for w in composite.system_components]
    if pointer_eigs is None:
        pointer_eigs = [apply_observable("H", w).value for w in composite.pointer_components]
    return np.asarray(system_eigs, dtype=complex) * np.asarray(pointer_eigs, dtype=complex)


def composite_schrodinger_residual(
    composite: CompositeState,
    index: int,
    grid_system: Grid1D,
    grid_pointer: Grid1D,
    h_x: float = 1e-3,
    h_t: float = 1e-3,
) -> float:
    """Finite-difference residual of the two-coordinate product wave.

    theta(x1, x2, t) = psi(x1, t) * phi(x2, t) must satisfy the composite
    free equation i*hbar*theta_t + (hbar^2/2m)(theta_x1x1 + theta_x2x2) = 0
    when both factors satisfy their own equations.
    """
    if grid_system.t != grid_pointer.t:
        raise ValueError("both grids must share the evaluation time")
    psi_w = composite.system_components[index]
    phi_w = composite.pointer_components[index]
    t = grid_system.t
    x1 = grid_system.xs()[:, None]
    x2 = grid_pointer.xs()[None, :]

    def theta(a, b, tt):
        return psi_free(psi_w, a, tt) * psi_free(phi_w, b, tt)

    hbar = psi_w.constants.hbar
    c = hbar * hbar / (2.0 * psi_w.constants.mass)
    d_t = (theta(x1, x2, t + h_t) - theta(x1, x2, t - h_t)) / (2.0 * h_t)
    base = theta(x1, x2, t)
    d_11 = (theta(x1 + h_x, x2, t) - 2.0 * base + theta(x1 - h_x, x2, t)) / h_x**2
    d_22 = (theta(x1, x2 + h_x, t) - 2.0 * base + theta(x1, x2 - h_x, t)) / h_x**2
    return float(np.max(np.abs(1j * hbar * d_t + c * (d_11 + d_22))))


def von_neumann_project(
    composite: CompositeState,
    outcome: int,
    event: MeasurementEvent,
    record: bool = False,
) -> CompositeState:
    """Collapse the composite to the single product theta_outcome.

    Both factors become plane waves at the measurement point and the
    amplitude is exactly one, by the same rule as ``dirac_project``.  The
    result carries ``collapsed=True``; no inverse operation exists in this
    module.  Idempotent.
    """
    pointers = _post_measurement_waves(composite.pointer_components, outcome, record)
    return _project(composite, outcome, event, record, pointer_components=pointers,
                    collapsed=True)


def mixture_density(states, weights) -> DensityMatrix:
    """Weighted mixture sum_i w_i |state_i><state_i| in the shared basis.

    All states must be amplitude vectors over the same orthonormal product
    basis (same length); weights must sum to one.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to one, got {weights.sum()}")
    vectors = []
    for s in states:
        vec = s.amplitudes if hasattr(s, "amplitudes") else np.asarray(s, dtype=complex)
        vectors.append(np.asarray(vec, dtype=complex))
    n = vectors[0].size
    if any(v.size != n for v in vectors):
        raise ValueError("all states must share the same basis dimension")
    rho = np.zeros((n, n), dtype=complex)
    for w, v in zip(weights, vectors):
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(entries=rho)


@dataclass(frozen=True)
class ComparedAverages:
    """Pre-measurement (entangled) vs post-measurement (reduced) averages."""

    entangled_avg: complex
    reduced_avg: float


def compare_averages(composite: CompositeState, eigenvalues) -> ComparedAverages:
    """Average a system observable over the entangled and reduced states.

    Before measurement the observable is non-Hermitian and the average
    sum |a_i|^2 lambda_i is complex; the reduced (measured) average keeps
    only the real parts.  The imaginary part equals
    sum |a_i|^2 * hbar * R_i / 2 for the energy observable.
    """
    eigs = np.asarray(eigenvalues, dtype=complex)
    if eigs.size != composite.n:
        raise ValueError("need one eigenvalue per component")
    p = composite.probabilities()
    entangled = complex(np.sum(p * eigs))
    reduced = float(np.sum(p * eigs.real))
    return ComparedAverages(entangled_avg=entangled, reduced_avg=reduced)
