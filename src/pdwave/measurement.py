"""Measurement-point detection, outcome sampling, and projection postulates.

A measurement happens where a free component's probability-wave peak
reaches the device particle x, at its arrival time t = x/v
(``core.on_arrival``).  Outcomes are drawn categorically from the squared
amplitudes; projection collapses the superposition to a single
unit-amplitude component, re-emitted on the outgoing branch from the
measurement point.  Composites pair system and pointer waves with
postulated pointer orthogonality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import Branch, FreeWaveParams, MeasurementEvent, on_arrival
from .evolution import DensityMatrix, SuperposedState

__all__ = [
    "MeasurementEvent",
    "CompositeState",
    "EnsembleReport",
    "detect_mp",
    "sample_outcome",
    "run_ensemble",
    "dirac_project",
    "tensor_compose",
    "von_neumann_project",
    "mixture_density",
    "compare_averages",
]


def detect_mp(target, x: float, t: float) -> MeasurementEvent | None:
    """Return a measurement event iff a wave peak arrives at (x, t).

    ``target`` may be a FreeWaveParams or a SuperposedState (the first
    component that arrives); a wave's arrival time at x is tau = x/v.  The
    condition is ``on_arrival(t, tau)``.  Absence of an event is a value,
    not an error.
    """
    if not isinstance(target, (FreeWaveParams, SuperposedState)):
        raise TypeError(f"cannot detect a measurement point on {type(target).__name__}")
    waves = target.waves if isinstance(target, SuperposedState) else (target,)
    for tau in (x / wave.v for wave in waves):
        if on_arrival(t, tau):
            return MeasurementEvent(x=x, t=t, tau=tau)
    return None


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
        """(f_i - p_i)/sqrt(p_i(1-p_i)/n_trials) per outcome; a zero sigma raises ValueError."""
        sigma = np.sqrt(self.expected * (1.0 - self.expected) / self.n_trials)
        if not np.all(sigma > 0.0):
            raise ValueError("weights give an outcome a Born probability too close to 0 or 1 "
                             f"for a z-score over {self.n_trials} trials")
        return (self.frequencies - self.expected) / sigma

    def p_value(self) -> float:
        """P(chi^2_df > chi_square), df = outcomes - 1, from the closed-form series of the tail.

        Even df: the Poisson tail sum_{k < df/2} e^{-x/2} (x/2)^k / k!.  Odd df:
        erfc(sqrt(x/2)) plus the half-integer terms e^{-x/2} (x/2)^{k+1/2} /
        Gamma(k + 3/2).  Each term is one exp of a log-space sum, so no power
        or factorial overflows at large df.
        """
        x, df = self.chi_square, self.counts.size - 1
        if x <= 0.0:
            return 1.0
        half, log_half = 0.5 * x, math.log(0.5 * x)
        offset = 0.0 if df % 2 == 0 else 0.5
        terms = [math.exp((k + offset) * log_half - half - math.lgamma(k + offset + 1.0))
                 for k in range(df // 2)]
        if offset:
            terms.append(math.erfc(math.sqrt(half)))
        return min(1.0, math.fsum(terms))

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
    if not np.all(probs > 0.0):
        raise ValueError("weights give an outcome a Born probability of 0, "
                         "where its chi-square term is 0/0")
    children = np.random.SeedSequence(seed).spawn(workers)
    base, extra = divmod(n_trials, workers)
    counts = np.zeros(state.n, dtype=np.int64)
    for i, child in enumerate(children):
        m = base + (1 if i < extra else 0)
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


def _post_measurement_waves(waves: tuple, outcome: int) -> tuple:
    """Re-emit the measured component on the outgoing branch from the event."""
    if not 0 <= outcome < len(waves):
        raise ValueError("outcome index out of range")
    post = replace(waves[outcome], branch=Branch.OUTGOING)
    return tuple(post if i == outcome else w for i, w in enumerate(waves))


def dirac_project(state: SuperposedState, outcome: int, event: MeasurementEvent) -> SuperposedState:
    """Collapse a superposition to the component found at the event.

    The surviving amplitude is exactly one and the surviving wave leaves the
    measurement point on the outgoing branch.  On a CompositeState this is
    von Neumann projection:
    the pointer factor follows the same rule and ``collapsed`` becomes True.
    A no-op when every field already holds its post-measurement value;
    otherwise the event must be the outcome component's arrival.
    """
    changes = {"waves": _post_measurement_waves(state.waves, outcome)}
    if isinstance(state, CompositeState):
        changes["pointer_components"] = _post_measurement_waves(state.pointer_components, outcome)
        changes["collapsed"] = True
    amps = np.zeros(state.n, dtype=complex)
    amps[outcome] = 1.0
    if np.array_equal(state.amplitudes, amps) and all(
        getattr(state, name) == value for name, value in changes.items()
    ):
        return state
    wave = state.waves[outcome]
    if not on_arrival(event.t, event.x / wave.v):
        raise ValueError("event does not match the outcome component's arrival")
    return replace(state, amplitudes=amps, **changes)


# The paper's name for the same rule applied to a system-pointer composite.
von_neumann_project = dirac_project


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


def mixture_density(states, weights) -> DensityMatrix:
    """Weighted mixture sum_i w_i |state_i><state_i| in the shared basis.

    All states must be amplitude vectors over the same orthonormal product
    basis (same length); weights must sum to one.
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to one, got {weights.sum()}")
    vectors = [np.asarray(s, dtype=complex) for s in states]
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
