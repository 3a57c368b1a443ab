"""Non-unitary time evolution, density matrices, purity, and entropy.

Each superposition component evolves under its own complex energy
hbar*omega + i*hbar*R/2, so single-component norms grow like exp(R*t) and
the evolution operator is a non-unitary normal operator.  Measurement
reduces the pure density matrix to its diagonal (a mixture), and the
unmeasured entropy of a normalized state falls linearly at rate k_B*v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import FreeWaveParams

__all__ = [
    "SuperposedState",
    "EvolvedState",
    "DensityMatrix",
    "EntropyTrajectory",
    "evolve_state",
    "evolve_density",
    "reduce_to_mixture",
    "purity",
    "entropy_trajectory",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SuperposedState:
    """Complex amplitudes over component waves, normalized at construction."""

    amplitudes: np.ndarray
    waves: tuple[FreeWaveParams, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise ValueError("need at least one component")
        if len(self.waves) != amps.size:
            raise ValueError("amplitudes and waves must pair up")
        total = float(np.sum(np.abs(amps) ** 2))
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"amplitudes must be normalized; sum of squares = {total}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "waves", tuple(self.waves))

    @property
    def n(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        p = np.abs(self.amplitudes) ** 2
        return p / p.sum()


@dataclass(frozen=True, eq=False)
class EvolvedState:
    """Result of non-unitary evolution: unnormalized amplitudes plus norm."""

    amplitudes: np.ndarray

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def evolve_state(state: SuperposedState, t: float) -> EvolvedState:
    """Evolve each amplitude by exp(-i*omega_i*t + R_i*t/2).

    The squared norm of the result is sum |a_i|^2 exp(R_i t); it equals one
    for all t only in the measurement-point regime R = 0.
    """
    factors = np.array(
        [np.exp(complex(0.5 * w.R * t, -w.omega * t)) for w in state.waves]
    )
    return EvolvedState(amplitudes=state.amplitudes * factors)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Finite complex density matrix, Hermitian and positive semi-definite."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > 1e-12 * scale:
            raise ValueError("density matrix must be Hermitian within 1e-12")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < -1e-10 * scale:
            raise ValueError(f"density matrix must be PSD; min eigenvalue {min_eig}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def to_json(self) -> str:
        """Serialize as a row-major list of [re, im] pairs."""
        pairs = [[z.real, z.imag] for z in self.entries.ravel()]
        return json.dumps({"n": self.n, "entries": pairs})

    @classmethod
    def from_json(cls, text: str) -> "DensityMatrix":
        obj = json.loads(text)
        n = obj["n"]
        flat = np.array([complex(re, im) for re, im in obj["entries"]])
        return cls(entries=flat.reshape(n, n))


def evolve_density(rho0: DensityMatrix, eigs, t: float) -> DensityMatrix:
    """Conjugate rho0 by the diagonal evolution exp(-i*H*t/hbar).

    ``eigs`` are the per-component complex energies hbar*omega_i +
    i*hbar*R_i/2; entry (i, j) picks up
    exp[-i(omega_i - omega_j)t + (R_i + R_j)t/2].
    """
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.size != rho0.n:
        raise ValueError("need one eigenvalue per component")
    m = np.exp(-1j * eigs * t)
    return DensityMatrix(entries=np.outer(m, m.conj()) * rho0.entries)


def reduce_to_mixture(state: SuperposedState) -> DensityMatrix:
    """Decohere a pure superposition into diag(|a_1|^2, ..., |a_n|^2).

    Off-diagonal coherences are exactly zero in the component basis.
    """
    return DensityMatrix(entries=np.diag(np.abs(state.amplitudes) ** 2).astype(complex))


def purity(rho: DensityMatrix) -> float:
    """trace(rho^2) of a unit-trace density matrix; 1 iff a projector."""
    if abs(rho.trace() - 1.0) > 1e-10:
        raise ValueError(f"purity requires unit trace, got {rho.trace()}")
    return float(np.trace(rho.entries @ rho.entries).real)


@dataclass(frozen=True, eq=False)
class EntropyTrajectory:
    """Entropy samples of an unmeasured state, with measurement resets."""

    times: np.ndarray
    S: np.ndarray
    measurement_times: np.ndarray
    post_measurement_S: np.ndarray

    def __post_init__(self) -> None:
        if self.times.shape != self.S.shape:
            raise ValueError("times and S must align")


def entropy_trajectory(
    state: SuperposedState,
    times,
    measurement_times=(),
) -> EntropyTrajectory:
    """Entropy S(t) = -k_B * v * t of a state measured at t = 0.

    v is the dominant component's, which must be normalized (R = v): the
    unmeasured norm v/R then combines with the energy's imaginary part to
    give a constant slope -k_B*v.  Any time listed in
    ``measurement_times`` resets the entropy to zero (a measurement).
    """
    dominant = state.waves[int(np.argmax(np.abs(state.amplitudes)))]
    if not dominant.is_normalized:
        raise ValueError("entropy trajectory requires a normalized state (R = v)")
    ts = np.asarray(times, dtype=float)
    S = -dominant.v * ts
    m_ts = np.asarray(list(measurement_times), dtype=float)
    return EntropyTrajectory(
        times=ts,
        S=S,
        measurement_times=m_ts,
        post_measurement_S=np.zeros_like(m_ts),
    )
