#!/usr/bin/env python3
"""Single-shot collapse and ensemble Born statistics.

A three-component superposition is measured when one component's wave peak
reaches the detector.  A single measurement projects the state onto that
component (amplitude exactly one); repeating the experiment on fresh
copies reproduces the squared-amplitude frequencies.
"""

import numpy as np

from pdwave.core import make_free_state
from pdwave.evolution import SuperposedState
from pdwave import measurement as ms

weights = np.array([0.5, 0.3, 0.2])
waves = tuple(make_free_state(v, v) for v in (1.0, 2.0, 3.0))
state = SuperposedState(np.sqrt(weights).astype(complex), waves)
print("amplitudes squared:", state.probabilities())

# The fastest component's peak reaches a detector at x = 4 first, at
# t = x / v = 4/3; the slowest arrives at t = 4.
for i, w in enumerate(waves):
    print(f"component {i}: v = {w.v}, arrives at x=4 when t = {4.0 / w.v:.4f}")

# A measurement event exists only when some peak is at the detector.
print("event at (x=4, t=2)?", ms.detect_mp(state, 4.0, 2.0) is not None)   # v=2 arrives
print("event at (x=4, t=1.7)?", ms.detect_mp(state, 4.0, 1.7) is not None)

# One single-shot measurement: sample an outcome, then project.
rng = np.random.default_rng(7)
outcome = ms.sample_outcome(state, rng)
event = ms.detect_mp(waves[outcome], 4.0, 4.0 / waves[outcome].v)
post = ms.dirac_project(state, outcome, event)
print(f"\nsampled outcome {outcome}; post-measurement amplitudes: {post.amplitudes}")
print("post-state density at the detector:", abs(post.amplitudes[outcome]) ** 2)

# Ensemble: 100k identical preparations, deterministic seeded streams.
report = ms.run_ensemble(state, n_trials=100_000, seed=42, workers=4)
print("\noutcome  count   frequency  expected  z")
for i in range(3):
    print(
        f"{i:7d}  {report.counts[i]:6d}   {report.frequencies[i]:.5f}"
        f"    {report.expected[i]:.2f}     {report.z_scores()[i]:+.3f}"
    )
print(f"chi-square = {report.chi_square:.3f}, p = {report.p_value():.3f}")

# A composite (system + pointer) measurement collapses both factors at
# once; the projection carries an irreversibility flag.
composite = ms.tensor_compose(
    waves[:2],
    (make_free_state(5.0, 5.0), make_free_state(6.0, 6.0)),
    np.sqrt([0.5, 0.5]).astype(complex),
)
evt = ms.detect_mp(composite.system_components[0], 1.0, 1.0)
collapsed = ms.von_neumann_project(composite, 0, evt)
print("\ncomposite collapsed:", collapsed.amplitudes, "flag:", collapsed.collapsed)
