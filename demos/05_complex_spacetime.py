#!/usr/bin/env python3
"""Complex space-time: real operators' complex values, commutators, contours.

Away from the measurement point every observable of the wave family takes
a complex value; only arrival makes it real.  Embedding the wave in
complex coordinates (x_c = x + ix, t_c = t + it) removes the quantum
potential from the dispersion, makes the density an entire function, and
supports the canonical commutators including one for time.
"""

import numpy as np

from pdwave.core import make_free_state
from pdwave.measurement import detect_mp
from pdwave import analysis as an
from pdwave import spectral as sp

state = make_free_state(v=1.0, R=1.0)

# Spectral values before measurement are complex...
for obs in ("H", "Hdagger", "P"):
    print(f"{obs:8s} -> {sp.apply_observable(obs, state).value}")
print("S(t0=1) ->", sp.apply_observable("S", state, t0=1.0).value)

# ...and hermitize (drop the imaginary part) at the arrival event.
event = detect_mp(state, 2.0, 2.0)
rec = sp.apply_observable("H", state)
print("hermitized at arrival:", sp.hermitize_at_mp(rec, event).value)

# Canonical commutators hold in the complex embedding, time included.
grid = np.linspace(0.1, 1.0, 7)
print("\n[x_c, p_c] =", sp.commutator_check("XcPc", state, grid))
print("[t_c, H_c] =", sp.commutator_check("TcHc", state, grid))

# The complex-coordinate wave satisfies the bare dispersion: the quantum
# potential gap hbar^2 R^2 / (8 m v^2) is exactly what remains when the
# envelope frequency is used instead.
import dataclasses
bare = dataclasses.replace(state, omega=0.5)
print("\nresidual with bare dispersion:", sp.complex_schrodinger_residual(bare, grid))
print("residual with envelope dispersion at x=0.5:",
      sp.complex_schrodinger_residual(state, [0.5]))
print("quantum potential gap:", an.quantum_potential(state))

# The densities are entire, so closed contours integrate to zero and open
# paths depend only on endpoints.
square = an.Contour(np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex))
print("\nclosed square integral:", abs(an.contour_integral(state, square)))
seg = an.Contour(np.array([0, 1], dtype=complex))
print("straight segment 0->1:", an.contour_integral(state, seg).real,
      " (1 - 1/e =", 1 - np.exp(-1.0), ")")

# Variance of a complex observable splits exactly between its parts.
rng = np.random.default_rng(1)
z = rng.normal(0, 2.0, 50_000) + 1j * rng.normal(0, 1.0, 50_000)
rep = an.uncertainty_decompose(an.ComplexSampleSet(values=z))
print("\nvar split: real", round(rep.var_real, 3), "imag", round(rep.var_imag, 3),
      "complex", rep.var_complex)
print("identity var_re - var_im - Re(var_c):",
      rep.var_real - rep.var_imag - rep.var_complex.real)

# The imaginary-part uncertainties obey the same floor as the real ones.
print("heisenberg floor met (1.0 * 0.5):", an.heisenberg_check(1.0, 0.5))

# A moving system surrounds itself with an exponential probability field.
from pdwave.freewave import normalize_state
print("field at separation ln 2:",
      sp.probability_field(np.log(2.0), normalize_state(state)))
