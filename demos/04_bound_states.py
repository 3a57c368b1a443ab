#!/usr/bin/env python3
"""Bound-state amplitudes from the radial eigenproblem.

The envelope amplitude of a state in a static potential satisfies a
Sturm-Liouville equation with a reflecting (zero-slope) condition at the
inner edge and decay at infinity, truncated here to a Dirichlet wall.
Two independent routes must agree: fourth-order Numerov shooting and a
Richardson-extrapolated tridiagonal matrix.
"""

import numpy as np

from pdwave import potential as pot

# Half-open box: R'(0) = 0, R(1) = 0.  Closed form: E_n = ((n+1/2) pi)^2 / 2.
n = 64
box = pot.SLProblem(x0=0.0, x_end=1.0, kx=np.zeros(n), V=np.zeros(n), n_eigen=6)
sol = pot.solve_sturm_liouville(box)
shoot, dense = sol.eigenvalues, sol.matrix_eigenvalues
exact = ((np.arange(6) + 0.5) * np.pi) ** 2 / 2.0

print("box eigenvalues (shooting vs matrix vs exact):")
print(" n   shooting        matrix          exact           rel.err")
for j in range(6):
    rel = abs(shoot[j] - exact[j]) / exact[j]
    print(f"{j:2d}   {shoot[j]:.10f}  {dense[j]:.10f}"
          f"  {exact[j]:.10f}  {rel:.1e}")

# The fine matrix grid's eigenfunctions come out orthonormal under the
# trapezoid inner product.
_, funcs, x = pot.matrix_eigen(box, 4001)
w = np.full(x.size, x[1] - x[0])
w[0] = w[-1] = 0.5 * w[0]
gram = np.einsum("ik,k,jk->ij", funcs, w, funcs)
print("\northonormality defect:", np.max(np.abs(gram - np.eye(6))))

# A constant local wave number k0 shifts the whole spectrum by k0^2/2.
shifted = pot.solve_sturm_liouville(
    pot.SLProblem(x0=0.0, x_end=1.0, kx=np.full(n, 2.0), V=np.zeros(n), n_eigen=3)
)
print("\nconstant k0=2 shift (should be 2.0):", shifted.eigenvalues - shoot[:3])

# Half-line harmonic well: the zero-slope condition selects the even
# oscillator states 1/2, 5/2, 9/2.
xs = np.linspace(0.0, 8.0, 128)
osc = pot.SLProblem(x0=0.0, x_end=8.0, kx=np.zeros(128), V=0.5 * xs**2, n_eigen=3)
osc_energies = pot.solve_sturm_liouville(osc).eigenvalues
print("\nhalf-line oscillator:", osc_energies)

# Discrete energies discretize the arrival times at a fixed detector.
times = pot.mode_arrival_times(osc_energies, x=4.0)
print("mode arrival times at x=4:", times)
