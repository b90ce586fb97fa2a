"""Riesz projections of a Hill operator, step by step.

Builds the operator for v = 2 cos 2x (periodic boundary conditions),
computes the contour-quadrature projection for one spectral level, and
compares it against the exact free projection and against a dense
eigendecomposition.
"""

import numpy as np

import hillproj as hp
from hillproj import projector

# --- assemble the truncated operator --------------------------------------
# The potential is stored through the coefficients of its antiderivative Q;
# for v = 2 cos 2x the interaction sequence is V(+-2) = 1, the classical
# two-off-diagonal matrix.
p = hp.mathieu(1.0)
H = hp.assemble(hp.BoundaryCondition.PER_PLUS, p, half_width=64)
print(f"basis size {H.size}, coverage {H.coverage:.3f}")

# --- localization: two eigenvalues per disc --------------------------------
for n in (6, 8, 10, 12):
    print(f"n={n:3d}: eigenvalues in |z - n^2| < n:",
          hp.eigen_count_in_disc(H, n))

# --- the projection and its quality metrics --------------------------------
n = 10
pair = hp.riesz_projection(H, n)
print(f"\nlevel n={n}")
print(f"  trace(P)            = {pair.trace:.12f}   (rank should be 2)")
print(f"  ||P^2 - P||_F       = {pair.idempotency:.3e}")
print(f"  quadrature estimate = {pair.quad_error_est:.3e} at {pair.nodes_used} nodes")

dense = projector.spectral_projector_dense(H, n)
print(f"  vs eigendecomposition: {np.linalg.norm(pair.P - dense, 'fro'):.3e}")

# --- the deviation from the free projection --------------------------------
# P is kept as X G Y^T (X, Y: N x 2, G: 2 x 2); ||B||_2 comes from a 4 x 4
# core, sum|B| from row blocks; pair.B forms the dense matrix on request
print(f"\n||B||_2 = {pair.t_n:.4e}   sum|B| = {pair.sum_abs_B:.4e}")
print("the deviation concentrates on the +-n row/column:")
k = H.basis.position(n)
print("  row n, entries at m = n-4..n+4:",
      np.round(pair.B[k, k - 2:k + 3], 5))

# --- first-order term: quadrature against the closed form ------------------
dev = projector.quadrature_vs_residue_check(p, hp.BoundaryCondition.PER_PLUS,
                                            n, 4 * n, nodes=64)
print(f"\nfirst-order quadrature vs residues: max entry gap {dev:.2e}")
