"""Walk through the basic lattice objects: cubes, blocks, spectra.

A cube has L**m sites per axis at spacing L**-k, so blocks of side L**j tile
it exactly and the coarse lattices nest cleanly.  The Neumann Laplacian is a
Kronecker sum of tridiagonal pieces whose spectrum is known in closed form;
this script checks the dense eigenvalues against it and shows the averaging
operator acting as a partial isometry.
"""

import numpy as np

from blockrg import lattice as lat, operators as ops

geom = lat.make_geometry(d=1, L=3, k=1, m=2)
print(f"geometry: {geom.sites_per_axis} sites/axis, spacing {geom.spacing:.4f}, "
      f"side {geom.side_length}")

print("\nblocks of level 1 tile the cube:")
coarse = lat.coarse_geometry(geom, 1)
for label in lat.all_sites(coarse):
    members = [tuple(s) for s in lat.block_sites(geom, 1, tuple(label))]
    print(f"  block {tuple(label)} -> sites {members}")

print("\nimage points (shells=1) of site (1,): its mirror images in the low")
print("plane (c -> -1 - c) and the high plane (c -> 2N - 1 - c), and itself:")
print(f"  image set:  {[tuple(p) for p in lat.image_points(geom, (1,), 1)]}")

print("\nNeumann spectrum vs closed form (n = 9, eta = 1/3):")
rep = ops.laplacian_spectrum_1d(9, 1.0 / 3.0)
for ev, cf in zip(rep.eigenvalues, rep.closed_form):
    print(f"  dense {ev:14.8f}   closed form {cf:14.8f}")
print(f"  max relative deviation: {ops.spectrum_rel_error(rep):.3e}")

print("\naveraging operator: block means, partial isometry, projector")
Q = ops.averaging(geom, 1)
f = ops.Field(geom, [1, 2, 3, 0, 0, 0, 0, 0, 0])
print(f"  Q (1,2,3,0,...,0) = {np.round(ops.apply(Q, f).values.real, 6)}")
P = ops.block_projector(geom, 1).matrix
QQs = (Q @ ops.adjoint(Q)).matrix
print(f"  |Q Q* - 1|_F  = {np.linalg.norm(QQs - np.eye(coarse.site_count)):.2e}")
print(f"  |P^2 - P|_F   = {np.linalg.norm(P @ P - P):.2e}")

print("\nChebyshev roots of U_5, checked by U_n(cos t) = sin((n+1) t) / sin t:")
roots = ops.chebyshev_roots(5)
t = np.arccos(roots)
print(f"  roots: {np.round(roots, 6)}")
print(f"  |U_5(roots)| <= {np.max(np.abs(np.sin(6 * t) / np.sin(t))):.2e}")
