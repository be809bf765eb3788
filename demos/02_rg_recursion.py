"""One renormalization step, exactly.

The regularized propagators at consecutive scales differ by a sandwich of
the fluctuation covariance between averaged propagators; iterating the step
telescopes the finest propagator into a sum of rescaled fluctuation kernels.
Both are exact operator identities, so the residuals below should sit at
rounding level; anything bigger means a convention bug.  They are computed
on the DCT frequency classes, where every operator of the tower is diagonal
plus rank one per class, with no n x n matrix.
"""

from blockrg import lattice as lat, multiscale as ms

params = ms.MultiscaleParams(a=1.0, mu0=0.0)

print("coefficient sequence (a = 1, L = 3):")
print(" ", [round(float(x), 6) for x in ms.a_sequence(1.0, 3, 6)])
print("  limit a (1 - L^-2) =", 1.0 * (1 - 3.0**-2))

for args in [(1, 3, 2, 2), (1, 3, 2, 3), (2, 3, 2, 2)]:
    geom = lat.make_geometry(*args)
    print(f"\ncube d={geom.d}, L={geom.L}, k={geom.k}, m={geom.m} ({geom.site_count} sites):")
    rows = []
    for j in range(1, geom.k):
        rows.append((f"one-step residual (j={j})", ms.rg_step_residual(geom, params, j)))
        rows.append((f"covariance identity (j={j})", ms.c_identity_residual(geom, params, j)))
    rows.append(("telescoped formula", ms.rg_telescope_residual(geom, params)))
    for j in range(1, geom.k + 1):
        if j < geom.m:
            rows.append((f"scaling covariances, worst (j={j})",
                         max(ms.scaling_residuals(geom, params, j).values())))
    for name, value in rows:
        print(f"  {name:34s} {value:.3e}")

print("\nwith a mass (mu0 = 0.1):")
geom = lat.make_geometry(1, 3, 2, 2)
pm = ms.MultiscaleParams(mu0=0.1)
print(f"  one-step residual:  {ms.rg_step_residual(geom, pm, 1):.3e}")
print(f"  telescoped formula: {ms.rg_telescope_residual(geom, pm):.3e}")

print("\ncoercivity across scales at fixed physical side:")
geoms = [lat.make_geometry(1, 3, k, k + 1) for k in (1, 2, 3)]
for row in ms.positivity_report(geoms, params):
    print(f"  k={row.k}: c = {row.c:.6f}")
