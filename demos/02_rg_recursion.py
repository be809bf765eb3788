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
    # every residual reads tower levels: level j of the cube, and level j of
    # the cube scaled by L**(k - j), the telescope's term j
    own = [ms.tower_level(geom, params, j) for j in range(1, geom.k + 1)]
    scaled = [ms.tower_level(lat.scale_geometry(geom, geom.k - j), params, j)
              for j in range(1, geom.k + 1)]
    rows = []
    for j in range(1, geom.k):
        rows.append((f"one-step residual (j={j})", ms.rg_step_residual(own[j - 1], own[j])))
        rows.append((f"covariance identity (j={j})",
                     ms.c_identity_residual(own[j - 1], own[j])))
    rows.append(("telescoped formula", ms.rg_telescope_residual(scaled)))
    for j in range(1, min(geom.k, geom.m - 1) + 1):
        rows.append((f"scaling covariances, worst (j={j})",
                     max(ms.scaling_residuals(own[j - 1], scaled[j - 1]).values())))
    for name, value in rows:
        print(f"  {name:34s} {value:.3e}")

print("\nwith a mass (mu0 = 0.1):")
geom = lat.make_geometry(1, 3, 2, 2)
pm = ms.MultiscaleParams(mu0=0.1)
lo, hi = ms.tower_level(geom, pm, 1), ms.tower_level(geom, pm, 2)
print(f"  one-step residual:  {ms.rg_step_residual(lo, hi):.3e}")
print(f"  telescoped formula: "
      f"{ms.rg_telescope_residual([ms.tower_level(lat.scale_geometry(geom, 1), pm, 1), hi]):.3e}")

print("\ncoercivity across scales at fixed physical side:")
geoms = [lat.make_geometry(1, 3, k, k + 1) for k in (1, 2, 3)]
for row in ms.positivity_report(geoms, params):
    print(f"  k={row.k}: c = {row.c:.6f}")
