"""Neumann kernels from free kernels: the method of images at work.

Summing the free kernel over reflected copies of the source reproduces the
cube propagator; the truncation error decays geometrically with the number
of reflected copies kept.  The sweep below converges onto the dense direct
solve.  In two dimensions on a unit-side cube the tail rate is the same but
each shell only gains one unit of distance, so convergence per shell is much
slower; the deep-shell entry shows the identity still holds there.
"""

from blockrg import images as im, lattice as lat, multiscale as ms
from blockrg.lattice import site_to_flat

params = ms.MultiscaleParams()

geom = lat.make_geometry(1, 3, 1, 2)
G = ms.green_neumann(geom, params)
x = y = (4,)
direct = G.kernel[site_to_flat(geom, x), site_to_flat(geom, y)]
print(f"1d cube (9 sites, side 3), center entry, direct solve: {direct.real:.10f}")
print("image-sum sweep:")
for shells in (1, 2, 3, 4, 6):
    r = im.neumann_kernel_via_images(geom, params, x, y, shells)
    print(f"  shells={shells}: value {r.value:.10f}  "
          f"|err| {abs(r.value - direct):.2e}  "
          f"tail estimate {r.truncation_estimate:.2e}")

print("\nsame game for the averaged kernel (G Q*):")
# (G Q*)(x, y) is the mean of G(x, .) over the sites of unit block y
coarse = lat.coarse_geometry(geom, 1)
block = lat.block_table(geom, 1)[site_to_flat(coarse, (1,))]
dgq = G.kernel[site_to_flat(geom, (4,)), block].mean()
for shells in (2, 4, 6):
    r = im.gq_kernel_via_images(geom, params, (4,), (1,), shells)
    print(f"  shells={shells}: |err| {abs(r.value - dgq):.2e}")

print("\n2d unit-side cube: slow per-shell gain, identity intact at depth")
geom2 = lat.make_geometry(2, 3, 1, 1)
G2 = ms.green_neumann(geom2, params)
x2 = y2 = (1, 1)
d2 = G2.kernel[site_to_flat(geom2, x2), site_to_flat(geom2, y2)]
for shells in (3, 6, 9, 12):
    r = im.neumann_kernel_via_images(geom2, params, x2, y2, shells)
    print(f"  shells={shells:2d}: |err| {abs(r.value - d2):.2e}")
