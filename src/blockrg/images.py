"""Reconstruct Neumann kernels from free-lattice kernels by summing over images.

The Neumann propagator kernel on the cube equals the free-lattice kernel
summed over all reflected copies of the source point; truncating the image
set at a finite number of reflected copies per axis leaves a geometrically
small tail because the free kernel decays exponentially.  The same works for
``G_k Q_k*`` with the reflection words applied to the fine argument.

All free kernels come from :mod:`blockrg.fourier` with quadrature driven to
self-convergence, so the reported truncation numbers measure the image tail
and not the quadrature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fourier, multiscale, operators as ops
from .lattice import (LatticeGeometry, coarse_geometry, image_points,
                      image_shell_index, sample_sites, site_position,
                      site_to_flat)

SHELL_RATIO_LIMIT = 0.9


class ImageSumDivergence(RuntimeError):
    """Shell contributions stopped decaying; the image sum cannot be trusted."""


@dataclass(frozen=True)
class ImageSumResult:
    value: complex
    shells_used: int
    last_shell_contribution: float
    truncation_estimate: float
    shell_magnitudes: tuple


def _assemble(vals: np.ndarray, shell_idx: np.ndarray, shells: int) -> ImageSumResult:
    mags = np.array([abs(vals[shell_idx == s].sum()) for s in range(shells + 1)])
    ratios = [mags[s] / mags[s - 1] for s in range(1, shells + 1) if mags[s - 1] > 0]
    if shells >= 2 and ratios and ratios[-1] > SHELL_RATIO_LIMIT:
        raise ImageSumDivergence(
            f"shell ratio {ratios[-1]:.3f} above {SHELL_RATIO_LIMIT}; "
            "free-kernel decay too slow for image summation")
    r = min(max(ratios[-1] if ratios else 0.5, 1e-6), SHELL_RATIO_LIMIT)
    last = float(mags[-1])
    return ImageSumResult(value=complex(vals.sum()), shells_used=shells,
                          last_shell_contribution=last,
                          truncation_estimate=last * r / (1.0 - r),
                          shell_magnitudes=tuple(float(m) for m in mags))


def _image_batch(geom: LatticeGeometry, site, shells: int, kernel,
                 grid: fourier.TorusGrid | None, tol: float):
    """Converged ``kernel(image positions, grid)`` over the images of ``site``.

    Returns ``(values, shell index per image)``; the quadrature grid is
    doubled from ``grid`` (default: ``fourier.default_grid``) until the whole
    batch is stable at ``tol``.
    """
    if shells < 1:
        raise ValueError("need shells >= 1")
    if grid is None:
        grid = fourier.default_grid(geom.d, geom.L, geom.k)
    pos = image_points(geom, site, shells) * geom.spacing
    vals, _, _ = fourier.converge_kernel(lambda g: kernel(pos, g), grid, tol=tol)
    return vals, image_shell_index(geom, site, shells)


def _neumann_batch(geom, params, x, y, shells, grid, tol):
    """Free kernels ``G(x, .)`` over the images of ``y``; see ``_image_batch``."""
    xpos = site_position(geom, x)[None, :]
    return _image_batch(
        geom, y, shells,
        lambda ypos, g: fourier.free_kernel_g(xpos, ypos, g, params)[0], grid, tol)


def neumann_kernel_via_images(geom: LatticeGeometry, params, x, y, shells: int,
                              grid: fourier.TorusGrid | None = None,
                              tol: float = 1e-8) -> ImageSumResult:
    """Image-sum value of the Neumann kernel ``G_k(Omega)(x, y)``.

    Sums the free kernel over all images of ``y`` within ``shells`` reflected
    copies per axis, with the quadrature grid doubled until stable.
    """
    vals, shell_idx = _neumann_batch(geom, params, x, y, shells, grid, tol)
    return _assemble(vals, shell_idx, shells)


def gq_kernel_via_images(geom: LatticeGeometry, params, x, y_label, shells: int,
                         grid: fourier.TorusGrid | None = None,
                         tol: float = 1e-8) -> ImageSumResult:
    """Image-sum value of ``(G_k(Omega) Q_k*)(x, y)`` for a coarse label ``y``.

    The reflection words act on the fine argument here (each image map is an
    involution, so summing over transformed ``x`` equals summing over image
    sources), while the unit-block source stays put.
    """
    ypos = np.asarray(y_label, dtype=float)[None, :]
    vals, shell_idx = _image_batch(
        geom, x, shells,
        lambda xpos, g: fourier.free_kernel_gq(xpos, ypos, g, params)[:, 0], grid, tol)
    return _assemble(vals, shell_idx, shells)


@dataclass(frozen=True)
class ImagesReport:
    geometry: LatticeGeometry
    shells: tuple
    neumann_max: tuple
    neumann_median: tuple
    gq_max: tuple
    neumann_center: tuple
    runtime_seconds: float


def images_residual_report(geom: LatticeGeometry, params, shells: int,
                           grid: fourier.TorusGrid | None = None,
                           tol: float = 1e-8) -> ImagesReport:
    """Residuals of both image reconstructions against the dense direct solve.

    For every shell count ``1..shells``: max and median of
    ``|image sum - direct|`` over the deterministic site sample for the
    Neumann kernel, max for the ``G Q*`` kernel over sample-by-coarse pairs,
    plus the center-pair Neumann residual (the reference entry).  Image sums
    for smaller shell counts are prefixes of the largest one, so the sweep
    costs one kernel batch.
    """
    t0 = time.time()
    G = multiscale.green_neumann(geom, params)
    GQ = G @ ops.adjoint(ops.averaging(geom, geom.k))
    xs = sample_sites(geom)
    center = ((geom.sites_per_axis // 2,) * geom.d)

    # one converged batch of free kernels per (y, all images of y)
    def residuals_for_pair(x, y):
        vals, shell_idx = _neumann_batch(geom, params, x, y, shells, grid, tol)
        direct = G.kernel[site_to_flat(geom, x), site_to_flat(geom, y)]
        return [abs(vals[shell_idx <= s].sum() - direct) for s in range(1, shells + 1)]

    res = {(x, y): residuals_for_pair(x, y) for x in xs for y in xs}
    neumann_max = tuple(max(r[s] for r in res.values()) for s in range(shells))
    neumann_median = tuple(float(np.median([r[s] for r in res.values()]))
                           for s in range(shells))
    neumann_center = tuple(res[(center, center)])

    coarse = coarse_geometry(geom, geom.k)
    ylabels = sample_sites(coarse)
    ypos = np.array(ylabels, dtype=float)
    gq_res = []
    for x in xs:
        # all coarse labels in one batch: convergence is judged over all of them
        vals, shell_idx = _image_batch(
            geom, x, shells,
            lambda xpos, g: fourier.free_kernel_gq(xpos, ypos, g, params), grid, tol)
        for iy, ylab in enumerate(ylabels):
            direct = GQ.kernel[site_to_flat(geom, x), site_to_flat(coarse, ylab)]
            gq_res.append([abs(vals[shell_idx <= s, iy].sum() - direct)
                           for s in range(1, shells + 1)])
    gq_max = tuple(max(r[s] for r in gq_res) for s in range(shells))

    return ImagesReport(geometry=geom, shells=tuple(range(1, shells + 1)),
                        neumann_max=neumann_max, neumann_median=neumann_median,
                        gq_max=gq_max, neumann_center=neumann_center,
                        runtime_seconds=time.time() - t0)
