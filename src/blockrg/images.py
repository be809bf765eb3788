"""Reconstruct Neumann kernels from free-lattice kernels by summing over images.

The Neumann propagator kernel on the cube equals the free-lattice kernel
summed over all reflected copies of the source point; truncating the image
set at a finite number of reflected copies per axis leaves a geometrically
small tail because the free kernel decays exponentially.  The same works for
``G_k Q_k*`` with the reflection words applied to the fine argument.

All free kernels come from :mod:`blockrg.fourier` on a quadrature grid the
ladder accepts (``fourier.converge_plans``): one whose error, read off the
last doubling's change and the analyticity width ``q*``, is below the
ladder's ``tol`` of the batch's largest value, so the reported truncation
numbers measure the image tail and not the quadrature.  Each kernel is one
batch of positions, one
``fourier.KernelPlan``, started at the smallest base count ``8 * 2**j``
above twice the batch's largest per-axis separation: the torus quadrature
is the periodic kernel of that period.  ``images_residual_report`` runs its
``G`` and ``G Q*`` batches on one ladder of grids (``_image_batches``), so
each grid's shift systems are built once for both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier, multiscale
from .lattice import (LatticeGeometry, block_table, coarse_geometry, image_points,
                      image_shell_index, sample_sites, site_position,
                      site_to_flat)

SHELL_RATIO_LIMIT = 0.9
# residuals up to this many eps max|G_k| / eta**2 are rounding: converged image
# sums plateau at 0.19-0.49 of that at k = 1..4 (d = 1), rising as eta**-2
ROUNDING_FLOOR = 2.0


class ImageSumDivergence(RuntimeError):
    """Shell contributions stopped decaying; the image sum cannot be trusted."""


@dataclass(frozen=True)
class ImageSumResult:
    value: float
    shells_used: int
    last_shell_contribution: float
    truncation_estimate: float
    shell_magnitudes: tuple


def _assemble(vals: np.ndarray, shell_idx: np.ndarray, shells: int) -> ImageSumResult:
    """The image sum of ``vals`` over shells ``0..shells``.  The guard reads
    the last ratio of per-image shell means (magnitude over image count):
    shell counts grow as ``s**(d-1)``, so at unit side in d = 3 the first
    shells' magnitudes grow while each image's share decays, and a flat tail
    reads 1.  The truncation estimate extrapolates the magnitudes' ratio."""
    mags = np.array([abs(vals[shell_idx == s].sum()) for s in range(shells + 1)])
    means = mags / np.bincount(shell_idx, minlength=shells + 1)
    per_image = [means[s] / means[s - 1] for s in range(1, shells + 1) if means[s - 1] > 0]
    if shells >= 2 and per_image and per_image[-1] > SHELL_RATIO_LIMIT:
        raise ImageSumDivergence(
            f"per-image shell ratio {per_image[-1]:.3f} above {SHELL_RATIO_LIMIT}; "
            "free-kernel decay too slow for image summation")
    ratios = [mags[s] / mags[s - 1] for s in range(1, shells + 1) if mags[s - 1] > 0]
    r = min(max(ratios[-1] if ratios else 0.5, 1e-6), SHELL_RATIO_LIMIT)
    last = float(mags[-1])
    return ImageSumResult(value=float(vals.sum()), shells_used=shells,
                          last_shell_contribution=last,
                          truncation_estimate=last * r / (1.0 - r),
                          shell_magnitudes=tuple(float(m) for m in mags))


def _image_batches(geom: LatticeGeometry, params, shells: int, *batches) -> list:
    """Each batch ``(sites, others, gq)`` over the images of every site in
    ``sites``: ``G(others, images)`` at positions ``others``, or with ``gq``
    ``(G Q*)(images, others)`` at coarse labels ``others``, on one
    ``fourier.converge_plans`` ladder.  Each batch's plan starts at
    ``fourier.default_grid`` of the batch's largest per-axis separation, so
    its start grid has no wrap-around at any pair of the batch.  Returns per
    batch ``(values (site, other, image), shell index per image, grid used,
    last relative change)``.

    Convergence is judged batch-wide: the ladder scales the change by the
    batch's largest value, so an entry far below it is accurate to the
    default ``tol`` times that maximum, not relative to itself.
    """
    if shells < 1:
        raise ValueError("need shells >= 1")
    batches = [(sites, np.atleast_2d(np.asarray(others, dtype=float)), gq)
               for sites, others, gq in batches]    # a bare position is one row
    plans = []
    for sites, others, gq in batches:
        imgs = np.concatenate([image_points(geom, s, shells) for s in sites]) * geom.spacing
        reach = float(np.max(np.abs(imgs[:, None, :] - others[None, :, :])))
        start = fourier.default_grid(geom.d, geom.L, geom.k, reach)
        plans.append(fourier.GQPlan(imgs, others, start) if gq
                     else fourier.GPlan(others, imgs, start))
    out = []
    for (sites, others, gq), (vals, used, delta) in zip(
            batches, fourier.converge_plans(plans, params)):
        vals = (vals.T if gq else vals).reshape(len(others), len(sites), -1).transpose(1, 0, 2)
        out.append((vals, image_shell_index(geom, sites[0], shells), used, delta))
    return out


def _gq_entries(geom: LatticeGeometry, K, fx, fy) -> np.ndarray:
    """``(G_k Q_k*)(x, y)`` at flat sites ``fx`` and flat coarse labels ``fy``:
    the mean of row x of ``G_k``'s kernel ``K`` over the sites of block y."""
    return K[np.asarray(fx)[:, None, None], block_table(geom, geom.k)[fy]].mean(axis=-1)


def _median(a) -> float:
    """``np.median(a)`` bit for bit, without the ``numpy.ma`` import (about
    14 ms) that ``np.median`` makes on its first call in a process."""
    s = np.sort(a, axis=None)
    return float((s[(s.size - 1) // 2] + s[s.size // 2]) / 2)


def _shell_sums(vals, shell_idx, shells: int) -> np.ndarray:
    """Image sums over shells ``<= s`` for ``s = 1..shells``, stacked first."""
    return np.stack([vals[..., shell_idx <= s].sum(axis=-1) for s in range(1, shells + 1)])


def neumann_kernel_via_images(geom: LatticeGeometry, params, x, y,
                              shells: int) -> ImageSumResult:
    """Image-sum value of the Neumann kernel ``G_k(Omega)(x, y)``.

    Sums the free kernel over all images of ``y`` within ``shells`` reflected
    copies per axis, with the quadrature grid doubled until the ladder
    accepts it.  The images are one batch, judged against its own largest
    value (``_image_batches``): a far pair whose every entry lies below the
    quadrature's rounding floor of that value never stabilizes and raises
    ``fourier.GridConvergenceError``, as at (1,3,1,5) between sites (0,)
    and (242,).
    """
    vals, shell_idx, _, _ = _image_batches(geom, params, shells,
                                           ([y], [site_position(geom, x)], False))[0]
    return _assemble(vals[0, 0], shell_idx, shells)


def gq_kernel_via_images(geom: LatticeGeometry, params, x, y_label,
                         shells: int) -> ImageSumResult:
    """Image-sum value of ``(G_k(Omega) Q_k*)(x, y)`` for a coarse label ``y``.

    The reflection words act on the fine argument here (each image map is an
    involution, so summing over transformed ``x`` equals summing over image
    sources), while the unit-block source stays put.  Convergence is judged
    as in ``neumann_kernel_via_images``, against the batch's own largest
    value, so a far pair below the quadrature's rounding floor raises
    ``fourier.GridConvergenceError``.
    """
    vals, shell_idx, _, _ = _image_batches(geom, params, shells, ([x], [y_label], True))[0]
    return _assemble(vals[0, 0], shell_idx, shells)


@dataclass(frozen=True)
class ImagesReport:
    """``grid_used`` and ``last_delta``: per batch (``G``, then ``G Q*``) the
    quadrature grid it converged on and its last relative change.
    ``rounding_floor``: ``ROUNDING_FLOOR eps max|G_k| / eta**2``, the max
    over the sampled entries, up to which a Neumann residual is rounding."""

    geometry: LatticeGeometry
    shells: tuple
    neumann_max: tuple
    neumann_median: tuple
    gq_max: tuple
    neumann_center: tuple
    grid_used: tuple
    last_delta: tuple
    rounding_floor: float


def images_residual_report(geom: LatticeGeometry, params, shells: int) -> ImagesReport:
    """Residuals of both image reconstructions against the dense direct solve.

    For every shell count ``1..shells``: max and median of
    ``|image sum - direct|`` over the deterministic site sample for the
    Neumann kernel, max for the ``G Q*`` kernel over sample-by-coarse pairs,
    plus the center-pair Neumann residual (the reference entry).  The direct
    values are entries of the dense ``G_k``'s kernel, and block means of its
    rows for ``G Q*`` (``_gq_entries``).  Two
    converged batches cover all pairs: ``G`` over (sample x, images of
    sample y) and ``G Q*`` over (images of sample x, coarse labels), on one
    ladder, each judged stable against its own largest value (see
    ``_image_batches``);
    image sums for smaller shell counts are prefixes of the largest one.
    """
    K = multiscale.green_neumann(geom, params).kernel
    xs = sample_sites(geom)
    fx = [site_to_flat(geom, x) for x in xs]
    ic = xs.index((geom.sites_per_axis // 2,) * geom.d)

    coarse = coarse_geometry(geom, geom.k)
    ylabels = sample_sites(coarse)
    fy = [site_to_flat(coarse, y) for y in ylabels]
    (vals, shell_idx, g_grid, g_delta), (gq_vals, gq_idx, gq_grid, gq_delta) = _image_batches(
        geom, params, shells, (xs, np.array(xs) * geom.spacing, False), (xs, ylabels, True))
    G_xx = K[np.ix_(fx, fx)]
    res = np.abs(_shell_sums(vals, shell_idx, shells) - G_xx.T)
    neumann_max = tuple(float(r.max()) for r in res)
    neumann_median = tuple(_median(r) for r in res)
    neumann_center = tuple(float(r) for r in res[:, ic, ic])
    gq_res = np.abs(_shell_sums(gq_vals, gq_idx, shells) - _gq_entries(geom, K, fx, fy))
    gq_max = tuple(float(r.max()) for r in gq_res)

    return ImagesReport(geometry=geom, shells=tuple(range(1, shells + 1)),
                        neumann_max=neumann_max, neumann_median=neumann_median,
                        gq_max=gq_max, neumann_center=neumann_center,
                        grid_used=(g_grid, gq_grid), last_delta=(g_delta, gq_delta),
                        rounding_floor=(ROUNDING_FLOOR * np.finfo(float).eps
                                        * float(np.max(np.abs(G_xx))) / geom.spacing**2))
