"""Lattice geometry: cubes in eta*Z^d, blocks, coarse lattices, reflections, images.

A geometry is a cube with ``L**m`` sites per axis at spacing ``eta = L**-k``.
Sites are stored as integer multi-indices; real coordinates are derived on
demand so that site identity is exact.  Blocks of side ``L**j`` tile the cube
exactly, which is what makes the averaging operators in :mod:`blockrg.operators`
honest partial isometries.

Reflection conventions: the "low" reflection of axis ``mu`` maps index
``c -> -1 - c`` (mirror plane half a spacing outside the first site) and the
"high" one maps ``c -> 2*N - 1 - c``.  Words in these two reflections generate
the image set used by the method of images; every reflected copy of the cube
contains exactly one image of a given site.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

Site = tuple[int, ...]


class GeometryError(ValueError):
    """Invalid lattice parameters, a level outside the cube's range, or a cube
    that a computation refuses by name (``DenseSizeError``,
    ``FitWindowError``, ``StripWidthError``): a configuration error (exit 2)."""


@dataclass(frozen=True)
class LatticeGeometry:
    """Cube in ``(L**-k) * Z^d`` with ``L**m`` sites per axis.

    ``k`` may be negative for rescaled lattices (spacing larger than one);
    ``make_geometry`` is the public constructor and restricts to ``k >= 0``.
    """

    d: int
    L: int
    k: int
    m: int

    def __post_init__(self):
        if self.d < 1:
            raise GeometryError(f"dimension must be >= 1, got {self.d}")
        if self.L < 3 or self.L % 2 == 0:
            raise GeometryError(f"L must be odd and >= 3, got {self.L}")
        if self.m < self.k:
            raise GeometryError(f"need m >= k, got m={self.m}, k={self.k}")
        if self.m < 0:
            raise GeometryError(f"need m >= 0, got m={self.m}")

    @property
    def spacing(self) -> float:
        return float(self.L) ** (-self.k)

    @property
    def sites_per_axis(self) -> int:
        return self.L**self.m

    @property
    def site_count(self) -> int:
        return self.L ** (self.m * self.d)

    @property
    def side_length(self) -> int:
        """Physical side ``N * eta = L**(m-k)``, an exact integer since m >= k."""
        return self.L ** (self.m - self.k)

    def contains(self, site) -> bool:
        N = self.sites_per_axis
        return all(0 <= int(c) < N for c in site)


def make_geometry(d: int, L: int, k: int, m: int) -> LatticeGeometry:
    """Build the cube with spacing ``L**-k`` and ``L**m`` sites per axis.

    Rejects even or unit ``L`` and ``k`` outside ``[0, m]``.  Any size is
    admitted: the dense assemblers guard themselves (``operators.check_dense``).
    """
    if k < 0:
        raise GeometryError(f"scale index k must be >= 0, got {k}")
    return LatticeGeometry(d=d, L=L, k=k, m=m)


def coarse_geometry(geom: LatticeGeometry, j: int) -> LatticeGeometry:
    """Coarse lattice with spacing ``L**(j-k)`` and ``L**(m-j)`` sites per axis;
    the one check of a block level, ``0 <= j <= m``."""
    if not 0 <= j <= geom.m:
        raise GeometryError(f"coarsening level j={j} outside [0, {geom.m}]")
    return LatticeGeometry(d=geom.d, L=geom.L, k=geom.k - j, m=geom.m - j)


def scale_geometry(geom: LatticeGeometry, ell: int) -> LatticeGeometry:
    """Same index set, spacing multiplied by ``L**ell``."""
    return LatticeGeometry(d=geom.d, L=geom.L, k=geom.k - ell, m=geom.m)


def grid_points(axes) -> np.ndarray:
    """Cartesian product of 1-d coordinate arrays, shape ``(prod len, len(axes))``,
    row-major (axis 0 slowest)."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _axis_outer(op, factors) -> np.ndarray:
    """Combine per-axis 2-d factors with the elementwise ``op`` into one table
    of shape ``(prod rows, prod cols)``, rows and columns both row-major
    (axis 0 slowest): the layout of splitting every axis into (class, member).
    ``np.multiply`` gives the Kronecker product of the factors."""
    out = factors[0]
    for f in factors[1:]:
        out = op(out[:, None, :, None], f[None, :, None, :]).reshape(
            out.shape[0] * f.shape[0], out.shape[1] * f.shape[1])
    return out


def all_sites(geom) -> np.ndarray:
    """All site multi-indices, shape ``(site_count, d)``, row-major (axis 0 slowest)."""
    return grid_points([np.arange(geom.sites_per_axis)] * geom.d)


def site_to_flat(geom, site) -> int:
    N = geom.sites_per_axis
    flat = 0
    for c in site:
        flat = flat * N + int(c)
    return flat


def positions(geom) -> np.ndarray:
    """Real coordinates of all sites, shape ``(site_count, d)``."""
    return all_sites(geom) * geom.spacing


def site_position(geom, site) -> np.ndarray:
    return np.asarray(site, dtype=float) * geom.spacing


def block_sites(geom: LatticeGeometry, j: int, label) -> np.ndarray:
    """The ``L**(j*d)`` site indices of block ``label``, shape ``(L**(j*d), d)``."""
    coarse = coarse_geometry(geom, j)
    if not coarse.contains(label):
        raise GeometryError(f"label {label} outside coarse lattice")
    Lj = geom.L**j
    return grid_points([np.arange(int(c) * Lj, (int(c) + 1) * Lj) for c in label])


def block_table(geom: LatticeGeometry, j: int) -> np.ndarray:
    """Flat site indices of every ``j``-block, shape ``(N_c**d, L**(j*d))``: row
    ``site_to_flat(coarse, label)`` lists ``block_sites(geom, j, label)`` in
    order.  Per axis, site ``c`` is member ``c % L**j`` of class ``c // L**j``."""
    N, Nc = geom.sites_per_axis, coarse_geometry(geom, j).sites_per_axis
    return _axis_outer(lambda x, y: x * N + y, [np.arange(N).reshape(Nc, N // Nc)] * geom.d)


def _axis_images(c: int, N: int, shells: int) -> list[int]:
    # copy r of the cube occupies indices [r*N, (r+1)*N - 1]; even copies are
    # translates, odd copies are reflections
    out = []
    for r in range(-shells, shells + 1):
        if r % 2 == 0:
            out.append(c + r * N)
        else:
            out.append(-1 - c + (r + 1) * N)
    return out


def image_points(geom: LatticeGeometry, site, shells: int) -> np.ndarray:
    """Images of ``site`` under reflection words, within ``shells`` copies per axis.

    Returns ambient integer indices, shape ``((2*shells+1)**d, d)``.  Contains
    the site itself (copy 0) and is closed under both reflections restricted
    to the retained range; the original site is the unique image inside the cube.
    """
    if shells < 0:
        raise GeometryError("shells must be >= 0")
    N = geom.sites_per_axis
    return grid_points([np.array(_axis_images(int(c), N, shells)) for c in site])


def image_shell_index(geom: LatticeGeometry, site, shells: int) -> np.ndarray:
    """Shell number (max per-axis copy index) for each row of ``image_points``."""
    copies = grid_points([np.arange(-shells, shells + 1)] * len(site))
    return np.max(np.abs(copies), axis=1)


@dataclass(frozen=True)
class FreePatch:
    """Rectangular patch ``[lo, hi]^d`` (inclusive) of the infinite lattice ``(L**-k)*Z^d``.

    Used for interior stencil comparisons and for compactly supported test
    functions in the Fourier checks.  Not a cube geometry: no boundary
    conditions are attached to it.
    """

    d: int
    L: int
    k: int
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != self.d or len(self.hi) != self.d:
            raise GeometryError("lo/hi must have length d")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise GeometryError("need hi >= lo componentwise")

    @property
    def spacing(self) -> float:
        return float(self.L) ** (-self.k)

    @property
    def shape(self) -> tuple:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def site_count(self) -> int:
        return int(np.prod(self.shape))


def block_aligned_patch(d: int, L: int, k: int, blocks_lo, blocks_hi) -> FreePatch:
    """Patch covering whole unit blocks ``blocks_lo .. blocks_hi`` (coarse labels)."""
    Lk = L**k
    lo = tuple(int(b) * Lk for b in blocks_lo)
    hi = tuple((int(b) + 1) * Lk - 1 for b in blocks_hi)
    return FreePatch(d=d, L=L, k=k, lo=lo, hi=hi)


def sample_sites(geom: LatticeGeometry) -> list[Site]:
    """Deterministic site sample: corners, center, one interior point per octant."""
    N = geom.sites_per_axis
    corners = set(itertools.product((0, N - 1), repeat=geom.d))
    center = (N // 2,) * geom.d
    octants = set(itertools.product((N // 4, (3 * N) // 4), repeat=geom.d))
    return sorted(corners | {center} | octants)
