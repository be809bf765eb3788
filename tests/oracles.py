"""Reference code that the test modules compare the library against.

Dense matrices, per-site loops and closed forms that no CLI suite runs: the
free-stencil Laplacian on a patch, the averaging and Laplacian symbols at
every shift (from which the tests assemble the dense shift matrices), field
pairings, relative Frobenius distances, the closed form of ``A_j``, the
conjugated propagator, reflections and block labels site by site, the
Chebyshev recurrence, and the grid sweeps of the scalar strip inequalities.
Each is built from the library's own primitives where it has one (``u_axis``,
``coarse_geometry``), and is checked against the route the suites take.
"""

from dataclasses import dataclass

import numpy as np

from blockrg import decay, fourier as fr, lattice as lat, multiscale as ms, operators as ops


# ---------------------------------------------------------------------------
# lattice: sites, blocks, reflections, patches
# ---------------------------------------------------------------------------

def block_label(geom, j: int, site) -> tuple:
    """Label (in the index units of ``coarse_geometry(geom, j)``) of the j-block of ``site``.

    Componentwise floor division by ``L**j``; valid for image points outside
    the cube as well.
    """
    lat.coarse_geometry(geom, j)
    Lj = geom.L**j
    return tuple(int(c) // Lj for c in site)


def reflect(geom, axis: int, end: str, site) -> tuple:
    """Reflect ``site`` across the low or high mirror plane of ``axis``.

    Low plane sits at index -1/2 (``c -> -1 - c``), high plane at
    ``N - 1/2`` (``c -> 2N - 1 - c``).  Involution; result may lie outside
    the cube (it is then an image point on the ambient lattice).
    """
    if not 0 <= axis < geom.d:
        raise lat.GeometryError(f"axis {axis} outside lattice dimension {geom.d}")
    N = geom.sites_per_axis
    out = list(int(c) for c in site)
    if end == "low":
        out[axis] = -1 - out[axis]
    elif end == "high":
        out[axis] = 2 * N - 1 - out[axis]
    else:
        raise lat.GeometryError(f"end must be 'low' or 'high', got {end!r}")
    return tuple(out)


def dist_to_set(x, points) -> float:
    """Infimum of the Euclidean ``|x - p|`` over rows ``p`` of ``points``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise lat.GeometryError("dist_to_set over an empty set")
    return float(np.min(np.linalg.norm(pts - np.asarray(x, dtype=float), axis=1)))


def patch_sites(patch) -> np.ndarray:
    return lat.grid_points([np.arange(l, h + 1) for l, h in zip(patch.lo, patch.hi)])


def patch_positions(patch) -> np.ndarray:
    return patch_sites(patch) * patch.spacing


def free_laplacian_1d(patch) -> np.ndarray:
    """Free-stencil Laplacian value matrix on a 1-d patch; the two edge rows
    miss a neighbor and are left out of comparisons (``interior_mask``)."""
    n = patch.site_count
    return (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)) / patch.spacing**2


def interior_mask(patch) -> np.ndarray:
    inner = np.ones(patch.site_count, dtype=bool)
    inner[[0, -1]] = False
    return inner


# ---------------------------------------------------------------------------
# operators: fields, pairings, distances, polynomials
# ---------------------------------------------------------------------------

def constant_field(geom, value=1.0) -> ops.Field:
    return ops.Field(geom, np.full(geom.site_count, value, dtype=complex))


def random_field(geom, rng) -> ops.Field:
    """Complex Gaussian field: real, then imaginary parts from ``rng``, any
    object with ``standard_normal(shape)`` (``Probes`` or a numpy Generator)."""
    v = rng.standard_normal(geom.site_count) + 1j * rng.standard_normal(geom.site_count)
    return ops.Field(geom, v)


def inner(f: ops.Field, g: ops.Field) -> complex:
    """``<f, g> = eta**d sum conj(f) g``, the pairing of ``operators``."""
    if f.geometry != g.geometry:
        raise ops.OperatorError("inner product requires matching geometries")
    return complex(f.geometry.spacing ** f.geometry.d * np.vdot(f.values, g.values))


def norm(f: ops.Field) -> float:
    return float(np.sqrt(inner(f, f).real))


def rel_frobenius(A: ops.KernelOperator, B: ops.KernelOperator) -> float:
    """Relative Frobenius distance ``|A - B|_F / |B|_F`` of the value matrices,
    taken on the kernels: the shared source measure factor cancels."""
    if A.source != B.source or A.target != B.target:
        raise ops.OperatorError("rel_frobenius: geometries do not match")
    return float(np.linalg.norm(A.kernel - B.kernel) / np.linalg.norm(B.kernel))


def chebyshev_u(n: int, alpha):
    """Chebyshev polynomial of the second kind by the three-term recurrence."""
    alpha = np.asarray(alpha, dtype=float)
    if n == 0:
        return np.ones_like(alpha)
    prev, cur = np.ones_like(alpha), 2 * alpha
    for _ in range(n - 1):
        prev, cur = cur, 2 * alpha * cur - prev
    return cur


# ---------------------------------------------------------------------------
# multiscale and decay: dense closed forms
# ---------------------------------------------------------------------------

def a_operator_closed_form(geom, params, j: int) -> ops.KernelOperator:
    """``A_j = (at + (at_1 / L**2) P_1)**-1`` in closed form, ``P_1`` being a projector."""
    coarse = lat.coarse_geometry(geom, j)
    at = params.a_tilde(geom, j, j)
    at_first = params.a_tilde(geom, 1, j)
    P1 = ops.block_projector(coarse, 1)
    eye_c = ops.identity(coarse)
    return (1.0 / at) * eye_c + (1.0 / (at + at_first / geom.L**2) - 1.0 / at) * P1


def conjugated_green(geom, params, q) -> ops.KernelOperator:
    """``e_{-q} G_k(Omega) e_q``, the inverse of the conjugated operator."""
    return decay._conjugate(ms.green_neumann(geom, params), q)


def dense_sigmas(g, params, q_list):
    """``(sigma_min, sigma_max)`` of each dense ``D_q`` by a full SVD."""
    s = np.array([np.linalg.svd(decay.conjugated_operator(g, params, q).matrix,
                                compute_uv=False)[[-1, 0]] for q in q_list])
    return s[:, 0], s[:, 1]


def assert_ct_sigmas_match_dense_svd(g, params, q_list):
    """The Lanczos sigma_min(D_q) within the dense SVD's own rounding
    ``16 eps |D_q|_2`` of it, and of the frequency-class lambda_min at q = 0."""
    rep = decay.ct_bound_report(g, params, q_list, np.random.default_rng(0))
    smin, smax = dense_sigmas(g, params, q_list)
    tol = 16 * np.finfo(float).eps * smax
    sigmas = np.array(rep.min_singular_values)
    assert np.all(np.abs(sigmas - smin) <= tol)
    at_zero = [not np.any(q) for q in q_list]
    if any(at_zero):
        lam = ms.defining_min_eigenvalue(g, params, g.k)
        assert np.all(np.abs(sigmas[at_zero] - lam) <= tol[at_zero])


def assert_inverse_blocks_match(rows, Minv):
    """``rows.inverse`` (a ``multiscale.RankOneRows``) against the dense
    inverse blocks ``Minv``, shape ``(rows, S, S)``, each row within 1e-13
    of its own block's Frobenius norm, for all rows and for a slice of them;
    and ``solve`` of one-hot columns against it."""
    n, S = Minv.shape[:2]

    def close(X, Y):
        err = np.linalg.norm(X - Y, axis=(1, 2)) / np.linalg.norm(Y, axis=(1, 2))
        assert np.all(err <= 1e-13), err.max()

    full = rows.inverse(slice(None))
    close(full, Minv)
    part = slice(n // 3, max(n // 3 + 1, n - 1))
    assert np.array_equal(rows.inverse(part), full[part])
    close(rows.solve(np.broadcast_to(np.eye(S), (n, S, S))), full)


# ---------------------------------------------------------------------------
# fourier: symbols at every shift, base nodes, strip inequalities
# ---------------------------------------------------------------------------

def base_nodes(grid) -> np.ndarray:
    """Base momenta of ``grid``, shape ``(base_count**d, d)``, row-major."""
    return lat.grid_points([grid.base_nodes_1d()] * grid.d)


def u_kernel(z, L: int, k: int):
    """Averaging symbol ``u(z)`` for ``z`` of shape ``(..., d)``."""
    eta = float(L) ** (-k)
    return np.prod(fr.u_axis(np.asarray(z, dtype=complex), eta), axis=-1)


def u_bar_kernel(z, L: int, k: int):
    """Analytic continuation of ``conj(u(p))``; equals ``u(-z)``."""
    return u_kernel(-np.asarray(z, dtype=complex), L, k)


def laplacian_symbol(z, L: int, k: int, mu0: float):
    """Symbol of ``-Lap + mu_bar_k``: ``(4/eta^2)(sum sin^2(z eta/2) + mu0/4)``."""
    eta = float(L) ** (-k)
    z = np.asarray(z, dtype=complex)
    return (4.0 / eta**2) * (np.sum(np.sin(z * eta / 2.0) ** 2, axis=-1) + mu0 / 4.0)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    worst: float
    worst_refined: float

    @property
    def drift(self) -> float:
        lo, hi = sorted((self.worst, self.worst_refined))
        return hi / lo if lo > 0 else np.inf


def technical_bounds_report(n_grid: int = 41) -> list[BoundCheck]:
    """Grid worst cases for the scalar strip inequalities, at two refinement levels.

    Each check is one row ``sweep(name, real half-width, shifts l, ratio(z,
    l), extreme)``, swept at once: the extreme of (left side)/(right side
    without its constant) over the shifts ``(S,)`` and a ``(points, 1)``
    column ``z`` of the strip grid, ``n`` real parts in ``[-re_lim, re_lim]``
    by ``max(3, n // 4)`` imaginary parts in ``[-1, 1]``, less ``z = 0``,
    where ``2 pi l / z`` is singular and no ratio takes its extreme.  The
    L-free shift sums are cut at ``|l| <= 20``, the others sweep the shift
    set of their ``(L, k)``.  The contract downstream is finiteness plus
    stability under refining the grid by 2x.
    """
    checks = []

    def sweep(name, re_lim, shifts, ratio, extreme):
        def worst(n):
            p, q = np.linspace(-re_lim, re_lim, n), np.linspace(-1.0, 1.0, max(3, n // 4))
            z = (p[:, None] + 1j * q).ravel()
            return float(extreme(ratio(z[np.abs(z) > 1e-9, None], shifts)))
        checks.append(BoundCheck(name, worst(n_grid), worst(2 * n_grid)))

    Z = lambda z, l: fr.shifted_momenta(z, l[:, None])[..., 0]
    wide, h = fr.shift_vectors(1, 41, 1)[:, 0], 1e-6
    sweep("sinc_lower_bound", np.pi / 2.0, np.zeros(1), lambda z, l: np.abs(fr._sinc(z)), np.min)
    sweep("shifted_distance_lower", np.pi, wide[wide != 0],
          lambda z, l: np.abs(Z(z, l)) / ((np.pi / 2.0) * (1 + np.abs(l))), np.min)
    sweep("one_plus_shift_lower", np.pi, wide,
          lambda z, l: np.abs(1.0 + 2.0 * np.pi * l / z) / ((1 + np.abs(l)) / 6.0), np.min)
    for L, k in ((3, 1), (3, 2), (3, 3)):
        eta, ells = float(L) ** (-k), fr.shift_vectors(1, L, k)[:, 0]
        w = lambda z, l: z * eta / 2.0 + np.pi * l * eta     # (z + 2 pi l) eta / 2
        for delta in (0.0, 0.1):
            sweep(f"length_vs_sin_L{L}k{k}_delta{delta}", np.pi, ells[ells != 0],
                  lambda z, l: np.abs(w(z, l)) ** 2 / np.abs(np.sin(w(z, l)) ** 2 + delta), np.max)
        # |d/dz (sin^2(z/2) / sin^2(Z eta/2))| eta^2 (1+|l|)^2 by central differences;
        # the quotient is u_axis(Z) u_axis(-Z) / eta^2
        f = lambda Z: fr.u_axis(Z, eta) * fr.u_axis(-Z, eta) / eta**2
        sweep(f"derivative_product_L{L}k{k}", np.pi, ells,
              lambda z, l: (np.abs((f(Z(z, l) + h) - f(Z(z, l) - h)) / (2.0 * h))
                            * eta**2 * (1 + np.abs(l)) ** 2), np.max)
    return checks
