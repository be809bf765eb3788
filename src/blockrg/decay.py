"""Exponential-weight conjugation and decay-rate extraction.

Conjugating the defining operator by ``exp(q . x)`` turns coercivity into
off-diagonal decay of the inverse: as long as the conjugated operator stays
bounded below, the weighted propagator norm stays finite, which pins an
exponential rate on matrix elements between distant unit boxes.  This module
measures those quantities on desk-scale cubes and fits log-linear decay
profiles; the analytic constants behind the bounds are symbolic, so the
testable claims are positivity and stability of the fitted rates.

The Combes-Thomas constants ``sigma_min(D_q) = 1 / |e_{-q} G e_q|_2`` are
read off the one propagator ``G`` by a batched Lanczos run, with the weights
as diagonals; no conjugated operator is formed and no SVD is taken.  The
defining operator is symmetric, so ``D_{-q} = D_q^T`` and ``q``, ``-q``
share one value.  Each run stops on the residual of its top Ritz pair
(``CT_LANCZOS_RTOL`` of the Ritz value), tested every ``CT_LANCZOS_CHECK``
steps and, past ``4 CT_LANCZOS_CHECK``, every ``2 CT_LANCZOS_CHECK``.  The
run keeps its basis and tridiagonal coefficients in preallocated arrays
that double when full, moves the live rows up in place when a weight
stops, so one basis is alive at a time, and refuses a basis past
``ops.DENSE_BYTE_CAP`` (``DenseSizeError``).  The dense SVD of
``conjugated_operator`` is the test oracle for these numbers: the two agree
to ``16 eps |D_q|_2``.  Once ``q``
passes the decay rate of ``G`` on a long cube, ``sigma_min(D_q)`` drops
below that rounding level and neither route resolves it to any relative
accuracy.

The box decay fit of ``ct_bound_report`` draws complex random fields on
pairs of unit boxes from the caller's source (the CLI passes an
``operators.Probes`` seeded from its ``seed``) and reads ``|<f, G f'>|`` in
real arithmetic, from one product of ``G``'s real block with the real and
imaginary parts of ``f'``, in slices of box pairs within
``operators.BLOCK_BYTES`` (``_box_pair_values``).  The Lanczos start vector
is drawn from a private ``operators.Probes(0)``, so no path here imports
``numpy.random``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multiscale, operators as ops
from .lattice import (GeometryError, LatticeGeometry, all_sites, block_table,
                      coarse_geometry, positions, site_to_flat)
from .operators import KernelOperator

# Largest |q . (x - c)| that ct_bound_report accepts.  The Lanczos operator
# W K W^-2 K W stacks four weights, so its vectors, inner products and Ritz
# values stay below exp(4 * reach) |K|_2**2, and nothing squares them:
# 4 * 160 = 640 < log(float max) ~ 709.8 leaves exp(69) ~ 1e30 for |K|_2**2.
# Up to this reach the tests find sigma_min(D_q) within 16 eps |D_q|_2 of
# the dense SVD, which is the SVD's own accuracy.
CT_MAX_EXPONENT = 160.0
# a weight's Lanczos run stops when the residual of its top Ritz pair is at
# most this fraction of the Ritz value
CT_LANCZOS_RTOL = 1e-10
# steps between two such tests up to step 4 * CT_LANCZOS_CHECK, and half as
# many tests after it.  Testing after every step instead takes
# ct_bound_report on the default q grid from 18 to 30 ms at n = 243 (48
# steps), from 66 to 232 ms where the run needs 104 steps and from 0.34 to
# 1.7 s where it needs 216 (best of 7, G cached, on a shared 2-core box):
# each test is a batched eigendecomposition of the growing tridiagonal
# matrices.  A test every 8 steps from the start runs 16 steps at n = 27,
# past the n // 2 that the tests allow.
CT_LANCZOS_CHECK = 4
# random field pairs drawn per pair of unit boxes for the box decay fit
CT_BOX_DRAWS = 3


class FitWindowError(GeometryError):
    """Too few distances on the configured cube for a decay fit (a cube of
    one unit box, or a degenerate fit window), refused by name; the CLI
    reports it as a configuration error (exit 2)."""


@dataclass(frozen=True)
class DecayFit:
    """OLS fit of ``log magnitude`` against distance on a window."""

    log_prefactor: float
    rate: float
    window: tuple
    rms_residual: float
    point_count: int


@dataclass(frozen=True)
class CtReport:
    q_values: tuple
    min_singular_values: tuple
    bound_constants: tuple
    fitted_c1: float
    fitted_log_prefactor: float
    max_violation: float
    norm_steps: int         # Lanczos steps of the batched norm run
    # 1.0 if a weight of the run's q = 0 row is not exactly 1.0, else 0.0
    # (nan without q = 0)
    q0_weight_mismatch: float


def conjugated_operator(geom: LatticeGeometry, params, q) -> KernelOperator:
    """``D_q = e_{-q} (-Lap + mu_bar_k + a_k Q_k* Q_k) e_q`` via kernel weights.

    ``q`` may be a scalar (applied along axis 0) or a d-vector.  ``q = 0``
    reproduces the defining operator bitwise: the weights are exactly 1.0.
    """
    return _conjugate(multiscale.defining_operator(geom, params, geom.k), q)


def _conjugate(A: KernelOperator, q) -> KernelOperator:
    """``e_{-q} A e_q`` on one lattice, as weights on the kernel's rows and columns."""
    geom = A.source
    w = positions(geom) @ _q_vector(q, geom.d)
    return KernelOperator(geom, geom, np.exp(-w)[:, None] * A.kernel * np.exp(w)[None, :])


def _q_vector(q, d: int) -> np.ndarray:
    """``q`` as a d-vector: a scalar acts along axis 0."""
    qv = np.asarray(q, dtype=float)
    if qv.ndim == 0:
        qv = np.append(qv, np.zeros(d - 1))
    if qv.shape != (d,):
        raise ValueError(f"q must be scalar or length-{d}")
    return qv


def _weighted_norms_sq(K: np.ndarray, expo: np.ndarray):
    """``lambda_max(W K W^-2 K W)`` per row of ``W = exp(expo)``, and the steps.

    ``K`` is symmetric, so each row's operator is ``B^T B`` with
    ``B = W^-1 K W`` and its top eigenvalue is ``|B|_2**2``.  One batched
    Lanczos run (Lanczos 1950) builds a Krylov basis per row with full
    reorthogonalization (classical Gram-Schmidt, twice, as batched
    ``matmul``), at two ``(rows, n) @ K`` products per step.  The basis,
    ``(rows, capacity, n)``, doubles its capacity (up to ``n``) when full,
    and the tridiagonal coefficients ``alpha`` and ``beta`` sit beside it as
    ``(rows, capacity)`` arrays.  Where a test stops some rows, the live
    rows move up in place and the arrays are viewed at their number, so no
    second basis is formed.  A basis that would grow past
    ``ops.DENSE_BYTE_CAP`` raises ``DenseSizeError`` first: a clustered top
    of the spectrum needs nearly ``n`` steps (212 of 243 at (1,3,3,5) with
    ``a = 0.0564``, ``mu0 = 10``), and the basis then holds ``rows n**2``
    floats.

    At step ``CT_LANCZOS_CHECK`` and every ``CT_LANCZOS_CHECK`` steps up to
    ``4 CT_LANCZOS_CHECK``, then every ``2 CT_LANCZOS_CHECK``, a row stops
    once the residual ``beta_j |s_j|`` of its top Ritz pair is at most
    ``CT_LANCZOS_RTOL`` times the Ritz value, which then lies below the
    eigenvalue by at most ``residual**2 / gap``.  A zero ``beta_j`` (an
    invariant Krylov space) forces the test, where its residual is 0.
    ``beta_j`` is taken as ``s |w / s|`` with ``s = max |w|``: the entries
    of ``w`` reach ``|B|_2**2``, and their squares would overflow first.

    The start vector, shared by every row, is ``n`` normals of a private
    ``operators.Probes(0)``: it leaves any caller's stream alone and imports
    no ``numpy.random``.
    """
    rows, n = expo.shape
    W, Winv2 = np.exp(expo), np.exp(-2.0 * expo)
    out, live = np.empty(rows), np.arange(rows)
    # a private start vector: the caller's probe source stays untouched
    v = ops.Probes(0).standard_normal(n)
    basis, alpha, beta = _lanczos_arrays(rows, min(8, n), n)
    basis[:, 0] = v / np.linalg.norm(v)
    check = CT_LANCZOS_CHECK
    for j in range(n):
        w = W * ((Winv2 * ((W * basis[:, j]) @ K)) @ K)
        V = basis[:, :j + 1]
        h = np.matmul(V, w[:, :, None])
        w -= np.matmul(h.transpose(0, 2, 1), V)[:, 0]
        h2 = np.matmul(V, w[:, :, None])
        w -= np.matmul(h2.transpose(0, 2, 1), V)[:, 0]
        alpha[:, j] = h[:, j, 0] + h2[:, j, 0]
        scale = np.abs(w).max(axis=1)
        b = scale * np.linalg.norm(w / np.where(scale > 0, scale, 1.0)[:, None], axis=1)
        if j + 1 == check or j == n - 1 or not b.all():
            if j + 1 == check:
                check += CT_LANCZOS_CHECK * (1 if check < 4 * CT_LANCZOS_CHECK else 2)
            T = np.zeros((live.size, j + 1, j + 1))
            i = np.arange(j + 1)
            T[:, i, i] = alpha[:, :j + 1]
            T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = beta[:, :j]
            theta, s = np.linalg.eigh(T)
            # a basis of n vectors spans the space: its Ritz values are exact
            done = (b * np.abs(s[:, -1, -1]) <= CT_LANCZOS_RTOL * theta[:, -1]) | (j == n - 1)
            out[live[done]] = theta[done, -1]
            if done.all():
                return out, j + 1
            if done.any():
                keep = np.flatnonzero(~done)
                live, W, Winv2, w, b = live[keep], W[keep], Winv2[keep], w[keep], b[keep]
                # in place, so one basis is ever alive: row i takes row
                # keep[i] >= i, which no earlier move has overwritten
                for i, r in enumerate(keep):
                    basis[i, :j + 1], alpha[i, :j + 1], beta[i, :j] = (
                        basis[r, :j + 1], alpha[r, :j + 1], beta[r, :j])
                basis, alpha, beta = basis[:keep.size], alpha[:keep.size], beta[:keep.size]
        beta[:, j] = b
        if j + 1 == basis.shape[1]:
            grown = _lanczos_arrays(live.size, min(2 * (j + 1), n), n)
            for new, old in zip(grown, (basis, alpha, beta)):
                new[:, :j + 1] = old
            basis, alpha, beta = grown
        basis[:, j + 1] = w / b[:, None]


def _lanczos_arrays(rows: int, capacity: int, n: int):
    """An empty Lanczos basis ``(rows, capacity, n)`` and its ``alpha`` and
    ``beta``, ``(rows, capacity)``; a basis past ``ops.DENSE_BYTE_CAP`` is
    refused before it allocates (``DenseSizeError``)."""
    nbytes = 8 * rows * capacity * n
    if nbytes > ops.DENSE_BYTE_CAP:
        raise ops.DenseSizeError(
            f"the Lanczos basis of {rows} weights would hold {capacity} vectors of {n} "
            f"sites, {nbytes / 2**30:,.3g} GiB, past DENSE_BYTE_CAP = "
            f"{ops.DENSE_BYTE_CAP / 2**30:g} GiB")
    return np.empty((rows, capacity, n)), np.empty((rows, capacity)), np.empty((rows, capacity))


def ct_bound_report(geom: LatticeGeometry, params, q_list, rng) -> CtReport:
    """Conjugated-propagator norms plus the empirical box-to-box decay constant.

    For each ``q``: the operator norm of ``e_{-q} G e_q`` and its reciprocal,
    the smallest singular value of ``D_q``.  ``D_{-q} = D_q^T``, so each
    ``q`` up to sign is one weight ``W = exp(q . (x - c))`` (``c`` the cube
    centre; only ``x - y`` enters) of one batched Lanczos run on
    ``W G W^-2 G W``, and ``q = 0`` is the unit weight.  A weight stops when
    the residual of its top Ritz pair is at most ``CT_LANCZOS_RTOL`` times
    the Ritz value (``_weighted_norms_sq``); ``norm_steps`` counts the run's
    steps.  A weight exponent above ``CT_MAX_EXPONENT`` raises
    ``lattice.GeometryError``, and a cube of one unit box (no two box
    distances to fit) ``FitWindowError``, before ``G`` is built; a Lanczos
    basis past ``ops.DENSE_BYTE_CAP`` raises ``DenseSizeError``.  Tests
    compare these values with the dense SVD of ``conjugated_operator``.

    Separately, random fields supported on single unit boxes probe
    ``|<f, G f'>| <= C exp(-c1 |y - y'|) |f| |f'|``; the report carries the
    fitted ``c1`` and the largest positive log-residual above the fitted line.
    ``rng`` is any object with ``standard_normal(shape)`` (the CLI passes an
    ``operators.Probes``; tests may pass a numpy Generator).  The box pairs
    draw slice by slice from it, in order, so the fit does not depend on the
    slicing.
    """
    row, index = {}, []         # q up to sign -> its row of weight exponents
    for q in q_list:
        qv = _q_vector(q, geom.d)
        nonzero = qv[qv != 0]
        key = tuple(-qv if nonzero.size and nonzero[0] < 0 else qv)
        index.append(row.setdefault(key, len(row)))
    x = positions(geom)
    x -= geom.spacing * (geom.sites_per_axis - 1) / 2      # about the cube centre
    expo = np.array(list(row)).reshape(-1, geom.d) @ x.T
    reach = np.max(np.abs(expo), axis=1)
    for q, r in zip(q_list, index):
        if reach[r] > CT_MAX_EXPONENT:
            raise GeometryError(f"q = {q} on a cube of side {geom.side_length} needs "
                                f"weights exp(q . (x - c)) up to exp({reach[r]:.4g}), past "
                                f"CT_MAX_EXPONENT = {CT_MAX_EXPONENT:g}")
    if geom.m == geom.k:    # one unit box: its one box distance is 0
        raise FitWindowError("the box-to-box decay fit needs two distinct box distances, "
                             "and this cube is a single unit box")
    zero = row.get((0.0,) * geom.d)
    q0_mismatch = np.nan if zero is None else float(np.any(np.exp(expo[zero]) != 1.0))
    K = multiscale.green_neumann(geom, params).kernel
    norms_sq, steps = _weighted_norms_sq(K, expo)
    # the value matrix of G is eta**d K
    bounds = geom.spacing ** geom.d * np.sqrt(norms_sq[index])

    boxes = block_table(geom, geom.k)
    labels = all_sites(coarse_geometry(geom, geom.k))
    i1, i2 = np.triu_indices(len(labels))
    b = boxes.shape[1]
    vals = np.empty((i1.size, CT_BOX_DRAWS))
    # the pairs in slices within ops.BLOCK_BYTES (_box_pair_values), which
    # draw in order, one stream in all
    for pb in ops._batches(i1.size, 8 * b * (b + 16 * CT_BOX_DRAWS + 2), ops.BLOCK_BYTES):
        vals[pb] = _box_pair_values(K, boxes[i1[pb]], boxes[i2[pb]], rng,
                                    geom.spacing ** geom.d)
    dists = np.linalg.norm(labels[i1] - labels[i2], axis=1)
    logvals = np.log(vals.max(axis=1))
    slope, intercept = np.polyfit(dists, logvals, 1)
    viol = float(np.max(logvals - (intercept + slope * dists)))
    return CtReport(q_values=tuple(q_list),
                    min_singular_values=tuple(map(float, 1.0 / bounds)),
                    bound_constants=tuple(map(float, bounds)),
                    fitted_c1=float(-slope),
                    fitted_log_prefactor=float(intercept),
                    max_violation=viol,
                    norm_steps=steps,
                    q0_weight_mismatch=q0_mismatch)


def _box_pair_values(K: np.ndarray, boxes1, boxes2, rng, scale: float) -> np.ndarray:
    """``|<f, G f2>| / (|f| |f2|)``, ``(pairs, CT_BOX_DRAWS)``, for random
    complex fields ``f`` on box ``boxes1[i]`` and ``f2`` on box ``boxes2[i]``
    (site rows of ``block_table``) of each pair ``i``, drawn from ``rng``;
    ``scale`` is ``eta**d``.  One slice of ``ct_bound_report``'s box pairs,
    counted at ``b (b + 16 CT_BOX_DRAWS + 2)`` floats a pair for ``b`` sites
    a box: the gather's indices (``2 b``), the draws ``Z`` (``4 b
    CT_BOX_DRAWS``) and their bits while drawn (``12 b CT_BOX_DRAWS``, 24
    bytes a uniform in ``operators.Probes``), then in the bits' place the
    pair's block of ``K`` (``b**2``), the copy of ``f2`` it multiplies and
    their product (``4 b CT_BOX_DRAWS``).  Its own function, so that a
    slice's arrays are freed before the next slice draws."""
    p, b = boxes1.shape
    # for each pair and each draw, the (real, imag) parts of a field on
    # boxes1[i], then of one on boxes2[i]: Z[pair, draw, box]
    Z = rng.standard_normal((p, CT_BOX_DRAWS, 2, b, 2))
    # |<f, G f2>| / (|f| |f2|): the inner product's eta**d cancels against
    # the norms', leaving the value matrix eta**d K of G.  K is real, so
    # <f, K f2> = (fr.K f2r + fi.K f2i) + i (fr.K f2i - fi.K f2r), from
    # one product of a pair's block of K with [f2r, f2i]
    fr, fi = np.moveaxis(Z[:, :, 0], -1, 0)          # (pair, draw, box)
    Gpair = K[boxes1[:, :, None], boxes2[:, None, :]]
    Kf2 = np.matmul(Gpair, Z[:, :, 1].transpose(0, 2, 1, 3).reshape(p, b, -1))
    Kr, Ki = Kf2.reshape(p, b, -1, 2).transpose(3, 0, 2, 1)
    re = np.einsum("pdx,pdx->pd", fr, Kr) + np.einsum("pdx,pdx->pd", fi, Ki)
    im = np.einsum("pdx,pdx->pd", fr, Ki) - np.einsum("pdx,pdx->pd", fi, Kr)
    sq = np.einsum("pdsxi,pdsxi->pds", Z, Z)        # |f|**2 and |f2|**2
    return np.hypot(re, im) * (scale / np.sqrt(sq[..., 0] * sq[..., 1]))


def indicator_field(geom, source) -> ops.Field:
    """Unit-sup-norm indicator: ``("site", s)`` or ``("block", label)``."""
    kind, where = source
    v = np.zeros(geom.site_count, dtype=complex)
    if kind == "site":
        v[site_to_flat(geom, where)] = 1.0
    elif kind == "block":
        coarse = coarse_geometry(geom, geom.k)
        if not coarse.contains(where):
            raise ValueError(f"label {where} outside coarse lattice")
        v[block_table(geom, geom.k)[site_to_flat(coarse, where)]] = 1.0
    else:
        raise ValueError(f"unknown source kind {kind!r}")
    return ops.Field(geom, v)


def decay_profile(geom: LatticeGeometry, params, source=None):
    """Pointwise profile ``(dist(x, supp f), |(G f)(x)|)`` for an indicator source.

    Defaults to the single-site indicator at the origin corner, which gives
    the longest usable distance range on a cube.  ``G f`` is ``eta**d`` times
    the kernel's column sum over the support (bit for bit ``operators.apply``
    for a site source).  Distances that leave fewer than 5 points in the
    default window of ``fit_decay``, as on a cube of one unit box at d = 1,
    2, raise its ``FitWindowError`` before ``G`` is built.
    """
    if source is None:
        source = ("site", (0,) * geom.d)
    idx = np.flatnonzero(indicator_field(geom, source).values)
    pos = positions(geom)
    dists = np.min(np.linalg.norm(pos[:, None, :] - pos[idx][None, :, :], axis=2), axis=1)
    _fit_window(dists)
    K = multiscale.green_neumann(geom, params).kernel
    order = np.argsort(dists)
    return dists[order], np.abs(geom.spacing ** geom.d * K[:, idx].sum(axis=1))[order]


def _fit_window(dists, window=None, mags=None):
    """``window``, by default ``(1, 0.8 max(dists))``, and the mask of the
    distances in it, less the points with ``mags = 0`` when ``mags`` is
    given; fewer than 5 points raise ``FitWindowError``."""
    if window is None:
        window = (1.0, 0.8 * float(np.max(dists)))
    lo, hi = window
    mask = (dists >= lo) & (dists <= hi)
    if mags is not None:
        mask &= mags > 0
    if np.count_nonzero(mask) < 5:
        raise FitWindowError(f"degenerate fit window {window}: "
                             f"{np.count_nonzero(mask)} points")
    return window, mask


def fit_decay(dists, mags, window=None) -> DecayFit:
    """Least-squares log-linear fit on the given distance window.

    The default window drops distances below 1 (where the bound is trivial)
    and the farthest 20 percent (boundary contamination).
    """
    dists = np.asarray(dists, dtype=float)
    mags = np.asarray(mags, dtype=float)
    (lo, hi), mask = _fit_window(dists, window, mags)
    x = dists[mask]
    y = np.log(mags[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    return DecayFit(log_prefactor=float(intercept), rate=float(-slope),
                    window=(float(lo), float(hi)),
                    rms_residual=float(np.sqrt(np.mean(resid**2))),
                    point_count=int(np.count_nonzero(mask)))
