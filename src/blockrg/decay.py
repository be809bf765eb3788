"""Exponential-weight conjugation and decay-rate extraction.

Conjugating the defining operator by ``exp(q . x)`` turns coercivity into
off-diagonal decay of the inverse: as long as the conjugated operator stays
bounded below, the weighted propagator norm stays finite, which pins an
exponential rate on matrix elements between distant unit boxes.  This module
measures those quantities on desk-scale cubes and fits log-linear decay
profiles; the analytic constants behind the bounds are symbolic, so the
testable claims are positivity and stability of the fitted rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import multiscale, operators as ops
from .lattice import (LatticeGeometry, all_sites, block_table,
                      coarse_geometry, positions, site_to_flat)
from .operators import KernelOperator


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


def conjugated_operator(geom: LatticeGeometry, params, q) -> KernelOperator:
    """``D_q = e_{-q} (-Lap + mu_bar_k + a_k Q_k* Q_k) e_q`` via kernel weights.

    ``q`` may be a scalar (applied along axis 0) or a d-vector.  ``q = 0``
    reproduces the defining operator bitwise: the weights are exactly 1.0.
    """
    return _conjugate(multiscale.defining_operator(geom, params, geom.k), q)


def conjugated_green(geom: LatticeGeometry, params, q) -> KernelOperator:
    """``e_{-q} G_k(Omega) e_q``, the inverse of the conjugated operator."""
    return _conjugate(multiscale.green_neumann(geom, params), q)


def _conjugate(A: KernelOperator, q) -> KernelOperator:
    """``e_{-q} A e_q`` on one lattice, as weights on the kernel's rows and columns."""
    geom = A.source
    qv = np.asarray(q, dtype=float)
    if qv.ndim == 0:
        qv = np.append(qv, np.zeros(geom.d - 1))     # along axis 0
    if qv.shape != (geom.d,):
        raise ValueError(f"q must be scalar or length-{geom.d}")
    w = positions(geom) @ qv
    return KernelOperator(geom, geom, np.exp(-w)[:, None] * A.kernel * np.exp(w)[None, :])


def ct_bound_report(geom: LatticeGeometry, params, q_list, rng,
                    draws: int = 3) -> CtReport:
    """Conjugated-propagator norms plus the empirical box-to-box decay constant.

    For each ``q``: the smallest singular value of ``D_q`` and the operator
    norm of ``e_{-q} G e_q`` (their reciprocals coincide).  Separately, random
    fields supported on single unit boxes probe
    ``|<f, G f'>| <= C exp(-c1 |y - y'|) |f| |f'|``; the report carries the
    fitted ``c1`` and the largest positive log-residual above the fitted line.
    """
    sigmas, bounds = [], []
    for q in q_list:
        Dq = conjugated_operator(geom, params, q)
        smin = float(np.linalg.svd(Dq.matrix, compute_uv=False)[-1])
        sigmas.append(smin)
        bounds.append(1.0 / smin)

    K = multiscale.green_neumann(geom, params).kernel
    boxes = block_table(geom, geom.k)
    labels = all_sites(coarse_geometry(geom, geom.k))
    i1, i2 = np.triu_indices(len(labels))
    # for each pair i <= i2 (row-major) and each draw, the (real, imag) parts
    # of a field on box i, then of one on box i2: Z[pair, draw, box]
    Z = rng.standard_normal((i1.size, draws, 2, boxes.shape[1], 2))
    z = Z[..., 0] + 1j * Z[..., 1]
    f, f2 = z[:, :, 0], z[:, :, 1]
    # |<f, G f2>| / (|f| |f2|): the inner product's eta**d cancels against
    # the norms', leaving the value matrix eta**d K of G
    Gpair = K[boxes[i1][:, :, None], boxes[i2][:, None, :]]
    vals = np.abs(np.einsum("pdx,pxy,pdy->pd", f.conj(), Gpair, f2))
    vals *= geom.spacing ** geom.d / (np.linalg.norm(f, axis=-1) * np.linalg.norm(f2, axis=-1))
    dists = np.linalg.norm(labels[i1] - labels[i2], axis=1)
    if np.all(dists == dists[0]):
        # only a cube of one unit box has no nonzero box distance
        raise ValueError("the box-to-box decay fit needs two distinct box distances, "
                         "and this cube is a single unit box")
    logvals = np.log(vals.max(axis=1))
    slope, intercept = np.polyfit(dists, logvals, 1)
    viol = float(np.max(logvals - (intercept + slope * dists)))
    return CtReport(q_values=tuple(q_list),
                    min_singular_values=tuple(sigmas),
                    bound_constants=tuple(bounds),
                    fitted_c1=float(-slope),
                    fitted_log_prefactor=float(intercept),
                    max_violation=viol)


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
    the longest usable distance range on a cube.
    """
    if source is None:
        source = ("site", (0,) * geom.d)
    f = indicator_field(geom, source)
    G = multiscale.green_neumann(geom, params)
    g = ops.apply(G, f)
    pos = positions(geom)
    supp = pos[np.abs(f.values) > 0]
    dists = np.min(np.linalg.norm(pos[:, None, :] - supp[None, :, :], axis=2), axis=1)
    order = np.argsort(dists)
    return dists[order], np.abs(g.values)[order]


def fit_decay(dists, mags, window=None) -> DecayFit:
    """Least-squares log-linear fit on the given distance window.

    The default window drops distances below 1 (where the bound is trivial)
    and the farthest 20 percent (boundary contamination).
    """
    dists = np.asarray(dists, dtype=float)
    mags = np.asarray(mags, dtype=float)
    if window is None:
        window = (1.0, 0.8 * float(np.max(dists)))
    lo, hi = window
    mask = (dists >= lo) & (dists <= hi) & (mags > 0)
    if np.count_nonzero(mask) < 5:
        raise ValueError(f"degenerate fit window {window}: "
                         f"{np.count_nonzero(mask)} points")
    x = dists[mask]
    y = np.log(mags[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    return DecayFit(log_prefactor=float(intercept), rate=float(-slope),
                    window=(float(lo), float(hi)),
                    rms_residual=float(np.sqrt(np.mean(resid**2))),
                    point_count=int(np.count_nonzero(mask)))


@dataclass(frozen=True)
class LinfRow:
    k: int
    m: int
    fit: DecayFit
    max_ratio: float


def linf_report(geoms, params, source=None) -> list[LinfRow]:
    """Fitted (prefactor, rate) per geometry plus the sup-norm envelope ratio.

    ``max_ratio`` is the largest observed ``|(G f)(x)| * exp(rate * dist)``,
    i.e. the empirical prefactor for the fitted rate at unit sup-norm source.
    """
    rows = []
    for geom in geoms:
        dists, mags = decay_profile(geom, params, source)
        fit = fit_decay(dists, mags)
        ratio = float(np.max(mags * np.exp(fit.rate * dists)))
        rows.append(LinfRow(k=geom.k, m=geom.m, fit=fit, max_ratio=ratio))
    return rows
