"""Multiscale coefficients, regularized Green functions, and the RG identities.

The coefficient sequence is ``a_1 = a``, ``a_{j+1} = a a_j / (a L**-2 + a_j)``
with closed form ``a_j = a (1 - L**-2) / (1 - L**-2j)``.  The regularized
Green function at scale ``j`` on a cube with spacing ``xi = L**-k`` is

    G_j = (-Lap + mu_bar_k + a_j (L**j xi)**-2 Q_j* Q_j)**-1,

and one renormalization step is the exact operator identity

    G_{j+1} = at**2 G_j Q_j* C_j Q_j G_j + G_j,   at = a_j (L**j xi)**-2,

with the fluctuation covariance ``C_j`` inverting the coarse effective form
plus the next-scale averaging penalty.  The residual functions return
relative Frobenius norms so that an exact identity failing beyond 1e-9 flags
a convention bug.

The dense operators (``green_j``, ``rg_operators``) invert n x n
matrices; each call factors afresh.  The identities themselves are checked
on one route only: ``tower_level`` works in the orthonormal DCT-II basis,
where every operator of the tower is diagonal plus rank one per frequency
class (``ops.dct_frequency_classes``), solved by the Sherman-Morrison rows
of ``RankOneRows``.  It forms no n x n matrix and runs at every size the
lattice admits; the dense operators are its oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .lattice import (LatticeGeometry, coarse_geometry, sample_sites,
                      scale_geometry, site_to_flat)
from .operators import KernelOperator

@dataclass(frozen=True)
class MultiscaleParams:
    """Block coefficient ``a``, bare mass ``mu0`` and the mass-regime split constant."""

    a: float = 1.0
    mu0: float = 0.0
    c_star: float = 1.0

    def __post_init__(self):
        # chained comparisons are False for NaN, so these also reject it
        if not 0 < self.a < np.inf:
            raise ValueError("need finite a > 0")
        if not 0 <= self.mu0 < np.inf:
            raise ValueError("need finite mu0 >= 0")
        if not 0 < self.c_star < np.inf:
            raise ValueError("need finite c_star > 0")

    def a_j(self, L: int, j: int) -> float:
        if j < 1:
            raise ValueError("a_j defined for j >= 1")
        return self.a * (1.0 - L**-2) / (1.0 - float(L) ** (-2 * j))

    def mu_bar(self, L: int, k: int) -> float:
        return float(L) ** (2 * k) * self.mu0

    def a_tilde(self, geom: LatticeGeometry, j: int, ell: int) -> float:
        """``a_j * (L**ell * xi)**-2`` on the given geometry."""
        return self.a_j(geom.L, j) * float(geom.L) ** (2 * (geom.k - ell))


def a_sequence(a: float, L: int, j_max: int) -> np.ndarray:
    """Closed-form coefficient sequence ``a_1 .. a_{j_max}``."""
    j = np.arange(1, j_max + 1)
    return a * (1.0 - L**-2) / (1.0 - float(L) ** (-2.0 * j))


def a_sequence_recursive(a: float, L: int, j_max: int) -> np.ndarray:
    out = np.empty(j_max)
    out[0] = a
    for j in range(1, j_max):
        out[j] = a * out[j - 1] / (a * L**-2 + out[j - 1])
    return out


def defining_operator(geom, params: MultiscaleParams, j: int) -> KernelOperator:
    """``-Lap + mu_bar_k + a_tilde(j, j) Q_j* Q_j``, the mass added to the kernel's diagonal."""
    mu_bar = params.mu_bar(geom.L, geom.k)
    K = -ops.neumann_laplacian(geom).kernel
    K[np.diag_indices_from(K)] += mu_bar * (1.0 / geom.spacing ** geom.d)   # mu_bar * identity
    K += params.a_tilde(geom, j, j) * ops.block_projector(geom, j).kernel
    return KernelOperator(geom, geom, K)


def green_j(geom, params: MultiscaleParams, j: int) -> KernelOperator:
    """Regularized Green function ``G^xi_j`` on the given cube.

    Allowed range is ``1 <= j <= min(k + 1, m)``: the extra value ``j = k + 1``
    yields the next-scale operator with coefficient ``a_{k+1} / L**2`` that
    appears in the fluctuation-covariance identity.
    """
    if not 1 <= j <= min(geom.k + 1, geom.m):
        raise ValueError(f"green_j: j={j} outside [1, {min(geom.k + 1, geom.m)}]")
    return ops.invert(defining_operator(geom, params, j))


def green_neumann(geom, params: MultiscaleParams) -> KernelOperator:
    """The scale-``k`` propagator ``G_k = (-Lap + mu_bar_k + a_k Q_k* Q_k)**-1``."""
    if geom.k < 1:
        raise ValueError("green_neumann needs k >= 1")
    return green_j(geom, params, geom.k)


@dataclass(frozen=True, eq=False)
class RgOperators:
    """One scale's worth of renormalization operators on a cube."""

    j: int
    geometry: LatticeGeometry
    G_j: KernelOperator        # on Omega
    Delta_j: KernelOperator    # on Omega_j
    C_j: KernelOperator        # on Omega_j
    H_j: KernelOperator        # Omega_j -> Omega
    C_prime_j: KernelOperator  # on Omega


def rg_operators(geom, params: MultiscaleParams, j: int) -> RgOperators:
    """Build ``G_j``, the coarse effective form, fluctuation covariance and friends.

    Needs ``1 <= j <= k`` and ``j < m`` (the covariance involves one more
    averaging step on the coarse lattice).
    """
    if not 1 <= j <= geom.k:
        raise ValueError(f"rg_operators: j={j} outside [1, {geom.k}]")
    if j >= geom.m:
        raise ValueError("rg_operators needs j < m for the next-scale averaging")
    coarse = coarse_geometry(geom, j)
    at = params.a_tilde(geom, j, j)
    at_first = params.a_tilde(geom, 1, j)      # a * (L**j xi)**-2
    G = green_j(geom, params, j)
    Q = ops.averaging(geom, j)
    Qs = ops.adjoint(Q)
    Delta = at * ops.identity(coarse) - at**2 * (Q @ G @ Qs)
    C = ops.invert(Delta + (at_first / geom.L**2) * ops.block_projector(coarse, 1))
    H = at * (G @ Qs)
    C_prime = H @ C @ ops.adjoint(H)
    return RgOperators(j=j, geometry=geom, G_j=G, Delta_j=Delta, C_j=C,
                       H_j=H, C_prime_j=C_prime)


def a_operator_closed_form(geom, params: MultiscaleParams, j: int) -> KernelOperator:
    """``A_j = (at + (at_1 / L**2) P_1)**-1`` in closed form, ``P_1`` being a projector."""
    coarse = coarse_geometry(geom, j)
    at = params.a_tilde(geom, j, j)
    at_first = params.a_tilde(geom, 1, j)
    P1 = ops.block_projector(coarse, 1)
    eye_c = ops.identity(coarse)
    return (1.0 / at) * eye_c + (1.0 / (at + at_first / geom.L**2) - 1.0 / at) * P1


def secular_min_roots(diag, u, at: float) -> np.ndarray:
    """Smallest eigenvalue of each row block ``diag(d_c) + at u_c u_c^T``, ``at > 0``.

    ``diag`` and ``u`` have shape ``(rows, members)``, the layout of
    ``ops.dct_frequency_classes``; members with ``u = 0`` are decoupled and
    left out (their diagonal counts as ``inf``), and every row needs one
    member with ``u != 0``.  Returns one value per row.  The smallest
    eigenvalue is the smallest root of the secular equation
    ``1/at + sum u_i**2 / (d_i - x) = 0``, which increases between its poles
    and lies in ``[d_1, min(d_2, d_1 + at sum u**2)]``, ``d_1 <= d_2`` being
    the two smallest diagonal entries of the row (a tie gives ``d_1``; a
    single member gives ``d_1 + at u**2``).  All rows are bisected at once
    to a width of ``4 eps`` times the bracket's larger end in magnitude, so
    every evaluation point stays strictly between the poles.  O(n) per step.
    """
    if np.isnan(diag).any():    # a NaN pole would stall the bisection
        raise ValueError("secular_min_roots: NaN on the diagonal")
    d = np.where(u != 0.0, diag, np.inf)
    w2 = u**2
    # the extra inf column is d_2 of a row with one live member
    d1, d2 = np.partition(np.column_stack((d, np.full(len(d), np.inf))), 1, axis=1)[:, :2].T
    lo = d1
    hi = np.minimum(d2, d1 + at * w2.sum(axis=1))   # a tie d_1 = d_2 is exact
    while True:
        active = hi - lo > 4 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi))
        if not active.any():
            return 0.5 * (lo + hi)
        x = 0.5 * (lo + hi)
        f = 1.0 / at + np.sum(w2[active] / (d[active] - x[active, None]), axis=1)
        lo[active] = np.where(f < 0, x[active], lo[active])
        hi[active] = np.where(f >= 0, x[active], hi[active])


def defining_min_eigenvalue(geom, params: MultiscaleParams, j: int) -> float:
    """``lambda_min`` of ``defining_operator(geom, params, j)`` by frequency classes.

    In the DCT-II basis (``ops.dct_frequency_classes``) the operator is
    ``diag(lam + mu_bar) + at sum_c u_c u_c^T``: one diagonal-plus-rank-one
    block per row, solved by ``secular_min_roots``, and a plain eigenvalue
    for every member with ``u = 0``.  No dense matrix is formed;
    ``ops.min_eigenvalue`` stays the dense oracle.
    """
    lam, u, _ = ops.dct_frequency_classes(geom, j)
    diag = lam + params.mu_bar(geom.L, geom.k)
    roots = secular_min_roots(diag, u, params.a_tilde(geom, j, j))
    return float(min(roots.min(), diag[u == 0.0].min(initial=np.inf)))


PROBE_BLOCK_BYTES = 8 * 2**20   # nbytes of one (n, columns) probe batch of a residual check


@dataclass(frozen=True, eq=False)
class RankOneRows:
    """Rows of ``M = diag(Delta) + a U Ubar^T``, each solved by Sherman-Morrison in O(S).

    ``U``, ``Ubar`` and ``Delta`` have shape ``(rows, S)``; column ``zero`` is
    the one column where ``Delta`` may vanish.  The weights are kept
    multiplied through by ``Delta_0 = Delta[:, zero]``, so a row with
    ``Delta_0 = 0`` needs no special case and nothing is formed as 0/0:

    - ``w``: ``1/Delta`` off the zero column and 0 on it, (rows, S);
    - ``c0``: ``1 + a sum_l Ubar_l w_l U_l``, (rows,);
    - ``den``: ``Delta_0 c0 + a U_0 Ubar_0``, (rows,), which is
      ``det M / prod_{l != zero} Delta_l``.

    ``fourier.ShiftSystem`` (torus momenta by shifts) and ``TowerLevel``
    (DCT frequency classes by members) are both such rows; ``build`` makes
    them.
    """

    a: float
    zero: int
    U: np.ndarray
    Ubar: np.ndarray
    Delta: np.ndarray
    w: np.ndarray
    c0: np.ndarray
    den: np.ndarray

    @classmethod
    def build(cls, Delta, U, Ubar, a: float, zero: int, **fields):
        """The rows of ``diag(Delta) + a U Ubar^T`` with their weights; a
        subclass passes its own ``fields`` on."""
        w = np.divide(1.0, Delta, out=np.zeros_like(Delta),
                      where=np.arange(Delta.shape[1]) != zero)
        c0 = 1.0 + a * np.sum(Ubar * w * U, axis=1)
        den = Delta[:, zero] * c0 + a * U[:, zero] * Ubar[:, zero]
        return cls(a=a, zero=zero, U=U, Ubar=Ubar, Delta=Delta, w=w, c0=c0, den=den, **fields)

    def solve(self, v) -> np.ndarray:
        """``M^{-1} v`` in every row, for ``v`` of shape ``(rows, S, ...)``.

        Off the zero column ``x_l = w_l (v_l - a U_l beta)`` with
        ``beta = (Ubar_0 v_0 + Delta_0 B) / den`` and ``B = sum_l Ubar_l w_l v_l``;
        on it ``x_0 = (c0 v_0 - a U_0 B) / den``.
        """
        v = np.asarray(v)
        v3 = v.reshape(v.shape[:2] + (-1,))
        z, a = self.zero, self.a
        den = self.den[:, None, None]
        B = np.sum((self.Ubar * self.w)[..., None] * v3, axis=1, keepdims=True)
        v0 = v3[:, z:z + 1]
        beta = (self.Ubar[:, z, None, None] * v0 + self.Delta[:, z, None, None] * B) / den
        x = (a * self.U)[..., None] * beta      # x = w (v - a U beta), in place
        np.subtract(v3, x, out=x)
        x *= self.w[..., None]
        x[:, z:z + 1] = (self.c0[:, None, None] * v0 - a * self.U[:, z, None, None] * B) / den
        return x.reshape(v.shape)


def _scatter(X, freq) -> np.ndarray:
    """Rows of ``X``, shape ``(rows, S, ...)``, back to flat frequency order;
    ``freq`` is a permutation of the frequencies, laid out as ``X``'s rows."""
    out = np.empty((freq.size,) + X.shape[2:], dtype=X.dtype)
    out[freq] = X
    return out


def _col(a, x):
    """``a`` of shape ``(rows, S)`` broadcast against ``x`` of shape ``(rows, S, ...)``."""
    return a.reshape(a.shape + (1,) * (x.ndim - 2))


@dataclass(frozen=True, eq=False)
class TowerLevel:
    """Scale ``j`` of the Neumann tower on one cube, by DCT frequency classes.

    Vectors are orthonormal DCT-II coefficients in flat frequency order
    (``ops.dct``), of shape ``(n, ...)`` on the cube and ``(n_c, ...)`` on
    ``coarse_geometry(geometry, j)``; every map below is a value-matrix map,
    O(n) per column, and forms no matrix.  On the rows of
    ``ops.dct_frequency_classes(geometry, j)`` (``freq``, ``u``), with
    ``b = L**j``:

    - ``G_j`` solves ``G``, the rows ``diag(lam + mu_bar) + at u u^T``;
    - ``Q_j = b**(-d/2) u`` sums each row into its coarse frequency, and
      ``Q_j* = b**(d/2) u^T`` spreads it back;
    - ``Delta_j = at - at**2 u^T G_j u`` is diagonal over the coarse
      frequencies and reads ``at Delta_0 / den`` off ``G``'s weights;
    - ``C_j = (Delta_j + (a_tilde(1, j) / L**2) P_1)**-1`` solves ``C``, the
      rows ``diag(Delta_j) + (a_tilde(1, j) / L**2) u_1 u_1^T`` over the coarse
      lattice's own level-1 classes (``coarse_freq``);
    - ``C'_j = at**2 G_j Q_j* C_j Q_j G_j``.

    Column 0 of every row is the member ``p = kappa``, live in every row; it
    plays the zero column, so the massless ``p = 0`` needs no special case.
    ``delta``, ``coarse_freq`` and ``C`` exist for ``j < m`` only.
    """

    geometry: LatticeGeometry
    j: int
    at: float
    freq: np.ndarray
    u: np.ndarray
    G: RankOneRows
    delta: np.ndarray | None
    coarse_freq: np.ndarray | None
    C: RankOneRows | None

    def green(self, V) -> np.ndarray:
        return _scatter(self.G.solve(V[self.freq]), self.freq)

    def average(self, V) -> np.ndarray:
        X = V[self.freq]
        b = float(self.geometry.L) ** self.j
        return b ** (-self.geometry.d / 2) * np.sum(_col(self.u, X) * X, axis=1)

    def average_adjoint(self, Y) -> np.ndarray:
        b = float(self.geometry.L) ** self.j
        X = b ** (self.geometry.d / 2) * _col(self.u, Y[:, None]) * Y[:, None]
        return _scatter(X, self.freq)

    def covariance(self, Y) -> np.ndarray:
        return _scatter(self.C.solve(Y[self.coarse_freq]), self.coarse_freq)

    def fluctuation(self, V) -> np.ndarray:
        G = self.green
        return self.at**2 * G(self.average_adjoint(self.covariance(self.average(G(V)))))


def tower_level(geom, params: MultiscaleParams, j: int) -> TowerLevel:
    """Scale ``j`` of the tower, ``1 <= j <= min(k + 1, m)`` as for ``green_j``;
    O(n) to build."""
    if not 1 <= j <= min(geom.k + 1, geom.m):
        raise ValueError(f"tower_level: j={j} outside [1, {min(geom.k + 1, geom.m)}]")
    at = params.a_tilde(geom, j, j)
    lam, u, freq = ops.dct_frequency_classes(geom, j)
    G = RankOneRows.build(lam + params.mu_bar(geom.L, geom.k), u, u, at, 0)
    delta = coarse_freq = C = None
    if j < geom.m:
        delta = at * G.Delta[:, 0] / G.den      # row c is coarse frequency c
        _, u1, coarse_freq = ops.dct_frequency_classes(coarse_geometry(geom, j), 1)
        C = RankOneRows.build(delta[coarse_freq], u1, u1,
                              params.a_tilde(geom, 1, j) / geom.L**2, 0)
    return TowerLevel(geometry=geom, j=j, at=at, freq=freq, u=u, G=G, delta=delta,
                      coarse_freq=coarse_freq, C=C)


def _rel(X, Y) -> float:
    """Relative Frobenius (or 2-norm) distance ``|X - Y| / |Y|``."""
    return float(np.linalg.norm(X - Y) / np.linalg.norm(Y))


def _probe_rel_frobenius(apply_x, apply_y, freq, width: int) -> float:
    """``|X - Y|_F / |Y|_F`` for maps block-diagonal over the rows of ``freq``.

    Probe column ``s`` holds a 1 at member ``s`` of every row, so its image
    under a block-diagonal map is column ``s`` of every block, and the
    ``freq.shape[1]`` probes read every block entry once.  Both sides'
    entries are formed and subtracted, never expanded into Gram terms,
    which would floor the residual near ``sqrt(eps)``.  Probes go in
    batches of at most ``PROBE_BLOCK_BYTES`` over vectors of length ``width``.
    """
    members = freq.shape[1]
    batch = max(1, PROBE_BLOCK_BYTES // (8 * width))
    num = den = 0.0
    for start in range(0, members, batch):
        cols = np.arange(start, min(start + batch, members))
        P = np.zeros((freq.size, len(cols)))
        P[freq[:, cols], np.arange(len(cols))] = 1.0
        Y = apply_y(P)
        num += float(np.sum((apply_x(P) - Y) ** 2))
        den += float(np.sum(Y**2))
    return float(np.sqrt(num / den))


def rg_step_residual(geom, params: MultiscaleParams, j: int) -> float:
    """Relative Frobenius residual of one renormalization-group step,
    ``G_{j+1} = C'_j + G_j`` with ``C'_j = at**2 G_j Q_j* C_j Q_j G_j``; all
    three are block-diagonal over the level-``(j+1)`` classes."""
    if not 1 <= j <= geom.k or j >= geom.m:
        raise ValueError(f"rg_step_residual: j={j} needs 1 <= j <= k and j < m")
    lo, hi = tower_level(geom, params, j), tower_level(geom, params, j + 1)

    def step(P):    # C'_j + G_j = G_j (1 + at**2 Q_j* C_j Q_j G_j), one G_j solve fewer
        return lo.green(P + lo.at**2 * lo.average_adjoint(lo.covariance(lo.average(lo.green(P)))))

    return _probe_rel_frobenius(step, hi.green, hi.freq, geom.site_count)


def c_identity_residual(geom, params: MultiscaleParams, j: int) -> float:
    """Relative Frobenius residual of the fluctuation-covariance identity
    ``C_j = A_j + at**2 A_j Q_j G_{j+1} Q_j* A_j`` on the coarse lattice, with
    the closed form ``A_j = 1/at + (1/(at + at_1/L**2) - 1/at) P_1`` of
    ``a_operator_closed_form``; all are block-diagonal over the coarse
    lattice's level-1 classes."""
    if not 1 <= j <= geom.k or j >= geom.m:
        raise ValueError(f"c_identity_residual: j={j} needs 1 <= j <= k and j < m")
    lo, hi = tower_level(geom, params, j), tower_level(geom, params, j + 1)
    at, cf, u1 = lo.at, lo.coarse_freq, lo.C.U
    at_first = params.a_tilde(geom, 1, j)
    shift = 1.0 / (at + at_first / geom.L**2) - 1.0 / at

    def A(Y):
        X = Y[cf]
        P1 = _col(u1, X) * np.sum(_col(u1, X) * X, axis=1, keepdims=True)
        return Y / at + shift * _scatter(P1, cf)

    def recon(Y):
        AY = A(Y)
        return AY + at**2 * A(lo.average(hi.green(lo.average_adjoint(AY))))

    return _probe_rel_frobenius(recon, lo.covariance, cf, geom.site_count)


def rg_telescope_residual(geom, params: MultiscaleParams) -> float:
    """Max relative discrepancy of the telescoped propagator formula.

    Both sides are evaluated on delta fields at a deterministic site sample.
    The right-hand side sums the rescaled fluctuation kernels
    ``lam_j**-2 C'_j(lam_j Omega)`` over ``j = 1 .. k-1`` plus the rescaled
    first-scale propagator; value vectors transport across scales unchanged
    because rescaled lattices share the index set.  The sum is empty for k=1.
    Each level is built once; level ``k`` is the left side.
    The deltas go through one forward DCT, the class solves of every term
    and one inverse DCT per side, in batches of at most ``PROBE_BLOCK_BYTES``.
    """
    k = geom.k
    if k < 1:
        raise ValueError("telescope needs k >= 1")
    L = float(geom.L)
    levels = [tower_level(scale_geometry(geom, k - j), params, j) for j in range(1, k + 1)]
    flat = [site_to_flat(geom, s) for s in sample_sites(geom)]
    batch = max(1, PROBE_BLOCK_BYTES // (8 * geom.site_count))
    worst = 0.0
    for start in range(0, len(flat), batch):
        cols = flat[start:start + batch]
        E = np.zeros((geom.site_count, len(cols)))
        E[cols, np.arange(len(cols))] = 1.0
        Ehat = ops.dct(geom, E)
        lhs = ops.idct(geom, levels[-1].green(Ehat))
        rhs = L ** (2 - 2 * k) * levels[0].green(Ehat)
        for j, level in enumerate(levels[:-1], start=1):
            rhs += L ** (2 * (j - k)) * level.fluctuation(Ehat)
        rhs = ops.idct(geom, rhs)
        diff = np.max(np.abs(lhs - rhs), axis=0)
        worst = max(worst, float(np.max(diff / np.max(np.abs(lhs), axis=0))))
    return worst


def scaling_residuals(geom, params: MultiscaleParams, j: int) -> dict[str, float]:
    """Numerical residuals of the scaling covariances (all exact identities).

    Keys: ``de_scaling`` (Laplacian), ``q_scaling`` (averaging),
    ``g_scaling`` (Green function), ``dgc_delta`` and ``dgc_c`` (effective
    form and fluctuation covariance across scales).

    Each compares value maps up to a power of ``lam``.  That relabel is
    exact: the scaled lattice shares the index set, so the scaling map ``S``
    has value matrix ``lam**(-d/2) I``, ``S*`` has ``lam**(d/2) I`` and
    ``S* X S`` has that of ``X``.  In the DCT basis ``-Lap`` and ``Delta_j``
    are diagonal and ``Q_j`` is ``b**(-d/2) u``; ``G_j`` and ``C_j`` are
    compared block by block (``_probe_rel_frobenius``).
    """
    if not 1 <= j <= geom.k or j >= geom.m:
        raise ValueError(f"scaling_residuals: j={j} needs 1 <= j <= k and j < m")
    ell = geom.k - j
    if ell == 0:    # lam = 1 and the same cube: each residual compares a map with itself
        return dict.fromkeys(("de_scaling", "q_scaling", "g_scaling", "dgc_delta", "dgc_c"), 0.0)
    lam = float(geom.L) ** ell
    scaled = scale_geometry(geom, ell)
    xi, sc = tower_level(geom, params, j), tower_level(scaled, params, j)
    lap_xi, lap_sc = (ops.dct_frequency_classes(g, j)[0] for g in (geom, scaled))
    b_half = float(geom.L) ** (-j * geom.d / 2)
    n, n_c = geom.site_count, len(xi.delta)
    return {
        "de_scaling": _rel(lam**2 * lap_sc, lap_xi),
        "q_scaling": _rel(b_half * sc.u, b_half * xi.u),
        "g_scaling": _probe_rel_frobenius(lambda P: lam**-2 * sc.green(P), xi.green,
                                          xi.freq, n),
        "dgc_delta": _rel(lam**-2 * xi.delta, sc.delta),
        "dgc_c": _probe_rel_frobenius(lambda P: lam**2 * xi.covariance(P), sc.covariance,
                                      xi.coarse_freq, n_c),
    }


@dataclass(frozen=True)
class PositivityRow:
    k: int
    m: int
    c: float


def positivity_report(geoms, params: MultiscaleParams) -> list[PositivityRow]:
    """Coercivity ratios ``c(k) = lambda_min(-Lap + mu_bar_k + a_k Q*Q) / lambda_min(-Lap + 1)``.

    The reference ``lambda_min(-Lap + 1)`` is exactly 1: the Neumann ``-Lap``
    is positive semidefinite and has the constants at eigenvalue 0.  The
    numerator comes from ``defining_min_eigenvalue`` (secular-equation roots,
    one per coarse DCT frequency class).  No dense matrix is assembled;
    ``ops.min_eigenvalue`` stays the dense oracle for both.

    The contract behind the ratios is uniformity: across a family with fixed
    physical side length the values stay within a modest factor of each other.
    """
    return [PositivityRow(k=geom.k, m=geom.m, c=defining_min_eigenvalue(geom, params, geom.k))
            for geom in geoms]
