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
a convention bug.  They take the tower levels they compare, so a caller
checking every identity (``cli.run_rg_verify``) builds each level once.

The dense operators (``green_j``, ``rg_operators``) invert n x n
matrices; each call factors afresh.  The identities themselves are checked
on one route only: ``tower_level`` works in the orthonormal DCT-II basis,
where every operator of the tower is diagonal plus rank one per frequency
class (``ops.dct_frequency_classes``), solved by the real Sherman-Morrison
rows of ``RankOneRows``, whose zero column alone finishes ``fourier``'s
per-axis shift systems (``_zero_column``, the formula's one place).  It forms
no n x n matrix and runs at every size the lattice admits; the dense
operators are its oracle in the tests.  In the nested frequency order of
``ops.dct`` every level's classes are runs of consecutive coefficients,
``L**d`` runs of level ``j`` making one of level ``j + 1``, so the levels
read vectors and each other's rows as reshapes.  Every identity is
block-diagonal over the classes of its coarser level.  The step and the
scaling relations of ``G_j`` and ``C_j`` take their residuals from the
rows' factors, in a small orthogonal frame a class row (``_identity_sq``),
and form no block; the covariance identity forms its ``L**d x L**d`` blocks
and subtracts them.
The step, covariance, telescope and ``G_j``/``C_j`` scaling residuals and
the secular roots run in batches within ``operators.BLOCK_BYTES``, cut by
``operators._batches``, the one byte-budget slicer of the package.  The
other three scaling residuals (``_rel``) form whole arrays of the level, up
to ``(rows, S)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import operators as ops
from .lattice import GeometryError, LatticeGeometry, coarse_geometry, scale_geometry
from .operators import KernelOperator, _batches

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
    """Closed-form coefficient sequence ``a_1 .. a_{j_max}``, by ``MultiscaleParams.a_j``."""
    params = MultiscaleParams(a=a)
    return np.array([params.a_j(L, j) for j in range(1, j_max + 1)])


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


def _check_level(geom, j: int, name: str):
    """The one check of a tower level, ``1 <= j <= min(k + 1, m)``: the extra
    value ``j = k + 1`` is the next scale, whose ``G`` enters the covariance
    identity.  A cube with ``k = 0`` carries no ``G_k``: a ``GeometryError``."""
    top = min(geom.k + 1, geom.m)
    if not 1 <= j <= top:
        raise GeometryError(f"{name}: level {j} outside [1, min(k + 1, m)] = [1, {top}] "
                            f"at k={geom.k}, m={geom.m}")


def green_j(geom, params: MultiscaleParams, j: int) -> KernelOperator:
    """Regularized Green function ``G^xi_j`` on the given cube, at a level
    ``1 <= j <= min(k + 1, m)`` (``_check_level``)."""
    _check_level(geom, j, "green_j")
    return ops.invert(defining_operator(geom, params, j))


def green_neumann(geom, params: MultiscaleParams) -> KernelOperator:
    """The scale-``k`` propagator ``G_k = (-Lap + mu_bar_k + a_k Q_k* Q_k)**-1``;
    a cube with ``k = 0`` is refused by ``green_j`` (``GeometryError``)."""
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

    Needs the levels ``j`` and ``j + 1`` (``_check_level``), ``1 <= j <= k``
    and ``j < m``: the covariance averages once more on the coarse lattice.
    """
    _check_level(geom, j, "rg_operators")
    _check_level(geom, j + 1, "rg_operators")
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


def secular_min_roots(diag, u, at: float) -> np.ndarray:
    """Smallest eigenvalue of each row block ``diag(d_c) + at u_c u_c^T``, ``at > 0``.

    ``diag`` and ``u`` have shape ``(rows, members)``, the layout of
    ``ops.dct_frequency_classes``; members with ``u = 0`` are decoupled and
    left out (their diagonal counts as ``inf``), and every row needs one
    member with ``u != 0``.  Returns one value per row.  The smallest
    eigenvalue is the smallest root of the secular equation
    ``1/at + sum w_i / (d_i - x) = 0``, ``w = u**2`` (Bunch, Nielsen and
    Sorensen 1978), which lies in ``[d_1, min(d_2, d_1 + at sum w)]``,
    ``d_1 <= d_2`` being the two smallest diagonal entries of the row.  A
    tie ``d_1 = d_2`` gives ``d_1`` and a single member ``d_1 + at w_1``.

    Every other row is solved by Newton's method on the pole-free form
    ``h(y) = y - w_1 / S(y)``, ``S(y) = 1/at + sum_{i != 1} w_i / (D_i - y)``,
    in ``y = x - d_1 >= 0`` with ``D_i = d_i - d_1``: it starts at ``y = 0``,
    each evaluation moves one end of the bracket above to ``y`` by the sign
    of ``h``, and a Newton step that leaves the bracket is replaced by its
    midpoint, so no evaluation reaches the pole ``D_2``.  A row stops when a
    step moves ``x`` by at most ``2 eps max(|x|, y)``, ``2 eps |x|`` wherever
    ``d_1 >= 0`` (``y`` bounds the resolution of ``x = d_1 + y``).  On the
    positivity families of the benchmark configs, up to n = 4,782,969, every
    row stops within 5 sweeps, where bisection took 50 to 51.  Rows go in
    batches of ``_batches`` within ``operators.BLOCK_BYTES``, counted at five
    ``(rows, members)`` float arrays and twenty ``(rows,)`` ones a batch:
    ``_secular_rows`` holds ``D``, ``w``, ``R`` and ``t``, at a compaction
    the kept half of ``D`` and ``w`` beside them, and its row values, masks
    and their temporaries.
    """
    if np.isnan(diag).any():    # a NaN pole would break the bracket
        raise ValueError("secular_min_roots: NaN on the diagonal")
    rows, members = diag.shape
    out = np.empty(rows)
    for rb in _batches(rows, 8 * (5 * members + 20)):
        out[rb] = _secular_rows(diag[rb], u[rb], at)
    return out


def _secular_rows(diag, u, at: float) -> np.ndarray:
    """``secular_min_roots`` on one batch of rows.  A row with a tie or a
    single member enters the iteration with ``w_1 = 0`` and no pole, so
    ``h(0) = 0`` stops it at once at ``d_1``; a single member then takes
    its closed form.  Stopped rows stay in the arrays, frozen at a point
    already evaluated, until at most half the rows are left running."""
    eps = np.finfo(float).eps
    D, w = np.where(u != 0.0, diag, np.inf), np.square(u)
    r = np.arange(len(D))
    first = np.argmin(D, axis=1)
    d1, w1 = D[r, first], w[r, first]
    D -= d1[:, None]
    D[r, first] = np.inf        # d_1's own member leaves S
    D2 = D.min(axis=1)          # inf for a single live member
    single = D2 == np.inf
    closed = d1 + at * w1
    shut = single | (D2 == 0.0)
    D[shut] = np.inf
    x, w1 = d1.copy(), np.where(shut, 0.0, w1)
    y, lo, hi = np.zeros(len(D)), np.zeros(len(D)), np.minimum(D2, at * w.sum(axis=1))
    R, t = np.empty_like(D), np.empty_like(D)
    live, running = r, np.ones(len(D), dtype=bool)
    while running.any():
        np.reciprocal(np.subtract(D, y[:, None], out=R), out=R)
        S = 1.0 / at + np.multiply(w, R, out=t).sum(axis=1)
        dS = np.einsum("ij,ij->i", t, R)
        g = w1 / S
        h = y - g
        lo, hi = np.where(h < 0, y, lo), np.where(h > 0, y, hi)
        step = h / (1.0 + g * dS / S)
        ynew = y - step
        small = np.abs(step) <= 2 * eps * np.maximum(np.abs(d1 + ynew), ynew)
        ynew = np.where(small | ((lo < ynew) & (ynew < hi)), ynew, 0.5 * (lo + hi))
        xnew = d1 + ynew
        done = running & (small | (np.abs(ynew - y) <= 2 * eps * np.maximum(np.abs(xnew), ynew)))
        x[live[done]] = xnew[done]
        running &= ~done
        y = np.where(running, ynew, y)
        if 2 * np.count_nonzero(running) <= len(live):
            keep = running
            live, D, w, w1, d1 = live[keep], D[keep], w[keep], w1[keep], d1[keep]
            y, lo, hi, running = y[keep], lo[keep], hi[keep], running[keep]
            R, t = R[:len(live)], t[:len(live)]
    return np.where(single, closed, x)


def defining_min_eigenvalue(geom, params: MultiscaleParams, j: int) -> float:
    """``lambda_min`` of ``defining_operator(geom, params, j)`` by frequency classes.

    In the DCT-II basis (``ops.dct_frequency_classes``) the operator is
    ``diag(lam + mu_bar) + at sum_c u_c u_c^T``: one diagonal-plus-rank-one
    block per row, solved by ``secular_min_roots`` (Newton's method on its
    pole-free form, within 5 sweeps at the benchmark configs, in row batches
    within ``operators.BLOCK_BYTES``), and a plain eigenvalue for every member
    with ``u = 0``.  No dense matrix is formed; ``ops.min_eigenvalue`` stays
    the dense oracle.
    """
    lam, u = ops.dct_frequency_classes(geom, j)
    diag = np.add(lam, params.mu_bar(geom.L, geom.k), out=lam)
    roots = secular_min_roots(diag, u, params.a_tilde(geom, j, j))
    return float(min(roots.min(), diag[u == 0.0].min(initial=np.inf)))


@dataclass(frozen=True, eq=False)
class RankOneRows:
    """Rows of ``M = diag(Delta) + a U Ubar^T``, each solved by Sherman-Morrison in O(S).

    Column ``zero`` is the one column where ``Delta`` may vanish.  The rows
    keep what the solves read, multiplied through by ``Delta_0``, so a row
    with ``Delta_0 = 0`` needs no special case and nothing is formed as 0/0:

    - ``w``: ``1/Delta`` off the zero column and 0 on it, (rows, S);
    - ``wU = w U``, (rows, S);
    - ``Delta0``, ``U0``, ``Ubar0``: the zero column of ``Delta``, ``U``,
      ``Ubar``, (rows,);
    - ``c0``: ``1 + a sum_l Ubar_l w_l U_l``, (rows,); ``den = Delta_0 c0 +
      a U_0 Ubar_0 = det M / prod_{l != zero} Delta_l`` is formed when read.

    ``TowerLevel``'s rows (DCT frequency classes by members) are real,
    ``Ubar = U``, and ``build`` makes them.  The zero column alone, with
    ``w`` and ``wU`` None, finishes ``fourier``'s per-axis shift systems
    (torus momenta by shifts, complex off the real contour;
    ``fourier.AxisSymbols.zero_column``).  ``_zero_column`` is the one
    place the formula is written.
    """

    a: float
    zero: int
    w: np.ndarray | None
    wU: np.ndarray | None
    Delta0: np.ndarray
    U0: np.ndarray
    Ubar0: np.ndarray
    c0: np.ndarray

    @classmethod
    def build(cls, Delta, U, a: float, zero: int):
        """The real rows of ``diag(Delta) + a U U^T``.  ``w`` and ``wU`` are
        formed in place of ``Delta`` and ``U``, which are overwritten."""
        Delta0, U0 = Delta[:, zero].copy(), U[:, zero].copy()
        w = np.divide(1.0, Delta, out=Delta, where=np.arange(Delta.shape[1]) != zero)
        w[:, zero] = 0.0
        c0 = 1.0 + a * np.einsum("ij,ij,ij->i", w, U, U)
        return cls(a, zero, w, np.multiply(w, U, out=U), Delta0, U0, U0, c0)

    def _den(self, rows=slice(None)) -> np.ndarray:
        return self.Delta0[rows] * self.c0[rows] + self.a * self.U0[rows] * self.Ubar0[rows]

    den = property(_den)

    def _zero_column(self, rows, v0, B):
        """The Sherman-Morrison formula from the zero entry ``v0`` of ``v`` and
        ``B = sum_l (w Ubar)_l v_l``: ``beta = (Ubar_0 v_0 + Delta_0 B) / den``,
        the weight of ``-a (w U)`` in ``M^{-1} v``, and the zero entry ``x_0 =
        (c0 v_0 - a U_0 B) / den``.  ``rows`` indexes the row arrays into
        shapes that broadcast against ``B``."""
        den = self._den(rows)
        return ((self.Ubar0[rows] * v0 + self.Delta0[rows] * B) / den,
                (self.c0[rows] * v0 - self.a * self.U0[rows] * B) / den)

    def solve(self, v) -> np.ndarray:
        """``M^{-1} v`` of real rows for ``v`` of shape ``(rows, S, ...)`` or
        ``(rows S, ...)``: ``w v - a (w U) beta`` off the zero column, ``x_0``
        on it (``_zero_column``, ``B = (w U)^T v``).  ``w v`` is formed in
        the result, and the rank-one term subtracted from it in row batches
        within ``operators.BLOCK_BYTES``."""
        v = np.asarray(v)
        v3 = v.reshape(self.w.shape + (-1,))
        z = self.zero
        B = np.einsum("rs,rsc->rc", self.wU, v3)[:, None]
        beta, x0 = self._zero_column(np.s_[:, None, None], v3[:, z:z + 1], B)
        x, a_beta = self.w[..., None] * v3, self.a * beta
        for rb in _batches(len(x), x[0].nbytes):
            x[rb] -= self.wU[rb, :, None] * a_beta[rb]
        x[:, z:z + 1] = x0
        return x.reshape(v.shape)

    def factors(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """``(K, g)`` of real rows, ``rows`` indexing the row arrays into shapes
        ``shape + (1,)`` (as for ``_zero_column``), of shapes ``shape + (2,
        2)`` and ``shape + (2,)``: ``M^{-1} = diag(w) + [wU, e_0] K [wU,
        e_0]^T`` and ``M^{-1} U = [wU, e_0] g``.  ``_zero_column`` of ``(v_0,
        B) = (0, 1)`` and ``(1, 0)`` gives ``g = (Delta_0, U_0) / den`` as
        ``beta`` and ``(-a U_0, c0) / den`` as ``x_0``, so ``K = [[-a Delta_0,
        -a U_0], [-a U_0, c0]] / den``."""
        g, x0 = self._zero_column(rows, np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        K = np.stack((-self.a * g[..., 0], x0[..., 0], x0[..., 0], x0[..., 1]), axis=-1)
        return K.reshape(K.shape[:-1] + (2, 2)), g

    def inverse(self, rows) -> np.ndarray:
        """The inverse blocks of real ``rows`` (a slice), ``(len(rows), S, S)``:
        column ``m`` of row ``r`` is ``M_r^{-1} e_m``, ``solve`` of ``e_m`` in
        closed form.  The block is ``diag(w) - a (w U) beta^T`` and its zero
        row ``x_0^T``, from ``_zero_column`` of ``v_0 = [m = zero]`` and ``B =
        (w U)_m``."""
        m = np.arange(self.w.shape[1])
        beta, x0 = self._zero_column(np.s_[rows, None], m == self.zero, self.wU[rows])
        X = self.wU[rows, :, None] * (-self.a * beta[:, None])
        X[:, m, m] += self.w[rows]
        X[:, self.zero] = x0
        return X


@dataclass(frozen=True, eq=False)
class TowerLevel:
    """Scale ``j`` of the Neumann tower on one cube, by DCT frequency classes.

    Vectors are orthonormal DCT-II coefficients in the nested frequency order
    (``ops.dct``), of shape ``(n, ...)`` on the cube and ``(n_c, ...)`` on
    ``coarse_geometry(geometry, j)``; every map below is a value-matrix map,
    O(n) per column, and forms no matrix.  On the rows of
    ``ops.dct_frequency_classes(geometry, j)`` (``u``), runs of ``b**d``
    consecutive coefficients, ``b = L**j``, each reads a vector as a reshape:

    - ``G_j`` solves ``G``, the rows ``diag(lam + mu_bar) + at u u^T``;
    - ``Q_j = b**(-d/2) u`` sums each row into its coarse frequency, and
      ``Q_j* = b**(d/2) u^T`` spreads it back;
    - ``Delta_j = at - at**2 u^T G_j u`` is diagonal over the coarse
      frequencies and reads ``at Delta_0 / den`` off ``G``'s weights;
    - ``C_j = (Delta_j + (a_tilde(1, j) / L**2) P_1)**-1`` solves ``C``, the
      rows ``diag(Delta_j) + (a_tilde(1, j) / L**2) u_1 u_1^T`` over the coarse
      lattice's own level-1 classes (``u1``), each ``L**d`` consecutive
      coarse frequencies, so its diagonal is ``delta`` reshaped;
    - ``C'_j = at**2 G_j Q_j* C_j Q_j G_j``.

    Column 0 of every row is the member ``p = kappa``, live in every row; it
    plays the zero column, so the massless ``p = 0`` needs no special case.
    ``delta``, ``u1`` and ``C`` exist for ``j < m`` only.
    """

    geometry: LatticeGeometry
    j: int
    at: float
    u: np.ndarray
    G: RankOneRows
    delta: np.ndarray | None
    u1: np.ndarray | None
    C: RankOneRows | None

    def green(self, V) -> np.ndarray:
        return self.G.solve(V)

    def average(self, V) -> np.ndarray:
        b = float(self.geometry.L) ** self.j
        return b ** (-self.geometry.d / 2) * np.einsum(
            "rs,rs...->r...", self.u, V.reshape(self.u.shape + V.shape[1:]))

    def average_adjoint(self, Y) -> np.ndarray:
        b = float(self.geometry.L) ** self.j
        X = b ** (self.geometry.d / 2) * np.einsum("rs,r...->rs...", self.u, Y)
        return X.reshape((-1,) + Y.shape[1:])

    def covariance(self, Y) -> np.ndarray:
        return self.C.solve(Y)

    def fluctuation(self, V) -> np.ndarray:
        G = self.green
        return self.at**2 * G(self.average_adjoint(self.covariance(self.average(G(V)))))


def tower_level(geom, params: MultiscaleParams, j: int) -> TowerLevel:
    """Scale ``j`` of the tower, ``1 <= j <= min(k + 1, m)`` (``_check_level``);
    O(n) to build, every row a reshape of the nested frequency order."""
    _check_level(geom, j, "tower_level")
    at = params.a_tilde(geom, j, j)
    lam, u = ops.dct_frequency_classes(geom, j)
    G = RankOneRows.build(lam + params.mu_bar(geom.L, geom.k), u.copy(), at, 0)
    delta = u1 = C = None
    if j < geom.m:
        delta = at * G.Delta0 / G.den      # row c is coarse frequency c
        _, u1 = ops.dct_frequency_classes(coarse_geometry(geom, j), 1)
        C = RankOneRows.build(delta.reshape(u1.shape).copy(), u1.copy(),
                              params.a_tilde(geom, 1, j) / geom.L**2, 0)
    return TowerLevel(geometry=geom, j=j, at=at, u=u, G=G, delta=delta, u1=u1, C=C)


def _rel(X, Y) -> float:
    """Relative Frobenius (or 2-norm) distance ``|X - Y| / |Y|``."""
    return float(np.linalg.norm(X - Y) / np.linalg.norm(Y))


def _rel_from_sq(batches) -> float:
    """``|X - Y|_F / |Y|_F`` of two block-diagonal maps from the
    ``(|X - Y|_F**2, |Y|_F**2)`` of their row batches."""
    num = den = 0.0
    for x, y in batches:
        num += x
        den += y
    return float(np.sqrt(num / den))


def _frobenius_sq(D, V, r, R, n) -> np.ndarray:
    """``|diag(D_p) + B R_p B^T|_F**2`` summed over a batch of rows, one value
    a ``p``, for the frame ``B`` of ``_identity_sq`` with squared norms ``n``,
    ``(rows, 2 L' + 1)``.  ``V`` and ``r``, ``(rows, L', S)``, vanish on the
    zero members; ``D``, ``(p, rows, L', S)``, and ``R``, ``(p, rows, 2 L' +
    1, 2 L' + 1)``, are overwritten.  ``D`` on the zero members joins ``R``;
    off them it meets ``B R B^T`` only on its diagonal, ``R_ss V**2 + (R_sr +
    R_rs) V r + R_rr r**2``, and ``|B R B^T|_F**2 = sum_ij R_ij**2 |b_i|**2
    |b_j|**2``."""
    Ls = V.shape[1]
    s, last = np.arange(Ls), 2 * Ls
    R[:, :, Ls + s, Ls + s] += D[..., 0]
    D[..., 0] = 0.0
    M = (R[:, :, s, s][..., None] * V + (R[:, :, s, last] + R[:, :, last, s])[..., None] * r) * V
    M += R[:, :, last, last, None, None] * (r * r)
    M *= 2.0
    M += D
    return np.einsum("prsi,prsi->p", D, M) + np.einsum("prij,prij,ri,rj->p", R, R, n, n)


def _identity_sq(lo: RankOneRows, scale: float, Y: RankOneRows, C=None):
    """``(|X - Y^{-1}|_F**2, |Y^{-1}|_F**2)`` over one batch of real rows,
    ``X = scale (+)_s lo_{r L' + s}^{-1} + Gamma C Gamma^T``.

    ``Y`` holds the batch's rows alone, ``lo`` ``L'`` consecutive rows for
    each: the members of row ``r`` of ``Y`` are, in ``L'`` slots, those of
    rows ``r L' + s`` of ``lo``, each slot led by its zero column.  Column
    ``s`` of ``Gamma`` is ``lo_{r L' + s}^{-1} U`` in slot ``s``; ``C``,
    ``(rows, L', L')``, may be None.  By ``RankOneRows.factors`` every term
    is ``diag(w) + [wU, e_0] K [wU, e_0]^T`` and ``Gamma`` is ``g`` on each
    slot's ``[wU, e_0]``, so ``X - Y^{-1}`` is the difference ``D`` of the
    ``w`` diagonals plus ``B R B^T`` over the orthogonal frame ``B``: the
    slots of ``lo``'s ``wU``, their zero-member unit vectors, and the part
    ``r`` of ``Y``'s ``wU`` orthogonal to both (rounding where it lies in
    their span).  The two sides cancel in the ``(2 L' + 1)**2`` coefficients
    of ``R``, and only ``R`` and ``D`` are squared (``_frobenius_sq``): O(L'
    S + L'**2) a row, with no block formed and no ``sqrt(eps)`` floor.
    """
    rows, Ls = len(Y.c0), len(lo.c0) // len(Y.c0)
    V, W = lo.wU.reshape(rows, Ls, -1), Y.wU.reshape(rows, Ls, -1)
    nV = np.einsum("rsi,rsi->rs", V, V)
    alpha = np.divide(np.einsum("rsi,rsi->rs", W, V), nV, out=np.zeros_like(nV), where=nV > 0)
    r = W - alpha[..., None] * V
    r[..., 0] = 0.0
    ones = np.ones((rows, Ls + 1))
    x = np.concatenate((alpha, W[..., 0], ones[:, :1]), axis=1)     # Y's wU in the frame
    n = np.concatenate((nV, ones[:, 1:], np.einsum("rsi,rsi->r", r, r)[:, None]), axis=1)
    R = np.empty((2, rows, 2 * Ls + 1, 2 * Ls + 1))
    KY = Y.factors(np.s_[:, None])[0]       # R[1]: [x, e_0] K_Y [x, e_0]^T, e_0 at Ls
    np.einsum("r,ri,rj->rij", KY[:, 0, 0], x, x, out=R[1])
    R[1, :, Ls] += KY[:, 0, 1, None] * x
    R[1, :, :, Ls] += KY[:, 0, 1, None] * x
    R[1, :, Ls, Ls] += KY[:, 1, 1]
    np.negative(R[1], out=R[0])
    K, g = lo.factors(np.s_[:, None])
    K, g = K.reshape(rows, Ls, 2, 2), g.reshape(rows, Ls, 2)
    blocks = R[0, :, :-1, :-1].reshape(rows, 2, Ls, 2, Ls)     # a view: (wU or e_0, slot)
    s = np.arange(Ls)
    blocks[:, :, s, :, s] += scale * K.transpose(1, 0, 2, 3)
    if C is not None:
        blocks += np.einsum("rsa,rst,rtb->rasbt", g, C, g)
    D = np.empty((2,) + V.shape)
    D[1] = Y.w.reshape(V.shape)
    np.subtract(scale * lo.w.reshape(V.shape), D[1], out=D[0])
    return _frobenius_sq(D, V, r, R, n)


def _identity_row_bytes(S: int, Ls: int) -> int:
    """The working set of ``_identity_sq`` a row of ``S`` members in ``Ls``
    slots: three ``(N, N)`` coefficient arrays, ``N = 2 Ls + 1``, and seven
    member arrays, ``r``, the two of ``D`` and the four live at once in
    ``_frobenius_sq`` (``lo``'s slots ``V`` are views of its rows)."""
    return 8 * (3 * (2 * Ls + 1) ** 2 + 7 * S)


def _rows(G: RankOneRows, rb) -> RankOneRows:
    """``G``'s rows ``rb``, a slice: views of its row arrays."""
    return replace(G, **{f: getattr(G, f)[rb] for f in ("w", "wU", "Delta0", "U0", "Ubar0", "c0")})


def _scaled_pair(X: RankOneRows, Y: RankOneRows, scale: float) -> float:
    """``|scale X^{-1} - Y^{-1}|_F / |Y^{-1}|_F`` over two ``RankOneRows`` of
    one layout: ``_identity_sq`` with one slot a row."""
    rows, S = X.w.shape
    return _rel_from_sq(_identity_sq(_rows(X, rb), scale, _rows(Y, rb))
                        for rb in _batches(rows, _identity_row_bytes(S, 1)))


def _check_step(lo: TowerLevel, hi: TowerLevel, name: str):
    if hi.geometry != lo.geometry or hi.j != lo.j + 1:
        raise ValueError(f"{name}: needs the levels j and j + 1 of one cube")


def rg_step_residual(lo: TowerLevel, hi: TowerLevel) -> float:
    """Relative Frobenius residual of one renormalization-group step,
    ``G_{j+1} = G_j + C'_j``, from the levels ``j`` and ``j + 1`` of one cube.

    All three maps are block-diagonal over the level-``(j+1)`` rows.  In the
    nested frequency order row ``r`` of ``G_{j+1}`` is, member for member,
    the ``L**d`` level-``j`` rows ``r L**d + s``, the slots of ``C_j``'s row
    ``r``; both levels lead with the member ``p = kappa``, the zero column.
    The residual is taken from their factors by ``_identity_sq``, with no
    block formed: ``C'_j = at**2 b**-d (G_j Q_j*) C_j (G_j Q_j*)^T``, since
    ``Q_j G_j = b**-d (G_j Q_j*)^T``, where ``G_j Q_j*`` is one level-``j``
    solve of ``b**(d/2) u`` (``Gamma``) and ``C_j`` the ``L**d x L**d``
    block of ``lo.C``.  The ``w`` of the two levels agree off the zero
    members, so ``D`` lies on them.  O(n + rows L**(2d)).
    """
    _check_step(lo, hi, "rg_step_residual")
    (rows, S), Ls = hi.u.shape, lo.u1.shape[1]
    return _rel_from_sq(_identity_sq(_rows(lo.G, np.s_[rb.start * Ls:rb.stop * Ls]), 1.0,
                                     _rows(hi.G, rb), lo.at**2 * lo.C.inverse(rb))
                        for rb in _batches(rows, _identity_row_bytes(S, Ls)))


def _u_g_u(lo: TowerLevel, hi: TowerLevel, rb) -> np.ndarray:
    """``U^T G_{j+1} U`` in ``C_j``'s rows ``rb``, ``(rows, L**d, L**d)``, from
    the factors of ``hi.G`` with no solve.  In the nested frequency order
    column ``t`` of ``U`` is level-``j`` row ``t``'s ``u`` in slot ``t`` of
    the level-``(j+1)`` row, so ``_zero_column`` of ``v0_t = u_{0,0} [t =
    0]`` and ``A_t = sum_i u_{t,i} (w U)_{t,i}`` as ``B`` gives ``beta``
    and ``x0`` (the rows are real, ``Ubar = U``), and

        U^T G_{j+1} U = diag_s(sum_i u_{s,i}**2 w_{s,i}) - a A beta^T + e_0 (u_{0,0} x0^T).
    """
    G, Ld = _rows(hi.G, rb), lo.u1.shape[1]
    u = lo.u.reshape(-1, Ld, lo.u.shape[1])[rb]     # (rows, L**d, S)
    A = np.einsum("rsi,rsi->rs", u, G.wU.reshape(u.shape))
    v0 = u[:, :, 0] * (np.arange(Ld) == 0)
    beta, x0 = G._zero_column(np.s_[:, None], v0, A)
    UGU = (-G.a * A)[:, :, None] * beta[:, None, :]
    UGU[:, np.arange(Ld), np.arange(Ld)] += np.einsum("rsi,rsi,rsi->rs", u, u, G.w.reshape(u.shape))
    UGU[:, 0] += v0[:, :1] * x0
    return UGU


def _c_identity_sq(lo: TowerLevel, hi: TowerLevel, rb):
    """``(|X - C_j|_F**2, |C_j|_F**2)`` of the covariance identity in
    ``C_j``'s rows ``rb``, ``X = A + at**2 A U^T G_{j+1} U A``.  Both sides'
    ``L**d x L**d`` blocks are formed and subtracted, at most three at once."""
    at, u1, X = lo.at, lo.u1[rb], _u_g_u(lo, hi, rb)
    Ld, c = u1.shape[1], 1.0 / (at + lo.C.a) - 1.0 / at
    A = np.eye(Ld) / at + (c * u1)[:, :, None] * u1[:, None, :]
    X = A @ X
    X = X @ A
    X *= at**2
    X += A
    Y = lo.C.inverse(rb)
    X -= Y
    return float(np.sum(np.square(X, out=X))), float(np.sum(np.square(Y, out=Y)))


def c_identity_residual(lo: TowerLevel, hi: TowerLevel) -> float:
    """Relative Frobenius residual of the fluctuation-covariance identity
    ``C_j = A_j + at**2 A_j Q_j G_{j+1} Q_j* A_j`` on the coarse lattice, from
    the levels ``j`` and ``j + 1`` of one cube, with the closed form
    ``A_j = 1/at + (1/(at + at_1/L**2) - 1/at) P_1`` (dense reference:
    ``a_operator_closed_form`` in ``tests/oracles.py``).

    All are block-diagonal over ``C_j``'s rows, which are the level-``(j+1)``
    rows, compared one ``L**d x L**d`` block per row: ``P_1 = u_1 u_1^T`` and
    ``Q_j G_{j+1} Q_j* = U^T G_{j+1} U``, where ``U`` holds each level-``j``
    row's ``u`` in its own slot of the level-``(j+1)`` row (``_u_g_u``).  A
    batch holds at most three blocks and three ``(L**d,)`` arrays a row.
    """
    _check_step(lo, hi, "c_identity_residual")
    Ld = lo.u1.shape[1]
    return _rel_from_sq(_c_identity_sq(lo, hi, rb)
                        for rb in _batches(len(hi.u), 8 * Ld * (3 * Ld + 3)))


def rg_telescope_residual(levels) -> float:
    """Largest relative residual of the telescoped propagator formula over
    the level-``k`` class rows.

    ``levels[j - 1]`` is level ``j`` of the cube scaled by ``L**(k - j)``,
    ``tower_level(scale_geometry(geom, k - j), params, j)`` for
    ``j = 1 .. k``, so the last is level ``k`` of ``geom`` itself, the
    left-hand side.  The right-hand side sums the rescaled fluctuation
    kernels ``lam_j**-2 C'_j(lam_j Omega)`` over ``j = 1 .. k-1`` plus the
    rescaled first-scale propagator; value vectors transport across scales
    unchanged because rescaled lattices share the index set.  The sum is
    empty for k=1.  Every term is block-diagonal over the level-``k`` rows,
    consecutive runs of ``S`` coefficients in the nested frequency order:
    both sides are applied to two probes, ``1`` and ``(-1)**i (1 + i) / S``
    on member ``i`` of each row, and the residual is the largest
    ``|lhs_r - rhs_r| / |lhs_r|`` over rows ``r`` and probes.  The probes go
    in batches of columns, counted at seven n-vectors a column (5.6 measured
    at d = 2, 6.7 at d = 1): ``lhs``, ``rhs``, two temporaries of a term or
    a norm, the solve's rank-one term and the coarse rows' arrays.
    """
    if not levels:     # the levels 1 .. k of a cube with k = 0
        raise GeometryError("rg_telescope_residual: no levels; a cube with k = 0 carries none")
    top = levels[-1]
    geom, k = top.geometry, top.geometry.k
    if [(lv.geometry, lv.j) for lv in levels] != [(scale_geometry(geom, k - j), j)
                                                   for j in range(1, k + 1)]:
        raise ValueError("rg_telescope_residual: levels[j - 1] must be level j "
                         "of the cube scaled by L**(k - j), j = 1 .. k")
    rows, S = top.u.shape
    i = np.arange(S)
    probes = np.tile(np.column_stack((np.ones(S), (-1.0) ** i * (1 + i) / S)), (rows, 1))
    L, worst = float(geom.L), 0.0
    for cb in _batches(probes.shape[1], 7 * 8 * geom.site_count):
        V = probes[:, cb]
        lhs = top.green(V)
        rhs = L ** (2 - 2 * k) * levels[0].green(V)
        for j, level in enumerate(levels[:-1], start=1):
            rhs += L ** (2 * (j - k)) * level.fluctuation(V)
        rhs -= lhs
        num, den = (np.linalg.norm(X.reshape(rows, S, -1), axis=1) for X in (rhs, lhs))
        worst = max(worst, float(np.max(num / den)))
    return worst


def scaling_residuals(xi: TowerLevel, sc: TowerLevel) -> dict[str, float]:
    """Numerical residuals of the scaling covariances (all exact identities),
    from level ``j`` of a cube and level ``j`` of the same cube scaled by
    ``lam = L**(k - j)``, ``scale_geometry(geom, k - j)``; needs ``j < m``.

    Keys: ``de_scaling`` (Laplacian), ``q_scaling`` (averaging),
    ``g_scaling`` (Green function), ``dgc_delta`` and ``dgc_c`` (effective
    form and fluctuation covariance across scales).

    Each compares value maps up to a power of ``lam``.  That relabel is
    exact: the scaled lattice shares the index set, so the scaling map ``S``
    has value matrix ``lam**(-d/2) I``, ``S*`` has ``lam**(d/2) I`` and
    ``S* X S`` has that of ``X``.  In the DCT basis ``-Lap`` and ``Delta_j``
    are diagonal and ``Q_j`` is ``b**(-d/2) u``.  ``G_j`` and ``C_j``, the
    two levels sharing their row layout, are compared from their rows'
    factors (``_scaled_pair``) in O(n): the diagonal difference ``lam**-2
    w_X - w_Y`` (``lam**2`` for ``C_j``) is taken exactly, and the rank-one
    parts in a three-vector frame a row.
    """
    geom, j = xi.geometry, xi.j
    ell = geom.k - j
    if sc.j != j or sc.geometry != scale_geometry(geom, ell) or xi.C is None:
        raise ValueError("scaling_residuals: needs level j < m of a cube and of "
                         "that cube scaled by L**(k - j)")
    if ell == 0:    # lam = 1 and the same cube: each residual compares a map with itself
        return dict.fromkeys(("de_scaling", "q_scaling", "g_scaling", "dgc_delta", "dgc_c"), 0.0)
    lam = float(geom.L) ** ell
    lap_xi, lap_sc = (ops.dct_class_eigenvalues(g, j) for g in (geom, sc.geometry))
    b_half = float(geom.L) ** (-j * geom.d / 2)
    return {
        "de_scaling": _rel(lam**2 * lap_sc, lap_xi),
        "q_scaling": _rel(b_half * sc.u, b_half * xi.u),
        "g_scaling": _scaled_pair(sc.G, xi.G, lam**-2),
        "dgc_delta": _rel(lam**-2 * xi.delta, sc.delta),
        "dgc_c": _scaled_pair(xi.C, sc.C, lam**2),
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
