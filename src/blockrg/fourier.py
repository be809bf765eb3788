"""Free-lattice Green functions through Fourier multipliers on the torus.

On the infinite lattice ``(L**-k) Z^d`` the defining operator
``-Lap + mu_bar_k + a_k Q_k* Q_k`` acts in Fourier space, at each base
momentum ``p`` of the small torus ``[-pi, pi)^d``, as a finite matrix over the
``S = (L**k)^d`` momentum shifts ``Z_l = p + 2 pi l``.  That matrix is
diagonal plus rank one,

    M = diag(Delta) + a_k U Ubar^T,    U_l = u(Z_l),  Ubar_l = u(-Z_l),

with ``Delta`` the Laplacian symbol and ``u`` the averaging symbol

    u(z) = eta^d prod_nu (1 - exp(-i z_nu)) / (1 - exp(-i z_nu eta)).

Every shift system is therefore solved in O(S) by the Sherman-Morrison
formula, never stored or inverted as an ``S x S`` matrix: its zero column
at every node is a ``multiscale.RankOneRows`` (the formula is
``_zero_column``), the type of the DCT-class tower's rows too.  The formula
is used multiplied through by ``Delta_0``, the symbol of the zero shift, and
the zero-shift term is split off the diagonal sum.  What remains divides
only by the nonzero-shift symbols and by ``Delta_0 (1 + a_k sum_{l!=0} Ubar_l U_l /
Delta_l) + a_k U_0 Ubar_0``, which is ``det M`` over those symbols and so
positive at every real momentum.  The massless node ``p = 0``, where
``Delta_0 = 0``, thus goes through the same formula as every other node and
no term is ever formed as 0/0.  Kernels are trapezoid quadratures of these
solves; the solve's pieces are contracted over the shifts once per residue
class modulo the unit lattice and summed over the nodes by one inverse FFT
per pair of classes, which serves every offset (see ``KernelPlan.sums``).
What a kernel reads on every grid (the lattice check, the classes, shift
phases, offsets and signs) is its ``KernelPlan``, made once per batch of
positions; ``evaluate_plans`` evaluates several plans on one grid from one
build of the symbols and node blocks, and ``converge_plans`` drives them up
one ladder of grid doublings, each from its own start grid to its own first
accepted doubling.  The trapezoid rule on ``M0`` base nodes per axis
converges like ``exp(-q* M0)``, ``q*`` the width of the strip where the
shift systems stay regular (L. N. Trefethen and J. A. C. Weideman, SIAM Rev.
56, 2014), so a doubling that changes the values by ``delta`` leaves the
finer grid about ``delta exp(-q* M0)`` off: the ladder reads a bracket of
``q*`` off one scan of the 1-d shift row (``q_star_bracket``) and accepts
the finer grid there (``_ladder``), where a ladder blind to ``q*`` spends
one more doubling.  ``M`` itself is applied from its symbols, with no
division (``free_symbol_apply``).

Every per-axis symbol has ``conj f(Z) = f(-conj Z)`` (``sin^2`` and ``sinc``
are even with real coefficients, and ``conj e^{-icZ} = e^{-ic(-conj Z)}``),
and so have the class phases.  ``z -> -conj z`` sends ``p + i q`` to
``-p + i q`` on the same contour and the shift ``l`` to ``-l`` (L odd), so
on every contour the kernels' node arrays are Hermitian in the node: half
the nodes are solved, ``irfftn`` sums them, and the kernels are real.  The
strip integrand ``H = M^{-1} U`` is ``ShiftSystem.solve_u`` at complex
nodes ``p + i q``.

Every symbol on the torus is a Kronecker object (C. F. Van Loan, "The
ubiquitous Kronecker product", J. Comput. Appl. Math. 123, 2000): ``Delta``
is a sum over the axes of per-axis tables, ``U``, ``Ubar`` and the shift
phases are products, and only ``w = 1/Delta`` is not separable.  One
builder, ``AxisSymbols``, makes the ``(nodes_a, L**k)`` tables of every
axis at per-axis nodes, once per grid, cached nowhere, and they are the
torus's one representation: no path forms the Kronecker expansion of ``U``
or ``Ubar``.  The kernels read them per axis: each node block forms one
``(nodes, S)`` array, ``w``, real on the real contour, and contracts it
against per-axis factor tables, the first axis by one batched GEMM and each
further axis slice by slice (``_contract``), so the kernel path forms no
``(nodes, S)`` complex table; the rows' zero column finishes the
contractions (``AxisSymbols.zero_column``).  ``ShiftSystem`` is the same
tables and zero column and one ``w``, formed once, from which its ``c0`` is
contracted and its solves read: the solve
(``free_apply_ghat``) applies ``Ubar^T`` and ``U`` axis by axis
(``_shift_sum``, ``_shift_spread``), the strip forms ``H = Delta_0 w U /
den`` block by block from ``weights``, and ``q_star_bracket`` reads its
``den``.  ``bracket``, ``free_symbol_apply`` and ``qkqk_fourier`` work per
axis too.  A kernel keeps only its contracted (classes, nodes) legs, and
only through its transforms.  Node blocks and class slices are cut by the
package's one byte-budget slicer, ``operators._batches``, within
``operators.BLOCK_BYTES``.

Symbols take complex arguments everywhere, which is what operational
analyticity checks (contour shifts) and the strip bounds rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import operators as ops
from .lattice import FreePatch, GeometryError, _axis_outer, grid_points
from .multiscale import MultiscaleParams, RankOneRows

POLE_GUARD = 1e-12
DENOMINATOR_FLOOR = 0.1
MAX_DOUBLINGS = 6
STRIP_Q_MAX = 0.05                 # imaginary half-width of the sampled analyticity strip
STRIP_SCAN = np.logspace(-2.0, 1.0, 64)     # q nodes of q_star_bracket, ratio 1.116 apart
LADDER_THETA = 0.6                 # share of q_lo at which the ladder reads the error ratio


class PoleProximityError(ValueError):
    """Evaluation requested too close to a genuine (non-removable) pole."""


class StripViolationError(ValueError):
    """The certified analyticity strip was left: denominator below floor."""


class StripWidthError(GeometryError, StripViolationError):
    """A contour ``q`` at or past ``q_hi`` of ``q_star_bracket``: the strip
    holds a zero of ``det M`` whichever nodes are sampled, so the cube's
    parameters are refused by name (``_check_strip_width``)."""


class GridConvergenceError(RuntimeError):
    """Torus quadrature failed to stabilize under grid doubling."""


def shift_vectors(d: int, L: int, k: int) -> np.ndarray:
    """Integer momentum shifts ``l``, shape ``((L**k)**d, d)``, row-major."""
    Lk = L**k
    return grid_points([np.arange(-(Lk - 1) // 2, (Lk - 1) // 2 + 1, dtype=float)] * d)


def shifted_momenta(z, shifts: np.ndarray) -> np.ndarray:
    """``Z = z + 2 pi l`` for every shift row ``l``: ``(..., d) -> (..., S, d)``."""
    return np.asarray(z)[..., None, :] + 2.0 * np.pi * shifts


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on the momentum torus ``[-pi/eta, pi/eta)^d``.

    ``M`` samples per axis, a multiple of ``L**k`` so that the big-torus grid
    factors exactly into base nodes on ``[-pi, pi)`` times the shift set.
    """

    d: int
    L: int
    k: int
    M: int

    def __post_init__(self):
        Lk = self.L**self.k
        if self.M % Lk != 0:
            raise ValueError(f"M={self.M} must be a multiple of L**k={Lk}")
        if self.M < 4 * Lk:
            raise ValueError(f"M={self.M} below minimum 4*L**k={4 * Lk}")

    @property
    def eta(self) -> float:
        return float(self.L) ** (-self.k)

    @property
    def shifts_per_axis(self) -> int:
        return self.L**self.k

    @property
    def base_count(self) -> int:
        return self.M // self.shifts_per_axis

    def base_nodes_1d(self) -> np.ndarray:
        M0 = self.base_count
        return -np.pi + 2.0 * np.pi * np.arange(M0) / M0

    def full_nodes_1d(self) -> np.ndarray:
        """Big-torus momenta of one axis; index ``s * base_count + b`` is
        base node ``b`` moved by shift ``s``, the big-torus sample layout."""
        Z = shifted_momenta(self.base_nodes_1d()[:, None], shift_vectors(1, self.L, self.k))
        return Z[..., 0].T.ravel()

    def refined(self) -> "TorusGrid":
        return TorusGrid(self.d, self.L, self.k, 2 * self.M)


def default_grid(d: int, L: int, k: int, reach: float = 0.0) -> TorusGrid:
    """Start grid for separations up to ``reach`` per axis: base count the
    smallest ``8 * 2**j`` above ``2 * reach``.  The trapezoid rule with
    ``M0`` base nodes per axis is the kernel of the lattice of period ``M0``,
    so its error is the wrap-around sum ``sum_{n != 0} G(x + n M0)``."""
    M0 = 8
    while M0 <= 2.0 * reach:
        M0 *= 2
    return TorusGrid(d=d, L=L, k=k, M=M0 * L**k)


def _sinc(w):
    """sin(w)/w for complex arrays, 1 at 0 (``np.sinc``)."""
    return np.sinc(np.asarray(w, dtype=complex) / np.pi)


def u_axis(z, eta: float):
    """One axis factor of the averaging symbol, ``eta (1-e^{-iz})/(1-e^{-iz eta})``.

    Evaluated as ``exp(-i(1-eta)z/2) sinc(z/2)/sinc(z eta/2)``, which is
    stable at the removable point z = 0 and exact at the genuine zeros
    ``z = 2 pi l`` (l not a multiple of 1/eta).
    """
    z = np.asarray(z, dtype=complex)
    return np.exp(-0.5j * (1.0 - eta) * z) * _sinc(z / 2.0) / _sinc(z * eta / 2.0)


def bracket(z, L: int, k: int, mu0: float):
    """The shift sum ``<<u, u_Delta>>(z) = sum_l u(z+2pi l) ubar(z+2pi l) / Delta(z+2pi l)``.

    Real and nonnegative at real momenta; periodic with period ``2 pi`` in
    every component.  The symbols are ``AxisSymbols.build``'s per-axis
    tables at the points' components: ``Delta`` is the outer sum of ``lap``
    and ``u ubar`` the outer product of ``c0_factors`` over the axes, point
    by point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    sym = AxisSymbols.build(list(z.reshape(-1, z.shape[-1]).T), L, k, MultiscaleParams(mu0=mu0))
    uu = [f[..., 0] for f in sym.c0_factors()]
    Delta, terms = sym.lap[0], uu[0]
    for a in range(1, z.shape[-1]):
        axis = (slice(None),) + (None,) * a + (slice(None),)
        Delta, terms = Delta[..., None] + sym.lap[a][axis], terms[..., None] * uu[a][axis]
    if np.any(np.abs(Delta) * float(L) ** (-2 * k) / 4.0 < POLE_GUARD):
        raise PoleProximityError("bracket evaluated at a pole of 1/Delta")
    return np.sum((terms / Delta).reshape(z.shape[:-1] + (-1,)), axis=-1)


@dataclass(frozen=True)
class FactoredStack:
    """``n`` shift matrices of size ``S x S`` as O(n S) factor arrays, counted by ``nbytes``."""

    factors: tuple

    @property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.factors)


@dataclass(frozen=True)
class AxisSymbols:
    """The torus symbols per axis at per-axis momenta: lists ``lap`` (the
    mass on axis 0), ``u`` and ``ubar`` of ``(nodes_a, L**k)`` tables on
    each axis's (node, shift) grid, and ``a = a_k``.  ``lap`` is real at
    real nodes, where ``ubar = conj u`` (module docstring).  At the
    row-major products of the momenta, ``Delta`` is the outer sum of ``lap``
    over the axes and ``U`` and ``Ubar`` the outer products of ``u`` and
    ``ubar``, Kronecker objects; only ``w = 1/Delta`` is not.  Node blocks
    are runs of consecutive first-axis nodes (``blocks``)."""

    lap: list
    u: list
    ubar: list
    a: float

    @classmethod
    def build(cls, axis_nodes, L: int, k: int, params: MultiscaleParams) -> "AxisSymbols":
        """The symbols at the complex per-axis momenta ``axis_nodes``; the one
        builder of the shift systems' and ``bracket``'s symbols."""
        eta, shifts = float(L) ** (-k), shift_vectors(1, L, k)
        Z = [shifted_momenta(nodes[:, None], shifts)[..., 0] for nodes in axis_nodes]
        real = not any(np.any(nodes.imag) for nodes in axis_nodes)
        lap = [np.sin(z * eta / 2.0) ** 2 for z in Z]
        lap = [(4.0 / eta**2) * (s.real if real else s) for s in lap]
        lap[0] = lap[0] + params.mu_bar(L, k)
        u = [u_axis(z, eta) for z in Z]
        return cls(lap, u, [t.conj() for t in u] if real else [u_axis(-z, eta) for z in Z],
                   params.a_j(L, max(k, 1)))   # k = 0: the bare coefficient a

    @property
    def real(self) -> bool:
        return not np.iscomplexobj(self.lap[0])

    def blocks(self, columns: int = 1):
        """Slices of consecutive first-axis nodes, in node order: ``_batches``
        of as many as keep one complex ``(nodes, S)`` array, and the first
        stage ``(nodes, S / L**k, columns)`` of a ``_contract`` of
        ``columns`` columns, within ``operators.BLOCK_BYTES``, and at least one."""
        d, Lk = len(self.lap), self.lap[0].shape[1]
        row_bytes = 16 * math.prod(len(t) for t in self.lap[1:]) * Lk ** (d - 1) * max(Lk, columns)
        return ops._batches(len(self.lap[0]), row_bytes)

    def rows(self, first) -> "AxisSymbols":
        """The symbols at the first-axis nodes ``first`` (a slice)."""
        return AxisSymbols(*([t[0][first], *t[1:]] for t in (self.lap, self.u, self.ubar)), self.a)

    def weights(self, first) -> np.ndarray:
        """``w = 1/Delta`` at the first-axis nodes ``first``, 0 on the zero
        column, laid out ``(n_0, s_1, n_1, ..., s_{d-1}, n_{d-1}, s_0)``
        (``_contract``), real at real nodes.  ``Delta`` is set to 1 on the
        zero column before the reciprocal and ``w`` to 0 there after it, so
        no 0/0 is formed at the massless node."""
        lap = self.rows(first).lap
        d, z = len(lap), lap[0].shape[1] // 2
        Delta = sum(_axis_layout(t, a, d) for a, t in enumerate(lap))     # a new array
        zero = (slice(None),) + (z, slice(None)) * (d - 1) + (z,)
        Delta[zero] = 1.0
        w = np.divide(1.0, Delta, out=Delta)
        w[zero] = 0.0
        return w

    def zero_column(self, c0) -> RankOneRows:
        """The rows' zero column at every node, from their ``c0``: the
        ``RankOneRows`` whose ``_zero_column`` and ``den`` finish a solve
        contracted block by block from ``weights``.  Its ``(nodes, S)``
        arrays are never formed, and are None."""
        z = self.lap[0].shape[1] // 2
        col = np.s_[:, z:z + 1]
        Delta0, U0, Ubar0 = (_axis_outer(op, [t[col] for t in f]).ravel() for op, f in
                             ((np.add, self.lap), (np.multiply, self.u), (np.multiply, self.ubar)))
        return RankOneRows(self.a, math.prod(t.shape[1] for t in self.u) // 2, None, None,
                           Delta0, U0, Ubar0, c0)

    def contract(self, factors, columns) -> list:
        """``_contract`` of ``w`` against each list of per-axis ``factors`` at
        every node, split into whole-grid ``(c, nodes)`` parts, ``c`` in
        ``columns``, a list of parts per list of factors.  Each list is one
        ``_contract`` per node block, of a shape that no other list changes,
        and each block's ``w`` is built once for all."""
        n = math.prod(len(t) for t in self.lap)
        X = [[np.empty((c, n), np.result_type(f[0], self.lap[0])) for c in cols]
             for f, cols in zip(factors, columns)]
        per_row = n // len(self.lap[0])
        for first in self.blocks(max(map(sum, columns))):
            w = self.weights(first)
            nodes = slice(first.start * per_row, first.stop * per_row)
            for f, parts in zip(factors, X):
                out, lo = _contract(w, [f[0][first], *f[1:]]).T, 0
                for part in parts:
                    part[:, nodes] = out[lo:lo + len(part)]
                    lo += len(part)
            del w, out      # before the next block is built
        return X

    def c0_factors(self) -> list:
        """The per-axis factors ``u ubar`` of ``c0 = 1 + a_k sum_l w_l U_l Ubar_l``,
        ``(nodes_a, L**k, 1)``, real at real nodes."""
        return [(t.real**2 + t.imag**2 if self.real else t * tb)[..., None]
                for t, tb in zip(self.u, self.ubar)]


@dataclass(frozen=True)
class ShiftSystem:
    """Per-node shift matrices ``M = diag(Delta) + a_k U Ubar^T`` of the
    defining operator in per-axis form: the symbols ``sym`` at the
    row-major products of their per-axis nodes, their weights ``w``
    (``AxisSymbols.weights``) and ``rows``, the zero column at every node
    (``AxisSymbols.zero_column``), with ``c0`` contracted from that ``w``.
    ``rows.den`` is positive at real momenta.  ``Mmat`` holds the factors
    that fix ``M``, the per-axis tables and the ``(n,)`` zero column, and
    ``Minv`` the two more the solves read, ``w`` and ``c0``: their
    ``nbytes`` count every array the system stores, each once.  ``w`` is
    the one ``(n, S)`` array, formed once for the build and its solves."""

    sym: AxisSymbols
    w: np.ndarray
    rows: RankOneRows

    @classmethod
    def build(cls, sym: AxisSymbols) -> "ShiftSystem":
        w = sym.weights(slice(None))
        c0 = _contract(w, sym.c0_factors())[:, 0]
        return cls(sym, w, sym.zero_column(1.0 + sym.a * c0))

    @property
    def Mmat(self) -> FactoredStack:
        r = self.rows
        return FactoredStack((*self.sym.lap, *self.sym.u, *self.sym.ubar, r.Delta0, r.U0, r.Ubar0))

    @property
    def Minv(self) -> FactoredStack:
        return FactoredStack((self.w, self.rows.c0))

    def _layout(self):
        """``w`` as a view in the layout ``(n_0, ..., n_{d-1}, s_0, ...,
        s_{d-1})`` of ``_shift_view`` (``weights`` lays it out ``(n_0, s_1,
        n_1, ..., s_{d-1}, n_{d-1}, s_0)``), the node shape and the index
        of the zero column in that layout."""
        d = self.w.ndim // 2
        w = self.w.transpose(*range(0, 2 * d, 2), 2 * d - 1, *range(1, 2 * d - 1, 2))
        return w, w.shape[:d], (Ellipsis,) + (w.shape[-1] // 2,) * d

    def solve(self, v) -> np.ndarray:
        """``M^{-1} v`` at every node, ``v`` laid out ``(n_0, ..., n_{d-1},
        s_0, ..., s_{d-1})`` (``_shift_view``): ``w (v - a_k U beta)`` off
        the zero column and ``x_0`` on it, from ``_zero_column`` of ``v_0``
        and ``B = Ubar^T (w v)``.  ``Ubar^T`` and ``U`` are applied axis by
        axis (``_shift_sum``, ``_shift_spread``)."""
        w, nodes, zero = self._layout()
        beta, x0 = self.rows._zero_column(slice(None), v[zero].ravel(),
                                          _shift_sum(w * v, self.sym.ubar).ravel())
        x = _shift_spread(self.sym.a * beta.reshape(nodes), self.sym.u)
        np.subtract(v, x, out=x)
        x *= w
        x[zero] = x0.reshape(nodes)
        return x

    def solve_u(self) -> np.ndarray:
        """``M^{-1} U`` at every node, ``(n, S)``, the shifts row-major: the
        solve of ``U``, where ``B = (c0 - 1) / a`` cancels and leaves
        ``Delta_0 w U / den`` off the zero column and ``U_0 / den`` on it."""
        (w, nodes, zero), rows = self._layout(), self.rows
        H = _shift_spread((rows.Delta0 / rows.den).reshape(nodes), self.sym.u)
        H *= w
        H[zero] = (rows.U0 / rows.den).reshape(nodes)
        return H.reshape(len(rows.c0), -1)


def _axis_layout(table, a: int, d: int) -> np.ndarray:
    """The ``(n_a, L**k)`` table of axis ``a`` shaped to broadcast into the
    layout ``(n_0, s_1, n_1, ..., s_{d-1}, n_{d-1}, s_0)`` of ``w``: axis 0
    keeps its nodes first and its shifts last, every further axis sits as
    ``(s_a, n_a)`` in between."""
    shape = [1] * (2 * d)
    if a == 0:
        shape[0], shape[-1] = table.shape
        return table.reshape(shape)
    shape[2 * a - 1], shape[2 * a] = table.shape[::-1]
    return np.ascontiguousarray(table.T).reshape(shape)     # so the sum is C-ordered


def _contract(w, factors) -> np.ndarray:
    """``sum_s w[n, s] prod_a factors[a][n_a, s_a, c]`` at every node ``n``
    of a block, ``(nodes, C)`` with the nodes row-major: ``w`` laid out
    ``(n_0, s_1, n_1, ..., s_{d-1}, n_{d-1}, s_0)``, ``factors[a]`` of
    shape ``(n_a, L**k, C)``.  The first axis, whose nodes a block slices,
    is one batched GEMM over them (a real ``w`` against the interleaved real
    and imaginary parts of a complex factor, so ``w`` is never cast), and
    each further axis is accumulated over its ``L**k`` slices, each a
    contiguous run of its nodes and columns."""
    d, n_0, Lk = w.ndim // 2, len(w), w.shape[-1]
    W = w.reshape(n_0, -1, Lk)
    F = factors[0]
    if np.iscomplexobj(F) and not np.iscomplexobj(w):
        X = np.matmul(W, F.view(np.float64)).view(complex)
    else:
        X = np.matmul(W, F)
    X = X.reshape(w.shape[:-1] + X.shape[-1:])      # (n_0, s_1, n_1, ..., s_{d-1}, n_{d-1}, C)
    for a in reversed(range(1, d)):     # s_a is X's axis 2a - 1, its nodes n_a next
        F = np.moveaxis(factors[a], 1, 0)
        F = np.ascontiguousarray(F).reshape(F.shape[:2] + (1,) * (d - 1 - a) + F.shape[2:])
        at = (slice(None),) * (2 * a - 1)
        acc = X[at + (0,)] * F[0]
        for s in range(1, Lk):
            acc += X[at + (s,)] * F[s]
        X = acc
    return X.reshape(-1, X.shape[-1])


def _axis_nodes(grid: TorusGrid, shift_q=None) -> list:
    """The base nodes of ``grid`` per axis, moved to ``p + i shift_q``."""
    q = np.zeros(grid.d) if shift_q is None else np.asarray(shift_q, dtype=float)
    return list(grid.base_nodes_1d()[None, :] + 1j * q[:, None])


def build_shift_system(grid: TorusGrid, params: MultiscaleParams,
                       shift_q=None) -> ShiftSystem:
    """The shift system at the base nodes of ``grid``, moved to ``p + i shift_q``."""
    return ShiftSystem.build(AxisSymbols.build(_axis_nodes(grid, shift_q), grid.L, grid.k,
                                               params))


def _shift_phases(grid: TorusGrid, residues) -> np.ndarray:
    """``exp(2 pi i l_a rho_a / Lk)`` for every residue row ``rho`` and, per
    axis ``a``, every shift ``l_a`` of one axis, ``(d, L**k, len(residues))``:
    over the axes their product is the phase ``exp(2 pi i l . rho / Lk)`` of
    the shift vector ``l``."""
    ell = shift_vectors(1, grid.L, grid.k)[:, 0]
    return np.exp(2j * np.pi / grid.shifts_per_axis * ell[:, None] * residues.T[:, None, :])


def _class_phases(R, axes, eta: float) -> np.ndarray:
    """``exp(i eta R . z)`` for every row of ``R`` and every row-major node
    ``z`` spanned by ``axes``, (len(R), nodes): the product over the axes of
    ``(len(R), nodes_a)`` tables."""
    out = np.ones((len(R), 1), dtype=complex)
    for r, z in zip(np.asarray(R, dtype=float).T, axes):
        out = (out[:, :, None] * np.exp(1j * eta * np.outer(r, z))[:, None, :]).reshape(
            len(R), out.shape[1] * len(z))
    return out


def _classes(idx, Lk: int):
    """Residue classes modulo ``Lk`` of the integer rows ``idx`` (last axis the
    coordinates): the distinct classes in lexicographic order, (n classes, d),
    and the index of each row's class, shape ``idx.shape[:-1]``.  Classes are
    coded as integers, so one 1-d ``np.unique`` sorts them."""
    shape = (Lk,) * idx.shape[-1]
    codes, where = np.unique(np.ravel_multi_index(tuple(np.moveaxis(idx % Lk, -1, 0)), shape),
                             return_inverse=True)
    return np.stack(np.unravel_index(codes, shape), axis=-1), where.reshape(idx.shape[:-1])


class KernelPlan:
    """The grid-free part of a free kernel between the position rows ``xs``
    and ``ys`` (in ``eta Z^d``), for every grid of ``grid``'s ``(d, L, k)``:
    the lattice check, the residue classes ``Rx``, ``Ry`` modulo the unit
    lattice and each row's class ``cx``, ``cy``, the unit offsets ``t`` and
    their signs.  A subclass adds its per-axis shift phases
    (``_shift_phases``) and from them, on each grid, its per-axis factor
    tables (``factors(sym)``, parts of ``columns`` columns), which
    ``evaluate_plans`` contracts against ``w`` block by block; it forms its
    legs, (classes, nodes) arrays, from its contracted ``(columns, nodes)``
    parts and the rows' zero column (``legs(rows, *parts)``), and the node
    array of a slice of x classes from the legs (``node_array(legs,
    block)``, (x classes, y classes, nodes)).  ``grid`` is the plan's start
    grid in ``converge_plans``."""

    def __init__(self, xs, ys, grid: TorusGrid):
        Lk = grid.shifts_per_axis
        pos = [np.atleast_2d(np.asarray(p, dtype=float)) for p in (xs, ys)]
        ix, iy = (np.rint(p / grid.eta).astype(np.int64) for p in pos)
        if any(np.any(np.abs(i * grid.eta - p) > 1e-9 * (1.0 + np.abs(p)))
               for i, p in zip((ix, iy), pos)):
            raise ValueError(f"kernel positions must lie on the lattice {grid.eta:.6g} Z^d")
        self.grid = grid
        (self.Rx, self.cx), (self.Ry, self.cy) = _classes(ix, Lk), _classes(iy, Lk)
        self.t = (ix // Lk)[:, None, :] - (iy // Lk)[None, :, :]
        self.sign = 1 - 2 * (self.t.sum(axis=-1) % 2)

    def sums(self, grid: TorusGrid, q, axes, legs) -> np.ndarray:
        """``(1/n) sum_p e^{i p (x - y)} F(p)`` over the ``n`` base nodes ``p``
        of ``grid`` moved to ``p + i q`` for all pairs of position rows, from
        the plan's ``legs`` at the nodes spanned by ``axes``.

        With ``x - y = L**k t + (rho_x - rho_y)`` and ``p = -pi + 2 pi b / M0
        + i q`` per axis, the sum is ``(-1)^{sum t} e^{-q t}`` times the
        inverse DFT over ``b`` of ``e^{i eta p (rho_x - rho_y)} F``, read at
        ``t mod M0``: one transform per pair of classes serves every offset.
        The class phases are products of per-axis tables
        (``_class_phases``).  The x classes are taken in slices whose complex
        batch stays within ``operators.BLOCK_BYTES``, at least one class per
        slice.  The transformed array is Hermitian in ``b`` on every contour
        (module docstring; ``b = 0`` pairs with ``b = M0``): ``axes`` holds
        only the last-axis nodes ``b <= M0/2``, and ``irfftn`` returns a real
        kernel."""
        d, M0 = grid.d, grid.base_count
        cx, cy, t = self.cx, self.cy, self.t
        phase_x = _class_phases(self.Rx, axes, grid.eta)
        phase_y = _class_phases(-self.Ry, axes, grid.eta)
        out = np.empty(t.shape[:2])
        shape, nodes = tuple(map(len, axes)), tuple(range(2, 2 + d))
        for block in ops._batches(len(self.Rx), 16 * phase_y.size):
            A = self.node_array(legs, block) * phase_x[block, None] * phase_y
            A = A.reshape(A.shape[:2] + shape)
            K = np.fft.irfftn(A, s=(M0,) * d, axes=nodes)
            rows = np.flatnonzero((cx >= block.start) & (cx < block.stop))
            out[rows] = K[(cx[rows, None] - block.start, cy)
                          + tuple(np.moveaxis(t[rows] % M0, -1, 0))]
        out *= self.sign
        out *= np.exp(-(t @ q))
        return out


class GPlan(KernelPlan):
    """The plan of ``G_k``: legs ``D``, ``a_k H``, ``beta`` and ``x0``, node
    array ``D - a_k H beta + x0`` (``free_kernel_g``).  ``D``, ``H`` and
    ``K`` are one contraction, of ``w`` against the per-axis factors
    ``e_{x-y}``, ``u e_x`` and ``ubar e_{-y}`` side by side."""

    def __init__(self, xs, ys, grid: TorusGrid):
        super().__init__(xs, ys, grid)
        diff, self.m = _classes(self.Rx[:, None, :] - self.Ry[None, :, :], grid.shifts_per_axis)
        self.Ed, self.Ex, self.Ey = (_shift_phases(grid, R) for R in (diff, self.Rx, -self.Ry))
        self.columns = (len(diff), len(self.Rx), len(self.Ry))

    def factors(self, sym: AxisSymbols) -> list:
        return [np.concatenate((np.broadcast_to(ed, (len(u),) + ed.shape),
                                u[..., None] * ex, ubar[..., None] * ey), axis=-1)
                for u, ubar, ed, ex, ey in zip(sym.u, sym.ubar, self.Ed, self.Ex, self.Ey)]

    def legs(self, rows: RankOneRows, D, H, K) -> tuple:
        H *= rows.a
        return D, H, *rows._zero_column(np.s_[None, :], 1, K)

    def node_array(self, legs, block) -> np.ndarray:
        D, aH, beta, x0 = legs
        return D[self.m[block]] - aH[block, None] * beta + x0


class GQPlan(KernelPlan):
    """The plan of ``G_k Q_k*``: one leg, ``ShiftSystem.solve_u`` contracted
    against ``e_x`` (``free_kernel_gq``): ``(Delta_0 H + U_0) / den``, with
    ``H`` the contraction of ``w`` against ``u e_x`` (``e_x`` is 1 on the
    zero shift)."""

    def __init__(self, xs, ys, grid: TorusGrid):
        super().__init__(xs, ys, grid)
        self.Ex = _shift_phases(grid, self.Rx)
        self.columns = (len(self.Rx),)

    def factors(self, sym: AxisSymbols) -> list:
        return [u[..., None] * ex for u, ex in zip(sym.u, self.Ex)]

    def legs(self, rows: RankOneRows, H) -> tuple:
        H *= rows.Delta0
        H += rows.U0
        H /= rows.den
        return (H,)

    def node_array(self, legs, block) -> np.ndarray:
        return legs[0][block, None]


def _plan_legs(plans, sym: AxisSymbols) -> list:
    """Every plan's legs at the nodes of ``sym``: its factor tables, built
    once, beside those of ``c0``, contracted block by block against ``w``
    (``AxisSymbols.contract``, each block's ``w`` built once for all), and
    finished with the rows' ``zero_column``.  A plan's contraction is its
    own, so its legs do not depend on the plans beside it."""
    c0 = sym.c0_factors()
    X = sym.contract([[np.concatenate(f, axis=-1) for f in zip(c0, plan.factors(sym))]
                      for plan in plans], [(1, *plan.columns) for plan in plans])
    return [plan.legs(sym.zero_column(1.0 + sym.a * c[0]), *parts)
            for plan, (c, *parts) in zip(plans, X)]


def evaluate_plans(plans, grid: TorusGrid, params: MultiscaleParams, shift_q=None) -> list:
    """The kernel of every plan on ``grid``, its base nodes moved to ``p + i
    shift_q``: the per-axis symbols are built once, at the nodes ``b <=
    M0/2`` of the last axis, and ``_plan_legs`` makes every plan's legs
    from them; then each plan's sums run, the plan with the smallest legs
    first, and its legs are dropped after them."""
    q = np.zeros(grid.d) if shift_q is None else np.asarray(shift_q, dtype=float)
    axes = _axis_nodes(grid, q)
    axes[-1] = axes[-1][:grid.base_count // 2 + 1]
    legs = _plan_legs(plans, AxisSymbols.build(axes, grid.L, grid.k, params))
    out = [None] * len(plans)
    for i in sorted(range(len(plans)), key=lambda i: sum(leg.nbytes for leg in legs[i])):
        out[i] = plans[i].sums(grid, q, axes, legs[i])
        legs[i] = None
    return out


def free_kernel_g(xs, ys, grid: TorusGrid, params: MultiscaleParams,
                  shift_q=None) -> np.ndarray:
    """Kernel ``G_k(x, y)`` of the free-lattice propagator, shape ``(nx, ny)``.

    ``xs`` and ``ys`` are position arrays (rows in ``eta Z^d``).  With
    ``shift_q`` the contour is moved to ``p + i q``; by analyticity the result
    is unchanged up to quadrature error, which is exactly the operational
    analyticity check.  The kernel is real, ``float64``, on every contour.

    On the lattice ``e^{i Z_l x} = e^{i p x} e_x``, and the shift factor
    ``e_x = e^{2 pi i l x}`` depends only on the class of ``x`` modulo the
    unit lattice (``G(x, t + r) = G(x - t, r)``).  So the pieces of the
    shift solve are contracted over the shifts once per class: ``D = w
    e_{x-y}``, ``H = (w U) e_x``, ``K = (w Ubar) e_{-y}``, one contraction
    of each node block's ``w`` against the per-axis factors of ``e_{x-y}``,
    ``u e_x`` and ``ubar e_{-y}`` side by side; the node
    array ``D - a_k H beta + x0``, with ``beta`` and ``x0`` of
    ``RankOneRows._zero_column`` at ``v_0 = 1`` and ``B = K``, is summed
    against ``e^{i p (x - y)}`` by one inverse FFT over the base nodes per
    pair of classes (``KernelPlan.sums``).  This is ``GPlan`` evaluated once.
    """
    return evaluate_plans([GPlan(xs, ys, grid)], grid, params, shift_q)[0]


def free_kernel_gq(xs, ys, grid: TorusGrid, params: MultiscaleParams,
                   shift_q=None) -> np.ndarray:
    """Kernel ``(G_k Q_k*)(x, y)`` for fine positions ``xs`` and unit-lattice ``ys``.

    The sources form the one class ``r = 0``, so the node array is
    ``ShiftSystem.solve_u`` contracted over the shifts against ``e_x`` (see
    ``free_kernel_g``).  This is ``GQPlan`` evaluated once.
    """
    return evaluate_plans([GQPlan(xs, ys, grid)], grid, params, shift_q)[0]


def q_star_bracket(d: int, L: int, k: int, params: MultiscaleParams):
    """A bracket ``(q_lo, q_hi)`` of the analyticity width ``q*``, the
    smallest ``q > 0`` at which the shift matrix ``M(p + i q e_0)`` turns
    singular for some real ``p``, or None where the scan reads no bound.

    One ``AxisSymbols.build`` of the 1-d shift row at the nodes ``i
    STRIP_SCAN`` gives ``den = det M / prod_{l != 0} Delta_l`` at ``p = i q
    e_0`` for an axis in every ``d``: at ``p_a = 0`` the further axes' ``u``
    vanishes at their nonzero shifts, which drop out of ``c0``.  There the
    symbols' symmetry (module docstring) makes ``den`` real, and it is
    positive at ``q = 0``; ``q_hi`` is the first node where it is not, so a
    zero lies at or below it, and ``q_lo`` the node before (0 for the
    first).  For ``d >= 2`` and ``k >= 1`` a further zero of ``det M`` sits
    at ``p_a = pi`` on one more axis: the shifts ``l_a = 0`` and ``-1`` then
    share a ``Delta``, which vanishes with ``l_0 = 0`` at ``sinh^2(q eta/2)
    = sin^2(pi eta/2) + mu0/4``, and that ``q`` caps both ends.  The tests
    hold ``q_lo`` below every zero of the dense ``det M`` over a grid of
    ``p``, on a grid of ``(d, k, a, mu0)``.

    No bound where ``den`` keeps its sign over the scan, nor where ``a_inf =
    a (1 - L**-2) >= 6``: past that the zero of the ``k -> inf`` secular
    function leaves the imaginary axis.  The scan ends at ``q = 10``: with a
    mass, ``den`` was seen to cross zero on the axis at ``q = 56-86`` while
    the first zero of ``det M`` sat off it near ``q = 4.5-7``, and at ``q_lo
    >= 10`` a ladder's ``rho`` (``_ladder``) is below ``1e-20`` on every
    grid anyway."""
    if params.a * (1.0 - float(L) ** -2) >= 6.0:
        return None
    den = ShiftSystem.build(AxisSymbols.build([1j * STRIP_SCAN], L, k, params)).rows.den
    past = np.flatnonzero(~(den.real > 0.0))
    if not past.size:
        return None
    lo, hi = (STRIP_SCAN[past[0] - 1] if past[0] else 0.0), STRIP_SCAN[past[0]]
    if d >= 2 and k >= 1:
        eta = float(L) ** (-k)
        q_pi = (2.0 / eta) * np.arcsinh(np.sqrt(np.sin(np.pi * eta / 2.0) ** 2 + params.mu0 / 4.0))
        lo, hi = min(lo, q_pi), min(hi, q_pi)
    return float(lo), float(hi)


def _check_strip_width(d: int, L: int, k: int, params: MultiscaleParams, q: float):
    """Refuse ``q`` at or past ``q_hi`` of ``q_star_bracket`` with
    ``StripWidthError``, else return the bracket, so a caller that goes on
    to a ladder scans it once; the strip bound and the contour shift run
    this before any solve or quadrature."""
    bracket = q_star_bracket(d, L, k, params)
    if bracket is not None and q >= bracket[1]:
        raise StripWidthError(
            f"q={q} at or past the analyticity width q* in "
            f"({bracket[0]:.6g}, {bracket[1]:.6g}] at d={d}, L={L}, k={k}")
    return bracket


def _brackets(grids, params: MultiscaleParams | None) -> dict:
    """``q_star_bracket`` once per ``(d, L, k)`` of ``grids``, None for every
    one without ``params``: what ``_ladder`` reads its rates from."""
    return {key: None if params is None else q_star_bracket(*key, params)
            for key in {(g.d, g.L, g.k) for g in grids}}


def _ladder(starts, evaluate, tol: float, brackets: dict) -> list:
    """Drive several entries to quadrature self-convergence on one ladder of
    grids.  Entry ``i`` is evaluated on ``starts[i]`` and its doublings, at
    most ``MAX_DOUBLINGS``; each step takes the smallest grid some pending
    entry needs next, and ``evaluate(grid, live)`` returns the values of all
    the entries ``live`` that need it.

    A doubling that changes an entry by ``delta`` (its max change against
    the max magnitude of its new values) is accepted, finer grid and all,
    when ``delta <= sqrt(tol)`` and ``min(1, rho / (1 - rho)) delta <=
    tol``.  The trapezoid error on ``M0`` base nodes falls like ``exp(-q*
    M0)`` (L. N. Trefethen and J. A. C. Weideman, SIAM Rev. 56, 2014), so
    with ``rho = exp(-LADDER_THETA q_lo M0)``, ``M0`` the coarser grid's
    base count and ``q_lo`` from ``brackets``, the ``q_star_bracket`` of
    each ``(d, L, k)`` of ``starts`` (``_brackets``), ``rho delta / (1 -
    rho)`` bounds the finer grid's error.  Where the bracket is None the
    rate is 0 and the rule is ``delta <= tol``; no entry stops later than
    under that rule.  Returns ``(values, grid_used, last_delta)`` per
    entry."""
    rates = {key: 0.0 if b is None else LADDER_THETA * b[0] for key, b in brackets.items()}
    vals, out, nxt = [None] * len(starts), [None] * len(starts), list(starts)
    while pending := [i for i, o in enumerate(out) if o is None]:
        grid = min((nxt[i] for i in pending), key=lambda g: g.M)
        live = [i for i in pending if nxt[i] == grid]
        rho = math.exp(-rates[grid.d, grid.L, grid.k] * (grid.base_count // 2))
        gain = 1.0 if rho >= 0.5 else rho / (1.0 - rho)
        for i, new in zip(live, evaluate(grid, live)):
            new, nxt[i] = np.asarray(new), grid.refined()
            if vals[i] is not None:
                scale = max(np.max(np.abs(new)), 1e-300)
                delta = float(np.max(np.abs(new - vals[i])) / scale)
                if delta <= math.sqrt(tol) and gain * delta <= tol:
                    out[i] = new, grid, delta
                elif grid.M == starts[i].M << MAX_DOUBLINGS:
                    raise GridConvergenceError(
                        f"quadrature not stable at tol={tol} after {MAX_DOUBLINGS} "
                        f"doublings (last change {delta:.3e})")
            vals[i] = new
    return out


def converge_kernel(evaluate, grid: TorusGrid, params: MultiscaleParams | None = None,
                    tol: float = 1e-8):
    """Drive ``evaluate(grid) -> ndarray`` from ``grid`` to quadrature
    self-convergence, the one-entry ``_ladder``: ``(values, grid_used,
    last_delta)``.  ``params`` are those of the free kernel ``evaluate``
    reads, whose analyticity width sets the ladder's error ratio; None for
    an integrand of unknown width, which stops at ``delta <= tol``."""
    return _ladder([grid], lambda g, live: [evaluate(g)], tol, _brackets([grid], params))[0]


def converge_plans(plans, params: MultiscaleParams, tol: float = 1e-8) -> list:
    """``converge_kernel`` for every plan on one ladder: each plan starts at its
    own ``grid`` and stops at its own first accepted doubling, judged at the
    analyticity width of its ``(d, L, k)`` and ``params`` (``_ladder``), and
    each grid of the ladder makes one ``evaluate_plans`` pass, one node
    build, for the plans that need it.  Returns ``(values, grid_used,
    last_delta)`` per plan."""
    grids = [p.grid for p in plans]
    return _ladder(grids, lambda g, live: evaluate_plans([plans[i] for i in live], g, params),
                   tol, _brackets(grids, params))


def contour_shift_change(grid: TorusGrid, params: MultiscaleParams, q: float,
                         tol: float = 1e-8) -> float:
    """Relative change of ``G_k(0, 2 e)`` when the contour moves to ``p + i q e_0``.

    The unshifted kernel is driven up the ladder from ``grid`` until a
    doubling is accepted at ``tol`` (``converge_plans``' one-plan
    ``_ladder``); the shifted one is evaluated by the same plan on the grid
    the ladder stopped on.  By analyticity the change is quadrature error
    only, that of the stopping grid on both contours; both kernels take the
    one route of ``KernelPlan.sums``, so no two codes are compared.  A ``q``
    at or past the analyticity width is refused first
    (``_check_strip_width``), and the ladder reads the bracket of that one
    scan.
    """
    d = grid.d
    bracket = _check_strip_width(d, grid.L, grid.k, params, q)
    plan = GPlan(np.zeros((1, d)), np.full((1, d), 2.0), grid)
    (base, used, _), = _ladder([grid], lambda g, live: evaluate_plans([plan], g, params), tol,
                               {(d, grid.L, grid.k): bracket})
    qv = np.zeros(d)
    qv[0] = q
    shifted, = evaluate_plans([plan], used, params, shift_q=qv)
    return float(np.max(np.abs(shifted - base)) / np.max(np.abs(base)))


def _shift_view(arr: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The ``M**d`` big-torus samples ``arr`` as ``(base_count,)*d + (L**k,)*d``:
    per axis, sample ``s * base_count + b`` (``full_nodes_1d``) is base node
    ``b`` moved by shift ``s``.  A view where ``arr``'s reshape is one."""
    d = grid.d
    if arr.size != grid.M**d:
        raise ValueError(f"need {grid.M}**{d} big-torus samples, got shape {arr.shape}")
    per_axis = arr.reshape((grid.shifts_per_axis, grid.base_count) * d)
    return per_axis.transpose(*range(1, 2 * d, 2), *range(0, 2 * d, 2))


def _from_shift_layout(a, grid: TorusGrid) -> np.ndarray:
    """An array in the ``_shift_view`` layout back on the big torus ``(M,)*d``."""
    out = np.empty((grid.M,) * grid.d, dtype=complex)
    _shift_view(out, grid)[...] = a
    return out


def _shift_sum(v, f) -> np.ndarray:
    """``sum_l F_l v_l`` at every node, ``v`` laid out ``(n_0, ..., n_{d-1},
    s_0, ..., s_{d-1})`` and ``F`` the outer product of the per-axis tables
    ``f``, ``(n_a, L**k)``: one shift axis contracted at a time, the last
    first, to shape ``(n_0, ..., n_{d-1})``."""
    d = len(f)
    for a in reversed(range(d)):     # the last shift axis s_a against f_a[n_a, s_a]
        v = np.einsum(v, list(range(d + a + 1)), f[a], [a, d + a], list(range(d + a)))
    return v


def _shift_spread(B, f) -> np.ndarray:
    """``F_l B`` at every node and shift, ``B`` of shape ``(n_0, ...,
    n_{d-1})``, built up one axis at a time in ``_shift_sum``'s layout.
    With ``B = _shift_sum(v, ubar)`` it is ``U (Ubar^T v)``: ``U Ubar^T`` is
    the Kronecker product of the per-axis ``u_a ubar_a^T``, so no ``(nodes,
    S)`` table of ``U`` is formed."""
    d = len(f)
    for a, t in enumerate(f):     # n_a at axis a, s_a last
        B = B[..., None] * t.reshape((1,) * a + (len(t),) + (1,) * (d - 1) + (-1,))
    return B


def free_symbol_apply(f_hat, grid: TorusGrid, params: MultiscaleParams) -> np.ndarray:
    """Apply the symbol of ``-Lap + mu_bar_k + a_k Q_k* Q_k`` to big-torus
    samples: ``M v = Delta v + a_k U (Ubar^T v)`` from the per-axis symbols,
    ``U Ubar^T`` applied axis by axis (``_shift_sum``, ``_shift_spread``),
    with no shift system."""
    sym = AxisSymbols.build(_axis_nodes(grid), grid.L, grid.k, params)
    v = _shift_view(np.asarray(f_hat, dtype=complex), grid)
    Delta = _axis_outer(np.add, sym.lap).reshape(v.shape)
    UUv = _shift_spread(_shift_sum(v, sym.ubar), sym.u)
    return _from_shift_layout(Delta * v + sym.a * UUv, grid)


def free_apply_ghat(f_hat, grid: TorusGrid, params: MultiscaleParams) -> np.ndarray:
    """Apply ``G_k`` in Fourier space to samples of ``f_hat`` on the big torus.

    The shift system is solved at every base node; the massless momentum-zero
    node is regular because the averaging coupling fills the Laplacian kernel.
    """
    v = _shift_view(np.asarray(f_hat, dtype=complex), grid)
    return _from_shift_layout(build_shift_system(grid, params).solve(v), grid)


def _axis_waves(patch: FreePatch, grid: TorusGrid) -> list:
    """Per axis, ``exp(-i k x)`` between the big-torus momenta ``k`` and
    the patch coordinates ``x`` of that axis, shape ``(M, side)``: one table
    per distinct axis range, shared by every axis with that range.  The
    inverse direction reads its conjugate."""
    k, tables = grid.full_nodes_1d(), {}
    for lo, hi in zip(patch.lo, patch.hi):
        if (lo, hi) not in tables:
            tables[lo, hi] = np.exp(-1j * np.outer(k, np.arange(lo, hi + 1) * patch.spacing))
    return [tables[lo, hi] for lo, hi in zip(patch.lo, patch.hi)]


def patch_fourier_samples(patch: FreePatch, values, grid: TorusGrid, waves=None) -> np.ndarray:
    """Exact Fourier transform of a compactly supported patch function at
    grid nodes; ``waves`` are ``_axis_waves``, built here if None."""
    f = np.asarray(values, dtype=complex).reshape(patch.shape)
    for wave in _axis_waves(patch, grid) if waves is None else waves:
        f = np.tensordot(f, wave, axes=([0], [1]))    # next patch axis -> momentum axis
    return (2.0 * np.pi) ** (-patch.d / 2.0) * patch.spacing**patch.d * f


def patch_inverse_fourier(f_hat, patch: FreePatch, grid: TorusGrid, waves=None) -> np.ndarray:
    """Quadrature inverse transform back onto the patch sites, by the
    conjugates of ``waves`` (``_axis_waves``, built here if None)."""
    f = np.asarray(f_hat, dtype=complex).reshape((grid.M,) * patch.d)
    for wave in _axis_waves(patch, grid) if waves is None else waves:
        f = np.tensordot(f, wave.conj(), axes=([0], [0]))    # next momentum axis -> patch axis
    return (2.0 * np.pi) ** (patch.d / 2.0) * f.ravel() / grid.base_count**patch.d


def qkqk_spatial(patch: FreePatch, values) -> np.ndarray:
    """Exact block means ``Q_k* Q_k f`` on a block-aligned patch."""
    Lk = patch.L**patch.k
    shape = patch.shape
    if any(s % Lk != 0 for s in shape) or any(l % Lk != 0 for l in patch.lo):
        raise ValueError("patch must be aligned to unit blocks")
    v = np.asarray(values, dtype=complex).reshape(shape)
    nb = tuple(s // Lk for s in shape)
    inter = v.reshape(tuple(itertools.chain.from_iterable((b, Lk) for b in nb)))
    block_axes = tuple(2 * i + 1 for i in range(patch.d))
    means = inter.mean(axis=block_axes, keepdims=True)
    return np.broadcast_to(means, inter.shape).reshape(shape).ravel()


def qkqk_fourier(patch: FreePatch, values, grid: TorusGrid) -> np.ndarray:
    """``Q_k* Q_k f`` through the Fourier shift formula: transform, apply the
    rank-one shift coupling ``U U^*`` axis by axis (``_shift_sum``, ``_shift_spread``),
    transform back.  ``U`` reads no params."""
    sym = AxisSymbols.build(_axis_nodes(grid), grid.L, grid.k, MultiscaleParams())
    waves = _axis_waves(patch, grid)
    v = _shift_view(patch_fourier_samples(patch, values, grid, waves), grid)
    UUv = _shift_spread(_shift_sum(v, sym.ubar), sym.u)
    return patch_inverse_fourier(_from_shift_layout(UUv, grid), patch, grid, waves)


def qkqk_fourier_residual(patch: FreePatch, values, grid: TorusGrid) -> float:
    """Max pointwise discrepancy between spatial block means and the Fourier route."""
    spatial = qkqk_spatial(patch, values)
    fourier = qkqk_fourier(patch, values, grid)
    return float(np.max(np.abs(spatial - fourier)))


# ---------------------------------------------------------------------------
# Strip machinery: the integrand ``M^{-1} U`` and its bounds
# ---------------------------------------------------------------------------

def _strip_floor(large_mass: bool, a_k: float, eta: float, d: int) -> float:
    """Floor below which the strip denominator of the given mass branch is a violation."""
    if large_mass:
        return DENOMINATOR_FLOOR
    return DENOMINATOR_FLOOR * (a_k * eta**2 / 4.0) * (2.0 / np.pi) ** (2 * d)


def _strip_solve(axis_nodes, L: int, k: int, params: MultiscaleParams):
    """``H = M^{-1} U`` (n, S) at level ``k`` and the margin of each node's
    strip denominator over its floor, (n,), per block of
    ``AxisSymbols.blocks``, each block's ``ShiftSystem.solve_u``.

    The strip denominator is ``den / Delta_0 = det M / prod_l Delta_l`` in the
    large-mass branch and ``(eta**2/4) den`` in the small-mass branch, where
    ``Delta_0`` may vanish; a node below the floor raises ``StripViolationError``.
    """
    eta, d = float(L) ** (-k), len(axis_nodes)
    large_mass = params.mu0 / 4.0 >= params.c_star * eta**2
    sym = AxisSymbols.build(axis_nodes, L, k, params)
    floor = _strip_floor(large_mass, sym.a, eta, d)
    for first in sym.blocks():
        system = ShiftSystem.build(sym.rows(first))
        rows = system.rows
        denom = np.abs(rows.den / rows.Delta0 if large_mass else (eta**2 / 4.0) * rows.den)
        below = np.flatnonzero(denom < floor)
        if below.size:
            z = grid_points([axis_nodes[0][first], *axis_nodes[1:]])[below[0]]
            raise StripViolationError(
                f"denominator {denom[below[0]]:.3e} below floor {floor:.3e} at z={z}")
        yield system.solve_u(), denom / floor


@dataclass(frozen=True)
class StripBoundReport:
    d: int
    L: int
    k: int
    q_max: float
    weighted_sup: float
    per_shift_sup: dict
    min_denominator_margin: float
    p_samples: int


def strip_bound_report(d: int, L: int, k: int, params: MultiscaleParams,
                       q_max: float = STRIP_Q_MAX, p_samples: int = 9) -> StripBoundReport:
    """Tabulate ``sup |H(z)| prod (1+|l'_mu|)^(1+2/d)`` over a strip sample.

    The ``z`` sample is a uniform interior grid over ``(-pi, pi)^d`` crossed
    with imaginary shifts ``0``, ``+/- q_max`` per axis and the diagonal.
    A denominator-floor breach raises ``StripViolationError`` rather than
    being recorded; a ``q_max`` at or past ``q_hi`` of ``q_star_bracket``,
    where the strip holds a zero of ``det M`` whichever nodes are sampled,
    is refused first (``_check_strip_width``).
    """
    _check_strip_width(d, L, k, params, q_max)
    ells = shift_vectors(d, L, k)
    weights = np.prod((1.0 + np.abs(ells)) ** (1.0 + 2.0 / d), axis=-1)

    p_axis = -np.pi + (np.arange(p_samples) + 0.5) * 2.0 * np.pi / p_samples
    q_list = ([np.zeros(d)] + [s * e for e in q_max * np.eye(d) for s in (1.0, -1.0)]
              + [np.full(d, q_max / np.sqrt(d))])

    per_shift = np.zeros(len(ells))
    min_margin = np.inf
    for q in q_list:
        for H, margin in _strip_solve([p_axis + 1j * qm for qm in q], L, k, params):
            min_margin = min(min_margin, float(np.min(margin)))
            per_shift = np.maximum(per_shift, np.max(np.abs(H) * weights, axis=0))
    table = {tuple(e.astype(int)): float(v) for e, v in zip(ells, per_shift)}
    return StripBoundReport(d=d, L=L, k=k, q_max=q_max,
                            weighted_sup=float(per_shift.max()), per_shift_sup=table,
                            min_denominator_margin=float(min_margin),
                            p_samples=p_samples)
