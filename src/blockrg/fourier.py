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
formula, never stored or inverted as an ``S x S`` matrix.  The whole-grid
``ShiftSystem`` is a ``multiscale.RankOneRows``, the solver of the DCT-class
tower; the kernels and the strip read the products ``w U`` of ``NodeBlock``.
The formula is used multiplied through by ``Delta_0``, the symbol of the zero
shift, and the zero-shift term is split off the diagonal sum.  What remains divides only by
the nonzero-shift symbols and by ``Delta_0 (1 + a_k sum_{l!=0} Ubar_l U_l /
Delta_l) + a_k U_0 Ubar_0``, which is ``det M`` over those symbols and so
positive at every real momentum.  The massless node ``p = 0``, where
``Delta_0 = 0``, thus goes through the same formula as every other node and
no term is ever formed as 0/0.  Kernels are trapezoid quadratures of these
solves; the solve's pieces are contracted over the shifts once per residue
class modulo the unit lattice and summed over the nodes by one inverse FFT
per pair of classes, which serves every offset (see ``_class_sums``).

Every per-axis symbol has ``conj f(Z) = f(-conj Z)`` (``sin^2`` and ``sinc``
are even with real coefficients, and ``conj e^{-icZ} = e^{-ic(-conj Z)}``),
and so have the class phases.  ``z -> -conj z`` sends ``p + i q`` to
``-p + i q`` on the same contour and the shift ``l`` to ``-l`` (L odd), so
on every contour the kernels' node arrays are Hermitian in the node: half
the nodes are solved, ``irfftn`` sums them, and the kernels are real.  The
strip integrand ``H = M^{-1} U`` is ``NodeBlock.solve_u`` at complex nodes
``p + i q``.  Kernels and strip build their ``NodeBlock``s in bounded
blocks of nodes (``_node_blocks``), cached nowhere.

Symbols take complex arguments everywhere, which is what operational
analyticity checks (contour shifts) and the strip bounds rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import FreePatch, _axis_outer, grid_points
from .multiscale import MultiscaleParams, RankOneRows

POLE_GUARD = 1e-12
DENOMINATOR_FLOOR = 0.1
MAX_DOUBLINGS = 6
NODE_BLOCK_BYTES = 2**20           # nbytes of one complex (nodes, S) array of a node block
STRIP_Q_MAX = 0.05                 # imaginary half-width of the sampled analyticity strip


class PoleProximityError(ValueError):
    """Evaluation requested too close to a genuine (non-removable) pole."""


class StripViolationError(ValueError):
    """The certified analyticity strip was left: denominator below floor."""


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

    def base_nodes(self) -> np.ndarray:
        """Base momenta, shape ``(base_count**d, d)``, row-major."""
        return grid_points([self.base_nodes_1d()] * self.d)

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
    """sin(w)/w for complex arrays, series branch near zero."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    return np.where(small, 1.0 - w * w / 6.0 + w**4 / 120.0, np.sin(safe) / safe)


def u_axis(z, eta: float):
    """One axis factor of the averaging symbol, ``eta (1-e^{-iz})/(1-e^{-iz eta})``.

    Evaluated as ``exp(-i(1-eta)z/2) sinc(z/2)/sinc(z eta/2)``, which is
    stable at the removable point z = 0 and exact at the genuine zeros
    ``z = 2 pi l`` (l not a multiple of 1/eta).
    """
    z = np.asarray(z, dtype=complex)
    return np.exp(-0.5j * (1.0 - eta) * z) * _sinc(z / 2.0) / _sinc(z * eta / 2.0)


def u_kernel(z, L: int, k: int):
    """Averaging symbol ``u(z)`` for ``z`` of shape ``(..., d)``."""
    eta = float(L) ** (-k)
    return np.prod(u_axis(np.asarray(z, dtype=complex), eta), axis=-1)


def u_bar_kernel(z, L: int, k: int):
    """Analytic continuation of ``conj(u(p))``; equals ``u(-z)``."""
    return u_kernel(-np.asarray(z, dtype=complex), L, k)


def lap_star(z, L: int, k: int, mu0: float):
    """Dimensionless Laplacian symbol ``sum_mu sin^2(z_mu eta/2) + mu0/4``."""
    eta = float(L) ** (-k)
    z = np.asarray(z, dtype=complex)
    return np.sum(np.sin(z * eta / 2.0) ** 2, axis=-1) + mu0 / 4.0


def laplacian_symbol(z, L: int, k: int, mu0: float):
    """Symbol of ``-Lap + mu_bar_k``: ``(4/eta^2)(sum sin^2(z eta/2) + mu0/4)``."""
    eta = float(L) ** (-k)
    return (4.0 / eta**2) * lap_star(z, L, k, mu0)


def u_delta(z, ell, L: int, k: int, mu0: float):
    """``u(z + 2 pi ell) / Delta(z + 2 pi ell)`` with a guard at genuine poles."""
    zs = np.asarray(z, dtype=complex) + 2.0 * np.pi * np.asarray(ell, dtype=float)
    denom = laplacian_symbol(zs, L, k, mu0)
    star = lap_star(zs, L, k, mu0)
    if np.any(np.abs(star) < POLE_GUARD):
        raise PoleProximityError(
            "u_delta evaluated within guard distance of a pole of 1/Delta")
    return u_kernel(zs, L, k) / denom


def bracket(z, L: int, k: int, mu0: float):
    """The shift sum ``<<u, u_Delta>>(z) = sum_l u(z+2pi l) ubar(z+2pi l) / Delta(z+2pi l)``.

    Real and nonnegative at real momenta; periodic with period ``2 pi`` in
    every component.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    zs = shifted_momenta(z, shift_vectors(z.shape[-1], L, k))
    star = lap_star(zs, L, k, mu0)
    if np.any(np.abs(star) < POLE_GUARD):
        raise PoleProximityError("bracket evaluated at a pole of 1/Delta")
    terms = u_kernel(zs, L, k) * u_bar_kernel(zs, L, k) / laplacian_symbol(zs, L, k, mu0)
    return np.sum(terms, axis=-1)


@dataclass(frozen=True)
class FactoredStack:
    """``n`` shift matrices of size ``S x S`` held as O(n S) factor arrays.

    ``nbytes`` counts the factor arrays.  ``dense()`` materialises the
    ``(n, S, S)`` stack as ``matvec`` of the identity; it is meant for
    checks at small ``n`` only.
    """

    factors: tuple
    matvec: Callable

    @property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.factors)

    def dense(self) -> np.ndarray:
        n, S = self.factors[0].shape
        return self.matvec(np.broadcast_to(np.eye(S), (n, S, S)))


class ShiftSystem(RankOneRows):
    """Per-node shift matrices ``M = diag(Delta) + a_k U Ubar^T`` of the defining operator.

    The ``n`` nodes are the row-major base nodes of a grid; the shifts are
    the S rows of ``shift_vectors``, the zero shift at index ``zero``; ``U``,
    ``Ubar``, ``Delta``: the averaging symbols and the Laplacian symbol at
    ``Z = node + 2 pi shift``, each (n, S); ``a = a_k``.  The nodes are the
    rows of ``multiscale.RankOneRows``, whose Sherman-Morrison weights
    ``w``, ``c0``, ``den`` (multiplied through by ``Delta_0 = Delta[:, zero]``,
    so the massless node ``p = 0`` needs no special case) give ``solve`` in
    O(S) per node, and ``apply`` is O(S) too; ``den`` is positive at real
    momenta.  ``Minv`` and ``Mmat`` view the same factors as matrix stacks.
    """

    def apply(self, v) -> np.ndarray:
        """``M v`` at every node, for ``v`` of shape ``(n, S, ...)``."""
        v = np.asarray(v)
        v3 = v.reshape(v.shape[:2] + (-1,))
        U, Ubar = self.U[..., None], self.Ubar[..., None]
        out = (self.Delta[..., None] * v3
               + self.a * U * np.sum(Ubar * v3, axis=1, keepdims=True))
        return out.reshape(v.shape)

    @property
    def Mmat(self) -> FactoredStack:
        return FactoredStack((self.Delta, self.U, self.Ubar), self.apply)

    @property
    def Minv(self) -> FactoredStack:
        return FactoredStack((self.w, self.c0, self.den), self.solve)


@dataclass(frozen=True, eq=False)
class NodeBlock:
    """A block of nodes' shift systems, as the products kernels and strip read:
    ``w``, ``wU = w U``, ``wUbar = w Ubar`` (n, S) and the zero-shift
    ``Delta0``, ``U0``, ``Ubar0``, ``c0``, ``den`` (n,).  At real nodes ``w``
    is real and ``wUbar = conj(wU)`` is None."""

    axis_nodes: tuple
    a: float
    zero: int
    w: np.ndarray
    wU: np.ndarray
    wUbar: np.ndarray | None
    Delta0: np.ndarray
    U0: np.ndarray
    Ubar0: np.ndarray
    c0: np.ndarray
    den: np.ndarray

    def solve_u(self) -> np.ndarray:
        """``M^{-1} U``, (n, S): the Sherman-Morrison solve of ``U``, where
        ``B = sum_l Ubar_l w_l U_l = (c0 - 1) / a`` cancels and leaves
        ``Delta_0 w U / den`` off the zero column and ``U_0 / den`` on it."""
        x = (self.Delta0 / self.den)[:, None] * self.wU
        x[:, self.zero] = self.U0 / self.den
        return x


def _axis_symbols(nodes, L: int, k: int) -> np.ndarray:
    """``u``, ``ubar`` and the massless ``lap_star`` on one axis's (node,
    shift) grid, stacked: (3, len(nodes), L**k)."""
    eta = float(L) ** (-k)
    Z = shifted_momenta(nodes[:, None], shift_vectors(1, L, k))[..., 0]
    return np.stack([u_axis(Z, eta), u_axis(-Z, eta), lap_star(Z[..., None], L, k, 0.0)])


def _zero_and_coupling(d: int, L: int, k: int, params: MultiscaleParams):
    """The zero shift's index in ``shift_vectors`` (the middle row, ``L`` odd), and ``a_k``."""
    return L ** (k * d) // 2, params.a_j(L, max(k, 1))   # k = 0: the bare coefficient a


def _delta(symbols, L: int, k: int, params: MultiscaleParams) -> np.ndarray:
    """``Delta`` at the nodes of ``symbols``, a new array (mass on the first axis)."""
    eta = float(L) ** (-k)
    lap = [(4.0 / eta**2) * s[2] for s in symbols]
    lap[0] = lap[0] + params.mu_bar(L, k)
    return _axis_outer(np.add, lap)


def _node_block(axis_nodes, symbols, L: int, k: int, params: MultiscaleParams) -> NodeBlock:
    """The ``NodeBlock`` at the row-major products of the per-axis momenta
    ``axis_nodes``.  ``U``, ``Ubar`` and ``Delta`` are not kept: ``w`` is
    ``1 / Delta`` in place, and ``c0`` reads the outer product ``Ubar U``.
    At real nodes ``Delta``, ``w`` and ``Ubar U`` are real and ``Ubar =
    conj U`` (see the module docstring)."""
    zero, a_k = _zero_and_coupling(len(axis_nodes), L, k, params)
    real = not any(np.any(nodes.imag) for nodes in axis_nodes)
    part = np.real if real else np.asarray
    w = _delta([part(s) for s in symbols], L, k, params)
    Delta0 = w[:, zero].copy()
    with np.errstate(divide="ignore", invalid="ignore"):   # the zero column is set next
        np.divide(1.0, w, out=w)
    w[:, zero] = 0.0
    UbarU = _axis_outer(np.multiply, [part(s[0] * s[1]) for s in symbols])
    c0 = 1.0 + a_k * np.einsum("ij,ij->i", w, UbarU)
    del UbarU

    def weighted(i):   # zero column of symbol i, and w times it (in place unless d = 1)
        X = _axis_outer(np.multiply, [s[i] for s in symbols])
        return X[:, zero].copy(), np.multiply(w, X, out=X if len(symbols) > 1 else None)

    U0, wU = weighted(0)
    Ubar0, wUbar = (np.conj(U0), None) if real else weighted(1)
    return NodeBlock(tuple(axis_nodes), a_k, zero, w, wU, wUbar, Delta0, U0, Ubar0, c0,
                     den=Delta0 * c0 + a_k * U0 * Ubar0)


def _node_blocks(axis_nodes, L: int, k: int, params: MultiscaleParams):
    """``_node_block`` over blocks of consecutive first-axis nodes, in node
    order: as many as keep one complex ``(nodes, S)`` array within
    ``NODE_BLOCK_BYTES``, and at least one.  Callers reduce the blocks through
    ``map``, which drops each block before the next is built."""
    axis_nodes = [np.asarray(nodes, dtype=complex) for nodes in axis_nodes]
    symbols = [_axis_symbols(nodes, L, k) for nodes in axis_nodes]
    row_bytes = 16 * math.prod(len(n) for n in axis_nodes[1:]) * (L**k) ** len(axis_nodes)
    rows = max(1, NODE_BLOCK_BYTES // row_bytes)
    for block in (slice(lo, lo + rows) for lo in range(0, len(axis_nodes[0]), rows)):
        yield _node_block([axis_nodes[0][block]] + axis_nodes[1:],
                          [symbols[0][:, block]] + symbols[1:], L, k, params)


def _axis_nodes(grid: TorusGrid, shift_q=None) -> list:
    """The base nodes of ``grid`` per axis, moved to ``p + i shift_q``."""
    q = np.zeros(grid.d) if shift_q is None else np.asarray(shift_q, dtype=float)
    return list(grid.base_nodes_1d()[None, :] + 1j * q[:, None])


def build_shift_system(grid: TorusGrid, params: MultiscaleParams,
                       shift_q=None) -> ShiftSystem:
    """The shift system at the base nodes of ``grid``, moved to ``p + i shift_q``,
    from the outer products of the per-axis ``_axis_symbols``."""
    axes = _axis_nodes(grid, shift_q)
    symbols = [_axis_symbols(nodes, grid.L, grid.k) for nodes in axes]
    zero, a_k = _zero_and_coupling(grid.d, grid.L, grid.k, params)
    U, Ubar = (_axis_outer(np.multiply, [s[i] for s in symbols]) for i in (0, 1))
    return ShiftSystem.build(_delta(symbols, grid.L, grid.k, params), U, Ubar, a_k, zero)


def _shift_phases(grid: TorusGrid, residues) -> np.ndarray:
    """``exp(2 pi i l . rho / Lk)`` for every shift ``l`` and residue row ``rho``,
    (S, len(residues)): ``A @`` this contracts ``A`` over its shifts per class."""
    shifts = shift_vectors(grid.d, grid.L, grid.k)
    return np.exp(2j * np.pi / grid.shifts_per_axis * (shifts @ residues.T))


def _class_legs(legs, axis_nodes, grid: TorusGrid, params: MultiscaleParams) -> list:
    """``legs(sys)``, a tuple of (nodes, classes) arrays per shift system,
    over the node blocks of ``axis_nodes``, each leg joined in node order and
    laid out (classes, nodes)."""
    blocks = _node_blocks(axis_nodes, grid.L, grid.k, params)
    return [np.concatenate([p.T for p in parts], axis=1) for parts in zip(*map(legs, blocks))]


def _classes(idx, Lk: int):
    """Residue classes modulo ``Lk`` of the integer rows ``idx`` (last axis the
    coordinates): the distinct classes in lexicographic order, (n classes, d),
    and the index of each row's class, shape ``idx.shape[:-1]``.  Classes are
    coded as integers, so one 1-d ``np.unique`` sorts them."""
    shape = (Lk,) * idx.shape[-1]
    codes, where = np.unique(np.ravel_multi_index(tuple(np.moveaxis(idx % Lk, -1, 0)), shape),
                             return_inverse=True)
    return np.stack(np.unravel_index(codes, shape), axis=-1), where.reshape(idx.shape[:-1])


def _class_sums(grid: TorusGrid, shift_q, xs, ys, node_arrays) -> np.ndarray:
    """``(1/n) sum_p e^{i p (x - y)} F(p)`` over the ``n`` base nodes ``p`` of
    ``grid`` moved to ``p + i shift_q``, for all pairs of position rows in
    ``eta Z^d``.  ``node_arrays(axis_nodes, Rx, Ry)`` returns a function
    that maps a slice of the residue classes ``Rx`` of x modulo the unit
    lattice to ``F`` against every class ``Ry`` of y at the row-major nodes
    spanned by ``axis_nodes``, an array (x classes in the slice, y classes,
    nodes).

    With ``x - y = L**k t + (rho_x - rho_y)`` and ``p = -pi + 2 pi b / M0 + i q``
    per axis, the sum is ``(-1)^{sum t} e^{-q t}`` times the inverse DFT over
    ``b`` of ``e^{i eta p (rho_x - rho_y)} F``, read at ``t mod M0``: one
    transform per pair of classes serves every offset.  The x classes are
    taken in slices whose complex batch stays within ``NODE_BLOCK_BYTES``, at
    least one class per slice.  The transformed array is Hermitian in ``b``
    on every contour (module docstring; ``b = 0`` pairs with ``b = M0``): only
    the last-axis nodes ``b <= M0/2`` are evaluated, and ``irfftn`` returns a
    real kernel."""
    d, Lk, M0 = grid.d, grid.shifts_per_axis, grid.base_count
    pos = [np.atleast_2d(np.asarray(p, dtype=float)) for p in (xs, ys)]
    ix, iy = (np.rint(p / grid.eta).astype(np.int64) for p in pos)
    if any(np.any(np.abs(i * grid.eta - p) > 1e-9 * (1.0 + np.abs(p)))
           for i, p in zip((ix, iy), pos)):
        raise ValueError(f"kernel positions must lie on the lattice {grid.eta:.6g} Z^d")
    (Rx, cx), (Ry, cy) = _classes(ix, Lk), _classes(iy, Lk)
    q = np.zeros(d) if shift_q is None else np.asarray(shift_q, dtype=float)
    axes = _axis_nodes(grid, q)
    axes[-1] = axes[-1][:M0 // 2 + 1]
    batch = node_arrays(axes, Rx, Ry)
    z = grid_points(axes)
    phase_x = np.exp(1j * grid.eta * (Rx @ z.T))
    phase_y = np.exp(-1j * grid.eta * (Ry @ z.T))
    t = (ix // Lk)[:, None, :] - (iy // Lk)[None, :, :]
    out = np.empty(t.shape[:2])
    per = max(1, NODE_BLOCK_BYTES // max(1, 16 * len(z) * len(Ry)))
    shape, nodes = tuple(map(len, axes)), tuple(range(2, 2 + d))
    for lo in range(0, len(Rx), per):
        block = slice(lo, lo + per)
        A = batch(block) * phase_x[block, None] * phase_y
        A = A.reshape(A.shape[:2] + shape)
        K = np.fft.irfftn(A, s=(M0,) * d, axes=nodes)
        rows = np.flatnonzero((cx >= lo) & (cx < lo + per))
        out[rows] = K[(cx[rows, None] - lo, cy) + tuple(np.moveaxis(t[rows] % M0, -1, 0))]
    out *= 1 - 2 * (t.sum(axis=-1) % 2)
    out *= np.exp(-(t @ q))
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
    unit lattice (``G(x, t + r) = G(x - t, r)``).  So the pieces of each
    ``NodeBlock``'s shift solve are contracted over the shifts once per class:
    ``D = w e_{x-y}``, ``H = (w U) e_x``, ``K = (w Ubar) e_{-y}`` (at real
    nodes one product with ``[e_x | conj e_{-y}]``); the node
    array ``D - a_k H beta + x0`` with ``beta = (Ubar_0 + Delta_0 K) / den``
    and ``x0 = (c0 - a_k U_0 K) / den`` is summed against ``e^{i p (x - y)}``
    by one inverse FFT over the base nodes per pair of classes
    (``_class_sums``).
    """
    Lk = grid.shifts_per_axis

    def node_arrays(axes, Rx, Ry):
        diff, m = _classes(Rx[:, None, :] - Ry[None, :, :], Lk)
        Ed, Ex, Ey = (_shift_phases(grid, R) for R in (diff, Rx, -Ry))

        EK = np.concatenate([Ex, Ey.conj()], axis=1)

        def legs(blk):
            if blk.wUbar is None:   # real nodes: w Ubar = conj(w U)
                H, K = np.split(blk.wU @ EK, [len(Rx)], axis=1)
                K = K.conj()
            else:
                H, K = blk.wU @ Ex, blk.wUbar @ Ey
            den = blk.den[:, None]
            # D by one complex GEMM: numpy's real @ complex matmul is slower
            return (blk.w.astype(complex, copy=False) @ Ed, blk.a * H,
                    (blk.Ubar0[:, None] + blk.Delta0[:, None] * K) / den,
                    (blk.c0[:, None] - blk.a * blk.U0[:, None] * K) / den)

        D, aH, beta, x0 = _class_legs(legs, axes, grid, params)
        return lambda block: D[m[block]] - aH[block, None] * beta + x0

    return _class_sums(grid, shift_q, xs, ys, node_arrays)


def free_kernel_gq(xs, ys, grid: TorusGrid, params: MultiscaleParams,
                   shift_q=None) -> np.ndarray:
    """Kernel ``(G_k Q_k*)(x, y)`` for fine positions ``xs`` and unit-lattice ``ys``.

    The sources form the one class ``r = 0``, so the node array is
    ``NodeBlock.solve_u`` contracted over the shifts against ``e_x`` (see
    ``free_kernel_g``).
    """

    def node_arrays(axes, Rx, Ry):
        Ex = _shift_phases(grid, Rx)
        X, = _class_legs(lambda blk: (blk.solve_u() @ Ex,), axes, grid, params)
        return lambda block: X[block, None]

    return _class_sums(grid, shift_q, xs, ys, node_arrays)


def converge_kernel(evaluate, grid: TorusGrid, tol: float = 1e-8):
    """Drive ``evaluate(grid) -> ndarray`` to quadrature self-convergence.

    Doubles ``M``, at most ``MAX_DOUBLINGS`` times, until the max relative
    change (against the max magnitude of the current values) drops below
    ``tol``.  Returns ``(values, grid_used, last_delta)``.
    """
    vals = np.asarray(evaluate(grid))
    for _ in range(MAX_DOUBLINGS):
        finer = grid.refined()
        new = np.asarray(evaluate(finer))
        scale = max(np.max(np.abs(new)), 1e-300)
        delta = float(np.max(np.abs(new - vals)) / scale)
        vals, grid = new, finer
        if delta <= tol:
            return vals, grid, delta
    raise GridConvergenceError(
        f"quadrature not stable at tol={tol} after {MAX_DOUBLINGS} doublings "
        f"(last change {delta:.3e})")


def contour_shift_change(grid: TorusGrid, params: MultiscaleParams, q: float,
                         tol: float = 1e-8) -> float:
    """Relative change of ``G_k(0, 2 e)`` when the contour moves to ``p + i q e_0``.

    The unshifted kernel is driven to quadrature self-convergence at ``tol``
    from ``grid``; the shifted one is evaluated on the grid it converged on.
    By analyticity the change is quadrature error only; both kernels take
    the one route of ``_class_sums``, so no two codes are compared.
    """
    d = grid.d
    x = np.zeros((1, d))
    y = np.full((1, d), 2.0)
    base, used, _ = converge_kernel(
        lambda g: free_kernel_g(x, y, g, params), grid, tol=tol)
    qv = np.zeros(d)
    qv[0] = q
    shifted = free_kernel_g(x, y, used, params, shift_q=qv)
    return float(np.max(np.abs(shifted - base)) / np.max(np.abs(base)))


def _shift_layout(grid: TorusGrid) -> np.ndarray:
    """Flat big-torus index of every (base node, shift) pair, shape
    ``(base_count**d, S)``: ``ShiftSystem``'s node-by-shift layout.  Per axis,
    sample ``s * base_count + b`` (``full_nodes_1d``) is base node ``b``
    moved by shift ``s``."""
    M, Lk, M0 = grid.M, grid.shifts_per_axis, grid.base_count
    return _axis_outer(lambda x, y: x * M + y, [np.arange(M).reshape(Lk, M0).T] * grid.d)


def _to_shift_layout(arr, grid: TorusGrid) -> np.ndarray:
    """Gather big-torus samples ``(M,)*d`` into the ``(base_count**d, S)`` layout."""
    return np.asarray(arr, dtype=complex).ravel()[_shift_layout(grid)]


def _from_shift_layout(a, grid: TorusGrid) -> np.ndarray:
    """Scatter a ``(base_count**d, S)`` array back onto the big torus ``(M,)*d``."""
    out = np.empty(grid.M**grid.d, dtype=complex)
    out[_shift_layout(grid)] = a
    return out.reshape((grid.M,) * grid.d)


def free_symbol_apply(f_hat, grid: TorusGrid, params: MultiscaleParams) -> np.ndarray:
    """Apply the symbol of ``-Lap + mu_bar_k + a_k Q_k* Q_k`` to big-torus samples."""
    sys = build_shift_system(grid, params)
    return _from_shift_layout(sys.apply(_to_shift_layout(f_hat, grid)), grid)


def free_apply_ghat(f_hat, grid: TorusGrid, params: MultiscaleParams) -> np.ndarray:
    """Apply ``G_k`` in Fourier space to samples of ``f_hat`` on the big torus.

    The shift system is solved at every base node; the massless momentum-zero
    node is regular because the averaging coupling fills the Laplacian kernel.
    """
    sys = build_shift_system(grid, params)
    return _from_shift_layout(sys.solve(_to_shift_layout(f_hat, grid)), grid)


def _axis_waves(patch: FreePatch, grid: TorusGrid, sign: float) -> list:
    """Per axis, ``exp(sign i k x)`` between the big-torus momenta ``k`` and
    the patch coordinates ``x`` of that axis, shape ``(M, side)``."""
    k = grid.full_nodes_1d()
    return [np.exp(sign * 1j * np.outer(k, np.arange(lo, hi + 1) * patch.spacing))
            for lo, hi in zip(patch.lo, patch.hi)]


def patch_fourier_samples(patch: FreePatch, values, grid: TorusGrid) -> np.ndarray:
    """Exact Fourier transform of a compactly supported patch function at grid nodes."""
    f = np.asarray(values, dtype=complex).reshape(patch.shape)
    for wave in _axis_waves(patch, grid, -1.0):
        f = np.tensordot(f, wave, axes=([0], [1]))    # next patch axis -> momentum axis
    return (2.0 * np.pi) ** (-patch.d / 2.0) * patch.spacing**patch.d * f


def patch_inverse_fourier(f_hat, patch: FreePatch, grid: TorusGrid) -> np.ndarray:
    """Quadrature inverse transform back onto the patch sites."""
    f = np.asarray(f_hat, dtype=complex).reshape((grid.M,) * patch.d)
    for wave in _axis_waves(patch, grid, 1.0):
        f = np.tensordot(f, wave, axes=([0], [0]))    # next momentum axis -> patch axis
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


def qkqk_fourier(patch: FreePatch, values, grid: TorusGrid,
                 params: MultiscaleParams) -> np.ndarray:
    """``Q_k* Q_k f`` through the Fourier shift formula: transform, apply the
    rank-one shift coupling ``U U^*``, transform back; ``params`` is not read."""
    L, k = grid.L, grid.k
    U = _axis_outer(np.multiply, [_axis_symbols(n, L, k)[0] for n in _axis_nodes(grid)])
    v = _to_shift_layout(patch_fourier_samples(patch, values, grid), grid)
    ghat = U * np.sum(np.conj(U) * v, axis=1, keepdims=True)
    return patch_inverse_fourier(_from_shift_layout(ghat, grid), patch, grid)


def qkqk_fourier_residual(patch: FreePatch, values, grid: TorusGrid,
                          params: MultiscaleParams) -> float:
    """Max pointwise discrepancy between spatial block means and the Fourier route."""
    spatial = qkqk_spatial(patch, values)
    fourier = qkqk_fourier(patch, values, grid, params)
    return float(np.max(np.abs(spatial - fourier)))


# ---------------------------------------------------------------------------
# Strip machinery: the integrand ``M^{-1} U`` and its bounds
# ---------------------------------------------------------------------------

def _strip_floor(large_mass: bool, a_k: float, eta: float, d: int) -> float:
    """Floor below which the strip denominator of the given mass branch is a violation."""
    if large_mass:
        return DENOMINATOR_FLOOR
    return DENOMINATOR_FLOOR * (a_k * eta**2 / 4.0) * (2.0 / np.pi) ** (2 * d)


def _strip_solve(blk: NodeBlock, L: int, k: int, params: MultiscaleParams):
    """``H = M^{-1} U`` (n, S) of the node block ``blk`` at level ``k`` and
    the margin of each node's strip denominator over its floor, (n,).

    The strip denominator is ``den / Delta_0 = det M / prod_l Delta_l`` in the
    large-mass branch and ``(eta**2/4) den`` in the small-mass branch, where
    ``Delta_0`` may vanish; a node below the floor raises ``StripViolationError``.
    """
    eta, d = float(L) ** (-k), len(blk.axis_nodes)
    large_mass = params.mu0 / 4.0 >= params.c_star * eta**2
    denom = np.abs(blk.den / blk.Delta0 if large_mass
                   else (eta**2 / 4.0) * blk.den)
    floor = _strip_floor(large_mass, blk.a, eta, d)
    below = np.flatnonzero(denom < floor)
    if below.size:
        z = grid_points(blk.axis_nodes)[below[0]]
        raise StripViolationError(
            f"denominator {denom[below[0]]:.3e} below floor {floor:.3e} at z={z}")
    return blk.solve_u(), denom / floor


def h_function(z, ell_prime, L: int, k: int, params: MultiscaleParams):
    """Strip integrand ``u_Delta(z + 2 pi ell') / (1 + a_k <<u, u_Delta>>(z))``.

    This is the ``ell'`` entry of ``M(z)^{-1} U(z)``.  ``u`` and ``Delta``
    are ``L**k``-periodic in the shift, so each ``ell'`` row is reduced modulo
    ``L**k`` onto the shift set and read off the one shift system at ``z``.
    Raises ``StripViolationError`` when the denominator drops below its floor.
    """
    z = np.asarray(z, dtype=complex)
    H, _ = _strip_solve(next(_node_blocks(z[:, None], L, k, params)), L, k, params)
    Lk = L**k
    first = -(Lk - 1) // 2   # the first shift per axis, as in shift_vectors
    ells = np.rint(np.atleast_2d(np.asarray(ell_prime, dtype=float))).astype(np.int64)
    out = H[0, np.ravel_multi_index(tuple(((ells - first) % Lk).T), (Lk,) * len(z))]
    return out[0] if np.ndim(ell_prime) == 1 else out


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
    A denominator-floor breach raises rather than being recorded.
    """
    ells = shift_vectors(d, L, k)
    weights = np.prod((1.0 + np.abs(ells)) ** (1.0 + 2.0 / d), axis=-1)

    p_axis = -np.pi + (np.arange(p_samples) + 0.5) * 2.0 * np.pi / p_samples
    q_list = [np.zeros(d)]
    for mu in range(d):
        e = np.zeros(d)
        e[mu] = q_max
        q_list += [e, -e]
    q_list.append(np.full(d, q_max / np.sqrt(d)))

    per_shift = np.zeros(len(ells))
    min_margin = np.inf
    for q in q_list:
        blocks = _node_blocks([p_axis + 1j * qm for qm in q], L, k, params)
        for H, margin in map(lambda blk: _strip_solve(blk, L, k, params), blocks):
            min_margin = min(min_margin, float(np.min(margin)))
            per_shift = np.maximum(per_shift, np.max(np.abs(H) * weights, axis=0))
    table = {tuple(e.astype(int)): float(v) for e, v in zip(ells, per_shift)}
    return StripBoundReport(d=d, L=L, k=k, q_max=q_max,
                            weighted_sup=float(per_shift.max()), per_shift_sup=table,
                            min_denominator_margin=float(min_margin),
                            p_samples=p_samples)


# ---------------------------------------------------------------------------
# Grid checks of the scalar inequalities behind the strip bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    name: str
    worst: float
    worst_refined: float

    @property
    def drift(self) -> float:
        lo, hi = sorted((self.worst, self.worst_refined))
        return hi / lo if lo > 0 else np.inf


def _strip_grid(n: int, re_lim: float, im_lim: float) -> np.ndarray:
    p = np.linspace(-re_lim, re_lim, n)
    q = np.linspace(-im_lim, im_lim, max(3, n // 4))
    return (p[:, None] + 1j * q[None, :]).ravel()


def _sinc_floor(n: int) -> float:
    z = _strip_grid(n, np.pi / 2.0, 1.0)
    return float(np.min(np.abs(_sinc(z))))


def _ell_distance_ratio(n: int) -> float:
    z = _strip_grid(n, np.pi, 1.0)
    worst = np.inf
    for ell in range(-20, 21):
        if ell == 0:
            continue
        ratio = np.abs(z - 2.0 * np.pi * ell) / ((np.pi / 2.0) * (1 + abs(ell)))
        worst = min(worst, float(np.min(ratio)))
    return worst


def _one_plus_ratio(n: int) -> float:
    z = _strip_grid(n, np.pi, 1.0)
    z = z[np.abs(z) > 1e-9]
    worst = np.inf
    for ell in range(-20, 21):
        ratio = np.abs(1.0 + 2.0 * np.pi * ell / z) / ((1 + abs(ell)) / 6.0)
        worst = min(worst, float(np.min(ratio)))
    return worst


def _length_vs_sin_ratio(n: int, L: int, k: int, delta: float) -> float:
    """Worst ratio (sum |z eta/2 + pi l eta|^2) / |sum sin^2(...) + delta|, l != 0."""
    eta = float(L) ** (-k)
    z = _strip_grid(n, np.pi, 1.0)
    worst = 0.0
    lmax = (L**k - 1) // 2
    for ell in range(-min(lmax, 20), min(lmax, 20) + 1):
        if ell == 0:
            continue
        w = z * eta / 2.0 + np.pi * ell * eta
        num = np.abs(w) ** 2
        den = np.abs(np.sin(w) ** 2 + delta)
        worst = max(worst, float(np.max(num / den)))
    return worst


def _der_product_ratio(n: int, L: int, k: int) -> float:
    """Worst ``|d/dz (sin^2(z/2)/sin^2((z+2pi l) eta/2))| eta^2 (1+|l|)^2`` (d = 1)."""
    eta = float(L) ** (-k)
    z = _strip_grid(n, np.pi, 1.0)
    h = 1e-6
    worst = 0.0
    lmax = min((L**k - 1) // 2, 20)
    # sin^2(z/2) / sin^2(Z eta/2) at Z = z + 2 pi l is u_axis(Z) u_axis(-Z) / eta^2
    f = lambda Z: u_axis(Z, eta) * u_axis(-Z, eta) / eta**2
    for ell in range(-lmax, lmax + 1):
        Z = z + 2.0 * np.pi * ell
        der = (f(Z + h) - f(Z - h)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(der))) * eta**2 * (1 + abs(ell)) ** 2)
    return worst


def technical_bounds_report(n_grid: int = 41) -> list[BoundCheck]:
    """Grid worst cases for the scalar strip inequalities, at two refinement levels.

    Each check reports the extreme value of (left side)/(right side without
    its constant); the contract downstream is finiteness plus stability
    under refining the grid by 2x.
    """
    checks = []
    checks.append(BoundCheck("sinc_lower_bound",
                             _sinc_floor(n_grid), _sinc_floor(2 * n_grid)))
    checks.append(BoundCheck("shifted_distance_lower",
                             _ell_distance_ratio(n_grid), _ell_distance_ratio(2 * n_grid)))
    checks.append(BoundCheck("one_plus_shift_lower",
                             _one_plus_ratio(n_grid), _one_plus_ratio(2 * n_grid)))
    for (L, k) in ((3, 1), (3, 2), (3, 3)):
        for delta in (0.0, 0.1):
            checks.append(BoundCheck(
                f"length_vs_sin_L{L}k{k}_delta{delta}",
                _length_vs_sin_ratio(n_grid, L, k, delta),
                _length_vs_sin_ratio(2 * n_grid, L, k, delta)))
        checks.append(BoundCheck(
            f"derivative_product_L{L}k{k}",
            _der_product_ratio(n_grid, L, k),
            _der_product_ratio(2 * n_grid, L, k)))
    return checks
