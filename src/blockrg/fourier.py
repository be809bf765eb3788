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
formula, never stored or inverted as an ``S x S`` matrix: its nodes are rows
of ``multiscale.RankOneRows`` (the formula is ``_zero_column``), the solver
of the DCT-class tower too.  The whole-grid ``ShiftSystem`` is such rows, and
so are the node blocks that the kernels and the strip read.  The formula is
used multiplied through by ``Delta_0``, the symbol of the zero shift, and the
zero-shift term is split off the diagonal sum.  What remains divides only by
the nonzero-shift symbols and by ``Delta_0 (1 + a_k sum_{l!=0} Ubar_l U_l /
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
build of the node blocks, and ``converge_plans`` drives them up one ladder
of grid doublings, each from its own start grid to its own first stable
doubling.  ``M`` itself is applied from its symbols, with no division
(``free_symbol_apply``).

Every per-axis symbol has ``conj f(Z) = f(-conj Z)`` (``sin^2`` and ``sinc``
are even with real coefficients, and ``conj e^{-icZ} = e^{-ic(-conj Z)}``),
and so have the class phases.  ``z -> -conj z`` sends ``p + i q`` to
``-p + i q`` on the same contour and the shift ``l`` to ``-l`` (L odd), so
on every contour the kernels' node arrays are Hermitian in the node: half
the nodes are solved, ``irfftn`` sums them, and the kernels are real.  The
strip integrand ``H = M^{-1} U`` is ``RankOneRows.solve_u`` at complex
nodes ``p + i q``.  One builder, ``_node_symbols``, makes the rows' symbols
at any set of nodes: for the whole grid (``build_shift_system``), for
``free_symbol_apply`` and for the bounded blocks of nodes that kernels and
strip build (``_node_blocks``), cached nowhere: a kernel keeps only its
contracted ``(classes, nodes)`` legs, and only through its transforms.
Node blocks and class slices are cut by the package's one byte-budget
slicer, ``multiscale._batches``, within ``NODE_BLOCK_BYTES``.

Symbols take complex arguments everywhere, which is what operational
analyticity checks (contour shifts) and the strip bounds rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import FreePatch, _axis_outer, grid_points
from .multiscale import MultiscaleParams, RankOneRows, _batches

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
    """``n`` shift matrices of size ``S x S`` as O(n S) factor arrays, counted by ``nbytes``."""

    factors: tuple

    @property
    def nbytes(self) -> int:
        return sum(f.nbytes for f in self.factors)


class ShiftSystem(RankOneRows):
    """Per-node shift matrices ``M = diag(Delta) + a_k U Ubar^T`` of the defining operator.

    The ``n`` nodes, rows of ``multiscale.RankOneRows`` (``a = a_k``), are
    the row-major base nodes of a grid; the shifts are the S rows of
    ``shift_vectors``, the zero shift at index ``zero``.  ``den`` is positive
    at real momenta.  ``Mmat`` holds the factors that fix ``M`` and ``Minv``
    the one more ``solve`` reads, ``c0``: their ``nbytes`` count every array
    the system stores, each once.
    """

    @property
    def Mmat(self) -> FactoredStack:
        factors = (self.w, self.wU, self.wUbar, self.Delta0, self.U0, self.Ubar0)
        return FactoredStack(tuple(f for f in factors if f is not None))

    @property
    def Minv(self) -> FactoredStack:
        return FactoredStack((self.c0,))


def _node_symbols(axis_nodes, L: int, k: int, params: MultiscaleParams) -> tuple:
    """``RankOneRows.build``'s ``(Delta, U, Ubar, a_k, zero)`` at the row-major
    products of the per-axis momenta ``axis_nodes``: ``Delta`` (the mass on
    the first axis), ``U`` and ``Ubar`` each a new (n, S) array from the
    per-axis symbols on each axis's (node, shift) grid, ``zero`` the zero
    shift's index in ``shift_vectors`` (the middle row, ``L`` odd).  At real
    nodes ``Delta`` is real and ``Ubar = conj U`` (see the module docstring)
    is None.  The one builder of the shift systems' rows."""
    eta = float(L) ** (-k)
    Z = [shifted_momenta(nodes[:, None], shift_vectors(1, L, k))[..., 0] for nodes in axis_nodes]
    real = not any(np.any(nodes.imag) for nodes in axis_nodes)
    lap = [lap_star(z[..., None], L, k, 0.0) for z in Z]
    lap = [(4.0 / eta**2) * (s.real if real else s) for s in lap]
    lap[0] = lap[0] + params.mu_bar(L, k)
    return (_axis_outer(np.add, lap), _axis_outer(np.multiply, [u_axis(z, eta) for z in Z]),
            None if real else _axis_outer(np.multiply, [u_axis(-z, eta) for z in Z]),
            params.a_j(L, max(k, 1)),   # k = 0: the bare coefficient a
            L ** (k * len(axis_nodes)) // 2)


def _node_blocks(axis_nodes, L: int, k: int, params: MultiscaleParams):
    """The shift systems' ``RankOneRows`` over blocks of consecutive first-axis
    nodes, in node order: ``_batches`` of as many as keep one complex
    ``(nodes, S)`` array within ``NODE_BLOCK_BYTES``, and at least one.
    Callers drop each block before the next is built."""
    axis_nodes = [np.asarray(nodes, dtype=complex) for nodes in axis_nodes]
    row_bytes = 16 * math.prod(len(n) for n in axis_nodes[1:]) * (L**k) ** len(axis_nodes)
    for block in _batches(len(axis_nodes[0]), row_bytes, NODE_BLOCK_BYTES):
        yield RankOneRows.build(*_node_symbols([axis_nodes[0][block]] + axis_nodes[1:],
                                               L, k, params))


def _axis_nodes(grid: TorusGrid, shift_q=None) -> list:
    """The base nodes of ``grid`` per axis, moved to ``p + i shift_q``."""
    q = np.zeros(grid.d) if shift_q is None else np.asarray(shift_q, dtype=float)
    return list(grid.base_nodes_1d()[None, :] + 1j * q[:, None])


def build_shift_system(grid: TorusGrid, params: MultiscaleParams,
                       shift_q=None) -> ShiftSystem:
    """The shift system at the base nodes of ``grid``, moved to ``p + i shift_q``."""
    return ShiftSystem.build(*_node_symbols(_axis_nodes(grid, shift_q), grid.L, grid.k, params))


def _shift_phases(grid: TorusGrid, residues) -> np.ndarray:
    """``exp(2 pi i l . rho / Lk)`` for every shift ``l`` and residue row ``rho``,
    (S, len(residues)): ``A @`` this contracts ``A`` over its shifts per class."""
    shifts = shift_vectors(grid.d, grid.L, grid.k)
    return np.exp(2j * np.pi / grid.shifts_per_axis * (shifts @ residues.T))


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
    their signs; a subclass adds its shift phases, contracts a node block
    over the shifts (``legs(blk)``, (nodes, classes) arrays) and forms the
    node array of a slice of x classes from the legs laid out (classes,
    nodes) (``node_array(legs, block)``, (x classes, y classes, nodes)).
    ``grid`` is the plan's start grid in ``converge_plans``."""

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

    def fill(self, legs, blk, lo: int, n: int) -> list:
        """The plan's legs, (classes, n) arrays allocated on the first block
        (``legs`` None), with the node block ``blk``'s written in place from
        column ``lo`` on."""
        parts = self.legs(blk)
        legs = legs or [np.empty((p.shape[1], n), p.dtype) for p in parts]
        for leg, p in zip(legs, parts):
            leg[:, lo:lo + len(p)] = p.T
        return legs

    def sums(self, grid: TorusGrid, q, axes, legs) -> np.ndarray:
        """``(1/n) sum_p e^{i p (x - y)} F(p)`` over the ``n`` base nodes ``p``
        of ``grid`` moved to ``p + i q`` for all pairs of position rows, from
        the plan's ``legs`` at the nodes spanned by ``axes``.

        With ``x - y = L**k t + (rho_x - rho_y)`` and ``p = -pi + 2 pi b / M0
        + i q`` per axis, the sum is ``(-1)^{sum t} e^{-q t}`` times the
        inverse DFT over ``b`` of ``e^{i eta p (rho_x - rho_y)} F``, read at
        ``t mod M0``: one transform per pair of classes serves every offset.
        The x classes are taken in slices whose complex batch stays within
        ``NODE_BLOCK_BYTES``, at least one class per slice.  The transformed
        array is Hermitian in ``b`` on every contour (module docstring;
        ``b = 0`` pairs with ``b = M0``): ``axes`` holds only the last-axis
        nodes ``b <= M0/2``, and ``irfftn`` returns a real kernel."""
        d, M0 = grid.d, grid.base_count
        cx, cy, t = self.cx, self.cy, self.t
        z = grid_points(axes)
        phase_x = np.exp(1j * grid.eta * (self.Rx @ z.T))
        phase_y = np.exp(-1j * grid.eta * (self.Ry @ z.T))
        out = np.empty(t.shape[:2])
        shape, nodes = tuple(map(len, axes)), tuple(range(2, 2 + d))
        for block in _batches(len(self.Rx), 16 * len(z) * len(self.Ry), NODE_BLOCK_BYTES):
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
    array ``D - a_k H beta + x0`` (``free_kernel_g``)."""

    def __init__(self, xs, ys, grid: TorusGrid):
        super().__init__(xs, ys, grid)
        diff, self.m = _classes(self.Rx[:, None, :] - self.Ry[None, :, :], grid.shifts_per_axis)
        self.Ed, self.Ex, self.Ey = (_shift_phases(grid, R) for R in (diff, self.Rx, -self.Ry))
        self.EK = np.concatenate([self.Ex, self.Ey.conj()], axis=1)

    def legs(self, blk) -> tuple:
        if blk.wUbar is None:   # real nodes: w Ubar = conj(w U)
            H, K = np.split(blk.wU @ self.EK, [len(self.Rx)], axis=1)
            K = K.conj()
        else:
            H, K = blk.wU @ self.Ex, blk.wUbar @ self.Ey
        # D by one complex GEMM: numpy's real @ complex matmul is slower
        return (blk.w.astype(complex, copy=False) @ self.Ed, blk.a * H,
                *blk._zero_column(np.s_[:, None], 1, K))

    def node_array(self, legs, block) -> np.ndarray:
        D, aH, beta, x0 = legs
        return D[self.m[block]] - aH[block, None] * beta + x0


class GQPlan(KernelPlan):
    """The plan of ``G_k Q_k*``: one leg, ``RankOneRows.solve_u`` contracted
    against ``e_x`` (``free_kernel_gq``)."""

    def __init__(self, xs, ys, grid: TorusGrid):
        super().__init__(xs, ys, grid)
        self.Ex = _shift_phases(grid, self.Rx)

    def legs(self, blk) -> tuple:
        return (blk.solve_u() @ self.Ex,)

    def node_array(self, legs, block) -> np.ndarray:
        return legs[0][block, None]


def evaluate_plans(plans, grid: TorusGrid, params: MultiscaleParams, shift_q=None) -> list:
    """The kernel of every plan on ``grid``, its base nodes moved to ``p + i
    shift_q``.  One ``_node_blocks`` pass over the nodes ``b <= M0/2`` of
    the last axis fills every plan's legs in place, block by block; then
    each plan's sums run, the plan with the smallest legs first, and its
    legs are dropped after them."""
    q = np.zeros(grid.d) if shift_q is None else np.asarray(shift_q, dtype=float)
    axes = _axis_nodes(grid, q)
    axes[-1] = axes[-1][:grid.base_count // 2 + 1]
    n = math.prod(map(len, axes))
    legs, lo = [None] * len(plans), 0
    for blk in _node_blocks(axes, grid.L, grid.k, params):
        legs = [plan.fill(plan_legs, blk, lo, n) for plan, plan_legs in zip(plans, legs)]
        lo += len(blk.c0)
        del blk     # before the next block is built, and before the sums
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
    unit lattice (``G(x, t + r) = G(x - t, r)``).  So the pieces of each
    node block's shift solve are contracted over the shifts once per class:
    ``D = w e_{x-y}``, ``H = (w U) e_x``, ``K = (w Ubar) e_{-y}`` (at real
    nodes one product with ``[e_x | conj e_{-y}]``); the node
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
    ``RankOneRows.solve_u`` contracted over the shifts against ``e_x`` (see
    ``free_kernel_g``).  This is ``GQPlan`` evaluated once.
    """
    return evaluate_plans([GQPlan(xs, ys, grid)], grid, params, shift_q)[0]


def _ladder(starts, evaluate, tol: float) -> list:
    """Drive several entries to quadrature self-convergence on one ladder of
    grids.  Entry ``i`` is evaluated on ``starts[i]`` and its doublings, at
    most ``MAX_DOUBLINGS``, until the max relative change (against the max
    magnitude of its current values) drops below ``tol``; each step takes
    the smallest grid some pending entry needs next, and ``evaluate(grid,
    live)`` returns the values of all the entries ``live`` that need it.
    Returns ``(values, grid_used, last_delta)`` per entry."""
    vals, out, nxt = [None] * len(starts), [None] * len(starts), list(starts)
    while pending := [i for i, o in enumerate(out) if o is None]:
        grid = min((nxt[i] for i in pending), key=lambda g: g.M)
        live = [i for i in pending if nxt[i] == grid]
        for i, new in zip(live, evaluate(grid, live)):
            new, nxt[i] = np.asarray(new), grid.refined()
            if vals[i] is not None:
                scale = max(np.max(np.abs(new)), 1e-300)
                delta = float(np.max(np.abs(new - vals[i])) / scale)
                if delta <= tol:
                    out[i] = new, grid, delta
                elif grid.M == starts[i].M << MAX_DOUBLINGS:
                    raise GridConvergenceError(
                        f"quadrature not stable at tol={tol} after {MAX_DOUBLINGS} "
                        f"doublings (last change {delta:.3e})")
            vals[i] = new
    return out


def converge_kernel(evaluate, grid: TorusGrid, tol: float = 1e-8):
    """Drive ``evaluate(grid) -> ndarray`` from ``grid`` to quadrature
    self-convergence, the one-entry ``_ladder``: ``(values, grid_used,
    last_delta)``."""
    return _ladder([grid], lambda g, live: [evaluate(g)], tol)[0]


def converge_plans(plans, params: MultiscaleParams, tol: float = 1e-8) -> list:
    """``converge_kernel`` for every plan on one ladder: each plan starts at its
    own ``grid`` and stops at its own first stable doubling, and each grid
    of the ladder makes one ``evaluate_plans`` pass, one node build, for the
    plans that need it.  Returns ``(values, grid_used, last_delta)`` per plan."""
    return _ladder([p.grid for p in plans],
                   lambda g, live: evaluate_plans([plans[i] for i in live], g, params), tol)


def contour_shift_change(grid: TorusGrid, params: MultiscaleParams, q: float,
                         tol: float = 1e-8) -> float:
    """Relative change of ``G_k(0, 2 e)`` when the contour moves to ``p + i q e_0``.

    The unshifted kernel is driven to quadrature self-convergence at ``tol``
    from ``grid``; the shifted one is evaluated by the same plan on the grid
    it converged on.  By analyticity the change is quadrature error only;
    both kernels take the one route of ``KernelPlan.sums``, so no two codes
    are compared.
    """
    d = grid.d
    plan = GPlan(np.zeros((1, d)), np.full((1, d), 2.0), grid)
    (base, used, _), = converge_plans([plan], params, tol)
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


def _to_shift_layout(arr, grid: TorusGrid) -> np.ndarray:
    """Big-torus samples ``(M,)*d`` in the node-by-shift ``(base_count**d, S)`` layout."""
    return _shift_view(np.asarray(arr, dtype=complex), grid).reshape(grid.base_count**grid.d, -1)


def _from_shift_layout(a, grid: TorusGrid) -> np.ndarray:
    """A ``(base_count**d, S)`` array back on the big torus ``(M,)*d``."""
    out = np.empty((grid.M,) * grid.d, dtype=complex)
    view = _shift_view(out, grid)
    view[...] = np.reshape(a, view.shape)
    return out


def free_symbol_apply(f_hat, grid: TorusGrid, params: MultiscaleParams) -> np.ndarray:
    """Apply the symbol of ``-Lap + mu_bar_k + a_k Q_k* Q_k`` to big-torus
    samples: ``M v = Delta v + a_k U (Ubar^T v)`` from the symbols, with
    ``Ubar = conj U`` on the real contour and no shift system."""
    v = _to_shift_layout(f_hat, grid)
    Delta, U, _, a_k, _ = _node_symbols(_axis_nodes(grid), grid.L, grid.k, params)
    return _from_shift_layout(Delta * v + a_k * U * np.sum(U.conj() * v, axis=1, keepdims=True),
                              grid)


def free_apply_ghat(f_hat, grid: TorusGrid, params: MultiscaleParams) -> np.ndarray:
    """Apply ``G_k`` in Fourier space to samples of ``f_hat`` on the big torus.

    The shift system is solved at every base node; the massless momentum-zero
    node is regular because the averaging coupling fills the Laplacian kernel.
    """
    v = _to_shift_layout(f_hat, grid)
    return _from_shift_layout(build_shift_system(grid, params).solve(v), grid)


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


def qkqk_fourier(patch: FreePatch, values, grid: TorusGrid) -> np.ndarray:
    """``Q_k* Q_k f`` through the Fourier shift formula: transform, apply the
    rank-one shift coupling ``U U^*``, transform back.  ``U`` reads no params."""
    U = _node_symbols(_axis_nodes(grid), grid.L, grid.k, MultiscaleParams())[1]
    v = _to_shift_layout(patch_fourier_samples(patch, values, grid), grid)
    ghat = U * np.sum(np.conj(U) * v, axis=1, keepdims=True)
    return patch_inverse_fourier(_from_shift_layout(ghat, grid), patch, grid)


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
    strip denominator over its floor, (n,), per block of ``_node_blocks``.

    The strip denominator is ``den / Delta_0 = det M / prod_l Delta_l`` in the
    large-mass branch and ``(eta**2/4) den`` in the small-mass branch, where
    ``Delta_0`` may vanish; a node below the floor raises ``StripViolationError``.
    """
    eta, d = float(L) ** (-k), len(axis_nodes)
    large_mass = params.mu0 / 4.0 >= params.c_star * eta**2
    start = 0
    for blk in _node_blocks(axis_nodes, L, k, params):
        denom = np.abs(blk.den / blk.Delta0 if large_mass else (eta**2 / 4.0) * blk.den)
        floor = _strip_floor(large_mass, blk.a, eta, d)
        below = np.flatnonzero(denom < floor)
        if below.size:
            z = grid_points(axis_nodes)[start + below[0]]
            raise StripViolationError(
                f"denominator {denom[below[0]]:.3e} below floor {floor:.3e} at z={z}")
        start += len(denom)
        yield blk.solve_u(), denom / floor


def h_function(z, ell_prime, L: int, k: int, params: MultiscaleParams):
    """Strip integrand ``u_Delta(z + 2 pi ell') / (1 + a_k <<u, u_Delta>>(z))``.

    This is the ``ell'`` entry of ``M(z)^{-1} U(z)``.  ``u`` and ``Delta``
    are ``L**k``-periodic in the shift, so each ``ell'`` row is reduced modulo
    ``L**k`` onto the shift set and read off the one shift system at ``z``.
    Raises ``StripViolationError`` when the denominator drops below its floor.
    """
    z = np.asarray(z, dtype=complex)
    H, _ = next(_strip_solve(z[:, None], L, k, params))
    Lk = L**k
    first = int(shift_vectors(1, L, k)[0, 0])
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

    Z = lambda z, l: shifted_momenta(z, l[:, None])[..., 0]
    wide, h = shift_vectors(1, 41, 1)[:, 0], 1e-6
    sweep("sinc_lower_bound", np.pi / 2.0, np.zeros(1), lambda z, l: np.abs(_sinc(z)), np.min)
    sweep("shifted_distance_lower", np.pi, wide[wide != 0],
          lambda z, l: np.abs(Z(z, l)) / ((np.pi / 2.0) * (1 + np.abs(l))), np.min)
    sweep("one_plus_shift_lower", np.pi, wide,
          lambda z, l: np.abs(1.0 + 2.0 * np.pi * l / z) / ((1 + np.abs(l)) / 6.0), np.min)
    for L, k in ((3, 1), (3, 2), (3, 3)):
        eta, ells = float(L) ** (-k), shift_vectors(1, L, k)[:, 0]
        w = lambda z, l: z * eta / 2.0 + np.pi * l * eta     # (z + 2 pi l) eta / 2
        for delta in (0.0, 0.1):
            sweep(f"length_vs_sin_L{L}k{k}_delta{delta}", np.pi, ells[ells != 0],
                  lambda z, l: np.abs(w(z, l)) ** 2 / np.abs(np.sin(w(z, l)) ** 2 + delta), np.max)
        # |d/dz (sin^2(z/2) / sin^2(Z eta/2))| eta^2 (1+|l|)^2 by central differences;
        # the quotient is u_axis(Z) u_axis(-Z) / eta^2
        f = lambda Z: u_axis(Z, eta) * u_axis(-Z, eta) / eta**2
        sweep(f"derivative_product_L{L}k{k}", np.pi, ells,
              lambda z, l: (np.abs((f(Z(z, l) + h) - f(Z(z, l) - h)) / (2.0 * h))
                            * eta**2 * (1 + np.abs(l)) ** 2), np.max)
    return checks
