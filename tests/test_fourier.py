import re

import numpy as np
import pytest

from blockrg import fourier as fr, lattice as lat, multiscale as ms, operators as ops
from blockrg.multiscale import MultiscaleParams
from oracles import (base_nodes, free_laplacian_1d, interior_mask, laplacian_symbol,
                     patch_positions, patch_sites, technical_bounds_report, u_bar_kernel,
                     u_kernel)

P0 = MultiscaleParams()


def test_grid_validation():
    with pytest.raises(ValueError):
        fr.TorusGrid(1, 3, 1, 10)   # not a multiple of L**k
    with pytest.raises(ValueError):
        fr.TorusGrid(1, 3, 1, 6)    # below 4 L**k
    g = fr.TorusGrid(1, 3, 1, 24)
    assert g.base_count == 8
    assert len(fr.shift_vectors(g.d, g.L, g.k)) == 3
    assert g.full_nodes_1d()[0] == pytest.approx(-3 * np.pi)
    assert np.allclose(g.full_nodes_1d(), -3 * np.pi + 2 * np.pi * np.arange(24) / 8)


@pytest.mark.parametrize("d,L,k,M", [(1, 3, 1, 12), (2, 3, 1, 24), (2, 5, 1, 20), (3, 3, 1, 12)])
def test_shift_layout_round_trip_and_order(d, L, k, M):
    grid = fr.TorusGrid(d, L, k, M)
    x = np.random.default_rng(5).standard_normal((M,) * d) + 0j
    v = fr._shift_view(x, grid)
    assert v.shape == (grid.base_count,) * d + (L**k,) * d
    assert np.array_equal(fr._from_shift_layout(v, grid), x)
    # entry (nodes, shifts), each row-major, is the big-torus sample at base
    # node + 2 pi shift
    K = lat.grid_points([grid.full_nodes_1d()] * d)
    Z = fr.shifted_momenta(base_nodes(grid), fr.shift_vectors(d, L, k))
    for mu in range(d):
        rows = fr._shift_view(K[:, mu], grid).reshape(Z.shape[:2])
        assert np.array_equal(rows, Z[..., mu])


def test_u_at_zero_via_limit_oracle():
    # series oracle: evaluate the raw ratio at shrinking p
    eta = 1.0 / 3.0
    for p in (1e-3, 1e-5):
        raw = eta * (1 - np.exp(-1j * p)) / (1 - np.exp(-1j * p * eta))
        assert abs(u_kernel(np.array([p]), 3, 1) - raw) < 1e-10
    assert u_kernel(np.zeros(1), 3, 1) == pytest.approx(1.0)
    assert u_kernel(np.zeros(2), 3, 2) == pytest.approx(1.0)


def test_sinc_is_one_at_zero_without_warnings():
    # np.sinc: exactly 1 at 0, and sin(w)/w near it, with no 0/0
    w = np.array([0.0, 1e-12, 1e-6j, 1e-3 + 1e-3j, 3.0 - 1.0j])
    with np.errstate(all="raise"):
        got = fr._sinc(w)
    assert got[0] == 1.0
    assert np.max(np.abs(got[1:] - np.sin(w[1:]) / w[1:])) <= 1e-15


def test_u_trivial_at_k0():
    p = np.linspace(-2, 2, 9).reshape(-1, 1)
    assert np.allclose(u_kernel(p, 3, 0), 1.0)


def test_u_genuine_zeros():
    # at z = 2 pi ell (ell not a multiple of L^k) the symbol vanishes
    assert abs(u_kernel(np.array([2 * np.pi]), 3, 1)) < 1e-14


def test_laplacian_symbol_reference():
    assert laplacian_symbol(np.zeros(1), 3, 0, 0.0) == pytest.approx(0.0)
    assert laplacian_symbol(np.array([np.pi]), 3, 0, 0.0) == pytest.approx(4.0)
    # mass term: (4/eta^2) * mu0/4 = mu_bar_k
    val = laplacian_symbol(np.zeros(1), 3, 1, 0.4)
    assert val == pytest.approx(9 * 0.4)


def test_laplacian_symbol_vs_stencil_plane_wave():
    # oracle: free interior stencil applied to exp(i p x)
    L, k = 3, 1
    eta = 1.0 / 3.0
    patch = lat.FreePatch(d=1, L=L, k=k, lo=(-5,), hi=(5,))
    M = free_laplacian_1d(patch)
    pos = patch_positions(patch)[:, 0]
    rng = np.random.default_rng(1)
    for p in rng.uniform(-np.pi / eta, np.pi / eta, 5):
        wave = np.exp(1j * p * pos)
        applied = -(M @ wave)
        inner = interior_mask(patch)
        symbol = laplacian_symbol(np.array([p]), L, k, 0.0)
        assert np.max(np.abs(applied[inner] - symbol * wave[inner])) < 1e-12 * abs(symbol + 1)


def test_u_delta_periodicity():
    # the shifted family has period 2 pi L^k in each real direction
    L, k = 3, 1
    rng = np.random.default_rng(2)
    for _ in range(4):
        p = rng.uniform(0.2, np.pi, size=1)
        v1 = u_kernel(p, L, k) / laplacian_symbol(p, L, k, 0.0)
        v2 = (u_kernel(p + 2 * np.pi * L**k, L, k)
              / laplacian_symbol(p + 2 * np.pi * L**k, L, k, 0.0))
        assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_bracket_k0_single_term():
    p = np.array([0.7])
    lhs = fr.bracket(p, 3, 0, 0.3)
    rhs = abs(u_kernel(p, 3, 0)) ** 2 / laplacian_symbol(p, 3, 0, 0.3)
    assert lhs == pytest.approx(rhs)


def test_bracket_refuses_the_massless_pole():
    # Delta vanishes at z = 0, shift 0, only without a mass; the guard
    # raises before any division
    z = np.zeros((2, 2))
    with pytest.raises(fr.PoleProximityError):
        fr.bracket(z, 3, 1, 0.0)
    assert np.all(fr.bracket(z, 3, 1, 1e-3) > 0)
    assert np.all(fr.bracket(z + 0.5, 3, 1, 0.0) > 0)


@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_bracket_nonnegative_and_periodic(d, k):
    rng = np.random.default_rng(5)
    pts = rng.uniform(-np.pi, np.pi, size=(25, d))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.1]
    vals = fr.bracket(pts, 3, k, 0.0)
    assert np.max(np.abs(vals.imag)) < 1e-10 * np.max(vals.real)
    assert np.all(vals.real > -1e-12)
    shift = np.zeros(d)
    shift[0] = 2 * np.pi
    per = np.max(np.abs(fr.bracket(pts + shift, 3, k, 0.0) - vals))
    assert per < 1e-12 * np.max(np.abs(vals))


def test_free_apply_ghat_roundtrip():
    for (d, L, k) in ((1, 3, 1), (1, 3, 2), (2, 3, 1)):
        grid = fr.default_grid(d, L, k)
        rng = np.random.default_rng(7)
        fhat = rng.standard_normal((grid.M,) * d) + 1j * rng.standard_normal((grid.M,) * d)
        ghat = fr.free_apply_ghat(fhat, grid, P0)
        back = fr.free_symbol_apply(ghat, grid, P0)
        assert np.max(np.abs(back - fhat)) < 1e-10 * np.max(np.abs(fhat))


@pytest.mark.parametrize("d,L,k,M0", [(2, 3, 2, 16), (3, 3, 1, 16)])
def test_free_apply_ghat_memory(d, L, k, M0):
    # the per-axis solve forms w, one (nodes, S) complex array and the
    # result's big-torus copy: about 2.5 times the input's bytes, where the
    # whole-grid (nodes, S) rows of U and w U peaked at about 5
    import tracemalloc
    grid = fr.TorusGrid(d, L, k, M0 * L**k)
    fhat = np.random.default_rng(9).standard_normal((grid.M,) * d) + 0j
    tracemalloc.start()
    try:
        ghat = fr.free_apply_ghat(fhat, grid, P0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ghat.shape == fhat.shape
    assert peak <= 3 * fhat.nbytes, peak / fhat.nbytes


def test_free_apply_ghat_k0_collapse():
    # k = 0: u = 1, so G-hat is division by (Delta(p) + a)
    grid = fr.TorusGrid(1, 3, 0, 8)
    rng = np.random.default_rng(8)
    fhat = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ghat = fr.free_apply_ghat(fhat, grid, P0)
    p = grid.full_nodes_1d().reshape(-1, 1)
    expect = fhat / (laplacian_symbol(p, 3, 0, 0.0).ravel() + 1.0)
    assert np.max(np.abs(ghat - expect)) < 1e-13 * np.max(np.abs(fhat))


ORACLE_CASES = [(1, 3, 0), (1, 3, 1), (1, 3, 2), (2, 3, 1), (2, 3, 2)]
ORACLE_SETTINGS = [(0.0, None), (0.0, 0.05), (0.3, None)]   # (mu0, q_0)


def _dense_shift_matrices(grid, params, q):
    """Oracle: shifted momenta ``Z`` and the per-node shift matrices, entry by entry."""
    L, k = grid.L, grid.k
    nodes = base_nodes(grid) + 1j * q
    Z = nodes[:, None, :] + 2 * np.pi * fr.shift_vectors(grid.d, L, k)[None, :, :]
    U, Ub = u_kernel(Z, L, k), u_bar_kernel(Z, L, k)
    lap = laplacian_symbol(Z, L, k, params.mu0)
    M = params.a_j(L, max(k, 1)) * U[:, :, None] * Ub[:, None, :]
    for s in range(Z.shape[1]):
        M[:, s, s] += lap[:, s]
    return Z, M, lap


def _contour(d, q0):
    q = np.zeros(d)
    q[0] = q0 or 0.0
    return q


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _solve_rows(sys, grid, v):
    """``sys.solve`` of ``(nodes, S)`` rows ``v`` through the ``_shift_view`` layout."""
    shape = (grid.base_count,) * grid.d + (grid.shifts_per_axis,) * grid.d
    return sys.solve(v.reshape(shape)).reshape(v.shape)


def _inverse_blocks(sys, grid):
    """The per-node inverse blocks ``(nodes, S, S)``, column ``m`` the solve
    of the one-hot ``e_m`` at every node."""
    n, S = grid.base_count**grid.d, grid.shifts_per_axis**grid.d
    out = np.empty((n, S, S), dtype=complex)
    for m in range(S):
        e = np.zeros((n, S), dtype=complex)
        e[:, m] = 1.0
        out[:, :, m] = _solve_rows(sys, grid, e)
    return out


@pytest.mark.parametrize("mu0,q0", ORACLE_SETTINGS)
@pytest.mark.parametrize("d,L,k", ORACLE_CASES)
def test_shift_solve_matches_dense_inverse(d, L, k, mu0, q0):
    params = MultiscaleParams(mu0=mu0)
    grid = fr.default_grid(d, L, k)
    q = _contour(d, q0)
    sys = fr.build_shift_system(grid, params, shift_q=q)
    _, M, lap = _dense_shift_matrices(grid, params, q)
    n, S = lap.shape
    if mu0 == 0.0 and q0 is None:   # the massless zero mode is on the grid
        assert np.sum(lap == 0.0) == 1
    Minv, Minv_sm = np.linalg.inv(M), _inverse_blocks(sys, grid)
    for node in range(n):     # per node, against that node's own scale
        assert _rel(Minv_sm[node], Minv[node]) <= 1e-12
    rng = np.random.default_rng(23)
    v = rng.standard_normal((n, S)) + 1j * rng.standard_normal((n, S))
    assert _rel(_solve_rows(sys, grid, v), np.linalg.solve(M, v[..., None])[..., 0]) <= 1e-12
    # the two stacks count every array the system stores, each once: the
    # per-axis tables, the zero column's (n,) arrays and w, the one (n, S)
    sym, rows = sys.sym, sys.rows
    tables = [*sym.lap, *sym.u, *sym.ubar]
    assert all(t.shape == (grid.base_count, L**k) for t in tables) and len(tables) == 3 * d
    column = [rows.Delta0, rows.U0, rows.Ubar0, rows.c0]
    assert all(f.shape == (n,) for f in column) and rows.w is None and rows.wU is None
    assert sys.w.size == n * S and sys.w.dtype == (np.float64 if q0 is None else complex)
    assert sys.Minv.nbytes + sys.Mmat.nbytes == sum(f.nbytes for f in tables + column + [sys.w])


@pytest.mark.parametrize("mu0", [0.0, 0.3])
@pytest.mark.parametrize("d,L,k", ORACLE_CASES)
def test_symbol_apply_matches_dense_matrices(d, L, k, mu0):
    # on the real contour, where mu0 = 0 puts the massless node Delta_0 = 0
    # on the grid; the apply reads the symbols and divides by nothing
    params = MultiscaleParams(mu0=mu0)
    grid = fr.default_grid(d, L, k)
    _, M, lap = _dense_shift_matrices(grid, params, np.zeros(d))
    assert np.any(lap == 0.0) == (mu0 == 0.0)
    rng = np.random.default_rng(29)
    f = rng.standard_normal((grid.M,) * d) + 1j * rng.standard_normal((grid.M,) * d)
    Mv = fr._shift_view(fr.free_symbol_apply(f, grid, params), grid).reshape(M.shape[:2])
    dense = np.einsum("nst,nt->ns", M, fr._shift_view(f, grid).reshape(M.shape[:2]))
    for node in range(len(M)):     # per node, against that node's own scale
        assert _rel(Mv[node], dense[node]) <= 1e-12


@pytest.mark.parametrize("shape", [(29,), (24, 24)])
@pytest.mark.parametrize("apply", [fr.free_apply_ghat, fr.free_symbol_apply])
def test_big_torus_apply_rejects_wrong_size(apply, shape):
    # M = 24 samples at (1,3,1): a larger array is not read as its first 24
    grid = fr.default_grid(1, 3, 1)
    with pytest.raises(ValueError, match="big-torus samples"):
        apply(np.ones(shape), grid, P0)


def test_fourier_verify_builds_one_shift_system(monkeypatch):
    # free_apply_ghat solves the one shift system of the grid; free_symbol_apply
    # reads the symbols
    from blockrg import cli
    built = []
    build = fr.build_shift_system

    def counting(*args, **kwargs):
        built.append(args[0])
        return build(*args, **kwargs)

    monkeypatch.setattr(fr, "build_shift_system", counting)
    rows = cli.run_fourier_verify(cli.load_config(None))
    assert all(r.passed for r in rows if r.metric == "ghat_roundtrip_residual")
    assert len(built) == 1


@pytest.mark.parametrize("q0", [None, 0.3], ids=["real", "shifted"])
@pytest.mark.parametrize("d,L,k", [(1, 3, 2), (2, 3, 1)])
def test_shift_inverse_blocks_match_dense_inverse(d, L, k, q0):
    # the real contour holds the massless node, where Delta_0 = 0
    # each node's block within 1e-13 of its own Frobenius norm
    grid = fr.default_grid(d, L, k)
    q = _contour(d, q0)
    sys = fr.build_shift_system(grid, P0, shift_q=q)
    assert np.any(sys.rows.Delta0 == 0.0) == (q0 is None)
    X, Y = _inverse_blocks(sys, grid), np.linalg.inv(_dense_shift_matrices(grid, P0, q)[1])
    err = np.linalg.norm(X - Y, axis=(1, 2)) / np.linalg.norm(Y, axis=(1, 2))
    assert np.all(err <= 1e-13), err.max()


def _node_major(w):
    """A block's ``w``, laid out ``(n_0, s_1, n_1, ..., s_{d-1}, n_{d-1},
    s_0)``, as (nodes, S) rows, nodes and shifts row-major."""
    d = w.ndim // 2
    nodes, shifts = list(range(0, 2 * d, 2)), [2 * d - 1] + list(range(1, 2 * d - 1, 2))
    return w.transpose(nodes + shifts).reshape(np.prod([w.shape[i] for i in nodes]), -1)


@pytest.mark.parametrize("q0", [None, 0.3], ids=["real", "shifted"])
@pytest.mark.parametrize("d,L,k", [(1, 3, 2), (2, 3, 1), (2, 3, 2), (3, 3, 1)])
def test_node_blocks_match_whole_grid_system(d, L, k, q0, monkeypatch):
    # one per-axis builder, AxisSymbols, over three node blockings: the
    # strip's blocks at the default budget and at one first-axis node each,
    # and the whole-grid ShiftSystem agree node by node, bit for bit; their
    # weights, zero column, c0 and M^{-1} U match the dense per-node
    # matrices, assembled entry by entry from the symbols
    grid = fr.default_grid(d, L, k)
    q = _contour(d, q0)
    Z, M, lap = _dense_shift_matrices(grid, P0, q)
    U, Ub = u_kernel(Z, L, k), u_bar_kernel(Z, L, k)
    n, S = lap.shape
    zero = np.flatnonzero(~fr.shift_vectors(d, L, k).any(axis=1))[0]
    w = np.where(np.arange(S) == zero, 0.0, 1.0 / np.where(np.arange(S) == zero, 1.0, lap))
    c0 = 1.0 + P0.a_j(L, k) * np.sum(w * U * Ub, axis=1)
    H_dense = np.linalg.solve(M, U[..., None])[..., 0]
    sys = fr.build_shift_system(grid, P0, shift_q=q)
    sym = fr.AxisSymbols.build(fr._axis_nodes(grid, q), L, k, P0)
    assert sym.real == sys.sym.real == (q0 is None)
    rows = sys.rows
    assert rows.zero == zero and rows.a == P0.a_j(L, k)
    for name, want in (("Delta0", lap[:, zero]), ("U0", U[:, zero]), ("Ubar0", Ub[:, zero]),
                       ("c0", c0)):
        assert np.all(np.abs(getattr(rows, name) - want) <= 1e-14 * np.abs(want)), name
    H_sys = sys.solve_u()
    for node in range(n):     # per node, against that node's own scale
        assert _rel(H_sys[node], H_dense[node]) <= 1e-12
    for budget in (ops.BLOCK_BYTES, 1):
        monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
        firsts = list(sym.blocks())
        assert len(firsts) == (grid.base_count if budget == 1 else 1)
        blocks = [fr.ShiftSystem.build(sym.rows(first)) for first in firsts]
        for name in ("Delta0", "U0", "Ubar0", "c0"):
            assert np.array_equal(np.concatenate([getattr(b.rows, name) for b in blocks]),
                                  getattr(rows, name)), name
        assert np.array_equal(np.concatenate([b.solve_u() for b in blocks]), H_sys)
        w_blocks = np.concatenate([_node_major(sym.weights(first)) for first in firsts])
        assert w_blocks.dtype == (np.float64 if q0 is None else np.complex128)
        assert np.all(np.abs(w_blocks - w) <= 1e-14 * np.abs(w)) and np.all(w_blocks[:, zero] == 0)


@pytest.mark.parametrize("d,L,k", [(1, 3, 0), (2, 3, 0), (1, 3, 2), (2, 3, 1), (3, 3, 1),
                                   (1, 5, 0), (1, 5, 1), (2, 5, 1), (3, 5, 1)])
def test_zero_shift_is_the_middle_row(d, L, k, monkeypatch):
    # the rows' zero column and the zero slot of the weights are the zero
    # shift, read off the one-axis shift table
    shifts, axes = fr.shift_vectors(d, L, k), [np.zeros(1, dtype=complex)] * d
    table = fr.shift_vectors

    def one_axis(dim, *args):
        if dim != 1:
            raise AssertionError("the per-axis builder built the d-dimensional shift table")
        return table(dim, *args)

    monkeypatch.setattr(fr, "shift_vectors", one_axis)
    sym = fr.AxisSymbols.build(axes, L, k, P0)
    zero = sym.zero_column(np.ones(1)).zero
    assert np.flatnonzero(~shifts.any(axis=1)).tolist() == [zero]
    # at p = 0 and mu0 = 0, Delta vanishes at the zero shift alone, where w is 0
    w = _node_major(sym.weights(slice(0, 1)))[0]
    assert np.flatnonzero(w == 0.0).tolist() == [zero] and np.all(np.isfinite(w))


def _contours(d):
    return {"real": np.zeros(d), "axis": 0.3 * np.eye(d)[0],
            "diagonal": np.full(d, 0.3 / np.sqrt(d))}


@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default", "block1"])
@pytest.mark.parametrize("contour", ["real", "axis", "diagonal"])
@pytest.mark.parametrize("d,L,k", [(1, 3, 1), (1, 3, 2), (1, 5, 2), (2, 3, 0), (2, 3, 1),
                                   (2, 3, 2), (2, 5, 1), (3, 3, 1), (3, 5, 1)])
def test_per_axis_legs_match_expanded_rows(d, L, k, contour, block_bytes, monkeypatch):
    # oracle: the dense per-node symbols, entry by entry. Each leg against
    # the dense w, w U and w Ubar contracted with whole (S, classes) phase
    # tables and finished by the Sherman-Morrison zero column, and each
    # plan's node array against the dense inverses, e_x^T M^{-1} e_{-y} for
    # G and e_x^T M^{-1} U for G Q*, for a many-class and a one-class plan
    # of each kind
    if block_bytes is not None:
        monkeypatch.setattr(ops, "BLOCK_BYTES", block_bytes)
    Lk = L**k
    grid = fr.TorusGrid(d, L, k, 4 * Lk * (2 if d < 3 else 1))
    q = _contours(d)[contour]
    sym = fr.AxisSymbols.build(fr._axis_nodes(grid, q), L, k, P0)
    Z, M, lap = _dense_shift_matrices(grid, P0, q)
    Minv, U, Ub = np.linalg.inv(M), u_kernel(Z, L, k), u_bar_kernel(Z, L, k)
    a, S = P0.a_j(L, max(k, 1)), lap.shape[1]
    zero = np.arange(S) == np.flatnonzero(~fr.shift_vectors(d, L, k).any(axis=1))[0]
    w = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, lap))
    Delta0, U0, Ub0 = lap[:, zero][:, 0], U[:, zero][:, 0], Ub[:, zero][:, 0]
    c0 = 1.0 + a * np.sum(w * U * Ub, axis=1)
    den = Delta0 * c0 + a * U0 * Ub0
    rng = np.random.default_rng(43)
    classes = lat.grid_points([np.arange(Lk)] * d)
    many = ((classes + Lk * rng.integers(-2, 3, size=classes.shape)) * grid.eta,
            rng.integers(-3 * Lk, 3 * Lk + 1, size=(4, d)) * grid.eta)
    one = (np.zeros((1, d)), np.full((1, d), 2.0))
    plans = [cls(xs, ys, grid) for xs, ys in (many, one) for cls in (fr.GPlan, fr.GQPlan)]
    shifts = fr.shift_vectors(d, L, k)
    phases = lambda R: np.exp(2j * np.pi / Lk * shifts @ R.T)
    for plan, legs in zip(plans, fr._plan_legs(plans, sym)):
        if isinstance(plan, fr.GPlan):
            diff = fr._classes(plan.Rx[:, None, :] - plan.Ry[None, :, :], Lk)[0]
            K = (w * Ub) @ phases(-plan.Ry)
            refs = (w @ phases(diff), a * (w * U) @ phases(plan.Rx),
                    (Ub0[:, None] + Delta0[:, None] * K) / den[:, None],
                    (c0[:, None] - a * U0[:, None] * K) / den[:, None])
            want = phases(plan.Rx).T @ Minv @ phases(-plan.Ry)
        else:
            refs = ((Delta0[:, None] * ((w * U) @ phases(plan.Rx)) + U0[:, None]) / den[:, None],)
            want = phases(plan.Rx).T @ (Minv @ U[..., None])
        assert len(legs) == len(refs)
        for leg, ref in zip(legs, refs):    # at k = 0, w and so D and H are 0
            assert leg.shape == ref.T.shape
            assert np.max(np.abs(leg - ref.T)) <= 1e-13 * np.max(np.abs(ref))
        want = np.moveaxis(want, 0, -1)     # (x classes, y classes, nodes)
        got = plan.node_array(legs, slice(None))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mu0", [0.0, 0.3])
@pytest.mark.parametrize("contour", ["real", "axis", "diagonal"])
@pytest.mark.parametrize("d,L,k", [(1, 3, 1), (1, 5, 2), (2, 3, 1), (2, 3, 2), (2, 5, 1),
                                   (3, 3, 1), (3, 5, 1)])
def test_bracket_matches_expanded_symbols(d, L, k, contour, mu0):
    # oracle: sum_l U Ubar / Delta from the symbols at every shift of the
    # d-dimensional shift table, point by point
    z = np.random.default_rng(47).uniform(-np.pi, np.pi, size=(6, d)) + 1j * _contours(d)[contour]
    Z = fr.shifted_momenta(z, fr.shift_vectors(d, L, k))
    want = np.sum(u_kernel(Z, L, k) * u_bar_kernel(Z, L, k)
                  / laplacian_symbol(Z, L, k, mu0), axis=-1)
    assert _rel(fr.bracket(z, L, k, mu0), want) <= 1e-13


# (mu0, q_0, a, operators.BLOCK_BYTES); a budget of 1 byte puts one first-axis
# node row in every shift-system block and one x class in every transform
KERNEL_SETTINGS = ([pytest.param(mu0, q0, 1.0, None, id=f"{mu0}-{q0}")
                    for mu0, q0 in ORACLE_SETTINGS]
                   + [pytest.param(0.2, 0.05, 0.3, None, id="0.2-0.05-a0.3"),
                      pytest.param(0.0, None, 1.0, 1, id="0.0-None-block1"),
                      pytest.param(0.0, 0.05, 1.0, 1, id="0.0-0.05-block1")])


def _trapezoid_kernels(grid, params, q, xs, ys, labels):
    """Oracle: ``G`` and ``G Q*`` as the plain trapezoid sum, over every base
    node and every pair, of ``exp(i Z.x) M^{-1} exp(-i Z.y)`` with dense
    inverses and no transform over the nodes."""
    Z, M, _ = _dense_shift_matrices(grid, params, q)
    Minv = np.linalg.inv(M)
    nodes = base_nodes(grid) + 1j * q
    Ex = np.exp(1j * np.einsum("nsd,xd->nsx", Z, xs))
    Ey = np.exp(-1j * np.einsum("nsd,yd->nsy", Z, ys))
    G = np.einsum("nsx,nsy->xy", Ex, Minv @ Ey) / len(nodes)
    U = u_kernel(Z, grid.L, grid.k)
    Py = np.exp(-1j * nodes @ labels.T)
    GQ = np.einsum("nsx,ns,ny->xy", Ex, np.einsum("nst,nt->ns", Minv, U), Py) / len(nodes)
    return G, GQ


@pytest.mark.parametrize("mu0,q0,a,block_bytes", KERNEL_SETTINGS)
@pytest.mark.parametrize("d,L,k", [(1, 3, 1), (2, 3, 1), (2, 3, 2)])
def test_free_kernels_match_dense_quadrature(d, L, k, mu0, q0, a, block_bytes, monkeypatch):
    params = MultiscaleParams(a=a, mu0=mu0)
    grid = fr.default_grid(d, L, k)
    q = _contour(d, q0)
    eta, Lk = grid.eta, L**k
    rng = np.random.default_rng(29)
    # targets over several unit cells; one source in every residue class
    # modulo the unit lattice, each moved by its own unit translation
    xs = rng.integers(-3 * Lk, 3 * Lk + 1, size=(5, d)) * eta
    residues = lat.grid_points([np.arange(Lk)] * d)
    ys = (residues + Lk * rng.integers(-2, 3, size=residues.shape)) * eta
    offsets = xs[:, None, :] - np.floor(ys)[None, :, :]
    for mu in range(d):
        assert len(np.unique(offsets[..., mu])) > 1 and np.ptp(offsets[..., mu]) >= 3
    labels = rng.integers(-3, 4, size=(4, d)).astype(float)
    G, GQ = _trapezoid_kernels(grid, params, q, xs, ys, labels)
    got = (fr.free_kernel_g(xs, ys, grid, params, shift_q=q),
           fr.free_kernel_gq(xs, labels, grid, params, shift_q=q))
    assert _rel(got[0], G) <= 1e-12
    assert _rel(got[1], GQ) <= 1e-12
    if block_bytes is not None:
        monkeypatch.setattr(ops, "BLOCK_BYTES", block_bytes)
        blocked = (fr.free_kernel_g(xs, ys, grid, params, shift_q=q),
                   fr.free_kernel_gq(xs, labels, grid, params, shift_q=q))
        for b, v in zip(blocked, got):
            if d > 1:   # blocks change no value, bit for bit
                assert np.array_equal(b, v)
            else:       # a one-node block is numpy's vector-matrix product, not gemm
                assert _rel(b, v) <= 1e-15


@pytest.mark.parametrize("shifted", [False, True], ids=["real", "shifted"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_free_kernels_match_explicit_trapezoid_sum(d, shifted):
    # the inverse FFT over the base nodes against the plain node sum, at
    # offsets up to 3 M0 / 2 unit cells, past M0 / 2, where the sum is periodic
    grid = fr.TorusGrid(d, 3, 1, 8 * 3)
    q = np.array([0.3, -0.2, 0.1][:d]) if shifted else np.zeros(d)
    rng = np.random.default_rng(37)
    xs = rng.integers(-36, 37, size=(6, d)) / 3.0
    ys = rng.integers(-36, 37, size=(7, d)) / 3.0
    labels = rng.integers(-12, 13, size=(5, d)).astype(float)
    assert np.max(np.abs(xs[:, None] - ys[None])) > grid.base_count
    assert np.max(np.abs(xs[:, None] - labels[None])) > grid.base_count
    G, GQ = _trapezoid_kernels(grid, P0, q, xs, ys, labels)
    shift_q = q if shifted else None
    got = (fr.free_kernel_g(xs, ys, grid, P0, shift_q=shift_q),
           fr.free_kernel_gq(xs, labels, grid, P0, shift_q=shift_q))
    assert _rel(got[0], G) <= 1e-13
    assert _rel(got[1], GQ) <= 1e-13
    for K in got:   # the kernels are real on every contour
        assert K.dtype == np.float64


@pytest.mark.parametrize("q", ["axis", "diagonal"])
@pytest.mark.parametrize("d,k", [(1, 2), (2, 2), (3, 1)])
def test_node_array_hermitian_on_shifted_contour(d, k, q):
    # every symbol has conj f(Z) = f(-conj Z), and -conj(p + i q) = -p + i q
    # lies on the same contour: there M^{-1} U is conjugated, with the shifts
    # permuted l -> -l, so the kernels' node arrays are Hermitian in the node
    # on every contour and the node sum takes half the nodes and an irfftn
    L = 3
    qv = 0.3 * (np.eye(d)[0] if q == "axis" else np.ones(d) / np.sqrt(d))
    p = np.random.default_rng(41).uniform(-np.pi, np.pi, size=(5, d))
    shifts = fr.shift_vectors(d, L, k)
    flip = [int(np.flatnonzero((shifts == -l).all(axis=1))[0]) for l in shifts]
    X, Y = (fr.ShiftSystem.build(fr.AxisSymbols.build(list((sign * p + 1j * qv).T), L, k,
                                                       P0)).solve_u()
            for sign in (1, -1))
    assert _rel(Y[:, flip], X.conj()) <= 1e-13


def test_free_kernels_reject_positions_off_the_lattice():
    grid = fr.default_grid(1, 3, 1)
    on, off = np.array([[1.0 / 3.0]]), np.array([[0.5]])
    fr.free_kernel_g(on, on, grid, P0)
    with pytest.raises(ValueError):
        fr.free_kernel_g(on, off, grid, P0)
    with pytest.raises(ValueError):
        fr.free_kernel_gq(off, np.zeros((1, 1)), grid, P0)
    # an empty side gives an empty kernel
    assert fr.free_kernel_g(on, np.zeros((0, 1)), grid, P0).shape == (1, 0)
    assert fr.free_kernel_g(np.zeros((0, 1)), on, grid, P0).shape == (0, 1)


def test_free_kernel_batch_memory():
    # the images-verify G batch at (2,3,1,1): 5 sample targets against the
    # 405 images of the 5 sample sources, on the M0 = 64 grid
    import tracemalloc
    geom = lat.make_geometry(2, 3, 1, 1)
    sites = lat.sample_sites(geom)
    xs = np.array(sites, dtype=float) * geom.spacing
    ys = np.concatenate([lat.image_points(geom, s, 4) for s in sites]) * geom.spacing
    assert ys.shape == (405, 2)
    grid = fr.TorusGrid(2, 3, 1, 64 * 3)
    tracemalloc.start()
    try:
        K = fr.free_kernel_g(xs, ys, grid, P0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.shape == (5, 405)
    assert peak <= 8 * 2**20


def test_contour_shift_change_memory():
    # fourier-verify's contour check at (2,3,2): G(0, 2e) is accepted on
    # M0 = 32 (1024 nodes, S = 81), where the whole-grid (nodes, S) rows of
    # one shift system held 2.2 MiB; the check peaks at 1.2 MiB
    import tracemalloc
    tracemalloc.start()
    try:
        change = fr.contour_shift_change(fr.default_grid(2, 3, 2), P0, fr.STRIP_Q_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert change <= 1e-8
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_contour_kernel_within_tol_of_one_more_doubling(d, k):
    # fourier-verify's G(0, 2e) stops on M0 = 32, one doubling before the
    # plain rule; both contours' values there are within tol max of M0 = 64
    grid = fr.default_grid(d, 3, k)
    plan = fr.GPlan(np.zeros((1, d)), np.full((1, d), 2.0), grid)
    (vals, used, _), = fr.converge_plans([plan], P0)
    assert used.base_count == 32
    shift = np.eye(d)[0] * fr.STRIP_Q_MAX
    for q, base in ((None, vals), (shift, fr.evaluate_plans([plan], used, P0, shift)[0])):
        finer, = fr.evaluate_plans([plan], used.refined(), P0, q)
        assert np.max(np.abs(base - finer)) <= 1e-8 * np.max(np.abs(finer))


def test_contour_shift_scans_q_star_once(monkeypatch):
    # the strip-width check and the ladder read one scan of the 1-d shift row
    grid = fr.default_grid(2, 3, 1)
    want = fr.contour_shift_change(grid, P0, fr.STRIP_Q_MAX)
    scans, scan = [], fr.q_star_bracket

    def counted(d, L, k, params):
        scans.append((d, L, k))
        return scan(d, L, k, params)

    monkeypatch.setattr(fr, "q_star_bracket", counted)
    assert fr.contour_shift_change(grid, P0, fr.STRIP_Q_MAX) == want
    assert scans == [(2, 3, 1)]


def test_plans_on_one_ladder_keep_their_own_start_and_stop(monkeypatch):
    # a G pair at one site starts on M0 = 8 and is accepted on 32; a G Q*
    # pair 10 apart starts on 32, above twice its reach, and is accepted on
    # 64: the ladder evaluates the two together on 32 alone, and each plan
    # gives what its own one-plan ladder gives, bit for bit
    x, far_y = np.zeros((1, 1)), np.array([[10.0]])
    near = fr.GPlan(x, x, fr.default_grid(1, 3, 1))
    far = fr.GQPlan(x, far_y, fr.default_grid(1, 3, 1, 10.0))
    want = (fr.converge_kernel(lambda g: fr.free_kernel_g(x, x, g, P0), near.grid, P0),
            fr.converge_kernel(lambda g: fr.free_kernel_gq(x, far_y, g, P0), far.grid, P0))
    passes, evaluate = [], fr.evaluate_plans

    def logged(plans, grid, params, shift_q=None):
        passes.append((grid.base_count, ["near" if p is near else "far" for p in plans]))
        return evaluate(plans, grid, params, shift_q)

    monkeypatch.setattr(fr, "evaluate_plans", logged)
    got = fr.converge_plans([near, far], P0)
    assert passes == [(8, ["near"]), (16, ["near"]), (32, ["near", "far"]), (64, ["far"])]
    assert [w[1].base_count for w in want] == [32, 64]
    for (vals, grid, delta), (w_vals, w_grid, w_delta) in zip(got, want):
        assert np.array_equal(vals, w_vals) and (grid, delta) == (w_grid, w_delta)


def _geometric(rate, scale):
    """An ``evaluate`` for ``converge_kernel`` whose error on base count
    ``M0`` is ``scale exp(-rate M0)`` about the value 1, and the base counts
    it was called on."""
    seen = []

    def evaluate(grid):
        seen.append(grid.base_count)
        return np.array([1.0 + scale * np.exp(-rate * grid.base_count)])
    return evaluate, seen


@pytest.mark.parametrize("rate,scale", [(1.0, 1.0), (1.0, 1e3), (0.7, 1.0), (0.3, 1.0),
                                        (2.0, 1e6), (0.8, 2e4)]
                         + [(None, 10.0**e) for e in np.arange(-4.0, 8.0, 0.25)])
def test_ladder_stops_where_the_rate_predicts(rate, scale):
    # the accepted doubling is the first whose change delta has delta <=
    # sqrt(tol) and min(1, rho / (1 - rho)) delta <= tol, rho = exp(-theta
    # q_lo M0) on the coarser base count M0, worked out here from the
    # sequence; params None (rate 0) is the plain delta <= tol, never
    # earlier.  Rate None is q_lo itself: an error falling no faster than
    # the bracket allows still ends within tol, whatever its size
    tol, q_lo = 1e-8, fr.q_star_bracket(1, 3, 1, P0)[0]
    rate = q_lo if rate is None else rate
    M0, plain, predicted = 8, None, None
    while plain is None:
        e = [scale * np.exp(-rate * m) for m in (M0, 2 * M0)]
        delta = abs(e[1] - e[0]) / (1.0 + e[1])
        rho = np.exp(-fr.LADDER_THETA * q_lo * M0)
        if predicted is None and delta <= tol**0.5 and min(1.0, rho / (1.0 - rho)) * delta <= tol:
            predicted = 2 * M0
        if delta <= tol:
            plain = 2 * M0
        M0 *= 2
    for params, stop in ((P0, predicted), (None, plain)):
        evaluate, seen = _geometric(rate, scale)
        vals, grid, delta = fr.converge_kernel(evaluate, fr.default_grid(1, 3, 1), params, tol)
        assert grid.base_count == stop == seen[-1] and seen == [8 * 2**j for j in range(len(seen))]
        if rate >= q_lo:
            assert abs(vals[0] - 1.0) <= tol * vals[0]
    assert predicted <= plain
    if (rate, scale) == (1.0, 1.0):
        assert (predicted, plain) == (32, 64)


def test_ladder_gives_up_after_max_doublings():
    # a value whose relative change is 1/2 at every doubling: the start and
    # MAX_DOUBLINGS doublings are evaluated, then the ladder raises
    grids = []

    def evaluate(grid):
        grids.append(grid.base_count)
        return np.array([float(grid.base_count)])

    with pytest.raises(fr.GridConvergenceError, match="after 6 doublings"):
        fr.converge_kernel(evaluate, fr.default_grid(1, 3, 1))
    assert grids == [8 * 2**j for j in range(fr.MAX_DOUBLINGS + 1)]


def _dense_det_winding(q, p_perp, d, L, k, params, nx=64):
    """Oracle: the winding number of ``det M(x + i q, p_perp)`` over ``x`` in
    ``[-pi, pi]``, ``M`` the dense ``S x S`` shift matrix assembled entry by
    entry from the symbols, one ``slogdet`` per node.  ``det M`` is
    ``2 pi``-periodic in ``x`` and positive on the real axis, so this counts
    its zeros ``x + i q'``, ``0 < q' < q``, at that ``p_perp``."""
    ells = fr.shift_vectors(d, L, k)
    z = np.zeros((nx + 1, d), dtype=complex)
    z[:, 0] = np.linspace(-np.pi, np.pi, nx + 1) + 1j * q
    z[:, 1:] = p_perp
    Z = z[:, None, :] + 2 * np.pi * ells
    U, Ub = u_kernel(Z, L, k), u_bar_kernel(Z, L, k)
    M = (laplacian_symbol(Z, L, k, params.mu0)[:, :, None] * np.eye(len(ells))
         + params.a_j(L, max(k, 1)) * U[:, :, None] * Ub[:, None, :])
    phase = np.unwrap(np.angle(np.linalg.slogdet(M)[0]))
    return round((phase[-1] - phase[0]) / (2 * np.pi), 6)


@pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("mu0", [0.0, 0.2])
@pytest.mark.parametrize("d,k", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3),
                                 (3, 0), (3, 1), (3, 2)])
def test_q_star_bracket_contains_the_dense_singularity(d, k, mu0, a):
    # to within 1 %: below q_lo the dense S x S shift matrices M(p + i q e_0)
    # have no zero for any p_perp on a grid, and below q_hi some p_perp has
    # one.  At S = 729 the winding costs 65 dense 729 x 729 determinants per
    # contour, so there the check is det M(i q e_0) itself, real on that line
    # (the row the scan reads): positive below q_lo, negative past a q_hi the
    # row sets
    params = MultiscaleParams(a=a, mu0=mu0)
    bracket = fr.q_star_bracket(d, 3, k, params)
    if (k, mu0) == (3, 0.2):    # the zero has left the imaginary axis
        assert bracket is None
        return
    lo, hi = bracket
    assert 0.0 < lo <= hi
    if 3**(k * d) <= 81:
        perps = (lat.grid_points([np.array([0.0, np.pi / 2, np.pi])] * (d - 1)) if d > 1
                 else np.zeros((1, 0)))
        assert all(_dense_det_winding(0.99 * lo, pp, d, 3, k, params) == 0 for pp in perps)
        assert any(_dense_det_winding(1.01 * hi, pp, d, 3, k, params) != 0 for pp in perps)
    else:
        def det_axis(q):
            Z = 1j * q * np.eye(d)[0] + 2 * np.pi * fr.shift_vectors(d, 3, k)
            M = (np.diag(laplacian_symbol(Z, 3, k, mu0))
                 + params.a_j(3, k) * np.outer(u_kernel(Z, 3, k), u_bar_kernel(Z, 3, k)))
            sign, _ = np.linalg.slogdet(M)
            assert abs(sign.imag) < 1e-9
            return sign.real
        assert det_axis(0.99 * lo) > 0
        row = fr.q_star_bracket(1, 3, k, params)
        if row[1] == hi:
            assert det_axis(1.01 * hi) < 0


@pytest.mark.parametrize("d,k", [(1, 1), (2, 2), (3, 3)])
def test_q_star_bracket_no_bound_past_a_inf_6(d, k):
    # a_inf = a (1 - L**-2) >= 6: the zero leaves the imaginary axis and the
    # scan reads no bound; just below, it reads one at d = 1
    for a in (6.75, 7.0, 20.0):
        assert fr.q_star_bracket(d, 3, k, MultiscaleParams(a=a)) is None
        assert fr.q_star_bracket(d, 3, k, MultiscaleParams(a=a, mu0=0.2)) is None
    assert fr.q_star_bracket(1, 3, k, MultiscaleParams(a=6.7)) is not None


def test_q_star_bracket_matches_the_known_widths():
    # q* at (d,L) = (1,3), a = 1, mu0 = 0 is 1.0364541660, 0.9872837739 and
    # 0.9822438998 at k = 1, 2, 3, and along an axis of d = 2, 3 the same;
    # a bracket is one scan step, a ratio of 1000**(1/63)
    step = 1000.0 ** (1 / 63)
    for k, q_star in ((1, 1.0364541660), (2, 0.9872837739), (3, 0.9822438998)):
        for d in (1, 2, 3):
            lo, hi = fr.q_star_bracket(d, 3, k, P0)
            assert lo < q_star <= hi and hi / lo == pytest.approx(step)


def test_axis_waves_one_table_per_distinct_axis():
    # the cube patch's axes share one table; an axis of another range has
    # its own; the inverse direction's table is its conjugate, bit for bit
    grid = fr.default_grid(2, 3, 1).refined()
    cube = lat.block_aligned_patch(2, 3, 1, (0, 0), (2, 2))
    waves = fr._axis_waves(cube, grid)
    assert waves[0] is waves[1]
    k = grid.full_nodes_1d()
    x = np.arange(cube.lo[0], cube.hi[0] + 1) * cube.spacing
    assert np.array_equal(waves[0].conj(), np.exp(1j * np.outer(k, x)))
    slab = lat.block_aligned_patch(2, 3, 1, (0, -1), (2, 1))
    a, b = fr._axis_waves(slab, grid)
    assert a is not b and a.shape == b.shape and not np.array_equal(a, b)


def test_free_kernel_all_class_pairs_memory():
    # d = 3, L**k = 3: all 27 x 27 pairs of residue classes on M0 = 16
    # (4096 nodes, S = 27); per-pair transforms at the distinct offsets of
    # each pair peaked at 13.6 MiB here
    import tracemalloc
    import numpy.fft   # noqa: F401  (loaded before tracing)
    residues = lat.grid_points([np.arange(3)] * 3)
    xs, ys = residues / 3.0, (residues + [3, -6, 0]) / 3.0
    grid = fr.TorusGrid(3, 3, 1, 16 * 3)
    tracemalloc.start()
    try:
        K = fr.free_kernel_g(xs, ys, grid, P0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert K.shape == (27, 27) and K.dtype == np.float64
    assert peak <= 13.5 * 2**20


@pytest.mark.parametrize("d", [1, 2])
def test_far_entries_relative_on_contour_toward_source(d):
    # the contour q = 0.9 (x - y) / |x - y|, toward the source, divides out
    # the decay, so quadrature error is relative to the entry: G(0, r e_0) for
    # r = 0..60 on M0 = 256 agrees with the refined grid entry by entry,
    # down to entries near 5e-28 (d = 1) and 3e-29 (d = 2)
    grid = fr.TorusGrid(d, 3, 1, 256 * 3)
    x = np.zeros((1, d))
    entries = []
    for r in range(0, 61, 6):
        y = np.zeros((1, d))
        y[0, 0] = r
        q = None if r == 0 else 0.9 * (x - y)[0] / r
        coarse, fine = (fr.free_kernel_g(x, y, g, P0, shift_q=q)[0, 0]
                        for g in (grid, grid.refined()))
        assert abs(coarse - fine) <= 1e-10 * abs(fine)
        entries.append(abs(fine))
    assert min(entries) <= 1e-27
    assert np.all(np.diff(entries) < 0)


def _direct_phase_matrix(patch, grid):
    """Oracle: exp(-i K.x) for every big-torus momentum K and patch site x."""
    K = lat.grid_points([grid.full_nodes_1d()] * patch.d)
    return np.exp(-1j * K @ (patch_sites(patch) * patch.spacing).T)


@pytest.mark.parametrize("patch", [
    lat.block_aligned_patch(2, 3, 2, (0, 0), (2, 2)),        # the fourier-verify patch
    lat.FreePatch(d=2, L=3, k=1, lo=(-4, 2), hi=(3, 7)),
    lat.FreePatch(d=1, L=3, k=2, lo=(-5,), hi=(11,)),
])
def test_patch_transforms_match_direct_phase_sum(patch):
    d, h = patch.d, patch.spacing
    grid = fr.TorusGrid(d, patch.L, patch.k, 4 * patch.L**patch.k)
    F = _direct_phase_matrix(patch, grid)
    rng = np.random.default_rng(31)
    v = rng.standard_normal(patch.site_count) + 1j * rng.standard_normal(patch.site_count)
    direct = (2 * np.pi) ** (-d / 2) * h**d * (F @ v)
    fhat = fr.patch_fourier_samples(patch, v, grid)
    assert fhat.shape == (grid.M,) * d
    assert _rel(fhat.ravel(), direct) <= 1e-12
    ghat = rng.standard_normal(grid.M**d) + 1j * rng.standard_normal(grid.M**d)
    back = (2 * np.pi) ** (d / 2) * (F.conj().T @ ghat) / grid.base_count**d
    assert _rel(fr.patch_inverse_fourier(ghat.reshape((grid.M,) * d), patch, grid), back) <= 1e-12


def test_free_kernel_symmetries():
    grid = fr.default_grid(1, 3, 1)
    xs = np.array([[0.0], [1.0 / 3.0], [2.0]])
    K = fr.free_kernel_g(xs, xs, grid, P0)
    assert np.max(np.abs(K - K.T)) < 1e-10 * np.max(np.abs(K))          # real symmetry
    assert np.max(np.abs(K - K.conj().T)) < 1e-10 * np.max(np.abs(K))   # hermiticity
    # translation invariance by integer vectors
    z = 2.0
    K2 = fr.free_kernel_g(xs + z, xs + z, grid, P0)
    assert np.max(np.abs(K2 - K)) < 1e-10 * np.max(np.abs(K))


def test_qkqk_commutes_with_reflection():
    # free-lattice block projector commutes with the half-spacing reflection:
    # P Q*Q P = Q*Q on a patch mapped to itself by c -> -1-c
    patch = lat.block_aligned_patch(1, 3, 1, (-2,), (1,))  # indices -6..5
    sites = list(patch_sites(patch)[:, 0])
    perm = np.array([sites.index(-1 - s) for s in sites])
    rng = np.random.default_rng(17)
    v = rng.standard_normal(patch.site_count) + 1j * rng.standard_normal(patch.site_count)
    pqqp = fr.qkqk_spatial(patch, v[perm])[perm]
    assert np.max(np.abs(pqqp - fr.qkqk_spatial(patch, v))) < 1e-14


def test_free_kernel_reflection_invariance():
    # G(Px, Py) = G(x, y) for the half-spacing reflections (free lattice)
    grid = fr.default_grid(1, 3, 1)
    eta = 1.0 / 3.0
    xs = np.array([[0.0], [eta], [5 * eta]])
    K = fr.free_kernel_g(xs, xs, grid, P0)
    refl = -eta - xs  # index c -> -1-c in positions
    K2 = fr.free_kernel_g(refl, refl, grid, P0)
    assert np.max(np.abs(K2 - K)) < 1e-10 * np.max(np.abs(K))


def test_free_kernel_satisfies_defining_equation():
    # spatial check: (-Lap + a Q*Q) applied to a kernel column gives the delta
    L, k = 3, 1
    eta = 1.0 / 3.0
    patch = lat.block_aligned_patch(1, L, k, (-2,), (2,))
    pos = patch_positions(patch)
    y = np.array([[0.0]])
    grid = fr.default_grid(1, L, k)
    col, _, _ = fr.converge_kernel(
        lambda g: fr.free_kernel_g(pos, y, g, P0)[:, 0], grid, tol=1e-10)
    stencil = free_laplacian_1d(patch)
    applied = -(stencil @ col) + P0.a_j(L, k) * fr.qkqk_spatial(patch, col)
    delta = np.zeros(patch.site_count)
    delta[list(map(tuple, patch_sites(patch))).index((0,))] = eta**-1
    interior = interior_mask(patch)
    resid = np.max(np.abs(applied - delta)[interior])
    assert resid < 1e-7


def test_qkqk_block_indicator_fixed_point():
    patch = lat.block_aligned_patch(1, 3, 1, (0,), (2,))
    v = np.zeros(patch.site_count)
    v[3:6] = 1.0  # one whole unit block
    assert np.allclose(fr.qkqk_spatial(patch, v), v)
    grid = fr.TorusGrid(1, 3, 1, 48)
    four = fr.qkqk_fourier(patch, v.astype(complex), grid)
    assert np.max(np.abs(four - v)) < 1e-10


def test_qkqk_delta_block_mean():
    # delta at one site averages to L^{-kd} eta^{-d} on its block
    L, k, d = 3, 1, 1
    eta = float(L) ** (-k)
    patch = lat.block_aligned_patch(d, L, k, (0,), (2,))
    v = np.zeros(patch.site_count)
    v[4] = eta**-d  # delta at site index 4 (block 1)
    out = fr.qkqk_spatial(patch, v)
    expect = np.zeros_like(v)
    expect[3:6] = L ** (-k * d) * eta**-d
    assert np.allclose(out, expect)


@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_qkqk_fourier_residual(d, k):
    L = 3
    patch = lat.block_aligned_patch(d, L, k, (0,) * d, (2,) * d)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(patch.site_count) + 1j * rng.standard_normal(patch.site_count)
    grid = fr.TorusGrid(d, L, k, 16 * L**k)
    assert fr.qkqk_fourier_residual(patch, v, grid) < 1e-8


def test_qkqk_fourier_reads_only_the_averaging_symbol(monkeypatch):
    # Q*Q needs U alone: no shift system is built for it
    def refuse(*args, **kwargs):
        raise AssertionError("qkqk_fourier built a shift system")

    monkeypatch.setattr(fr, "build_shift_system", refuse)
    patch = lat.block_aligned_patch(2, 3, 1, (0, 0), (2, 2))
    v = np.random.default_rng(11).standard_normal(patch.site_count).astype(complex)
    assert fr.qkqk_fourier_residual(patch, v, fr.TorusGrid(2, 3, 1, 16 * 3)) < 1e-8


def _strip_h(z, L, k, params):
    """``H = M^{-1} U`` at the one node ``z``, shape ``(S,)``, from the
    strip bound's own solve."""
    H, _ = next(fr._strip_solve(np.asarray(z, dtype=complex)[:, None], L, k, params))
    return H[0]


def test_h_function_vs_shift_solve():
    # two independent routes to the same integrand
    rng = np.random.default_rng(13)
    for (d, L, k, mu0) in ((1, 3, 1, 0.0), (1, 3, 2, 0.0), (2, 3, 1, 0.1)):
        params = MultiscaleParams(mu0=mu0)
        shifts = fr.shift_vectors(d, L, k)
        for _ in range(3):
            z = rng.uniform(-3, 3, d) + 1j * rng.uniform(-0.05, 0.05, d)
            Zl = z[None, :] + 2 * np.pi * shifts
            U = u_kernel(Zl, L, k)
            Ub = u_bar_kernel(Zl, L, k)
            lap = laplacian_symbol(Zl, L, k, mu0)
            M = np.diag(lap) + params.a_j(L, k) * np.outer(U, Ub)
            w = np.linalg.solve(M, U)
            hv = _strip_h(z, L, k, params)
            assert np.max(np.abs(hv - w)) < 1e-12 * np.max(np.abs(w))


def test_h_function_regular_at_zero():
    # the massless node: H = U / (a_1 U Ubar) at the zero shift, 0 elsewhere
    H = _strip_h(np.zeros(1), 3, 1, P0)
    assert np.all(np.isfinite(H)) and abs(H[1] - 1.0) < 1e-12  # 1/a_1
    assert np.max(np.abs(H[[0, 2]])) < 1e-12


def test_h_large_mass_floor():
    # large-mass branch: denominator 1 + a_k <<u, u_Delta>> >= 1 at real momenta
    params = MultiscaleParams(mu0=1.0)  # mu0/4 >= eta^2 for k >= 1
    for d, k in ((1, 1), (1, 3), (2, 2)):
        rep = fr.strip_bound_report(d, 3, k, params, q_max=0.0)
        assert rep.min_denominator_margin * fr.DENOMINATOR_FLOOR >= 1.0


def test_h_function_periodic_in_shift():
    # u and Delta are L**k-periodic in the shift: moving z by 2 pi e_mu moves
    # every shift row l to l - e_mu, the row at the edge wrapping round
    rng = np.random.default_rng(17)
    for (d, L, k, mu0) in ((1, 3, 1, 0.0), (1, 3, 2, 1.0), (2, 3, 1, 0.3)):
        params = MultiscaleParams(mu0=mu0)
        z = rng.uniform(-3, 3, d) + 1j * rng.uniform(-0.05, 0.05, d)
        base = _strip_h(z, L, k, params).reshape((L**k,) * d)
        for mu in range(d):
            moved = _strip_h(z + 2 * np.pi * np.eye(d)[mu], L, k, params).reshape(base.shape)
            want = np.roll(base, -1, axis=mu)
            assert np.max(np.abs(moved - want)) < 1e-12 * np.max(np.abs(base))


def _dense_strip(d, L, k, params, q_max, p_samples):
    """Oracle: ``|solve(M, U)|`` times the shift weights and the strip
    denominator over its floor at every sample point, with ``M`` assembled
    entry by entry from the symbols and the denominator read off ``det M``."""
    ells = fr.shift_vectors(d, L, k)
    zero = ~ells.any(axis=1)
    weights = np.prod((1.0 + np.abs(ells)) ** (1.0 + 2.0 / d), axis=-1)
    eta, a_k = float(L) ** (-k), params.a_j(L, k)
    large = params.mu0 / 4.0 >= params.c_star * eta**2
    floor = fr._strip_floor(large, a_k, eta, d)
    p_axis = -np.pi + (np.arange(p_samples) + 0.5) * 2.0 * np.pi / p_samples
    qs = [np.zeros(d)] + [s * q_max * e for e in np.eye(d) for s in (1, -1)]
    qs.append(np.full(d, q_max / np.sqrt(d)))
    vals, margins, lap0 = [], [], []
    for q in qs:
        for p in lat.grid_points([p_axis] * d):
            Z = p + 1j * q + 2 * np.pi * ells
            U, Ub = u_kernel(Z, L, k), u_bar_kernel(Z, L, k)
            lap = laplacian_symbol(Z, L, k, params.mu0)
            M = np.diag(lap) + a_k * np.outer(U, Ub)
            vals.append(np.abs(np.linalg.solve(M, U)) * weights)
            denom = (np.linalg.det(M) / np.prod(lap) if large
                     else eta**2 / 4 * np.linalg.det(M) / np.prod(lap[~zero]))
            margins.append(abs(denom) / floor)
            lap0.append(lap[zero][0])
    return np.array(vals), np.array(margins), np.array(lap0)


@pytest.mark.parametrize("block_bytes", [None, 1])   # 1: one first-axis sample per solve
@pytest.mark.parametrize("mu0", [0.0, 1.0])
@pytest.mark.parametrize("d,L,k", [(1, 3, 1), (1, 3, 2), (2, 3, 1)])
def test_strip_bound_matches_dense_solve(d, L, k, mu0, block_bytes, monkeypatch):
    if block_bytes is not None:
        monkeypatch.setattr(ops, "BLOCK_BYTES", block_bytes)
    params = MultiscaleParams(mu0=mu0)
    rep = fr.strip_bound_report(d, L, k, params, q_max=0.05, p_samples=9)
    vals, margins, lap0 = _dense_strip(d, L, k, params, 0.05, 9)
    if mu0 == 0.0:   # the massless node p = 0 is in the sample
        assert np.sum(lap0 == 0.0) == 1
    dense = np.max(vals, axis=0)
    got = np.array(list(rep.per_shift_sup.values()))
    assert np.max(np.abs(got - dense) / dense) <= 1e-12
    assert abs(rep.weighted_sup - np.max(dense)) <= 1e-12 * np.max(dense)
    assert abs(rep.min_denominator_margin - np.min(margins)) <= 1e-12 * np.min(margins)


def test_strip_bound_report_memory_d3():
    # (3,3,2): one first-axis node a block, 81 nodes by S = 729; the block's
    # w, its M^{-1} U and the weighted magnitudes peak near 3.1 MiB, where
    # the Kronecker-expanded blocks of U and Ubar peaked at 6.6 MiB
    import tracemalloc
    tracemalloc.start()
    try:
        rep = fr.strip_bound_report(3, 3, 2, P0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(rep.weighted_sup) and rep.min_denominator_margin >= 1.0
    assert peak <= 4.5 * 2**20, peak / 2**20


def test_strip_bound_report():
    rep = fr.strip_bound_report(1, 3, 1, P0, q_max=0.05, p_samples=7)
    assert np.isfinite(rep.weighted_sup) and rep.weighted_sup > 0
    assert rep.min_denominator_margin >= 1.0
    assert len(rep.per_shift_sup) == 3


def test_strip_bound_refuses_q_max_past_q_star():
    # q* = 1.0365 at (1,3,1): q_max = 1.2 is past the scan's q_hi, where the
    # strip holds a zero of det M; the report names q* and refuses, and so
    # it does at q_hi itself, and so does the contour shift, before any
    # quadrature: a configuration error (lattice.GeometryError)
    assert fr.q_star_bracket(1, 3, 1, P0)[1] < 1.2
    with pytest.raises(fr.StripViolationError, match=re.escape("q*")):
        fr.strip_bound_report(1, 3, 1, P0, q_max=1.2)
    with pytest.raises(fr.StripViolationError, match="analyticity width"):
        fr.strip_bound_report(2, 3, 2, P0, q_max=fr.q_star_bracket(2, 3, 2, P0)[1])
    with pytest.raises(lat.GeometryError, match=re.escape("q=1.2 at or past the analyticity")):
        fr.contour_shift_change(fr.default_grid(1, 3, 1), P0, 1.2)


def test_strip_violation_names_the_node():
    # q = 1.03 lies past the strip's edge: the denominator of the node
    # p = 0 on the contour q e_0 drops below its floor
    with pytest.raises(fr.StripViolationError, match=re.escape("at z=[0.+1.03j]")):
        fr.strip_bound_report(1, 3, 1, P0, q_max=1.03)


def test_technical_bounds():
    checks = technical_bounds_report(n_grid=21)
    by_name = {c.name: c for c in checks}
    assert by_name["sinc_lower_bound"].worst >= 0.2
    assert by_name["shifted_distance_lower"].worst >= 1.0 - 1e-12
    assert by_name["one_plus_shift_lower"].worst >= 1.0 - 1e-12
    for c in checks:
        assert np.isfinite(c.worst) and np.isfinite(c.worst_refined)
        assert c.drift <= 2.0, (c.name, c.drift)
