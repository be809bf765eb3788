import numpy as np
import pytest

from blockrg import fourier as fr, lattice as lat
from blockrg.multiscale import MultiscaleParams
from oracles import free_laplacian_1d, interior_mask

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
    v = fr._to_shift_layout(x, grid)
    assert v.shape == (grid.base_count**d, (L**k) ** d)
    assert np.array_equal(fr._from_shift_layout(v, grid), x)
    # entry (node, shift) is the big-torus sample at base node + 2 pi shift
    K = lat.grid_points([grid.full_nodes_1d()] * d)
    Z = fr.shifted_momenta(grid.base_nodes(), fr.shift_vectors(d, L, k))
    for mu in range(d):
        assert np.array_equal(fr._to_shift_layout(K[:, mu], grid).real, Z[..., mu])


def test_u_at_zero_via_limit_oracle():
    # series oracle: evaluate the raw ratio at shrinking p
    eta = 1.0 / 3.0
    for p in (1e-3, 1e-5):
        raw = eta * (1 - np.exp(-1j * p)) / (1 - np.exp(-1j * p * eta))
        assert abs(fr.u_kernel(np.array([p]), 3, 1) - raw) < 1e-10
    assert fr.u_kernel(np.zeros(1), 3, 1) == pytest.approx(1.0)
    assert fr.u_kernel(np.zeros(2), 3, 2) == pytest.approx(1.0)


def test_u_trivial_at_k0():
    p = np.linspace(-2, 2, 9).reshape(-1, 1)
    assert np.allclose(fr.u_kernel(p, 3, 0), 1.0)


def test_u_genuine_zeros():
    # at z = 2 pi ell (ell not a multiple of L^k) the symbol vanishes
    assert abs(fr.u_kernel(np.array([2 * np.pi]), 3, 1)) < 1e-14


def test_laplacian_symbol_reference():
    assert fr.laplacian_symbol(np.zeros(1), 3, 0, 0.0) == pytest.approx(0.0)
    assert fr.laplacian_symbol(np.array([np.pi]), 3, 0, 0.0) == pytest.approx(4.0)
    # mass term: (4/eta^2) * mu0/4 = mu_bar_k
    val = fr.laplacian_symbol(np.zeros(1), 3, 1, 0.4)
    assert val == pytest.approx(9 * 0.4)


def test_laplacian_symbol_vs_stencil_plane_wave():
    # oracle: free interior stencil applied to exp(i p x)
    L, k = 3, 1
    eta = 1.0 / 3.0
    patch = lat.FreePatch(d=1, L=L, k=k, lo=(-5,), hi=(5,))
    M = free_laplacian_1d(patch)
    pos = lat.patch_positions(patch)[:, 0]
    rng = np.random.default_rng(1)
    for p in rng.uniform(-np.pi / eta, np.pi / eta, 5):
        wave = np.exp(1j * p * pos)
        applied = -(M @ wave)
        inner = interior_mask(patch)
        symbol = fr.laplacian_symbol(np.array([p]), L, k, 0.0)
        assert np.max(np.abs(applied[inner] - symbol * wave[inner])) < 1e-12 * abs(symbol + 1)


def test_u_delta_pole_guard():
    with pytest.raises(fr.PoleProximityError):
        fr.u_delta(np.zeros(1), np.zeros(1), 3, 1, 0.0)
    # fine away from the pole, and with a mass at the origin
    fr.u_delta(np.array([0.3]), np.zeros(1), 3, 1, 0.0)
    fr.u_delta(np.zeros(1), np.zeros(1), 3, 1, 0.1)


def test_u_delta_periodicity():
    # the shifted family has period 2 pi L^k in each real direction
    L, k = 3, 1
    rng = np.random.default_rng(2)
    for _ in range(4):
        p = rng.uniform(0.2, np.pi, size=1)
        v1 = fr.u_delta(p, np.zeros(1), L, k, 0.0)
        v2 = fr.u_delta(p + 2 * np.pi * L**k, np.zeros(1), L, k, 0.0)
        assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_bracket_k0_single_term():
    p = np.array([0.7])
    lhs = fr.bracket(p, 3, 0, 0.3)
    rhs = abs(fr.u_kernel(p, 3, 0)) ** 2 / fr.laplacian_symbol(p, 3, 0, 0.3)
    assert lhs == pytest.approx(rhs)


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


def test_free_apply_ghat_k0_collapse():
    # k = 0: u = 1, so G-hat is division by (Delta(p) + a)
    grid = fr.TorusGrid(1, 3, 0, 8)
    rng = np.random.default_rng(8)
    fhat = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    ghat = fr.free_apply_ghat(fhat, grid, P0)
    p = grid.full_nodes_1d().reshape(-1, 1)
    expect = fhat / (fr.laplacian_symbol(p, 3, 0, 0.0).ravel() + 1.0)
    assert np.max(np.abs(ghat - expect)) < 1e-13 * np.max(np.abs(fhat))


ORACLE_CASES = [(1, 3, 0), (1, 3, 1), (1, 3, 2), (2, 3, 1), (2, 3, 2)]
ORACLE_SETTINGS = [(0.0, None), (0.0, 0.05), (0.3, None)]   # (mu0, q_0)


def _dense_shift_matrices(grid, params, q):
    """Oracle: shifted momenta ``Z`` and the per-node shift matrices, entry by entry."""
    L, k = grid.L, grid.k
    nodes = grid.base_nodes() + 1j * q
    Z = nodes[:, None, :] + 2 * np.pi * fr.shift_vectors(grid.d, L, k)[None, :, :]
    U, Ub = fr.u_kernel(Z, L, k), fr.u_bar_kernel(Z, L, k)
    lap = fr.laplacian_symbol(Z, L, k, params.mu0)
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
    Minv, Minv_sm, M_sm = np.linalg.inv(M), sys.Minv.dense(), sys.Mmat.dense()
    for node in range(n):     # per node, against that node's own scale
        assert _rel(Minv_sm[node], Minv[node]) <= 1e-12
        assert _rel(M_sm[node], M[node]) <= 1e-12
    rng = np.random.default_rng(23)
    v = rng.standard_normal((n, S, 3)) + 1j * rng.standard_normal((n, S, 3))
    assert _rel(sys.solve(v), np.linalg.solve(M, v)) <= 1e-12
    assert _rel(sys.apply(v), M @ v) <= 1e-12
    assert _rel(sys.solve(v[:, :, 0]), np.linalg.solve(M, v[:, :, :1])[:, :, 0]) <= 1e-12
    assert sys.Minv.nbytes + sys.Mmat.nbytes < 8 * n * S * 16


@pytest.mark.parametrize("q0", [None, 0.3], ids=["real", "shifted"])
@pytest.mark.parametrize("d,L,k", [(1, 3, 2), (2, 3, 1), (2, 3, 2)])
def test_node_blocks_match_whole_grid_system(d, L, k, q0, monkeypatch):
    # the kernels' NodeBlock and the whole-grid ShiftSystem are two builders
    # of the same Sherman-Morrison pieces; with one first-axis node per block
    # they must agree node by node
    monkeypatch.setattr(fr, "NODE_BLOCK_BYTES", 1)
    grid = fr.default_grid(d, L, k)
    q = _contour(d, q0)
    blocks = list(fr._node_blocks(fr._axis_nodes(grid, q), L, k, P0))
    assert len(blocks) == grid.base_count
    sys = fr.build_shift_system(grid, P0, shift_q=q)
    c0, den = (np.concatenate([getattr(b, name) for b in blocks]) for name in ("c0", "den"))
    H = np.concatenate([b.solve_u() for b in blocks])
    assert np.max(np.abs(c0 - sys.c0) / np.abs(sys.c0)) <= 1e-13
    assert np.max(np.abs(den - sys.den) / np.abs(sys.den)) <= 1e-13
    H_sys = sys.solve(sys.U)
    for node in range(len(H)):
        assert _rel(H[node], H_sys[node]) <= 1e-13


@pytest.mark.parametrize("d,L,k", [(1, 3, 0), (2, 3, 0), (1, 3, 2), (2, 3, 1), (3, 3, 1),
                                   (1, 5, 0), (1, 5, 1), (2, 5, 1), (3, 5, 1)])
def test_zero_shift_is_the_middle_row(d, L, k, monkeypatch):
    shifts = fr.shift_vectors(d, L, k)

    def refuse(*args):
        raise AssertionError("_zero_and_coupling built the shift table")

    monkeypatch.setattr(fr, "shift_vectors", refuse)
    zero, _ = fr._zero_and_coupling(d, L, k, P0)
    assert np.flatnonzero(~shifts.any(axis=1)).tolist() == [zero]


# (mu0, q_0, a, NODE_BLOCK_BYTES); a budget of 1 byte puts one first-axis
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
    nodes = grid.base_nodes() + 1j * q
    Ex = np.exp(1j * np.einsum("nsd,xd->nsx", Z, xs))
    Ey = np.exp(-1j * np.einsum("nsd,yd->nsy", Z, ys))
    G = np.einsum("nsx,nsy->xy", Ex, Minv @ Ey) / len(nodes)
    U = fr.u_kernel(Z, grid.L, grid.k)
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
        monkeypatch.setattr(fr, "NODE_BLOCK_BYTES", block_bytes)
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
    X, Y = (next(fr._node_blocks(list((sign * p + 1j * qv).T), L, k, P0)).solve_u()
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
    # fourier-verify's contour check at (2,3,2): G(0, 2e) converges on
    # M0 = 64 (4096 nodes, S = 81), where one whole-grid shift system holds
    # 20 MiB of (nodes, S) arrays
    import tracemalloc
    tracemalloc.start()
    try:
        change = fr.contour_shift_change(fr.default_grid(2, 3, 2), P0, fr.STRIP_Q_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert change <= 1e-8
    assert peak <= 6 * 2**20


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
    return np.exp(-1j * K @ (lat.patch_sites(patch) * patch.spacing).T)


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
    sites = list(lat.patch_sites(patch)[:, 0])
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
    pos = lat.patch_positions(patch)
    y = np.array([[0.0]])
    grid = fr.default_grid(1, L, k)
    col, _, _ = fr.converge_kernel(
        lambda g: fr.free_kernel_g(pos, y, g, P0)[:, 0], grid, tol=1e-10)
    stencil = free_laplacian_1d(patch)
    applied = -(stencil @ col) + P0.a_j(L, k) * fr.qkqk_spatial(patch, col)
    delta = np.zeros(patch.site_count)
    delta[list(map(tuple, lat.patch_sites(patch))).index((0,))] = eta**-1
    interior = interior_mask(patch)
    resid = np.max(np.abs(applied - delta)[interior])
    assert resid < 1e-7


def test_qkqk_block_indicator_fixed_point():
    patch = lat.block_aligned_patch(1, 3, 1, (0,), (2,))
    v = np.zeros(patch.site_count)
    v[3:6] = 1.0  # one whole unit block
    assert np.allclose(fr.qkqk_spatial(patch, v), v)
    grid = fr.TorusGrid(1, 3, 1, 48)
    four = fr.qkqk_fourier(patch, v.astype(complex), grid, P0)
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
    assert fr.qkqk_fourier_residual(patch, v, grid, P0) < 1e-8


def test_qkqk_fourier_reads_only_the_averaging_symbol(monkeypatch):
    # Q*Q needs U alone: no whole-grid shift system is built for it
    def refuse(*args, **kwargs):
        raise AssertionError("qkqk_fourier built a shift system")

    monkeypatch.setattr(fr, "build_shift_system", refuse)
    patch = lat.block_aligned_patch(2, 3, 1, (0, 0), (2, 2))
    v = np.random.default_rng(11).standard_normal(patch.site_count).astype(complex)
    assert fr.qkqk_fourier_residual(patch, v, fr.TorusGrid(2, 3, 1, 16 * 3), P0) < 1e-8


def test_h_function_vs_shift_solve():
    # two independent routes to the same integrand
    rng = np.random.default_rng(13)
    for (d, L, k, mu0) in ((1, 3, 1, 0.0), (1, 3, 2, 0.0), (2, 3, 1, 0.1)):
        params = MultiscaleParams(mu0=mu0)
        shifts = fr.shift_vectors(d, L, k)
        for _ in range(3):
            z = rng.uniform(-3, 3, d) + 1j * rng.uniform(-0.05, 0.05, d)
            Zl = z[None, :] + 2 * np.pi * shifts
            U = fr.u_kernel(Zl, L, k)
            Ub = fr.u_bar_kernel(Zl, L, k)
            lap = fr.laplacian_symbol(Zl, L, k, mu0)
            M = np.diag(lap) + params.a_j(L, k) * np.outer(U, Ub)
            w = np.linalg.solve(M, U)
            hv = fr.h_function(z, shifts, L, k, params)
            assert np.max(np.abs(hv - w)) < 1e-12 * np.max(np.abs(w))


def test_h_function_regular_at_zero():
    val = fr.h_function(np.zeros(1), np.zeros(1), 3, 1, P0)
    assert np.isfinite(val) and abs(val - 1.0) < 1e-12  # 1/a_1


def test_h_large_mass_floor():
    # large-mass branch: denominator 1 + a_k <<u, u_Delta>> >= 1 at real momenta
    params = MultiscaleParams(mu0=1.0)  # mu0/4 >= eta^2 for k >= 1
    for d, k in ((1, 1), (1, 3), (2, 2)):
        rep = fr.strip_bound_report(d, 3, k, params, q_max=0.0)
        assert rep.min_denominator_margin * fr.DENOMINATOR_FLOOR >= 1.0


def test_h_function_periodic_in_shift():
    # u and Delta are L**k-periodic in the shift: a row l' + L**k e_mu reads
    # the shift system at l', and agrees with the integrand at the unreduced momentum
    rng = np.random.default_rng(17)
    for (d, L, k, mu0) in ((1, 3, 1, 0.0), (1, 3, 2, 1.0), (2, 3, 1, 0.3)):
        params = MultiscaleParams(mu0=mu0)
        ells = fr.shift_vectors(d, L, k)
        z = rng.uniform(-3, 3, d) + 1j * rng.uniform(-0.05, 0.05, d)
        base = fr.h_function(z, ells, L, k, params)
        denom = 1.0 + params.a_j(L, k) * fr.bracket(z, L, k, mu0)
        for mu in range(d):
            moved = ells + L**k * np.eye(d)[mu]
            h = fr.h_function(z, moved, L, k, params)
            assert np.array_equal(h, base)
            direct = fr.u_delta(z, moved, L, k, mu0) / denom
            assert np.max(np.abs(h - direct)) < 1e-12 * np.max(np.abs(direct))


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
            U, Ub = fr.u_kernel(Z, L, k), fr.u_bar_kernel(Z, L, k)
            lap = fr.laplacian_symbol(Z, L, k, params.mu0)
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
        monkeypatch.setattr(fr, "NODE_BLOCK_BYTES", block_bytes)
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


def test_strip_bound_report():
    rep = fr.strip_bound_report(1, 3, 1, P0, q_max=0.05, p_samples=7)
    assert np.isfinite(rep.weighted_sup) and rep.weighted_sup > 0
    assert rep.min_denominator_margin >= 1.0
    assert len(rep.per_shift_sup) == 3


def test_technical_bounds():
    checks = fr.technical_bounds_report(n_grid=21)
    by_name = {c.name: c for c in checks}
    assert by_name["sinc_lower_bound"].worst >= 0.2
    assert by_name["shifted_distance_lower"].worst >= 1.0 - 1e-12
    assert by_name["one_plus_shift_lower"].worst >= 1.0 - 1e-12
    for c in checks:
        assert np.isfinite(c.worst) and np.isfinite(c.worst_refined)
        assert c.drift <= 2.0, (c.name, c.drift)
