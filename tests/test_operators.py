import math

import numpy as np
import pytest

from blockrg import lattice as lat, operators as ops
from oracles import (chebyshev_u, constant_field, free_laplacian_1d, inner, interior_mask,
                     norm, patch_sites, random_field, rel_frobenius)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _diff(geom, axis: int, backward: bool = False) -> ops.KernelOperator:
    """Forward difference ``(f_{c+1} - f_c)/eta`` along ``axis``, or backward
    ``-(f_c - f_{c-1})/eta``, the Neumann ghost value clamped (``f_N = f_{N-1}``,
    ``f_{-1} = f_0``); the backward one is the adjoint of the forward one."""
    N = geom.sites_per_axis
    D1 = np.eye(N, k=-1 if backward else 1) - np.eye(N)
    D1[0 if backward else -1] = 0.0
    return ops.from_matrix(geom, geom, ops._axis_operator(geom, D1 / geom.spacing, axis))


def test_probes_reproduce_their_seed():
    a, b = ops.Probes(11), ops.Probes(11)
    assert np.array_equal(a.standard_normal((4, 5)), b.standard_normal((4, 5)))
    assert np.array_equal(a.uniform(-1.0, 2.0, 7), b.uniform(-1.0, 2.0, 7))
    assert not np.array_equal(ops.Probes(11).standard_normal(20), ops.Probes(12).standard_normal(20))
    assert not np.array_equal(ops.Probes(11).uniform(0.0, 1.0, 20),
                              ops.Probes(12).uniform(0.0, 1.0, 20))


@pytest.mark.parametrize("n,m", [(0, 5), (1, 1), (3, 4), (7, 9), (6, 2), (5, 0)])
def test_probes_draw_one_stream(n, m):
    whole = ops.Probes(3).standard_normal(n + m)
    p = ops.Probes(3)
    assert np.array_equal(np.concatenate([p.standard_normal(n), p.standard_normal((1, m)).ravel()]),
                          whole)
    # a uniform draw between them leaves the kept second normal of a pair
    # for the next normal draw
    p, q = ops.Probes(3), ops.Probes(3)
    first = p.standard_normal(3)
    u = p.uniform(0.0, 1.0, 2)
    four = q.standard_normal(4)
    assert np.array_equal(first, four[:3]) and np.array_equal(u, q.uniform(0.0, 1.0, 2))
    assert p.standard_normal(2)[0] == four[3]


@pytest.mark.parametrize("seed", [0, 1])
def test_probes_normals_are_standard(seed):
    # five standard errors for the moments; sqrt(n) D below 1.95, the 0.1 %
    # point of the Kolmogorov distribution
    n = 200_000
    z = ops.Probes(seed).standard_normal(n)
    mean, var = z.mean(), z.var()
    excess_kurtosis = np.mean((z - mean) ** 4) / var ** 2 - 3.0
    assert abs(mean) < 5.0 / np.sqrt(n)
    assert abs(var - 1.0) < 5.0 * np.sqrt(2.0 / n)
    assert abs(excess_kurtosis) < 5.0 * np.sqrt(24.0 / n)
    s = np.sort(z)
    cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(s / np.sqrt(2.0)).astype(float))
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert np.sqrt(n) * ks < 1.95


def test_probes_uniforms_of_any_shape():
    p = ops.Probes(5)
    for shape in [(), 7, (3, 4), (2, 0, 5), (2, 3, 4)]:
        assert p.uniform(-np.pi, np.pi, shape).shape == np.empty(shape).shape
        assert p.standard_normal(shape).shape == np.empty(shape).shape
    u = p.uniform(-2.0, 3.0, 100_000)
    assert u.min() >= -2.0 and u.max() < 3.0
    assert abs(u.mean() - 0.5) < 5.0 * 5.0 / np.sqrt(12 * u.size)


class _LoggedBits:
    """A bit source that logs the size of every ``getrandbits`` request."""

    def __init__(self, source):
        self.source, self.log = source, []

    def getrandbits(self, k: int) -> int:
        self.log.append(k)
        return self.source.getrandbits(k)


def _draws(p, calls):
    return [p.standard_normal(size) if kind == "n" else p.uniform(-1.0, 2.0, size)
            for kind, size in calls]


@pytest.mark.parametrize("budget", [1, 48, 144, 150])    # pairs a chunk: 1, 1, 3, 3
def test_probes_chunks_change_no_bit(budget, monkeypatch):
    # at the default budget each call below is one chunk; at a tiny one the
    # same calls go chunk by chunk and give the same bits: odd counts, n then
    # m across a chunk boundary, a kept normal across a uniform draw and
    # across chunks, and uniforms across chunks
    calls = [("n", 7), ("n", 1), ("u", 13), ("n", (2, 5)), ("n", 9), ("u", 1), ("n", 0),
             ("n", 4), ("u", (3, 3)), ("n", 11)]
    want = _draws(ops.Probes(5), calls)
    whole = ops.Probes(5).standard_normal(7 + 11)
    monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
    p = ops.Probes(5)
    p._random = bits = _LoggedBits(p._random)
    for got, w in zip(_draws(p, calls), want):
        assert np.array_equal(got, w)
    # the chunks kept within the budget, 24 bytes (64 bits) a uniform, and
    # at least one pair of them
    assert max(bits.log) <= 64 * max(2, budget // 24) and len(bits.log) > len(calls)
    q = ops.Probes(5)
    assert np.array_equal(np.concatenate([q.standard_normal(7), q.standard_normal(11)]), whole)


class _ConstantBits:
    """A bit source whose bits are all ones or all zeros."""

    def __init__(self, ones: bool):
        self.ones = ones

    def getrandbits(self, k: int) -> int:
        return (1 << k) - 1 if self.ones else 0


def test_probes_extreme_bits_stay_finite():
    # all ones: the largest uniform 1 - 2**-53, so Box-Muller's log reads its
    # smallest argument 2**-53 > 0 (pytest turns a RuntimeWarning such as
    # log(0) into an error); all zeros: the uniform low, and radius 0
    p = ops.Probes(0)
    p._random = _ConstantBits(True)
    assert np.all(p.uniform(0.0, 1.0, 4) == 1.0 - 2.0 ** -53)
    assert np.all(p.uniform(-np.pi, np.pi, 4) < np.pi)      # fourier-verify's momenta
    z = p.standard_normal(3)
    assert np.all(np.isfinite(z))
    assert z[0] == pytest.approx(np.sqrt(106.0 * np.log(2.0)), rel=1e-12)
    p = ops.Probes(0)
    p._random = _ConstantBits(False)
    assert np.all(p.uniform(-1.0, 1.0, 4) == -1.0)
    assert np.all(p.standard_normal(3) == 0.0)


def test_identity_and_adjoint(rng):
    g = lat.make_geometry(2, 3, 1, 1)
    f = random_field(g, rng)
    assert np.allclose(ops.apply(ops.identity(g), f).values, f.values)
    A = ops.KernelOperator(g, g, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    assert np.array_equal(ops.adjoint(ops.adjoint(A)).kernel, A.kernel)
    h, f2 = random_field(g, rng), random_field(g, rng)
    lhs = inner(h, ops.apply(A, f2))
    rhs = inner(ops.apply(ops.adjoint(A), h), f2)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_invert_two_site_neumann():
    # 2-site Neumann stencil at eta = 1: (-Lap + 1) has the hand-solved matrix
    T = ops._neumann_lap_1d(2, 1.0)
    assert np.allclose(T, [[-1.0, 1.0], [1.0, -1.0]])
    M = -T + np.eye(2)
    assert np.allclose(M, [[2.0, -1.0], [-1.0, 2.0]])
    rng = np.random.default_rng(4)
    f = rng.standard_normal(2)
    assert np.max(np.abs(M @ np.linalg.solve(M, f) - f)) < 1e-14


@pytest.mark.parametrize("N", [1, 2, 3, 243])
def test_neumann_lap_1d_is_the_site_stencil(N):
    # oracle: site by site, -2 f(x) plus each neighbour, a missing one
    # clamped to f(x); the assembled matrix agrees bit for bit
    eta = 1.0 / 3**5
    T = np.zeros((N, N))
    for i in range(N):
        T[i, i] = -2.0
        for nb in (i - 1, i + 1):
            T[i, nb if 0 <= nb < N else i] += 1.0
    assert np.array_equal(ops._neumann_lap_1d(N, eta), T / eta**2)


def test_invert_roundtrip(rng):
    g = lat.make_geometry(1, 3, 1, 2)
    lap = ops.neumann_laplacian(g)
    A = ops.scale(lap, -1.0) + ops.identity(g)
    Ainv = ops.invert(A)
    f = random_field(g, rng)
    back = ops.apply(A, ops.apply(Ainv, f))
    assert np.max(np.abs(back.values - f.values)) < 1e-12 * np.max(np.abs(f.values))
    assert rel_frobenius(ops.invert(Ainv), A) < 1e-12


def test_singular_raises():
    g = lat.make_geometry(1, 3, 1, 1)
    lap = ops.neumann_laplacian(g)  # constants in kernel -> singular
    with pytest.raises(ops.SingularOperatorError):
        ops.invert(lap)


def test_near_singular_raises():
    g = lat.make_geometry(1, 3, 0, 1)   # eta = 1: the value matrix is the kernel
    with pytest.raises(ops.SingularOperatorError):
        ops.invert(ops.from_matrix(g, g, np.diag([1.0, 1.0, 1e-16])))


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (2, 1)])
def test_condition_check_brackets_two_norm(d, m, rng):
    # kappa_1 = |M|_1 |M^-1|_1 lies in [kappa_2 / n, n kappa_2]; invert raises
    # exactly when kappa_1 exceeds CONDITION_LIMIT, so a kappa_2 beyond
    # n * limit always raises and one below limit / n never does
    g = lat.make_geometry(d, 3, 0, m)
    n = g.site_count
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    for kappa2 in (1e2, 1e8, ops.CONDITION_LIMIT / (2 * n)):
        M = U @ np.diag(np.geomspace(1.0, 1.0 / kappa2, n)) @ V.T
        Minv = ops.invert(ops.from_matrix(g, g, M)).matrix
        kappa1 = np.linalg.norm(M, 1) * np.linalg.norm(Minv, 1)
        cond2 = np.linalg.cond(M)
        assert cond2 / n <= kappa1 <= n * cond2
    M = U @ np.diag(np.geomspace(1.0, 1.0 / (2 * n * ops.CONDITION_LIMIT), n)) @ V.T
    with pytest.raises(ops.SingularOperatorError) as err:
        ops.invert(ops.from_matrix(g, g, M))
    cond2 = np.linalg.cond(M)
    assert cond2 / n <= err.value.cond <= n * cond2


def test_real_kernels_stay_real(rng):
    from blockrg import decay, multiscale as ms
    g = lat.make_geometry(2, 3, 1, 1)
    for A in (ops.neumann_laplacian(g), ops.averaging(g, 1), ops.identity(g),
              _diff(g, 0), ms.green_j(g, ms.MultiscaleParams(), 1),
              decay.conjugated_operator(g, ms.MultiscaleParams(), 0.05),
              ops.from_matrix(g, g, np.eye(9, dtype=int))):
        assert A.kernel.dtype == np.float64
    C = ops.KernelOperator(g, g, rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)))
    lap = ops.neumann_laplacian(g)
    assert (lap @ C).kernel.dtype == np.complex128
    assert (C @ lap).kernel.dtype == np.complex128
    assert ops.apply(lap, random_field(g, rng)).values.dtype == np.complex128
    assert np.allclose((lap @ C).matrix, lap.matrix @ C.matrix, rtol=1e-14, atol=0)


def test_compose_adjoint_algebra(rng):
    g = lat.make_geometry(1, 3, 1, 2)
    c = lat.coarse_geometry(g, 1)
    Q = ops.averaging(g, 1)
    A = ops.KernelOperator(c, c, rng.standard_normal((3, 3)))
    lhs = ops.adjoint(A @ Q)
    rhs = ops.adjoint(Q) @ ops.adjoint(A)
    assert np.allclose(lhs.kernel, rhs.kernel, atol=1e-14)


def _rel(X, Y):
    return np.linalg.norm(X - Y) / np.linalg.norm(Y)


@pytest.mark.parametrize("geom_args", [(1, 3, 2, 3), (2, 3, 1, 2)])
@pytest.mark.parametrize("ell", [0, 1, 3])    # ell = 3 scales to k < 0
def test_kernel_algebra_matches_value_matrix_route(geom_args, ell, rng):
    # compose, apply and invert carry one scalar measure factor on kernels;
    # the reference is the value-matrix route, with mismatched spacings
    from blockrg import multiscale as ms
    g = lat.scale_geometry(lat.make_geometry(*geom_args), ell)
    c = lat.coarse_geometry(g, 1)
    n, nc = g.site_count, c.site_count
    Q = ops.averaging(g, 1)
    D = ops.KernelOperator(g, g, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    C = ops.KernelOperator(c, c, rng.standard_normal((nc, nc)))
    maps = [Q, D, C]
    if g.k >= 1:
        maps.append(ms.rg_operators(g, ms.MultiscaleParams(mu0=0.1), 1).H_j)
    maps += [ops.adjoint(A) for A in maps]
    pairs = [(A, B) for A in maps for B in maps if B.target == A.source]
    assert len(pairs) >= 12
    for A, B in pairs:
        ref = ops.from_matrix(B.source, A.target, A.matrix @ B.matrix)
        assert _rel((A @ B).kernel, ref.kernel) <= 1e-14
    for A in maps:
        f = random_field(A.source, rng)
        assert _rel(ops.apply(A, f).values, A.matrix @ f.values) <= 1e-14
    for A in (ops.scale(ops.neumann_laplacian(g), -1.0) + ops.identity(g),
              ops.identity(g) + ops.scale(D, 0.1 * g.spacing ** -g.d),
              ops.identity(c) + ops.scale(C, 0.1 * c.spacing ** -c.d)):
        assert _rel(ops.invert(A).matrix, np.linalg.inv(A.matrix)) <= 1e-14


@pytest.mark.parametrize("geom_args", [(1, 3, 2, 3), (2, 3, 1, 2), (2, 3, -1, 2)])
def test_block_projector_is_q_star_q(geom_args):
    g = lat.LatticeGeometry(*geom_args)
    for j in range(g.m + 1):
        Q = ops.averaging(g, j)
        assert rel_frobenius(ops.block_projector(g, j), ops.adjoint(Q) @ Q) <= 1e-15
    with pytest.raises(lat.GeometryError):
        ops.block_projector(g, g.m + 1)


@pytest.mark.parametrize("j", [-1, 3])
def test_block_level_outside_the_cube_is_a_geometry_error(j):
    # the dense block means and the DCT classes take coarse_geometry's rule
    g = lat.make_geometry(2, 3, 1, 2)
    for call in (ops.block_projector, ops.averaging, ops.dct_frequency_classes):
        with pytest.raises(lat.GeometryError, match=rf"level j={j} outside \[0, 2\]"):
            call(g, j)


def test_forward_diff_reference():
    g = lat.make_geometry(1, 3, 0, 1)  # 3 sites, eta = 1
    f = ops.Field(g, [0.0, 1.0, 2.0])
    out = ops.apply(_diff(g, 0), f)
    assert np.allclose(out.values, [1.0, 1.0, 0.0])
    const = constant_field(g, 2.3)
    assert np.allclose(ops.apply(_diff(g, 0), const).values, 0.0)
    assert np.allclose(ops.apply(_diff(g, 0, backward=True), const).values, 0.0)


def test_integration_by_parts(rng):
    # <f, del g> = <del^dagger f, g> - conj(f_0) g_0 + conj(f_{N-1}) g_{N-1}
    g = lat.make_geometry(1, 3, 1, 2)
    f, h = random_field(g, rng), random_field(g, rng)
    lhs = inner(f, ops.apply(_diff(g, 0), h))
    rhs = inner(ops.apply(_diff(g, 0, backward=True), f), h)
    rhs += -np.conj(f.values[0]) * h.values[0] + np.conj(f.values[-1]) * h.values[-1]
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


def test_leibniz_rule(rng):
    g = lat.make_geometry(1, 3, 1, 2)
    D = _diff(g, 0).matrix
    f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    h = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    fg = D @ (f * h)
    h_shift = np.append(h[1:], h[-1])  # Neumann ghost
    rhs = (D @ f) * h_shift + f * (D @ h)
    assert np.max(np.abs(fg - rhs)) < 1e-12


def test_neumann_laplacian_reference():
    g = lat.make_geometry(1, 3, 1, 1)
    M = ops.neumann_laplacian(g).matrix
    eta2 = g.spacing**2
    expect = np.array([[-1, 1, 0], [1, -2, 1], [0, 1, -1]]) / eta2
    assert np.allclose(M, expect)
    assert np.allclose(M @ np.ones(3), 0.0, atol=1e-12)


def test_laplacian_positivity_form(rng):
    g = lat.make_geometry(2, 3, 1, 1)
    lap = ops.neumann_laplacian(g)
    f = random_field(g, rng)
    quad = -inner(f, ops.apply(lap, f)).real
    # oracle: explicit bond sum
    vals = f.values.reshape(3, 3)
    bonds = 0.0
    for i in range(3):
        for j in range(3):
            if i + 1 < 3:
                bonds += abs(vals[i + 1, j] - vals[i, j]) ** 2
            if j + 1 < 3:
                bonds += abs(vals[i, j + 1] - vals[i, j]) ** 2
    expect = g.spacing**g.d * bonds / g.spacing**2
    assert quad == pytest.approx(expect, rel=1e-12)
    assert quad >= 0.0


def test_averaging_reference():
    g = lat.make_geometry(1, 3, 1, 2)
    Q = ops.averaging(g, 1)
    f = ops.Field(g, [1, 2, 3, 0, 0, 0, 0, 0, 0])
    assert np.allclose(ops.apply(Q, f).values, [2.0, 0.0, 0.0])
    ones = constant_field(g, 1.0)
    assert np.allclose(ops.apply(Q, ones).values, 1.0)


def test_averaging_partial_isometry():
    g = lat.make_geometry(2, 3, 1, 2)
    for j in (1, 2):
        Q = ops.averaging(g, j)
        coarse = lat.coarse_geometry(g, j)
        QQs = Q @ ops.adjoint(Q)
        assert rel_frobenius(QQs, ops.identity(coarse)) < 1e-14
        P = ops.block_projector(g, j)
        assert rel_frobenius(P @ P, P) < 1e-14
        assert ops.self_adjointness_defect(P) < 1e-14


def test_scaling_unitary(rng):
    g = lat.make_geometry(2, 3, 1, 2)
    S0 = ops.scaling_unitary(g, 0)
    assert np.allclose(S0.matrix, np.eye(g.site_count))
    S = ops.scaling_unitary(g, 1)
    f = random_field(g, rng)
    assert norm(ops.apply(S, f)) == pytest.approx(norm(f), rel=1e-14)
    # semigroup
    S2 = ops.scaling_unitary(lat.scale_geometry(g, 1), 1)
    both = S2 @ S
    direct = ops.scaling_unitary(g, 2)
    assert rel_frobenius(both, direct) < 1e-14


@pytest.mark.parametrize("d", [1, 2])
def test_laplacian_scaling_intertwining(d):
    g = lat.make_geometry(d, 3, 1, 2 if d == 1 else 1)
    S = ops.scaling_unitary(g, 1)
    lam = 3.0
    lhs = lam**2 * (ops.adjoint(S) @ ops.neumann_laplacian(lat.scale_geometry(g, 1)) @ S)
    assert rel_frobenius(lhs, ops.neumann_laplacian(g)) < 1e-12


def test_spectrum_1d_closed_form():
    for n in (2, 5, 27):
        rep = ops.laplacian_spectrum_1d(n, 1.0 / 3.0)
        assert ops.spectrum_rel_error(rep) < 1e-10
    rep2 = ops.laplacian_spectrum_1d(2, 1.0)
    assert np.allclose(rep2.eigenvalues, [-2.0, 0.0])


@pytest.mark.parametrize("g", [(1, 3, 1, 1), (1, 3, 1, 4), (1, 3, 2, 4)])
def test_spectrum_closed_form_is_the_class_spectrum(g):
    # the spectrum suite's closed form is the -Lap spectrum that the
    # frequency classes (positivity, rg-verify) assign, bit for bit
    geom = lat.make_geometry(*g)
    closed = ops.laplacian_spectrum_1d(geom.sites_per_axis, geom.spacing).closed_form
    for j in range(geom.m + 1):
        lam, _ = ops.dct_frequency_classes(geom, j)
        assert np.array_equal(closed, np.sort(-lam.ravel()))


def test_chebyshev_basics():
    alpha = np.linspace(-1, 1, 7)
    assert np.allclose(chebyshev_u(0, alpha), 1.0)
    assert np.allclose(chebyshev_u(1, alpha), 2 * alpha)
    assert np.allclose(np.sort(ops.chebyshev_roots(2)), [-0.5, 0.5])


def test_chebyshev_roots_vs_polynomial():
    for n in (3, 8, 15):
        # independent oracle: monomial coefficients by recurrence, then np.roots
        coeffs = {0: np.array([1.0]), 1: np.array([0.0, 2.0])}
        for mm in range(2, n + 1):
            a = np.zeros(mm + 1)
            a[1:] += 2.0 * coeffs[mm - 1]
            a[: mm - 1] -= coeffs[mm - 2]
            coeffs[mm] = a
        numeric = np.sort(np.roots(coeffs[n][::-1]).real)
        assert np.max(np.abs(numeric - ops.chebyshev_roots(n))) < 1e-10
        assert np.max(np.abs(chebyshev_u(n, ops.chebyshev_roots(n)))) < 1e-9


def test_min_eigenvalue():
    g = lat.make_geometry(1, 3, 1, 1)
    assert ops.min_eigenvalue(ops.identity(g)) == pytest.approx(1.0)
    negl = ops.scale(ops.neumann_laplacian(g), -1.0)
    assert abs(ops.min_eigenvalue(negl)) < 1e-12
    bad = ops.KernelOperator(g, g, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(ops.OperatorError):
        ops.min_eigenvalue(bad)


def test_unit_cube_coercivity():
    # -Lap + a Q*Q >= c (-Lap + 1) on one unit cube, c > 0
    from blockrg import multiscale as ms
    g = lat.make_geometry(1, 3, 1, 1)
    D0 = ms.defining_operator(g, ms.MultiscaleParams(), 1)
    ref = ops.scale(ops.neumann_laplacian(g), -1.0) + ops.identity(g)
    c = ops.min_eigenvalue(D0) / ops.min_eigenvalue(ref)
    assert c > 0


def test_neumann_free_compatibility():
    # fields symmetric at the boundary: Neumann Laplacian of restriction equals
    # the free stencil on the enlarged patch, exactly
    g = lat.make_geometry(1, 3, 1, 1)
    N = g.sites_per_axis
    patch = lat.FreePatch(d=1, L=3, k=1, lo=(-1,), hi=(N,))
    rng = np.random.default_rng(0)
    inner_vals = rng.standard_normal(N)
    full = np.concatenate([[inner_vals[0]], inner_vals, [inner_vals[-1]]])
    M = free_laplacian_1d(patch)
    free_applied = (M @ full)[1:-1]
    neu = ops.neumann_laplacian(g).matrix @ inner_vals
    assert np.allclose(free_applied, neu, atol=1e-13)


def test_interior_stencil_reflection_symmetric():
    # conjugating the interior stencil by an axis reflection leaves it unchanged
    patch = lat.FreePatch(d=1, L=3, k=1, lo=(-4,), hi=(3,))
    M = free_laplacian_1d(patch)
    n = patch.site_count
    P = np.zeros((n, n))
    sites = patch_sites(patch)[:, 0]
    index = {int(s): i for i, s in enumerate(sites)}
    for s, i in index.items():
        P[index[-1 - s], i] = 1.0  # reflection about -1/2 maps the patch to itself
    inner = interior_mask(patch)
    lhs = (P @ M @ P)[np.ix_(inner, inner)]
    rhs = M[np.ix_(inner, inner)]
    assert np.allclose(lhs, rhs, atol=1e-14)


def _dct2(N):
    """Orthonormal DCT-II matrix, rows indexed by frequency."""
    p, x = np.arange(N)[:, None], np.arange(N)[None, :]
    C = np.sqrt(2.0 / N) * np.cos(np.pi * p * (2 * x + 1) / (2 * N))
    C[0] /= np.sqrt(2.0)
    return C


def _class_keys(g, j):
    """Each flat frequency's level-``j`` class, ``(n, d)``: per axis ``p``
    folded mod ``2 N_c``, the annihilated ``p = N_c (mod 2 N_c)`` in class 0."""
    Nc = lat.coarse_geometry(g, j).sites_per_axis
    r = lat.all_sites(g) % (2 * Nc)
    return np.where(r == Nc, 0, np.minimum(r, 2 * Nc - r))


def _nested_order(g):
    """The flat frequencies in the nested frequency order, by sorting on the
    classes of every level, coarsest first, axis 0 first within a level."""
    keys = [_class_keys(g, j)[:, mu] for j in range(g.m, -1, -1) for mu in range(g.d)]
    return np.lexsort(keys[::-1])


@pytest.mark.parametrize("d,L,k,m", [(1, 3, 1, 3), (1, 3, 2, 5), (1, 5, 1, 3),
                                     (2, 3, 1, 2), (2, 3, 2, 3), (2, 5, 1, 2), (3, 3, 1, 2)])
def test_dct_frequency_classes_match_dense_conjugation(d, L, k, m):
    g = lat.make_geometry(d, L, k, m)
    n = g.site_count
    order = _nested_order(g)
    C = lat._axis_outer(np.multiply, [_dct2(g.sites_per_axis)] * d)[order]
    lap = C @ -ops.neumann_laplacian(g).matrix @ C.T
    p = lat.all_sites(g)[order]
    for j in range(m + 1):
        lam, u = ops.dct_frequency_classes(g, j)
        rows, S = (g.sites_per_axis // L**j) ** d, L ** (j * d)
        assert lam.shape == u.shape == (rows, S)
        # in nested coordinates -Lap is diag(lam) and Q_j* Q_j is one
        # rank-one block u_c u_c^T per run of S consecutive frequencies
        assert np.linalg.norm(lap - np.diag(lam.ravel())) <= 1e-12 * np.linalg.norm(lap)
        proj = C @ ops.block_projector(g, j).matrix @ C.T
        blocks = np.zeros((rows, S, rows, S))
        blocks[np.arange(rows), :, np.arange(rows)] = u[:, :, None] * u[:, None, :]
        assert np.linalg.norm(proj - blocks.reshape(n, n)) <= 1e-12 * np.linalg.norm(proj)
        assert np.all((u != 0.0).any(axis=1))
        # each row is one whole class, led by its member p = kappa, and the
        # rows come in the coarse lattice's own nested order
        kappa = _class_keys(g, j)[order].reshape(rows, S, d)
        assert np.all(kappa == kappa[:, :1])
        assert np.array_equal(p.reshape(rows, S, d)[:, 0], kappa[:, 0])
        coarse = lat.coarse_geometry(g, j)
        assert np.array_equal(lat.all_sites(coarse)[_nested_order(coarse)], kappa[:, 0])
        if j < m:   # L**d consecutive level-j rows make one level-(j + 1) row
            up = _class_keys(g, j + 1)[order].reshape(rows // L**d, L**d * S, d)
            assert np.all(up == up[:, :1])


def test_dense_assemblers_refuse_past_the_cap():
    big = lat.LatticeGeometry(d=2, L=3, k=2, m=6)      # 531,441 sites
    for build in (ops.neumann_laplacian, ops.identity, lambda g: ops.averaging(g, 1),
                  lambda g: ops.block_projector(g, 1), lambda g: ops.scaling_unitary(g, 1)):
        with pytest.raises(ops.DenseSizeError, match="DENSE_BYTE_CAP = 4 GiB") as err:
            build(big)
        assert isinstance(err.value, lat.GeometryError)
    below_cap = lat.LatticeGeometry(d=2, L=3, k=1, m=4)  # 6,561 sites: the guard passes
    ops.check_dense(below_cap)


@pytest.mark.parametrize("L,m,gib", [(5, 2, "7.3"), (3, 3, "11.5")])
def test_dense_cap_counts_the_inverse_bytes(L, m, gib):
    # n = 15,625 and 19,683 lie below the old 100,000-site cap, but their
    # inverses' 32 n**2 bytes pass DENSE_BYTE_CAP
    g = lat.LatticeGeometry(d=3, L=L, k=1, m=m)
    with pytest.raises(ops.DenseSizeError, match=f"on {g.site_count} sites holds {gib} GiB"):
        ops.check_dense(g)


@pytest.mark.parametrize("op", [np.add, np.multiply])
def test_nested_outer_forms_only_its_result(op):
    # (2,3,2,6), n = 531,441: the Morton order is built by broadcasting each
    # axis's digits into their positions, so the only n-sized array is the
    # result, where an outer product and its transposed copy peaked at 2.0
    import tracemalloc
    g = lat.make_geometry(2, 3, 2, 6)
    table = np.random.default_rng(3).standard_normal(g.sites_per_axis)
    order, axes = ops._nested_axes(g)
    want = op(table[order][:, None], table[order][None, :]).reshape(
        (g.L,) * (g.m * g.d)).transpose(axes).ravel()
    tracemalloc.start()
    try:
        got = ops._nested_outer(g, op, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak <= 1.1 * 8 * g.site_count, peak / (8 * g.site_count)


@pytest.mark.parametrize("d,L,m", [(1, 3, 3), (1, 5, 2), (2, 3, 2), (3, 3, 1)])
def test_dct_matches_dense_transform(d, L, m):
    g = lat.LatticeGeometry(d=d, L=L, k=0, m=m)
    N = g.sites_per_axis
    p, x = np.arange(N)[:, None], np.arange(N)[None, :]
    C1 = np.sqrt(2.0 / N) * np.cos(np.pi * p * (2 * x + 1) / (2 * N))
    C1[0] /= np.sqrt(2.0)
    C = lat._axis_outer(np.multiply, [C1] * d)[_nested_order(g)]
    v = np.random.default_rng(5).standard_normal((g.site_count, 3))
    assert np.max(np.abs(ops.dct(g, v) - C @ v)) <= 1e-13
    assert np.max(np.abs(ops.idct(g, C @ v) - v)) <= 1e-13
    assert np.max(np.abs(ops.idct(g, ops.dct(g, v[:, 0])) - v[:, 0])) <= 1e-13
