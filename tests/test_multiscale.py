import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockrg import decay, lattice as lat, multiscale as ms, operators as ops
from oracles import assert_ct_sigmas_match_dense_svd

P0 = ms.MultiscaleParams()
PM = ms.MultiscaleParams(mu0=0.1)

# test_acceptance's RG_GRID and TELESCOPE_GRID, plus rg_d2_n729's (2, 3, 2, 3)
ORACLE_GRID = [(1, 3, 2, 2), (1, 3, 2, 3), (2, 3, 2, 2), (1, 3, 1, 2), (2, 3, 2, 3)]


def test_a_sequence_reference():
    seq = ms.a_sequence(1.0, 3, 5)
    assert seq[0] == pytest.approx(1.0)
    assert seq[1] == pytest.approx(0.9)  # 1/(1/9 + 1) by the recursion
    assert ms.a_sequence(1.0, 3, 2000)[-1] == pytest.approx(8.0 / 9.0, rel=1e-12)


def test_a_sequence_recursion_vs_closed_form():
    for a, L in ((1.0, 3), (2.5, 5)):
        closed = ms.a_sequence(a, L, 50)
        rec = ms.a_sequence_recursive(a, L, 50)
        assert np.max(np.abs(closed - rec) / closed) < 1e-14
        assert np.all(np.diff(closed) <= 0)  # strictly decreasing until float saturation
        assert np.all(np.diff(closed[:10]) < 0)
        assert np.all(closed <= a) and np.all(closed > a * (1 - L**-2) - 1e-15)


def test_green_constants_eigenvector():
    g = lat.make_geometry(1, 3, 2, 2)
    G = ms.green_neumann(g, P0)
    ones = ops.constant_field(g, 1.0)
    out = ops.apply(G, ones)
    a_k = P0.a_j(3, 2)
    assert np.allclose(out.values, 1.0 / a_k, atol=1e-12)
    for j in (1, 2):
        Gj = ms.green_j(g, P0, j)
        expect = (3.0**j * g.spacing) ** 2 / P0.a_j(3, j)
        assert np.allclose(ops.apply(Gj, ones).values, expect, atol=1e-12)


def test_green_roundtrip():
    g = lat.make_geometry(2, 3, 1, 1)
    G = ms.green_neumann(g, PM)
    D = ms.defining_operator(g, PM, 1)
    assert ops.rel_frobenius(G @ D, ops.identity(g)) < 1e-12


def test_green_kernel_symmetric_positive():
    # regression fixture: symmetric kernel with strictly positive entries
    g = lat.make_geometry(1, 3, 1, 1)
    G = ms.green_neumann(g, P0)
    K = G.kernel
    assert np.max(np.abs(K - K.T.conj())) < 1e-12 * np.max(np.abs(K))
    assert np.all(K.real > 0)
    assert np.max(np.abs(K.imag)) < 1e-14


def test_green_j_at_k_matches_green_neumann():
    g = lat.make_geometry(1, 3, 2, 3)
    assert np.array_equal(ms.green_j(g, P0, 2).kernel,
                          ms.green_neumann(g, P0).kernel)


def test_green_j_range():
    g = lat.make_geometry(1, 3, 2, 2)
    with pytest.raises(ValueError):
        ms.green_j(g, P0, 0)
    with pytest.raises(ValueError):
        ms.green_j(g, P0, 4)


def test_a_operator_closed_form_and_inverse():
    g = lat.make_geometry(1, 3, 2, 3)
    for j in (1, 2):
        closed = ms.a_operator_closed_form(g, P0, j)
        at = P0.a_tilde(g, j, j)
        at1 = P0.a_tilde(g, 1, j)
        coarse = lat.coarse_geometry(g, j)
        defn = at * ops.identity(coarse) + (at1 / g.L**2) * ops.block_projector(coarse, 1)
        assert ops.rel_frobenius(closed @ defn, ops.identity(coarse)) < 1e-12
        # oracle: the dense inverse that the closed form replaces
        assert ops.rel_frobenius(closed, ops.invert(defn)) < 1e-12


def test_a_operator_k_form():
    # at j = k the closed form reads 1/a_k - a_{k+1}/(a_k^2 L^2) QQ*
    g = lat.make_geometry(1, 3, 2, 3)
    a_k, a_k1 = P0.a_j(3, 2), P0.a_j(3, 3)
    coarse = lat.coarse_geometry(g, 2)
    expect = (1.0 / a_k) * ops.identity(coarse) \
        - (a_k1 / (a_k**2 * g.L**2)) * ops.block_projector(coarse, 1)
    assert ops.rel_frobenius(expect, ms.a_operator_closed_form(g, P0, 2)) < 1e-12


def test_delta_j_self_adjoint():
    g = lat.make_geometry(2, 3, 2, 2)
    r = ms.rg_operators(g, PM, 1)
    assert ops.self_adjointness_defect(r.Delta_j) < 1e-13
    assert ops.self_adjointness_defect(r.C_j) < 1e-10
    assert ops.min_eigenvalue(r.C_j) > 0


# every geometry of ORACLE_GRID with k = 2, at mu0 = 0 and 0.1
@pytest.mark.parametrize("geom_args,mu0", [
    ((1, 3, 2, 2), 0.0), ((1, 3, 2, 2), 0.1), ((2, 3, 2, 2), 0.0), ((2, 3, 2, 2), 0.1),
    ((1, 3, 2, 3), 0.0), ((1, 3, 2, 3), 0.1), ((2, 3, 2, 3), 0.0), ((2, 3, 2, 3), 0.1),
])
def test_rg_step(geom_args, mu0):
    g = lat.make_geometry(*geom_args)
    params = ms.MultiscaleParams(mu0=mu0)
    for j in range(1, g.k):
        assert ms.rg_step_residual(g, params, j) < 1e-9


# every geometry of ORACLE_GRID, at mu0 = 0 and 0.1; (1, 3, 1, 2) is the
# k = 1 empty sum
@pytest.mark.parametrize("geom_args,mu0", [
    ((1, 3, 1, 2), 0.0), ((1, 3, 2, 2), 0.0), ((1, 3, 2, 2), 0.1), ((2, 3, 2, 2), 0.0),
    ((1, 3, 1, 2), 0.1), ((2, 3, 2, 2), 0.1), ((1, 3, 2, 3), 0.0), ((1, 3, 2, 3), 0.1),
    ((2, 3, 2, 3), 0.0), ((2, 3, 2, 3), 0.1),
])
def test_rg_telescope(geom_args, mu0):
    g = lat.make_geometry(*geom_args)
    params = ms.MultiscaleParams(mu0=mu0)
    assert ms.rg_telescope_residual(g, params) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rg_telescope_builds_each_level_once(k, monkeypatch):
    built = []

    def counting(geom, params, j):
        built.append((geom, j))
        return tower_level(geom, params, j)

    tower_level = ms.tower_level
    monkeypatch.setattr(ms, "tower_level", counting)
    assert ms.rg_telescope_residual(lat.make_geometry(1, 3, k, k + 1), P0) < 1e-9
    assert [j for _, j in built] == list(range(1, k + 1))


def test_c_identity():
    # every j <= k below m, so j = k too, which rg-verify does not emit
    for geom_args in ORACLE_GRID:
        g = lat.make_geometry(*geom_args)
        for j in range(1, min(g.k, g.m - 1) + 1):
            assert ms.c_identity_residual(g, P0, j) < 1e-10
            assert ms.c_identity_residual(g, PM, j) < 1e-10


def test_scaling_residuals():
    for geom_args in ORACLE_GRID:
        g = lat.make_geometry(*geom_args)
        for params in (P0, PM):
            for j in range(1, min(g.k, g.m - 1) + 1):
                for name, val in ms.scaling_residuals(g, params, j).items():
                    assert val < 1e-11, (geom_args, params, j, name, val)


def _scaling_residuals_by_conjugation(geom, params, j):
    # the dense route: conjugate by the scaling maps S, S_c and compare
    ell = geom.k - j
    lam = float(geom.L) ** ell
    scaled = lat.scale_geometry(geom, ell)
    S = ops.scaling_unitary(geom, ell)
    S_c = ops.scaling_unitary(lat.coarse_geometry(geom, j), ell)
    Ss, S_cs = ops.adjoint(S), ops.adjoint(S_c)
    r, rs = ms.rg_operators(geom, params, j), ms.rg_operators(scaled, params, j)
    rel = ops.rel_frobenius
    return {"de_scaling": rel(lam**2 * (Ss @ ops.neumann_laplacian(scaled) @ S),
                              ops.neumann_laplacian(geom)),
            "q_scaling": rel(ops.averaging(scaled, j) @ S, S_c @ ops.averaging(geom, j)),
            "g_scaling": rel(lam**-2 * (Ss @ rs.G_j @ S), r.G_j),
            "dgc_delta": rel(lam**-2 * (S_c @ r.Delta_j @ S_cs), rs.Delta_j),
            "dgc_c": rel(lam**2 * (S_c @ r.C_j @ S_cs), rs.C_j)}


@pytest.mark.parametrize("geom_args,params", [((1, 3, 2, 3), P0), ((2, 3, 1, 2), PM)])
def test_scaling_residuals_match_dense_conjugation(geom_args, params):
    # both routes read rounding-level residuals; a wrong power of lam in
    # either would read O(1)
    g = lat.make_geometry(*geom_args)
    for j in range(1, g.k + 1):
        relabel = ms.scaling_residuals(g, params, j)
        dense = _scaling_residuals_by_conjugation(g, params, j)
        assert relabel.keys() == dense.keys()
        for name, val in relabel.items():
            assert val < 1e-11 and dense[name] < 1e-11, (name, val, dense[name])
            assert abs(val - dense[name]) <= 1e-14, (name, val, dense[name])


@pytest.mark.parametrize("bad", [dict(c_star=0.0), dict(c_star=-1.0), dict(a=0.0),
                                 dict(mu0=-0.1), dict(a=float("nan")),
                                 dict(mu0=float("inf")), dict(c_star=float("nan"))])
def test_params_rejects_nonpositive_and_nonfinite(bad):
    with pytest.raises(ValueError):
        ms.MultiscaleParams(**bad)


def test_positivity_report():
    geoms = [lat.make_geometry(1, 3, k, k + 1) for k in (1, 2, 3)]
    rows = ms.positivity_report(geoms, P0)
    cs = [r.c for r in rows]
    assert all(c > 0 for c in cs)
    assert max(cs) / min(cs) < 4.0
    # the dense oracle gives the same ratios
    for g, row in zip(geoms, rows):
        ref = ops.scale(ops.neumann_laplacian(g), -1.0) + ops.identity(g)
        dense = ops.min_eigenvalue(ms.defining_operator(g, P0, g.k)) / ops.min_eigenvalue(ref)
        assert row.c == pytest.approx(dense, rel=1e-11)
    # adding a mass raises the numerator eigenvalue
    single = [lat.make_geometry(1, 3, 1, 1)]
    c0 = ms.positivity_report(single, P0)[0].c
    cm = ms.positivity_report(single, ms.MultiscaleParams(mu0=0.5))[0].c
    assert cm > c0
    # more disjoint unit cubes do not collapse the constant
    multi = ms.positivity_report([lat.make_geometry(1, 3, 1, 2)], P0)[0].c
    assert multi > 0.5 * c0


def test_positivity_report_d2_family():
    # n = 81, 729, 6561: out of dense reach at the largest
    geoms = [lat.make_geometry(2, 3, k, k + 1) for k in (1, 2, 3)]
    cs = [r.c for r in ms.positivity_report(geoms, P0)]
    assert all(c > 0 for c in cs)
    assert max(cs) / min(cs) < 4.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_secular_min_roots_match_block_eigvalsh(data):
    # rows with several members, ties, decoupled u = 0 members and a large
    # at: the root often lies below d_2 < d_1 + at sum u**2, where the
    # secular function has more poles
    rows, members = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    grid = st.integers(-4, 8).map(float)                    # small integers: exact ties
    diag = np.array(data.draw(st.lists(grid, min_size=rows * members,
                                       max_size=rows * members))).reshape(rows, members)
    weight = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05) | st.just(0.0)
    u = np.array(data.draw(st.lists(weight, min_size=rows * members,
                                    max_size=rows * members))).reshape(rows, members)
    for row in range(rows):                                 # one live member per row
        col = data.draw(st.integers(0, members - 1))
        u[row, col] = data.draw(st.floats(0.05, 2.0))
    at = data.draw(st.floats(-2.0, 2.0).map(lambda t: 10.0**t))
    roots = ms.secular_min_roots(diag, u, at)
    assert roots.shape == (rows,)
    for row in range(rows):
        live = u[row] != 0.0
        d, w = diag[row, live], u[row, live]
        block = np.diag(d) + at * np.outer(w, w)
        bound = np.max(np.abs(d)) + at * np.sum(w**2)
        assert abs(roots[row] - np.linalg.eigvalsh(block)[0]) <= 16 * np.finfo(float).eps * bound


def test_secular_min_roots_reject_nan_diagonal():
    with pytest.raises(ValueError, match="NaN"):
        ms.secular_min_roots(np.array([[np.nan, 1.0]]), np.ones((1, 2)), 1.0)


def _spectral_vs_dense(g, params, j):
    """``|lambda_spectral - lambda_dense|`` in units of ``eps`` times the norm bound."""
    dense = np.linalg.eigvalsh(ms.defining_operator(g, params, j).matrix)[0]
    bound = 4 * g.d / g.spacing**2 + params.mu_bar(g.L, g.k) + params.a_tilde(g, j, j)
    return abs(ms.defining_min_eigenvalue(g, params, j) - dense) / (np.finfo(float).eps * bound)


@pytest.mark.parametrize("a,mu0", [(1.0, 0.0), (0.3, 0.2), (5.0, 1.0), (50.0, 0.0)])
@pytest.mark.parametrize("d,L,k,m,j", [(1, 3, 1, 2, 1), (1, 3, 2, 4, 2), (1, 3, 2, 4, 3),
                                       (1, 5, 1, 3, 2), (2, 3, 1, 2, 1), (2, 3, 2, 3, 2),
                                       (2, 5, 1, 2, 1)])
def test_defining_min_eigenvalue_matches_dense(d, L, k, m, j, a, mu0):
    g = lat.make_geometry(d, L, k, m)
    assert _spectral_vs_dense(g, ms.MultiscaleParams(a=a, mu0=mu0), j) <= 16


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_defining_min_eigenvalue_property(data):
    d = data.draw(st.sampled_from([1, 2]))
    L = data.draw(st.sampled_from([3, 5]))
    m = data.draw(st.integers(1, {(1, 3): 6, (1, 5): 4, (2, 3): 3, (2, 5): 2}[d, L]))  # n <= 729
    k = data.draw(st.integers(0, m))
    j = data.draw(st.integers(1, m))
    a = data.draw(st.floats(-3.0, 3.0).map(lambda t: 10.0**t))
    mu0 = data.draw(st.sampled_from([0.0, 1e-3, 0.2, 1.0, 10.0]))
    params = ms.MultiscaleParams(a=a, mu0=mu0)
    assert _spectral_vs_dense(lat.make_geometry(d, L, k, m), params, j) <= 16


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_ct_sigmas_match_dense_svd_property(data):
    # the Lanczos sigma_min(D_q) of decay.ct_bound_report against the dense
    # SVD, at q, -q and 0; two boxes at least, n <= 243
    d = data.draw(st.sampled_from([1, 2]))
    m = data.draw(st.integers(2, 5 if d == 1 else 2))
    k = data.draw(st.integers(1, m - 1))
    a = data.draw(st.floats(-2.0, 2.0).map(lambda t: 10.0**t))
    mu0 = data.draw(st.sampled_from([0.0, 1e-3, 0.2, 1.0, 10.0]))
    q = np.array(data.draw(st.lists(st.floats(-0.3, 0.3), min_size=d, max_size=d)))
    g, params = lat.make_geometry(d, 3, k, m), ms.MultiscaleParams(a=a, mu0=mu0)
    assert_ct_sigmas_match_dense_svd(g, params, [0.0, q, -q])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.data())
def test_ct_sigmas_match_dense_svd_far_property(data):
    # as above, at any reach max |q . (x - c)| the report accepts, so q runs
    # past G's decay rate; no float overflows on the way
    d = data.draw(st.sampled_from([1, 2]))
    m = data.draw(st.integers(2, 5 if d == 1 else 3))
    k = data.draw(st.integers(1, m - 1))
    a = data.draw(st.floats(-2.0, 2.0).map(lambda t: 10.0**t))
    mu0 = data.draw(st.sampled_from([0.0, 1e-3, 0.2, 1.0, 10.0]))
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    reach = data.draw(st.floats(0.0, 0.999)) * decay.CT_MAX_EXPONENT
    g, params = lat.make_geometry(d, 3, k, m), ms.MultiscaleParams(a=a, mu0=mu0)
    half = g.spacing * (g.sites_per_axis - 1) / 2
    q = u * reach / (half * max(np.abs(u).sum(), 1e-300))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_ct_sigmas_match_dense_svd(g, params, [0.0, q, -q])


def test_fluctuation_kernel_decay():
    # C'_k kernel decays with a positive fitted rate (sup-norm claim shape)
    g = lat.make_geometry(1, 3, 1, 3)
    r = ms.rg_operators(g, P0, 1)
    col = np.abs(r.C_prime_j.kernel[:, 0])
    dists = lat.positions(g)[:, 0]
    fit = decay.fit_decay(dists, col)
    assert fit.rate > 0


def test_gtilde_decay_positive_rate():
    # scale-(k+1) operator on the cube: kernel decay in unit-box label distance
    g = lat.make_geometry(1, 3, 1, 3)
    Gt = ms.green_j(g, P0, 2)
    col = np.abs(Gt.kernel[:, 0])
    dists = lat.positions(g)[:, 0]
    fit = decay.fit_decay(dists, col)
    assert fit.rate > 0


@pytest.mark.parametrize("geom_args", [(1, 3, 2, 3), (2, 3, 1, 2)])
@pytest.mark.parametrize("params", [P0, PM])
def test_green_j_matches_complex_inverse(geom_args, params):
    # reference: the complex LU inverse of the defining operator
    g = lat.make_geometry(*geom_args)
    for j in range(1, min(g.k + 1, g.m) + 1):
        G = ms.green_j(g, params, j)
        assert G.kernel.dtype == np.float64
        ref = np.linalg.inv(ms.defining_operator(g, params, j).matrix.astype(complex))
        assert np.linalg.norm(G.matrix - ref) / np.linalg.norm(ref) <= 1e-13


def test_rg_verify_forms_no_dense_operator(monkeypatch):
    import dataclasses

    from blockrg import cli
    inverted, built = [], []
    post_init = ops.KernelOperator.__post_init__

    def counted_post_init(self):
        built.append(self.source)
        post_init(self)
    monkeypatch.setattr(ops, "invert", lambda A: inverted.append(A))
    monkeypatch.setattr(ops.KernelOperator, "__post_init__", counted_post_init)
    for geom_args in ((1, 3, 2, 3), (2, 3, 2, 3)):
        cfg = dataclasses.replace(cli.load_config(None), geometry=dict(zip("dLkm", geom_args)))
        rows = cli.run_rg_verify(cfg)
        assert len(rows) == 13 and all(r.passed for r in rows)
    assert inverted == [] and built == []


@pytest.mark.parametrize("suite", ["decay-profile", "ct-report", "images-verify"])
def test_dense_suite_factors_g_once(monkeypatch, suite):
    # each suite reads the one propagator G_k, and nothing keeps it between
    # calls: one inversion per suite
    from blockrg import cli
    inverted = []
    invert = ops.invert

    def counted(A):
        inverted.append(A.source)
        return invert(A)
    monkeypatch.setattr(ops, "invert", counted)
    cfg = cli.load_config(None)
    rows = cli.SUITES[suite](cfg)
    assert rows and all(r.passed for r in rows)
    assert inverted == [cfg.geom()]


def _rel_max(x, y) -> float:
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


def _assert_tower_matches_dense(g, params, rng, tol=1e-12):
    """Every spectral apply of the tower against the dense ``.matrix @ v``."""
    def spectral(apply, source, target, v):
        return ops.idct(target, apply(ops.dct(source, v)))

    for j in range(1, min(g.k + 1, g.m) + 1):
        lev = ms.tower_level(g, params, j)
        coarse = lat.coarse_geometry(g, j)
        v = rng.standard_normal((g.site_count, 2))
        y = rng.standard_normal((coarse.site_count, 2))
        Q = ops.averaging(g, j)
        pairs = [(spectral(lev.green, g, g, v), ms.green_j(g, params, j).matrix @ v),
                 (spectral(lev.average, g, coarse, v), Q.matrix @ v),
                 (spectral(lev.average_adjoint, coarse, g, y), ops.adjoint(Q).matrix @ y)]
        if j <= g.k and j < g.m:
            r = ms.rg_operators(g, params, j)
            pairs += [(spectral(lev.covariance, coarse, coarse, y), r.C_j.matrix @ y),
                      (spectral(lev.fluctuation, g, g, v), r.C_prime_j.matrix @ v)]
        for i, (x, ref) in enumerate(pairs):
            assert _rel_max(x, ref) <= tol, (g, params, j, i, _rel_max(x, ref))


@pytest.mark.parametrize("params", [P0, PM])
@pytest.mark.parametrize("geom_args", ORACLE_GRID)
def test_spectral_tower_matches_dense(geom_args, params):
    g = lat.make_geometry(*geom_args)
    _assert_tower_matches_dense(g, params, np.random.default_rng(7))


@pytest.mark.parametrize("geom_args", [(1, 3, 2, 3), (2, 3, 2, 3)])
def test_probe_frobenius_reads_every_block_entry(geom_args):
    # pairs of different block-diagonal maps, O(1e-2) apart: the probe
    # residual equals the dense relative Frobenius distance
    g = lat.make_geometry(*geom_args)
    n = g.site_count
    for j in (1, 2):
        lo, lo_m, hi = (ms.tower_level(g, p, jj) for p, jj in ((P0, j), (PM, j), (P0, j + 1)))
        cases = [((lo.green, lo_m.green, lo.freq, n),
                  (ms.green_j(g, P0, j), ms.green_j(g, PM, j))),
                 ((lo.green, hi.green, hi.freq, n),
                  (ms.green_j(g, P0, j), ms.green_j(g, P0, j + 1))),
                 ((lo.covariance, lo_m.covariance, lo.coarse_freq, len(lo.delta)),
                  (ms.rg_operators(g, P0, j).C_j, ms.rg_operators(g, PM, j).C_j))]
        for probe_args, (X, Y) in cases:
            dense = ops.rel_frobenius(X, Y)
            assert dense > 1e-3
            assert ms._probe_rel_frobenius(*probe_args) == pytest.approx(dense, rel=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_spectral_tower_matches_dense_property(data):
    d = data.draw(st.sampled_from([1, 2, 3]))
    L = data.draw(st.sampled_from([3, 5]))
    m_max = {(1, 3): 6, (1, 5): 4, (2, 3): 3, (2, 5): 2, (3, 3): 2, (3, 5): 1}[d, L]  # n <= 729
    m = data.draw(st.integers(1, m_max))
    k = data.draw(st.integers(0, m))
    a = data.draw(st.floats(-2.0, 2.0).map(lambda t: 10.0**t))
    mu0 = data.draw(st.sampled_from([0.0, 1e-3, 0.2, 1.0, 10.0]))
    params = ms.MultiscaleParams(a=a, mu0=mu0)
    _assert_tower_matches_dense(lat.make_geometry(d, L, k, m), params,
                                np.random.default_rng(data.draw(st.integers(0, 2**16))))


def _defining_apply(g, params, j, v):
    """``defining_operator(g, params, j).matrix @ v`` matrix-free: the 2d+1
    Neumann stencil (ghost values clamped) plus ``mu_bar`` plus ``at`` times
    the block means spread back over their blocks."""
    N, b = g.sites_per_axis, g.L**j
    f = v.reshape((N,) * g.d)
    out = params.mu_bar(g.L, g.k) * f
    for axis in range(g.d):
        lo = np.concatenate((f.take([0], axis), f.take(np.arange(N - 1), axis)), axis=axis)
        hi = np.concatenate((f.take(np.arange(1, N), axis), f.take([N - 1], axis)), axis=axis)
        out = out + (2.0 * f - lo - hi) / g.spacing**2
    blocks = (N // b, b) * g.d                  # (class, member) on every axis
    means = f.reshape(blocks).mean(axis=tuple(range(1, 2 * g.d, 2)), keepdims=True)
    spread = np.broadcast_to(means, blocks).reshape(f.shape)
    return (out + params.a_tilde(g, j, j) * spread).ravel()


@pytest.mark.parametrize("geom_args", [(1, 3, 2, 3), (2, 3, 2, 3), (3, 3, 1, 2)])
def test_matrix_free_defining_operator_matches_dense(geom_args):
    g = lat.make_geometry(*geom_args)
    v = np.random.default_rng(4).standard_normal(g.site_count)
    for params in (P0, PM):
        for j in range(1, g.m + 1):
            dense = ms.defining_operator(g, params, j).matrix @ v
            assert _rel_max(_defining_apply(g, params, j, v), dense) <= 1e-13


@pytest.mark.parametrize("geom_args", [(2, 3, 2, 6), (3, 3, 2, 4), (1, 3, 2, 11)])
def test_spectral_green_inverts_real_space_operator(geom_args):
    # n = 531,441 and 177,147, where no dense oracle exists
    g = lat.make_geometry(*geom_args)
    v = np.random.default_rng(3).standard_normal(g.site_count)
    vhat = ops.dct(g, v)
    for params in (P0, PM):
        for j in range(1, g.k + 2):
            Gv = ops.idct(g, ms.tower_level(g, params, j).green(vhat))
            back = _defining_apply(g, params, j, Gv)
            assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v), (params, j)
