import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockrg import decay, lattice as lat, multiscale as ms, operators as ops
from oracles import (a_operator_closed_form, assert_ct_sigmas_match_dense_svd,
                     assert_inverse_blocks_match, constant_field, rel_frobenius)

P0 = ms.MultiscaleParams()
PM = ms.MultiscaleParams(mu0=0.1)

# test_acceptance's RG_GRID and TELESCOPE_GRID, plus rg_d2_n729's (2, 3, 2, 3)
ORACLE_GRID = [(1, 3, 2, 2), (1, 3, 2, 3), (2, 3, 2, 2), (1, 3, 1, 2), (2, 3, 2, 3)]


def _step(g, params, j):
    """The residuals' levels ``j`` and ``j + 1`` of one cube."""
    return ms.tower_level(g, params, j), ms.tower_level(g, params, j + 1)


def _telescope_levels(g, params):
    return [ms.tower_level(lat.scale_geometry(g, g.k - j), params, j) for j in range(1, g.k + 1)]


def _scaling_residuals(g, params, j):
    return ms.scaling_residuals(ms.tower_level(g, params, j),
                                ms.tower_level(lat.scale_geometry(g, g.k - j), params, j))


def test_a_sequence_reference():
    seq = ms.a_sequence(1.0, 3, 5)
    assert seq[0] == pytest.approx(1.0)
    assert seq[1] == pytest.approx(0.9)  # 1/(1/9 + 1) by the recursion
    assert ms.a_sequence(1.0, 3, 2000)[-1] == pytest.approx(8.0 / 9.0, rel=1e-12)


def test_a_sequence_is_a_j():
    for a, L in ((1.0, 3), (2.5, 5), (0.3, 2)):
        params = ms.MultiscaleParams(a=a)
        assert ms.a_sequence(a, L, 50).tolist() == [params.a_j(L, j) for j in range(1, 51)]


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
    ones = constant_field(g, 1.0)
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
    assert rel_frobenius(G @ D, ops.identity(g)) < 1e-12


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
    # one rule, 1 <= j <= min(k + 1, m), for the dense and the class routes
    for g, top in (((1, 3, 2, 2), 2), ((1, 3, 2, 3), 3), ((2, 3, 0, 2), 1)):
        g = lat.make_geometry(*g)
        for call in (ms.green_j, ms.tower_level):
            for j in (0, top + 1):
                with pytest.raises(lat.GeometryError,
                                   match=rf"level {j} outside .* = \[1, {top}\]"):
                    call(g, P0, j)


def test_rg_operators_need_the_next_level():
    g = lat.make_geometry(1, 3, 2, 3)
    for j in (0, 3):
        with pytest.raises(lat.GeometryError, match="rg_operators: level"):
            ms.rg_operators(g, P0, j)
    with pytest.raises(lat.GeometryError, match=r"rg_operators: level 3 outside .* = \[1, 2\]"):
        ms.rg_operators(lat.make_geometry(1, 3, 2, 2), P0, 2)


def test_a_cube_with_k0_carries_no_level():
    # G_k and the telescope's levels 1 .. k: a configuration error, not a crash
    g = lat.make_geometry(1, 3, 0, 2)
    with pytest.raises(lat.GeometryError, match=r"green_j: level 0 outside .* at k=0, m=2"):
        ms.green_neumann(g, P0)
    assert _telescope_levels(g, P0) == []
    with pytest.raises(lat.GeometryError, match="k = 0 carries none"):
        ms.rg_telescope_residual([])


def test_a_operator_closed_form_and_inverse():
    g = lat.make_geometry(1, 3, 2, 3)
    for j in (1, 2):
        closed = a_operator_closed_form(g, P0, j)
        at = P0.a_tilde(g, j, j)
        at1 = P0.a_tilde(g, 1, j)
        coarse = lat.coarse_geometry(g, j)
        defn = at * ops.identity(coarse) + (at1 / g.L**2) * ops.block_projector(coarse, 1)
        assert rel_frobenius(closed @ defn, ops.identity(coarse)) < 1e-12
        # oracle: the dense inverse that the closed form replaces
        assert rel_frobenius(closed, ops.invert(defn)) < 1e-12


def test_a_operator_k_form():
    # at j = k the closed form reads 1/a_k - a_{k+1}/(a_k^2 L^2) QQ*
    g = lat.make_geometry(1, 3, 2, 3)
    a_k, a_k1 = P0.a_j(3, 2), P0.a_j(3, 3)
    coarse = lat.coarse_geometry(g, 2)
    expect = (1.0 / a_k) * ops.identity(coarse) \
        - (a_k1 / (a_k**2 * g.L**2)) * ops.block_projector(coarse, 1)
    assert rel_frobenius(expect, a_operator_closed_form(g, P0, 2)) < 1e-12


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
        assert ms.rg_step_residual(*_step(g, params, j)) < 1e-9


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
    assert ms.rg_telescope_residual(_telescope_levels(g, params)) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_rg_telescope_builds_each_level_once(k, monkeypatch):
    built = []

    def counting(geom, params, j):
        built.append((geom, j))
        return tower_level(geom, params, j)

    tower_level = ms.tower_level
    monkeypatch.setattr(ms, "tower_level", counting)
    g = lat.make_geometry(1, 3, k, k + 1)
    levels = _telescope_levels(g, P0)
    assert ms.rg_telescope_residual(levels) < 1e-9    # builds no level of its own
    assert built == [(lat.scale_geometry(g, k - j), j) for j in range(1, k + 1)]


@pytest.mark.parametrize("geom_args", [(1, 3, 2, 3), (2, 3, 3, 4)])
def test_rg_telescope_sees_one_perturbed_term(geom_args):
    # the first-scale term built at a = 1 + 1e-6 moves its rows by about 1e-6
    g = lat.make_geometry(*geom_args)
    levels = _telescope_levels(g, P0)
    levels[0] = ms.tower_level(levels[0].geometry, ms.MultiscaleParams(a=1 + 1e-6), 1)
    assert ms.rg_telescope_residual(levels) >= 1e-7


@pytest.mark.parametrize("geom_args", [(2, 3, 2, 5), (1, 3, 2, 11)])
def test_rg_telescope_peak_allocation(geom_args):
    # level builds excluded; the sample-site deltas taken through a forward
    # and an inverse DCT peaked at 85.8 and 46.5 times 8 n
    import tracemalloc

    g = lat.make_geometry(*geom_args)
    levels = _telescope_levels(g, P0)
    tracemalloc.start()
    try:
        assert ms.rg_telescope_residual(levels) < 1e-9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 8 * g.site_count, peak / (8 * g.site_count)


def test_rg_telescope_batches_within_budget(monkeypatch):
    # a budget between one column's 5.6 n-vectors and two columns' 11.1 puts
    # one probe column in a batch, which then fits it; the probes themselves
    # (two n-vectors) lie outside the batches.  Counted at one n-vector a
    # column, the two columns went in one batch and peaked at 13.2
    import tracemalloc

    g = lat.make_geometry(2, 3, 2, 5)
    levels, n8 = _telescope_levels(g, P0), 8 * g.site_count
    monkeypatch.setattr(ops, "BLOCK_BYTES", 8 * n8)
    tracemalloc.start()
    try:
        assert ms.rg_telescope_residual(levels) < 1e-9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n8 + ops.BLOCK_BYTES, peak / n8


def test_c_identity():
    # every j <= k below m, so j = k too, which rg-verify does not emit
    for geom_args in ORACLE_GRID:
        g = lat.make_geometry(*geom_args)
        for j in range(1, min(g.k, g.m - 1) + 1):
            assert ms.c_identity_residual(*_step(g, P0, j)) < 1e-10
            assert ms.c_identity_residual(*_step(g, PM, j)) < 1e-10


def test_scaling_residuals():
    for geom_args in ORACLE_GRID:
        g = lat.make_geometry(*geom_args)
        for params in (P0, PM):
            for j in range(1, min(g.k, g.m - 1) + 1):
                for name, val in _scaling_residuals(g, params, j).items():
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
    rel = rel_frobenius
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
        relabel = _scaling_residuals(g, params, j)
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_secular_min_roots_match_block_eigvalsh(data):
    # rows with several members, exact ties, decoupled u = 0 members, rows
    # with a single live member and at up to 1e8: the root often lies below
    # d_2 < d_1 + at sum u**2, where the secular function has more poles.
    # A weight of 1e-7 to 1e-6 beside a weight of order 1 on d_1 puts the
    # root within about 1e-12 relative of the pole d_2 of that small weight
    rows, members = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    grid = st.integers(-4, 8).map(float)                    # small integers: exact ties
    diag = np.array(data.draw(st.lists(grid, min_size=rows * members,
                                       max_size=rows * members))).reshape(rows, members)
    weight = (st.floats(0.05, 2.0) | st.floats(-2.0, -0.05) | st.just(0.0)
              | st.floats(1e-7, 1e-6))
    u = np.array(data.draw(st.lists(weight, min_size=rows * members,
                                    max_size=rows * members))).reshape(rows, members)
    for row in range(rows):                                 # one live member per row
        col = data.draw(st.integers(0, members - 1))
        if data.draw(st.booleans()):                        # ... or only that one
            u[row] = 0.0
        u[row, col] = data.draw(st.floats(0.05, 2.0))
    at = data.draw(st.floats(-2.0, 8.0).map(lambda t: 10.0**t))
    roots = ms.secular_min_roots(diag, u, at)
    assert roots.shape == (rows,)
    for row in range(rows):
        live = u[row] != 0.0
        d, w = diag[row, live], u[row, live]
        block = np.diag(d) + at * np.outer(w, w)
        bound = np.max(np.abs(d)) + at * np.sum(w**2)
        assert abs(roots[row] - np.linalg.eigvalsh(block)[0]) <= 16 * np.finfo(float).eps * bound


@pytest.mark.parametrize("at", [10.0, 1e8])
@pytest.mark.parametrize("rel", [1e-12, 1e-13, 1e-14])
def test_secular_min_root_next_to_the_pole(rel, at):
    # members at 0 (weight 1) and 1 (weight rel): the root lies about rel
    # below the pole d_2 = 1, where eigvalsh's own error eps at is too
    # coarse; the exact secular function, in rationals, changes sign within
    # 4 ulps of the returned root, and no evaluation meets the pole
    from fractions import Fraction

    diag, u = np.array([[0.0, 1.0]]), np.array([[1.0, np.sqrt(rel)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, = ms.secular_min_roots(diag, u, at)

    def f(x):
        return 1 / Fraction(at) + sum(Fraction(w) ** 2 / (Fraction(d) - Fraction(x))
                                      for d, w in zip(diag[0], u[0]))

    ulp = np.spacing(x)
    assert 0 < 1.0 - x < 2 * rel
    assert f(x - 4 * ulp) < 0 < f(x + 4 * ulp)


@pytest.mark.parametrize("geom_args,budget", [((2, 3, 1, 5), None), ((2, 3, 2, 6), None),
                                              ((2, 3, 1, 5), 2**16)],
                         ids=["geom_args0", "geom_args1", "geom_args0-64KiB"])
def test_defining_min_eigenvalue_peak_allocation(geom_args, budget, monkeypatch):
    # one budget at n = 59,049 and 531,441: three n-arrays (the frequency
    # classes' own peak) and one batch of rows within operators.BLOCK_BYTES.
    # Bisection over all rows at once peaked at 9.7 and 9.1 times 8 n.  At
    # the default 1 MiB the 6,561 rows of 9 members go 2,016 a batch, and a
    # batch, not the classes, sets the peak at (2,3,1,5): 4.1 times 8 n
    # against the bound's 5.2 (counted at four member arrays a row, it also
    # held the masks, the row values and the kept copies, and broke the
    # bound).  The 6,561 rows of 81 members go 308 a batch, and at 64 KiB
    # 126 rows of 9 members do; the classes then set the peak
    import tracemalloc

    if budget is not None:
        monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
    g = lat.make_geometry(*geom_args)
    tracemalloc.start()
    try:
        assert ms.defining_min_eigenvalue(g, P0, g.k) > 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * g.site_count + ops.BLOCK_BYTES, peak / (8 * g.site_count)


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
    # pairs of different block-diagonal maps, O(1e-2) apart: the residual
    # from the rows' factors equals the dense relative Frobenius distance
    import dataclasses

    g = lat.make_geometry(*geom_args)
    for j in (1, 2):
        lo, lo_m, hi = (ms.tower_level(g, p, jj) for p, jj in ((P0, j), (PM, j), (P0, j + 1)))
        G_j, G_m = ms.green_j(g, P0, j), ms.green_j(g, PM, j)
        cases = [(ms._scaled_pair(lo.G, lo_m.G, 1.0), rel_frobenius(G_j, G_m)),
                 # at = 0 switches C'_j off: the step then reads G_j's blocks
                 # on the level-(j+1) rows through the nested order alone
                 (ms.rg_step_residual(dataclasses.replace(lo, at=0.0), hi),
                  rel_frobenius(G_j, ms.green_j(g, P0, j + 1))),
                 (ms._scaled_pair(lo.C, lo_m.C, 1.0),
                  rel_frobenius(ms.rg_operators(g, P0, j).C_j, ms.rg_operators(g, PM, j).C_j))]
        for blocks, dense in cases:
            assert dense > 1e-3
            assert blocks == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("geom_args", [(3, 3, 1, 2), (3, 3, 2, 2), (1, 5, 2, 3), (2, 5, 1, 2)])
def test_step_layout_across_d_and_L(geom_args):
    g = lat.make_geometry(*geom_args)
    for params in (P0, PM, ms.MultiscaleParams(a=30.0, mu0=2.0)):
        for j in range(1, min(g.k, g.m - 1) + 1):
            lo, hi = _step(g, params, j)
            # a level-(j + 1) row, reshaped to (rows, L**d, S), is its L**d
            # level-j rows, member for member: w = 1/Delta there, also on the
            # level-j zero columns but the first, which is the zero column,
            # column 0, with the zero member of level j + 1
            Ld, S = lo.u1.shape[1], lo.u.shape[1]
            w = lo.G.w.reshape(-1, Ld, S).copy()
            Delta0 = lo.G.Delta0.reshape(-1, Ld)
            w[:, 1:, 0] = 1.0 / Delta0[:, 1:]
            assert np.array_equal(hi.G.w.reshape(w.shape), w)
            assert np.array_equal(hi.G.Delta0, Delta0[:, 0])
            assert np.array_equal(hi.G.U0, hi.u[:, 0])
            assert ms.rg_step_residual(lo, hi) < 1e-14
            assert ms.c_identity_residual(lo, hi) < 1e-14


def _perturbed_step(g, params, j, delta):
    """The step residual with level ``j + 1`` built at ``a (1 + delta)``."""
    moved = ms.MultiscaleParams(a=params.a * (1 + delta), mu0=params.mu0)
    return ms.rg_step_residual(ms.tower_level(g, params, j), ms.tower_level(g, moved, j + 1)), moved


# rg_d2_n729's cube and the d = 3 and L = 5 cubes of test_step_layout_across_d_and_L
PERTURBED_GRID = [(2, 3, 2, 3), (3, 3, 1, 2), (3, 3, 2, 2), (1, 5, 2, 3), (2, 5, 1, 2)]


@pytest.mark.parametrize("params", [P0, PM])
@pytest.mark.parametrize("geom_args", PERTURBED_GRID)
def test_step_residual_reads_a_perturbed_level(geom_args, params):
    # the factored residual against the dense relative Frobenius distance.
    # At delta = 1e-4 the dense sides are subtracted: G_j + C'_j from
    # rg_operators less green_j at a (1 + delta).  At delta = 1e-8 that
    # subtraction reads its own rounding, about 1e-12 of |G| (1.9e-4 of the
    # residual at (1,5,2,3)), so the difference is formed with no
    # cancellation: the step being exact, it is G_{j+1}(a) - G_{j+1}(a') =
    # (at' - at) G_{j+1}(a) P_{j+1} G_{j+1}(a').  Where 1e-6 of the residual
    # falls below the residual of the exact levels, that rounding bounds the
    # agreement instead (mu0 = 0.1 at (1,5,2,3), j = 2: 1.5e-6 of 1.9e-12).
    g = lat.make_geometry(*geom_args)
    for j in range(1, min(g.k, g.m - 1) + 1):
        floor = ms.rg_step_residual(*_step(g, params, j))
        G, r = ms.green_j(g, params, j + 1), ms.rg_operators(g, params, j)
        for delta in (1e-4, 1e-8):
            value, moved = _perturbed_step(g, params, j, delta)
            G_moved = ms.green_j(g, moved, j + 1)
            if delta == 1e-4:
                dense = rel_frobenius(r.G_j + r.C_prime_j, G_moved)
            else:
                at, at_moved = (p.a_tilde(g, j + 1, j + 1) for p in (params, moved))
                diff = (at_moved - at) * (G @ ops.block_projector(g, j + 1) @ G_moved)
                dense = float(np.linalg.norm(diff.kernel) / np.linalg.norm(G_moved.kernel))
            assert abs(value - dense) <= max(1e-6 * dense, floor), (j, delta, value, dense)


@pytest.mark.parametrize("geom_args", PERTURBED_GRID)
def test_step_residual_has_no_rounding_floor(geom_args):
    # at delta = 1e-12 the residual is still delta times its slope at
    # delta = 1e-8: no floor near sqrt(eps) = 1.5e-8.  At (2,3,2,3), mu0 =
    # 0.1, the formed S x S blocks read 5.3857e-14 and this route 5.3883e-14
    g = lat.make_geometry(*geom_args)
    for params in [P0] + [PM] * (geom_args == (2, 3, 2, 3)):
        slope = _perturbed_step(g, params, 1, 1e-8)[0] / 1e-8
        assert _perturbed_step(g, params, 1, 1e-12)[0] / 1e-12 == pytest.approx(slope, rel=1e-2)


@pytest.mark.parametrize("params", [P0, PM])
@pytest.mark.parametrize("geom_args", [(1, 3, 2, 3), (2, 3, 1, 2), (3, 3, 1, 2)])
def test_tower_inverse_blocks_match_dense_inverse(geom_args, params):
    # the closed-form inverse blocks of every G and C row against np.linalg.inv
    # of the rows formed from their symbols; at mu0 = 0 the row kappa = 0 has
    # Delta_0 = 0
    g = lat.make_geometry(*geom_args)
    for j in range(1, min(g.k + 1, g.m) + 1):
        lv = ms.tower_level(g, params, j)
        lam, u = ops.dct_frequency_classes(g, j)
        assert (lv.G.Delta0[0] == 0.0) == (params.mu0 == 0.0)
        rows = [(lv.G, lam + params.mu_bar(g.L, g.k), u, lv.at)]
        if lv.C is not None:
            _, u1 = ops.dct_frequency_classes(lat.coarse_geometry(g, j), 1)
            rows.append((lv.C, lv.delta.reshape(u1.shape), u1, params.a_tilde(g, 1, j) / g.L**2))
        for M, diag, weights, a in rows:
            dense = a * weights[:, :, None] * weights[:, None, :]
            dense[:, np.arange(diag.shape[1]), np.arange(diag.shape[1])] += diag
            assert_inverse_blocks_match(M, np.linalg.inv(dense))


@pytest.mark.parametrize("columns", [(), (1,), (7,)])
def test_rank_one_solve_in_row_batches_changes_no_bit(columns, monkeypatch):
    # w v is formed in the result and the rank-one term subtracted from it
    # batch by batch: bitwise the two-buffer w v - (w U)(a beta), at the
    # default budget and at one row a batch, for v as (rows, S, ...) and
    # as (rows S, ...)
    G = ms.tower_level(lat.make_geometry(2, 3, 1, 3), PM, 1).G
    rows, S = G.w.shape
    v = np.random.default_rng(4).standard_normal((rows, S) + columns)
    v3, z = v.reshape(rows, S, -1), G.zero
    B = np.einsum("rs,rsc->rc", G.wU, v3)[:, None]
    beta, x0 = G._zero_column(np.s_[:, None, None], v3[:, z:z + 1], B)
    want = G.w[..., None] * v3 - G.wU[..., None] * (G.a * beta)
    want[:, z:z + 1] = x0
    for budget in (ops.BLOCK_BYTES, 1):
        monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
        assert np.array_equal(G.solve(v), want.reshape(v.shape))
        flat = v.reshape((rows * S,) + columns)
        assert np.array_equal(G.solve(flat), want.reshape(flat.shape))


def test_tower_level_holds_no_index_table():
    # every row of a level is a reshape of the nested frequency order: the
    # level and its G and C rows hold float64 arrays alone, 32 bytes a site
    import dataclasses

    g = lat.make_geometry(2, 3, 2, 5)
    lv = ms.tower_level(g, P0, 1)
    arrays = [getattr(x, f.name) for x in (lv, lv.G, lv.C) for f in dataclasses.fields(x)]
    arrays = [a for a in arrays if isinstance(a, np.ndarray)]
    assert all(a.dtype == np.float64 for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 32 * g.site_count


def _rg_verify_values(geom_args):
    import dataclasses

    from blockrg import cli
    cfg = dataclasses.replace(cli.load_config(None), geometry=dict(zip("dLkm", geom_args)))
    return {r.metric: r.value for r in cli.run_rg_verify(cfg)}


@pytest.mark.parametrize("geom_args,budget", [
    ((2, 3, 2, 3), 8 * 9 * 9 * 5),      # covariance and step rows 1 a batch, scaling rows 4
    ((2, 3, 2, 4), 2 * 8 * 81 * 81),    # the 81 step rows (19 x 19 coefficients) 7 a batch,
                                        # covariance rows 48, scaling rows 145
    ((2, 3, 2, 3), 8 * 81 * 7),         # covariance rows 2 a batch, step rows 1, scaling rows 6
    ((2, 3, 3, 4), 8 * 81 * 10),        # both steps' rows 1 a batch, both covariances' rows 3
])
def test_block_batches_agree_with_default_budget(geom_args, budget, monkeypatch):
    default = _rg_verify_values(geom_args)
    monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
    calls, batches = [], ms._batches

    def recorded(rows, row_bytes):
        calls.append((rows, list(batches(rows, row_bytes))))
        return iter(calls[-1][1])
    monkeypatch.setattr(ms, "_batches", recorded)
    small = _rg_verify_values(geom_args)
    # some identity's rows now split, and every split covers its rows in order
    assert any(len(b) > 1 for _, b in calls)
    assert all([r for sl in b for r in range(sl.start, sl.stop)] == list(range(rows))
               for rows, b in calls)
    assert small.keys() == default.keys()
    for name, val in small.items():
        assert abs(val - default[name]) <= 1e-15, (name, val, default[name])


def test_batches_split_rows_within_budget(monkeypatch):
    budget = 2 * 8 * 81 * 81
    monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
    assert [(rb.start, rb.stop) for rb in ops._batches(5, 8 * 81 * 81)] == [
        (0, 2), (2, 4), (4, 5)]
    # an item over the budget goes alone
    assert [(rb.start, rb.stop) for rb in ops._batches(3, 8 * 729 * 729)] == [
        (0, 1), (1, 2), (2, 3)]
    assert list(ops._batches(0, 16)) == []
    # items of no bytes all fit in one slice, however many
    assert [(rb.start, rb.stop) for rb in ops._batches(budget + 5, 0)] == [
        (0, budget + 5)]
    assert ms._identity_row_bytes(729, 9) == 8 * (3 * 19**2 + 7 * 729)


def _peak_mib(f):
    import tracemalloc

    tracemalloc.start()
    try:
        value = f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak / 2**20


def test_rg_step_residual_peak_allocation():
    # level builds included (4.6 MiB); the formed S x S blocks peaked at
    # 23.9 MiB, the factored residual at 13.5 MiB
    g = lat.make_geometry(2, 3, 2, 5)
    value, peak = _peak_mib(lambda: ms.rg_step_residual(*_step(g, P0, 1)))
    assert value < 1e-9
    assert peak <= 16, peak


def test_scaling_residuals_peak_allocation():
    # level builds included (5.1 MiB); the formed blocks of g_scaling and
    # dgc_c peaked at 15.6 MiB, the factored residuals at 11.5 MiB
    g = lat.make_geometry(2, 3, 2, 5)
    values, peak = _peak_mib(lambda: _scaling_residuals(g, P0, 1))
    assert max(values.values()) < 1e-11
    assert peak <= 14, peak


def test_c_identity_residual_peak_allocation():
    # level builds included; solving U as a (rows, L**d S, L**d) right-hand
    # side peaked at 18.7 MiB
    import tracemalloc

    g = lat.make_geometry(2, 3, 2, 5)
    tracemalloc.start()
    try:
        assert ms.c_identity_residual(*_step(g, P0, 1)) < 1e-9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20


def test_c_identity_batches_within_budget(monkeypatch):
    # levels built before; a batch holds three L**d x L**d blocks and three
    # (L**d,) arrays a row, and numpy's iteration buffers add up to about
    # 128 KiB.  Counted at 8 S bytes a row, all 729 rows went in one batch
    # and peaked at 1.8 MiB
    import tracemalloc

    lo, hi = _step(lat.make_geometry(2, 3, 2, 5), P0, 1)
    monkeypatch.setattr(ops, "BLOCK_BYTES", 2**19)
    tracemalloc.start()
    try:
        assert ms.c_identity_residual(lo, hi) < 1e-9
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ops.BLOCK_BYTES + 2**18, peak / 2**20


@pytest.mark.parametrize("geom_args,builds", [((2, 3, 2, 3), 3), ((2, 3, 3, 5), 5)])
def test_rg_verify_builds_each_level_once(geom_args, builds, monkeypatch):
    # the k levels of the cube and the k - 1 levels of its rescalings that the
    # telescope and the scaling relations read
    built = []

    def counting(geom, params, j):
        built.append((geom, j))
        return tower_level(geom, params, j)

    tower_level = ms.tower_level
    monkeypatch.setattr(ms, "tower_level", counting)
    assert all(v <= 1e-9 for v in _rg_verify_values(geom_args).values())
    assert len(built) == builds == len(set(built))


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
