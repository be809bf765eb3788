import dataclasses
import json
import warnings

import numpy as np
import pytest

from blockrg import cli, decay as dc, lattice as lat, multiscale as ms, operators as ops
from oracles import (assert_ct_sigmas_match_dense_svd, conjugated_green, dense_sigmas, inner,
                     norm, rel_frobenius)

P0 = ms.MultiscaleParams()


def test_fit_recovers_synthetic_profile():
    dists = np.linspace(0.0, 10.0, 40)
    mags = 3.0 * np.exp(-0.7 * dists)
    fit = dc.fit_decay(dists, mags)
    assert fit.rate == pytest.approx(0.7, abs=1e-10)
    assert fit.log_prefactor == pytest.approx(np.log(3.0), abs=1e-10)
    assert fit.rms_residual < 1e-12
    assert fit.point_count >= 5


def test_fit_window_rules():
    dists = np.linspace(0.0, 10.0, 40)
    mags = np.exp(-dists)
    fit = dc.fit_decay(dists, mags)
    assert fit.window[0] == 1.0
    assert fit.window[1] == pytest.approx(8.0)
    with pytest.raises(ValueError):
        dc.fit_decay(dists[:6], mags[:6], window=(9.0, 10.0))


def test_fit_scale_honesty():
    # rescaling distances by lam rescales the fitted rate by 1/lam
    rng = np.random.default_rng(0)
    dists = np.linspace(0.5, 12.0, 30)
    mags = np.exp(-0.9 * dists + 0.05 * rng.standard_normal(30))
    lam = 2.5
    f1 = dc.fit_decay(dists, mags)
    f2 = dc.fit_decay(lam * dists, mags, window=(lam * f1.window[0], lam * f1.window[1]))
    assert f2.rate == pytest.approx(f1.rate / lam, rel=1e-12)


def _scalar_box_fit(geom, rng, draws=3):
    """The per-pair reference loop: two (b, 2) draws per pair and draw, a
    full ``Gm @ f2`` apply and ``inner``; returns the fit and the draws."""
    Gm = ms.green_neumann(geom, P0).matrix
    boxes = lat.block_table(geom, geom.k)
    labels = lat.all_sites(lat.coarse_geometry(geom, geom.k))
    dists, logvals, stream = [], [], []
    for i, y in enumerate(labels):
        for i2 in range(i, len(labels)):
            best = 0.0
            for _ in range(draws):
                fields = []
                for box in (boxes[i], boxes[i2]):
                    z = rng.standard_normal((len(box), 2))
                    stream.append(z)
                    v = np.zeros(geom.site_count, dtype=complex)
                    v[box] = z[:, 0] + 1j * z[:, 1]
                    fields.append(ops.Field(geom, v))
                f, f2 = fields
                val = abs(inner(f, ops.Field(geom, Gm @ f2.values)))
                best = max(best, val / (norm(f) * norm(f2)))
            dists.append(float(np.linalg.norm(np.subtract(y, labels[i2]))))
            logvals.append(np.log(best))
    dists, logvals = np.array(dists), np.array(logvals)
    slope, intercept = np.polyfit(dists, logvals, 1)
    viol = float(np.max(logvals - (intercept + slope * dists)))
    return -slope, intercept, viol, np.concatenate(stream)


@pytest.mark.parametrize("d,L,k,m", [(1, 3, 1, 3), (2, 3, 1, 2)])
def test_box_statistics_match_scalar_loop(d, L, k, m):
    g = lat.make_geometry(d, L, k, m)
    ref_rng = np.random.default_rng(7)
    c1, prefactor, viol, stream = _scalar_box_fit(g, ref_rng)
    rng = np.random.default_rng(7)
    rep = dc.ct_bound_report(g, P0, [0.0], rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # the one gathered draw is the scalar loop's stream, bit for bit
    nb, b = lat.block_table(g, g.k).shape
    gathered = np.random.default_rng(7).standard_normal((nb * (nb + 1) // 2, 3, 2, b, 2))
    assert np.array_equal(gathered.reshape(-1, 2), stream)
    assert rep.fitted_c1 == pytest.approx(c1, rel=1e-13, abs=0)
    assert rep.fitted_log_prefactor == pytest.approx(prefactor, rel=1e-13, abs=0)
    assert rep.max_violation == pytest.approx(viol, rel=1e-13, abs=0)


@pytest.mark.parametrize("budget", [1, 8 * 9 * 33 * 7])   # 1 pair a slice; 3 at d = 2
@pytest.mark.parametrize("d,L,k,m", [(1, 3, 1, 5), (2, 3, 1, 3)])
def test_box_pair_slices_change_no_bit(d, L, k, m, budget, monkeypatch):
    # the box pairs go through operators._batches in slices within
    # operators.BLOCK_BYTES, each drawing its fields in order: one stream,
    # from a numpy Generator and from the CLI's operators.Probes (whose
    # chunks keep the default budget here; test_operators cuts them)
    g = lat.make_geometry(d, L, k, m)
    q_list = [0.0, 0.01, -0.01]
    sources = (np.random.default_rng, ops.Probes)
    rngs = [source(922) for source in sources]
    wholes = [dc.ct_bound_report(g, P0, q_list, rng) for rng in rngs]
    nb = lat.block_table(g, g.k).shape[0]
    slices, batches, default = [], ops._batches, ops.BLOCK_BYTES

    def recorded(n, item_bytes, budget):
        if n != nb * (nb + 1) // 2:     # a probe chunk, not the box pairs
            return batches(n, item_bytes, default)
        slices.append(list(batches(n, item_bytes, budget)))
        return iter(slices[-1])

    monkeypatch.setattr(ops, "BLOCK_BYTES", budget)
    monkeypatch.setattr(ops, "_batches", recorded)
    for source, rng, whole in zip(sources, rngs, wholes):
        sliced_rng = source(922)
        assert dc.ct_bound_report(g, P0, q_list, sliced_rng) == whole
        # the slices left the stream where the whole draw did
        assert np.array_equal(sliced_rng.standard_normal(5), rng.standard_normal(5))
    assert len(slices) == 2 and all(len(s) > 1 for s in slices)


@pytest.mark.parametrize("m", [5, 6])
def test_ct_report_peak_allocation(m, monkeypatch):
    # at n = 243 and 729, with G built: the Lanczos basis at its last
    # capacity (doubled from 8 vectors until it held the run's steps), G's
    # kernel and one block of operators.BLOCK_BYTES.  Whole probe draws, a
    # basis copied at every convergence test and box-pair slices within 8 MiB
    # peaked at 4.3 and 26.8 MiB
    import tracemalloc

    g = lat.make_geometry(1, 3, 1, m)
    G = ms.green_neumann(g, P0)
    monkeypatch.setattr(ms, "green_neumann", lambda *args: G)
    tracemalloc.start()
    try:
        rep = dc.ct_bound_report(g, P0, cli.CT_Q_GRID, ops.Probes(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, n, capacity = len({abs(q) for q in cli.CT_Q_GRID}), g.site_count, 8
    while capacity < rep.norm_steps:
        capacity = min(2 * capacity, n)
    assert peak <= G.kernel.nbytes + 8 * rows * capacity * n + ops.BLOCK_BYTES, peak / 2**20


def test_conjugation_bitwise_at_zero():
    for dims in ((1, 3, 1, 2), (1, 3, 1, 5), (2, 3, 1, 2)):
        g = lat.make_geometry(*dims)
        D0 = ms.defining_operator(g, P0, g.k)
        Dq = dc.conjugated_operator(g, P0, 0.0)
        assert np.array_equal(D0.kernel, Dq.kernel)
        assert np.array_equal(D0.kernel, dc.conjugated_operator(g, P0, (0.0,) * g.d).kernel)


def test_conjugated_derivative_identity():
    # e_{-q} d(e_q f) = q E_q f + exp(eta q) d f at interior sites
    g = lat.make_geometry(1, 3, 1, 2)
    eta = g.spacing
    rng = np.random.default_rng(1)
    f = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    D = (np.eye(9, k=1) - np.eye(9)) / eta     # forward difference, Neumann ghost f_9 = f_8
    D[-1] = 0.0
    x = lat.positions(g)[:, 0]
    for q in (0.3, -0.7):
        lhs = np.exp(-q * x) * (D @ (np.exp(q * x) * f))
        E_q = (np.exp(q * eta) - 1.0) / (q * eta)
        rhs = q * E_q * f + np.exp(eta * q) * (D @ f)
        assert np.max(np.abs(lhs - rhs)[:-1]) < 1e-12 * np.max(np.abs(rhs))


def test_conjugation_covariance():
    # e_{-q} G e_q = (D_q)^{-1}
    g = lat.make_geometry(1, 3, 1, 2)
    for q in (0.02, -0.05):
        lhs = conjugated_green(g, P0, q)
        rhs = ops.invert(dc.conjugated_operator(g, P0, q))
        assert rel_frobenius(lhs, rhs) < 1e-10


def test_coercivity_of_symmetrized_form():
    g = lat.make_geometry(1, 3, 1, 2)
    for q in (0.0, 0.05, -0.05):
        Dq = dc.conjugated_operator(g, P0, q).matrix
        sym = (Dq + Dq.conj().T) / 2.0
        assert np.linalg.eigvalsh(sym)[0] > 0


def test_ct_report_reference():
    g = lat.make_geometry(1, 3, 1, 3)
    rng = np.random.default_rng(5)
    q_list = [0.0, 0.02, -0.02, 0.05, -0.05]
    rep = dc.ct_bound_report(g, P0, q_list, rng)
    assert rep.fitted_c1 > 0
    assert rep.q0_weight_mismatch == 0.0
    assert np.isnan(dc.ct_bound_report(g, P0, q_list[1:], rng).q0_weight_mismatch)
    # q = 0 norm equals 1/lambda_min of the defining operator
    D0 = ms.defining_operator(g, P0, 1)
    lam_min = ops.min_eigenvalue(D0)
    assert rep.bound_constants[0] == pytest.approx(1.0 / lam_min, rel=1e-10)
    # the dense SVD as oracle, q and -q alike
    assert np.allclose(rep.min_singular_values, dense_sigmas(g, P0, q_list)[0],
                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("dims,a,mu0,q_list", [
    ((1, 3, 1, 3), 1.0, 0.0, cli.CT_Q_GRID),
    ((1, 3, 2, 4), 0.3, 0.2, cli.CT_Q_GRID),
    ((1, 3, 3, 5), 1.0, 0.0, cli.CT_Q_GRID),
    ((2, 3, 1, 2), 1.0, 0.0, [0.0, (0.05, -0.1), (-0.05, 0.1), 0.1, -0.1]),
    ((2, 3, 2, 3), 1.0, 0.0, cli.CT_Q_GRID)])
def test_ct_sigmas_match_dense_svd(dims, a, mu0, q_list, monkeypatch):
    g = lat.make_geometry(*dims)
    params = ms.MultiscaleParams(a=a, mu0=mu0)
    with monkeypatch.context() as mp:
        # the report reads G alone: no dense D_q, no SVD
        for mod, name in ((np.linalg, "svd"), (dc, "conjugated_operator")):
            mp.setattr(mod, name, lambda *args, **kw: pytest.fail("dense D_q or SVD used"))
        rep = dc.ct_bound_report(g, params, q_list, np.random.default_rng(0))
    sigmas = np.array(rep.min_singular_values)
    rel = np.abs(sigmas - dense_sigmas(g, params, q_list)[0]) / sigmas
    assert np.max(rel) <= 1e-12
    # two independent routes to q = 0: the Lanczos norm of G and the
    # frequency-class lambda_min of the defining operator
    lam = ms.defining_min_eigenvalue(g, params, g.k)
    assert rep.bound_constants[0] * lam == pytest.approx(1.0, rel=1e-12, abs=0)
    assert rep.norm_steps <= g.site_count // 2


@pytest.mark.parametrize("dims,a,mu0,q_list", [
    ((1, 3, 1, 5), 1.0, 0.0, [1.0, 2.0, 3.0, 3.95]),
    ((1, 3, 1, 5), 0.1, 1.0, [1.0, 2.0, 3.0, 3.95]),
    ((1, 3, 1, 5), 10.0, 0.0, [1.0, 2.0, 3.0, 3.95]),
    ((2, 3, 1, 3), 1.0, 0.0, [2.0, (10.0, -8.0), (18.0, 18.7)])])
def test_ct_sigmas_at_far_weights(dims, a, mu0, q_list):
    # q inside and far past G's decay rate, the last one at a reach just
    # under CT_MAX_EXPONENT (159.3 at side 81, 159.0 at side 9), where the
    # Lanczos vectors reach exp(300): no overflow, and the values stay within
    # the dense SVD's own rounding 16 eps |D_q|_2
    g = lat.make_geometry(*dims)
    params = ms.MultiscaleParams(a=a, mu0=mu0)
    half = g.spacing * (g.sites_per_axis - 1) / 2
    reach = np.abs(dc._q_vector(q_list[-1], g.d)).sum() * half
    assert dc.CT_MAX_EXPONENT - 1.5 < reach <= dc.CT_MAX_EXPONENT
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_ct_sigmas_match_dense_svd(g, params, q_list)


def test_ct_lanczos_basis_is_refused_past_the_dense_cap(tmp_path, monkeypatch):
    # at n = 27 the default q grid is 6 weights and a 12-step run: its basis
    # starts at 8 vectors a weight and doubles to 16. With the cap at the
    # first basis, the doubling is refused by bytes (a configuration error,
    # exit 2); with room for 16 vectors the run is the uncapped one
    g = lat.make_geometry(1, 3, 1, 3)
    G = ms.green_neumann(g, P0)      # built under the real cap
    monkeypatch.setattr(ms, "green_neumann", lambda *args: G)
    whole = dc.ct_bound_report(g, P0, cli.CT_Q_GRID, np.random.default_rng(0))
    assert whole.norm_steps == 12
    first = 8 * 6 * 8 * g.site_count
    monkeypatch.setattr(ops, "DENSE_BYTE_CAP", 2 * first)
    assert dc.ct_bound_report(g, P0, cli.CT_Q_GRID, np.random.default_rng(0)) == whole
    monkeypatch.setattr(ops, "DENSE_BYTE_CAP", first)
    with pytest.raises(ops.DenseSizeError, match="Lanczos basis of 6 weights would hold 16 "
                                                 "vectors of 27 sites"):
        dc.ct_bound_report(g, P0, cli.CT_Q_GRID, np.random.default_rng(0))
    cfg = dataclasses.replace(cli.load_config(None), experiment="ct-report",
                              geometry=dict(zip("dLkm", (1, 3, 1, 3))))
    assert cli.run(cfg, tmp_path) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["ct-report"]["status"] == "config error"


def test_ct_report_weight_range_is_named():
    # side 81 at q = 10: weights up to exp(403), W^-2 up to exp(807)
    g = lat.make_geometry(1, 3, 1, 5)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"q = 10\.0 on a cube of side 81 .*CT_MAX_EXPONENT"):
        dc.ct_bound_report(g, P0, [0.0, 10.0], rng)
    assert rng.bit_generator.state == state
    assert 4 * dc.CT_MAX_EXPONENT < np.log(np.finfo(float).max)


@pytest.mark.parametrize("d", [1, 2])
def test_ct_report_single_box_is_named(d, monkeypatch):
    # one unit box gives the one box distance 0: no line to fit, refused
    # before G is built or the generator drawn from
    def no_green(*args):
        raise AssertionError("green_neumann called")

    monkeypatch.setattr(ms, "green_neumann", no_green)
    g = lat.make_geometry(d, 3, 1, 1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(dc.FitWindowError, match="two distinct box distances"):
        dc.ct_bound_report(g, P0, [0.0], rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("g", [(1, 3, 2, 2), (2, 3, 1, 1), (2, 3, 2, 2)])
def test_decay_profile_degenerate_window_is_refused_before_green(g, tmp_path, monkeypatch):
    # one-box cubes leave no site distance in the default window (1, 0.8 max):
    # the profile is refused from the distances alone, and decay-profile
    # reports a configuration error (exit 2)
    def no_green(*args):
        raise AssertionError("green_neumann called")

    monkeypatch.setattr(ms, "green_neumann", no_green)
    geom = lat.make_geometry(*g)
    with pytest.raises(dc.FitWindowError, match=r"degenerate fit window \(1\.0, .*\): 0 points"):
        dc.decay_profile(geom, P0)
    cfg = dataclasses.replace(cli.load_config(None), experiment="decay-profile",
                              geometry=dict(zip("dLkm", g)))
    assert cli.run(cfg, tmp_path) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["decay-profile"]["status"] == "config error"
    assert summary["decay-profile"]["error"].startswith("degenerate fit window")


@pytest.mark.parametrize("g,source", [((1, 3, 1, 4), ("site", (0,))),
                                      ((2, 3, 1, 2), ("site", (4, 7))),
                                      ((2, 3, 1, 2), ("block", (1, 0)))])
def test_profile_is_the_applied_indicator(g, source):
    # oracle: the dense apply of the indicator field; the site source agrees
    # bit for bit, the block source to rounding of the column sums
    geom = lat.make_geometry(*g)
    G = ms.green_neumann(geom, P0)
    dists, mags = dc.decay_profile(geom, P0, source=source)
    pos = lat.positions(geom)
    supp = pos[np.abs(dc.indicator_field(geom, source).values) > 0]
    want = np.abs(ops.apply(G, dc.indicator_field(geom, source)).values)
    want = want[np.argsort(np.min(np.linalg.norm(pos[:, None] - supp[None], axis=2), axis=1))]
    if source[0] == "site":
        assert np.array_equal(mags, want)
    else:
        assert np.max(np.abs(mags - want)) <= 8 * np.finfo(float).eps * np.max(want)


def test_profile_allocates_no_copy_of_g(monkeypatch):
    # at n = 2,187 the kernel is read by index: the apply route cast the whole
    # real kernel to complex, 73 MiB beyond G
    import tracemalloc
    geom = lat.make_geometry(1, 3, 1, 7)
    G = ms.green_neumann(geom, P0)
    monkeypatch.setattr(ms, "green_neumann", lambda *args: G)
    tracemalloc.start()
    try:
        dc.decay_profile(geom, P0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_profile_and_rate_positive():
    g = lat.make_geometry(1, 3, 1, 3)
    dists, mags = dc.decay_profile(g, P0)
    fit = dc.fit_decay(dists, mags)
    assert fit.rate > 0


def test_rate_volume_stability():
    fits = {}
    for m in (3, 4):
        g = lat.make_geometry(1, 3, 1, m)
        dists, mags = dc.decay_profile(g, P0)
        fits[m] = dc.fit_decay(dists, mags).rate
    assert abs(fits[3] - fits[4]) / fits[4] < 0.15


def test_monotone_mass_masking():
    g = lat.make_geometry(1, 3, 1, 3)
    r0 = dc.fit_decay(*dc.decay_profile(g, P0)).rate
    r1 = dc.fit_decay(*dc.decay_profile(g, ms.MultiscaleParams(mu0=0.2))).rate
    assert r1 >= r0 - 1e-9


def test_block_source_profile():
    g = lat.make_geometry(2, 3, 1, 2)
    dists, mags = dc.decay_profile(g, P0, source=("block", (0, 0)))
    assert dists[0] == 0.0
    fit = dc.fit_decay(dists, mags)
    assert fit.rate > 0


@pytest.mark.parametrize("g,source", [((1, 3, 1, 4), ("site", (0,))),
                                      ((2, 3, 1, 2), ("block", (1, 0)))])
def test_profile_distances_match_site_loop(g, source):
    # oracle: each site's distance to the source support, one site at a time
    geom = lat.make_geometry(*g)
    pos = lat.positions(geom)
    supp = pos[np.abs(dc.indicator_field(geom, source).values) > 0]
    loop = np.sort([np.min(np.linalg.norm(supp - x, axis=1)) for x in pos])
    dists, _ = dc.decay_profile(geom, P0, source=source)
    assert np.array_equal(dists, loop)
