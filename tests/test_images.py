import numpy as np
import pytest

from blockrg import fourier as fr, images as im, lattice as lat, multiscale as ms, operators as ops
from blockrg.lattice import site_to_flat
from oracles import dist_to_set

P0 = ms.MultiscaleParams()


@pytest.fixture(scope="module")
def ref_1d():
    geom = lat.make_geometry(1, 3, 1, 2)
    return geom, ms.green_neumann(geom, P0)


def test_center_pair_agreement(ref_1d):
    geom, G = ref_1d
    res = im.neumann_kernel_via_images(geom, P0, (4,), (4,), shells=4)
    direct = G.kernel[site_to_flat(geom, (4,)), site_to_flat(geom, (4,))]
    assert abs(res.value - direct) < 1e-6
    assert res.shells_used == 4
    assert type(res.value) is float   # the real contour's kernels are real


def test_shells_monotone_and_truncation_estimate(ref_1d):
    geom, G = ref_1d
    direct = G.kernel[site_to_flat(geom, (4,)), site_to_flat(geom, (2,))]
    prev = None
    for shells in (1, 2, 3, 4):
        res = im.neumann_kernel_via_images(geom, P0, (4,), (2,), shells)
        err = abs(res.value - direct)
        if prev is not None:
            assert err < prev
            assert res.truncation_estimate < prev_estimate
        prev, prev_estimate = err, res.truncation_estimate
        # estimate really is a geometric-tail extrapolation of the last shell
        mags = np.array(res.shell_magnitudes)
        if shells >= 2 and mags[-2] > 0:
            r = min(max(mags[-1] / mags[-2], 1e-6), im.SHELL_RATIO_LIMIT)
            assert res.truncation_estimate == pytest.approx(mags[-1] * r / (1 - r))
        assert res.truncation_estimate >= 0


def test_symmetry_in_arguments(ref_1d):
    geom, _ = ref_1d
    a = im.neumann_kernel_via_images(geom, P0, (1,), (6,), shells=3)
    b = im.neumann_kernel_via_images(geom, P0, (6,), (1,), shells=3)
    assert abs(a.value - b.value) < 1e-8 * abs(a.value)


def test_gq_route_against_direct(ref_1d):
    geom, G = ref_1d
    GQ = G @ ops.adjoint(ops.averaging(geom, 1))
    coarse = lat.coarse_geometry(geom, 1)
    worst4 = worst6 = 0.0
    for x in [(0,), (4,), (8,)]:
        for y in [(0,), (1,), (2,)]:
            direct = GQ.kernel[site_to_flat(geom, x), site_to_flat(coarse, y)]
            r4 = im.gq_kernel_via_images(geom, P0, x, y, shells=4)
            r6 = im.gq_kernel_via_images(geom, P0, x, y, shells=6)
            worst4 = max(worst4, abs(r4.value - direct))
            worst6 = max(worst6, abs(r6.value - direct))
            assert type(r4.value) is float
    # measured worst corner pair at 4 shells sits at 1.1e-6 (tail rate ~ 1.04);
    # two more shells push it three decades down
    assert worst4 < 2e-6
    assert worst6 < 1e-8


def test_gq_kernel_decays_with_block_distance():
    geom = lat.make_geometry(1, 3, 1, 3)
    G = ms.green_neumann(geom, P0)
    GQ = G @ ops.adjoint(ops.averaging(geom, 1))
    col = np.abs(GQ.kernel[:, 0])
    pos = lat.positions(geom)[:, 0]
    block = lat.block_sites(geom, 1, (0,)) * geom.spacing
    dists = np.array([dist_to_set((p,), block) for p in pos])
    from blockrg.decay import fit_decay
    fit = fit_decay(dists, col, window=(0.5, 0.9 * dists.max()))
    assert fit.rate > 0


def test_gq_rate_volume_stability():
    # fitted decay rate of the direct (G Q*) kernel agrees across volumes
    rates = {}
    for m in (2, 3):
        geom = lat.make_geometry(1, 3, 1, m)
        G = ms.green_neumann(geom, P0)
        GQ = G @ ops.adjoint(ops.averaging(geom, 1))
        col = np.abs(GQ.kernel[:, 0])
        pos = lat.positions(geom)[:, 0]
        block = lat.block_sites(geom, 1, (0,)) * geom.spacing
        dists = np.array([dist_to_set((p,), block) for p in pos])
        from blockrg.decay import fit_decay
        rates[m] = fit_decay(dists, col, window=(0.3, 0.95 * dists.max())).rate
    assert abs(rates[2] - rates[3]) / rates[3] < 0.2


def test_images_report_reference_case(ref_1d):
    geom, _ = ref_1d
    rep = im.images_residual_report(geom, P0, shells=4)
    # residuals decrease monotonically in shells
    assert all(b < a for a, b in zip(rep.neumann_max, rep.neumann_max[1:]))
    assert all(b < a for a, b in zip(rep.gq_max, rep.gq_max[1:]))
    assert rep.neumann_center[-1] < 1e-6
    assert rep.neumann_median[-1] < 1e-6
    # worst corner pair sits slightly above the center pair (documented)
    assert rep.neumann_max[-1] < 5e-6
    # geometric tail: log residual vs shell count is linear with negative slope
    slope = np.polyfit(np.arange(1, 5), np.log(rep.neumann_max), 1)[0]
    assert slope < 0
    rho = -slope / (2 * geom.side_length)  # per unit of shell side length
    assert rho > 0


def test_images_report_2d():
    geom = lat.make_geometry(2, 3, 1, 1)
    rep = im.images_residual_report(geom, P0, shells=3)
    assert all(b < a for a, b in zip(rep.neumann_max, rep.neumann_max[1:]))
    # the method converges but slowly at unit side: the shell ratio is
    # exp(-rate * side) ~ 0.35, nowhere near the 1e-5 band at 3 shells
    assert rep.neumann_max[-1] < 0.1


def test_2d_identity_converges_at_large_shells():
    # deep-shell check that the image identity itself is exact
    geom = lat.make_geometry(2, 3, 1, 1)
    G = ms.green_neumann(geom, P0)
    x = y = (1, 1)
    res = im.neumann_kernel_via_images(geom, P0, x, y, shells=12)
    direct = G.kernel[site_to_flat(geom, x), site_to_flat(geom, y)]
    assert abs(res.value - direct) < 2e-5


def test_boundary_neumann_criterion(ref_1d):
    # the image-sum function satisfies the discrete Neumann conditions at the
    # boundary, to truncation tolerance
    geom, _ = ref_1d
    y = (4,)
    shells = 4
    imgs = lat.image_points(geom, y, shells) * geom.spacing
    patch_idx = np.arange(-1, geom.sites_per_axis + 1)
    pos = (patch_idx * geom.spacing).reshape(-1, 1)
    grid = fr.default_grid(1, 3, 1)
    vals, _, _ = fr.converge_kernel(
        lambda g: fr.free_kernel_g(pos, imgs, g, P0).sum(axis=1), grid, tol=1e-9)
    F = vals
    scale = np.max(np.abs(F))
    assert abs(F[0] - F[1]) < 1e-5 * scale          # backward derivative at 0
    assert abs(F[-1] - F[-2]) < 1e-5 * scale        # forward derivative at N-1


@pytest.mark.parametrize("shells", [1, 4])
def test_far_pair_below_the_rounding_floor_raises(shells):
    # at (1,3,1,5) the pair (0,)-(242,) (direct value 7.3e-37 against
    # max|G| = 0.88) reads rounding on every grid: its changes stay far above
    # sqrt(tol), so no rate accepts a doubling and the ladder gives up
    geom = lat.make_geometry(1, 3, 1, 5)
    with pytest.raises(fr.GridConvergenceError, match="after 6 doublings"):
        im.neumann_kernel_via_images(geom, P0, (0,), (242,), shells)


def test_shell_guard_raises_for_flat_tails(ref_1d):
    geom, _ = ref_1d
    vals = np.ones(9, dtype=complex)  # no decay at all
    idx = lat.image_shell_index(geom, (4,), 4)
    with pytest.raises(im.ImageSumDivergence):
        im._assemble(np.ones(len(idx), dtype=complex), idx, 4)


def test_shell_guard_reads_per_image_means():
    # at unit side in d = 3 shell 2 holds 98 images against shell 1's 26:
    # the shell magnitudes grow (ratio 1.114) while each image's share
    # decays (0.30), and the sum converges; a flat tail still reads 1
    geom = lat.make_geometry(3, 3, 1, 1)
    x, y = (0, 0, 0), (2, 2, 2)
    direct = ms.green_neumann(geom, P0).kernel[site_to_flat(geom, x), site_to_flat(geom, y)]
    two, three = (im.neumann_kernel_via_images(geom, P0, x, y, s) for s in (2, 3))
    mags = np.array(three.shell_magnitudes)
    assert mags[2] / mags[1] > 1.1 and mags[3] < mags[2]
    assert np.allclose(two.shell_magnitudes, mags[:3], rtol=1e-7, atol=0.0)
    assert abs(three.value - direct) < abs(two.value - direct)
    idx = lat.image_shell_index(geom, x, 2)
    assert np.bincount(idx).tolist() == [1, 26, 98]
    with pytest.raises(im.ImageSumDivergence, match="per-image shell ratio 1.000"):
        im._assemble(np.ones(len(idx)), idx, 2)


@pytest.mark.parametrize("g", [(1, 3, 1, 2), (2, 3, 1, 1)])
def test_report_batches_match_pair_sums(g):
    # the report's two batches give each pair's image sum; the pair routes
    # converge their own one-pair batches on their own grids
    geom = lat.make_geometry(*g)
    xs = lat.sample_sites(geom)
    labels = lat.sample_sites(lat.coarse_geometry(geom, geom.k))
    shells = 2
    xpos = np.array([lat.site_position(geom, x) for x in xs])
    vals = im._image_batches(geom, P0, shells, (xs, xpos, False))[0][0]
    for iy, y in enumerate(xs):
        for ix, x in enumerate(xs):
            pair = im.neumann_kernel_via_images(geom, P0, x, y, shells).value
            assert abs(vals[iy, ix].sum() - pair) <= 1e-8 * abs(pair)
    vals = im._image_batches(geom, P0, shells, (xs, labels, True))[0][0]
    for ix, x in enumerate(xs):
        for iy, y in enumerate(labels):
            pair = im.gq_kernel_via_images(geom, P0, x, y, shells).value
            assert abs(vals[ix, iy].sum() - pair) <= 1e-8 * abs(pair)


@pytest.mark.parametrize("g", [(1, 3, 1, 1), (2, 3, 1, 1), (3, 3, 1, 1)])
def test_bare_position_is_one_row(g):
    # a bare (d,) position or label is one row of the batch, as when wrapped:
    # it once reshaped as d rows, an error at d = 2 and shape (1, 3, 9) at d = 3
    geom = lat.make_geometry(*g)
    x, y = (0,) * geom.d, lat.site_position(geom, (1,) * geom.d)
    for other, gq in ((y, False), (np.zeros(geom.d), True)):
        bare, = im._image_batches(geom, P0, 1, ([x], other, gq))
        wrapped, = im._image_batches(geom, P0, 1, ([x], [other], gq))
        assert bare[0].shape == (1, 1, 3**geom.d)
        assert all(np.array_equal(a, b) for a, b in zip(bare, wrapped))


@pytest.mark.parametrize("g", [(2, 3, 1, 1), (2, 3, 2, 3), (3, 3, 1, 1), (1, 3, 2, 6)])
def test_gq_entries_are_block_means_of_g(g):
    # oracle: the dense composition G Q* at every (site, coarse label) pair
    geom = lat.make_geometry(*g)
    G = ms.green_neumann(geom, P0)
    dense = (G @ ops.adjoint(ops.averaging(geom, geom.k))).kernel
    fx = np.arange(geom.site_count)
    fy = np.arange(lat.coarse_geometry(geom, geom.k).site_count)
    got = im._gq_entries(geom, G.kernel, fx, fy)
    assert got.shape == dense.shape
    assert np.max(np.abs(got - dense)) <= 4 * np.finfo(float).eps * np.max(np.abs(G.kernel))


def test_report_converges_past_the_torus_period():
    # images at 4 shells reach |x - y| = 405 here: below a base count of 810
    # the torus quadrature aliases them; started above twice the reach, both
    # batches converge on base counts [1024, 2048]
    geom = lat.make_geometry(1, 3, 2, 6)
    shells = 4
    rep = im.images_residual_report(geom, P0, shells)
    for r in (rep.neumann_max, rep.neumann_median, rep.gq_max, rep.neumann_center):
        assert max(r) <= 1e-12
    xs = lat.sample_sites(geom)
    imgs = np.concatenate([lat.image_points(geom, s, shells) for s in xs]) * geom.spacing
    targets = (np.array(xs, dtype=float) * geom.spacing,
               np.array(lat.sample_sites(lat.coarse_geometry(geom, geom.k)), dtype=float))
    for grid, delta, other in zip(rep.grid_used, rep.last_delta, targets):
        reach = np.max(np.abs(imgs[:, None, :] - other[None, :, :]))
        assert reach > 400
        assert grid.base_count >= 2 * reach and grid.base_count == 2048
        assert delta <= 1e-8


@pytest.mark.parametrize("shape", [(1,), (2,), (7,), (5, 5), (4, 6)])
def test_median_is_numpy_median(shape):
    # the report's median agrees with np.median bit for bit, ties included
    rng = np.random.default_rng(41)
    for a in (rng.random(shape), np.abs(rng.standard_normal(shape)) * 1e-13,
              np.round(rng.random(shape), 1)):
        assert im._median(a) == np.median(a)


@pytest.mark.parametrize("g,shells", [((1, 3, 2, 4), 3), ((2, 3, 1, 1), 4),
                                      ((2, 3, 2, 3), 2), ((3, 3, 1, 1), 2)])
def test_report_batches_are_one_plan_ladders(g, shells, monkeypatch):
    # the report runs its G and G Q* batches on one ladder; each is bit for bit
    # converge_kernel over free_kernel_g or free_kernel_gq from its own start
    geom = lat.make_geometry(*g)
    run, batches = im._image_batches, []

    def recorded(*args):
        batches.append(run(*args))
        return batches[-1]

    monkeypatch.setattr(im, "_image_batches", recorded)
    rep = im.images_residual_report(geom, P0, shells)
    xs = lat.sample_sites(geom)
    imgs = np.concatenate([lat.image_points(geom, s, shells) for s in xs]) * geom.spacing
    xpos = np.array([lat.site_position(geom, x) for x in xs])
    labels = np.array(lat.sample_sites(lat.coarse_geometry(geom, geom.k)), dtype=float)
    kernels = (lambda grid: fr.free_kernel_g(xpos, imgs, grid, P0),
               lambda grid: fr.free_kernel_gq(imgs, labels, grid, P0).T)
    for (vals, _, used, delta), kernel, others in zip(batches[0], kernels, (xpos, labels)):
        reach = np.max(np.abs(imgs[:, None, :] - others[None, :, :]))
        want, want_grid, want_delta = fr.converge_kernel(
            kernel, fr.default_grid(geom.d, geom.L, geom.k, reach), P0)
        assert np.array_equal(vals, want.reshape(len(others), len(xs), -1).transpose(1, 0, 2))
        assert (used, delta) == (want_grid, want_delta)
    assert rep.grid_used == tuple(b[2] for b in batches[0])


def test_report_builds_each_level_once(monkeypatch):
    # at (2,3,1,1), shells 4, both batches converge over M0 = 16, 32: the
    # change from 16 to 32 (1.1e-6 and 1.7e-6) times exp(-theta q_lo 16)
    # is below tol.  The ladder's scan of q* builds the 1-d shift row once,
    # then each grid's symbols are built once at M0 (M0/2 + 1) nodes: one
    # build per level serves both batches
    builds, build = [], fr.AxisSymbols.build.__func__

    def counted(cls, axis_nodes, *args):
        builds.append(np.prod([len(nodes) for nodes in axis_nodes]))
        return build(cls, axis_nodes, *args)

    monkeypatch.setattr(fr.AxisSymbols, "build", classmethod(counted))
    rep = im.images_residual_report(lat.make_geometry(2, 3, 1, 1), P0, 4)
    assert [g.base_count for g in rep.grid_used] == [32, 32]
    assert builds == [len(fr.STRIP_SCAN), 16 * 9, 32 * 17]


@pytest.mark.parametrize("g,shells", [((1, 3, 2, 4), 3), ((2, 3, 1, 1), 4),
                                      ((2, 3, 2, 3), 2), ((3, 3, 1, 1), 2)])
def test_report_batches_within_tol_of_one_more_doubling(g, shells, monkeypatch):
    # each batch stops where the ladder's rate accepts it; one more doubling
    # of its own plan moves no value by more than tol times the batch max
    runs, converge = [], fr.converge_plans

    def recorded(plans, params, tol=1e-8):
        runs.append((plans, converge(plans, params, tol)))
        return runs[-1][1]

    monkeypatch.setattr(fr, "converge_plans", recorded)
    im.images_residual_report(lat.make_geometry(*g), P0, shells)
    (plans, out), = runs
    for plan, (vals, used, _) in zip(plans, out):
        finer, = fr.evaluate_plans([plan], used.refined(), P0)
        assert np.max(np.abs(vals - finer)) <= 1e-8 * np.max(np.abs(finer))


def test_report_memory():
    # the whole report at (2,3,1,1), shells 4, dense G included, under
    # tracemalloc: 3.65 MiB with a ladder per batch and 3.68 MiB on one
    # ladder; a per-block list of both plans' block legs read 4.78 MiB
    import tracemalloc
    geom = lat.make_geometry(2, 3, 1, 1)
    im.images_residual_report(geom, P0, 4)      # what the first call imports
    tracemalloc.start()
    try:
        im.images_residual_report(geom, P0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20
