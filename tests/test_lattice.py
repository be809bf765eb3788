import numpy as np
import pytest

from blockrg import lattice as lat
from oracles import block_label, dist_to_set, patch_sites, reflect


def test_make_geometry_reference():
    g = lat.make_geometry(1, 3, 1, 2)
    assert g.sites_per_axis == 9
    assert g.spacing == pytest.approx(1 / 3)
    assert g.side_length == 3


def test_make_geometry_unit_spacing():
    g = lat.make_geometry(2, 3, 0, 1)
    assert g.sites_per_axis == 3
    assert g.spacing == 1.0
    assert g.site_count == 9


@pytest.mark.parametrize("args", [(1, 4, 1, 2), (1, 1, 0, 1), (1, 6, 1, 2)])
def test_even_or_unit_l_rejected(args):
    with pytest.raises(lat.GeometryError):
        lat.make_geometry(*args)


def test_k_over_m_rejected():
    with pytest.raises(lat.GeometryError):
        lat.make_geometry(1, 3, 3, 2)
    with pytest.raises(lat.GeometryError):
        lat.make_geometry(1, 3, -1, 2)


def test_make_geometry_admits_any_size():
    # only dense work is size-guarded (operators.check_dense)
    assert lat.make_geometry(2, 3, 2, 6).site_count == 531441


def test_coarse_geometry():
    g = lat.make_geometry(1, 3, 1, 2)
    c = lat.coarse_geometry(g, 1)
    assert c.sites_per_axis == 3
    assert c.spacing == pytest.approx(1.0)
    assert lat.coarse_geometry(g, 0) == g
    with pytest.raises(lat.GeometryError):
        lat.coarse_geometry(g, 5)


def test_coarsening_commutes_with_scaling():
    g = lat.make_geometry(2, 3, 2, 3)
    for ell in (1, 2):
        for j in (1, 2):
            a = lat.coarse_geometry(lat.scale_geometry(g, ell), j)
            b = lat.coarse_geometry(g, j)
            assert a.sites_per_axis == b.sites_per_axis
            assert a.spacing == pytest.approx(b.spacing * g.L**ell)


def test_block_label():
    g = lat.make_geometry(1, 3, 1, 2)
    assert block_label(g, 1, (5,)) == (1,)
    assert block_label(g, 0, (5,)) == (5,)
    g2 = lat.make_geometry(2, 3, 2, 2)
    assert block_label(g2, 2, (8, 0)) == (0, 0)


@pytest.mark.parametrize("j", [-1, 3])
def test_block_level_outside_the_cube_is_refused(j):
    # one rule, 0 <= j <= m, owned by coarse_geometry
    g = lat.make_geometry(1, 3, 1, 2)
    with pytest.raises(lat.GeometryError, match=rf"level j={j} outside \[0, 2\]"):
        lat.coarse_geometry(g, j)
    for call in (lambda: lat.block_table(g, j), lambda: lat.block_sites(g, j, (0,))):
        with pytest.raises(lat.GeometryError, match=rf"level j={j} outside \[0, 2\]"):
            call()


def test_block_sites():
    g = lat.make_geometry(1, 3, 1, 2)
    got = sorted(tuple(s) for s in lat.block_sites(g, 1, (2,)))
    assert got == [(6,), (7,), (8,)]
    assert [tuple(s) for s in lat.block_sites(g, 0, (4,))] == [(4,)]


@pytest.mark.parametrize("shapes", [[(3, 2)], [(2, 3), (4, 1)], [(3, 3), (2, 5), (1, 2)],
                                    [(4, 4)] * 3])
def test_axis_outer_multiply_is_chained_kron(shapes):
    rng = np.random.default_rng(len(shapes))
    mats = [rng.standard_normal(s) for s in shapes]
    chained = mats[0]
    for mm in mats[1:]:
        chained = np.kron(chained, mm)
    assert np.array_equal(lat._axis_outer(np.multiply, mats), chained)   # bitwise


@pytest.mark.parametrize("geom_args", [(1, 3, 1, 2), (2, 3, 1, 2), (3, 3, 1, 1)])
def test_block_table_matches_block_sites(geom_args):
    g = lat.make_geometry(*geom_args)
    for j in range(g.m + 1):
        coarse = lat.coarse_geometry(g, j)
        table = lat.block_table(g, j)
        assert table.shape == (coarse.site_count, g.L ** (j * g.d))
        for label in lat.all_sites(coarse):
            expect = [lat.site_to_flat(g, s) for s in lat.block_sites(g, j, tuple(label))]
            assert table[lat.site_to_flat(coarse, label)].tolist() == expect


def test_blocks_tile_exactly():
    g = lat.make_geometry(2, 3, 1, 2)
    for j in (1, 2):
        coarse = lat.coarse_geometry(g, j)
        seen = []
        for label in lat.all_sites(coarse):
            blk = lat.block_sites(g, j, tuple(label))
            assert len(blk) == g.L ** (j * g.d)
            for s in blk:
                assert block_label(g, j, tuple(s)) == tuple(label)
            seen.extend(map(tuple, blk))
        assert sorted(seen) == sorted(map(tuple, lat.all_sites(g)))


def test_reflect():
    g = lat.make_geometry(1, 3, 1, 2)
    assert reflect(g, 0, "low", (0,)) == (-1,)
    assert reflect(g, 0, "high", (8,)) == (9,)
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = tuple(rng.integers(-20, 20, size=2))
        g2 = lat.make_geometry(2, 3, 1, 2)
        for axis in (0, 1):
            for end in ("low", "high"):
                assert reflect(g2, axis, end, reflect(g2, axis, end, s)) == s


def test_image_points_reference():
    g = lat.make_geometry(1, 3, 1, 2)
    assert sorted(map(tuple, lat.image_points(g, (1,), 0))) == [(1,)]
    got = sorted(map(tuple, lat.image_points(g, (1,), 1)))
    assert got == [(-2,), (1,), (16,)]


def test_image_points_count_and_closure():
    g = lat.make_geometry(2, 3, 1, 1)
    for shells in (1, 2):
        pts = lat.image_points(g, (1, 2), shells)
        tup = set(map(tuple, pts))
        assert len(pts) == (2 * shells + 1) ** 2 == len(tup)
        N = g.sites_per_axis
        lo, hi = -shells * N, (shells + 1) * N - 1
        for p in tup:
            for axis in (0, 1):
                for end in ("low", "high"):
                    r = reflect(g, axis, end, p)
                    if all(lo <= c <= hi for c in r):
                        assert r in tup
        inside = [p for p in tup if g.contains(p)]
        assert inside == [(1, 2)]


def test_image_points_match_brute_force_orbit():
    # orbit of the reflection group, depth-first, restricted to the window
    g = lat.make_geometry(1, 3, 1, 2)
    y, shells = (4,), 2
    N = g.sites_per_axis
    lo, hi = -shells * N, (shells + 1) * N - 1
    seen, frontier = {y}, [y]
    while frontier:
        s = frontier.pop()
        for end in ("low", "high"):
            r = reflect(g, 0, end, s)
            if lo <= r[0] <= hi and r not in seen:
                seen.add(r)
                frontier.append(r)
    assert seen == set(map(tuple, lat.image_points(g, y, shells)))


def test_distances():
    # the reference distance to a set that the image tests read
    assert dist_to_set((1.0, 1.0), [(1.0, 1.0)]) == 0.0
    assert dist_to_set((0.0,), [(2.0,), (5.0,)]) == pytest.approx(2.0)
    with pytest.raises(lat.GeometryError):
        dist_to_set((0.0,), np.zeros((0, 1)))


def test_patch_helpers():
    p = lat.block_aligned_patch(1, 3, 1, (-1,), (1,))
    assert p.lo == (-3,) and p.hi == (5,)
    assert p.site_count == 9
    sites = patch_sites(p)
    assert sites[0, 0] == -3 and sites[-1, 0] == 5


def test_sample_sites():
    g = lat.make_geometry(2, 3, 1, 2)
    sample = lat.sample_sites(g)
    assert ((g.sites_per_axis // 2,) * 2) in sample
    assert (0, 0) in sample and (8, 8) in sample
    assert all(g.contains(s) for s in sample)
