"""Acceptance gate: every contract at its stated tolerance, one line per check.

Contracts that a CLI suite emits are checked by running that suite
(``blockrg.cli.SUITES``) at a pinned configuration and requiring its rows to
pass; their tolerances live in :mod:`blockrg.cli` only.  Checks that no suite
emits are written out here.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the PASS/FAIL line of each criterion including the measured value.
"""

import dataclasses
import functools
import re

import numpy as np

from blockrg import (cli, fourier as fr, images as im, lattice as lat,
                     multiscale as ms)
from oracles import technical_bounds_report

P0 = ms.MultiscaleParams()
PM = ms.MultiscaleParams(mu0=0.1)

RG_GRID = [(1, 3, 2, 2), (1, 3, 2, 3), (2, 3, 2, 2)]
TELESCOPE_GRID = RG_GRID + [(1, 3, 1, 2)]   # includes the k = 1 empty-sum case
DEFAULT_GEOMETRY = (1, 3, 2, 4)


@functools.cache
def _suite(name, geometry=DEFAULT_GEOMETRY, params=P0, seed=0):
    """Rows of CLI suite ``name`` at the default config with these overrides."""
    cfg = dataclasses.replace(cli.load_config(None), geometry=dict(zip("dLkm", geometry)),
                              params=params, seed=seed)
    return tuple(cli.SUITES[name](cfg))


def _check(name, value, tol):
    ok = value <= tol
    print(f"ACCEPT {name}: value={value:.6g} tol={tol:.6g} "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {value:.6g} vs {tol:.6g}"


def _accept(name, pattern=".*", **config):
    """Require every row of suite ``name`` whose metric matches ``pattern`` to
    pass (the CLI rule ``value <= tolerance``); returns them by metric name."""
    rows = {r.metric: r for r in _suite(name, **config)
            if re.fullmatch(pattern, r.metric)}
    assert rows, f"{name} emits no {pattern!r} row at {config}"
    for r in rows.values():
        _check(f"{name} ({r.d},{r.L},{r.k},{r.m}) mu0={r.mu0:g} {r.metric}",
               r.value, r.tolerance)
    return rows


def _accept_rg(pattern, grid=RG_GRID):
    """``_accept`` on rg-verify over ``grid`` x {P0, PM}; (geometry, params, rows)."""
    return [(g, p, _accept("rg-verify", pattern, geometry=g, params=p))
            for g in grid for p in (P0, PM)]


def test_spectrum_identity():
    _accept("spectrum", r"spectrum_max_rel_err_eta_.*")


def test_chebyshev_roots():
    _accept("spectrum", "chebyshev_root_max_err")


def test_a_sequence_recursion():
    _accept("spectrum", "a_sequence_max_rel_err")


def test_rg_step():
    _accept_rg(r"rg_step_residual_j\d+")


def test_rg_telescope():
    _accept_rg("rg_telescope_residual", TELESCOPE_GRID)


def test_covariance_identity():
    for geometry, params, rows in _accept_rg(r"c_identity_residual_j\d+"):
        # the suite stops at j = k - 1; j = k < m is checked here at the
        # tolerance the suite gives the same identity
        g = lat.make_geometry(*geometry)
        if g.k < g.m:
            _check(f"c_identity_residual_j{g.k} {geometry} mu0={params.mu0:g}",
                   ms.c_identity_residual(ms.tower_level(g, params, g.k),
                                          ms.tower_level(g, params, g.k + 1)),
                   rows["c_identity_residual_j1"].tolerance)


def test_scaling_identities():
    _accept_rg(r"(de|q|g)_scaling_j\d+|dgc_(delta|c)_j\d+", TELESCOPE_GRID)


def test_fourier_qkqk():
    worst = 0.0
    rng = np.random.default_rng(2024)
    for d in (1, 2):
        for k in (1, 2):
            patch = lat.block_aligned_patch(d, 3, k, (0,) * d, (2,) * d)
            vals = (rng.standard_normal(patch.site_count)
                    + 1j * rng.standard_normal(patch.site_count))
            grid = fr.TorusGrid(d, 3, k, 16 * 3**k)
            worst = max(worst, fr.qkqk_fourier_residual(patch, vals, grid))
    _check("fourier_qkqk", worst, 1e-8)


def test_images_d1():
    g = lat.make_geometry(1, 3, 1, 2)
    rep = im.images_residual_report(g, P0, shells=4)
    mono = all(b < a for a, b in zip(rep.neumann_max, rep.neumann_max[1:]))
    print(f"ACCEPT images_d1_monotone: {'PASS' if mono else 'FAIL'} "
          f"(sweep {['%.3g' % r for r in rep.neumann_max]})")
    assert mono
    # the reference check is the center pair; corner pairs sit closest to
    # the first omitted images and carry a slightly larger tail
    _check("images_d1_center_shells4", rep.neumann_center[3], 1e-6)
    _check("images_d1_median_shells4", rep.neumann_median[-1], 1e-6)
    print(f"  (site-sample max at shells=4: {rep.neumann_max[-1]:.3g})")


def test_images_d2():
    # Stated contract: residual <= 1e-5 at shells=3 for (d,L,k,m) = (2,3,1,1).
    # The measured truncation tail of the image sum on this unit-side cube is
    # ~5.7e-2: the free-kernel decay rate is ~1.0 and the first omitted image
    # sits at distance 3, so plain image summation cannot reach 1e-5 before
    # roughly twelve shells and the stated number cannot hold as written.
    # The identity itself is verified to converge in test_images.py at deep
    # shells.  The assertion below is kept faithful to the stated number and
    # is expected to fail.
    g = lat.make_geometry(2, 3, 1, 1)
    rep = im.images_residual_report(g, P0, shells=3)
    mono = all(b < a for a, b in zip(rep.neumann_max, rep.neumann_max[1:]))
    print(f"ACCEPT images_d2_monotone: {'PASS' if mono else 'FAIL'}")
    assert mono
    _check("images_d2_shells3", rep.neumann_max[-1], 1e-5)


def test_contour_shift_invariance():
    worst = 0.0
    for d, k in ((1, 1), (1, 2), (2, 1)):
        worst = max(worst, fr.contour_shift_change(
            fr.default_grid(d, 3, k), P0, 0.05, tol=1e-9))
    _check("contour_shift", worst, 1e-8)


def test_strip_bound_stability():
    for geometry in (DEFAULT_GEOMETRY, (2, 3, 1, 1)):   # the suite reads d and L
        _accept("strip-bound", geometry=geometry)


def test_conjugation_bounds():
    rows = _accept("ct-report", geometry=(1, 3, 1, 3), seed=11)
    assert rows["neg_ct_fitted_c1"].value < 0, "fitted c1 must be strictly positive"


def test_supnorm_decay_properties():
    rates = {}
    for d, k, m in ((1, 1, 3), (1, 1, 4), (1, 2, 4),
                    (2, 1, 2), (2, 1, 3), (2, 2, 3)):
        rows = _accept("decay-profile", geometry=(d, 3, k, m))
        rates[(d, k, m)] = -rows["neg_fit_rate"].value
    for key, rate in rates.items():
        assert rate > 0, f"supnorm rate at {key}: {rate}"
    drifts = {
        "volume_d1": abs(rates[(1, 1, 3)] - rates[(1, 1, 4)]) / rates[(1, 1, 4)],
        "spacing_d1": abs(rates[(1, 1, 3)] - rates[(1, 2, 4)]) / rates[(1, 2, 4)],
        "volume_d2": abs(rates[(2, 1, 2)] - rates[(2, 1, 3)]) / rates[(2, 1, 3)],
        "spacing_d2": abs(rates[(2, 1, 2)] - rates[(2, 2, 3)]) / rates[(2, 2, 3)],
    }
    for name, drift in drifts.items():
        _check(f"supnorm_rate_drift_{name}", drift, 0.25)


def test_positivity():
    rows = _accept("positivity", geometry=(1, 3, 1, 2))   # family k = 1, 2, 3 at m = k + 1
    neg_c = [r.value for m, r in rows.items() if m.startswith("neg_positivity_c_")]
    assert len(neg_c) == 3 and max(neg_c) < 0, f"c must be strictly positive: {neg_c}"


def test_scalar_inequality_sweeps():
    checks = technical_bounds_report(n_grid=41)
    worst_drift = 0.0
    for c in checks:
        assert np.isfinite(c.worst) and np.isfinite(c.worst_refined), c.name
        worst_drift = max(worst_drift, c.drift)
    _check("scalar_inequality_drift", worst_drift, 2.0)
