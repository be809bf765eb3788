"""Experiment runner: named verification suites with CSV/JSON reports.

Every suite emits rows ``experiment,d,L,k,m,a,mu0,metric,value,tolerance,pass``
with the single pass rule ``pass = (value <= tolerance)``; lower-bound
contracts are therefore emitted in negated form (metric names carry a
``neg_`` prefix) and purely informational rows carry tolerance ``inf``.
Exit status: 0 all contracts pass, 1 contract failure, 2 configuration
error, 3 internal error; the largest applies.  A suite that refuses the
configured cube by name raises ``lattice.GeometryError``, a configuration
error: a dense inverse past ``operators.DENSE_BYTE_CAP``, too few distances
to fit a decay rate (``decay.FitWindowError``), ct-report's weights past
``decay.CT_MAX_EXPONENT``, an analyticity width at or below
``fourier.STRIP_Q_MAX`` (``fourier.StripWidthError``: strip-bound and
fourier-verify), or a cube with k = 0, which carries no level
``G_j`` (rg-verify, images-verify, decay-profile and ct-report).  Under
``all`` the other suites still run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import decay, fourier, images, multiscale, operators as ops
from .lattice import GeometryError, block_aligned_patch, make_geometry, scale_geometry
from .multiscale import MultiscaleParams

INFO = float("inf")
FINITE_CAP = 1e12
# ct-report's weights q: rows at |q| <= 0.05 are contracts, the rest inform
CT_Q_GRID = (0.0, 0.01, -0.01, 0.02, -0.02, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2)


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "experiment": "all",
    "seed": 0,
    "output": "reports",
    "geometry": {"d": 1, "L": 3, "k": 2, "m": 4},
    "params": {"a": 1.0, "mu0": 0.0, "c_star": 1.0},
    "images": {"shells": 4},
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    output: str
    geometry: dict
    params: MultiscaleParams
    images: dict

    def geom(self):
        """The configured cube, of any size: ``operators.check_dense`` refuses
        the suites that need a dense operator too large to form."""
        g = self.geometry
        return make_geometry(g["d"], g["L"], g["k"], g["m"])


def _merge_strict(defaults: dict, given: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path + key!r} must be a mapping")
            out[key] = _merge_strict(defaults[key], val, path + key + ".")
        else:
            out[key] = val
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_seed(seed):
    if not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")


def _q_suffix(q) -> str:
    """The ct-report row name suffix of ``q``."""
    return f"{float(q):+.3g}"


def load_config(path: str | None) -> ExperimentConfig:
    raw = {}
    if path is not None:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
    merged = _merge_strict(_DEFAULTS, raw)
    if path is not None:
        # a config file must pin the lattice explicitly; silent geometry
        # defaults would defeat the point of a pinned experiment record
        given = raw.get("geometry")
        if not isinstance(given, dict):
            raise ConfigError("config file must contain a geometry block")
        for field in ("d", "L", "k", "m"):
            if field not in given or given[field] is None:
                raise ConfigError(f"missing geometry field {field!r}")
    for field, value in merged["geometry"].items():
        if not _is_int(value):
            raise ConfigError(f"geometry.{field} must be an integer, got {value!r}")
    _check_seed(merged["seed"])
    for field, value in merged["params"].items():
        if not (_is_int(value) or isinstance(value, float)):
            raise ConfigError(f"params.{field} must be a number, got {value!r}")
    try:
        params = MultiscaleParams(**{f: float(v) for f, v in merged["params"].items()})
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"bad params block: {exc}") from exc
    cfg = ExperimentConfig(experiment=str(merged["experiment"]),
                           seed=merged["seed"],
                           output=str(merged["output"]),
                           geometry=merged["geometry"],
                           params=params,
                           images=merged["images"])
    try:
        cfg.geom()   # lattice preconditions are config validation, not runtime
    except GeometryError as exc:
        raise ConfigError(f"bad geometry block: {exc}") from exc
    shells = cfg.images["shells"]
    if not (_is_int(shells) and shells >= 1):
        raise ConfigError(f"images.shells must be an integer >= 1, got {shells!r}")
    return cfg


@dataclass(frozen=True)
class MetricRow:
    experiment: str
    d: int
    L: int
    k: int
    m: int
    a: float
    mu0: float
    metric: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def _rows(cfg, experiment, metrics) -> list[MetricRow]:
    g = cfg.geometry
    return [MetricRow(experiment=experiment, d=g["d"], L=g["L"], k=g["k"],
                      m=g["m"], a=cfg.params.a, mu0=cfg.params.mu0,
                      metric=name, value=float(value), tolerance=float(tol))
            for name, value, tol in metrics]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def run_spectrum(cfg: ExperimentConfig) -> list[MetricRow]:
    worst = {}
    for eta in (1.0, 1.0 / 3.0, 1.0 / 9.0):
        worst[eta] = max(ops.spectrum_rel_error(ops.laplacian_spectrum_1d(n, eta))
                         for n in range(2, 83))
    cheb = 0.0
    for n in range(2, 31):
        jac = 0.5 * (np.eye(n - 1, k=1) + np.eye(n - 1, k=-1))
        numeric = np.sort(np.linalg.eigvalsh(jac))
        cheb = max(cheb, float(np.max(np.abs(numeric - ops.chebyshev_roots(n - 1)))))
    metrics = [(f"spectrum_max_rel_err_eta_{eta:.6g}", v, 1e-10)
               for eta, v in worst.items()]
    metrics.append(("chebyshev_root_max_err", cheb, 1e-12))
    a_cl = multiscale.a_sequence(cfg.params.a, cfg.geometry["L"], 50)
    a_rec = multiscale.a_sequence_recursive(cfg.params.a, cfg.geometry["L"], 50)
    metrics.append(("a_sequence_max_rel_err",
                    float(np.max(np.abs(a_cl - a_rec) / a_cl)), 1e-14))
    return _rows(cfg, "spectrum", metrics)


def run_rg_verify(cfg: ExperimentConfig) -> list[MetricRow]:
    geom = cfg.geom()
    params, k = cfg.params, geom.k
    # level j of the cube, and level j of the cube scaled by L**(k - j) (the
    # telescope's term j and the scaling relations' partner); the two
    # coincide at j = k, so each distinct level is built once
    own = [multiscale.tower_level(geom, params, j) for j in range(1, k + 1)]
    scaled = [multiscale.tower_level(scale_geometry(geom, k - j), params, j)
              for j in range(1, k)] + own[-1:]
    metrics = []
    for j in range(1, k):
        lo, hi = own[j - 1], own[j]
        metrics.append((f"rg_step_residual_j{j}", multiscale.rg_step_residual(lo, hi), 1e-9))
        metrics.append((f"c_identity_residual_j{j}",
                        multiscale.c_identity_residual(lo, hi), 1e-10))
    metrics.append(("rg_telescope_residual", multiscale.rg_telescope_residual(scaled), 1e-9))
    for j in range(1, min(k, geom.m - 1) + 1):
        for name, val in multiscale.scaling_residuals(own[j - 1], scaled[j - 1]).items():
            metrics.append((f"{name}_j{j}", val, 1e-11))
    return _rows(cfg, "rg-verify", metrics)


def run_images_verify(cfg: ExperimentConfig) -> list[MetricRow]:
    geom = cfg.geom()
    shells = int(cfg.images["shells"])
    report = images.images_residual_report(geom, cfg.params, shells)
    metrics = [("images_neumann_center_residual", report.neumann_center[-1], INFO),
               ("images_neumann_max_residual", report.neumann_max[-1], INFO),
               ("images_gq_max_residual", report.gq_max[-1], INFO)]
    # two rounding-level residuals divide to about 1 whatever the tail
    ratios = [report.neumann_max[i + 1] / report.neumann_max[i]
              for i in range(shells - 1) if report.neumann_max[i] > report.rounding_floor]
    metrics.append(("images_shell_ratio_max", max(ratios) if ratios else 0.0, 1.0))
    return _rows(cfg, "images-verify", metrics)


def run_fourier_verify(cfg: ExperimentConfig) -> list[MetricRow]:
    g = cfg.geometry
    d, L, k = g["d"], g["L"], g["k"]
    params = cfg.params
    rng = ops.Probes(cfg.seed)
    grid = fourier.default_grid(d, L, k)

    patch = block_aligned_patch(d, L, k, (0,) * d, (2,) * d)
    vals = rng.standard_normal(patch.site_count) + 1j * rng.standard_normal(patch.site_count)
    qkqk = fourier.qkqk_fourier_residual(patch, vals, grid.refined())

    contour = fourier.contour_shift_change(grid, params, fourier.STRIP_Q_MAX)

    fhat = rng.standard_normal((grid.M,) * d) + 1j * rng.standard_normal((grid.M,) * d)
    ghat = fourier.free_apply_ghat(fhat, grid, params)
    back = fourier.free_symbol_apply(ghat, grid, params)
    roundtrip = float(np.max(np.abs(back - fhat)) / np.max(np.abs(fhat)))

    p = rng.uniform(-np.pi, np.pi, size=(16, d))
    at_p = fourier.bracket(p, L, k, params.mu0)
    # periodic in every component: p shifted by 2 pi along each axis in turn
    shifted = fourier.bracket(p + 2.0 * np.pi * np.eye(d)[:, None], L, k, params.mu0)
    per = np.max(np.abs(shifted - at_p))
    scale = np.max(np.abs(at_p))

    metrics = [("qkqk_spatial_vs_fourier", qkqk, 1e-8),
               ("contour_shift_relative_change", contour, 1e-8),
               ("ghat_roundtrip_residual", roundtrip, 1e-10),
               ("bracket_periodicity_residual", float(per / scale), 1e-12)]
    return _rows(cfg, "fourier-verify", metrics)


def run_strip_bound(cfg: ExperimentConfig) -> list[MetricRow]:
    g = cfg.geometry
    d, L = g["d"], g["L"]
    sups = {}
    margin = INFO
    for k in (1, 2, 3):
        rep = fourier.strip_bound_report(d, L, k, cfg.params)
        sups[k] = rep.weighted_sup
        margin = min(margin, rep.min_denominator_margin)
    metrics = [(f"strip_weighted_sup_k{k}", v, FINITE_CAP) for k, v in sups.items()]
    metrics.append(("strip_sup_variation_across_k",
                    max(sups.values()) / min(sups.values()), 10.0))
    metrics.append(("strip_denominator_margin_deficit",
                    max(0.0, 1.0 - margin), 0.0))
    return _rows(cfg, "strip-bound", metrics)


def run_decay_profile(cfg: ExperimentConfig) -> list[MetricRow]:
    geom = cfg.geom()
    dists, mags = decay.decay_profile(geom, cfg.params)
    fit = decay.fit_decay(dists, mags)
    # one row per printed distance, at the largest |G f| there (the sup
    # profile): at d >= 2 several sites share a distance
    sup = {}
    for dist, mag in zip(dists, mags):
        name = f"profile_mag_at_dist_{dist:.6g}"
        sup[name] = max(mag, sup.get(name, mag))
    metrics = [(name, mag, INFO) for name, mag in sup.items()]
    metrics.append(("neg_fit_rate", -fit.rate, 0.0))
    metrics.append(("fit_rms_residual", fit.rms_residual, INFO))
    metrics.append(("fit_log_prefactor", fit.log_prefactor, INFO))
    return _rows(cfg, "decay-profile", metrics)


def run_ct_report(cfg: ExperimentConfig) -> list[MetricRow]:
    geom = cfg.geom()
    params = cfg.params
    rep = decay.ct_bound_report(geom, params, CT_Q_GRID, ops.Probes(cfg.seed))
    metrics = [("ct_q0_bitwise_mismatch", rep.q0_weight_mismatch, 0.0)]
    for q, smin, bound in zip(rep.q_values, rep.min_singular_values,
                              rep.bound_constants):
        metrics.append((f"ct_bound_norm_q_{_q_suffix(q)}", bound,
                        FINITE_CAP if abs(q) <= 0.05 + 1e-12 else INFO))
        metrics.append((f"neg_ct_min_sigma_q_{_q_suffix(q)}", -smin,
                        0.0 if abs(q) <= 0.05 + 1e-12 else INFO))
    metrics.append(("neg_ct_fitted_c1", -rep.fitted_c1, 0.0))
    metrics.append(("ct_fit_max_violation", rep.max_violation, INFO))
    return _rows(cfg, "ct-report", metrics)


def run_positivity(cfg: ExperimentConfig) -> list[MetricRow]:
    g = cfg.geometry
    side_exp = g["m"] - g["k"]
    geoms = [make_geometry(g["d"], g["L"], k, k + side_exp) for k in (1, 2, 3)]
    rows = multiscale.positivity_report(geoms, cfg.params)
    metrics = []
    for r in rows:
        metrics.append((f"neg_positivity_c_k{r.k}", -r.c, 0.0))
    cs = [r.c for r in rows]
    metrics.append(("positivity_max_over_min", max(cs) / min(cs), 4.0))
    return _rows(cfg, "positivity", metrics)


SUITES = {
    "spectrum": run_spectrum,
    "rg-verify": run_rg_verify,
    "images-verify": run_images_verify,
    "fourier-verify": run_fourier_verify,
    "strip-bound": run_strip_bound,
    "decay-profile": run_decay_profile,
    "ct-report": run_ct_report,
    "positivity": run_positivity,
}

CSV_HEADER = "experiment,d,L,k,m,a,mu0,metric,value,tolerance,pass"


def _fmt(x: float) -> str:
    """The CSV's number format; it writes ``inf``, ``-inf`` and ``nan`` as such."""
    return f"{x:.12g}"


def write_csv(path: Path, rows: list[MetricRow]):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([r.experiment, str(r.d), str(r.L), str(r.k),
                               str(r.m), _fmt(r.a), _fmt(r.mu0), r.metric,
                               _fmt(r.value), _fmt(r.tolerance),
                               "true" if r.passed else "false"]))
    path.write_text("\n".join(lines) + "\n")


def run(cfg: ExperimentConfig, out_dir: Path, verbose: bool = False) -> int:
    """Execute the configured experiment(s); returns the process exit code."""
    names = list(SUITES) if cfg.experiment == "all" else [cfg.experiment]
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown experiment {name!r} "
                              f"(choices: {', '.join(SUITES)} or 'all')")
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    any_fail = any_refused = any_error = False
    for name in names:
        t0 = time.time()
        try:
            rows = SUITES[name](cfg)
        except GeometryError as exc:
            any_refused = True
            summary[name] = {"status": "config error", "error": str(exc),
                             "wall_time_seconds": time.time() - t0}
            print(f"{name}: config error: {exc}", file=sys.stderr)
            continue
        except Exception as exc:  # noqa: BLE001 - per-suite isolation, exit 3
            any_error = True
            summary[name] = {"status": "error",
                             "error": f"{type(exc).__name__}: {exc}",
                             "wall_time_seconds": time.time() - t0}
            print(f"{name}: ERROR ({type(exc).__name__}: {exc})", file=sys.stderr)
            continue
        wall = time.time() - t0
        write_csv(out_dir / f"{name}.csv", rows)
        failed = [r.metric for r in rows if not r.passed]
        any_fail |= bool(failed)
        summary[name] = {
            "status": "fail" if failed else "pass",
            "metrics": {r.metric: r.value for r in rows},
            "failed": failed,
            "wall_time_seconds": wall,
        }
        if verbose:
            for r in rows:
                print(f"[{name}] {r.metric} = {_fmt(r.value)} "
                      f"(tol {_fmt(r.tolerance)}) "
                      f"{'PASS' if r.passed else 'FAIL'}")
        print(f"{name}: {'FAIL' if failed else 'ok'} "
              f"({len(rows)} metrics, {wall:.2f}s)")
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if any_error:
        return 3
    if any_refused:
        return 2
    return 1 if any_fail else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockrg",
        description="Verification suites for block-spin lattice Green functions")
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--experiment", default=None,
                        help=f"one of: {', '.join(SUITES)}, all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.experiment is not None:
            cfg = ExperimentConfig(**{**cfg.__dict__, "experiment": args.experiment})
        if args.seed is not None:
            _check_seed(args.seed)
            cfg = ExperimentConfig(**{**cfg.__dict__, "seed": args.seed})
        out_dir = Path(args.out) if args.out is not None else Path(cfg.output)
    except (ConfigError, GeometryError, OSError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg, out_dir, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contract: internal errors exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
