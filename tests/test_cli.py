import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from blockrg import cli, lattice as lat, multiscale as ms

INF = float("inf")

# tolerance -> metric pattern of every suite's rows at the default config.  The
# acceptance gate takes its tolerances from these rows, so this table pins the
# contracts: a loosened tolerance in blockrg.cli fails here.
CONTRACTS = {
    "spectrum": {1e-10: r"spectrum_max_rel_err_eta_\S+",
                 1e-12: "chebyshev_root_max_err",
                 1e-14: "a_sequence_max_rel_err"},
    "rg-verify": {1e-9: r"rg_step_residual_j\d+|rg_telescope_residual",
                  1e-10: r"c_identity_residual_j\d+",
                  1e-11: r"(de|q|g)_scaling_j\d+|dgc_(delta|c)_j\d+"},
    "images-verify": {INF: "images_(neumann_center|neumann_max|gq_max)_residual",
                      1.0: "images_shell_ratio_max"},
    "fourier-verify": {1e-8: "qkqk_spatial_vs_fourier|contour_shift_relative_change",
                       1e-10: "ghat_roundtrip_residual",
                       1e-12: "bracket_periodicity_residual"},
    "strip-bound": {1e12: r"strip_weighted_sup_k\d",
                    10.0: "strip_sup_variation_across_k",
                    0.0: "strip_denominator_margin_deficit"},
    "decay-profile": {INF: r"profile_mag_at_dist_\S+|fit_(rms_residual|log_prefactor)",
                      0.0: "neg_fit_rate"},
    "ct-report": {0.0: r"ct_q0_bitwise_mismatch|neg_ct_fitted_c1"
                       r"|neg_ct_min_sigma_q_[+-]0(\.0[125])?",
                  1e12: r"ct_bound_norm_q_[+-]0(\.0[125])?",
                  INF: r"ct_fit_max_violation|(ct_bound_norm|neg_ct_min_sigma)_q_[+-]0\.[12]"},
    "positivity": {0.0: r"neg_positivity_c_k\d",
                   4.0: "positivity_max_over_min"},
}


def test_default_config_loads():
    cfg = cli.load_config(None)
    assert cfg.experiment == "all"
    assert cfg.geometry == {"d": 1, "L": 3, "k": 2, "m": 4}
    assert cfg.params.a == 1.0


def test_missing_geometry_field_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, k: 1, m: 2}\n")
    rc = cli.main(["--config", str(p), "--experiment", "spectrum",
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, L: 3, k: 1, m: 2}\nbogus_section: 1\n")
    rc = cli.main(["--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    p2 = tmp_path / "c2.yaml"
    p2.write_text("geometry: {d: 1, L: 3, k: 1, m: 2, extra: 7}\n")
    assert cli.main(["--config", str(p2), "--out", str(tmp_path / "o")]) == 2


def test_unknown_experiment_rejected(tmp_path):
    rc = cli.main(["--experiment", "nope", "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invalid_geometry_is_config_error(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, L: 4, k: 1, m: 2}\n")
    assert cli.main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2
    p.write_text("geometry: {d: 1, L: 3, k: 3, m: 2}\n")
    assert cli.main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("params", ["{mu0: 0.0, c_star: 0.0}", "{mu0: 0.0, c_star: -1.0}",
                                    "{a: .nan}", "{mu0: .inf}"])
def test_invalid_params_is_config_error(tmp_path, params):
    # c_star = 0 at mu0 = 0 used to divide by zero in strip-bound and pass
    p = tmp_path / "c.yaml"
    p.write_text(f"geometry: {{d: 1, L: 3, k: 1, m: 2}}\nparams: {params}\n")
    assert cli.main(["--config", str(p), "--experiment", "strip-bound",
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("block", [
    # fourier and decay are not config keys: any value under them is an unknown key
    "fourier: {M_init: 10}", "fourier: {M_init: 3}", "fourier: {M_init: 9.0}",
    "fourier: {q_max: .inf}", "fourier: {q_max: -0.1}", "fourier: {q_max: x}",
    "images: {shells: 0}", "images: {shells: two}", "images: {shells: 2.5}",
    "decay: {window: [5, 1]}", "decay: {window: [1, .nan]}", "decay: {window: [1]}",
    "decay: {q_grid: []}", "decay: {q_grid: [0.0, .inf]}", "decay: {q_grid: 0.1}",
    "decay: {q_grid: [0.0, 0.01, 0.01, 0.0100001]}", "decay: {q_grid: [0.05, 0.05]}",
    "decay: {q_grid: [0.0, 1, 1.0]}",
    # seeds and geometry fields: integers, not bools; a seed >= 0
    "seed: abc", "seed: -1", "seed: 1.5", "seed: true", "--seed -1",
    "geometry: {d: 1.5, L: 3, k: 1, m: 2}", "geometry: {d: 1, L: 3.0, k: 1, m: 2}",
    "geometry: {d: 1, L: 3, k: true, m: 2}",
    # params: numbers, not bools or numeric strings
    "params: {a: true}", "params: {mu0: '0.1'}", "params: {c_star: yes}"])
def test_invalid_suite_settings_are_config_errors(tmp_path, capsys, block):
    # rejected when the config loads, whichever suite runs; a geometry row
    # replaces the cube below, and a "--" row is a command-line override
    argv = block.split() if block.startswith("--") else []
    text = "" if argv else block
    if not text.startswith("geometry:"):
        text = f"geometry: {{d: 1, L: 3, k: 1, m: 2}}\n{text}"
    p = tmp_path / "c.yaml"
    p.write_text(text + "\n")
    assert cli.main(["--config", str(p), "--experiment", "spectrum",
                     "--out", str(tmp_path / "o"), *argv]) == 2
    block_name = block.partition(":")[0]
    if block_name in ("fourier", "decay"):
        assert f"unknown config key {block_name!r}" in capsys.readouterr().err


def test_ct_weight_overflow_is_named(tmp_path, capsys):
    # the grid's q = 0.2 on a cube of side 2187 needs weights up to exp(218.7),
    # past CT_MAX_EXPONENT: refused by name before G is formed, a
    # configuration error
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, L: 3, k: 1, m: 8}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--config", str(p), "--experiment", "ct-report",
                       "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ct-report: config error: q = 0.2 on a cube of side 2187" in err
    assert "CT_MAX_EXPONENT" in err



@pytest.mark.parametrize("suite", ["images-verify", "decay-profile"])
def test_dense_suite_past_the_cap_is_refused(tmp_path, capsys, suite):
    # n = 531,441 loads, but its dense inverse would hold 8.2 TiB: the suite
    # stops at the dense-work guard before it allocates anything of that size,
    # a configuration error
    import tracemalloc
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 2, L: 3, k: 2, m: 6}\n")
    tracemalloc.start()
    try:
        rc = cli.main(["--config", str(p), "--experiment", suite, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{suite}: config error: a dense inverse on 531441 sites holds 8,417.1 GiB" in err
    assert "DENSE_BYTE_CAP = 4 GiB" in err
    assert "rg-verify, positivity, spectrum, fourier-verify and strip-bound run past" in err
    assert peak < 64 * 2**20 < 531441**2 * 8


@pytest.mark.parametrize("suite", ["decay-profile", "ct-report", "images-verify"])
def test_dense_suite_past_the_byte_cap_is_a_configuration_error(tmp_path, capsys, suite):
    # (3,3,1,3) has 19,683 sites, below the old 100,000-site cap: its dense
    # inverse would hold 11.5 GiB, so each suite that reads G_k is refused by
    # bytes (exit 2) before it allocates anything of that size
    import tracemalloc
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 3, L: 3, k: 1, m: 3}\n")
    out = tmp_path / "o"
    tracemalloc.start()
    try:
        rc = cli.main(["--config", str(p), "--experiment", suite, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert f"{suite}: config error: a dense inverse on 19683 sites holds 11.5 GiB" in \
        capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())[suite]["status"] == "config error"
    assert not list(out.glob("*.csv"))
    assert peak < 64 * 2**20


@pytest.mark.parametrize("config,code,refused", [
    (None, 0, ()),
    ("images_d2_k1", 2, ("decay-profile", "ct-report")),
    ("certify_d1_n243", 0, ()),
])
def test_no_suite_takes_the_dense_operator_algebra(tmp_path, monkeypatch, config, code, refused):
    # a suite takes only the kernel of the one dense G_k, read by index:
    # no CLI path applies, composes, adjoins or builds an averaging map
    from blockrg import operators as ops

    def refuse(*args, **kwargs):
        raise AssertionError("dense operator algebra called")
    for name in ("apply", "compose", "adjoint", "averaging"):
        monkeypatch.setattr(ops, name, refuse)
    path = None if config is None else str(Path(__file__).parents[1] / "perfbench/configs"
                                             / f"{config}.yaml")
    cfg = dataclasses.replace(cli.load_config(path), experiment="all")
    assert cli.run(cfg, tmp_path) == code
    assert sorted(f.name for f in tmp_path.glob("*.csv")) == sorted(
        f"{name}.csv" for name in cli.SUITES if name not in refused)


def test_positivity_family_past_the_cap():
    # the k = 3 member at m = 6 has 531,441 sites; the spectral lambda_min
    # forms no matrix, so the whole k = 1, 2, 3 family runs
    cfg = dataclasses.replace(cli.load_config(None), geometry={"d": 2, "L": 3, "k": 3, "m": 6})
    rows = {r.metric: r for r in cli.SUITES["positivity"](cfg)}
    assert set(rows) == {"neg_positivity_c_k1", "neg_positivity_c_k2", "neg_positivity_c_k3",
                         "positivity_max_over_min"}
    assert all(r.passed for r in rows.values())


def test_perfbench_configs_load():
    paths = sorted(Path(__file__).parents[1].glob("perfbench/configs/*.yaml"))
    assert paths
    for path in paths:
        cli.load_config(str(path))


def test_spectrum_suite_and_csv(tmp_path):
    out = tmp_path / "rep"
    rc = cli.main(["--experiment", "spectrum", "--out", str(out)])
    assert rc == 0
    text = (out / "spectrum.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert all(line.count(",") == 10 for line in lines)
    assert all(line.endswith(("true", "false")) for line in lines[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["spectrum"]["status"] == "pass"
    assert "wall_time_seconds" in summary["spectrum"]


def test_csv_determinism(tmp_path):
    for experiment, n_csv in (("ct-report", 1), ("all", len(cli.SUITES))):
        runs = []
        for side in "ab":
            out = tmp_path / experiment / side
            assert cli.main(["--experiment", experiment, "--out", str(out),
                             "--seed", "7"]) == 0
            runs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert len(runs[0]) == n_csv and runs[0] == runs[1]


def test_write_csv_number_format(tmp_path):
    rows = [cli.MetricRow("x", 1, 3, 1, 2, 1.0, 0.1, name, value, tol)
            for name, value, tol in (("finite", 0.1 + 0.2, 1e-300), ("pos_inf", INF, INF),
                                     ("neg_inf", -INF, 0.0), ("nan", float("nan"), INF))]
    cli.write_csv(tmp_path / "x.csv", rows)
    assert (tmp_path / "x.csv").read_bytes() == (
        b"experiment,d,L,k,m,a,mu0,metric,value,tolerance,pass\n"
        b"x,1,3,1,2,1,0.1,finite,0.3,1e-300,false\n"
        b"x,1,3,1,2,1,0.1,pos_inf,inf,inf,true\n"
        b"x,1,3,1,2,1,0.1,neg_inf,-inf,0,true\n"
        b"x,1,3,1,2,1,0.1,nan,nan,inf,false\n")


@pytest.mark.parametrize("g", [(1, 3, 1, 5), (1, 3, 2, 6)])
def test_shell_ratio_skips_rounding_level_residuals(g):
    # every shell's residual is at rounding level (flat across shells), so
    # the ratio of two of them, about 1.0, says nothing about the tail
    cfg = dataclasses.replace(cli.load_config(None), geometry=dict(zip("dLkm", g)))
    rows = {r.metric: r.value for r in cli.run_images_verify(cfg)}
    assert rows["images_neumann_max_residual"] < 1e-14
    assert rows["images_shell_ratio_max"] == 0.0


def test_contract_tolerances():
    assert set(CONTRACTS) == set(cli.SUITES)
    cfg = cli.load_config(None)
    for name, contract in CONTRACTS.items():
        seen = set()
        for r in cli.SUITES[name](cfg):
            pinned = [tol for tol, pattern in contract.items()
                      if re.fullmatch(pattern, r.metric)]
            assert pinned == [r.tolerance], f"{name}: {r.metric} at {r.tolerance}"
            seen.add(r.tolerance)
        unused = set(contract) - seen
        assert not unused, f"{name}: no rows at tolerances {unused}"


def test_rg_verify_reference(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, L: 3, k: 2, m: 2}\nexperiment: rg-verify\n")
    out = tmp_path / "rep"
    assert cli.main(["--config", str(p), "--out", str(out)]) == 0
    lines = (out / "rg-verify.csv").read_text().strip().split("\n")[1:]
    assert any("rg_telescope_residual" in line for line in lines)
    assert all(line.endswith("true") for line in lines)


def test_decay_profile_rows(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, L: 3, k: 1, m: 3}\n")
    out = tmp_path / "rep"
    assert cli.main(["--config", str(p), "--experiment", "decay-profile",
                     "--out", str(out)]) == 0
    lines = (out / "decay-profile.csv").read_text().strip().split("\n")[1:]
    assert sum("profile_mag_at_dist" in line for line in lines) >= 20
    assert any("neg_fit_rate" in line for line in lines)


def test_decay_profile_sup_rows_at_d2(tmp_path):
    # 729 sites at 315 printed distances: one row per distance, at the largest
    # |G f| over its sites, so summary.json keeps every row
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 2, L: 3, k: 2, m: 3}\n")
    out = tmp_path / "rep"
    assert cli.main(["--config", str(p), "--experiment", "decay-profile",
                     "--out", str(out)]) == 0
    lines = (out / "decay-profile.csv").read_text().strip().split("\n")[1:]
    names = [line.split(",")[7] for line in lines]
    metrics = json.loads((out / "summary.json").read_text())["decay-profile"]["metrics"]
    assert len(set(names)) == len(names) and set(metrics) == set(names)
    g = lat.make_geometry(2, 3, 2, 3)
    column = np.abs(ms.green_neumann(g, cli.load_config(None).params).matrix[:, 0])
    sup = {}
    for dist, mag in zip(np.linalg.norm(lat.positions(g), axis=1), column):
        name = f"profile_mag_at_dist_{dist:.6g}"
        sup[name] = max(mag, sup.get(name, 0.0))
    assert len(sup) == 315
    assert {n: v for n, v in metrics.items() if n.startswith("profile_mag_")} == sup


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_only_drawing_suites_build_a_generator(tmp_path, monkeypatch, suite):
    # fourier-verify and ct-report draw from an operators.Probes seeded from
    # cfg.seed; every other suite runs with no probe source at all
    def refuse(*args, **kwargs):
        raise RuntimeError("a generator was built")
    monkeypatch.setattr(cli.ops, "Probes", refuse)
    cfg = dataclasses.replace(cli.load_config(None), experiment=suite)
    assert cli.run(cfg, tmp_path) == (3 if suite in ("fourier-verify", "ct-report") else 0)


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_no_suite_imports_numpy_random_or_ma(tmp_path, suite):
    # numpy imports numpy.random on its first use (about 10 ms and 5.5 MB a
    # process) and numpy.ma on the first np.median (images._median): a suite
    # in a fresh interpreter loads neither
    script = (f"import sys\nfrom blockrg import cli\n"
              f"code = cli.main(['--experiment', {suite!r}, '--out', {str(tmp_path)!r}])\n"
              f"print(code, [m for m in ('numpy.random', 'numpy.ma') if m in sys.modules])")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.stdout.splitlines()[-1:] == ["0 []"], run.stderr


def test_perfbench_tracer_installs():
    # perfbench/tracing.py wraps library names by getattr: a traced name that
    # leaves the library fails install in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    run = subprocess.run([sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_contours_past_q_star_are_configuration_errors(tmp_path, capsys):
    # at a = 0.001 the analyticity width q* of (1,3,1) lies in (0.0299, 0.0334],
    # below fourier.STRIP_Q_MAX = 0.05: fourier-verify's contour row and
    # strip-bound refuse the config by name (exit 2) before any quadrature,
    # where they once ended in GridConvergenceError and StripViolationError
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, L: 3, k: 1, m: 2}\nparams: {a: 0.001}\n")
    out = tmp_path / "rep"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--config", str(p), "--experiment", "all", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ERROR (" not in err
    summary = json.loads((out / "summary.json").read_text())
    for name in ("fourier-verify", "strip-bound"):
        assert re.search(rf"^{name}: config error: q=0\.05 at or past the analyticity width "
                         r"q\* in \(0\.0299358, 0\.0334048\] at d=1, L=3, k=1$", err, re.M), err
        assert summary[name]["status"] == "config error"


def test_internal_error_isolated(tmp_path, monkeypatch):
    # a suite that raises: exit code 3, summary records it
    def broken(*args):
        raise RuntimeError("broken profile")

    monkeypatch.setattr(cli.decay, "decay_profile", broken)
    p = tmp_path / "c.yaml"
    p.write_text("geometry: {d: 1, L: 3, k: 1, m: 3}\n")
    out = tmp_path / "rep"
    rc = cli.main(["--config", str(p), "--experiment", "decay-profile",
                   "--out", str(out)])
    assert rc == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["decay-profile"] == {"status": "error", "error": "RuntimeError: broken profile",
                                        "wall_time_seconds": summary["decay-profile"]["wall_time_seconds"]}


# the fit window's refusal at d = 2 on one unit box, and ct-report's on any
# cube of one unit box
REFUSALS = {"decay-profile": r"degenerate fit window \(1\.0, [0-9.]+\): 0 points",
            "ct-report": "the box-to-box decay fit needs two distinct box distances, "
                         "and this cube is a single unit box"}


@pytest.mark.parametrize("experiment", ["decay-profile", "ct-report", "all"])
@pytest.mark.parametrize("geometry", ["{d: 2, L: 3, k: 1, m: 1}", "{d: 2, L: 3, k: 2, m: 2}"])
def test_one_box_refusals_are_configuration_errors(tmp_path, capsys, experiment, geometry):
    # refused by name with exit 2, not as a crash (exit 3); under all, every
    # other suite still writes its CSV
    p = tmp_path / "c.yaml"
    p.write_text(f"geometry: {geometry}\n")
    out = tmp_path / "rep"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["--config", str(p), "--experiment", experiment, "--out", str(out)])
    assert rc == 2
    refused = list(REFUSALS) if experiment == "all" else [experiment]
    err = capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    for name in refused:
        assert re.search(f"^{name}: config error: {REFUSALS[name]}$", err, re.M), err
        assert summary[name]["status"] == "config error"
        assert re.fullmatch(REFUSALS[name], summary[name]["error"])
    ran = [name for name in cli.SUITES if name not in refused] if experiment == "all" else []
    assert sorted(f.name for f in out.glob("*.csv")) == sorted(f"{name}.csv" for name in ran)
    assert all(summary[name]["status"] in ("pass", "fail") for name in ran)


SMALL_CUBES = [(d, 3, k, m) for d in (1, 2) for k in range(3)
               for m in range(max(k, 1), min(k + 2, 2 if d == 2 else 4) + 1)]


@pytest.mark.parametrize("d,L,k,m", SMALL_CUBES)
def test_every_small_cube_keeps_the_exit_contract(tmp_path, d, L, k, m):
    # every cube that load_config accepts ends in pass, fail or a refusal by
    # name, never in an internal error: at k = 0 the cube carries no G_k
    p = tmp_path / "c.yaml"
    p.write_text(f"geometry: {{d: {d}, L: {L}, k: {k}, m: {m}}}\n")
    cfg = dataclasses.replace(cli.load_config(str(p)), experiment="all")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.run(cfg, tmp_path / "rep")
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert rc in (0, 1, 2)
    assert [name for name, s in summary.items() if s["status"] == "error"] == []
    if k == 0:
        assert rc == 2
        assert {name for name, s in summary.items() if s["status"] == "config error"} == {
            "rg-verify", "images-verify", "decay-profile", "ct-report"}


def test_merge_strict_nested():
    with pytest.raises(cli.ConfigError):
        cli._merge_strict({"a": {"b": 1}}, {"a": {"c": 2}})
    merged = cli._merge_strict({"a": {"b": 1}, "c": 2}, {"a": {"b": 5}})
    assert merged == {"a": {"b": 5}, "c": 2}
