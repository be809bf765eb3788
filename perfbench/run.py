#!/usr/bin/env python3
"""The blockrg benchmark: pinned CLI verification workloads, one process per suite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every metric, every workload

Run it from anywhere inside a checkout; ``blockrg`` is imported from the
checkout's ``src``.  The load is a closed loop with one client: each CLI
process starts when the previous one has ended, and every suite runs in a
fresh process, so each run pays the imports and the cold shift-system cache
as a user does.  BLAS threads are pinned to the CPUs this process may use.

``--trace 0`` repeats the workload until ``--seconds`` have passed, then
runs set-up probes, and reports the end-to-end metrics: ``wall_s`` (median
over repetitions of the time from validated config to the last suite CSV,
summed over the workload's suites), ``setup_s`` (median time from spawning
the interpreter to a validated config), ``peak_rss_mb`` (largest peak RSS of
one CLI process) and ``pass_ratio`` (suite runs passing the gate in
``gate.py`` over suite runs attempted).

``--trace 1`` runs the workload three times: untraced, traced and traced
with one BLAS thread, and reports the per-layer metrics of ``tracing.py``.

The last line of standard output is the JSON result; the lines before it
name each metric with its unit and give sample counts and provenance, which
also go to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import selfcheck
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = HERE / "configs"
RUNS = ROOT / ".perfbench_runs"
BENCHMARK = ROOT / "BENCHMARK.json"

# name: (config file, suites in the order they run, site count of the geometry)
WORKLOADS = {
    "rg_d2_n729": ("rg_d2_n729.yaml", ("rg-verify",), 729),
    "images_d2_k1": ("images_d2_k1.yaml", ("images-verify",), 9),
    "fourier_d2_k2": ("fourier_d2_k2.yaml", ("fourier-verify",), 81),
    "certify_d1_n243": ("certify_d1_n243.yaml",
                        ("decay-profile", "ct-report", "positivity"), 243),
}
SETUP_PROBES = 8
TIME_LIMIT_S = 165.0     # a whole run, children included, ends well inside 180 s
COVERAGE_TOL = 0.01      # summed self time vs traced wall time


class Runner:
    """Spawns the child processes of one benchmark run and gates their output."""

    def __init__(self, seed: int, workdir: Path, reference: dict, started: float):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.deadline = started + TIME_LIMIT_S
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.child_provenance: dict = {}

    def spawn(self, threads: int, args: list[str]):
        """Run child.py; returns (spawn time, exit status, record or None, stderr)."""
        self.spawned += 1
        record = self.workdir / f"record{self.spawned}.json"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(record), *args],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            return start, None, None, "timed out"
        rec = json.loads(record.read_text()) if record.exists() else None
        record.unlink(missing_ok=True)
        if rec is not None:
            self.child_provenance = {k: rec[k] for k in
                                     ("python", "numpy", "blas", "blas_threads")}
        return start, proc.returncode, rec, proc.stderr

    def suite(self, workload: str, suite: str, threads: int, trace: bool):
        """One CLI process running one suite; None when it failed to produce a CSV."""
        config = CONFIGS / WORKLOADS[workload][0]
        out = self.workdir / f"out{self.spawned + 1}"
        start, code, rec, stderr = self.spawn(threads, [
            "1" if trace else "0", "--config", str(config),
            "--experiment", suite, "--seed", str(self.seed), "--out", str(out)])
        self.attempted += 1
        csv = out / f"{suite}.csv"
        if code != 0 or rec is None or "t_csv" not in rec or not csv.exists():
            errors = [f"{suite}: exit status {code}: {stderr.strip()[-400:]}"]
        else:
            errors = gate.check(csv.read_text(), suite, self.reference)
        shutil.rmtree(out, ignore_errors=True)
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        if rec is None or "t_csv" not in rec:
            return None
        return {"setup_s": rec["t_config"] - start,
                "wall_s": rec["t_csv"] - rec["t_config"],
                "rss_mb": rec["maxrss_kb"] / 1024.0,
                "blas_threads": rec["blas_threads"],
                "spans": rec.get("spans"), "counters": rec.get("counters", {})}

    def iteration(self, workload: str, threads: int, trace: bool) -> dict:
        """Every suite of the workload once, each in its own process."""
        runs = [self.suite(workload, s, threads, trace) for s in WORKLOADS[workload][1]]
        done = [r for r in runs if r is not None]
        counters: dict = {}
        for r in done:
            for k, v in r["counters"].items():
                counters[k] = counters.get(k, 0) + v
        return {"wall_s": sum(r["wall_s"] for r in done) if len(done) == len(runs) else None,
                "setup_s": [r["setup_s"] for r in done],
                "rss_mb": max((r["rss_mb"] for r in done), default=None),
                "blas_threads": sorted({r["blas_threads"] for r in done}, key=str),
                "spans": [r["spans"] for r in done if r["spans"] is not None],
                "counters": counters}

    def setup_probe(self, workload: str, threads: int) -> float | None:
        start, code, rec, _ = self.spawn(
            threads, ["setup", str(CONFIGS / WORKLOADS[workload][0])])
        return rec["t_config"] - start if code == 0 and rec else None


def default_threads() -> int:
    return len(os.sched_getaffinity(0))


def measure(runner: Runner, workload: str, seconds: int) -> tuple[dict, dict]:
    """Untraced closed loop for ``seconds``, then set-up probes."""
    threads = default_threads()
    started = time.monotonic()
    iterations = []
    while True:
        t0 = time.monotonic()
        iterations.append(runner.iteration(workload, threads, trace=False))
        now = time.monotonic()
        # stop at the time asked for, or when one more repetition and the
        # set-up probes might not fit before the run's deadline
        if now - started >= seconds or now + 2 * (now - t0) > runner.deadline:
            break
    probes = [runner.setup_probe(workload, threads) for _ in range(SETUP_PROBES)]
    walls = [it["wall_s"] for it in iterations if it["wall_s"] is not None]
    setups = [s for it in iterations for s in it["setup_s"]]
    setups += [p for p in probes if p is not None]
    rss = [it["rss_mb"] for it in iterations if it["rss_mb"] is not None]
    metrics = {"wall_s": statistics.median(walls) if walls else 0.0,
               "setup_s": statistics.median(setups) if setups else 0.0,
               "peak_rss_mb": max(rss, default=0.0),
               "pass_ratio": 1.0 - runner.failed / runner.attempted}
    detail = {"wall_s_samples": walls, "wall_s_max": max(walls, default=None),
              "setup_s_samples": setups, "setup_s_max": max(setups, default=None),
              "iterations": len(iterations),
              "blas_threads": sorted({t for it in iterations for t in it["blas_threads"]},
                                     key=str)}
    return metrics, detail


def trace(runner: Runner, workload: str) -> tuple[dict, dict]:
    """Untraced, traced and traced single-thread runs of the workload."""
    threads = default_threads()
    plain = runner.iteration(workload, threads, trace=False)
    traced = runner.iteration(workload, threads, trace=True)
    single = runner.iteration(workload, 1, trace=True)
    if None in (plain["wall_s"], traced["wall_s"], single["wall_s"]):
        runner.errors.append("trace: a run produced no timing")
        return {}, {}
    t = (tracing.aggregate(traced["spans"]), traced["counters"])
    s = (tracing.aggregate(single["spans"]), single["counters"])
    metrics = tracing.trace_metrics(t, s, traced["wall_s"], plain["wall_s"])
    mismatches = tracing.count_mismatches(t, s)
    runner.errors.extend(f"count not exact: {m}" for m in mismatches)
    coverage = metrics["trace.self_coverage"]
    if abs(coverage - 1.0) > COVERAGE_TOL:
        print(f"warning: spans cover {coverage:.4f} of the traced wall time",
              file=sys.stderr)
    detail = {"plain_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "single_wall_s": single["wall_s"], "exact_counts": not mismatches,
              "blas_threads": {"default": traced["blas_threads"],
                               "single": single["blas_threads"]}}
    return metrics, detail


def provenance(workload: str, seed: int, runner: Runner) -> dict:
    config, suites, _ = WORKLOADS[workload]
    digest = hashlib.sha256((CONFIGS / config).read_bytes()
                            + "\n".join(suites).encode()).hexdigest()
    source = hashlib.sha256()
    for path in sorted((SRC / "blockrg").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "source_sha256": source.hexdigest(), "config_sha256": digest,
            "nproc": default_threads(), **runner.child_provenance}


def run_workload(workload: str, seed: int, seconds: int, traced: bool,
                 reference: dict, units: dict, check_failures: list[str]) -> dict:
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        runner = Runner(seed, Path(tmp), reference, time.monotonic())
        metrics, detail = trace(runner, workload) if traced else measure(runner, workload, seconds)
    errors = check_failures + runner.errors
    if set(metrics) != set(units):
        errors.append(f"metric names differ from BENCHMARK.json: "
                      f"{sorted(set(metrics) ^ set(units))[:5]}")
    result = {"correct": not errors, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    info = {"provenance": provenance(workload, seed, runner), "detail": detail,
            "errors": errors, "result": result}
    (RUNS / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(info, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{workload:16s} {name:48s} {m['value']:.6g} {m['unit']}")
    for err in errors:
        print(f"{workload}: FAILED {err}")
    print(json.dumps({k: info[k] for k in ("provenance", "detail")}))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blockrg" / "cli.py").is_file():
        print(f"no blockrg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads(BENCHMARK.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    reference = gate.load_reference()
    check_failures = selfcheck.run_all(WORKLOADS, CONFIGS, bench)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace),
                               reference, units, check_failures) for w in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
