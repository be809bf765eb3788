"""Write ``reference.json``: what the correctness gate compares suite CSVs against.

    python3 perfbench/make_reference.py

Runs every suite of every workload through the CLI at seeds 0 and 1, and
records per suite its metric names and the values of its informational rows
(tolerance ``inf``).  A finite-tolerance row that fails stops the script: a
reference is only taken from a commit whose contracts pass.  Informational
rows that differ between the two seeds beyond the gate's tolerance are
seed-dependent; their suites also run at seeds 2..15 and the reference is the
median over the 16 seeds.  Run it only when a change is meant to move these
values, and say so in the change.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

import gate
import run

SEEDS_FOR_SEEDED_ROWS = 16


def suite_rows(runner: run.Runner, workload: str, suite: str,
               seed: int) -> tuple[list[str], dict]:
    """Metric names and informational values of one CLI run of ``suite``."""
    out = runner.workdir / f"{suite}-{seed}"
    _, code, _, stderr = runner.spawn(run.default_threads(), [
        "0", "--config", str(run.CONFIGS / run.WORKLOADS[workload][0]),
        "--experiment", suite, "--seed", str(seed), "--out", str(out)])
    if code != 0:
        sys.exit(f"{suite} at seed {seed} exited {code}:\n{stderr}")
    rows = gate.parse_csv((out / f"{suite}.csv").read_text())
    failing = [r["metric"] for r in rows if r["pass"] != "true"]
    if failing:
        sys.exit(f"{suite} at seed {seed} fails {failing}")
    return ([r["metric"] for r in rows],
            {r["metric"]: float(r["value"]) for r in rows
             if math.isinf(float(r["tolerance"]))})


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    suites = {}
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        runner = run.Runner(0, Path(tmp), {}, time.monotonic() + 1e6)   # no time limit
        for workload, (_, names, _) in run.WORKLOADS.items():
            for suite in names:
                metrics, first = suite_rows(runner, workload, suite, 0)
                again, second = suite_rows(runner, workload, suite, 1)
                if again != metrics:
                    sys.exit(f"{suite}: metric names depend on the seed")
                seeded = [k for k, v in first.items()
                          if not abs(second[k] - v) <= gate.RTOL * abs(v) + gate.ATOL]
                samples = {k: [first[k], second[k]] for k in seeded}
                for seed in range(2, SEEDS_FOR_SEEDED_ROWS if seeded else 2):
                    _, rows = suite_rows(runner, workload, suite, seed)
                    for k in seeded:
                        samples[k].append(rows[k])
                suites[suite] = {
                    "metrics": metrics,
                    "info": {k: v for k, v in first.items() if k not in seeded},
                    "seeded": {k: statistics.median(v) for k, v in samples.items()},
                }
                print(f"{suite}: {len(metrics)} metrics, "
                      f"{len(first)} informational, seed-dependent {seeded}")
    prov = run.provenance(next(iter(run.WORKLOADS)), 0, runner)
    doc = {"provenance": {k: prov[k] for k in
                          ("git_sha", "source_sha256", "python", "numpy", "blas",
                           "blas_threads", "nproc")},
           "suites": suites}
    gate.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
