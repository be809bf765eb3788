"""Run one blockrg configuration in a child process and report it.

    python .github/measure_run.py CONFIG OUT [--want CODE] [--label TEXT]

The child runs ``python -W error::RuntimeWarning -m blockrg.cli --config
CONFIG --out OUT``.  One line reports its exit code, the code wanted, its
wall time and its peak RSS, led by ``TEXT`` if given.  The exit code is 0
when the child's is ``CODE`` (default 0) and 1 otherwise.
"""

import argparse
import resource
import subprocess
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("--want", type=int, default=0, help="expected exit code")
    parser.add_argument("--label", default="", help="text leading the report line")
    args = parser.parse_args()
    start = time.perf_counter()
    status = subprocess.call([sys.executable, "-W", "error::RuntimeWarning", "-m", "blockrg.cli",
                              "--config", args.config, "--out", args.out])
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    label = f"{args.label}: " if args.label else ""
    print(f"{label}exit {status} (want {args.want}), wall {wall:.2f} s, peak RSS {peak_mb:.1f} MB")
    return 0 if status == args.want else 1


if __name__ == "__main__":
    sys.exit(main())
