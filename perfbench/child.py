"""One blockrg CLI invocation in a fresh process, timed from inside.

    python3 perfbench/child.py RECORD 0|1 <blockrg CLI arguments>
    python3 perfbench/child.py RECORD setup CONFIG

The first form runs ``blockrg.cli.main`` on the arguments, as the ``blockrg``
console script does, with tracing off (0) or on (1).  The second form only
imports the CLI and loads and validates CONFIG: a set-up probe.  Either way
RECORD receives a JSON object with

- ``t_config``: ``time.monotonic()`` when the configuration was validated
  (``load_config`` returned); the parent took the same clock before spawning;
- ``t_csv``: ``time.monotonic()`` when the last suite CSV was written;
- ``exit``: the CLI's exit status; ``maxrss_kb``: this process's peak RSS;
- ``blas_threads``, ``python``, ``numpy``, ``blas``: provenance;
- with tracing, ``spans`` and ``counters`` (see ``tracing.py``).

``blockrg`` is imported from ``PYTHONPATH``, which the parent points at the
checkout's ``src``.
"""

from __future__ import annotations

import ctypes
import json
import platform
import resource
import sys
import time


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded into this process, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads()}


def main(argv: list[str]) -> int:
    record_path, mode, rest = argv[0], argv[1], argv[2:]
    import blockrg.cli as cli

    rec: dict = {}
    if mode == "setup":
        cli.load_config(rest[0])
        rec["t_config"] = time.monotonic()
        code = 0
    else:
        tracer = None
        if mode == "1":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        load_config, write_csv = cli.load_config, cli.write_csv

        def stamped_load_config(path):
            cfg = load_config(path)
            rec["t_config"] = time.monotonic()
            return cfg

        def stamped_write_csv(path, rows):
            write_csv(path, rows)
            rec["t_csv"] = time.monotonic()

        cli.load_config, cli.write_csv = stamped_load_config, stamped_write_csv
        try:
            code = cli.main(rest)
        except SystemExit as exc:   # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        if tracer is not None:
            rec["spans"] = tracer.spans
            rec["counters"] = dict(tracer.counters)
    rec["exit"] = code
    rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec.update(provenance())
    with open(record_path, "w") as fh:
        json.dump(rec, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
