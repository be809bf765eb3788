"""Correctness gate for one suite CSV written by ``blockrg.cli``.

A suite run passes when the CLI exited 0 (checked by the caller) and its CSV

- has exactly the metric names of the reference for that suite;
- passes every finite-tolerance row (``value <= tolerance`` and ``pass`` true);
- keeps every informational row (tolerance ``inf``) at its reference value:
  ``|value - ref| <= RTOL * |ref| + ATOL``.  Rows whose value depends on the
  CLI's ``--seed`` (random probe fields) are compared instead with the median
  over seeds 0..15 at relative tolerance ``SEEDED_RTOL``.

The CSVs are never compared byte for byte: last-digit residuals differ
between BLAS thread counts.  ``reference.json`` is written by
``make_reference.py``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12
SEEDED_RTOL = 0.25

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)["suites"]


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check(text: str, suite: str, reference: dict) -> list[str]:
    """Every way the CSV ``text`` of ``suite`` departs from the reference."""
    ref = reference[suite]
    try:
        rows = parse_csv(text)
        values = {r["metric"]: (float(r["value"]), float(r["tolerance"]), r["pass"])
                  for r in rows}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{suite}: unreadable CSV ({exc})"]
    errors = []
    missing = sorted(set(ref["metrics"]) - set(values))
    extra = sorted(set(values) - set(ref["metrics"]))
    if missing or extra or len(rows) != len(ref["metrics"]):
        errors.append(f"{suite}: metric names differ "
                      f"(missing {missing[:3]}, extra {extra[:3]}, {len(rows)} rows)")
    for name, (value, tol, passed) in values.items():
        if math.isinf(tol):
            if name in ref["seeded"]:
                want, rtol, atol = ref["seeded"][name], SEEDED_RTOL, 0.0
            elif name in ref["info"]:
                want, rtol, atol = ref["info"][name], RTOL, ATOL
            else:
                continue   # already reported as an extra name
            if not abs(value - want) <= rtol * abs(want) + atol:
                errors.append(f"{suite}: {name} = {value!r} drifted from "
                              f"reference {want!r}")
        elif not (value <= tol and passed == "true"):
            errors.append(f"{suite}: {name} = {value!r} fails tolerance {tol!r}")
    return errors
