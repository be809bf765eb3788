"""Self-checks of the benchmark's own code, run at the start of every benchmark run.

    python3 perfbench/selfcheck.py        # or: python3 -m pytest perfbench/selfcheck.py

Each ``test_*`` raises ``SelfCheckError`` on failure; ``run_all`` collects
the messages so that a failing check marks the benchmark result incorrect.
"""

from __future__ import annotations

import sys

import gate
import tracing


class SelfCheckError(AssertionError):
    pass


def _expect(ok: bool, message: str):
    if not ok:
        raise SelfCheckError(message)


def test_self_time_of_nested_spans():
    spans = [["root", -1, 0.0, 10.0, None],
             ["a", 0, 1.0, 4.0, None],
             ["b", 0, 5.0, 9.0, None],
             ["c", 2, 6.0, 7.0, None],
             ["d", 2, 6.5, 8.0, None]]   # overlaps c: only the union counts
    got = tracing.self_times(spans)
    _expect(got == [3.0, 3.0, 2.0, 1.0, 1.5], f"self times {got}")
    agg = tracing.aggregate([spans, spans[:2]])
    _expect(agg["a"].calls == 2 and agg["a"].self_s == 6.0, "aggregate over processes")
    _expect(tracing.total_self_s(tracing.aggregate([spans[:4]])) == 10.0,
            "self times of properly nested spans sum to the root span")


def _synthetic_csv(suite: str, ref: dict) -> list[str]:
    """A CSV the gate must accept: reference values, finite rows passing."""
    lines = ["experiment,d,L,k,m,a,mu0,metric,value,tolerance,pass"]
    for name in ref["metrics"]:
        if name in ref["info"] or name in ref["seeded"]:
            value = ref["info"].get(name, ref["seeded"].get(name))
            lines.append(f"{suite},1,3,1,1,1,0,{name},{value!r},inf,true")
        else:
            lines.append(f"{suite},1,3,1,1,1,0,{name},0,1,true")
    return lines


def test_gate_rejects_tampering(reference=None):
    reference = reference or gate.load_reference()
    for suite, ref in reference.items():
        lines = _synthetic_csv(suite, ref)
        _expect(gate.check("\n".join(lines), suite, reference) == [],
                f"{suite}: gate rejects the reference itself")
        _expect(gate.check("\n".join(lines[:-1]), suite, reference) != [],
                f"{suite}: gate accepts a missing metric name")
        finite = [i for i, ln in enumerate(lines[1:], 1) if ln.endswith(",1,true")]
        for i in finite[:1]:
            bad = lines[:i] + [lines[i].replace(",0,1,true", ",2,1,true")] + lines[i + 1:]
            _expect(gate.check("\n".join(bad), suite, reference) != [],
                    f"{suite}: gate accepts a finite row above its tolerance")
        for name, value in list(ref["info"].items())[:1]:
            i = 1 + ref["metrics"].index(name)
            bad = lines[:i] + [lines[i].replace(repr(value), repr(value * 1.01 + 1e-9))] \
                + lines[i + 1:]
            _expect(gate.check("\n".join(bad), suite, reference) != [],
                    f"{suite}: gate accepts a drifted informational row {name}")


def test_configs_load(workloads=None, configs=None):
    from blockrg.cli import load_config
    if workloads is None:
        from run import CONFIGS as configs, WORKLOADS as workloads
    for name, (config, suites, sites) in workloads.items():
        cfg = load_config(str(configs / config))
        _expect(cfg.geom().site_count == sites,
                f"{name}: {cfg.geom().site_count} sites, expected {sites}")
        _expect(all(s in tracing.SUITES for s in suites), f"{name}: unknown suite")


def test_metric_names_match_benchmark(bench=None):
    if bench is None:
        import json
        from run import BENCHMARK
        bench = json.loads(BENCHMARK.read_text())
    empty = ({}, {})
    names = set(tracing.trace_metrics(empty, empty, 1.0, 1.0))
    listed = {m["name"] for m in bench["per_layer"]}
    _expect(names == listed, f"per-layer names differ: {sorted(names ^ listed)[:5]}")


def run_all(workloads, configs, bench) -> list[str]:
    """Messages of every failing self-check (empty when all pass)."""
    checks = [test_self_time_of_nested_spans, test_gate_rejects_tampering,
              lambda: test_configs_load(workloads, configs),
              lambda: test_metric_names_match_benchmark(bench)]
    failures = []
    for check in checks:
        try:
            check()
        except SelfCheckError as exc:
            failures.append(f"self-check: {exc}")
    return failures


if __name__ == "__main__":
    import json
    from run import BENCHMARK, CONFIGS, SRC, WORKLOADS
    sys.path.insert(0, str(SRC))
    found = run_all(WORKLOADS, CONFIGS, json.loads(BENCHMARK.read_text()))
    print("\n".join(found) or "all self-checks pass")
    sys.exit(1 if found else 0)
