"""Spans around blockrg's public functions, recorded from outside the library.

``install(tracer)`` replaces each traced function by a wrapper that records a
span ``[name, parent, start, end, attrs]``.  ``parent`` is the index of the
enclosing span (-1 at top level), times are ``time.perf_counter()`` seconds
and ``attrs`` holds counts taken at the call (bytes and flops computed from
array shapes, cache keys, quadrature evaluations) plus the time spent in
``numpy.linalg.{cond,inv,svd,eigvalsh}`` while the span was innermost.
Spans stay in memory; the child process writes them out when it ends.

Names a blockrg module imported directly (``from .lattice import
block_sites``) are patched in that module too, by identity of the function
object, so every call site goes through the wrapper.

``layer_metrics`` turns the spans of one or more processes into the
per-layer metrics named in ``BENCHMARK.json``.  Self time is span time minus
the part of it covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SUITES = ("rg-verify", "images-verify", "fourier-verify",
          "decay-profile", "ct-report", "positivity")

ASSEMBLY = ("operators.neumann_laplacian", "operators.averaging",
            "operators.block_projector", "operators.identity",
            "operators.scaling_unitary")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters = defaultdict(int)

    def note(self, key, value):
        """Add ``value`` to ``key`` in the innermost open span's attrs."""
        if self.stack:
            rec = self.spans[self.stack[-1]]
            if rec[4] is None:
                rec[4] = {}
            rec[4][key] = rec[4].get(key, 0) + value

    def wrap(self, name, fn, attrs=None):
        """Span ``name`` around ``fn``; ``attrs(args, result)`` adds counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    for key, value in attrs(args, out).items():
                        self.note(key, value)
            finally:
                stack.pop()
                rec[3] = clock()
            return out
        return traced

    def wrap_linalg(self, key, fn):
        """Time ``fn`` into ``key`` of the calling span, without a span of its own."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.note(key, clock() - t0)
        return timed


def _replace(orig, new):
    """Rebind every blockrg module-level name that refers to ``orig``."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "blockrg":
            continue
        for attr in [k for k, v in vars(mod).items() if v is orig]:
            setattr(mod, attr, new)


def _flops(*mats):
    """Real flops per multiply-add: 2, or 8 when any operand is complex."""
    return 8 if any(m.dtype.kind == "c" for m in mats) else 2


def install(tracer: Tracer):
    import numpy as np
    import blockrg.cli as cli
    from blockrg import decay, fourier, images, lattice, multiscale
    from blockrg import operators as ops

    def key(args, out):
        return {"key:" + repr(args[:3]): 1}

    def invert_attrs(args, out):
        n = out.kernel.shape[0]
        return {"flops": _flops(out.kernel) * n**3}

    def compose_attrs(args, out):
        A, B = args[0].kernel, args[1].kernel
        return {"flops": _flops(A, B) * A.shape[0] * A.shape[1] * B.shape[1]}

    def shift_attrs(args, out):
        return {"bytes": out.Mmat.nbytes + out.Minv.nbytes}

    def csv_attrs(args, out):
        return {"bytes": args[0].stat().st_size}

    traced = [
        (ops, "invert", invert_attrs), (ops, "compose", compose_attrs),
        (ops, "apply", None), (ops, "min_eigenvalue", None),
        *((ops, n.partition(".")[2], None) for n in ASSEMBLY),
        (multiscale, "green_j", key), (multiscale, "rg_operators", key),
        (lattice, "block_sites", None), (lattice, "image_points", None),
        (decay, "ct_bound_report", None), (decay, "conjugated_operator", None),
        (decay, "decay_profile", None), (decay, "fit_decay", None),
        (fourier, "build_shift_system", shift_attrs),
        (fourier, "free_kernel_g", None), (fourier, "free_kernel_gq", None),
        (fourier, "free_apply_ghat", None), (fourier, "free_symbol_apply", None),
        (fourier, "patch_fourier_samples", None),
        (fourier, "patch_inverse_fourier", None),
        (images, "images_residual_report", None),
        (cli, "write_csv", csv_attrs),
    ]
    for mod, fname, attrs in traced:
        orig = getattr(mod, fname)
        short = mod.__name__.rpartition(".")[2]
        _replace(orig, tracer.wrap(f"{short}.{fname}", orig, attrs))

    orig_converge = fourier.converge_kernel

    def converge_kernel(evaluate, grid, *args, **kwargs):
        evaluations = 0

        def counted(g):
            nonlocal evaluations
            evaluations += 1
            return evaluate(g)
        try:
            out = orig_converge(counted, grid, *args, **kwargs)
        finally:
            tracer.note("evaluations", evaluations)
        tracer.note("accepted", 1)
        tracer.note("M_max", out[1].M)
        return out
    _replace(orig_converge,
             tracer.wrap("fourier.converge_kernel", converge_kernel))

    for suite, fn in list(cli.SUITES.items()):
        cli.SUITES[suite] = tracer.wrap(f"cli.suite.{suite}", fn)

    kop = ops.KernelOperator
    kop.matrix = property(tracer.wrap(
        "operators.matrix", kop.matrix.fget,
        lambda args, out: {"bytes": out.nbytes}))
    post_init = kop.__post_init__

    def counted_post_init(self):
        post_init(self)
        tracer.counters["operators.kernel.bytes_computed"] += self.kernel.nbytes
    kop.__post_init__ = counted_post_init

    for fname in ("cond", "inv", "svd", "eigvalsh"):
        setattr(np.linalg, fname,
                tracer.wrap_linalg(f"{fname}_s", getattr(np.linalg, fname)))


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process, on spans read back from children)
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for rec in spans:
        if rec[1] >= 0:
            children[rec[1]].append((rec[2], rec[3]))
    out = []
    for i, rec in enumerate(spans):
        covered, reach = 0.0, rec[2]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(rec[3] - rec[2] - covered)
    return out


class Aggregate:
    """Per span name: calls, total and self seconds, summed numeric attrs, keys."""

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.attrs = defaultdict(float)
        self.keys = set()


def aggregate(processes) -> dict[str, Aggregate]:
    """Combine the span lists of several processes into per-name aggregates."""
    agg = defaultdict(Aggregate)
    for spans in processes:
        for rec, self_s in zip(spans, self_times(spans)):
            a = agg[rec[0]]
            a.calls += 1
            a.total_s += rec[3] - rec[2]
            a.self_s += self_s
            for k, v in (rec[4] or {}).items():
                if k.startswith("key:"):
                    a.keys.add(k)
                elif k == "M_max":
                    a.attrs[k] = max(a.attrs[k], v)
                else:
                    a.attrs[k] += v
    return agg


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg: dict[str, Aggregate], counters: dict) -> dict[str, float]:
    """Every per-layer metric derivable from one traced run's spans."""
    def get(name):
        return agg.get(name, Aggregate())

    def self_s(*names):
        return sum(get(n).self_s for n in names)

    m = {}
    inv = get("operators.invert")
    m["operators.invert.calls"] = inv.calls
    m["operators.invert.self_s"] = inv.self_s
    m["operators.invert.cond_s"] = inv.attrs["cond_s"]
    m["operators.invert.lu_s"] = inv.attrs["inv_s"]
    m["operators.invert.flops_computed"] = int(inv.attrs["flops"])
    for name in ("multiscale.green_j", "multiscale.rg_operators"):
        a = get(name)
        m[f"{name}.calls"] = a.calls
        m[f"{name}.distinct"] = len(a.keys)
    m["multiscale.green_j.reuse_ratio"] = _ratio(len(get("multiscale.green_j").keys),
                                                 get("multiscale.green_j").calls)
    m["multiscale.rg_operators.self_s"] = self_s("multiscale.rg_operators")
    comp = get("operators.compose")
    m["operators.compose.calls"] = comp.calls
    m["operators.compose.self_s"] = comp.self_s
    m["operators.compose.flops_computed"] = int(comp.attrs["flops"])
    m["operators.kernel.bytes_computed"] = int(counters.get("operators.kernel.bytes_computed", 0))
    m["operators.assembly.self_s"] = self_s(*ASSEMBLY)
    for name in ("operators.apply", "lattice.block_sites", "lattice.image_points",
                 "images.images_residual_report", "fourier.free_kernel_g",
                 "fourier.free_kernel_gq"):
        m[f"{name}.calls"] = get(name).calls
        m[f"{name}.self_s"] = get(name).self_s
    mat = get("operators.matrix")
    m["operators.matrix.calls"] = mat.calls
    m["operators.matrix.bytes_computed"] = int(mat.attrs["bytes"])
    ct = get("decay.ct_bound_report")
    m["decay.ct_bound_report.self_s"] = ct.self_s
    m["decay.ct_bound_report.svd_s"] = ct.attrs["svd_s"]
    eig = get("operators.min_eigenvalue")
    m["operators.min_eigenvalue.calls"] = eig.calls
    m["operators.min_eigenvalue.self_s"] = eig.self_s
    m["operators.min_eigenvalue.eigvalsh_s"] = eig.attrs["eigvalsh_s"]
    for fname in ("conjugated_operator", "decay_profile", "fit_decay"):
        m[f"decay.{fname}.self_s"] = self_s(f"decay.{fname}")
    bss = get("fourier.build_shift_system")
    m["fourier.build_shift_system.calls"] = bss.calls
    m["fourier.build_shift_system.self_s"] = bss.self_s
    m["fourier.build_shift_system.inv_s"] = bss.attrs["inv_s"]
    m["fourier.build_shift_system.bytes_computed"] = int(bss.attrs["bytes"])
    ck = get("fourier.converge_kernel")
    m["fourier.converge_kernel.calls"] = ck.calls
    m["fourier.converge_kernel.evaluations"] = int(ck.attrs["evaluations"])
    m["fourier.converge_kernel.final_M_max"] = int(ck.attrs["M_max"])
    m["fourier.converge_kernel.useful_ratio"] = _ratio(ck.attrs["accepted"],
                                                       ck.attrs["evaluations"])
    lookups = sum(get(f"fourier.{n}").calls for n in (
        "free_kernel_g", "free_kernel_gq", "free_apply_ghat", "free_symbol_apply"))
    m["fourier.system_cache.hit_ratio"] = (1.0 - bss.calls / lookups) if lookups else 0.0
    m["fourier.patch_transform.self_s"] = self_s("fourier.patch_fourier_samples",
                                                 "fourier.patch_inverse_fourier")
    m["fourier.free_apply.self_s"] = self_s("fourier.free_apply_ghat",
                                            "fourier.free_symbol_apply")
    for suite in SUITES:
        m[f"cli.suite.{suite}.wall_s"] = get(f"cli.suite.{suite}").total_s
    m["cli.write_csv.self_s"] = self_s("cli.write_csv")
    m["cli.write_csv.bytes"] = int(get("cli.write_csv").attrs["bytes"])
    return m


def total_self_s(agg: dict[str, Aggregate]) -> float:
    return sum(a.self_s for a in agg.values())


def is_exact_count(name: str) -> bool:
    """Metrics that must repeat bit-for-bit across runs of one commit."""
    quantity = name.rpartition(".")[2]
    return quantity in ("calls", "distinct", "evaluations") or quantity.endswith("_computed")


def trace_metrics(traced, single, traced_wall_s, plain_wall_s) -> dict[str, float]:
    """All per-layer metrics of a trace-mode run.

    ``traced`` and ``single`` are ``(aggregates, counters)`` of the traced run
    at the default BLAS thread count and at one thread.  Times of the
    single-thread run appear again under the prefix ``blas1.``.
    """
    m = layer_metrics(*traced)
    m1 = layer_metrics(*single)
    m.update({f"blas1.{k}": v for k, v in m1.items() if k.endswith("_s")})
    m["trace.overhead_ratio"] = _ratio(traced_wall_s, plain_wall_s)
    m["trace.self_coverage"] = _ratio(total_self_s(traced[0]), traced_wall_s)
    return m


def count_mismatches(traced, single) -> list[str]:
    """Exact counts that differ between the two traced runs of one commit."""
    m, m1 = layer_metrics(*traced), layer_metrics(*single)
    return [f"{k}: {m[k]} at default threads, {m1[k]} at one thread"
            for k in m if is_exact_count(k) and m[k] != m1[k]]
