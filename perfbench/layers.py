"""Per-layer metrics of the oplimits package, derived from traced spans.

Times are reported as shares of the traced pass wall (``trace.wall_s``), and
per-operation costs as rates, so that a layer a workload never calls reads
an exact 0 that is neither a time nor a division by zero.  Sizes come from
the notes the tracer records at each call; ``bytes_computed`` is derived
from array sizes (computed, not measured: cache misses are ignored).
"""

import math
import os
from collections import defaultdict

from tracer import LAYERS, self_times


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _sm_apply(args, kwargs, result):
    policy = _arg(args, kwargs, 3, "policy")
    return {"n": _arg(args, kwargs, 0, "n"), "x": _arg(args, kwargs, 2, "x"),
            "tail_eps": None if policy is None else policy.tail_eps}


def _kernel_iterate(args, kwargs, result):
    m = _arg(args, kwargs, 0, "kernel").matrix
    steps = _arg(args, kwargs, 2, "k")
    # per step: one CSR matvec for the values and one for the mass, each
    # reading data, indices, indptr and the input vector, writing the output
    per_matvec = (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                  + 2 * 8 * m.shape[0])
    return {"steps": steps, "nnz": m.nnz, "bytes": 2 * steps * per_matvec}


def _euler(args, kwargs, result):
    T = _arg(args, kwargs, 1, "T")
    dt = _arg(args, kwargs, 2, "dt")
    return {"path_steps": _arg(args, kwargs, 3, "size") * math.ceil(T / dt - 1e-9)}


def _emit_report(args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    return {"rows": len(_arg(args, kwargs, 0, "rows")), "bytes": os.path.getsize(path)}


NOTES = {
    "operators.sm_apply": _sm_apply,
    "iterates.build_sm_kernel": lambda a, k, r: {"K": _arg(a, k, 1, "K"),
                                                 "nnz": r.matrix.nnz},
    "iterates.kernel_iterate": _kernel_iterate,
    "iterates.chain_terminal_values": lambda a, k, r: {
        "sample_steps": _arg(a, k, 1, "k") * _arg(a, k, 3, "size")},
    "diffusion.feller_exact_terminal": lambda a, k, r: {"draws": _arg(a, k, 2, "size")},
    "diffusion.feller_euler_terminal": _euler,
    "diffusion.wf_euler_terminal": _euler,
    "mc.sample_across_workers": lambda a, k, r: {"workers": _arg(a, k, 3, "workers")},
    "mc.ks_distance": lambda a, k, r: {"points": len(_arg(a, k, 0, "a"))
                                       + len(_arg(a, k, 1, "b"))},
    "harness.emit_report": _emit_report,
}

_RUNNER_NAMES = ("run_voronovskaya", "run_semigroup_convergence",
                 "run_kelisky_rivlin", "run_korovkin", "run_weak_convergence")

# (name, unit, better); every traced pass reports each of these.
PER_LAYER = (
    [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS]
    + [
        ("operators.sm_apply.calls", "count", "lower"),
        ("operators.sm_apply.self_share", "ratio", "lower"),
        ("operators.sm_apply.calls_per_s", "1/s", "higher"),
        ("operators.sm_apply.terms", "count", "lower"),
        ("operators.bernstein_apply.calls", "count", "lower"),
        ("operators.bernstein_apply.self_share", "ratio", "lower"),
        ("operators.baskakov_apply.calls", "count", "lower"),
        ("operators.baskakov_apply.self_share", "ratio", "lower"),
        ("operators.sm_exponential_closed_form.calls", "count", "lower"),
        ("operators.sm_exponential_closed_form.self_share", "ratio", "lower"),
        ("funcspace.weight_eval.calls", "count", "lower"),
        ("funcspace.weight_eval.self_share", "ratio", "lower"),
        ("generator.voronovskaya_residual.self_share", "ratio", "lower"),
        ("generator.generator_apply.calls", "count", "lower"),
        ("generator.generator_apply.self_share", "ratio", "lower"),
        ("iterates.build_sm_kernel.self_share", "ratio", "lower"),
        ("iterates.build_sm_kernel.K", "count", "lower"),
        ("iterates.build_sm_kernel.nnz", "count", "lower"),
        ("iterates.kernel_iterate.self_share", "ratio", "lower"),
        ("iterates.kernel_iterate.steps", "count", "lower"),
        ("iterates.kernel_iterate.nnz_steps_per_s", "1/s", "higher"),
        ("iterates.kernel_iterate.bytes_computed", "B", "lower"),
        ("iterates.chain_terminal_values.self_share", "ratio", "lower"),
        ("iterates.chain_terminal_values.sample_steps", "count", "lower"),
        ("iterates.chain_terminal_values.sample_steps_per_s", "1/s", "higher"),
        ("diffusion.feller_exact_terminal.self_share", "ratio", "lower"),
        ("diffusion.feller_exact_terminal.draws", "count", "lower"),
        ("diffusion.feller_exact_terminal.draws_per_s", "1/s", "higher"),
        ("diffusion.feller_euler_terminal.self_share", "ratio", "lower"),
        ("diffusion.feller_euler_terminal.path_steps_per_s", "1/s", "higher"),
        ("diffusion.wf_euler_terminal.self_share", "ratio", "lower"),
        ("diffusion.wf_euler_terminal.path_steps_per_s", "1/s", "higher"),
        ("mc.sample_across_workers.calls", "count", "lower"),
        ("mc.sample_across_workers.streams", "count", "lower"),
        ("mc.sample_across_workers.wall_share", "ratio", "lower"),
        ("mc.sample_across_workers.overlap", "ratio", "higher"),
        ("mc.ks_distance.self_share", "ratio", "lower"),
        ("mc.ks_distance.points", "count", "lower"),
    ]
    + [(f"harness.{fn}.self_share", "ratio", "lower") for fn in _RUNNER_NAMES]
    + [
        ("harness.emit_report.self_share", "ratio", "lower"),
        ("harness.emit_report.rows", "count", "lower"),
        ("harness.emit_report.bytes", "B", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans, wall_s, terms_of, streams_of):
    """Per-layer metrics of one traced pass whose workload calls took ``wall_s``.

    ``terms_of(n, x, tail_eps)`` gives the series length of one sm_apply
    call and ``streams_of(workers)`` the stream count of one
    sample_across_workers call; both run after tracing has stopped.
    ``trace.overhead_s`` needs an untraced wall and is left to the caller.
    """
    self_s = self_times(spans)
    calls = defaultdict(int)
    own = defaultdict(float)
    dur = defaultdict(float)
    notes = defaultdict(list)
    child_time = 0.0
    for span, s in zip(spans, self_s):
        calls[span.name] += 1
        own[span.name] += s
        dur[span.name] += span.end - span.start
        if span.note is not None:
            notes[span.name].append(span.note)
        if span.parent is not None and spans[span.parent].name == "mc.sample_across_workers":
            child_time += span.end - span.start

    def share(seconds):
        return seconds / wall_s

    def total(name, key):
        return sum(note[key] for note in notes[name])

    m = {f"{layer}.self_share": share(sum(v for k, v in own.items()
                                         if k.split(".")[0] == layer))
         for layer in LAYERS}
    for name, _, _ in PER_LAYER:
        function, _, metric = name.rpartition(".")
        if metric == "calls":
            m[name] = calls[function]
        elif metric == "self_share" and function not in LAYERS:
            m[name] = share(own[function])

    sm = "operators.sm_apply"
    m[f"{sm}.calls_per_s"] = _rate(calls[sm], own[sm])
    m[f"{sm}.terms"] = sum(terms_of(n["n"], n["x"], n["tail_eps"]) for n in notes[sm])

    bk = "iterates.build_sm_kernel"
    m[f"{bk}.K"] = max((n["K"] for n in notes[bk]), default=0)
    m[f"{bk}.nnz"] = total(bk, "nnz")

    ki = "iterates.kernel_iterate"
    m[f"{ki}.steps"] = total(ki, "steps")
    m[f"{ki}.nnz_steps_per_s"] = _rate(
        sum(n["nnz"] * n["steps"] for n in notes[ki]), own[ki])
    m[f"{ki}.bytes_computed"] = total(ki, "bytes")

    ch = "iterates.chain_terminal_values"
    m[f"{ch}.sample_steps"] = total(ch, "sample_steps")
    m[f"{ch}.sample_steps_per_s"] = _rate(m[f"{ch}.sample_steps"], own[ch])

    ex = "diffusion.feller_exact_terminal"
    m[f"{ex}.draws"] = total(ex, "draws")
    m[f"{ex}.draws_per_s"] = _rate(m[f"{ex}.draws"], own[ex])
    for eu in ("diffusion.feller_euler_terminal", "diffusion.wf_euler_terminal"):
        m[f"{eu}.path_steps_per_s"] = _rate(total(eu, "path_steps"), own[eu])

    sa = "mc.sample_across_workers"
    m[f"{sa}.streams"] = max((streams_of(n["workers"]) for n in notes[sa]), default=0)
    m[f"{sa}.wall_share"] = share(dur[sa])
    m[f"{sa}.overlap"] = child_time / dur[sa] if dur[sa] > 0 else 0.0

    ks = "mc.ks_distance"
    m[f"{ks}.points"] = total(ks, "points")

    er = "harness.emit_report"
    m[f"{er}.rows"] = total(er, "rows")
    m[f"{er}.bytes"] = total(er, "bytes")

    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    return m
