"""One pass of a workload, in a fresh process.

Times the import of ``oplimits.cli`` (set-up), then each part of the
workload, optionally under the span tracer; then gates the outputs and
writes one JSON result.  Benchmark modules that import numpy are loaded
only after the timed import, so set-up includes numpy and scipy.

    PYTHONPATH=src python3 perfbench/onepass.py --workload kernel-ladder \\
        --seed 1 --trace 0 --workdir .perfbench_work --out p0.json
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import oplimits.cli  # noqa: F401  (the timed set-up)
    setup_s = time.perf_counter() - start

    import numpy
    import scipy

    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    parts = workloads.build(args.workload, args.seed, args.workdir)
    results, walls = [], {}
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer, installed

        tracer = Tracer(pass_id=args.pass_id, notes=layers.NOTES)
        context = installed(tracer)
    else:
        context = contextlib.nullcontext()
    with context:
        for part in parts:
            t0 = time.perf_counter()
            try:
                results.append((part.run(), None))
            except Exception as exc:  # a failing call is a failed operation
                results.append((None, f"{part.name}: {type(exc).__name__}: {exc}"))
            walls[part.name] = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    problems, digests = [], []
    for part, (result, error) in zip(parts, results):
        if error is None:
            a, f, p, d = part.check(result)
        else:
            a, f, p, d = 1, 1, [error], None
        attempted += a
        failed += f
        problems += p
        digests.append(d)

    out = {
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        out["layers"] = _layer_metrics(tracer, sum(walls.values()))
        spans_path = os.path.join(args.workdir, f"spans-{args.pass_id}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([span.as_dict() for span in tracer.spans], fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _layer_metrics(tracer, wall_s):
    """Per-layer metrics; the program calls below run with tracing off."""
    import layers
    from oplimits import mc, operators

    terms = {}

    def terms_of(n, x, tail_eps):
        key = (n, x, tail_eps)
        if key not in terms:
            policy = (operators.DEFAULT_POLICY if tail_eps is None
                      else operators.TruncationPolicy(tail_eps=tail_eps))
            terms[key] = operators.truncation_index(n, x, policy) + 1
        return terms[key]

    return layers.layer_metrics(tracer.spans, wall_s, terms_of, mc.resolve_workers)


if __name__ == "__main__":
    sys.exit(main())
