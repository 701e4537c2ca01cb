"""oplimits benchmark driver.

    python3 perfbench/run.py --workload operator-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every pass is a fresh process
(``onepass.py``) with ``PYTHONPATH=src``, so each pass pays the CLI's import
and no cache outlives a pass.  Passes repeat until ``--seconds`` have
elapsed and the run reports medians over them.  With ``--trace 0`` every
pass is untraced and the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result holds the
per-layer metrics.  Summary lines come first; the last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import layers
from spec import END_TO_END, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench_work"
PASS_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # stop starting passes here, whatever --seconds says
MIN_PASSES = 3


class PassError(RuntimeError):
    """A pass process died or wrote no result."""


def nproc():
    return len(os.sched_getaffinity(0))


def pass_env(root):
    """Pinned environment: source tree on the path, fixed stream count,
    BLAS threads capped at the CPUs this process may use."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPLIMITS_WORKERS"] = str(gate.STREAMS)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def l3_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
        return int(out) or None
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def run_pass(args, pass_id, traced, env):
    """One pass; every pass writes its reports to the same paths, because
    the report echoes its own path and passes must agree byte for byte."""
    out = os.path.join(WORKDIR, f"pass-{pass_id}.json")
    cmd = [sys.executable, os.path.join(HERE, "onepass.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--pass-id", str(pass_id),
           "--workdir", WORKDIR, "--out", out]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(out):
        raise PassError(f"pass {pass_id} exited {proc.returncode}:\n{proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(name, values, unit, what):
    q1, med, q3 = quartiles(values)
    return (f"{name} = {med:.6g} {unit}  (median of {len(values)} {what}; "
            f"quartiles {q1:.6g} .. {q3:.6g})")


def main(argv=None):
    parser = argparse.ArgumentParser(description="oplimits benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oplimits", "cli.py")):
        print("perfbench: no src/oplimits here; run from the repository root",
              file=sys.stderr)
        return 2
    began = time.monotonic()
    workdir = os.path.join(root, WORKDIR)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = pass_env(root)
    # compile the package's bytecode and warm the file cache, untimed
    warm = subprocess.run([sys.executable, "-c", "import oplimits.cli"], env=env,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"perfbench: cannot import oplimits.cli:\n{warm.stderr}", file=sys.stderr)
        return 1

    passes = []
    deadline = time.monotonic() + args.seconds
    try:
        while len(passes) < MIN_PASSES or time.monotonic() < deadline:
            if time.monotonic() - began > RUN_LIMIT_S:
                break
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(args, len(passes), traced, env))
            passes[-1]["traced"] = traced
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({msg for p in passes for msg in p["problems"]})
    if len({tuple(p["digests"]) for p in passes}) != 1:
        problems.append("passes produced different outputs (traced and untraced "
                        "passes must be byte-identical)")
    correct = failed == 0 and not problems

    walls = [sum(p["walls"].values()) for p in plain]
    env_record = {
        "workload": args.workload, "seed": args.seed, "nproc": nproc(),
        **passes[0]["versions"], "l3_bytes": l3_bytes(), "streams": gate.STREAMS,
        "blas_threads": nproc(), "passes": len(plain), "traced_passes": len(traced),
    }
    with open(os.path.join(workdir, "env.json"), "w", encoding="utf-8") as fh:
        json.dump(env_record, fh, indent=1)
    print("env: " + json.dumps(env_record))

    lines = [describe("wall_s", walls, "s", "untraced passes"),
             describe("setup_s", [p["setup_s"] for p in plain], "s", "untraced passes"),
             describe("peak_rss_mb", [p["peak_rss_mb"] for p in plain], "MB",
                      "untraced passes")]
    for part in plain[0]["walls"]:
        lines.append(describe(part, [p["walls"][part] for p in plain], "s",
                              "untraced passes"))
    lines.append(f"failed_share = {failed / attempted:.6g} ratio  "
                 f"({failed} of {attempted} operations over {len(passes)} passes)")
    for line in lines:
        print(line)
    for msg in problems:
        print(f"problem: {msg}")

    if args.trace:
        metrics = {}
        for name, unit, _ in layers.PER_LAYER:
            if name == "trace.overhead_s":
                value = (statistics.median(sum(p["walls"].values()) for p in traced)
                         - statistics.median(walls))
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        names, least = WORKLOADS[args.workload][1]
        share = sum(metrics[n]["value"] for n in names)
        print(f"rationale: {' + '.join(names)} = {share:.4f} of trace.wall_s "
              f"{metrics['trace.wall_s']['value']:.4f} s (predicted >= {least}: "
              f"{'holds' if share >= least else 'does not hold'}); "
              f"trace.overhead_s = {metrics['trace.overhead_s']['value']:.4f} s")
    else:
        values = {"wall_s": walls,
                  "setup_s": [p["setup_s"] for p in plain],
                  "peak_rss_mb": [p["peak_rss_mb"] for p in plain]}
        metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
                   for name, unit, _ in END_TO_END}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
