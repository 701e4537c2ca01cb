"""The benchmark's workloads, each a list of parts that one pass times in order.

A part's ``run`` is the timed call into the program's public entry points.
Its ``check`` runs after every part of the pass has been timed and returns
(attempted, failed, problems, digest): the operation counts behind
``failed_share``, what went wrong, and a digest of everything the part
produced, which must be identical in every pass of a run, traced or not.
"""

import contextlib
import hashlib
import io
import os
from typing import Callable, NamedTuple

import numpy as np

import oplimits
import oplimits.cli

import gate
from spec import WORKLOADS

# library-calls: scalar series calls at seeded points, per operator and n
SERIES_N = (10, 100, 1000)
SERIES_POINTS = 600
SERIES_X_MAX = 5.0
# |value - closed form| <= rel * |closed form| + abs, per operator; the
# series omit at most tail_eps = 1e-12 of probability mass
SERIES_TOL = {"sm": (0.0, 1e-10), "bernstein": (1e-10, 1e-15), "baskakov": (1e-8, 1e-15)}
# library-calls: Euler Monte Carlo semigroup estimates
EULER_PATHS = 20_000
EULER_DT = 1e-3
EULER_T = 1.0
MC_SIGMAS = 6.0


class Part(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_part(experiment, seed, workdir, expected):
    out = os.path.join(workdir, f"{experiment}.csv")
    argv = [experiment, "--seed", str(seed), "--out", out]

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = oplimits.cli.main(argv)
        return code, stderr.getvalue()

    def check(result):
        code, err = result
        problems = gate.check_invocation(expected[experiment], code, out)
        if problems and err:
            problems.append(err.strip())
        try:
            with open(out, "rb") as fh:
                digest = _digest(b"%d\n" % code + fh.read())
        except OSError:
            digest = _digest(b"%d\n" % code)
        return 1, int(bool(problems)), [f"{experiment}: {p}" for p in problems], digest

    return Part(f"exp_s.{experiment}", run, check)


def _exp_neg(u):
    return np.exp(-np.asarray(u, dtype=float))


def _square(u):
    u = np.asarray(u, dtype=float)
    return u * u


def _identity(u):
    return np.asarray(u, dtype=float)


def _series_part(rng):
    xs = {n: rng.uniform(0.0, SERIES_X_MAX, SERIES_POINTS) for n in SERIES_N}
    us = {n: rng.uniform(0.0, 1.0, SERIES_POINTS) for n in SERIES_N}

    def run():
        out = {}
        for n in SERIES_N:
            out["sm", n] = [oplimits.sm_apply(n, _exp_neg, float(x)).value for x in xs[n]]
            out["bernstein", n] = [oplimits.bernstein_apply(n, _square, float(u))
                                   for u in us[n]]
            out["baskakov", n] = [oplimits.baskakov_apply(n, _square, float(x)).value
                                  for x in xs[n]]
        return out

    def check(out):
        failed, problems = 0, []
        for n in SERIES_N:
            x, u = xs[n], us[n]
            exact = {
                "sm": np.exp(-n * x * -np.expm1(-1.0 / n)),
                "bernstein": u * u + u * (1.0 - u) / n,
                "baskakov": x * x + x * (1.0 + x) / n,
            }
            for op, want in exact.items():
                rel, abs_ = SERIES_TOL[op]
                got = np.asarray(out[op, n])
                bad = np.abs(got - want) > rel * np.abs(want) + abs_
                failed += int(bad.sum())
                if bad.any():
                    problems.append(f"{op}_apply n={n}: {int(bad.sum())} values off "
                                    f"their closed form")
        digest = _digest(repr(sorted(out.items())).encode())
        return 3 * len(SERIES_N) * SERIES_POINTS, failed, problems, digest

    return Part("api_s.series", run, check)


def _euler_part(rng, seed):
    cases = (
        # kind, start, f, closed form of E f(Y_T)
        (oplimits.diffusion.FELLER, rng.uniform(0.5, 1.5), _exp_neg,
         lambda x: np.exp(-x / (1.0 + EULER_T / 2.0))),
        (oplimits.diffusion.WRIGHT_FISHER, rng.uniform(0.3, 0.7), _identity,
         lambda x: x),
    )
    config = oplimits.EulerConfig(dt=EULER_DT)

    def run():
        return [oplimits.semigroup_mc(kind, EULER_T, x, f, EULER_PATHS, seed=(seed, i),
                                      method=oplimits.diffusion.METHOD_EULER,
                                      config=config)
                for i, (kind, x, f, _) in enumerate(cases)]

    def check(estimates):
        problems = [
            f"{kind} Euler mean {est.mean:.6g} is more than {MC_SIGMAS} standard "
            f"errors from {exact(x):.6g}"
            for (kind, x, _, exact), est in zip(cases, estimates)
            if abs(est.mean - exact(x)) > MC_SIGMAS * est.stderr
        ]
        digest = _digest(repr([tuple(est) for est in estimates]).encode())
        return len(cases), len(problems), problems, digest

    return Part("api_s.euler", run, check)


def build(workload, seed, workdir):
    """The parts of one pass of ``workload``; inputs depend only on ``seed``."""
    experiments, _ = WORKLOADS[workload]
    if experiments:
        expected = gate.load_expected()["experiments"]
        return [_cli_part(e, seed, workdir, expected) for e in experiments]
    rng = np.random.default_rng(seed)
    return [_series_part(rng), _euler_part(rng, seed)]
