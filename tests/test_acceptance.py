"""Full-scale acceptance checks.

Each test prints one pass/fail line (visible with ``pytest -rA`` or ``-s``)
and enforces its tolerances and runtime budget.  Stochastic checks run at
fixed seeds with the stream count pinned by conftest, so outcomes are
reproducible.
"""

import itertools
import math
import time

import numpy as np
import pytest

from oplimits import (
    CATALOG,
    build_sm_kernel,
    chain_terminal_values,
    feller_euler_terminal,
    feller_exact_terminal,
    feller_semigroup_closed_form,
    kernel_iterate,
    ks_distance,
    lattice_cutoff,
    m_alpha,
    sm_apply,
    sm_exponential_closed_form,
    sm_moment,
    voronovskaya_residual,
    weight_eval,
    wf_euler_terminal,
)
from oplimits.harness import (
    ExperimentConfig,
    emit_report,
    run_experiment,
)
from oplimits.mc import estimate_from, sample_across_workers
from oplimits.operators import _poisson_weights, TruncationPolicy


def _measured(rows, check):
    """Measured values of the rows for one check, in row order."""
    return [row.measured for row in rows if row.params["check"] == check]


# the experiments' default working grid: dense head on [0, 1], geometric tail to 50
GRID = ExperimentConfig("voronovskaya").grid()


def _report(name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")


def test_korovkin_closed_form_oracle():
    start = time.perf_counter()
    policy = TruncationPolicy(tail_eps=1e-12)
    grid = GRID
    worst = 0.0
    for n, lam in itertools.product((1, 10, 100), (1.0, 2.0, 3.0)):
        f = CATALOG[f"f{int(lam)}"]
        for x in grid.points:
            x = float(x)
            diff = abs(
                sm_apply(n, f, x, policy).value
                - sm_exponential_closed_form(n, lam, x)
            )
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("korovkin closed-form oracle", ok, f"max|series-closed|={worst:.2e} <= 1e-10",
            elapsed, 5.0)
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_poisson_moment_identities():
    start = time.perf_counter()
    pairs = list(itertools.product((1, 3, 10, 31, 100), (0.3, 1.0, 3.7, 9.5)))
    assert len(pairs) == 20
    # deep truncation keeps the quadratic's tail-weighted omission below the
    # identity tolerance even at n = 1
    policy = TruncationPolicy(tail_eps=1e-14)
    worst_id = 0.0
    for n, x in pairs:
        worst_id = max(worst_id, abs(sm_apply(n, CATALOG["e1"], x, policy).value - x))
        worst_id = max(
            worst_id, abs(sm_apply(n, CATALOG["e2"], x, policy).value - (x ** 2 + x / n))
        )
    worst_mom = 0.0
    deep = TruncationPolicy(tail_eps=1e-30)  # k^p amplifies the omitted tail
    for n, x in itertools.product((1, 2, 3, 5), (0.5, 1.0, 2.0, 2.4)):
        lo, w, _, _ = _poisson_weights(n * x, deep)
        k = np.arange(lo, lo + w.size)
        for p in (1, 2):
            brute = float(w @ (k.astype(float) ** p))
            worst_mom = max(worst_mom, abs(sm_moment(n, p, x) - brute))
    elapsed = time.perf_counter() - start
    ok = worst_id <= 1e-9 and worst_mom <= 1e-10 and elapsed < 5.0
    _report("poisson moment identities", ok,
            f"max id err={worst_id:.2e} <= 1e-9, max moment err={worst_mom:.2e} <= 1e-10",
            elapsed, 5.0)
    assert worst_id <= 1e-9
    assert worst_mom <= 1e-10
    assert elapsed < 5.0


@pytest.fixture(scope="module")
def voronovskaya_ladder():
    start = time.perf_counter()
    cfg = ExperimentConfig("voronovskaya")
    rows = run_experiment(cfg)
    return cfg, rows, time.perf_counter() - start


def test_voronovskaya_rate_bound(voronovskaya_ladder):
    cfg, rows, elapsed_ladder = voronovskaya_ladder
    start = time.perf_counter()
    grid = GRID
    m2 = m_alpha(2.0)
    bound_rows = [r for r in rows if r.params["check"] == "residual-vs-bound"]
    bound_ok = all(
        r.measured <= m2 / (6.0 * math.sqrt(r.params["n"])) for r in bound_rows
    )
    poly_worst = 0.0
    for n in (4, 64, 1024):
        poly_worst = max(poly_worst, voronovskaya_residual(n, CATALOG["e2"], 2.0, grid))
        poly_worst = max(poly_worst, voronovskaya_residual(n, CATALOG["e1"], 2.0, grid))
    elapsed = elapsed_ladder + (time.perf_counter() - start)
    ok = bound_ok and poly_worst <= 1e-6 and elapsed < 60.0
    residues = ", ".join(f"{r.measured:.2e}" for r in bound_rows)
    _report("voronovskaya residual bound", ok,
            f"residuals [{residues}] all <= M2/(6 sqrt n), "
            f"quadratic/linear residuals <= {poly_worst:.2e}",
            elapsed, 60.0)
    assert bound_ok
    assert poly_worst <= 1e-6
    assert elapsed < 60.0


def test_voronovskaya_rate_window(voronovskaya_ladder):
    # The declared window [-0.65, -0.35] brackets the sharp O(n^{-1/2}) rate
    # of the class {f'' Lipschitz}: the bound guarantees it, and kink3 =
    # |x - 1|^3 attains it (its f''' jumps at x = 1).  The default f1 =
    # exp(-x) is C^4 and decays at first order instead.  The Poisson central
    # moments E(K/n - x)^3 = x/n^2 and E(K/n - x)^4 = 3x^2/n^2 + x/n^3 give
    #   n (S_n f - f) - (x/2) f'' = (x f'''/6 + x^2 f''''/8) / n + O(n^-2),
    # so n * residual -> c2 = max_grid w_2(x) |(-x/6 + x^2/8) e^{-x}| and the
    # f1 slope sits near -1, outside the window.  The default report's
    # fitted-rate row rightly says FAIL for f1; this test checks each half
    # of the claim on a function for which it holds.
    cfg, rows, elapsed_ladder = voronovskaya_ladder
    lo, hi = cfg.slope_window
    (slope_f1,) = _measured(rows, "fitted-rate")
    pts = GRID.points
    c2 = float(np.max(weight_eval(cfg.alpha, pts)
                      * np.abs((-pts / 6.0 + pts ** 2 / 8.0) * np.exp(-pts))))
    top = [r for r in rows if r.params["check"] == "residual-vs-bound"][-1]
    n_top = top.params["n"]
    # n * residual - c2 = O(1/n), well under 1% of c2 at the top of the ladder
    scaled_top = n_top * top.measured

    start = time.perf_counter()
    witness = run_experiment(
        ExperimentConfig("voronovskaya", {"function_label": "kink3"}))
    elapsed = elapsed_ladder + (time.perf_counter() - start)
    (slope_kink,) = _measured(witness, "fitted-rate")
    failing = [(row.params["check"], row.params.get("n"), row.measured, row.bound)
               for row in witness if not row.passed]

    f1_ok = (slope_f1 <= hi and abs(slope_f1 + 1.0) <= 0.1
             and abs(scaled_top - c2) <= 0.01 * c2)
    kink_ok = not failing and lo <= slope_kink <= hi
    _report("voronovskaya fitted-rate window", f1_ok and kink_ok and elapsed < 60.0,
            f"kink3 slope={slope_kink:.3f} in declared window [{lo}, {hi}]; "
            f"f1 slope={slope_f1:.3f} first order, outside the window, "
            f"n*residual={scaled_top:.5f} vs c2={c2:.5f} at n={n_top}",
            elapsed, 60.0)
    assert slope_f1 <= hi, (
        f"f1 fitted slope {slope_f1:.3f} misses the guaranteed rate (<= {hi})"
    )
    assert abs(slope_f1 + 1.0) <= 0.1, (
        f"f1 fitted slope {slope_f1:.3f} is not first order; a C^4 function "
        f"has residual c2/n + O(n^-2)"
    )
    assert abs(scaled_top - c2) <= 0.01 * c2, (
        f"n*residual={scaled_top:.6f} at n={n_top} is not within 1% of the "
        f"second-order constant c2={c2:.6f}"
    )
    assert not failing, f"kink3 rows failing (check, n, measured, bound): {failing}"
    assert lo <= slope_kink <= hi, (
        f"kink3 fitted slope {slope_kink:.3f} lies outside the declared window "
        f"[{lo}, {hi}]; its f'' is only Lipschitz, so it attains the sharp "
        f"half-order rate"
    )
    assert elapsed < 60.0


def test_semigroup_convergence_ladder():
    start = time.perf_counter()
    cfg = ExperimentConfig("semigroup")
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    measured = _measured(rows, "iterate-vs-semigroup")
    passed = all(r.passed for r in rows)
    decreasing = all(b < a for a, b in zip(measured, measured[1:]))
    ok = passed and decreasing and measured[-1] <= 0.02 and elapsed < 300.0
    discs = ", ".join(f"{d:.5f}" for d in measured)
    _report("iterate-to-semigroup convergence", ok,
            f"discrepancies [{discs}] strictly decreasing, final <= 0.02",
            elapsed, 300.0)
    assert passed
    assert decreasing
    assert measured[-1] <= 0.02
    assert elapsed < 300.0


def test_kelisky_rivlin_limit():
    start = time.perf_counter()
    rows = run_experiment(ExperimentConfig("kelisky-rivlin"))
    elapsed = time.perf_counter() - start
    measured = _measured(rows, "deviation")
    passed = all(r.passed for r in rows)
    ok = passed and measured[-1] <= 1e-8 and elapsed < 1.0
    _report("kelisky-rivlin fixed-n limit", ok,
            f"final deviation={measured[-1]:.2e} <= 1e-8, "
            f"deviations non-increasing",
            elapsed, 1.0)
    assert passed
    assert measured[-1] <= 1e-8
    assert elapsed < 1.0


def test_feller_sampler_validation():
    start = time.perf_counter()
    n_draws = 1_000_000
    failures = []
    for i, (x, t) in enumerate(itertools.product((0.5, 1.0, 2.0), repeat=2)):
        draws = sample_across_workers(
            lambda rng, m: feller_exact_terminal(x, t, m, rng),
            n_draws, seed=(777, i),
        )
        se = draws.std(ddof=1) / math.sqrt(n_draws)
        if abs(draws.mean() - x) > 3 * se:
            failures.append(f"mean at (x={x}, t={t})")
        if abs(draws.var(ddof=1) - x * t) / (x * t) > 0.02:
            failures.append(f"variance at (x={x}, t={t})")
        p0 = math.exp(-2 * x / t)
        ext_se = math.sqrt(p0 * (1 - p0) / n_draws)
        if abs(float(np.mean(draws == 0.0)) - p0) > 3 * ext_se:
            failures.append(f"extinction at (x={x}, t={t})")
        for lam in (1.0, 2.0, 3.0):
            vals = np.exp(-lam * draws)
            tse = vals.std(ddof=1) / math.sqrt(n_draws)
            if abs(vals.mean() - feller_semigroup_closed_form(lam, x, t)) > 3 * tse:
                failures.append(f"transform lam={lam} at (x={x}, t={t})")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report("square-root diffusion exact sampler", ok,
            "mean/variance/extinction/transform at 9 (x,t) pairs, 1e6 draws"
            + ("" if not failures else f"; failures: {failures}"),
            elapsed, 120.0)
    assert not failures
    assert elapsed < 120.0


def test_exact_vs_euler_agreement():
    start = time.perf_counter()
    x, t, size = 1.0, 1.0, 100_000
    exact = sample_across_workers(
        lambda rng, m: feller_exact_terminal(x, t, m, rng),
        size, seed=(811, 0),
    )
    euler = sample_across_workers(
        lambda rng, m: feller_euler_terminal(x, t, 1e-3, m, rng),
        size, seed=(811, 1),
    )
    ks = ks_distance(exact, euler)
    elapsed = time.perf_counter() - start
    ok = ks <= 0.02 and elapsed < 60.0
    _report("exact-vs-euler distributional agreement", ok,
            f"KS distance={ks:.4f} <= 0.02 at 1e5 draws each, dt=1e-3",
            elapsed, 60.0)
    assert ks <= 0.02
    assert elapsed < 60.0


def test_chain_iterate_oracle_equivalence():
    start = time.perf_counter()
    n, k = 5, 5
    x_values = (0.2, 1.0, 2.0)
    K = lattice_cutoff(n, max(x_values), 1e-12)
    kernel = build_sm_kernel(n, K, 1e-12, checked_rows=int(n * max(x_values)))
    lattice_fn = kernel_iterate(kernel, CATALOG["f1"], k)
    failures = []
    details = []
    for x in x_values:
        est = estimate_from(sample_across_workers(
            lambda rng, m, x=x: CATALOG["f1"](chain_terminal_values(n, k, x, m, rng)),
            1_000_000, seed=(901, int(10 * x)),
        ))
        i = round(x * n)
        gap = abs(est.mean - lattice_fn.values[i])
        tol = 3 * est.stderr + lattice_fn.error_budget[i]
        details.append(f"x={x}: |gap|={gap:.2e} <= {tol:.2e}")
        if gap > tol:
            failures.append(x)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    _report("chain-vs-iterate oracle equivalence", ok, "; ".join(details), elapsed, 60.0)
    assert not failures
    assert elapsed < 60.0


def test_weak_convergence_ladder():
    start = time.perf_counter()
    cfg = ExperimentConfig("weak-convergence")
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    measured = _measured(rows, "ks-distance")
    passed = all(r.passed for r in rows)
    ok = passed and measured[-1] <= 0.02 and elapsed < 120.0
    kss = ", ".join(f"{v:.4f}" for v in measured)
    _report("chain-to-diffusion weak convergence", ok,
            f"KS distances [{kss}] non-increasing, final <= 0.02, "
            f"scaling identities exact to 1e-10",
            elapsed, 120.0)
    assert passed
    assert measured[-1] <= 0.02
    assert elapsed < 120.0


def test_wright_fisher_moment():
    start = time.perf_counter()
    draws = sample_across_workers(
        lambda rng, m: wf_euler_terminal(0.5, 1.0, 1e-3, m, rng),
        100_000, seed=(955, 0),
    )
    g = draws * (1.0 - draws)
    se = g.std(ddof=1) / math.sqrt(g.size)
    target = 0.25 * math.exp(-1.0)
    gap = abs(g.mean() - target)
    elapsed = time.perf_counter() - start
    ok = gap <= 4 * se and elapsed < 60.0
    _report("wright-fisher heterozygosity decay", ok,
            f"|E[X(1-X)] - 0.25 e^-1| = {gap:.2e} <= 4 se = {4 * se:.2e}",
            elapsed, 60.0)
    assert gap <= 4 * se
    assert elapsed < 60.0


def test_report_determinism(tmp_path):
    start = time.perf_counter()
    specs = [
        ("kelisky-rivlin", {}),
        ("korovkin", {"n_ladder": (1, 10, 100)}),
        ("weak-convergence", {"n_ladder": (5, 10), "samples": 5_000}),
    ]
    identical = True
    for name, overrides in specs:
        cfg = ExperimentConfig(name, overrides)
        blobs = []
        for run in range(2):
            path = tmp_path / f"{name}-{run}.csv"
            emit_report(run_experiment(cfg), str(path), "csv")
            blobs.append(path.read_bytes())
        identical = identical and blobs[0] == blobs[1]
    elapsed = time.perf_counter() - start
    _report("report determinism", identical,
            "byte-identical CSV across reruns at fixed seed and stream count",
            elapsed, 60.0)
    assert identical
