"""Experiment orchestration, configuration, and report persistence.

Each experiment produces a flat list of report rows; a row records what was
measured, the bound it was compared against (when one applies), the Monte
Carlo standard error (when stochastic), the truncation error budget, and the
resulting pass/fail flag, so every verdict is recomputable from the emitted
fields alone.  Under ``config`` each row's parameters hold the experiment's
parameters, defaults included: exactly those its runner reads
(:data:`PARAMETERS`).  Nothing else, such as the output path, the report
format or the Monte Carlo stream layout, enters a report, so its bytes
depend only on the parameters that change its values.

Runners only measure; one report builder per run (:class:`_Report`) turns
their measurements into rows and owns every verdict rule.  A trend row
(monotone decrease along a ladder) records the previous value of its series
as its bound and passes when it is at most that bound plus the declared
monotonicity slack; a final row checks its series' last value against a
tolerance; any other row passes when measured <= bound, or always when it
has no bound, unless its runner states the verdict (the Voronovskaya fitted
rate lies in its slope window).  Declared tolerances are configuration, not
code; their defaults live in :data:`PARAMETERS`.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diffusion import (
    FELLER,
    chain_scaling_moments,
    feller_exact_terminal,
    feller_semigroup_closed_form,
    semigroup_mc,
)
from .errors import ConfigError
from .funcspace import CATALOG, Grid, make_geometric_grid, weight_eval
from .generator import (
    fit_rate,
    generator_apply,
    semigroup_rate_bound,
    voronovskaya_bound,
    voronovskaya_residual,
)
from .iterates import (
    bernstein_kernel,
    build_sm_kernel,
    chain_terminal_values,
    kelisky_rivlin_reference,
    kernel_iterate,
    lattice_cutoff,
)
from .mc import ks_distance, sample_across_workers
from .operators import TruncationPolicy, sm_apply, sm_exponential_closed_form

# The parameters of the weighted series on the geometric grid.
_SERIES = {"alpha": 2.0, "tail_eps": 1e-12, "x_max": 50.0, "grid_points": 300,
           "dense_head": 100}

# experiment -> {parameter: default}: each experiment accepts, stores and
# echoes exactly the parameters its runner reads.
PARAMETERS = {
    "voronovskaya": {
        "n_ladder": (4, 16, 64, 256, 1024), "function_label": "f1", **_SERIES,
        "slope_window": (-0.65, -0.35), "residual_zero_tolerance": 1e-6,
    },
    "semigroup": {
        "n_ladder": (8, 32, 128), "t": 1.0, "function_label": "f1",
        "samples": 100_000, "seed": 42, **_SERIES,
        "x_panel": (0.0, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0),
        "final_tolerance": 0.02, "monotonicity_slack": 0.0,
    },
    "kelisky-rivlin": {
        "n_ladder": (5,), "function_label": "e2", "k_max": 200,
        "final_tolerance": 1e-8, "monotonicity_slack": 1e-12,
    },
    "korovkin": {
        "n_ladder": (1, 10, 100), **_SERIES, "lambdas": (1.0, 2.0, 3.0),
        "agreement_tolerance": 1e-10, "final_tolerance": 0.01,
        "monotonicity_slack": 0.0,
    },
    "weak-convergence": {
        "n_ladder": (10, 50, 250), "t": 1.0, "x": 1.0, "samples": 100_000,
        "seed": 42, "identity_tolerance": 1e-10, "ks_tolerance": 0.02,
        "monotonicity_slack": 0.0,
    },
}

# These experiments draw no random numbers, yet the benchmark passes --seed
# to every experiment, so they accept a seed and drop it: it is neither
# stored nor echoed.  ROADMAP items 12 and 17 retire this exception.
_SEEDLESS = ("voronovskaya", "kelisky-rivlin", "korovkin")


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


# parameter -> (whether a value of its default's type is in range, the range
# in words); the tolerances and the slack take any finite number.
_RANGES = {
    "n_ladder": (lambda v: v and all(n == int(n) >= 1 for n in v) and _increasing(v),
                 "a strictly increasing list of positive integers"),
    "alpha": (lambda v: v >= 1, ">= 1"),
    "t": (lambda v: v >= 0, "nonnegative"),
    "x": (lambda v: v > 0, "positive"),
    "function_label": (lambda v: v in CATALOG, f"a catalog label, one of {sorted(CATALOG)}"),
    "samples": (lambda v: v >= 2, ">= 2"),
    "seed": (lambda v: v >= 0, "nonnegative"),
    "tail_eps": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "x_max": (lambda v: v > 0, "positive"),
    "grid_points": (lambda v: v >= 2, ">= 2"),
    "dense_head": (lambda v: v >= 0, "nonnegative"),
    "x_panel": (lambda v: v and min(v) >= 0 and _increasing(v),
                "nonempty, strictly increasing and nonnegative"),
    "k_max": (lambda v: v >= 1, ">= 1"),
    "lambdas": (lambda v: len(v) == 3 and v[0] > 0 and _increasing(v),
                "three strictly increasing positives"),
    "slope_window": (lambda v: len(v) == 2 and v[0] < v[1], "two numbers lo < hi"),
}

# (experiment, parameter) -> a narrower range than _RANGES gives
_NARROWER = {
    ("kelisky-rivlin", "n_ladder"): (
        lambda v: len(v) == 1,
        "one entry (kelisky-rivlin iterates one fixed n)"),
    ("weak-convergence", "t"): (lambda v: v > 0, "positive for weak-convergence"),
}


class ExperimentConfig:
    """One experiment's parameters: its row of PARAMETERS, each value checked.

    Building a config is checking it, so every config a runner sees is valid.
    """

    def __init__(self, experiment: str, overrides: Optional[dict] = None):
        if experiment not in PARAMETERS:
            raise ConfigError(
                f"unknown experiment {experiment!r}; expected one of {tuple(PARAMETERS)}"
            )
        self.experiment = experiment
        values = dict(PARAMETERS[experiment])
        for key, val in (overrides or {}).items():
            if key == "seed" and experiment in _SEEDLESS:
                continue
            if key not in values:
                raise ConfigError(f"unknown config key {key!r} for {experiment}")
            values[key] = _checked(experiment, key, val)
        self.__dict__.update(values)

    @classmethod
    def for_experiment(cls, experiment: str, overrides: Optional[dict] = None):
        """The experiment's defaults with ``overrides`` applied, each checked."""
        return cls(experiment, overrides)

    def resolved(self) -> dict:
        """The parameter echo embedded in every report row."""
        out = {}
        for key in PARAMETERS[self.experiment]:
            val = getattr(self, key)
            out[key] = list(val) if isinstance(val, tuple) else val
        return out

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(tail_eps=self.tail_eps)

    def grid(self) -> Grid:
        return make_geometric_grid(self.x_max, self.grid_points, self.dense_head)

    def function(self):
        return CATALOG[self.function_label]


_TYPE_NAMES = {
    str: "a string",
    int: "an integer",
    float: "a finite number",
    tuple: "a list of finite numbers",
}


def _has_type(value, kind) -> bool:
    """Whether a config value has the type ``kind`` (see _TYPE_NAMES)."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(
            _has_type(v, float) for v in value)
    if kind is str:
        return isinstance(value, str)
    if isinstance(value, bool):
        return False
    if kind is int:
        return isinstance(value, int)
    return isinstance(value, (int, float)) and math.isfinite(value)


def _checked(experiment, key, value):
    """``value`` for ``key`` once it has the type of the key's default and
    lies in range; lists become tuples and ladder entries ints."""
    kind = type(PARAMETERS[experiment][key])
    if not _has_type(value, kind):
        raise ConfigError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is tuple:
        value = tuple(value)
    for rule in (_RANGES.get(key), _NARROWER.get((experiment, key))):
        if rule and not rule[0](value):
            raise ConfigError(f"{key} must be {rule[1]}, got {value!r}")
    return tuple(int(n) for n in value) if key == "n_ladder" else value


def load_config_file(path: str) -> dict:
    """Read a JSON config file (keys are the experiment's PARAMETERS)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def floor_nt(n: int, t: float) -> int:
    """Integer part of n*t with an epsilon guard against float shortfall.

    Without the guard, representable products like 10 * 0.3 = 2.999...96
    would floor to the wrong step count at integral n*t.
    """
    return int(math.floor(n * t + 1e-9))


@dataclass(frozen=True)
class ReportRow:
    """One measurement with its verdict; see the module docstring."""

    experiment: str
    params: dict
    measured: float
    bound: Optional[float]
    stderr: Optional[float]
    error_budget: Optional[float]
    passed: bool

    def param_json(self) -> str:
        return json.dumps(self.params, sort_keys=True)


class _Report:
    """The rows of one run, built by the verdict rules in the module docstring.

    Every row's params carry the config's parameter echo.  A series is a named
    sequence of trend values, e.g. one per Korovkin rate; ``last`` holds the
    latest value of each.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.echo = config.resolved()
        self.rows = []
        self.last = {}

    def add(self, params, measured, bound=None, stderr=None, error_budget=None,
            passed=None):
        """Append a row; unless ``passed`` is given it passes when measured
        <= bound, or always when there is no bound."""
        if passed is None:
            passed = bound is None or measured <= bound
        self.rows.append(ReportRow(
            self.config.experiment, {**params, "config": self.echo},
            float(measured),
            *(None if v is None else float(v) for v in (bound, stderr, error_budget)),
            bool(passed),
        ))

    def trend(self, series, params, measured, **extra):
        """A row bounded by the previous value of ``series`` plus the slack."""
        prev = self.last.get(series)
        passed = prev is None or measured <= prev + self.config.monotonicity_slack
        self.add(params, measured, bound=prev, passed=passed, **extra)
        self.last[series] = measured

    def final(self, series, params, tolerance):
        """A row checking the last value of ``series`` against ``tolerance``."""
        self.add(params, self.last[series], bound=tolerance)


def run_voronovskaya(config: ExperimentConfig, report: _Report):
    """Measured second-order residual norms against the explicit rate bound.

    Emits one row per ladder entry (measured residual vs bound when the
    function carries a positive Lipschitz constant for f'', else vs the
    polynomial-exactness tolerance) and, when at least three residuals are
    strictly positive, a fitted log-log rate row checked against the
    declared slope window.
    """
    grid = config.grid()
    f = config.function()
    policy = config.policy()
    lip = f.lip_d2
    use_bounds = lip is not None and lip > 0.0 and config.alpha > 1.5

    residuals = []
    for n in config.n_ladder:
        resid = voronovskaya_residual(n, f, config.alpha, grid, policy)
        residuals.append(resid)
        params = {"n": n, "f": f.label, "alpha": config.alpha}
        if use_bounds:
            params.update(check="residual-vs-bound", lip_d2=lip)
            bound = voronovskaya_bound(n, config.alpha, lip)
        elif lip == 0.0:
            # polynomial of degree <= 2: the expansion is exact, so the
            # residual must sit at numerical-noise level
            params["check"] = "polynomial-exactness"
            bound = config.residual_zero_tolerance
        else:
            # no Lipschitz data (or alpha outside the bound's domain):
            # report the residual without a verdict
            params["check"] = "residual-only"
            bound = None
        report.add(params, resid, bound=bound)

    positive = [(n, r) for n, r in zip(config.n_ladder, residuals) if r > 0.0]
    if use_bounds and len(positive) >= 3:
        slope = fit_rate([n for n, _ in positive], [r for _, r in positive])
        lo, hi = config.slope_window
        report.add({"check": "fitted-rate", "f": f.label, "window": [lo, hi]},
                   slope, passed=lo <= slope <= hi)


def _snap_panel(panel, n):
    """Snap panel points to lattice points i/n (dropping duplicates)."""
    idx = sorted({int(round(x * n)) for x in panel})
    return np.array(idx), np.array(idx, dtype=float) / n


def run_semigroup_convergence(config: ExperimentConfig, report: _Report):
    """Iterate-vs-limit-semigroup discrepancy along an n ladder.

    For each n the kernel iterate with floor(n t) steps is compared against
    the limit semigroup at exact time t on the x panel (snapped to lattice
    points), in the weighted sup sense.  The reference is the exponential
    closed form when the test function is one of f1, f2, f3, otherwise an
    exact-sampler Monte Carlo estimate.  Pass requires the discrepancies to
    be non-increasing along the ladder and the final one to meet the
    declared tolerance.
    """
    f = config.function()
    t = config.t
    lam = {"f1": 1.0, "f2": 2.0, "f3": 3.0}.get(config.function_label)
    panel_max = max(config.x_panel)

    # Reported (not asserted) rate bound needs the weighted norm of the
    # generator image and a positive Lipschitz constant; skip otherwise.
    lip = f.lip_d2
    use_bounds = lip is not None and lip > 0 and config.alpha > 1.5
    if use_bounds:
        grid = config.grid()
        af_vals = generator_apply(f, grid.points)
        norm_af = float(np.max(np.abs(weight_eval(config.alpha, grid.points) * af_vals)))

    for pos, n in enumerate(config.n_ladder):
        k = floor_nt(n, t)
        K = lattice_cutoff(n, panel_max, config.tail_eps)
        kernel = build_sm_kernel(
            n, K, config.tail_eps,
            checked_rows=int(math.ceil(n * panel_max)),
        )
        lattice_fn = kernel_iterate(kernel, f, k)
        idx, xs = _snap_panel(config.x_panel, n)
        w = weight_eval(config.alpha, xs)

        stderr = None
        if lam is not None:
            ref = np.array([feller_semigroup_closed_form(lam, float(x), t) for x in xs])
        else:
            ests = [
                semigroup_mc(FELLER, t, float(x), f, config.samples,
                             seed=(config.seed, pos, i))
                for i, x in enumerate(xs)
            ]
            ref = np.array([e.mean for e in ests])
            stderr = max(e.stderr for e in ests)

        disc = float(np.max(w * np.abs(lattice_fn.values[idx] - ref)))
        budget = float(np.max(lattice_fn.error_budget[idx]))

        hb = semigroup_rate_bound(n, t, config.alpha, norm_af, lip) if use_bounds else None
        params = {"check": "iterate-vs-semigroup", "n": n, "k": k,
                  "f": f.label, "t": t, "alpha": config.alpha,
                  "rate_bound_heuristic": hb}
        report.trend("discrepancy", params, disc, stderr=stderr,
                     error_budget=budget)

    report.final("discrepancy", {"check": "final-discrepancy", "n": config.n_ladder[-1],
                                 "f": f.label, "t": t, "alpha": config.alpha},
                 config.final_tolerance)


def run_kelisky_rivlin(config: ExperimentConfig, report: _Report):
    """Fixed-n Bernstein iterates against their linear-interpolant limit.

    Iterates the exact binomial kernel k_max times and reports the sup
    lattice deviation from the chord through (0, f(0)) and (1, f(1)) per
    step; deviations must be non-increasing (within the declared numerical
    slack) for k >= 1 and the final one must meet the tolerance.
    """
    n = config.n_ladder[0]
    f = config.function()
    kernel = bernstein_kernel(n)
    latt = kernel.lattice()
    ref = np.array([kelisky_rivlin_reference(f, float(x)) for x in latt])

    v = np.asarray(f(latt), dtype=float)
    w = np.empty_like(v)
    for k in range(1, config.k_max + 1):
        v, w = kernel.step(v, out=w), v
        report.trend("deviation", {"check": "deviation", "n": n, "k": k, "f": f.label},
                     float(np.max(np.abs(v - ref))))
    report.final("deviation", {"check": "final-deviation", "n": n, "k": config.k_max,
                               "f": f.label}, config.final_tolerance)


def run_korovkin(config: ExperimentConfig, report: _Report):
    """Exponential test family: series-vs-closed-form agreement and norm decay.

    For each rate lambda and ladder entry n, checks that the truncated
    series agrees with the closed form on the whole grid within the declared
    tolerance, and that the weighted norm distance from the operator image
    to the function itself decreases along the ladder, ending below the
    declared tolerance.
    """
    pts = config.grid().points
    policy = config.policy()
    w = weight_eval(config.alpha, pts)
    fns = [lambda u, lam=lam: np.exp(-lam * np.asarray(u, dtype=float))
           for lam in config.lambdas]
    # n, then x, then the rate: the rates at one point share its memoised
    # Poisson window; series[n][i, j] is rate j at point i
    series = {n: np.array([[sm_apply(n, fn, float(x), policy).value for fn in fns]
                           for x in pts])
              for n in config.n_ladder}
    for j, lam in enumerate(config.lambdas):
        exact_vals = np.exp(-lam * pts)
        for n in config.n_ladder:
            closed_vals = sm_exponential_closed_form(n, lam, pts)
            report.add({"check": "series-vs-closed-form", "n": n, "lambda": lam},
                       float(np.max(np.abs(series[n][:, j] - closed_vals))),
                       bound=config.agreement_tolerance)
            report.trend(lam, {"check": "norm-error", "n": n, "lambda": lam,
                               "alpha": config.alpha},
                         float(np.max(w * np.abs(closed_vals - exact_vals))))
        report.final(lam, {"check": "final-norm-error", "n": config.n_ladder[-1],
                           "lambda": lam, "alpha": config.alpha}, config.final_tolerance)


def run_weak_convergence(config: ExperimentConfig, report: _Report):
    """Chain endpoints against exact diffusion draws along an n ladder.

    For each n, draws ``samples`` endpoints of the floor(n t)-step chain from
    x and equally many exact diffusion draws, and reports the two-sample
    Kolmogorov-Smirnov distance and the absolute difference of extinction
    frequencies.  Both sequences must be non-increasing along the ladder and
    the final KS distance must meet the declared tolerance.  The exact
    scaled one-step moment identities are verified at sampled lattice points
    as well.
    """
    x, t = config.x, config.t
    for pos, n in enumerate(config.n_ladder):
        k = floor_nt(n, t)
        chain = sample_across_workers(
            lambda rng, m, n=n, k=k: chain_terminal_values(n, k, x, m, rng),
            config.samples, seed=(config.seed, pos, 0),
        )
        exact = sample_across_workers(
            lambda rng, m: feller_exact_terminal(x, t, m, rng),
            config.samples, seed=(config.seed, pos, 1),
        )
        ks = ks_distance(chain, exact)
        ext = abs(float(np.mean(chain == 0.0)) - float(np.mean(exact == 0.0)))
        params = {"n": n, "k": k, "x": x, "t": t, "samples": config.samples}
        report.trend("ks", {"check": "ks-distance", **params}, ks)
        report.trend("ext", {"check": "extinction-gap", **params}, ext)
        for y in _identity_points(n, x):
            mom = chain_scaling_moments(n, y)
            report.add({"check": "scaling-identities", "n": n, "y": y},
                       max(abs(mom.mean_scaled), abs(mom.var_scaled - y)),
                       bound=config.identity_tolerance)
    report.final("ks", {"check": "final-ks", "n": config.n_ladder[-1], "x": x, "t": t},
                 config.ks_tolerance)


def _identity_points(n, x):
    """Lattice points where the scaled moment identities are spot-checked."""
    pts = {0.0}
    for target in (x, 2.0 * x):
        pts.add(round(target * n) / n)
    return sorted(pts)


_RUNNERS = {
    "voronovskaya": run_voronovskaya,
    "semigroup": run_semigroup_convergence,
    "kelisky-rivlin": run_kelisky_rivlin,
    "korovkin": run_korovkin,
    "weak-convergence": run_weak_convergence,
}


def run_experiment(config: ExperimentConfig) -> tuple:
    """Run the config's experiment and return the rows.

    A runner takes (config, report): it measures and hands each measurement
    to the run's :class:`_Report`, which builds the rows and their verdicts.
    """
    report = _Report(config)
    _RUNNERS[config.experiment](config, report)
    return tuple(report.rows)


CSV_HEADER = ("experiment", "param_json", "measured", "bound", "stderr",
              "error_budget", "pass")


def _fmt(value):
    """17-significant-digit decimal form (round-trips doubles exactly);
    None stays None."""
    return None if value is None else format(float(value), ".17g")


def _cells(r: ReportRow) -> list:
    """A row's cells in CSV_HEADER order; None marks an absent number."""
    return [r.experiment, r.param_json(),
            *map(_fmt, (r.measured, r.bound, r.stderr, r.error_budget)),
            "true" if r.passed else "false"]


def emit_report(rows, path: str, format: str = "csv") -> None:
    """Persist rows as CSV or JSON (identical keys, 17-digit numbers)."""
    if format not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if format == "csv":
            _emit_csv(rows, path)
        else:
            _emit_json(rows, path)
    except OSError as exc:
        raise OSError(f"failed writing report to {path}: {exc}") from exc


def _emit_csv(rows, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(["" if c is None else c for c in _cells(r)])


def _json_cell(cell):
    """A number or pass cell as JSON: null when absent, a JSON string of the
    CSV text when not finite (JSON has no inf or nan), else the text."""
    if cell is None:
        return "null"
    return json.dumps(cell) if cell in ("inf", "-inf", "nan") else cell


def _emit_json(rows, path):
    lines = []
    for r in rows:
        experiment, param_json, *rest = _cells(r)
        cells = [json.dumps(experiment), json.dumps(param_json),
                 *map(_json_cell, rest)]
        lines.append("  {" + ", ".join(
            f'"{key}": {cell}' for key, cell in zip(CSV_HEADER, cells)) + "}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")
