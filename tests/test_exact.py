"""The series and its reports against exact Decimal references (``exact.py``)."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

import exact
from oplimits import sm_apply_grid, sm_exponential_closed_form
from oplimits.harness import ExperimentConfig, run_experiment
from oplimits.operators import DEFAULT_POLICY, _poisson_weights


def test_the_pmf_reference_sums_to_the_closed_form_reference():
    # sum_k Poisson(n x)(k) exp(-lam k / n) at n = 10, x = 5, lam = 2; the
    # terms past k = 300 carry less than 1e-100 of the mass
    pmf = exact.poisson_pmf(50.0, 0, 300)
    with localcontext() as ctx:
        ctx.prec = exact.DIGITS
        q = (Decimal(-2) / 10).exp()
        series = sum((p * q ** k for k, p in enumerate(pmf)), Decimal(0))
        assert abs(series - exact.sm_exponential(10, 2.0, 5.0)) < Decimal("1e-35")


def test_korovkin_values_agree_with_the_exact_closed_form():
    config = ExperimentConfig("korovkin")
    pts = config.grid().points
    # about ten points of the default grid, from x = 0 to x = 50
    some = pts[np.r_[0:pts.size:44, pts.size - 1]]
    assert some[0] == 0.0 and some[-1] == 50.0 and some.size == 11
    rates = tuple(lambda u, lam=lam: np.exp(-lam * u) for lam in config.lambdas)
    for n in config.n_ladder:
        series, _ = sm_apply_grid(n, rates, pts, DEFAULT_POLICY)
        for lam, values in zip(config.lambdas, series):
            closed = sm_exponential_closed_form(n, lam, some)
            want = np.array([float(exact.sm_exponential(n, lam, x)) for x in some.tolist()])
            assert np.max(np.abs(values[np.isin(pts, some)] - want)) <= config.agreement_tolerance
            assert np.max(np.abs(closed - want)) <= config.agreement_tolerance


def _f1_residual_reference(n, alpha, xs):
    """max over xs of |n (P_n f1 - f1) - (x/2) f1''| / (1 + x^alpha), f1 = exp(-x), in Decimal."""
    with localcontext() as ctx:
        ctx.prec = exact.DIGITS
        worst = Decimal(0)
        for x in xs.tolist():
            x_ = Decimal(x)
            f = (-x_).exp()
            residual = n * (exact.sm_exponential(n, 1.0, x) - f) - x_ / 2 * f
            worst = max(worst, abs(residual) / (1 + x_ ** Decimal(alpha)))
        return worst


def test_the_f1_residual_reference_at_n_1024():
    config = ExperimentConfig("voronovskaya")
    want = _f1_residual_reference(1024, config.alpha, config.grid().points)
    assert abs(float(want) - 2.643193355e-5) < 1e-14


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="pmf rounding, amplified n-fold in the residual: ROADMAP item 2")
def test_the_f1_voronovskaya_residual_at_n_1024_agrees_with_the_exact_one():
    # the report gives 2.643243436e-5, 1.9e-5 above the reference
    config = ExperimentConfig("voronovskaya")
    want = float(_f1_residual_reference(1024, config.alpha, config.grid().points))
    measured = next(row.measured for row in run_experiment(config)
                    if row.params.get("n") == 1024)
    assert measured == pytest.approx(want, rel=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="pmf rounding leaves the window's mass short: ROADMAP item 2")
@pytest.mark.parametrize("lam", [1545.0, 51_200.0])
def test_a_window_and_its_omitted_mass_add_up_to_one(lam):
    # the stored weights and the omitted mass sum exactly to 1 - 1.1e-12 at
    # 1545 and to 1 - 5.08e-11 at 51,200
    lo, w, tail, below = _poisson_weights(lam, DEFAULT_POLICY)
    with localcontext() as ctx:
        ctx.prec = exact.DIGITS
        mass = sum(map(Decimal, w.tolist()), Decimal(tail) + Decimal(below))
    assert abs(float(mass - 1)) <= 1e-15
