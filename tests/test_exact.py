"""The series and its reports against exact Decimal references (``exact.py``)."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import exact
from oplimits import feller_semigroup_closed_form, sm_apply_grid, sm_exponential_closed_form
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


# The rounding budget of the two exponential closed forms.  Each computes an
# exponent E in a few correctly rounded operations (expm1 counts as two, one
# ulp) and then exp(E), within one ulp.  Every operation is off by at most U
# relative, so E is off by at most (operations) U |E| relative, plus half of
# SUB for an operation that rounds below TINY, the least normal double,
# carried by what multiplies it afterwards; exp(E) turns an error d of E
# into a relative error expm1(|d|).  exp adds 2U relative, and the
# reference's conversion to a double U, or up to SUB apiece below TINY.
U = 2.0 ** -53
SUB = 2.0 ** -1074
TINY = 2.0 ** -1022


def _assert_within_budget(got, want, operations, lost):
    with localcontext() as ctx:
        ctx.prec = exact.DIGITS
        exponent = float(want.ln())
    allowed = float(want) * (math.expm1(operations * U * abs(exponent) + lost) + 3 * U)
    assert abs(got - float(want)) <= allowed + 2 * SUB


def _sm_lost(n, lam, x):
    # lam/n below TINY is off by up to SUB/2, which n x carries into E, and
    # n (1 - exp(-lam/n)) may round below it too, which x carries; the last
    # product may round below it in any case
    return (x * SUB * (n + 1) if lam / n < TINY else 0.0) / 2 + SUB / 2


# lam x and the quotient may round below TINY; lam t / 2 only sits beside 1
_FELLER_LOST = SUB

X_GRID = [0.0, 1e-300, 1e-5, 0.3, 1.0, 7.5, 50.0, 700.0]
LAMBDAS = [1e-3, 0.5, 1.0, 3.0, 50.0, 1e3]


@pytest.mark.parametrize("n", [1, 10, 1024, 10 ** 6])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_sm_closed_form_is_within_its_rounding_budget(n, lam):
    # -lam/n, expm1, n x and the product: five roundings
    got = sm_exponential_closed_form(n, lam, np.array(X_GRID))
    for value, x in zip(got.tolist(), X_GRID):
        _assert_within_budget(value, exact.sm_exponential(n, lam, x), 5, _sm_lost(n, lam, x))


@pytest.mark.parametrize("t", [0.0, 1e-3, 0.5, 1.0, 10.0])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_feller_closed_form_is_within_its_rounding_budget(lam, t):
    # lam x, lam t, 1 + lam t / 2 and the quotient: four roundings
    got = feller_semigroup_closed_form(lam, np.array(X_GRID), t)
    for value, x in zip(got.tolist(), X_GRID):
        _assert_within_budget(value, exact.feller_laplace(lam, x, t), 4, _FELLER_LOST)


@pytest.mark.parametrize("n, lam, x", [(10, 5e-324, 1e308), (10, 1e-310, 1e308)])
def test_sm_closed_form_past_an_overflowing_product(n, lam, x):
    # n x is past the largest double while the exponent is near -5e-16 and -0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = sm_exponential_closed_form(n, lam, x)
        array = sm_exponential_closed_form(n, lam, np.array([x, 1.0]))
    assert array[0] == scalar
    _assert_within_budget(scalar, exact.sm_exponential(n, lam, x), 5, _sm_lost(n, lam, x))


@pytest.mark.parametrize("lam, x, t", [(1e200, 1e200, 1e200), (1e300, 1.0, 1e10)])
def test_feller_closed_form_past_an_overflowing_product(lam, x, t):
    # lam t (and at 1e200 lam x) is past the largest double; the exponent
    # -x / (1/lam + t/2) takes as many roundings as the direct one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = feller_semigroup_closed_form(lam, x, t)
        array = feller_semigroup_closed_form(lam, np.array([x, 1.0]), t)
    assert array[0] == scalar
    _assert_within_budget(scalar, exact.feller_laplace(lam, x, t), 4, _FELLER_LOST)


def test_the_sm_reference_keeps_tiny_rates():
    # 1 - exp(-lam/n) cancels to 0 in 40 digits once lam/n is below about
    # 1e-40; the values here are from a 60-digit evaluation
    assert float(exact.sm_exponential(10, 1e-310, 1e308)) == 0.9900498337491681
    assert float(exact.sm_exponential(10, 5e-324, 1e308)) == 0.9999999999999996
    # the series and the direct difference agree where the reference switches
    with localcontext() as ctx:
        ctx.prec = exact.DIGITS
        for q in (Decimal("0.1"), Decimal("0.05")):
            assert abs(exact._one_minus_exp_neg(q) - (1 - (-q).exp())) < Decimal("1e-38")
