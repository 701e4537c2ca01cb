"""The limit generator, the explicit rate constant, residuals, and rate fits."""

import math

import numpy as np
import pytest

from oplimits import (
    CATALOG,
    Grid,
    TestFunction,
    make_geometric_grid,
    fit_rate,
    generator_apply,
    m_alpha,
    semigroup_rate_bound,
    voronovskaya_bound,
    voronovskaya_residual,
    weight_eval,
)

# the experiments' default working grid: dense head on [0, 1], geometric tail to 50
GRID = make_geometric_grid(50.0, 300, 100)


class TestGeneratorApply:
    def test_degenerate_boundary(self):
        for label in ("e2", "f1", "cauchy"):
            assert generator_apply(CATALOG[label], 0.0) == 0.0

    def test_half_x_coefficient(self):
        # (x/2) f'' at f = x^2, x = 3
        assert generator_apply(CATALOG["e2"], 3.0) == pytest.approx(3.0)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            generator_apply(CATALOG["e2"], -0.1)

    def test_requires_analytic_second_derivative(self):
        bare = TestFunction("bare", CATALOG["e2"].fn)
        for x in (0.0, 3.0):
            with pytest.raises(ValueError, match="d2_fn"):
                generator_apply(bare, x)


class TestRateConstant:
    def test_value_at_two(self):
        # closed form reduces to 3^(3/2)/4 + (5/8)(3/5)^(3/8)
        byhand = 3.0 ** 1.5 / 4.0 + (5.0 / 8.0) * (3.0 / 5.0) ** (3.0 / 8.0)
        assert m_alpha(2.0) == pytest.approx(byhand, rel=1e-15)
        assert m_alpha(2.0) == pytest.approx(1.8150821096296348, rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.75, 2.0, 2.5, 3.0, 5.0])
    def test_against_numeric_suprema(self, alpha):
        # independent route: maximize each weighted power numerically
        x = np.linspace(1e-9, 500.0, 2_000_001)
        w = 1.0 / (1.0 + x ** alpha)
        numeric = 3.0 ** 0.75 * np.max(x ** 1.5 * w) + np.max(x ** 0.75 * w)
        assert m_alpha(alpha) == pytest.approx(numeric, rel=1e-6)

    def test_value_at_three(self):
        assert m_alpha(3.0) == pytest.approx(1.7096302927160831, rel=1e-12)

    def test_large_alpha_limit(self):
        assert m_alpha(1e6) == pytest.approx(3.0 ** 0.75 + 1.0, abs=1e-3)

    def test_continuity_on_log_grid(self):
        alphas = 1.6 * 1.05 ** np.arange(0, 75)
        alphas = alphas[alphas <= 60.0]
        vals = np.array([m_alpha(float(a)) for a in alphas])
        rel_steps = np.abs(np.diff(vals)) / vals[:-1]
        assert np.all(vals > 0)
        assert np.all(rel_steps < 0.10)

    def test_domain(self):
        with pytest.raises(ValueError):
            m_alpha(1.5)
        with pytest.raises(ValueError):
            m_alpha(1.0)


class TestVoronovskayaResidual:
    def test_quadratic_is_exact(self):
        # the operator shifts x^2 by exactly x/n, matching the generator term
        for n in (4, 64, 1024):
            assert voronovskaya_residual(n, CATALOG["e2"], 2.0, GRID) <= 1e-6

    def test_linear_is_exact(self):
        for n in (4, 256):
            assert voronovskaya_residual(n, CATALOG["e1"], 2.0, GRID) <= 1e-9

    def test_exponential_within_theoretical_bound(self):
        grid = GRID
        for n in (4, 100):
            resid = voronovskaya_residual(n, CATALOG["f1"], 2.0, grid)
            assert 0.0 < resid <= voronovskaya_bound(n, 2.0, 1.0)

    def test_bound_values(self):
        assert voronovskaya_bound(100, 2.0, 1.0) == pytest.approx(
            m_alpha(2.0) / 60.0, rel=1e-15
        )
        assert voronovskaya_bound(400, 2.0, 1.0) == pytest.approx(
            voronovskaya_bound(100, 2.0, 1.0) / 2.0, rel=1e-14
        )
        assert voronovskaya_bound(50, 2.0, 0.0) == 0.0

    def test_bound_domain(self):
        with pytest.raises(ValueError):
            voronovskaya_bound(100, 1.2, 1.0)
        with pytest.raises(ValueError):
            voronovskaya_residual(10, CATALOG["f1"], 0.5, GRID)

    def test_series_route_matches_closed_form_route_at_large_index(self):
        # end-to-end check of the series evaluation at Poisson means up to
        # 5x10^4: the residual computed through the truncated series must
        # match the one computed through the exponential closed form
        from oplimits import sm_exponential_closed_form, weight_eval

        n, alpha = 1024, 2.0
        grid = GRID
        f = CATALOG["f1"]
        series_route = voronovskaya_residual(n, f, alpha, grid)
        closed_route = 0.0
        for x in grid.points:
            x = float(x)
            pn = sm_exponential_closed_form(n, 1.0, x)
            resid = n * (pn - math.exp(-x)) - (x / 2.0) * math.exp(-x)
            closed_route = max(closed_route, weight_eval(alpha, x) * abs(resid))
        assert series_route == pytest.approx(closed_route, abs=2e-7)


class TestSemigroupRateBound:
    def test_zero_horizon(self):
        n, alpha, norm_af, lip = 100, 2.0, 0.25, 1.0
        expected = (1.0 / n) * (norm_af + m_alpha(alpha) * lip / (6 * math.sqrt(n)))
        assert semigroup_rate_bound(n, 0.0, alpha, norm_af, lip) == pytest.approx(
            expected, rel=1e-14
        )

    def test_constant_flow_integrates_exactly(self):
        n, t, alpha, norm_af, lip = 64, 2.0, 2.0, 0.5, 3.0
        ma = m_alpha(alpha)
        head = (math.sqrt(t / n) + 1.0 / n) * (norm_af + ma * lip / (6 * math.sqrt(n)))
        expected = head + t * ma * lip / (6 * math.sqrt(n))
        got = semigroup_rate_bound(n, t, alpha, norm_af, lip)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_worked_example(self):
        got = semigroup_rate_bound(100, 1.0, 2.0, 0.25, 1.0)
        assert got == pytest.approx(0.06108, abs=5e-5)


@pytest.mark.parametrize("name, call", [
    ("alpha", lambda: weight_eval(math.nan, 1.0)),
    ("x", lambda: weight_eval(2.0, math.nan)),
    ("x", lambda: weight_eval(2.0, np.array([0.0, math.nan]))),
    ("x", lambda: generator_apply(CATALOG["f1"], math.nan)),
    ("alpha", lambda: m_alpha(math.nan)),
    ("alpha", lambda: voronovskaya_residual(10, CATALOG["f1"], math.nan, GRID)),
    ("lip_d2", lambda: voronovskaya_bound(4, 2.0, math.nan)),
    ("n", lambda: voronovskaya_bound(2.5, 2.0, 1.0)),
    ("t", lambda: semigroup_rate_bound(4, math.nan, 2.0, 1.0, 1.0)),
    ("norm_af", lambda: semigroup_rate_bound(4, 1.0, 2.0, math.nan, 1.0)),
    ("n", lambda: semigroup_rate_bound(4.5, 1.0, 2.0, 1.0, 1.0)),
    ("errors", lambda: fit_rate([4, 16, 64], [1.0, math.nan, 0.1])),
    ("x_max", lambda: make_geometric_grid(math.nan, 10)),
    ("m", lambda: make_geometric_grid(10.0, 2.5)),
    ("dense_head", lambda: make_geometric_grid(10.0, 10, 2.5)),
    ("lip_d2", lambda: TestFunction("nan", CATALOG["f1"].fn, lip_d2=math.nan)),
    ("alpha", lambda: weight_eval(math.inf, 1.0)),
    ("x", lambda: weight_eval(2.0, math.inf)),
    ("x", lambda: weight_eval(2.0, np.array([0.0, -math.inf]))),
    ("x", lambda: generator_apply(CATALOG["f1"], math.inf)),
    ("x", lambda: generator_apply(CATALOG["f1"], np.array([1.0, -math.inf]))),
    ("alpha", lambda: m_alpha(math.inf)),
    ("alpha", lambda: voronovskaya_residual(10, CATALOG["f1"], math.inf, GRID)),
    ("alpha", lambda: voronovskaya_bound(4, math.inf, 1.0)),
    ("lip_d2", lambda: voronovskaya_bound(4, 2.0, math.inf)),
    ("t", lambda: semigroup_rate_bound(4, math.inf, 2.0, 1.0, 1.0)),
    ("alpha", lambda: semigroup_rate_bound(4, 1.0, math.inf, 1.0, 1.0)),
    ("norm_af", lambda: semigroup_rate_bound(4, 1.0, 2.0, math.inf, 1.0)),
    ("lip_d2", lambda: semigroup_rate_bound(4, 1.0, 2.0, 1.0, math.inf)),
    ("lip_d2", lambda: semigroup_rate_bound(4, 1.0, 2.0, 1.0, -math.inf)),
    ("n_values", lambda: fit_rate([1, 2, math.inf], [1.0, 1.0, 1.0])),
    ("errors", lambda: fit_rate([4, 16, 64], [1.0, math.inf, 0.1])),
    ("x_max", lambda: make_geometric_grid(math.inf, 10)),
    ("grid points", lambda: Grid(np.array([0.0, 1.0, math.inf]))),
    ("lip_d2", lambda: TestFunction("inf", CATALOG["f1"].fn, lip_d2=math.inf)),
], ids=["weight-alpha", "weight-x", "weight-array", "generator-x", "m-alpha",
        "residual-alpha", "bound-lip", "bound-n", "rate-t", "rate-norm", "rate-n",
        "fit-error", "grid-x-max", "grid-m", "grid-head", "lip-d2",
        "weight-alpha-inf", "weight-x-inf", "weight-array-minus-inf", "generator-x-inf",
        "generator-array-minus-inf", "m-alpha-inf", "residual-alpha-inf", "bound-alpha-inf",
        "bound-lip-inf", "rate-t-inf", "rate-alpha-inf", "rate-norm-inf", "rate-lip-inf",
        "rate-lip-minus-inf", "fit-n-inf", "fit-error-inf", "grid-x-max-inf",
        "grid-point-inf", "lip-d2-inf"])
def test_nan_and_fractional_arguments_are_rejected(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


class TestFitRate:
    def test_exact_power_laws(self):
        ns = [4, 16, 64, 256]
        assert fit_rate(ns, [3.0 / math.sqrt(n) for n in ns]) == pytest.approx(-0.5, abs=1e-12)
        assert fit_rate(ns, [0.7 / n for n in ns]) == pytest.approx(-1.0, abs=1e-12)
        assert fit_rate(ns, [2.2] * 4) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([4, 16], [1.0, 0.5])
        with pytest.raises(ValueError):
            fit_rate([4, 16, 64], [1.0, 0.0, 0.1])
