"""Weights, grids, norms, and derivative estimation."""

import numpy as np
import pytest

from oplimits import (
    CATALOG,
    EvaluationError,
    Grid,
    TestFunction,
    default_grid,
    lipschitz_estimate_d2,
    make_geometric_grid,
    second_derivative,
    weight_eval,
    weighted_sup_norm,
)


class TestWeight:
    def test_point_values(self):
        assert weight_eval(2.0, 0.0) == 1.0
        assert weight_eval(2.0, 1.0) == 0.5
        assert weight_eval(2.0, 3.0) == pytest.approx(0.1, abs=1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            weight_eval(0.5, 1.0)
        with pytest.raises(ValueError):
            weight_eval(2.0, -1.0)
        with pytest.raises(ValueError):
            weight_eval(0.99, 1.0)

    def test_strictly_decreasing(self):
        pts = default_grid().points[1:]  # positive part
        for alpha in (1.0, 1.5, 2.0, 4.0):
            vals = weight_eval(alpha, pts)
            assert np.all(np.diff(vals) < 0)
            assert np.all(vals > 0) and np.all(vals <= 1)

    def test_callable_form(self):
        assert weight_eval(3.0, 0.0) == 1.0
        assert weight_eval(3.0, 1.0) == 0.5


class TestWeightedSupNorm:
    def test_identity_attains_half(self):
        # sup of x / (1 + x^2) is 1/2, attained at x = 1 (a grid point)
        grid = make_geometric_grid(10.0, 200, 100)
        assert weighted_sup_norm(CATALOG["e1"], grid, 2.0) == pytest.approx(0.5, abs=1e-12)

    def test_zero_function(self):
        f = TestFunction("zero", lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        assert weighted_sup_norm(f, default_grid(), 2.0) == 0.0

    def test_decaying_exponential_attains_one_at_origin(self):
        assert weighted_sup_norm(CATALOG["f1"], default_grid(), 2.0) == pytest.approx(1.0)

    def test_absolute_homogeneity(self):
        grid = default_grid()
        base = CATALOG["xexp"]
        for c in (-3.5, 0.25, 7.0):
            scaled = TestFunction("scaled", lambda x, c=c: c * base(x))
            assert weighted_sup_norm(scaled, grid, 2.0) == pytest.approx(
                abs(c) * weighted_sup_norm(base, grid, 2.0), rel=1e-14
            )

    def test_triangle_inequality(self):
        grid = default_grid()
        f, g = CATALOG["f1"], CATALOG["cauchy"]
        fg = TestFunction("sum", lambda x: f(x) + g(x))
        assert weighted_sup_norm(fg, grid, 2.0) <= (
            weighted_sup_norm(f, grid, 2.0) + weighted_sup_norm(g, grid, 2.0) + 1e-12
        )

    def test_nonfinite_value_reports_offending_point(self):
        f = TestFunction(
            "pole",
            lambda x: np.where(np.asarray(x, dtype=float) == 0.0, np.inf, 1.0),
        )
        with pytest.raises(EvaluationError) as err:
            weighted_sup_norm(f, default_grid(), 2.0)
        assert err.value.x == 0.0


class TestGrids:
    def test_pure_geometric_spacing(self):
        grid = make_geometric_grid(10.0, 5, dense_head=0)
        r = 10.0 ** 0.25
        np.testing.assert_allclose(grid.points, [0.0, r, r ** 2, r ** 3, 10.0], rtol=1e-15)

    def test_two_point_grid(self):
        np.testing.assert_array_equal(make_geometric_grid(1.0, 2).points, [0.0, 1.0])

    def test_dense_head_count(self):
        # 1 origin + 20 head points (1/20..1) + 49 geometric points above 1
        grid = make_geometric_grid(100.0, 50, dense_head=20)
        assert len(grid) == 70
        assert grid.x_max == 100.0
        assert 1.0 in grid.points

    def test_default_grid_shape(self):
        grid = default_grid()
        assert len(grid) == 400
        assert grid.points[0] == 0.0
        assert grid.x_max == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([1.0, 2.0]))  # must start at 0
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 2.0, 2.0]))  # strictly increasing
        with pytest.raises(ValueError):
            make_geometric_grid(-1.0, 5)
        with pytest.raises(ValueError):
            make_geometric_grid(10.0, 1)

    def test_refine(self):
        grid = make_geometric_grid(10.0, 5)
        fine = grid.refine(4)
        assert len(fine) == 4 * (len(grid) - 1) + 1
        assert set(np.round(grid.points, 12)) <= set(np.round(fine.points, 12))


class TestSecondDerivative:
    def test_analytic_path_is_used(self):
        assert second_derivative(CATALOG["e2"], 3.7) == 2.0

    def test_quadratic_by_finite_differences(self):
        f = TestFunction("sq", lambda x: np.asarray(x, dtype=float) ** 2)
        for x in (0.0, 0.3, 2.0):
            assert second_derivative(f, x) == pytest.approx(2.0, abs=1e-6)

    def test_one_sided_stencil_at_origin(self):
        f = TestFunction("exp", lambda x: np.exp(-np.asarray(x, dtype=float)))
        assert second_derivative(f, 0.0) == pytest.approx(1.0, abs=1e-5)

    def test_linear_function_vanishes(self):
        f = TestFunction("lin", lambda x: np.asarray(x, dtype=float))
        for x in (0.0, 1.0, 7.7):
            assert second_derivative(f, x) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("label", ["f1", "f2", "f3", "xexp", "cauchy"])
    def test_halving_h_improves_accuracy(self, label):
        # In the truncation-dominated regime the O(h^2) stencil gains a
        # factor >= 3 per halving on smooth functions.
        ref = CATALOG[label]
        bare = TestFunction("bare", ref.fn)
        for x in (0.5, 1.5):
            exact = float(ref.d2_fn(x))
            err_h = abs(second_derivative(bare, x, h=0.02) - exact)
            err_h2 = abs(second_derivative(bare, x, h=0.01) - exact)
            assert err_h2 * 3.0 <= err_h + 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            second_derivative(CATALOG["e2"], -0.1)
        with pytest.raises(ValueError):
            second_derivative(CATALOG["e2"], 1.0, h=0.0)


class TestLipschitzEstimate:
    def test_declared_constant_wins(self):
        assert lipschitz_estimate_d2(CATALOG["f1"], default_grid()) == 1.0

    def test_constant_second_derivative(self):
        assert lipschitz_estimate_d2(CATALOG["e2"], default_grid()) == 0.0

    def test_cubic_has_unit_slope(self):
        f = TestFunction(
            "cubic6",
            lambda x: np.asarray(x, dtype=float) ** 3 / 6.0,
            d2_fn=lambda x: np.asarray(x, dtype=float),
        )
        grid = make_geometric_grid(10.0, 100, 50)
        assert lipschitz_estimate_d2(f, grid) == pytest.approx(1.0, rel=1e-12)

    def test_grid_estimate_lower_bounds_smooth_case(self):
        # sup |f'''| for 1/(1+x^2) is about 4.669 near x = 0.316
        bare = TestFunction("bare", CATALOG["cauchy"].fn, d2_fn=CATALOG["cauchy"].d2_fn)
        est = lipschitz_estimate_d2(bare, default_grid())
        assert 4.5 < est < 4.68

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            lipschitz_estimate_d2(
                TestFunction("id", lambda x: np.asarray(x, dtype=float)),
                Grid(np.array([0.0])),
            )


class TestCatalog:
    def test_expected_labels(self):
        assert {"e0", "e1", "e2", "f1", "f2", "f3", "xexp", "cauchy"} <= set(CATALOG)

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_finite_on_grid(self, label):
        vals = np.asarray(CATALOG[label](default_grid().points), dtype=float)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("label", ["f1", "f2", "f3", "xexp", "cauchy", "e2"])
    def test_declared_d2_matches_finite_differences(self, label):
        f = CATALOG[label]
        bare = TestFunction("bare", f.fn)
        for x in (0.1, 1.0, 4.0):
            fd = second_derivative(bare, x, h=1e-3)
            assert fd == pytest.approx(float(f.d2_fn(x)), abs=5e-5)
