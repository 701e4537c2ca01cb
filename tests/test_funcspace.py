"""Weights, grids, and the catalog of test functions."""

import numpy as np
import pytest

from oplimits import (
    CATALOG,
    Grid,
    make_geometric_grid,
    weight_eval,
)
from oplimits.harness import ExperimentConfig

# the experiments' default working grid: dense head on [0, 1], geometric tail to 50
GRID = make_geometric_grid(50.0, 300, 100)


def _central_d2(f, x, h):
    """Central second difference of f at x >= h, O(h^2) for C^4 functions."""
    return float((f(x - h) - 2.0 * f(x) + f(x + h)) / h ** 2)


class TestWeight:
    def test_point_values(self):
        assert weight_eval(2.0, 0.0) == 1.0
        assert weight_eval(2.0, 1.0) == 0.5
        assert weight_eval(2.0, 3.0) == pytest.approx(0.1, abs=1e-15)
        # x ** alpha past the largest double: the weight is 0.0, with no warning
        assert weight_eval(2.0, 1e200) == 0.0
        np.testing.assert_array_equal(weight_eval(2.0, np.array([1.0, 1e200])), [0.5, 0.0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            weight_eval(0.5, 1.0)
        with pytest.raises(ValueError):
            weight_eval(2.0, -1.0)
        with pytest.raises(ValueError):
            weight_eval(0.99, 1.0)

    def test_strictly_decreasing(self):
        pts = GRID.points[1:]  # positive part
        for alpha in (1.0, 1.5, 2.0, 4.0):
            vals = weight_eval(alpha, pts)
            assert np.all(np.diff(vals) < 0)
            assert np.all(vals > 0) and np.all(vals <= 1)

    def test_callable_form(self):
        assert weight_eval(3.0, 0.0) == 1.0
        assert weight_eval(3.0, 1.0) == 0.5


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
        assert grid.points.size == 70
        assert grid.points[-1] == 100.0
        assert 1.0 in grid.points

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(np.array([1.0, 2.0]))  # must start at 0
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 2.0, 2.0]))  # strictly increasing
        with pytest.raises(ValueError):
            make_geometric_grid(-1.0, 5)
        with pytest.raises(ValueError):
            make_geometric_grid(10.0, 1)


class TestCatalog:
    def test_expected_labels(self):
        assert {"e0", "e1", "e2", "f1", "f2", "f3", "xexp", "cauchy", "kink3"} <= set(CATALOG)

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_finite_on_grid(self, label):
        vals = np.asarray(CATALOG[label](GRID.points), dtype=float)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("label", ["f1", "f2", "f3", "xexp", "cauchy", "e2"])
    def test_declared_d2_matches_finite_differences(self, label):
        f = CATALOG[label]
        for x in (0.1, 1.0, 4.0):
            fd = _central_d2(f, x, h=1e-3)
            assert fd == pytest.approx(float(f.d2_fn(x)), abs=5e-5)

    def test_kink3_d2_matches_finite_differences(self):
        f = CATALOG["kink3"]
        h = 1e-3
        for x in (0.1, 4.0):
            fd = _central_d2(f, x, h=h)
            assert fd == pytest.approx(float(f.d2_fn(x)), abs=5e-5)
        # at the kink the stencil reads (h^3 + h^3) / h^2 = 2h against f'' = 0
        assert float(f.d2_fn(1.0)) == 0.0
        assert _central_d2(f, 1.0, h=h) == pytest.approx(2 * h, rel=1e-6)

    def test_kink3_d2_slope_across_the_kink(self):
        f = CATALOG["kink3"]
        pts = np.array([0.0, 0.5, 0.9, 1.1, 2.0, 5.0])
        d2 = np.array([float(f.d2_fn(float(x))) for x in pts])
        slope = float(np.max(np.abs(np.diff(d2) / np.diff(pts))))
        assert slope == pytest.approx(6.0, rel=1e-12)
        assert f.lip_d2 == 6.0


def _as_float(x):
    return np.asarray(x, dtype=float)


# The catalog's expressions as they were written with a conversion of their
# own in every use of x: the table must keep every value's bits.
_WRAPPED = {
    "e0": (lambda x: np.ones_like(_as_float(x)), lambda x: np.zeros_like(_as_float(x))),
    "e1": (lambda x: _as_float(x), lambda x: np.zeros_like(_as_float(x))),
    "e2": (lambda x: _as_float(x) ** 2, lambda x: 2.0 * np.ones_like(_as_float(x))),
    "xexp": (lambda x: _as_float(x) * np.exp(-_as_float(x)),
             lambda x: (_as_float(x) - 2.0) * np.exp(-_as_float(x))),
    "cauchy": (lambda x: 1.0 / (1.0 + _as_float(x) ** 2),
               lambda x: (6.0 * _as_float(x) ** 2 - 2.0) / (1.0 + _as_float(x) ** 2) ** 3),
    "kink3": (lambda x: np.abs(_as_float(x) - 1.0) ** 3,
              lambda x: 6.0 * np.abs(_as_float(x) - 1.0)),
    **{f"f{int(lam)}": (lambda x, lam=lam: np.exp(-lam * _as_float(x)),
                        lambda x, lam=lam: lam ** 2 * np.exp(-lam * _as_float(x)))
       for lam in (1.0, 2.0, 3.0)},
}

# The last point has 27 significant bits and its exact square lies halfway
# between two doubles: an array's ** 2 (x * x) rounds it to even, while a
# Python float's ** 2 goes through pow, which may round it up, as glibc does.
_PINNED_POINTS = [0.0, 1.0, 1e-300, 700.0, float.fromhex("0x1.b791f74p+0")]


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


class TestCatalogTable:
    def test_key_order(self):
        assert list(CATALOG) == ["e0", "e1", "e2", "xexp", "cauchy", "kink3", "f1", "f2", "f3"]

    @pytest.mark.parametrize("label", list(_WRAPPED))
    def test_values_keep_their_bits(self, label):
        f, (fn, d2_fn) = CATALOG[label], _WRAPPED[label]
        grid = ExperimentConfig("voronovskaya").grid().points
        # a point as a Python float, the points as a list and as a float array
        for x in _PINNED_POINTS + [_PINNED_POINTS, np.array(_PINNED_POINTS), grid]:
            _assert_same_bits(f(x), fn(x))
        # the generator hands d2_fn float arrays, 0-d for a point; tests also hand it floats
        for x in _PINNED_POINTS + [np.float64(v) for v in _PINNED_POINTS] + [
                np.array(v) for v in _PINNED_POINTS] + [np.array(_PINNED_POINTS), grid]:
            _assert_same_bits(f.d2_fn(x), d2_fn(x))
