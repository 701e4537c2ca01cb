"""The grid routine against a loop of scalar sm_apply calls, bit for bit.

``sm_apply_grid`` builds the Poisson windows of many points together and
evaluates f once per chunk of them, but every value, omitted mass and
error must be what a loop of ``sm_apply`` calls over the same points gives.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oplimits import (
    CATALOG,
    EvaluationError,
    TruncationFailureError,
    TruncationPolicy,
    sm_apply,
    sm_apply_grid,
)
import oplimits.generator
import oplimits.harness
import oplimits.operators
from oplimits.harness import ExperimentConfig, run_experiment
from oplimits.operators import DEFAULT_POLICY, _poisson_start, _poisson_weights

DEFAULT_GRID = ExperimentConfig.for_experiment("voronovskaya").grid().points


def _per_point(n, f, xs, policy):
    """What a loop of sm_apply calls gives: both arrays, or the error it raises."""
    try:
        out = [sm_apply(n, f, float(x), policy) for x in xs]
    except (EvaluationError, TruncationFailureError, ValueError) as error:
        return type(error), str(error)
    return (np.array([o.value for o in out], dtype=float),
            np.array([o.omitted_mass for o in out], dtype=float))


def _grid(n, f, xs, policy):
    try:
        return sm_apply_grid(n, f, xs, policy)
    except (EvaluationError, TruncationFailureError, ValueError) as error:
        return type(error), str(error)


def _assert_same(got, want):
    if isinstance(want[0], type):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("label", sorted(CATALOG))
def test_every_catalog_function_on_the_default_grid(label):
    f = CATALOG[label]
    # the voronovskaya ladder and the korovkin ladder, on one grid
    for n in (1, 4, 10, 16, 64, 100, 256, 1024):
        values, omitted = sm_apply_grid(n, f, DEFAULT_GRID)
        want = _per_point(n, f, DEFAULT_GRID, DEFAULT_POLICY)
        assert np.array_equal(values, want[0]), (label, n)
        assert np.array_equal(omitted, want[1]), (label, n)


@pytest.mark.parametrize("experiment", ["voronovskaya", "korovkin"])
def test_default_runs_send_only_x_0_through_sm_apply(monkeypatch, experiment):
    # every other point of the default grids has a window the batched cut
    # certifies; the point mass at x = 0 is sm_apply's own, once per
    # function: korovkin averages its three rates in one grid call per n
    scalar, grid = oplimits.operators.sm_apply, oplimits.operators.sm_apply_grid
    per_grid = []

    def counted_grid(n, f, xs, policy=DEFAULT_POLICY):
        per_grid.append([])
        return grid(n, f, xs, policy)

    def counted_scalar(n, f, x, policy=DEFAULT_POLICY):
        per_grid[-1].append(x)
        return scalar(n, f, x, policy)

    monkeypatch.setattr(oplimits.operators, "sm_apply", counted_scalar)
    for module in (oplimits.generator, oplimits.harness):
        monkeypatch.setattr(module, "sm_apply_grid", counted_grid)
    config = ExperimentConfig.for_experiment(experiment)
    run_experiment(config)
    functions = len(config.lambdas) if experiment == "korovkin" else 1
    assert per_grid == [[0.0] * functions] * len(config.n_ladder)


# the points mix x = 0, small means, means on both sides of 774.06 (where
# the window's lower end goes from 0 to 512 at n = 1) and large ones
points = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=700.0, max_value=850.0),
    st.floats(min_value=2500.0, max_value=6000.0),
)
policies = st.builds(
    TruncationPolicy,
    # 1 - 5e-13 puts the Poisson(3000) cut below lo, at K = 0; 1e-300
    # cuts where the pmf is below 1e-300; 0.5 cuts below the floor
    tail_eps=st.sampled_from([1e-12, 1e-6, 0.5, 1 - 5e-13, 1e-300]),
    max_terms=st.sampled_from([10 ** 6, 900, 4000]),
)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 7]), xs=st.lists(points, max_size=40),
       policy=policies, label=st.sampled_from(["e0", "e2", "f1", "kink3"]))
@example(n=1, xs=[0.0, 774.06, 774.07, 800.0], policy=DEFAULT_POLICY, label="e2")
@example(n=1, xs=[0.0, 2.0, 3000.0, 3000.5], policy=TruncationPolicy(tail_eps=1 - 5e-13),
         label="f1")
@example(n=1, xs=[0.5, 40.0, 3000.0], policy=TruncationPolicy(tail_eps=1e-300), label="e0")
@example(n=2, xs=[1.0, 300.0, 800.0, 1.0], policy=TruncationPolicy(max_terms=900),
         label="kink3")
def test_grids_match_scalar_calls(n, xs, policy, label):
    f = CATALOG[label]
    _assert_same(_grid(n, f, xs, policy), _per_point(n, f, xs, policy))


def _first_error(n, fs, xs, policy):
    """The error a loop of sm_apply calls over the points, and over fs at each point, raises."""
    try:
        for x in xs:
            for f in fs:
                sm_apply(n, f, float(x), policy)
    except (EvaluationError, TruncationFailureError, ValueError) as error:
        return type(error), str(error)
    return None


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, 7]), xs=st.lists(points, max_size=40), policy=policies,
       labels=st.lists(st.sampled_from(sorted(CATALOG)), min_size=1, max_size=3))
@example(n=1, xs=[0.0, 0.3, 774.06, 774.07, 800.0, 3000.0], policy=DEFAULT_POLICY,
         labels=["f1", "f2", "f3"])
@example(n=2, xs=[1.0, 300.0, 800.0, 1.0], policy=TruncationPolicy(max_terms=900),
         labels=["e2", "kink3"])
def test_a_tuple_of_functions_gives_the_rows_of_one_function_calls(n, xs, policy, labels):
    fs = tuple(CATALOG[label] for label in labels)
    got = _grid(n, fs, xs, policy)
    error = _first_error(n, fs, xs, policy)
    if error:
        assert got == error
        return
    values, omitted = got
    assert values.shape == (len(fs), len(xs))
    for f, row in zip(fs, values):
        _assert_same((row, omitted), sm_apply_grid(n, f, xs, policy))


def test_a_bad_term_of_a_later_function_raises_after_the_earlier_points():
    # at n = 1 lattice points 4200 and 4300 lie in the window of x = 5000
    # alone and the top of x = 5700's window in its own alone; the points
    # decide first, then the order of the functions at a point
    (lo_a, w_a, _, _), (lo_b, w_b, _, _) = (_poisson_weights(x, DEFAULT_POLICY)
                                            for x in (5000.0, 5700.0))
    top_b = lo_b + w_b.size - 1
    assert lo_a <= 4200 < 4300 < lo_b < lo_a + w_a.size - 1 < top_b

    def bad_at(*points):
        return lambda u: np.where(np.isin(u, points), math.inf, np.exp(-np.asarray(u)))

    xs = [0.0, 0.5, 5000.0, 5700.0]
    f, g, h, late = bad_at(), bad_at(4200.0), bad_at(4300.0), bad_at(float(top_b))
    named = "non-finite series term at lattice point {}"
    assert _grid(1, g, xs, DEFAULT_POLICY) == (EvaluationError, named.format(4200.0))
    for fs, point in (((f, g), 4200.0), ((late, g), 4200.0), ((g, h), 4200.0),
                      ((h, g), 4300.0), ((f, late), float(top_b))):
        assert _first_error(1, fs, xs, DEFAULT_POLICY) == (EvaluationError, named.format(point))
        assert _grid(1, fs, xs, DEFAULT_POLICY) == (EvaluationError, named.format(point))


def test_examples_reach_the_cases_they_name():
    # the K = 0 cut, a cut far above the default one and a max_terms
    # overflow all occur.  No Poisson window doubles: its first top leaves
    # at most tail_eps 2^-53 of the mass above it
    lo, w, _, _ = _poisson_weights(3000.0, TruncationPolicy(tail_eps=1 - 5e-13))
    assert (lo, w.size) == (0, 1)
    policy = TruncationPolicy(tail_eps=1e-300)
    initial_hi = _poisson_start(3000.0, policy)[1]
    lo, w, _, _ = _poisson_weights(3000.0, policy)
    assert initial_hi - 200 < lo + w.size - 1 < initial_hi
    lo, w, _, _ = _poisson_weights(3000.0, DEFAULT_POLICY)
    assert lo + w.size - 1 < initial_hi - 1000
    with pytest.raises(TruncationFailureError):
        sm_apply_grid(2, CATALOG["e0"], [1.0, 800.0], TruncationPolicy(max_terms=900))


def test_a_truncation_failure_comes_after_the_points_before_it():
    # f is non-finite at lattice point 5, inside the first two windows, and
    # the third window overflows max_terms: the loop meets the term first
    def f(u):
        u = np.asarray(u, dtype=float)
        return np.where(u == 5.0, math.inf, 1.0)

    xs = [0.5, 5.0, 2000.0]
    policy = TruncationPolicy(max_terms=900)
    want = _per_point(1, f, xs, policy)
    assert want[0] is EvaluationError
    assert _grid(1, f, xs, policy) == want
    want = _per_point(1, CATALOG["e0"], xs, policy)
    assert want[0] is TruncationFailureError
    assert _grid(1, CATALOG["e0"], xs, policy) == want


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_terms_are_named_at_the_same_first_point(bad):
    # at n = 1 the windows of x = 5000 and 5700 overlap, so the grid takes
    # them in one chunk; lattice point 4200 lies only in the first, the
    # second's last point only in the second
    (lo_a, w_a, _, _), (lo_b, w_b, _, _) = (_poisson_weights(x, DEFAULT_POLICY)
                                            for x in (5000.0, 5700.0))
    top_b = lo_b + w_b.size - 1
    assert lo_a <= 4200 < lo_b < lo_a + w_a.size - 1 < top_b

    def f(u):
        u = np.asarray(u, dtype=float)
        return np.where((u == 4200.0) | (u == top_b), bad, 1.0)

    for xs, named in (([0.5, 5000.0, 5700.0], 4200.0), ([5700.0, 5000.0], float(top_b))):
        want = _per_point(1, f, xs, DEFAULT_POLICY)
        assert want == (EvaluationError, f"non-finite series term at lattice point {named}")
        assert _grid(1, f, xs, DEFAULT_POLICY) == want


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_invalid_points_raise_as_the_loop_does(bad):
    for xs in ([1.0, bad, 2.0], [bad]):
        want = _per_point(3, CATALOG["e1"], xs, DEFAULT_POLICY)
        assert want[0] is ValueError
        assert _grid(3, CATALOG["e1"], xs, DEFAULT_POLICY) == want
    with pytest.raises(ValueError, match="n must be an integer"):
        sm_apply_grid(0, CATALOG["e1"], [1.0])
    with pytest.raises(ValueError, match="nonempty tuple of functions"):
        sm_apply_grid(3, (), [0.0, 1.0])
    for xs in (1.0, [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="xs must be a 1-d array"):
            sm_apply_grid(3, CATALOG["e1"], xs)


@pytest.mark.parametrize("n, x, error", [(1, 1e20, TruncationFailureError),
                                          (10, 1e300, TruncationFailureError),
                                          (10, 1e308, ValueError)])
def test_huge_means_fail_as_the_loop_does(n, x, error):
    # the window arithmetic runs on int64 arrays, which these means would
    # overflow; at n x = inf the window's lower end is NaN
    want = _per_point(n, CATALOG["e1"], [1.0, x], DEFAULT_POLICY)
    assert want[0] is error
    assert _grid(n, CATALOG["e1"], [1.0, x], DEFAULT_POLICY) == want


def test_f_is_not_evaluated_below_the_windows():
    # at n = 1 the windows of x = 5000 ... 5003 all start at lo = 4096
    xs = [5000.0, 5001.0, 5002.5, 5003.0]
    assert {_poisson_weights(x, DEFAULT_POLICY)[0] for x in xs} == {4096}
    seen = []

    def f(u):
        u = np.asarray(u, dtype=float)
        seen.append(u.min())
        return np.where(u < 4096.0, math.nan, 1.0)

    values, _ = sm_apply_grid(1, f, xs)
    assert min(seen) == 4096.0
    np.testing.assert_allclose(values, 1.0, atol=1e-11)


def test_an_empty_grid_gives_empty_arrays():
    values, omitted = sm_apply_grid(5, CATALOG["e1"], [])
    assert values.shape == omitted.shape == (0,)
