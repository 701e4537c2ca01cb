"""Operator applications, moments, closed forms, and tail control."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import gammaln

import oplimits
import oplimits.operators

from oplimits import (
    CATALOG,
    TruncationPolicy,
    TruncationFailureError,
    baskakov_apply,
    bernstein_apply,
    make_geometric_grid,
    poisson_tail_bound,
    sm_apply,
    sm_centered_fourth_moment_bound,
    sm_exponential_closed_form,
    sm_moment,
    truncation_index,
    weighted_sup_norm,
)
from oplimits.operators import (
    DEFAULT_POLICY,
    _binomial_pmf,
    _negative_binomial_weights,
    _poisson_pmf,
    _poisson_weights,
)

SAMPLED_NX = [(1, 0.3), (1, 2.0), (3, 0.7), (5, 5.0), (10, 1.0),
              (10, 9.5), (31, 0.2), (100, 3.7), (400, 1.1), (1000, 0.9)]


class TestPoissonPmf:
    """The pmf reads log k! from a table that grows on demand."""

    @staticmethod
    def _direct(lam, k):
        return np.exp(-lam + k * np.log(lam) - gammaln(k + 1.0))

    def test_bits_equal_direct_evaluation_across_growth(self, monkeypatch):
        monkeypatch.setattr(oplimits.operators, "_log_factorials", np.empty(0))
        cases = [
            (3.0, np.arange(10)),
            (0.5, np.arange(0)),
            (250.0, np.arange(40, 600)),
            (17.0, np.array([7, 2000, 3])),
            (1e4, np.arange(20000)),
            (51200.0, np.arange(45000, 58000)),
            (2.0, np.arange(5)),
        ]
        sizes = []
        for lam, k in cases:
            got = _poisson_pmf(lam, k)
            assert got.shape == k.shape
            np.testing.assert_array_equal(got, self._direct(lam, k))
            sizes.append(oplimits.operators._log_factorials.size)
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1] == 58000

    def test_table_entries_are_gammaln_values(self, monkeypatch):
        monkeypatch.setattr(oplimits.operators, "_log_factorials", np.empty(0))
        _poisson_pmf(1.0, np.arange(100))
        _poisson_pmf(1.0, np.arange(101))  # grows by doubling
        table = oplimits.operators._log_factorials
        assert table.size == 200
        np.testing.assert_array_equal(table, gammaln(np.arange(200) + 1.0))

    def test_import_builds_no_table(self):
        src = os.path.dirname(os.path.dirname(oplimits.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             "import oplimits, oplimits.operators as o; print(o._log_factorials.size)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "0"


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
indices = st.integers(min_value=1, max_value=5000)
interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
half_line = st.floats(min_value=1e-6, max_value=10.0)


class TestLatticeLawsFromTable:
    """Binomial and negative-binomial weights read log k! from the table bit for bit."""

    @PROPERTY_SETTINGS
    @given(n=indices, p=interior)
    @example(n=1, p=0.5)
    def test_binomial_equals_gammaln_formula(self, n, p):
        k = np.arange(n + 1)
        direct = np.exp(
            gammaln(n + 1.0)
            - gammaln(k + 1.0)
            - gammaln(n - k + 1.0)
            + k * np.log(p)
            + (n - k) * np.log1p(-p)
        )
        np.testing.assert_array_equal(_binomial_pmf(n, p, k), direct)

    @PROPERTY_SETTINGS
    @given(n=indices, x=half_line)
    @example(n=1, x=0.5)
    def test_negative_binomial_equals_gammaln_formula(self, n, x):
        k, w, _ = _negative_binomial_weights(n, x, DEFAULT_POLICY)
        direct = np.exp(
            gammaln(n + k.astype(float))
            - gammaln(k + 1.0)
            - gammaln(float(n))
            + k * np.log(x)
            - (n + k) * np.log1p(x)
        )
        np.testing.assert_array_equal(w, direct)

    def test_scalar_index_grows_the_table(self, monkeypatch):
        monkeypatch.setattr(oplimits.operators, "_log_factorials", np.empty(0))
        assert oplimits.operators._log_factorial(7) == gammaln(8.0)
        assert oplimits.operators._log_factorials.size == 8


def _one(u):
    return np.ones_like(np.asarray(u, dtype=float))


def _identity(u):
    return np.asarray(u, dtype=float)


# Log-space weights carry a rounding error of about eps * log K! each: at
# n = 5000 and x = 10 (means up to 5e4) 1 and x come back within a relative
# 6e-10.  The omitted tail (at most tail_eps = 1e-12 of mass, beyond K/n)
# lowers the average of x by up to a few 1e-12 absolute, which is a large
# relative error when x is 1e-6.
PRESERVATION = dict(rel=1e-9, abs=1e-10)


class TestOperatorProperties:
    """Positivity and preservation of 1 and x, over random (n, x)."""

    @PROPERTY_SETTINGS
    @given(n=indices, u=interior, x=half_line,
           c=st.floats(min_value=0.0, max_value=5.0))
    @example(n=1, u=0.5, x=0.5, c=0.0)
    def test_positive_functions_map_to_positive_values(self, n, u, x, c):
        f = lambda v: np.exp(-c * np.asarray(v, dtype=float))
        assert bernstein_apply(n, f, u) > 0.0
        assert sm_apply(n, f, x).value > 0.0
        assert baskakov_apply(n, f, x).value > 0.0

    @PROPERTY_SETTINGS
    @given(n=indices, u=interior, x=half_line)
    @example(n=1, u=0.5, x=0.5)
    def test_constants_and_x_are_preserved(self, n, u, x):
        assert bernstein_apply(n, _one, u) == pytest.approx(1.0, **PRESERVATION)
        assert bernstein_apply(n, _identity, u) == pytest.approx(u, **PRESERVATION)
        for apply in (sm_apply, baskakov_apply):
            assert apply(n, _one, x).value == pytest.approx(1.0, **PRESERVATION)
            assert apply(n, _identity, x).value == pytest.approx(x, **PRESERVATION)


class TestSzaszMirakyan:
    def test_preserves_constants(self):
        # slack beyond the omitted mass covers log-space weight roundoff,
        # which grows like eps * lam * log(lam)
        for n, x in SAMPLED_NX:
            out = sm_apply(n, CATALOG["e0"], x)
            assert abs(out.value - 1.0) <= out.omitted_mass + 5e-12

    def test_reproduces_identity(self):
        for n, x in SAMPLED_NX:
            assert sm_apply(n, CATALOG["e1"], x).value == pytest.approx(x, abs=1e-9)

    def test_second_moment_identity(self):
        # the omitted tail is weighted by lattice values up to (K/n)^2, which
        # dominates (1+x)^2 when n is small
        for n, x in SAMPLED_NX:
            got = sm_apply(n, CATALOG["e2"], x).value
            K = truncation_index(n, x)
            tol = DEFAULT_POLICY.tail_eps * (10 * (1 + x) ** 2 + 2 * (K / n) ** 2)
            assert abs(got - (x ** 2 + x / n)) <= tol + 1e-12

    def test_exponential_matches_closed_form(self):
        # independent transcription: exp(-n x (1 - exp(-lam/n)))
        direct = math.exp(-10 * 2.0 * (1.0 - math.exp(-1.0 / 10)))
        assert direct == pytest.approx(0.149083, abs=1e-6)
        got = sm_apply(10, CATALOG["f1"], 2.0)
        assert got.value == pytest.approx(direct, abs=1e-10)
        assert sm_exponential_closed_form(10, 1.0, 2.0) == pytest.approx(direct, rel=1e-15)

    def test_closed_form_agreement_across_policies(self):
        for n, x in [(1, 0.5), (10, 2.0), (100, 7.0), (100, 50.0)]:
            for lam in (1.0, 2.0, 3.0):
                f = CATALOG[f"f{int(lam)}"]
                series = sm_apply(n, f, x).value
                closed = sm_exponential_closed_form(n, lam, x)
                assert abs(series - closed) <= DEFAULT_POLICY.tail_eps + 1e-14

    def test_at_origin(self):
        out = sm_apply(7, CATALOG["f2"], 0.0)
        assert out.value == 1.0 and out.omitted_mass == 0.0

    def test_closed_form_approaches_exponential(self):
        # n(1 - exp(-lam/n)) increases to lam, so the closed form decreases
        # to exp(-lam x) from above
        target = math.exp(-2.0)
        vals = [sm_exponential_closed_form(n, 1.0, 2.0) for n in (10, 100, 10 ** 4, 10 ** 6)]
        assert all(a > b > target for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(target, abs=1e-6)

    def test_positivity(self):
        for n, x in SAMPLED_NX:
            for label in ("xexp", "f1", "cauchy"):
                assert sm_apply(n, CATALOG[label], x).value >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sm_apply(0, CATALOG["e0"], 1.0)
        with pytest.raises(ValueError):
            sm_apply(3, CATALOG["e0"], -0.5)


class TestBernstein:
    def test_identity_exact(self):
        for n in (1, 5, 40):
            for x in (0.0, 0.2, 0.5, 0.99, 1.0):
                assert bernstein_apply(n, CATALOG["e1"], x) == pytest.approx(x, abs=1e-14)

    def test_constants_exact(self):
        f = lambda u: 3.25 * np.ones_like(np.asarray(u, dtype=float))
        for n in (1, 7):
            assert bernstein_apply(n, f, 0.37) == pytest.approx(3.25, abs=1e-14)

    def test_quadratic_brute_force(self):
        # n=2, x=0.5: weights (1/4, 1/2, 1/4) on values (0, 1/4, 1)
        assert bernstein_apply(2, CATALOG["e2"], 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bernstein_apply(3, CATALOG["e1"], 1.1)
        with pytest.raises(ValueError):
            bernstein_apply(3, CATALOG["e1"], -0.1)

    def test_positivity(self):
        rng = np.random.default_rng(5)
        f = lambda u: np.abs(np.sin(7 * np.asarray(u, dtype=float)))
        for _ in range(20):
            n = int(rng.integers(1, 50))
            x = float(rng.uniform(0, 1))
            assert bernstein_apply(n, f, x) >= 0.0


class TestBaskakov:
    def test_preserves_constants(self):
        for n, x in [(1, 0.5), (5, 2.0), (20, 10.0)]:
            out = baskakov_apply(n, CATALOG["e0"], x)
            assert abs(out.value - 1.0) <= out.omitted_mass + 1e-14

    def test_reproduces_identity(self):
        for n, x in [(1, 0.5), (5, 2.0), (20, 10.0), (50, 0.3)]:
            assert baskakov_apply(n, CATALOG["e1"], x).value == pytest.approx(x, abs=1e-8)

    def test_n1_identity_at_one_brute_force(self):
        # weights 2^-(k+1) on values k: sum k 2^-(k+1) = 1
        brute = sum(k * 0.5 ** (k + 1) for k in range(200))
        got = baskakov_apply(1, CATALOG["e1"], 1.0).value
        assert got == pytest.approx(brute, abs=1e-10)
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_positivity_and_origin(self):
        assert baskakov_apply(4, CATALOG["xexp"], 3.0).value >= 0.0
        assert baskakov_apply(4, CATALOG["f1"], 0.0).value == 1.0

    def test_heavy_geometric_tail_is_cut_honestly(self):
        # at n = 1 the weights are geometric with ratio x/(1+x); reaching
        # tail_eps at x = 50 needs ~1400 terms, well past a purely
        # deviation-based window
        out = baskakov_apply(1, CATALOG["e1"], 50.0)
        assert 0.0 < out.omitted_mass <= DEFAULT_POLICY.tail_eps
        assert out.value == pytest.approx(50.0, abs=1e-8)


class TestMoments:
    def test_worked_values(self):
        assert sm_moment(3, 1, 2.0) == 6.0
        assert sm_moment(3, 2, 2.0) == 42.0
        assert sm_moment(1, 4, 1.0) == 15.0

    def test_brute_force_agreement_small_means(self):
        # the k^p weight amplifies the omitted tail, so the oracle needs a
        # far deeper cutoff than the default evaluation policy
        deep = TruncationPolicy(tail_eps=1e-30)
        for n, x in [(1, 0.5), (2, 1.0), (3, 2.0), (5, 2.4)]:
            k, w, _ = _poisson_weights(n * x, deep)
            for p in (1, 2, 3, 4):
                brute = float(w @ (k.astype(float) ** p))
                assert sm_moment(n, p, x) == pytest.approx(brute, abs=1e-10)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            sm_moment(3, 5, 1.0)

    def test_centered_fourth_moment(self):
        assert sm_centered_fourth_moment_bound(1, 1.0) == 4.0
        assert sm_centered_fourth_moment_bound(17, 0.0) == 0.0
        assert sm_centered_fourth_moment_bound(10, 2.0) == pytest.approx(0.122, abs=1e-15)

    def test_centered_fourth_moment_brute_force(self):
        n, x = 3, 1.0
        k, w, _ = _poisson_weights(n * x, TruncationPolicy(tail_eps=1e-30))
        brute = float(w @ (k / n - x) ** 4)
        assert sm_centered_fourth_moment_bound(n, x) == pytest.approx(brute, abs=1e-12)


class TestTailBound:
    def test_worked_values(self):
        assert poisson_tail_bound(100, 1.0, 1.0) == pytest.approx(2 * math.exp(-25), rel=1e-12)
        # vacuous bound above 1 is returned unclipped
        assert poisson_tail_bound(1, 0.0, 1.0) == pytest.approx(2 * math.exp(-0.5), rel=1e-12)
        assert poisson_tail_bound(1, 0.0, 1.0) > 1.0

    def test_monotone_in_n(self):
        vals = [poisson_tail_bound(n, 1.0, 0.5) for n in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_tail_bound(10, 1.0, 0.0)

    def test_empirical_concentration(self):
        n, x, delta = 50, 2.0, 0.5
        rng = np.random.default_rng(123)
        draws = rng.poisson(n * x, size=200_000) / n
        freq = float(np.mean(np.abs(draws - x) >= delta))
        stderr = math.sqrt(max(freq * (1 - freq), 1e-12) / draws.size)
        assert freq <= poisson_tail_bound(n, x, delta) + 5 * stderr


class TestTruncationIndex:
    def test_zero_mean(self):
        assert truncation_index(5, 0.0) == 0

    def test_exact_smallest_cutoff(self):
        # independent oracle: the survival function of the Poisson law
        K = truncation_index(10, 1.0, TruncationPolicy(tail_eps=1e-12))
        assert stats.poisson.sf(K, 10.0) <= 1e-12
        assert stats.poisson.sf(K - 1, 10.0) > 1e-12
        assert K == 39

    def test_monotone_in_tolerance(self):
        eps = [1e-14, 1e-12, 1e-8, 1e-4, 1e-2]
        ks = [truncation_index(10, 1.0, TruncationPolicy(tail_eps=e)) for e in eps]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_max_terms_exceeded(self):
        with pytest.raises(TruncationFailureError):
            truncation_index(1000, 50.0, TruncationPolicy(tail_eps=1e-12, max_terms=100))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_eps=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_eps=1.5)


class TestWeightedContraction:
    # The quadratic is excluded: the operator maps x^2 to x^2 + x/n, which
    # genuinely inflates polynomially weighted sup norms (at n = 1 the
    # alpha = 3 norm nearly doubles), so no contraction holds for it.
    @pytest.mark.parametrize("label,alpha", [
        ("e0", 2.0), ("e1", 2.0), ("f1", 2.0), ("f2", 2.0), ("f3", 2.0),
        ("xexp", 2.0), ("cauchy", 2.0),
    ])
    def test_operator_norm_does_not_grow(self, label, alpha):
        # grid max of the image vs a 4x finer grid max of the function:
        # the finer max is a better lower bound of the true norm, so the
        # comparison leaves only documented grid slack.
        f = CATALOG[label]
        grid = make_geometric_grid(50.0, 120, 40)
        for n in (5, 50):
            image = np.array([sm_apply(n, f, float(x)).value for x in grid.points])
            img_fn = lambda u, image=image, pts=grid.points: np.interp(u, pts, image)
            lhs = weighted_sup_norm(img_fn, grid, alpha)
            rhs = weighted_sup_norm(f, grid.refine(4), alpha)
            assert lhs <= rhs + 1e-8


class TestOperatorInstance:
    """The three operator families through their ``*_apply`` functions."""

    def test_dispatch(self):
        x = 0.5
        assert sm_apply(10, CATALOG["e1"], x).value == pytest.approx(x, abs=1e-9)
        assert bernstein_apply(10, CATALOG["e1"], x) == pytest.approx(x, abs=1e-14)
        assert baskakov_apply(10, CATALOG["e1"], x).value == pytest.approx(x, abs=1e-8)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            bernstein_apply(0, CATALOG["e1"], 0.5)
