"""Operator applications, moments, closed forms, and tail control."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import gammaln, pdtrc

import oplimits
import oplimits.operators

from oplimits import (
    CATALOG,
    TruncationPolicy,
    TruncationFailureError,
    baskakov_apply,
    bernstein_apply,
    bernstein_kernel,
    build_sm_kernel,
    chain_terminal_values,
    kelisky_rivlin_reference,
    kernel_iterate,
    lattice_cutoff,
    make_geometric_grid,
    sm_apply,
    sm_exponential_closed_form,
    sm_moment,
    truncation_index,
    weight_eval,
)
from oplimits.operators import (
    DEFAULT_POLICY,
    _binomial_pmf,
    _log_factorial_table,
    _log_factorials,
    _negative_binomial_weights,
    _poisson_pmf,
    _poisson_weights,
)

SAMPLED_NX = [(1, 0.3), (1, 2.0), (3, 0.7), (5, 5.0), (10, 1.0),
              (10, 9.5), (31, 0.2), (100, 3.7), (400, 1.1), (1000, 0.9)]


class TestPoissonPmf:
    """The pmf on lo..hi reads log k! from a table that grows on demand."""

    @staticmethod
    def _direct(lam, k):
        return np.exp(-lam + k * np.log(lam) - gammaln(k + 1.0))

    def test_bits_equal_direct_evaluation_across_growth(self, monkeypatch):
        monkeypatch.setattr(oplimits.operators, "_log_factorial_cache", np.empty(0))
        # (lam, lo, hi); at lam = 1e4 and 51200 the range starts inside the
        # prefix that underflows to 0.0, at 51200 also above it
        cases = [
            (3.0, 0, 9),
            (0.5, 0, -1),
            (250.0, 40, 599),
            (17.0, 1990, 2000),
            (1e4, 0, 19999),
            (1e4, 5000, 12000),
            (51200.0, 45000, 57999),
            (51200.0, 0, 51200),
            (2.0, 0, 4),
        ]
        sizes = []
        for lam, lo, hi in cases:
            k = np.arange(lo, hi + 1)
            got = _poisson_pmf(lam, lo, hi)
            assert got.shape == k.shape
            np.testing.assert_array_equal(got, self._direct(lam, k))
            sizes.append(oplimits.operators._log_factorial_cache.size)
        assert sizes == sorted(sizes)
        assert sizes[0] < sizes[-1] == 58000

    @pytest.mark.parametrize("first, lo, hi", [(1.0, 0, 90), (5000.0, 0, 6000),
                                                (51200.0, 40000, 53500)])
    def test_column_of_means_gives_the_rows_of_single_means(self, first, lo, hi):
        # 64 ascending means, as a kernel block has; from 5000 on, the range
        # starts where the first means' terms underflow to 0.0
        lams = first + np.arange(64.0)
        block = _poisson_pmf(lams[:, None], lo, hi)
        assert block.shape == (64, hi - lo + 1)
        for lam, row in zip(lams, block):
            np.testing.assert_array_equal(row, _poisson_pmf(float(lam), lo, hi))

    # short windows go through one evaluation, long ones (1,024 terms or
    # more on average) one at a time
    @pytest.mark.parametrize("lams, los, his", [
        ([0.3, 7.0, 7.5, 250.0], [0, 0, 3, 40], [9, 30, 30, 400]),
        ([5000.0, 5100.0], [4096, 4096], [6500, 6600]),
        ([2.0], [0], [0]),
    ])
    def test_concatenated_windows_give_the_windows_of_single_means(self, lams, los, his):
        lams, los, his = np.array(lams), np.array(los), np.array(his)
        buffer = np.full((his - los + 1).sum() + 1, -1.0)
        got = _poisson_pmf(lams, los, his, out=buffer[:-1])
        assert got.base is buffer and buffer[-1] == -1.0
        want = [_poisson_pmf(float(lam), int(lo), int(hi)) for lam, lo, hi in zip(lams, los, his)]
        np.testing.assert_array_equal(got, np.concatenate(want))
        np.testing.assert_array_equal(_poisson_pmf(lams, los, his), got)

    @pytest.mark.parametrize("lam, lo, hi", [(7.0, 0, 30), (5000.0, 3000, 7000)])
    def test_writes_into_the_given_slice(self, lam, lo, hi):
        buffer = np.full(hi - lo + 3, -1.0)
        row = buffer[1:-1]
        assert _poisson_pmf(lam, lo, hi, out=row) is row
        np.testing.assert_array_equal(row, self._direct(lam, np.arange(lo, hi + 1)))
        assert buffer[0] == buffer[-1] == -1.0

    def test_table_entries_are_gammaln_values(self, monkeypatch):
        monkeypatch.setattr(oplimits.operators, "_log_factorial_cache", np.empty(0))
        _poisson_pmf(1.0, 0, 99)
        _poisson_pmf(1.0, 0, 100)  # grows by doubling
        table = oplimits.operators._log_factorial_cache
        assert table.size == 200
        np.testing.assert_array_equal(table, gammaln(np.arange(200) + 1.0))

    # growth steps whose pieces straddle x = k + 1 = 13 (exact to Stirling)
    # and x = 1000 (polynomial to three-term correction), and one call
    @pytest.mark.parametrize("sizes", [(13, 4096, 10000, 59392), (100, 5000, 60000, 200000),
                                       (59392,)])
    def test_table_grown_in_pieces_equals_one_evaluation(self, monkeypatch, sizes):
        monkeypatch.setattr(oplimits.operators, "_log_factorial_cache", np.empty(0))
        for size in sizes:
            table = _log_factorial_table(size)
        assert table.size == sizes[-1]
        np.testing.assert_array_equal(table, _log_factorials(0, table.size))
        np.testing.assert_array_equal(table, gammaln(np.arange(table.size) + 1.0))

    def test_growth_keeps_its_temporaries_small(self, monkeypatch):
        # the default Voronovskaya run's last growth; the new table alone is 0.48 MB
        monkeypatch.setattr(oplimits.operators, "_log_factorial_cache", _log_factorials(0, 29696))
        tracemalloc.start()
        try:
            _log_factorial_table(59392)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oplimits.operators._log_factorial_cache.size == 59392
        assert peak < 1.2e6

    def test_import_builds_no_table(self):
        src = os.path.dirname(os.path.dirname(oplimits.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             "import oplimits, oplimits.operators as o; print(o._log_factorial_cache.size)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "0"


class TestLogFactorials:
    """The libm port of Cephes lgam returns gammaln's doubles on every branch."""

    def test_first_two_to_the_twenty_equal_gammaln(self):
        k = np.arange(2 ** 20)
        np.testing.assert_array_equal(_log_factorials(0, 2 ** 20), gammaln(k + 1.0))

    # x = k + 1 crosses 1000 (polynomial to three-term correction) and 1e8
    # (correction to none) inside these windows; 2^31 is past the int32 range
    @pytest.mark.parametrize("centre", [10 ** 3, 10 ** 8, 2 ** 31])
    def test_windows_across_branch_points_equal_gammaln(self, centre):
        lo = centre - 500
        np.testing.assert_array_equal(_log_factorials(lo, lo + 1000),
                                      gammaln(np.arange(lo, lo + 1000) + 1.0))

    def test_windows_starting_inside_the_exact_range(self):
        for lo, hi in [(0, 0), (3, 5), (11, 14), (12, 13), (13, 40)]:
            got = _log_factorials(lo, hi)
            assert got.shape == (hi - lo,)
            np.testing.assert_array_equal(got, gammaln(np.arange(lo, hi) + 1.0))


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
        lo, w, _, _ = _negative_binomial_weights(n, x, DEFAULT_POLICY)
        k = np.arange(lo, lo + w.size)
        direct = np.exp(
            gammaln(n + k.astype(float))
            - gammaln(k + 1.0)
            - gammaln(float(n))
            + k * np.log(x)
            - (n + k) * np.log1p(x)
        )
        np.testing.assert_array_equal(w, direct)

    def test_scalar_index_grows_the_table(self, monkeypatch):
        monkeypatch.setattr(oplimits.operators, "_log_factorial_cache", np.empty(0))
        assert _log_factorial_table(8)[7] == gammaln(8.0)
        assert oplimits.operators._log_factorial_cache.size == 8


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

    def test_closed_form_on_an_array_equals_scalar_calls(self):
        x = np.array([0.0, 0.25, 1.0, 7.5, 300.0])
        got = sm_exponential_closed_form(50, 2.0, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        expected = [sm_exponential_closed_form(50, 2.0, float(v)) for v in x]
        assert all(type(v) is float for v in expected)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_closed_form_rejects_any_bad_point(self, bad):
        with pytest.raises(ValueError, match=r"^x must be finite and nonnegative"):
            sm_exponential_closed_form(5, 1.0, np.array([0.5, bad, 1.0]))

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


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda x: sm_apply(3, CATALOG["e0"], x),
    lambda x: baskakov_apply(3, CATALOG["e0"], x),
    lambda x: truncation_index(3, x),
    lambda x: sm_moment(3, 1, x),
    lambda x: chain_terminal_values(3, 2, x, 4, _rng()),
], ids=["sm_apply", "baskakov_apply", "truncation_index", "sm_moment", "chain"])
def test_non_finite_x_is_rejected(call, x):
    with pytest.raises(ValueError, match="^x must be finite"):
        call(x)


def _rng():
    return np.random.default_rng(0)


# Each call passes one index or point that is not a finite integer (or not
# finite), and the ValueError must name that argument.
@pytest.mark.parametrize("name, call", [
    ("n", lambda: sm_apply(math.inf, CATALOG["e0"], 1.0)),
    ("n", lambda: sm_apply(math.nan, CATALOG["e0"], 1.0)),
    ("n", lambda: bernstein_apply(math.inf, CATALOG["e0"], 0.5)),
    ("n", lambda: baskakov_apply(math.nan, CATALOG["e0"], 1.0)),
    ("x_max", lambda: lattice_cutoff(8, math.inf)),
    ("x_max", lambda: lattice_cutoff(8, math.nan)),
    ("n", lambda: lattice_cutoff(math.inf, 1.0)),
    ("n", lambda: chain_terminal_values(math.inf, 2, 1.0, 4, _rng())),
    ("k", lambda: chain_terminal_values(5, 2.5, 1.0, 4, _rng())),
    ("k", lambda: chain_terminal_values(5, math.inf, 1.0, 4, _rng())),
    ("k", lambda: kernel_iterate(build_sm_kernel(2, 4), CATALOG["e0"], 2.5)),
    ("k", lambda: kernel_iterate(build_sm_kernel(2, 4), CATALOG["e0"], math.nan)),
    ("K", lambda: build_sm_kernel(8, 2.5)),
    ("K", lambda: build_sm_kernel(8, math.inf)),
    ("n", lambda: build_sm_kernel(math.inf, 10)),
    ("n", lambda: build_sm_kernel(2.5, 10)),
    ("n", lambda: bernstein_kernel(math.inf)),
    ("n", lambda: bernstein_kernel(2.5)),
    ("n", lambda: sm_apply(10 ** 400, CATALOG["e0"], 1.0)),
    # beyond Python's 4,300-digit limit on int-to-string conversion
    ("n", lambda: sm_apply(10 ** 5000, CATALOG["e0"], 1.0)),
    ("n", lambda: sm_apply(-10 ** 5000, CATALOG["e0"], 1.0)),
    ("n", lambda: baskakov_apply(2 ** 53 + 1, CATALOG["e0"], 1.0)),
    ("K", lambda: build_sm_kernel(8, 10 ** 400)),
    ("size", lambda: chain_terminal_values(5, 2, 1.0, 10 ** 400, _rng())),
    ("max_terms", lambda: TruncationPolicy(max_terms=10 ** 400)),
    ("x", lambda: bernstein_apply(4, CATALOG["e0"], math.inf)),
    ("x", lambda: bernstein_apply(4, CATALOG["e0"], -math.inf)),
    ("x_max", lambda: lattice_cutoff(8, -math.inf)),
    ("tail_eps", lambda: lattice_cutoff(8, 1.0, math.inf)),
    ("tail_eps", lambda: build_sm_kernel(8, 10, math.inf)),
    ("tail_eps", lambda: build_sm_kernel(8, 10, -math.inf)),
    ("tail_eps", lambda: TruncationPolicy(tail_eps=math.inf)),
    ("tail_eps", lambda: TruncationPolicy(tail_eps=-math.inf)),
    ("x", lambda: kelisky_rivlin_reference(CATALOG["e0"], math.inf)),
    ("x", lambda: kelisky_rivlin_reference(CATALOG["e0"], -math.inf)),
], ids=[
    "sm_apply-n-inf", "sm_apply-n-nan", "bernstein_apply-n-inf", "baskakov_apply-n-nan",
    "lattice_cutoff-x_max-inf", "lattice_cutoff-x_max-nan", "lattice_cutoff-n-inf",
    "chain-n-inf", "chain-k-fraction", "chain-k-inf",
    "kernel_iterate-k-fraction", "kernel_iterate-k-nan",
    "build_sm_kernel-K-fraction", "build_sm_kernel-K-inf",
    "build_sm_kernel-n-inf", "build_sm_kernel-n-fraction",
    "bernstein_kernel-n-inf", "bernstein_kernel-n-fraction",
    "sm_apply-n-huge", "sm_apply-n-5001-digits", "sm_apply-n-minus-5001-digits",
    "baskakov_apply-n-above-2^53", "build_sm_kernel-K-huge", "chain-size-huge",
    "policy-max_terms-huge", "bernstein_apply-x-inf", "bernstein_apply-x-minus-inf",
    "lattice_cutoff-x_max-minus-inf", "lattice_cutoff-tail_eps-inf",
    "build_sm_kernel-tail_eps-inf", "build_sm_kernel-tail_eps-minus-inf",
    "policy-tail_eps-inf", "policy-tail_eps-minus-inf",
    "kelisky_rivlin_reference-x-inf", "kelisky_rivlin_reference-x-minus-inf",
])
def test_bad_index_is_rejected_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()


@pytest.mark.parametrize("n, shown", [
    (10 ** 400, "an integer of 401 digits"),
    (10 ** 5000 - 1, "an integer of 5000 digits"),
    (-10 ** 5000, "a negative integer of 5001 digits"),
    (2 ** 53 + 1, "an integer of 16 digits"),
    (-7, "-7"),
], ids=["401-digits", "5000-digits", "minus-5001-digits", "above-2^53", "minus-7"])
def test_rejected_index_is_shown_in_bounded_form(n, shown):
    with pytest.raises(ValueError) as excinfo:
        sm_apply(n, CATALOG["e0"], 1.0)
    assert str(excinfo.value).endswith(f", got {shown}")


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


# log10 of Poisson means spread evenly over [1e-3, 5e4]
poisson_log_means = st.floats(min_value=-3.0, max_value=math.log10(5e4))


class TestMoments:
    def test_worked_values(self):
        assert sm_moment(3, 1, 2.0) == 6.0
        assert sm_moment(3, 2, 2.0) == 42.0

    def test_brute_force_agreement_small_means(self):
        # the k^p weight amplifies the omitted tail, so the oracle needs a
        # far deeper cutoff than the default evaluation policy
        deep = TruncationPolicy(tail_eps=1e-30)
        for n, x in [(1, 0.5), (2, 1.0), (3, 2.0), (5, 2.4)]:
            lo, w, _, _ = _poisson_weights(n * x, deep)
            k = np.arange(lo, lo + w.size)
            for p in (1, 2):
                brute = float(w @ (k.astype(float) ** p))
                assert sm_moment(n, p, x) == pytest.approx(brute, abs=1e-10)

    def test_invalid_order(self):
        for p in (0, 3):
            with pytest.raises(ValueError):
                sm_moment(3, p, 1.0)

    # Over lam in [1e-3, 5e4] the polynomials match the weighted sums within
    # a relative 5.8e-11 at worst (4,000 log-spaced means; lam ~ 3.0e4,
    # p = 2), the rounding of the pmf terms, whose mass misses 1 by about
    # 1e-11 at such means.
    @PROPERTY_SETTINGS
    @given(log_lam=poisson_log_means, p=st.integers(min_value=1, max_value=2))
    @example(log_lam=math.log10(30164.386), p=2)
    def test_polynomials_equal_weighted_sums(self, log_lam, p):
        lam = 10.0 ** log_lam
        lo, w, _, _ = _poisson_weights(lam, TruncationPolicy(tail_eps=1e-15))
        k = np.arange(lo, lo + w.size)
        brute = float(w @ k.astype(float) ** p)
        assert sm_moment(1, p, lam) == pytest.approx(brute, rel=1e-9)


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

    @pytest.mark.parametrize("law, max_terms, call", [
        ("mean", 10 ** 6, lambda: truncation_index(10, 1e308)),
        ("mean", 10 ** 6, lambda: sm_apply(10, CATALOG["f1"], 1e308)),
        ("Baskakov mean", 10 ** 6, lambda: baskakov_apply(10, CATALOG["f1"], 1e308)),
        ("mean", 10 ** 8, lambda: lattice_cutoff(8, 1e308)),
    ], ids=["truncation_index", "sm_apply", "baskakov_apply", "lattice_cutoff"])
    def test_overflowing_mean_is_named(self, law, max_terms, call):
        # x is finite but n x overflows to inf, which no window holds
        with pytest.raises(TruncationFailureError,
                           match=rf"^series window for {law} inf needs more than "
                                 rf"max_terms={max_terms} terms"):
            call()

    # pdtrc(K, lam) is the Poisson mass beyond K.  The certified tail is
    # exact up to rounding (worst measured ratio 1 + 7e-11), and one term
    # fewer already leaves more than tail_eps behind (worst 1.0009 tail_eps).
    @PROPERTY_SETTINGS
    @given(log_lam=poisson_log_means, log_eps=st.floats(min_value=-15.0, max_value=-6.0))
    @example(log_lam=-3.0, log_eps=-15.0)
    def test_certified_cut_is_rigorous_and_minimal(self, log_lam, log_eps):
        lam, tail_eps = 10.0 ** log_lam, 10.0 ** log_eps
        lo, w, omitted, _ = _poisson_weights(lam, TruncationPolicy(tail_eps=tail_eps))
        K = lo + w.size - 1
        assert omitted <= tail_eps
        assert pdtrc(K, lam) <= omitted * (1.0 + 1e-9)
        assert pdtrc(K - 1, lam) >= tail_eps * (1.0 - 1e-3)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(tail_eps=0.0)
        with pytest.raises(ValueError):
            TruncationPolicy(tail_eps=1.5)

    @pytest.mark.parametrize("max_terms", [0, 2.5, math.nan, math.inf])
    def test_max_terms_must_be_a_positive_integer(self, max_terms):
        # a NaN cap would never stop _cut_at_tail
        with pytest.raises(ValueError, match=r"^max_terms must be an integer >= 1"):
            TruncationPolicy(max_terms=max_terms)


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
        # the finer grid holds every point of the coarse one
        fine = make_geometric_grid(50.0, 477, 160).points
        rhs = float(np.max(np.abs(weight_eval(alpha, fine) * f(fine))))
        for n in (5, 50):
            image = np.array([sm_apply(n, f, float(x)).value for x in grid.points])
            lhs = float(np.max(np.abs(weight_eval(alpha, grid.points) * image)))
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
