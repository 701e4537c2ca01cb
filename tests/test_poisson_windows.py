"""Series windows against full-window references and tail laws, and the lattice-average checks.

The Poisson references below evaluate every pmf term on 0..hi and take the
tail from a reversed cumulative sum over the whole window, as the windows
were first written, starting at the same Bernstein top hi.  The windows in
use start at a certified lower end lo and skip tail sums that cannot reach
the cut, so K, the upper tail and every weight in lo..K must come back bit
for bit, and the mass below lo must lie within its reported bound.  A
negative-binomial window sums no tail: SciPy's tail laws check that each
of its closed-form ends bounds the mass beyond it.
"""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln, nbdtr, nbdtrc, pdtr, pdtrc

import oplimits
import oplimits.operators
from oplimits import (
    CATALOG,
    EvaluationError,
    TruncationFailureError,
    TruncationPolicy,
    baskakov_apply,
    bernstein_apply,
    sm_apply,
    sm_apply_grid,
)
from oplimits.harness import ExperimentConfig, run_experiment
from oplimits.operators import (
    _DOT_PIECE,
    DEFAULT_POLICY,
    _lower_end,
    _negative_binomial_weights,
    _poisson_start,
    _poisson_weights,
)


def _full_cut_at_tail(hi, pmf, ratio_beyond, policy):
    while True:
        k = np.arange(hi + 1)
        p = pmf(k)
        ratio = ratio_beyond(hi)
        if ratio < 1.0:
            remainder = p[-1] * ratio / (1.0 - ratio)
            tail = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]]) + remainder
            cut = np.nonzero(tail <= policy.tail_eps)[0]
            if cut.size:
                K = int(cut[0])
                return k[: K + 1], p[: K + 1], float(tail[K])
        hi *= 2


def _top(lam, tail_eps):
    """The Bernstein point above which Poisson(lam) has mass <= tail_eps 2^-53."""
    L = -math.log(tail_eps) + 53.0 * math.log(2.0)
    return math.ceil(lam + L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * L * lam))


def _full_poisson_weights(lam, policy):
    return _full_cut_at_tail(
        _top(lam, policy.tail_eps),
        lambda k: np.exp(-lam + k * np.log(lam) - gammaln(k + 1.0)),
        lambda hi: lam / (hi + 1.0),
        policy,
    )


def _assert_same_window(got, want):
    """K, the upper tail and the weights from lo on equal the reference's bits.

    ``got`` is a window ``(lo, w, tail)``, or ``(lo, w, tail, below)`` with
    the bound ``below`` on the mass the window leaves under lo, which must
    hold for the reference's own weights there.
    """
    (lo, w, tail), (k_ref, w_ref, tail_ref) = got[:3], want
    assert 0 <= lo and lo + w.size - 1 == k_ref[-1]
    np.testing.assert_array_equal(w, w_ref[lo:])
    assert tail.hex() == tail_ref.hex()
    below = got[3] if len(got) == 4 else 0.0
    assert w_ref[:lo].sum() <= below


WINDOW_SETTINGS = settings(max_examples=80, deadline=None)
tail_eps_values = st.sampled_from([1e-6, 1e-12, 1e-15])
# windows start above k = 0 from lam = 774.064 on (lo = 512), and the
# underflow prefix starts at lam = 2 * 746 = 1492
poisson_means = st.one_of(
    st.floats(min_value=-12.0, max_value=5.0).map(lambda e: 10.0 ** e),
    st.floats(min_value=700.0, max_value=850.0),
    st.floats(min_value=1400.0, max_value=1600.0),
)


class TestBitsOfTheFullWindow:
    @WINDOW_SETTINGS
    @given(lam=poisson_means, tail_eps=tail_eps_values)
    @example(lam=1e5, tail_eps=1e-15)
    @example(lam=1492.0, tail_eps=1e-12)
    @example(lam=1493.0, tail_eps=1e-12)
    @example(lam=1491.9, tail_eps=1e-6)
    @example(lam=5e-324, tail_eps=1e-12)
    @example(lam=774.06, tail_eps=1e-12)
    @example(lam=774.07, tail_eps=1e-12)
    @example(lam=4e5, tail_eps=1e-12)
    # summed from a top 20 standard deviations above the mean, this tail
    # would end in ...192p-51 instead of ...190p-51
    @example(lam=1557.1848999999786, tail_eps=1e-15)
    def test_poisson(self, lam, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        _assert_same_window(_poisson_weights(lam, policy),
                            _full_poisson_weights(lam, policy))

    # a loose tolerance puts the cut below the floor, where the tail sum
    # must widen to the whole window; at 1e-300 the pmf at the cut is below
    # 1e-300, and at tail_eps = 5e-324 every tail that meets it is 0.  The
    # Poisson(3000) window (lo = 2048) sums to 1 - 6.2e-13 with its
    # remainder, so at 1 - 5e-13 every tail meets the tolerance and the cut
    # falls below lo, to K = 0
    @pytest.mark.parametrize("tail_eps", [0.5, 0.9, 0.999999, 1 - 5e-13, 1e-300, 5e-324])
    @pytest.mark.parametrize("lam", [0.3, 7.0, 250.0, 3000.0])
    def test_poisson_cut_anywhere_in_the_window(self, lam, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        _assert_same_window(_poisson_weights(lam, policy),
                            _full_poisson_weights(lam, policy))

    # a tail equal to tail_eps meets it: with tail_eps set to a cut's own
    # omitted mass, the cut must not move
    @pytest.mark.parametrize("lam", [0.3, 30.0, 4000.0])
    def test_tail_equal_to_tail_eps_is_cut(self, lam):
        _, _, omitted = _full_poisson_weights(lam, DEFAULT_POLICY)
        policy = TruncationPolicy(tail_eps=omitted)
        _assert_same_window(_poisson_weights(lam, policy),
                            _full_poisson_weights(lam, policy))
        assert _poisson_weights(lam, policy)[2] == omitted


class TestTopOfTheWindow:
    # pdtrc(k, lam) is the Poisson(lam) mass above k
    @WINDOW_SETTINGS
    @given(lam=st.one_of(poisson_means, st.floats(min_value=1e3, max_value=1e6)),
           tail_eps=st.sampled_from([0.5, 1e-6, 1e-12, 1e-15, 1e-30, 1e-300]))
    @example(lam=1e6, tail_eps=1e-12)
    @example(lam=5e-324, tail_eps=0.5)
    def test_mass_above_the_first_window_is_below_the_rounding_of_tail_eps(self, lam, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        lo, hi, floor = _poisson_start(lam, policy)
        assert lo <= lam < floor + 1 <= hi
        assert pdtrc(hi, lam) <= tail_eps * 2.0 ** -53

    def test_window_top_and_floor(self):
        # the first Poisson(1000) window at tail_eps = 1e-12 ends at
        # ceil(1000 + L/3 + sqrt(L^2/9 + 2000 L)), L = log(1e12) + 53 log 2
        # = 64.37, and its tail pass stops at floor(1000 + sqrt(1000 log(1e12)))
        assert _poisson_start(1000.0, DEFAULT_POLICY) == (512, 1381, 1166)
        assert _poisson_start(np.array([1000.0]), DEFAULT_POLICY) == (512, 1381, 1166)

    def test_a_window_that_fits_max_terms_is_not_refused(self):
        # the Poisson(1000) window, cut at K = 1230, fits 1,382 terms; a top
        # 20 standard deviations above the mean (1,692) would not
        fits, short = TruncationPolicy(max_terms=1382), TruncationPolicy(max_terms=1381)
        lo, w, _, _ = _poisson_weights(1000.0, fits)
        assert lo + w.size - 1 == 1230
        want = sm_apply(1, CATALOG["e2"], 1000.0)
        assert sm_apply(1, CATALOG["e2"], 1000.0, fits) == want
        values, omitted = sm_apply_grid(1, CATALOG["e2"], [1000.0], fits)
        assert (values[0], omitted[0]) == want
        for call in (lambda: sm_apply(1, CATALOG["e2"], 1000.0, short),
                     lambda: sm_apply_grid(1, CATALOG["e2"], [1000.0], short)):
            with pytest.raises(TruncationFailureError, match="max_terms=1381"):
                call()

    # a finite mean whose Bernstein point overflows to inf, and one from
    # 2^53 on, which no max_terms holds
    @pytest.mark.parametrize("n, x", [(1, 1e308), (10, 1e307), (1, 2.0 ** 53)])
    def test_a_mean_too_large_for_any_window_is_named(self, n, x):
        want = "^" + re.escape(f"series window for mean {n * x} needs more than max_terms=1000000")
        for call in (lambda: sm_apply(n, CATALOG["e0"], x),
                     lambda: sm_apply_grid(n, CATALOG["e0"], [x])):
            with pytest.raises(TruncationFailureError, match=want):
                call()


class TestMassBelowTheWindow:
    # pdtr(k, lam) is the Poisson(lam) mass at or below k
    @WINDOW_SETTINGS
    @given(lam=poisson_means, tail_eps=st.sampled_from([1e-6, 1e-12, 1e-15, 1e-30, 1e-300]))
    @example(lam=774.07, tail_eps=1e-12)
    @example(lam=4e5, tail_eps=1e-300)
    def test_bound_is_certified_and_within_budget(self, lam, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        lo, _, tail, below = _poisson_weights(lam, policy)
        true_below = pdtr(lo - 1, lam) if lo else 0.0
        assert true_below <= below <= min(2.0 ** -64, tail_eps)
        assert lo % 512 == 0
        if lo == 0:
            assert below == 0.0
        # the series reports both tails
        assert sm_apply(1, CATALOG["e0"], lam, policy).omitted_mass == tail + below

    @pytest.mark.parametrize("lam, lo", [(774.06, 0), (774.07, 512), (5000.0, 4096),
                                         (51200.0, 48640)])
    def test_lower_end_is_a_rounded_chernoff_point(self, lam, lo):
        assert _poisson_weights(lam, DEFAULT_POLICY)[0] == lo
        assert lo <= _lower_end(lam, 64.0 * math.log(2.0)) < lo + 512


def _janson_top(n, x, tail_eps):
    """The point hi above which Janson's bound leaves at most tail_eps/2 of NB(n, 1/(1 + x))."""
    a = (math.log(2.0) - math.log(tail_eps)) / n
    return math.ceil((1.0 + a + math.sqrt(a * a + 2.0 * a)) * n * (1.0 + x)) - n


# windows of at most this many terms, so that none allocates much
NB_MAX_TERMS = 1 << 20


class TestEndsOfTheNegativeBinomialWindow:
    # nbdtr(k, n, p) and nbdtrc(k, n, p) are the masses at or below k and
    # above k of the failures before the n-th success at success
    # probability p; the Baskakov weights are that law at p = 1 / (1 + x)
    @WINDOW_SETTINGS
    @given(n=st.integers(min_value=1, max_value=10 ** 4),
           log_x=st.floats(min_value=-6.0, max_value=math.log10(5e3)),
           tail_eps=st.sampled_from([0.999999, 0.5, 1e-6, 1e-12, 1e-300]))
    @example(n=1000, log_x=math.log10(5.0), tail_eps=1e-12)
    @example(n=1, log_x=math.log10(5e3), tail_eps=1e-300)
    @example(n=10 ** 4, log_x=-6.0, tail_eps=0.999999)
    @example(n=10 ** 4, log_x=2.0, tail_eps=1e-300)
    def test_each_end_bounds_the_mass_beyond_it(self, n, log_x, tail_eps):
        x = 10.0 ** log_x
        policy = TruncationPolicy(tail_eps=tail_eps, max_terms=NB_MAX_TERMS)
        hi = _janson_top(n, x, tail_eps)
        if hi + 1 > NB_MAX_TERMS:
            with pytest.raises(TruncationFailureError, match="^series window for Baskakov mean"):
                _negative_binomial_weights(n, x, policy)
            return
        lo, w, above, below = _negative_binomial_weights(n, x, policy)
        assert 0 <= lo <= hi == lo + w.size - 1
        p = 1.0 / (1.0 + x)
        assert (nbdtr(lo - 1, n, p) if lo else 0.0) <= below
        assert nbdtrc(hi, n, p) <= above
        assert above + below <= tail_eps
        if lo == 0:
            assert below == 0.0
        assert baskakov_apply(n, CATALOG["e0"], x, policy).omitted_mass == above + below

    # a loose tolerance or a tight one; the top is the last term evaluated
    @pytest.mark.parametrize("tail_eps", [0.5, 0.999999, 1e-300])
    @pytest.mark.parametrize("n, x", [(1, 0.5), (3, 2.0), (200, 4.0)])
    def test_a_window_that_fits_max_terms_is_not_refused(self, n, x, tail_eps):
        hi = _janson_top(n, x, tail_eps)
        lo, w, _, _ = _negative_binomial_weights(n, x, TruncationPolicy(tail_eps, hi + 1))
        assert lo + w.size - 1 == hi
        with pytest.raises(TruncationFailureError, match=f"max_terms={hi} terms"):
            _negative_binomial_weights(n, x, TruncationPolicy(tail_eps, hi))

    def test_window_of_a_worked_case(self):
        # at n = 1000, x = 5 and tail_eps = 1e-12, L = log(2e12) = 28.3:
        # lo = floor(5000 - sqrt(2 L 55000)) and hi = ceil(1.2680 * 6000) - 1000
        lo, w, above, below = _negative_binomial_weights(1000, 5.0, DEFAULT_POLICY)
        assert (lo, lo + w.size - 1) == (3234, 6609)
        assert above == 5e-13 and below == pytest.approx(4.7075e-13, rel=1e-4)


class TestLatticeAverage:
    # at n = 1, x = 5000 the window starts at lo = 4096, above the prefix
    # that underflows to 0.0 (k < 2268): f is never evaluated there, so a
    # non-finite value at k = 10 cannot reach the sum
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_f_is_not_evaluated_below_the_window(self, bad):
        assert _poisson_weights(5000.0, DEFAULT_POLICY)[0] == 4096
        seen = []

        def f(u):
            u = np.asarray(u, dtype=float)
            seen.append(u.min())
            return np.where(u < 4096.0, bad, 1.0)

        out = sm_apply(1, f, 5000.0)
        assert min(seen) == 4096.0
        assert out.value == pytest.approx(1.0, abs=1e-11)

    # the weight at lo = 4096 is about 1e-27: a non-finite term there is
    # still found and named
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_term_inside_the_window_is_named(self, bad):
        lo, w, _, _ = _poisson_weights(5000.0, DEFAULT_POLICY)
        assert lo == 4096 and 0.0 < w[0] < 2.0 ** -64

        def f(u):
            u = np.asarray(u, dtype=float)
            return np.where(u == 4096.0, bad, 1.0)

        with pytest.raises(EvaluationError, match=r"lattice point 4096\.0$"):
            sm_apply(1, f, 5000.0)

    def test_long_sums_do_not_depend_on_the_blas_thread_count(self):
        # the Poisson(4e5) window has about 10.7k terms, which OpenBLAS
        # would split across its threads in one dot product
        assert _poisson_weights(4e5, DEFAULT_POLICY)[1].size > _DOT_PIECE
        src = os.path.dirname(os.path.dirname(oplimits.__file__))
        code = ("from oplimits import CATALOG, sm_apply; "
                "print(sm_apply(1, CATALOG['e2'], 4e5).value.hex())")
        values = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            for threads in ("1", "2")
        ]
        assert values[0] == values[1]

    def test_finite_terms_whose_sum_overflows_give_inf(self):
        # the Binomial(4, 0.1) weights sum to 1 + 2^-52, so the average of
        # the largest double overflows although no term is non-finite
        def biggest(u):
            return np.full_like(np.asarray(u, dtype=float), np.finfo(float).max)

        assert bernstein_apply(4, biggest, 0.1) == math.inf


# the default voronovskaya run averages 1,280,004 terms and evaluates
# 1,580,625 pmf exps, korovkin 911,778 and 388,542: korovkin's three rates
# share each n's windows
@pytest.mark.parametrize("experiment, terms, exps", [
    ("voronovskaya", 1_300_000, 1_600_000),
    ("korovkin", 920_000, 400_000),
], ids=["voronovskaya", "korovkin"])
def test_default_voronovskaya_run_sums_only_the_windows(monkeypatch, experiment, terms, exps):
    """A default grid run averages and evaluates only its windows.

    Windows from k = 0 averaged 5.66M terms and evaluated 3.40M exps in the
    voronovskaya run, and 1.60M terms in the korovkin run; windows up to
    20 standard deviations above the mean evaluated 2.19M and 0.55M exps.
    The grid
    routine and sm_apply both sum through ``_dot`` and evaluate the pmf
    through ``_poisson_pmf``, which may call itself once per window; only
    the outermost call is counted.
    """
    counts = {"terms": 0, "exps": 0}
    dot, pmf = oplimits.operators._dot, oplimits.operators._poisson_pmf
    depth = [0]

    def counted_dot(lo, w, vals, n):
        counts["terms"] += w.size
        return dot(lo, w, vals, n)

    def counted_pmf(lam, lo, hi, out=None):
        depth[0] += 1
        try:
            p = pmf(lam, lo, hi, out)
        finally:
            depth[0] -= 1
        if not depth[0]:
            counts["exps"] += p.size
        return p

    monkeypatch.setattr(oplimits.operators, "_dot", counted_dot)
    monkeypatch.setattr(oplimits.operators, "_poisson_pmf", counted_pmf)
    run_experiment(ExperimentConfig(experiment))
    assert counts["terms"] <= terms
    assert counts["exps"] <= exps
