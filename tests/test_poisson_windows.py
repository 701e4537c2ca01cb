"""Series windows against full-window references, and the lattice-average checks.

The references below evaluate every pmf term on 0..hi and take the tail
from a reversed cumulative sum over the whole window, as the windows were
first written.  The windows in use skip only terms that underflow to 0.0
and tail sums that cannot reach the cut, so K, the weights and the omitted
tail must come back bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaln

from oplimits import EvaluationError, TruncationPolicy, bernstein_apply, sm_apply
from oplimits.operators import (
    DEFAULT_POLICY,
    _negative_binomial_weights,
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


def _full_poisson_weights(lam, policy):
    return _full_cut_at_tail(
        int(lam + 20.0 * np.sqrt(lam) + 60.0),
        lambda k: np.exp(-lam + k * np.log(lam) - gammaln(k + 1.0)),
        lambda hi: lam / (hi + 1.0),
        policy,
    )


def _full_negative_binomial_weights(n, x, policy):
    sd = np.sqrt(n * x * (1.0 + x))
    geometric = (1.0 + x) * max(0.0, np.log(1.0 / policy.tail_eps))
    return _full_cut_at_tail(
        int(n * x + 20.0 * sd + geometric + 60.0),
        lambda k: np.exp(
            gammaln(n + k.astype(float))
            - gammaln(k + 1.0)
            - gammaln(float(n))
            + k * np.log(x)
            - (n + k) * np.log1p(x)
        ),
        lambda hi: (n + hi) / (hi + 1.0) * x / (1.0 + x),
        policy,
    )


def _assert_same_window(got, want):
    (k, w, omitted), (k_ref, w_ref, omitted_ref) = got, want
    np.testing.assert_array_equal(k, k_ref)
    np.testing.assert_array_equal(w, w_ref)
    assert omitted.hex() == omitted_ref.hex()


WINDOW_SETTINGS = settings(max_examples=80, deadline=None)
tail_eps_values = st.sampled_from([1e-6, 1e-12, 1e-15])
# the underflow prefix starts at lam = 2 * 746 = 1492
poisson_means = st.one_of(
    st.floats(min_value=-12.0, max_value=5.0).map(lambda e: 10.0 ** e),
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
    def test_poisson(self, lam, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        _assert_same_window(_poisson_weights(lam, policy),
                            _full_poisson_weights(lam, policy))

    @WINDOW_SETTINGS
    @given(n=st.integers(min_value=1, max_value=5000),
           x=st.floats(min_value=1e-6, max_value=10.0), tail_eps=tail_eps_values)
    @example(n=1, x=50.0, tail_eps=1e-12)
    @example(n=5000, x=10.0, tail_eps=1e-15)
    def test_negative_binomial(self, n, x, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        _assert_same_window(_negative_binomial_weights(n, x, policy),
                            _full_negative_binomial_weights(n, x, policy))

    # a loose tolerance puts the cut below the mode, where the tail sum must
    # widen to the whole window; 1e-300 makes the window double
    @pytest.mark.parametrize("tail_eps", [0.5, 0.9, 0.999999, 1e-300])
    @pytest.mark.parametrize("lam", [0.3, 7.0, 250.0, 3000.0])
    def test_poisson_cut_anywhere_in_the_window(self, lam, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        _assert_same_window(_poisson_weights(lam, policy),
                            _full_poisson_weights(lam, policy))

    @pytest.mark.parametrize("tail_eps", [0.5, 0.999999, 1e-300])
    @pytest.mark.parametrize("n, x", [(1, 0.5), (3, 2.0), (200, 4.0)])
    def test_negative_binomial_cut_anywhere_in_the_window(self, n, x, tail_eps):
        policy = TruncationPolicy(tail_eps=tail_eps)
        _assert_same_window(_negative_binomial_weights(n, x, policy),
                            _full_negative_binomial_weights(n, x, policy))

    # a tail equal to tail_eps meets it: with tail_eps set to a cut's own
    # omitted mass, the cut must not move
    @pytest.mark.parametrize("lam", [0.3, 30.0, 4000.0])
    def test_tail_equal_to_tail_eps_is_cut(self, lam):
        _, _, omitted = _full_poisson_weights(lam, DEFAULT_POLICY)
        policy = TruncationPolicy(tail_eps=omitted)
        _assert_same_window(_poisson_weights(lam, policy),
                            _full_poisson_weights(lam, policy))
        assert _poisson_weights(lam, policy)[2] == omitted


class TestMemoisedWindow:
    @pytest.mark.parametrize("lam", [0.0, 3.0, 5000.0])
    def test_weights_are_shared_and_read_only(self, lam):
        k, w, omitted = _poisson_weights(lam, DEFAULT_POLICY)
        assert _poisson_weights(lam, DEFAULT_POLICY)[1] is w
        for arr in (k, w):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_another_policy_gets_its_own_window(self):
        _, w, _ = _poisson_weights(40.0, DEFAULT_POLICY)
        _, loose, _ = _poisson_weights(40.0, TruncationPolicy(tail_eps=1e-3))
        assert loose.size < w.size


class TestLatticeAverage:
    # at n = 1, x = 5000 the window's exp starts at k0 = 2268; the weight at
    # k = 10 is an exact 0.0 that exp never produced
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_term_in_the_underflow_prefix_is_named(self, bad):
        _, w, _ = _poisson_weights(5000.0, DEFAULT_POLICY)
        assert w[10] == 0.0

        def f(u):
            u = np.asarray(u, dtype=float)
            return np.where(u == 10.0, bad, 1.0)

        with pytest.raises(EvaluationError, match=r"lattice point 10\.0$"):
            sm_apply(1, f, 5000.0)

    def test_finite_terms_whose_sum_overflows_give_inf(self):
        # the Binomial(4, 0.1) weights sum to 1 + 2^-52, so the average of
        # the largest double overflows although no term is non-finite
        def biggest(u):
            return np.full_like(np.asarray(u, dtype=float), np.finfo(float).max)

        assert bernstein_apply(4, biggest, 0.1) == math.inf
