"""Exact and Euler simulation of the limit diffusions."""

import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oplimits import (
    CATALOG,
    EulerConfig,
    UnsupportedMethodError,
    chain_scaling_moments,
    chain_terminal_values,
    feller_euler_terminal,
    feller_exact_terminal,
    feller_semigroup_closed_form,
    ks_distance,
    semigroup_mc,
    sm_exponential_closed_form,
    wf_euler_terminal,
)
from oplimits.diffusion import _euler_steps
from oplimits.mc import _MIN_THREADED_CHUNK, _MIN_THREADED_DRAW, chunk_sizes, estimate_from
from oplimits.operators import _poisson_weights, DEFAULT_POLICY


class TestExactSampler:
    def test_zero_start_is_absorbed(self):
        rng = np.random.default_rng(0)
        assert feller_exact_terminal(0.0, 1.0, 1, rng)[0] == 0.0
        assert np.all(feller_exact_terminal(0.0, 2.0, 100, rng) == 0.0)

    def test_martingale_mean(self):
        rng = np.random.default_rng(10)
        draws = feller_exact_terminal(1.0, 1.0, 300_000, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 3 * se

    def test_variance_law(self):
        rng = np.random.default_rng(11)
        x, t = 1.0, 1.0
        draws = feller_exact_terminal(x, t, 300_000, rng)
        assert abs(draws.var(ddof=1) - x * t) / (x * t) <= 0.02

    def test_extinction_mass(self):
        rng = np.random.default_rng(12)
        x, t = 1.0, 1.0
        draws = feller_exact_terminal(x, t, 300_000, rng)
        p0 = math.exp(-2 * x / t)
        se = math.sqrt(p0 * (1 - p0) / draws.size)
        assert abs(float(np.mean(draws == 0.0)) - p0) <= 3 * se

    @pytest.mark.parametrize("x,t", [(0.5, 0.5), (2.0, 1.0), (5.0, 1.0), (5.0, 2.0)])
    def test_transform_identity(self, x, t):
        rng = np.random.default_rng(13)
        draws = feller_exact_terminal(x, t, 300_000, rng)
        for lam in (1.0, 2.0, 3.0):
            vals = np.exp(-lam * draws)
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            ref = feller_semigroup_closed_form(lam, x, t)
            assert abs(vals.mean() - ref) <= 3.5 * se

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            feller_exact_terminal(1.0, 0.0, 1, rng)
        with pytest.raises(ValueError):
            feller_exact_terminal(-1.0, 1.0, 1, rng)


# A NaN parameter must fail the oracle's own check, not come back as nan or
# fail inside numpy.
@pytest.mark.parametrize("name, call", [
    ("lam", lambda: sm_exponential_closed_form(4, math.nan, 1.0)),
    ("x", lambda: sm_exponential_closed_form(4, 1.0, math.nan)),
    ("lam", lambda: feller_semigroup_closed_form(math.nan, 1.0, 1.0)),
    ("x", lambda: feller_semigroup_closed_form(1.0, math.nan, 1.0)),
    ("t", lambda: feller_semigroup_closed_form(1.0, 1.0, math.nan)),
    ("x", lambda: feller_exact_terminal(math.nan, 1.0, 4, np.random.default_rng(0))),
    ("t", lambda: feller_exact_terminal(1.0, math.nan, 4, np.random.default_rng(0))),
], ids=["sm-lam", "sm-x", "feller-lam", "feller-x", "feller-t", "exact-x", "exact-t"])
def test_nan_oracle_parameter_is_rejected(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()


# A NaN or infinite argument must fail a check that names it, not overflow,
# fail converting NaN to an int, or come back as zeros or NaNs.
@pytest.mark.parametrize("name, call", [
    ("x", lambda: feller_exact_terminal(math.inf, 1.0, 4, np.random.default_rng(0))),
    ("t", lambda: feller_exact_terminal(1.0, math.inf, 4, np.random.default_rng(0))),
    ("x", lambda: feller_euler_terminal(math.nan, 1.0, 1e-3, 4, np.random.default_rng(0))),
    ("x", lambda: feller_euler_terminal(math.inf, 1.0, 1e-3, 4, np.random.default_rng(0))),
    ("T", lambda: feller_euler_terminal(1.0, math.nan, 1e-3, 4, np.random.default_rng(0))),
    ("T", lambda: feller_euler_terminal(1.0, math.inf, 1e-3, 4, np.random.default_rng(0))),
    ("dt", lambda: feller_euler_terminal(1.0, 1.0, math.nan, 4, np.random.default_rng(0))),
    ("T", lambda: wf_euler_terminal(0.5, math.nan, 1e-3, 4, np.random.default_rng(0))),
    ("dt", lambda: wf_euler_terminal(0.5, 1.0, math.nan, 4, np.random.default_rng(0))),
    ("dt", lambda: EulerConfig(dt=math.nan)),
    ("t", lambda: semigroup_mc("feller", math.nan, 1.0, np.exp, 4, seed=0)),
    ("y", lambda: chain_scaling_moments(4, math.nan)),
    ("y", lambda: chain_scaling_moments(4, math.inf)),
], ids=["exact-x-inf", "exact-t-inf", "euler-x-nan", "euler-x-inf", "euler-T-nan",
        "euler-T-inf", "euler-dt-nan", "wf-T-nan", "wf-dt-nan", "config-dt-nan",
        "mc-t-nan", "moments-y-nan", "moments-y-inf"])
def test_non_finite_diffusion_argument_is_rejected(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be finite and "):
        call()


# A sampler names a bad sample size, on its x = 0 shortcut too, instead of
# handing it to numpy; a size of 0 gives an empty array.
_SAMPLERS = {
    "chain": lambda x, size: chain_terminal_values(4, 3, x, size, np.random.default_rng(0)),
    "exact": lambda x, size: feller_exact_terminal(x, 1.0, size, np.random.default_rng(0)),
    "feller-euler": lambda x, size: feller_euler_terminal(x, 1.0, 0.1, size,
                                                          np.random.default_rng(0)),
    "wf-euler": lambda x, size: wf_euler_terminal(x, 1.0, 0.1, size, np.random.default_rng(0)),
}


@pytest.mark.parametrize("size", [-1, 2.5, math.nan, 0])
@pytest.mark.parametrize("x", [0.0, 0.75])
@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_sample_size_must_be_a_nonnegative_integer(sampler, x, size):
    if size == 0:
        assert _SAMPLERS[sampler](x, size).shape == (0,)
    else:
        with pytest.raises(ValueError, match=r"^size must be an integer >= 0, got "):
            _SAMPLERS[sampler](x, size)


# The t = 0 shortcut must not return f at a starting point that the
# samplers reject at t > 0.
@pytest.mark.parametrize("kind, x, message", [
    ("feller", -1.0, r"^x must be finite and nonnegative"),
    ("feller", math.nan, r"^x must be finite and nonnegative"),
    ("feller", math.inf, r"^x must be finite and nonnegative"),
    ("wright-fisher", 2.0, r"^starting point must lie in \[0, 1\]"),
    ("wright-fisher", -0.5, r"^starting point must lie in \[0, 1\]"),
    ("wright-fisher", math.nan, r"^starting point must lie in \[0, 1\]"),
], ids=["feller-negative", "feller-nan", "feller-inf", "wf-above", "wf-below", "wf-nan"])
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_starting_point_outside_the_state_space_is_rejected(kind, x, message, t):
    method = "exact" if kind == "feller" else "euler"
    with pytest.raises(ValueError, match=message):
        semigroup_mc(kind, t, x, np.exp, 10, seed=1, method=method)


class TestFellerEuler:
    def test_zero_start_stays_zero(self):
        rng = np.random.default_rng(1)
        assert feller_euler_terminal(0.0, 1.0, 1e-3, 1, rng)[0] == 0.0

    def test_martingale_mean_with_bias_allowance(self):
        rng = np.random.default_rng(2)
        draws = feller_euler_terminal(2.0, 1.0, 1e-3, 30_000, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 2.0) <= 4 * se

    def test_extinction_improves_as_dt_shrinks(self):
        target = math.exp(-2.0)
        rng = np.random.default_rng(3)
        coarse = feller_euler_terminal(1.0, 1.0, 1e-2, 50_000, rng)
        fine = feller_euler_terminal(1.0, 1.0, 1e-3, 50_000, rng)
        err_coarse = abs(float(np.mean(coarse == 0.0)) - target)
        err_fine = abs(float(np.mean(fine == 0.0)) - target)
        assert err_fine <= err_coarse

    def test_final_step_lands_on_horizon(self):
        # T not divisible by dt exercises the shortened last step
        rng = np.random.default_rng(4)
        draws = feller_euler_terminal(1.0, 0.1234, 1e-2, 20_000, rng)
        assert np.all(draws >= 0.0)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 4 * se

    def test_exact_vs_euler_distributional_agreement(self):
        rng = np.random.default_rng(6)
        exact = feller_exact_terminal(1.0, 1.0, 30_000, rng)
        euler = feller_euler_terminal(1.0, 1.0, 1e-3, 30_000, rng)
        assert ks_distance(exact, euler) <= 0.03


class TestWrightFisherEuler:
    def test_endpoints_absorbed(self):
        rng = np.random.default_rng(7)
        assert wf_euler_terminal(0.0, 1.0, 1e-3, 1, rng)[0] == 0.0
        assert wf_euler_terminal(1.0, 1.0, 1e-3, 1, rng)[0] == 1.0

    def test_martingale_mean(self):
        rng = np.random.default_rng(8)
        draws = wf_euler_terminal(0.3, 1.0, 1e-3, 30_000, rng)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.3) <= 4 * se
        assert np.all((draws >= 0.0) & (draws <= 1.0))

    def test_heterozygosity_decay(self):
        # E[X(1-X)] decays by exp(-t) from its initial value
        rng = np.random.default_rng(9)
        draws = wf_euler_terminal(0.5, 1.0, 1e-3, 30_000, rng)
        g = draws * (1.0 - draws)
        se = g.std(ddof=1) / math.sqrt(g.size)
        assert abs(g.mean() - 0.25 * math.exp(-1.0)) <= 4 * se

    def test_domain_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            wf_euler_terminal(1.2, 1.0, 1e-2, 10, rng)


class TestSemigroupMC:
    def test_time_zero_is_identity(self):
        est = semigroup_mc("feller", 0.0, 2.0, CATALOG["f1"], 100, seed=0)
        assert est.mean == pytest.approx(math.exp(-2.0), rel=1e-15)
        assert est.stderr == 0.0

    def test_exact_matches_closed_form(self):
        lam, x, t = 1.0, 2.0, 1.0
        ref = feller_semigroup_closed_form(lam, x, t)
        assert ref == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-15)
        est = semigroup_mc("feller", t, x, CATALOG["f1"], 400_000, seed=5)
        assert abs(est.mean - ref) <= 3 * est.stderr

    def test_constant_function(self):
        f = lambda u: 4.5 * np.ones_like(np.asarray(u, dtype=float))
        est = semigroup_mc("feller", 1.0, 1.0, f, 1_000, seed=1)
        assert est.mean == 4.5 and est.stderr == 0.0

    def test_euler_method_for_wright_fisher(self):
        f = lambda u: np.asarray(u, dtype=float)
        est = semigroup_mc("wright-fisher", 0.5, 0.3, f, 20_000, seed=2,
                           method="euler", config=EulerConfig(dt=5e-3))
        assert abs(est.mean - 0.3) <= 4 * est.stderr

    def test_exact_unsupported_for_wright_fisher(self):
        with pytest.raises(UnsupportedMethodError):
            semigroup_mc("wright-fisher", 1.0, 0.5, CATALOG["e1"], 100, seed=0)

    def test_bit_reproducible(self):
        a = semigroup_mc("feller", 1.0, 1.0, CATALOG["f1"], 50_000, seed=7)
        b = semigroup_mc("feller", 1.0, 1.0, CATALOG["f1"], 50_000, seed=7)
        assert a == b

    @pytest.mark.parametrize("samples", [math.nan, 2.5, 1])
    def test_samples_must_be_an_integer_of_at_least_two(self, samples):
        with pytest.raises(ValueError, match=r"^samples must be an integer >= 2"):
            semigroup_mc("feller", 1.0, 1.0, CATALOG["f1"], samples, seed=0)

    def test_closed_form_edges(self):
        assert feller_semigroup_closed_form(2.0, 1.5, 0.0) == pytest.approx(math.exp(-3.0))
        assert feller_semigroup_closed_form(3.0, 0.0, 2.0) == 1.0


def _feller_per_step(x, T, dt, size, rng):
    """Euler endpoints drawing each step's normals in a call of their own."""
    y = np.full(size, float(x))
    nfull = int(T / dt)
    rem = T - nfull * dt
    for _ in range(nfull):
        y = np.maximum(0.0, y + np.sqrt(y * dt) * rng.standard_normal(size))
    if rem > 1e-15 * max(1.0, T):
        y = np.maximum(0.0, y + np.sqrt(y * rem) * rng.standard_normal(size))
    return y


def _wf_per_step(x, T, dt, size, rng):
    v = np.full(size, float(x))
    nfull = int(T / dt)
    rem = T - nfull * dt
    for _ in range(nfull):
        v = np.clip(v + np.sqrt(v * (1.0 - v) * dt) * rng.standard_normal(size), 0.0, 1.0)
    if rem > 1e-15 * max(1.0, T):
        v = np.clip(v + np.sqrt(v * (1.0 - v) * rem) * rng.standard_normal(size), 0.0, 1.0)
    return v


EULER_PAIRS = [
    (feller_euler_terminal, _feller_per_step, 0.8),
    (wf_euler_terminal, _wf_per_step, 0.4),
]


class TestBlockedEulerDraws:
    """Normals drawn a block of steps at a time equal the per-step draws bit for bit."""

    @pytest.mark.parametrize("terminal, per_step, x", EULER_PAIRS)
    @pytest.mark.parametrize("size", [0, 1, 7, 5000, 20000])
    @pytest.mark.parametrize("T, dt", [
        (0.1234, 1e-2),  # 12 full steps and a shortened 13th
        (0.25, 1e-3),    # 250 full steps, not a multiple of 4 rows of 5,000
    ])
    def test_bits_equal_per_step_draws(self, terminal, per_step, x, size, T, dt):
        rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        np.testing.assert_array_equal(terminal(x, T, dt, size, rng),
                                      per_step(x, T, dt, size, oracle_rng))
        # no normal is drawn beyond the path's own
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_step_counts_of_the_cases(self):
        assert _euler_steps(0.1234, 1e-2) == (13, 0.1234 - 12 * 1e-2)
        assert _euler_steps(0.25, 1e-3) == (250, 1e-3)
        rows = -(-_MIN_THREADED_CHUNK // 5000)
        assert rows == 4 and 250 % rows and 13 % rows

    @pytest.mark.parametrize("terminal, per_step, x", EULER_PAIRS)
    def test_horizon_below_resolution_draws_nothing(self, terminal, per_step, x):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        np.testing.assert_array_equal(terminal(x, 1e-16, 1e-3, 5, rng), np.full(5, x))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("kind, terminal, per_step, x", [
        ("feller", *EULER_PAIRS[0]),
        ("wright-fisher", *EULER_PAIRS[1]),
    ])
    def test_semigroup_mc_does_not_depend_on_cpu_count(self, cpus, kind, terminal,
                                                       per_step, x):
        samples, t, dt, seed = 20_000, 0.1, 1e-3, (8, 2)
        f = lambda u: np.exp(-np.asarray(u, dtype=float))
        children = np.random.SeedSequence(seed).spawn(4)
        oracle = estimate_from(np.concatenate([
            f(per_step(x, t, dt, m, np.random.default_rng(child)))
            for child, m in zip(children, chunk_sizes(samples, 4))
        ]))
        for count in (1, 2, 64):
            cpus(count)
            est = semigroup_mc(kind, t, x, f, samples, seed=seed, method="euler",
                               config=EulerConfig(dt=dt))
            assert est == oracle


class TestEulerThreading:
    """Euler streams thread by the normals a stream draws: paths times steps."""

    @staticmethod
    def _threads_of(**call):
        idents = set()

        def f(u):
            idents.add(threading.get_ident())
            return np.asarray(u, dtype=float)

        semigroup_mc(f=f, **call)
        return idents

    @pytest.mark.parametrize("count", [1, 2, 64])
    def test_long_euler_streams_are_threaded(self, cpus, count):
        cpus(count)
        idents = self._threads_of(kind="feller", t=1.0, x=1.0, samples=20_000,
                                  seed=4, method="euler")
        assert len(idents) <= min(4, count)
        if count == 1:
            assert idents == {threading.get_ident()}
        else:
            assert threading.get_ident() not in idents

    def test_threshold_counts_steps(self, cpus):
        cpus(64)
        assert _euler_steps(0.01, 1e-3)[0] == 10
        per_stream = -(-_MIN_THREADED_DRAW // 10)
        call = dict(kind="wright-fisher", t=0.01, x=0.5, seed=6, method="euler")
        below = self._threads_of(samples=4 * (per_stream - 1), **call)
        assert below == {threading.get_ident()}
        at = self._threads_of(samples=4 * per_stream, **call)
        assert threading.get_ident() not in at

    def test_small_euler_call_stays_on_the_calling_thread(self, cpus):
        # the tracer test's call, whose layer metrics assume one thread
        cpus(64)
        idents = self._threads_of(kind="feller", t=0.01, x=1.0, samples=100, seed=1,
                                  method="euler")
        assert idents == {threading.get_ident()}

    def test_exact_draws_count_one_value_per_sample(self, cpus):
        cpus(64)
        idents = self._threads_of(kind="feller", t=1.0, x=1.0,
                                  samples=4 * _MIN_THREADED_DRAW - 1, seed=2)
        assert idents == {threading.get_ident()}


class TestAbsorptionMonotonicity:
    def test_extinction_frequency_monotone_in_x_and_t(self):
        rng = np.random.default_rng(20)
        ext_by_x = [
            float(np.mean(feller_exact_terminal(x, 1.0, 200_000, rng) == 0.0))
            for x in (0.5, 1.0, 2.0)
        ]
        assert ext_by_x[0] >= ext_by_x[1] >= ext_by_x[2]
        ext_by_t = [
            float(np.mean(feller_exact_terminal(1.0, t, 200_000, rng) == 0.0))
            for t in (0.5, 1.0, 2.0)
        ]
        assert ext_by_t[0] <= ext_by_t[1] <= ext_by_t[2]


class TestScalingMoments:
    def test_absorbing_origin(self):
        assert chain_scaling_moments(7, 0.0) == (0.0, 0.0)

    def test_exact_pair(self):
        mom = chain_scaling_moments(10, 2.0)
        assert mom.mean_scaled == pytest.approx(0.0, abs=1e-12)
        assert mom.var_scaled == pytest.approx(2.0, abs=1e-12)

    def test_brute_force_cross_check(self):
        n, y = 3, 1.0
        lo, w, _, _ = _poisson_weights(n * y, DEFAULT_POLICY)
        k = np.arange(lo, lo + w.size)
        brute_mean = n * float(w @ (k / n - y))
        brute_var = n * float(w @ (k / n - y) ** 2)
        mom = chain_scaling_moments(n, y)
        assert mom.mean_scaled == pytest.approx(brute_mean, abs=1e-10)
        assert mom.var_scaled == pytest.approx(brute_var, abs=1e-10)
        assert mom.var_scaled == pytest.approx(y, abs=1e-10)

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError):
            chain_scaling_moments(10, 0.123)


# Samples with an atom at 0 (extinct chains and diffusions), lattice ties,
# continuous values and infinities.
KS_SAMPLES = st.lists(
    st.one_of(
        st.just(0.0),
        st.integers(0, 12).map(lambda j: j / 4.0),
        st.floats(-50.0, 50.0, allow_nan=False),
        st.sampled_from([math.inf, -math.inf]),
    ),
    min_size=1, max_size=40,
)


class TestKSDistance:
    def test_identical_samples(self):
        a = np.array([0.0, 1.0, 2.0, 5.0])
        assert ks_distance(a, a.copy()) == 0.0

    def test_disjoint_supports(self):
        assert ks_distance([1.0, 2.0, 3.0], [10.0, 11.0]) == 1.0

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(30)
        a = rng.normal(size=4_000)
        b = rng.normal(0.1, 1.1, size=3_000)
        ours = ks_distance(a, b)
        ref = stats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_bits_equal_the_search_at_every_pooled_point(self):
        # lattice-valued samples with many ties, as chain endpoints are
        rng = np.random.default_rng(31)
        a = rng.poisson(3.0, size=5_000) / 4.0
        b = rng.poisson(3.2, size=4_000) / 4.0
        z = np.concatenate([a, b])
        full = np.abs(np.searchsorted(np.sort(a), z, side="right") / a.size
                      - np.searchsorted(np.sort(b), z, side="right") / b.size)
        assert ks_distance(a, b) == float(np.max(full))

    @settings(deadline=None)
    @given(a=KS_SAMPLES, b=KS_SAMPLES)
    def test_bits_equal_the_search_at_every_pooled_point_for_any_sample(self, a, b):
        a, b = np.array(a), np.array(b)
        z = np.concatenate([a, b])
        full = np.abs(np.searchsorted(np.sort(a), z, side="right") / a.size
                      - np.searchsorted(np.sort(b), z, side="right") / b.size)
        assert ks_distance(a, b) == float(np.max(full))

    @pytest.mark.parametrize("kinds", [("tied", "untied"), ("untied", "tied"),
                                       ("tied", "tied"), ("untied", "untied")])
    def test_bits_equal_the_pooled_search_whichever_sample_has_fewer_values(self, kinds):
        # the sample with fewer distinct values is located among the other's
        # ones, so both orders of each pair must give the pooled search's bits
        rng = np.random.default_rng(32)
        draw = {"tied": lambda m: rng.poisson(40.0, size=m) / 8.0,
                "untied": lambda m: rng.gamma(5.0, 1.0, size=m)}
        a, b = draw[kinds[0]](3_000), draw[kinds[1]](2_000)
        z = np.concatenate([a, b])
        full = np.abs(np.searchsorted(np.sort(a), z, side="right") / a.size
                      - np.searchsorted(np.sort(b), z, side="right") / b.size)
        assert ks_distance(a, b) == float(np.max(full))
        assert ks_distance(b, a) == float(np.max(full))

    def test_atom_at_zero_is_counted(self):
        # right-continuous CDF comparison must see the shared atom at 0
        a = np.concatenate([np.zeros(500), np.ones(500)])
        b = np.concatenate([np.zeros(300), np.ones(700)])
        assert ks_distance(a, b) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("a, b, name", [
        ([math.nan, 1.0], [1.0, 2.0], "a"),
        ([1.0, 2.0], [3.0, math.nan, math.inf], "b"),
        ([math.nan, math.nan], [math.nan], "a"),
    ], ids=["nan-in-a", "nan-in-b", "all-nan"])
    def test_nan_is_rejected_naming_its_sample(self, a, b, name):
        with pytest.raises(ValueError, match=rf"^sample {name} contains NaN"):
            ks_distance(a, b)

    @pytest.mark.parametrize("a, b, name, shape", [
        (np.zeros((2, 3)), [1.0, 2.0], "a", "(2, 3)"),
        ([1.0, 2.0], 2.0, "b", "()"),
    ], ids=["2-d-a", "scalar-b"])
    def test_a_sample_that_is_not_1d_is_rejected_naming_it(self, a, b, name, shape):
        with pytest.raises(ValueError,
                           match=rf"^sample {name} must be 1-d, got shape {re.escape(shape)}$"):
            ks_distance(a, b)

    def test_euler_config_validation(self):
        with pytest.raises(ValueError):
            EulerConfig(dt=0.0)
