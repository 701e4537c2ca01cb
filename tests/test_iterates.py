"""Transition kernels, kernel iterates, chain sampling, and fixed-n limits."""

import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse, stats
from scipy.special import gammaln, pdtr, pdtrc

from oplimits import (
    CATALOG,
    CutoffTooSmallError,
    EvaluationError,
    TestFunction,
    bernstein_kernel,
    build_sm_kernel,
    chain_terminal_values,
    kelisky_rivlin_reference,
    kernel_iterate,
    lattice_cutoff,
)
from oplimits import iterates
from oplimits.harness import ExperimentConfig, _snap_panel, floor_nt
from oplimits.iterates import (
    _ALIAS_BUDGET,
    _alias_bound,
    _atoms,
    _chain_cdf,
    _fft_size_at_least,
    _gw_psi,
    _roots_of_unity_minus_one,
    _row_window,
)
from oplimits.mc import _MIN_THREADED_DRAW, estimate_from, sample_across_workers
from oplimits.operators import _binomial_pmf


SMALL_TAIL_EPS = 1e-12
SMALL_CHECKED_ROWS = 10  # int(n * x_max) at small_kernel's defaults


def small_kernel(n=5, x_max=2.0, tail_eps=SMALL_TAIL_EPS):
    K = lattice_cutoff(n, x_max, tail_eps)
    return build_sm_kernel(n, K, tail_eps, checked_rows=int(n * x_max))


@functools.lru_cache(maxsize=None)
def semigroup_kernel(n):
    """The default semigroup run's kernel at n."""
    config = ExperimentConfig("semigroup")
    return build_sm_kernel(n, lattice_cutoff(n, max(config.x_panel), config.tail_eps),
                           config.tail_eps)


def _missing_mass(kernel):
    """Per row, the probability mass that truncation dropped."""
    return np.maximum(0.0, 1.0 - np.asarray(kernel.matrix.sum(axis=1)).ravel())


class TestKernelConstruction:
    def test_state_zero_is_absorbing(self):
        kernel = small_kernel()
        row = kernel.matrix[[0]].toarray().ravel()
        assert row[0] == 1.0
        assert np.all(row[1:] == 0.0)

    def test_row_one_is_unit_poisson(self):
        kernel = small_kernel()
        row = kernel.matrix[[1]].toarray().ravel()
        for j in range(10):
            assert row[j] == pytest.approx(math.exp(-1.0) / math.factorial(j), rel=1e-13)

    def test_checked_rows_have_small_defect(self):
        kernel = small_kernel()
        assert np.all(_missing_mass(kernel)[: SMALL_CHECKED_ROWS + 1] <= SMALL_TAIL_EPS)

    def test_mean_preserved_per_row(self):
        kernel = small_kernel()
        latt = kernel.lattice()
        missing = _missing_mass(kernel)
        for i in range(SMALL_CHECKED_ROWS + 1):
            row = kernel.matrix[[i]].toarray().ravel()
            mean = float(row @ latt)
            slack = missing[i] * (kernel.size - 1) / kernel.n + 1e-12
            assert abs(mean - i / kernel.n) <= slack

    def test_second_moment_update_per_row(self):
        kernel = small_kernel()
        latt = kernel.lattice()
        n = kernel.n
        for i in range(SMALL_CHECKED_ROWS + 1):
            row = kernel.matrix[[i]].toarray().ravel()
            m2 = float(row @ latt ** 2)
            y = i / n
            assert m2 == pytest.approx(y ** 2 + y / n, abs=1e-10)

    def test_cutoff_too_small_reports_worst_row(self):
        # at n = 1 row r is the Poisson(r) law, so row 5 loses the most
        # mass past K = 5: P(Poisson(5) > 5) = 0.38404
        with pytest.raises(CutoffTooSmallError,
                           match=r"^row 5 loses mass 3\.840e-01 > tail_eps=1\.000e-12;"):
            build_sm_kernel(1, 5, 1e-12, checked_rows=5)

    @pytest.mark.parametrize("checked_rows", [-1, 2.5, math.nan])
    def test_checked_rows_must_be_a_row_index(self, checked_rows):
        with pytest.raises(ValueError, match=r"^checked_rows must be an integer >= 0"):
            build_sm_kernel(8, 10, checked_rows=checked_rows)

    @pytest.mark.parametrize("tail_eps", [math.nan, 0.0, -1.0, 1.0])
    def test_tail_eps_must_lie_in_the_unit_interval(self, tail_eps):
        # a NaN tail_eps would let every checked row pass
        with pytest.raises(ValueError, match=r"^tail_eps must be in \(0, 1\)"):
            build_sm_kernel(8, 40, tail_eps, checked_rows=10)

    def test_unchecked_construction_allowed(self):
        kernel = build_sm_kernel(1, 5, 1e-12)
        assert kernel.size == 6


ROW_BUDGET = 2.0 ** -64


def _fixed_window(i, K):
    """i +- (14 sqrt(i) + 30): fixed windows wider than the certified ones."""
    sd = math.sqrt(i)
    return max(0, int(i - 14.0 * sd - 30)), min(K, int(i + 14.0 * sd + 30))


def _certified_window(i, K):
    """The Bernstein windows, each side missing at most 2^-64 of Poisson(i)."""
    L = 64.0 * math.log(2.0)
    lo = math.floor(i - math.sqrt(2.0 * L * i))
    hi = math.ceil(i + L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * L * i))
    return max(0, lo), min(K, hi)


def _chunk_list_kernel(K, window):
    """The SM kernel's CSR matrix built row by row from chunk lists, as an oracle.

    Row i is exp(-i + j log i - log j!) with log j! from ``gammaln`` itself.
    """
    indptr = np.zeros(K + 2, dtype=np.int64)
    col_chunks = [np.array([0])]
    data_chunks = [np.array([1.0])]
    indptr[1] = 1
    for i in range(1, K + 1):
        lo, hi = window(i, K)
        j = np.arange(lo, hi + 1)
        lam = float(i)
        row = np.exp(-lam + j * np.log(lam) - gammaln(j + 1.0))
        col_chunks.append(j)
        data_chunks.append(row)
        indptr[i + 1] = indptr[i] + j.size
    return sparse.csr_matrix(
        (np.concatenate(data_chunks), np.concatenate(col_chunks), indptr),
        shape=(K + 1, K + 1),
    )


class TestInPlaceBuild:
    @pytest.mark.parametrize("n", [1, 8, 128])
    @pytest.mark.parametrize("cutoff", ["zero", "one", "lattice"])
    def test_matches_chunk_list_construction(self, n, cutoff):
        K = {"zero": 0, "one": 1, "lattice": lattice_cutoff(n, 10.0)}[cutoff]
        kernel = build_sm_kernel(n, K)
        oracle = _chunk_list_kernel(K, _certified_window)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(kernel.matrix, name), getattr(oracle, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert kernel.matrix.shape == (K + 1, K + 1)


class TestCertifiedWindows:
    """Each row keeps a window missing at most 2^-64 of mass per side."""

    @settings(max_examples=200, deadline=None)
    @given(i=st.integers(1, 100_000), data=st.data())
    def test_each_side_misses_at_most_two_to_the_minus_64(self, i, data):
        K = data.draw(st.integers(i, 2 * i + 100))
        lo, hi = (int(e[0]) for e in _row_window(np.array([i]), K))
        assert (lo, hi) == _certified_window(i, K)
        assert 0 <= lo <= i <= hi <= K
        if lo > 0:
            assert pdtr(lo - 1, i) <= ROW_BUDGET
        if hi < K:
            assert pdtrc(hi, i) <= ROW_BUDGET

    def test_rows_keep_the_columns_of_the_array_expression(self):
        # the default semigroup run's n = 128 kernel, block for block against
        # rows cut by the array expression of _certified_window
        n, K = 128, lattice_cutoff(128, 10.0)
        assert K == 3606
        i = np.arange(K + 1)
        L = 64.0 * math.log(2.0)
        lo = np.maximum(0, np.floor(i - np.sqrt(2.0 * L * i)).astype(np.int64))
        hi = np.ceil(i + L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * i)).astype(np.int64)
        hi = np.minimum(K, hi)
        lo[0] = hi[0] = 0
        kernel = build_sm_kernel(n, K)
        # each row's nonzero columns span its window, with no gap
        m = kernel.matrix
        np.testing.assert_array_equal(m.indices[m.indptr[:-1]], lo)
        np.testing.assert_array_equal(m.indices[m.indptr[1:] - 1], hi)
        np.testing.assert_array_equal(np.diff(m.indptr), hi - lo + 1)
        for r0, c0, block in kernel.blocks:
            assert c0 == lo[r0]
            np.testing.assert_array_equal(
                block, iterates._poisson_block(r0, r0 + block.shape[0], lo, hi))
            # every entry outside a row's window is 0.0
            h, w = block.shape
            np.testing.assert_array_equal(block, kernel.matrix[r0:r0 + h, c0:c0 + w].toarray())

    def test_a_third_fewer_nonzeros_than_fixed_windows(self):
        n = 128
        K = lattice_cutoff(n, 10.0)
        kernel = build_sm_kernel(n, K)
        assert kernel.matrix.nnz <= 2_700_000
        assert _chunk_list_kernel(K, _fixed_window).nnz > 3_900_000
        # every stored window is certified, including those clipped at K
        m = kernel.matrix
        lo, hi = m.indices[m.indptr[:-1]], m.indices[m.indptr[1:] - 1]
        i = np.arange(K + 1)
        cut_below = (i > 0) & (lo > 0)
        cut_above = (i > 0) & (hi < K)
        assert np.all(pdtr(lo[cut_below] - 1, i[cut_below]) <= ROW_BUDGET)
        assert np.all(pdtrc(hi[cut_above], i[cut_above]) <= ROW_BUDGET)

    @pytest.mark.parametrize("n", [8, 32])
    def test_iterates_match_the_fixed_window_kernel(self, n):
        config = ExperimentConfig("semigroup")
        K = lattice_cutoff(n, max(config.x_panel), config.tail_eps)
        k = floor_nt(n, config.t)
        fixed = _chunk_list_kernel(K, _fixed_window)
        kernel = build_sm_kernel(n, K, config.tail_eps)
        idx, _ = _snap_panel(config.x_panel, n)
        for f in CATALOG.values():
            want = _serial_iterate(fixed, n, f, k)
            got = _serial_iterate(kernel.matrix, n, f, k)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g[idx], w[idx])
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-30)


def _serial_iterate(matrix, n, f, k):
    """Values and budget of k sequential CSR products of f and of the mass."""
    v = np.asarray(f(np.arange(matrix.shape[0]) / n), dtype=float)
    f_sup = float(np.max(np.abs(v)))
    mass = np.ones(matrix.shape[0])
    for _ in range(k):
        v = matrix @ v
        mass = matrix @ mass
    return v, f_sup * np.clip(1.0 - mass, 0.0, None)


class TestBlockIterate:
    """Block products agree with sequential CSR sums to within round-off."""

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_matches_the_sequential_oracle(self, n):
        # each step, both sums of a row's at most m terms are within
        # m 2^-53 sup|v| of the exact one, and the substochastic kernel
        # carries earlier errors forward without growth
        config = ExperimentConfig("semigroup")
        K = lattice_cutoff(n, max(config.x_panel), config.tail_eps)
        k = floor_nt(n, config.t)
        kernel = build_sm_kernel(n, K, config.tail_eps)
        m = max(block.shape[1] for _, _, block in kernel.blocks)
        fs = list(CATALOG.values())
        # the oracle steps every function and the mass as columns of one
        # CSR product, whose sums run sequentially over each row's entries
        columns = np.column_stack([f(kernel.lattice()) for f in fs]
                                  + [np.ones(kernel.size)]).astype(float)
        f_sups = np.max(np.abs(columns[:, :-1]), axis=0)
        for _ in range(k):
            columns = kernel.matrix @ columns
        leak = np.clip(1.0 - columns[:, -1], 0.0, None)
        for f, values, f_sup in zip(fs, columns.T, f_sups):
            lf = kernel_iterate(kernel, f, k)
            bound = 2 * k * m * 2.0 ** -53 * f_sup
            assert np.max(np.abs(lf.values - values)) <= bound, f.label
            assert np.max(np.abs(lf.error_budget - f_sup * leak)) <= bound, f.label

    @pytest.mark.parametrize("n", [8, 32])
    def test_starts_no_thread(self, monkeypatch, n):
        # kernels below _MIN_THREADED_ENTRIES step on the calling thread
        def no_start(thread):
            raise AssertionError("kernel_iterate started a thread")

        monkeypatch.setattr(iterates, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        kernel = semigroup_kernel(n)
        assert sum(block.size for *_, block in kernel.blocks) < iterates._MIN_THREADED_ENTRIES
        for k in (0, 1, 4):
            kernel_iterate(kernel, CATALOG["f1"], k)
        small = small_kernel()
        for k in (0, 1, 4):
            kernel_iterate(small, CATALOG["f1"], k)

    def test_cpu_count_does_not_reach_the_bits(self, monkeypatch, watchdog,
                                               started_threads):
        # up to 8 threads, more than the cores, switching every microsecond:
        # a block that read a row before its writer had reached the barrier
        # would move the bits
        kernel = semigroup_kernel(128)
        k = floor_nt(128, ExperimentConfig("semigroup").t)
        monkeypatch.setattr(iterates, "_MIN_THREADED_ENTRIES", 2 ** 16)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 4, 8):
                monkeypatch.setattr(iterates, "_usable_cpus", lambda: cpus)
                before = len(started_threads)
                results.append(kernel_iterate(kernel, CATALOG["f1"], k))
                assert len(started_threads) - before == cpus - 1
        finally:
            sys.setswitchinterval(interval)
        for lf in results[1:]:
            assert np.array_equal(lf.values, results[0].values)
            assert np.array_equal(lf.error_budget, results[0].error_budget)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8, 57, 1000])
    def test_helpers_follow_the_work_not_the_cpus(self, monkeypatch, started_threads, cpus):
        # one thread per _MIN_THREADED_ENTRIES stored entries at most: the
        # n = 128 kernel (2.8M entries) takes two however many CPUs there are
        monkeypatch.setattr(iterates, "_usable_cpus", lambda: cpus)
        kernel = semigroup_kernel(128)
        entries = sum(block.size for *_, block in kernel.blocks)
        kernel_iterate(kernel, CATALOG["f1"], 2)
        assert len(started_threads) == min(cpus, entries // 2 ** 20) - 1 == min(cpus, 2) - 1
        kernel_iterate(semigroup_kernel(32), CATALOG["f1"], 2)
        assert len(started_threads) == min(cpus, 2) - 1

    def test_a_threaded_run_leaves_no_thread_behind(self, monkeypatch, watchdog,
                                                   started_threads):
        kernel = semigroup_kernel(128)
        monkeypatch.setattr(iterates, "_usable_cpus", lambda: 2)
        before = threading.active_count()
        kernel_iterate(kernel, CATALOG["f1"], 4)
        assert len(started_threads) == 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [(0,), (-1,), (0, -1)])
    def test_a_failing_group_neither_hangs_nor_leaks_a_thread(self, monkeypatch, watchdog,
                                                              failing):
        # the first block and the last are claimed by either thread; with
        # both failing the first block's error is raised
        kernel = semigroup_kernel(128)
        bad = {id(kernel.blocks[i][2]): i % len(kernel.blocks) for i in failing}
        dot = np.dot

        def failing_dot(block, x, out):
            if id(block) in bad:
                raise FloatingPointError(f"block {bad[id(block)]}")
            return dot(block, x, out=out)

        monkeypatch.setattr(iterates, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(np, "dot", failing_dot)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"block {min(bad.values())}$"):
            kernel_iterate(kernel, CATALOG["f1"], 4)
        assert threading.active_count() == before


class TestKernelIterate:
    def test_zero_steps_restricts(self):
        kernel = small_kernel()
        lf = kernel_iterate(kernel, CATALOG["f1"], 0)
        np.testing.assert_allclose(lf.values, np.exp(-kernel.lattice()), rtol=1e-15)
        assert np.all(lf.error_budget == 0.0)

    def test_non_finite_f_raises(self):
        f = TestFunction("inf", lambda x: np.where(np.asarray(x) > 1.0, np.inf, 1.0))
        with pytest.raises(EvaluationError):
            kernel_iterate(small_kernel(), f, 3)

    def test_one_step_constants(self):
        kernel = small_kernel()
        lf = kernel_iterate(kernel, CATALOG["e0"], 1)
        checked = SMALL_CHECKED_ROWS
        assert np.all(lf.values[: checked + 1] <= 1.0 + 5e-15)
        assert np.all(lf.values[: checked + 1] >= 1.0 - SMALL_TAIL_EPS - 5e-15)

    def test_martingale_two_steps_unit_index(self):
        # the identity grows past any cutoff, so the budget only prices the
        # lattice part of the lost mass; a deep cutoff makes both negligible
        n = 1
        K = lattice_cutoff(n, 3.0, 1e-12)
        kernel = build_sm_kernel(n, K, 1e-12, checked_rows=1)
        lf = kernel_iterate(kernel, CATALOG["e1"], 2)
        i = round(1.0 * n)
        assert abs(lf.values[i] - 1.0) <= lf.error_budget[i] + 1e-12

    def test_exponential_map_oracle(self):
        # the operator maps exp(-lam x) to exp(-g(lam) x) with
        # g(lam) = n (1 - exp(-lam/n)); composing the map k times gives an
        # exact reference for the iterate away from the cutoff
        n, k = 5, 7
        kernel = small_kernel(n=n, x_max=2.0)
        lf = kernel_iterate(kernel, CATALOG["f1"], k)
        lam = 1.0
        for _ in range(k):
            lam = n * (1.0 - math.exp(-lam / n))
        latt = kernel.lattice()
        upto = 2 * n + 1
        np.testing.assert_allclose(
            lf.values[:upto], np.exp(-lam * latt[:upto]), atol=1e-9
        )

    def test_positivity_preserved(self):
        kernel = small_kernel()
        for k in (1, 3, 10):
            lf = kernel_iterate(kernel, CATALOG["xexp"], k)
            assert np.all(lf.values >= -1e-15)

    def test_budget_grows_with_steps(self):
        kernel = small_kernel()
        budgets = [
            float(np.max(kernel_iterate(kernel, CATALOG["e0"], k).error_budget))
            for k in (0, 2, 8)
        ]
        assert budgets[0] == 0.0
        assert budgets[0] <= budgets[1] <= budgets[2]

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            kernel_iterate(small_kernel(), CATALOG["e0"], -1)


class TestBernsteinKernel:
    def test_absorbing_endpoints(self):
        kernel = bernstein_kernel(6)
        top, bottom = kernel[6], kernel[0]
        assert bottom[0] == 1.0 and np.all(bottom[1:] == 0.0)
        assert top[6] == 1.0 and np.all(top[:6] == 0.0)

    def test_rows_are_stochastic(self):
        kernel = bernstein_kernel(9)
        for row in kernel:
            assert float(row.sum()) == pytest.approx(1.0, abs=1e-14)

    def test_binomial_row(self):
        # nothing is truncated: the kernel is dense on all n + 1 states, and
        # every interior row has all n + 1 of them in its support
        kernel = bernstein_kernel(2)
        assert isinstance(kernel, np.ndarray) and kernel.shape == (3, 3)
        np.testing.assert_allclose(kernel[1], [0.25, 0.5, 0.25], atol=1e-15)
        n = 5
        stored = np.count_nonzero(bernstein_kernel(n), axis=1)
        np.testing.assert_array_equal(stored, [1] + [n + 1] * (n - 1) + [1])

    @pytest.mark.parametrize("n", [1, 2, 5, 57, 1000])
    def test_rows_equal_per_row_binomial_pmf(self, n):
        # the kernel fills its interior rows in one broadcast call; each must
        # carry the bits of the scalar-p call for that row
        rows = bernstein_kernel(n)
        assert rows.shape == (n + 1, n + 1)
        j = np.arange(n + 1)
        oracle = np.zeros((n + 1, n + 1))
        oracle[0, 0] = oracle[n, n] = 1.0
        for i in range(1, n):
            oracle[i] = _binomial_pmf(n, i / n, j)
        np.testing.assert_array_equal(rows, oracle)


class TestKeliskyRivlin:
    def test_reference_values(self):
        assert kelisky_rivlin_reference(CATALOG["e2"], 0.5) == 0.5
        f = TestFunction("c", lambda x: 2.5 * np.ones_like(np.asarray(x, dtype=float)))
        assert kelisky_rivlin_reference(f, 0.3) == 2.5
        assert kelisky_rivlin_reference(CATALOG["e1"], 0.77) == pytest.approx(0.77)

    def test_domain(self):
        with pytest.raises(ValueError):
            kelisky_rivlin_reference(CATALOG["e2"], 1.2)
        with pytest.raises(ValueError, match=r"^x must be in \[0, 1\], got 1\.5"):
            kelisky_rivlin_reference(CATALOG["e2"], np.array([0.0, 1.5]))

    @pytest.mark.parametrize("label", sorted(CATALOG))
    def test_array_equals_per_point_calls(self, label):
        f = CATALOG[label]
        x = np.arange(58) / 57
        got = kelisky_rivlin_reference(f, x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        np.testing.assert_array_equal(got, [kelisky_rivlin_reference(f, float(u)) for u in x])

    def test_iterates_contract_geometrically(self):
        n = 5
        kernel = bernstein_kernel(n)
        latt = np.arange(n + 1) / n
        ref = kelisky_rivlin_reference(CATALOG["e2"], latt)
        v = np.asarray(CATALOG["e2"](latt), dtype=float)
        devs = []
        for _ in range(60):
            v = kernel @ v
            devs.append(float(np.max(np.abs(v - ref))))
        assert all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
        # spectral gap 1 - 1/n = 0.8 drives the decay
        assert devs[-1] <= devs[0] * 0.81 ** 59


class TestChainSampling:
    def test_zero_is_absorbing(self):
        rng = np.random.default_rng(0)
        values = chain_terminal_values(4, 10, 0.0, 100, rng)
        assert np.all(values == 0.0)

    def test_states_live_on_lattice(self):
        rng = np.random.default_rng(1)
        values = chain_terminal_values(7, 3, 1.3, 50, rng)
        assert np.all(np.abs(values * 7 - np.round(values * 7)) < 1e-12)

    def test_reproducible_given_seed(self):
        a = chain_terminal_values(5, 4, 2.0, 100, np.random.default_rng(99))
        b = chain_terminal_values(5, 4, 2.0, 100, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_mean_preservation(self):
        rng = np.random.default_rng(7)
        vals = chain_terminal_values(5, 3, 2.0, 200_000, rng)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 2.0) <= 3.5 * se

    def test_one_step_distribution_is_poisson(self):
        rng = np.random.default_rng(11)
        draws = (chain_terminal_values(1, 1, 1.0, 200_000, rng) * 1).astype(int)
        kmax = 12
        observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
        kk = np.arange(kmax + 1)
        pmf = np.exp(-1.0 + kk * 0.0 - gammaln(kk + 1.0))
        pmf[-1] = 1.0 - pmf[:-1].sum()
        expected = pmf * draws.size
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, kmax) > 0.001

    def test_five_step_distribution_is_kernel_law(self):
        n, k, i = 5, 5, 5
        rng = np.random.default_rng(13)
        draws = np.round(chain_terminal_values(n, k, i / n, 200_000, rng) * n).astype(int)
        law = _kernel_law(k, i)
        # bins with at least 20 expected draws, the rest pooled into the last
        jmax = int(np.nonzero(law * draws.size >= 20)[0][-1])
        pmf = law[: jmax + 1].copy()
        pmf[-1] = 1.0 - pmf[:-1].sum()
        observed = np.bincount(np.minimum(draws, jmax), minlength=jmax + 1)
        expected = pmf * draws.size
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert stats.chi2.sf(chi2, jmax) > 0.001

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            chain_terminal_values(0, 3, 1.0, 4, rng)
        with pytest.raises(ValueError):
            chain_terminal_values(5, -1, 1.0, 4, rng)
        with pytest.raises(ValueError):
            chain_terminal_values(5, 1, -1.0, 4, rng)
        for x in (math.inf, math.nan):
            with pytest.raises(ValueError):
                chain_terminal_values(5, 1, x, 4, rng)

    def test_overflowing_mean_is_rejected_before_the_law_is_sized(self, monkeypatch):
        def no_fft(m):
            raise AssertionError("an FFT was sized")

        monkeypatch.setattr(iterates, "_fft_size_at_least", no_fft)
        rng = np.random.default_rng(0)
        # n x = 1e301 is finite, but no law that large could be sized
        for x, shown in ((1e308, r"1e\+308"), (1e300, r"1e\+300")):
            with pytest.raises(ValueError, match=rf"n x = 10 \* {shown} must be at most 2\^53"):
                chain_terminal_values(10, 5, x, 10, rng)
        # no step taken: the endpoints are x itself
        np.testing.assert_array_equal(chain_terminal_values(10, 0, 1e308, 3, rng), 1e308)


@st.composite
def _laws_and_uniforms(draw):
    """A cumulative distribution with leading zeros, plateaus and a flat top,
    and uniforms on [0, cdf[-1]], some equal to its entries: none, one, or
    more than the law has entries."""
    steps = draw(st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1.0)),
                          min_size=1, max_size=40))
    leading, top = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cdf = np.cumsum([0.0] * leading + steps + [0.0] * top)
    last = float(cdf[-1])
    # 0.0, entries of the law, the largest uniform scaled (which may round
    # up to cdf[-1]) and draws in between
    uniform = st.one_of(
        st.just(0.0),
        st.sampled_from(cdf.tolist()),
        st.just(np.nextafter(1.0, 0.0) * last),
        st.floats(0.0, last),
    )
    size = draw(st.sampled_from([0, 1, cdf.size + draw(st.integers(1, 60))]))
    u = draw(st.lists(uniform, min_size=size, max_size=size))
    return cdf, np.array(u, dtype=float)


class TestChainEndpoints:
    """The endpoints located by one sort carry the bits of one search per draw."""

    @settings(max_examples=300, deadline=None)
    @given(law=_laws_and_uniforms())
    @example(law=(np.array([0.0, 0.0, 0.25, 0.25, 0.5, 1.0, 1.0]),
                  np.array([1.0, 0.25, 0.0, 0.5, 0.3, 0.25, 0.0, 0.9999])))
    def test_atoms_are_the_right_searches(self, law):
        cdf, u = law
        want = np.searchsorted(cdf, u, side="right").astype(float)
        got = _atoms(cdf, u.copy())
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n, k, x", [(10, 10, 1.0), (50, 50, 1.0), (250, 250, 1.0),
                                         (7, 3, 1.3)])
    @pytest.mark.parametrize("size", [0, 1, 25_000])
    def test_endpoints_are_one_search_per_draw(self, n, k, x, size):
        got = chain_terminal_values(n, k, x, size, np.random.default_rng(2024))
        cdf = _chain_cdf(n, k, x)
        u = np.random.default_rng(2024).random(size) * cdf[-1]
        want = np.searchsorted(cdf, u, side="right") / n
        assert got.dtype == want.dtype and got.shape == (size,)
        np.testing.assert_array_equal(got, want)


# The largest cutoff the tests ask _kernel_law for: i <= 100 and k <= 50.
LAW_MAX_CUTOFF = 2614


@functools.lru_cache(maxsize=None)
def _deep_kernel():
    """The SM kernel up to LAW_MAX_CUTOFF; row i is Poisson(i) whatever n is."""
    return build_sm_kernel(1, LAW_MAX_CUTOFF)


def _kernel_law(k, i):
    """e_i^T P^k from a kernel deep enough to lose no more than round-off.

    Rows 0..K of the cached deep kernel, cut at column K, store what a
    fresh ``build_sm_kernel(n, K)`` would, as rows are clipped at K.  Each
    step multiplies e only into the dense blocks that hold the states it
    has reached, 0..h; the blocks above h meet zeros of e.
    """
    K = int(i + 20 * math.sqrt(i * k) + 20 * k + 100)
    assert K <= LAW_MAX_CUTOFF
    kernel = _deep_kernel()
    e = np.zeros(kernel.size)
    e[i] = 1.0
    for _ in range(k):
        h = int(np.flatnonzero(e)[-1])
        y = np.zeros_like(e)
        for r0, c0, block in kernel.blocks:
            if r0 > h:
                break
            rows, width = block.shape
            y[c0:c0 + width] += e[r0:r0 + rows] @ block
        y[K + 1:] = 0.0
        e = y
    e = e[:K + 1]
    assert abs(1.0 - e.sum()) <= 1e-12
    return e


def _law(n, k, x):
    return np.diff(_chain_cdf(n, k, x), prepend=0.0)


LAW_SETTINGS = settings(max_examples=40, deadline=None)

# Double unit roundoff.
EPS = np.finfo(float).eps


def _complex_psi(size, k):
    """phi_{k-1} - 1 at the roots of unity by complex ``np.expm1``, the reference."""
    psi = np.expm1(np.arange(size // 2 + 1) * (-2j * np.pi / size))
    for _ in range(k - 1):
        psi = np.expm1(psi)
    return psi


def _complex_cdf(n, k, x):
    """_chain_cdf's law built on the complex reference iteration."""
    size = _chain_cdf(n, k, x).size
    pmf = np.fft.irfft(np.exp(n * x * _complex_psi(size, k)), size)
    return np.cumsum(np.clip(pmf, 0.0, None))


class TestUnitCircleIteration:
    """_gw_psi's real arithmetic against the complex iteration it replaced."""

    @staticmethod
    def _assert_within_ulps_per_generation(size, k):
        a, b = _gw_psi(*_roots_of_unity_minus_one(size), k)
        ref = _complex_psi(size, k)
        # every part stays within 4 units in the last place per generation
        assert np.all(np.abs(a - ref.real) <= 4 * k * EPS * np.abs(ref.real))
        assert np.all(np.abs(b - ref.imag) <= 4 * k * EPS * np.abs(ref.imag))

    @pytest.mark.parametrize("n", [10, 50, 250])
    def test_default_laws_match_the_complex_iteration(self, n):
        self._assert_within_ulps_per_generation(_chain_cdf(n, n, 1.0).size, n)

    @LAW_SETTINGS
    @given(n=st.integers(1, 60), k=st.integers(1, 60),
           x=st.floats(min_value=0.01, max_value=3.0))
    def test_matches_the_complex_iteration(self, n, k, x):
        self._assert_within_ulps_per_generation(_chain_cdf(n, k, x).size, k)

    @pytest.mark.parametrize("n", [10, 50, 250])
    def test_default_cdfs_are_within_m_roundoffs_of_the_reference(self, n):
        cdf = _chain_cdf(n, n, 1.0)
        assert np.max(np.abs(cdf - _complex_cdf(n, n, 1.0))) <= 4 * cdf.size * EPS

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_never_writes_into_its_argument(self, k):
        re, im = _roots_of_unity_minus_one(96)
        saved = re.copy(), im.copy()
        a, b = _gw_psi(re, im, k)
        np.testing.assert_array_equal(re, saved[0])
        np.testing.assert_array_equal(im, saved[1])
        # at k = 1 the result equals the argument but is a copy of it
        assert not np.shares_memory(a, re) and not np.shares_memory(b, im)


class TestChainLaw:
    """The FFT law of n X_k against closed forms and the kernel."""

    @LAW_SETTINGS
    @given(n=st.integers(1, 60), k=st.integers(1, 60),
           x=st.floats(min_value=0.01, max_value=3.0),
           lam=st.floats(min_value=0.01, max_value=5.0))
    def test_laplace_transform_is_iterated_v_n(self, n, k, x, lam):
        # E exp(-lam X_1) from y is exp(-y v_n(lam)), v_n(lam) = n (1 - e^{-lam/n})
        v = lam
        for _ in range(k):
            v = -n * math.expm1(-v / n)
        p = _law(n, k, x)
        j = np.arange(p.size)
        assert abs(float(p @ np.exp(-lam * j / n)) - math.exp(-x * v)) <= 1e-12

    @LAW_SETTINGS
    @given(n=st.integers(1, 60), k=st.integers(1, 60),
           x=st.floats(min_value=0.01, max_value=3.0))
    def test_extinction_mass_is_closed_form(self, n, k, x):
        phi = 0.0
        for _ in range(k - 1):
            phi = math.exp(phi - 1.0)
        assert abs(_law(n, k, x)[0] - math.exp(-n * x * (1.0 - phi))) <= 1e-13

    @LAW_SETTINGS
    @given(n=st.integers(1, 50), k=st.integers(1, 50), data=st.data())
    def test_equals_kernel_power(self, n, k, data):
        i = data.draw(st.integers(1, 2 * n))
        p = _law(n, k, i / n)
        e = _kernel_law(k, i)
        m = min(p.size, e.size)
        assert np.max(np.abs(p[:m] - e[:m])) <= 1e-13
        # round-off stays within M unit roundoffs in total variation
        tv = 0.5 * (np.abs(p[:m] - e[:m]).sum() + p[m:].sum() + e[m:].sum())
        assert tv <= p.size * np.finfo(float).eps + abs(1.0 - e.sum())

    @pytest.mark.parametrize("K", [0, 1, 37, 500, LAW_MAX_CUTOFF])
    def test_deep_kernel_blocks_equal_fresh_kernels(self, K):
        block = _deep_kernel().matrix[: K + 1, : K + 1]
        fresh = build_sm_kernel(1, K).matrix
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(block, name), getattr(fresh, name))

    def test_alias_bound_bounds_the_tail(self):
        n, k, x = 50, 50, 1.0
        cdf = _chain_cdf(n, k, x)
        bound = _alias_bound(n, k, x)
        for size in (64, 128, 256, 384, 512, 768, 1024):
            tail = 1.0 - cdf[size - 1]
            assert tail <= bound(size) * (1 + 1e-9) + 1e-15

    def test_large_n_outgrows_the_twelve_sigma_start(self):
        n = k = 250
        start = _fft_size_at_least(n + 12.0 * math.sqrt(n * k) + 64)
        size = _chain_cdf(n, k, 1.0).size
        bound = _alias_bound(n, k, 1.0)
        assert bound(start) > _ALIAS_BUDGET
        assert size > start
        assert bound(size) <= _ALIAS_BUDGET

    # the default weak-convergence rungs, n = k at x = 1
    @pytest.mark.parametrize("n, size", [(10, 256), (50, 1536), (250, 8192)])
    def test_default_laws_keep_their_fft_sizes(self, n, size):
        assert _chain_cdf(n, n, 1.0).size == size

    @given(m=st.floats(min_value=0.0, max_value=1e6))
    def test_fft_sizes_are_the_smallest_smooth_even_sizes(self, m):
        sizes = sorted(c * 2 ** a for c in (1, 3, 5) for a in range(1, 22))
        assert _fft_size_at_least(m) == next(s for s in sizes if s >= m)

    def test_law_is_read_only_and_shared_by_streams(self, cpus):
        cpus(4)
        _chain_cdf.cache_clear()
        estimate_from(sample_across_workers(
            lambda rng, m: CATALOG["f1"](chain_terminal_values(7, 3, 1.3, m, rng)),
            4 * _MIN_THREADED_DRAW, seed=5,
        ))
        assert _chain_cdf.cache_info().misses == 1
        with pytest.raises(ValueError):
            _chain_cdf(7, 3, 1.3)[0] = 1.0
