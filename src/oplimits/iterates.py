"""Operator iterates via truncated transition kernels and chain sampling.

The k-th iterate of a lattice operator equals the k-step expectation of a
Markov chain on {i/n}.  For the Poisson (Szasz-Mirakyan) chain the one-step
law from state i/n is Poisson(i)/n, which does not depend on n; state 0 is
absorbing.  For the binomial (Bernstein) chain on [0, 1] the law from i/n is
Binomial(n, i/n)/n, with 0 and 1 absorbing.

The kernels' rows come from the series' own pmf routines and their
arguments pass the series' own checks, both in :mod:`oplimits.operators`.

Exact computation truncates the state space at a cutoff K and applies the
row-stochastic kernel repeatedly as a sparse matrix-vector product.  Each
Poisson row keeps a two-sided window whose Bernstein tail bounds certify at
most 2^-64 of mass missing on either side, below the resolution of a row
sum.  Rows are NOT renormalized: the iterate additionally propagates the
constant-one function, so the exact leaked mass per starting state is
known.  The resulting per-point error budget (sup |f| times leaked mass) is
rigorous and, unlike a uniform bound over all rows, stays tight at the
interior states the experiments evaluate.  For k >= 1 the two propagations
run side by side on two threads; each is the same sequence of sparse
products on either, so the results do not depend on the CPU count.

Chain sampling does not step the chain.  After its first Poisson(n x) step
the Poisson chain is a critical Galton-Watson process with Poisson(1)
offspring, so the k-step law has a closed-form probability generating
function.  One inverse FFT of it gives the whole law, and each endpoint is
then one uniform draw pushed through the cumulative distribution.
"""

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import CutoffTooSmallError, EvaluationError
from .operators import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _binomial_pmf,
    _check_index,
    _poisson_pmf,
    _validate,
    truncation_index,
)

# Log of the per-side mass budget 2^-64 of a kernel row, below the 2^-53
# resolution of a row sum, so dropping that mass moves no stored value.
_ROW_LOG_BUDGET = 64.0 * math.log(2.0)

# lattice_cutoff's headroom factor on the largest starting mean.
_CUTOFF_SAFETY = 2.5

@dataclass(frozen=True)
class TransitionKernel:
    """One-step transition probabilities on the lattice {i/n : 0 <= i <= K}.

    ``matrix`` holds the truncated rows; one minus a row's sum is the mass
    that row lost to truncation (within-row tail plus anything beyond K).
    """

    n: int
    matrix: sparse.csr_matrix = field(repr=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def lattice(self) -> np.ndarray:
        return np.arange(self.size) / self.n


def lattice_cutoff(
    n: int, x_max: float, tail_eps: float = DEFAULT_POLICY.tail_eps
) -> int:
    """Pick a state-space cutoff for iterating from starting points <= x_max.

    Uses the Poisson quantile at level ``tail_eps`` for mean
    ``_CUTOFF_SAFETY * n * x_max``.  The safety factor leaves headroom for
    the mass the iteration spreads upward; the resulting leak is validated
    exactly, per starting point, by :func:`kernel_iterate`.
    """
    _validate(n, x_max, "x_max")
    policy = TruncationPolicy(tail_eps=tail_eps, max_terms=10 ** 8)
    # Poisson(1 * mean) keeps the mean's bits, where n * (2.5 x_max) could not
    return max(truncation_index(1, _CUTOFF_SAFETY * n * x_max, policy), 1)


def _row_window(i: np.ndarray, K: int):
    """Columns lo..hi of Poisson(i) rows, each side missing at most 2^-64.

    For X ~ Poisson(i) and a >= 0, P(X <= i - a) <= exp(-a^2 / (2 i)) and
    P(X >= i + a) <= exp(-a^2 / (2 (i + a/3))) (Bernstein).  With L the log
    of the budget, a = sqrt(2 i L) prices the lower side and
    a = L/3 + sqrt(L^2/9 + 2 i L) the upper one; hi is then clipped to K.
    """
    L = _ROW_LOG_BUDGET
    lo = np.maximum(0, np.floor(i - np.sqrt(2.0 * L * i)).astype(np.int64))
    hi = np.ceil(i + L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * i)).astype(np.int64)
    return lo, np.minimum(K, hi)


def build_sm_kernel(
    n: int,
    K: int,
    tail_eps: float = DEFAULT_POLICY.tail_eps,
    checked_rows: Optional[int] = None,
) -> TransitionKernel:
    """Truncated Poisson transition kernel: row i is the Poisson(i) pmf.

    Row 0 is the point mass at 0.  Each row is truncated to its certified
    window (see :func:`_row_window`) intersected with [0, K].  When
    ``checked_rows`` is given, rows 0..checked_rows must each miss at most
    ``tail_eps`` of mass (one minus the stored row sum), otherwise
    :class:`CutoffTooSmallError` reports the worst offender.
    """
    n = _check_index(n)
    K = _check_index(K, "K", least=0)
    i = np.arange(K + 1)
    lo, hi = _row_window(i, K)
    lo[0] = hi[0] = 0  # state 0 is absorbing
    indptr = np.concatenate([[0], np.cumsum(hi - lo + 1)])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    defect = np.zeros(K + 1)
    data[0] = 1.0
    indices[0] = 0
    # the row loop reads its bounds as Python ints, which index faster
    starts, lo, hi = indptr.tolist(), lo.tolist(), hi.tolist()
    for r in range(1, K + 1):
        start, stop = starts[r], starts[r + 1]
        row = _poisson_pmf(float(r), lo[r], hi[r], out=data[start:stop])
        indices[start:stop] = np.arange(lo[r], hi[r] + 1)
        defect[r] = max(0.0, 1.0 - float(row.sum()))
    matrix = sparse.csr_matrix(
        (data, indices, indptr), shape=(K + 1, K + 1), copy=False
    )
    if checked_rows is not None:
        checked_rows = min(int(checked_rows), K)
        worst = int(np.argmax(defect[: checked_rows + 1]))
        if defect[worst] > tail_eps:
            raise CutoffTooSmallError(
                f"row {worst} loses mass {defect[worst]:.3e} > tail_eps={tail_eps:.3e}; "
                f"increase the cutoff K={K}"
            )
    return TransitionKernel(n=n, matrix=matrix)


def bernstein_kernel(n: int) -> TransitionKernel:
    """Exact (n+1) x (n+1) binomial transition kernel on {i/n : 0 <= i <= n}.

    Row i is Binomial(n, i/n); rows 0 and n are point masses (absorbing
    endpoints) and no row is truncated.
    """
    n = _check_index(n)
    rows = np.zeros((n + 1, n + 1))
    rows[0, 0] = rows[n, n] = 1.0
    rows[1:n] = _binomial_pmf(n, np.arange(1, n)[:, None] / n, np.arange(n + 1))
    return TransitionKernel(n=n, matrix=sparse.csr_matrix(rows))


@dataclass(frozen=True)
class LatticeFunction:
    """Values of an iterated function on the lattice {i/n : 0 <= i <= K}.

    ``error_budget[i]`` prices the truncation: it is the lattice sup of |f|
    times the mass the iteration provably lost from starting state i/n.
    For functions dominated by their lattice sup (bounded, or decaying past
    the cutoff) this bounds |values[i] - exact k-step expectation|; for
    functions still growing at the cutoff the lost mass carries values the
    lattice never saw, and the budget understates by that growth factor.
    """

    values: np.ndarray = field(repr=False)
    error_budget: np.ndarray = field(repr=False)


def _power(matrix, v, k: int) -> np.ndarray:
    """``matrix`` applied k times to v, one sparse product per step."""
    for _ in range(k):
        v = matrix @ v
    return v


def kernel_iterate(kernel: TransitionKernel, f, k: int) -> LatticeFunction:
    """Apply the kernel k times to f restricted to the lattice.

    Alongside the function values the constant-one function is propagated;
    its shortfall from 1 is the exact per-state leaked mass, which prices
    the truncation error budget.  ``f`` is evaluated once, on the calling
    thread.  For k >= 1 one helper thread runs all k products of the values
    while the calling thread runs those of the mass; the values are
    bit-identical to running both on one thread.  At k = 0 nothing has
    leaked, so f on the lattice returns with a zero budget and no thread.
    """
    k = _check_index(k, "k", least=0)
    latt = kernel.lattice()
    v = np.asarray(f(latt), dtype=float)
    if v.shape != latt.shape:
        raise ValueError("f must evaluate elementwise on the lattice")
    if not np.all(np.isfinite(v)):
        bad = float(latt[~np.isfinite(v)][0])
        raise EvaluationError(f"non-finite lattice value at {bad}")
    if k == 0:
        return LatticeFunction(values=v, error_budget=np.zeros(kernel.size))
    f_sup = float(np.max(np.abs(v)))
    matrix = kernel.matrix
    mass = np.ones(kernel.size)
    # scipy's CSR matvec releases the GIL, so the helper's products of f run
    # alongside the calling thread's products of the mass; leaving the block
    # joins the helper
    with ThreadPoolExecutor(max_workers=1) as helper:
        values = helper.submit(_power, matrix, v, k)
        mass = _power(matrix, mass, k)
        v = values.result()
    if not np.all(np.isfinite(v)):
        raise EvaluationError("non-finite accumulation during kernel iteration")
    leak = np.clip(1.0 - mass, 0.0, None)
    return LatticeFunction(values=v, error_budget=f_sup * leak)


# Ceiling on the certified bound for the probability mass of n X_k at or
# above the FFT size M.  The inverse FFT folds that mass back onto
# {0, ..., M-1} (aliasing), so the bound caps the law's aliasing error in
# total variation.
_ALIAS_BUDGET = 1e-15

# Points r - 1, evenly spaced in (0, 2/k), at which the Chernoff bound
# G(r) r^-M is evaluated; any one of them gives a valid bound.
_BOUND_POINTS = 256

# Concurrent Monte Carlo streams wait for the first stream's law instead of
# each building it.
_LAW_LOCK = threading.Lock()


def _fft_size_at_least(m: float) -> int:
    """Smallest even size of the form 2^a, 3 * 2^a or 5 * 2^a that is >= m."""
    return min(
        c * 2 ** max(1, math.ceil(math.log2(max(m, 1.0) / c))) for c in (1, 3, 5)
    )


def _gw_psi(s_minus_one: np.ndarray, k: int) -> np.ndarray:
    """phi_{k-1}(s) - 1 at s = 1 + ``s_minus_one``, for k >= 1.

    Iterates psi_0 = s - 1, psi_j = expm1(psi_{j-1}), which is
    phi_j = exp(phi_{j-1} - 1) kept accurate where phi_j is near 1.
    """
    psi = s_minus_one
    for _ in range(k - 1):
        psi = np.expm1(psi)
    return psi


def _alias_bound(n: int, k: int, x: float, size: int) -> float:
    """Chernoff bound min_r G(r) r^-size on P(n X_k >= size), for k >= 1.

    G(r) = exp(n x (phi_{k-1}(r) - 1)) is the generating function of n X_k
    at real r > 1.  The critical process keeps G finite only for r below
    about 1 + 2/k, so r - 1 runs over a grid of (0, 2/k); grid points where
    G overflows are skipped.
    """
    rm1 = np.linspace(0.0, 2.0 / k, _BOUND_POINTS + 2)[1:-1]
    with np.errstate(over="ignore"):
        log_bound = n * x * _gw_psi(rm1, k) - size * np.log1p(rm1)
    return float(np.exp(np.min(log_bound)))


@functools.lru_cache(maxsize=8)
def _chain_cdf(n: int, k: int, x: float) -> np.ndarray:
    """Read-only cumulative distribution of n X_k on {0, ..., M-1}, k >= 1.

    M starts 12 standard deviations (Var n X_k = n x k) plus 64 above the
    mean n x and grows until :func:`_alias_bound` meets ``_ALIAS_BUDGET``.
    The law is ``irfft`` of G on the M/2 + 1 points exp(-2 pi i m / M);
    its round-off negatives are clipped to zero.
    """
    mean = n * x
    size = _fft_size_at_least(mean + 12.0 * math.sqrt(mean * k) + 64)
    while _alias_bound(n, k, x, size) > _ALIAS_BUDGET:
        size = _fft_size_at_least(size + 1)
    unit_circle_minus_one = np.expm1(np.arange(size // 2 + 1) * (-2j * np.pi / size))
    pmf = np.fft.irfft(np.exp(mean * _gw_psi(unit_circle_minus_one, k)), size)
    cdf = np.cumsum(np.clip(pmf, 0.0, None))
    cdf.flags.writeable = False
    return cdf


def chain_terminal_values(
    n: int, k: int, x: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized endpoints of ``size`` independent k-step chains from x.

    Each step replaces every value v by Poisson(n v)/n; the state 0 is
    absorbing.  The endpoints are drawn from the exact law of n X_k, whose
    generating function is G(s) = exp(n x (phi_{k-1}(s) - 1)) with
    phi_0(s) = s and phi_j(s) = exp(phi_{j-1}(s) - 1): a Poisson(n x)
    first step, then k - 1 generations of a critical Galton-Watson process
    with Poisson(1) offspring.  An inverse FFT of G at M roots of unity
    gives the law, and each endpoint is one uniform from ``rng`` located
    in its cumulative distribution.  The law differs from the exact one by
    at most ``_ALIAS_BUDGET`` (1e-15) in total variation from aliasing,
    certified at every call by a Chernoff bound on the mass at or above M,
    plus round-off of about M times the double unit roundoff (M = 1,536 at
    n = k = 50, where the measured total is 3e-14).  The law is built once
    per (n, k, x) and cached, so concurrent streams share it; its cost
    grows as k M, with M about n x + 12 sqrt(n x k) or more.
    """
    n = _validate(n, x)
    k = _check_index(k, "k", least=0)
    if k == 0 or x == 0:
        return np.full(size, float(x))
    with _LAW_LOCK:
        cdf = _chain_cdf(n, k, float(x))
    u = rng.random(size) * cdf[-1]
    return np.searchsorted(cdf, u, side="right") / n


def kelisky_rivlin_reference(f, x: float) -> float:
    """Fixed-n limit of Bernstein iterates: the chord f(0) + (f(1) - f(0)) x."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"reference is defined on [0, 1], got {x}")
    f0 = float(f(0.0))
    f1 = float(f(1.0))
    return f0 + (f1 - f0) * x
