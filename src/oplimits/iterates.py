"""Operator iterates via truncated transition kernels and chain sampling.

The k-th iterate of a lattice operator equals the k-step expectation of a
Markov chain on {i/n}.  For the Poisson (Szasz-Mirakyan) chain the one-step
law from state i/n is Poisson(i)/n, which does not depend on n; state 0 is
absorbing.  For the binomial (Bernstein) chain on [0, 1] the law from i/n is
Binomial(n, i/n)/n, with 0 and 1 absorbing.

The kernels' rows come from the series' own pmf routines in
:mod:`oplimits.operators`.

Exact computation truncates the state space at a cutoff K and applies the
row-stochastic kernel repeatedly.  Each Poisson row keeps a two-sided
window whose Bernstein tail bounds certify at most 2^-64 of mass missing on
either side, below the resolution of a row sum.  The rows are stored as
dense blocks of consecutive rows, each spanning the union of its rows'
windows, so a step is one dense (BLAS) matrix product per block.  numpy
releases the GIL around each product, so several threads step a large
kernel, each claiming the next block; a block writes rows of its own, so
the bits are the same on any number of threads.  Rows are NOT
renormalized: the iterate additionally propagates the constant-one
function, as a second column beside f, so the exact leaked mass per
starting state is known.  The resulting per-point error budget (sup |f|
times leaked mass) is rigorous and, unlike a uniform bound over all rows,
stays tight at the interior states the experiments evaluate.

Chain sampling does not step the chain: the Poisson chain's k-step law
has a closed-form generating function, one inverse FFT of it gives the
whole law, and each endpoint is one uniform draw pushed through its
cumulative distribution (see :func:`chain_terminal_values`).
"""

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.fft import irfft

from .errors import CutoffTooSmallError, EvaluationError, _check_index, _check_real
from .mc import _run_claimed, _usable_cpus
from .operators import (
    DEFAULT_POLICY,
    _WINDOW_LOG_BUDGET,
    TruncationPolicy,
    _binomial_pmf,
    _lower_end,
    _poisson_pmf,
    _poisson_weights,
    _upper_end,
)

# lattice_cutoff's headroom factor on the largest starting mean.
_CUTOFF_SAFETY = 2.5

# Consecutive rows per dense block of the Poisson kernel.  A block spans the
# union of its rows' windows, so taller blocks store more zeros and shorter
# ones run more products: the 128 steps of f1 at n = 128 on two threads took
# 90, 69 and 66 ms with 32, 64 and 128 rows (medians of 15, 2 vCPUs), but 128
# rows store 7% more entries and did not move the semigroup run's wall time.
_BLOCK_ROWS = 64


# Fewest stored kernel entries per thread of a threaded step.  On two fixed
# halves of the blocks against serial, kernel_iterate of f1 took 4.6/4.2 ms
# at n = 32 (2 x 213,056 entries) and 66/102 ms at n = 128 (2 x 1,415,455;
# medians of 15, 2 vCPUs).
_MIN_THREADED_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class TransitionKernel:
    """One-step transition probabilities on the lattice {i/n : 0 <= i <= K}.

    Row i stores columns ``lo[i]..hi[i]``; one minus their sum is the mass
    that row lost to truncation (within-row tail plus anything beyond K).
    The rows are held in dense blocks ``(r0, c0, D)`` of consecutive rows:
    ``D[a, b]`` is the probability of moving from state r0 + a to state
    c0 + b, and is 0.0 outside the row's stored columns.
    """

    n: int
    lo: np.ndarray = field(repr=False)
    hi: np.ndarray = field(repr=False)
    blocks: tuple = field(repr=False)

    @property
    def size(self) -> int:
        return self.lo.size

    def lattice(self) -> np.ndarray:
        return np.arange(self.size) / self.n

    def row(self, i: int) -> np.ndarray:
        """The stored columns ``lo[i]..hi[i]`` of row i (a view)."""
        # every block but the last is as tall as the first
        r0, c0, block = self.blocks[i // self.blocks[0][2].shape[0]]
        return block[i - r0, self.lo[i] - c0:self.hi[i] - c0 + 1]

    def step(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` = P ``x``, for states or columns of them, one product per block."""
        for r0, c0, block in self.blocks:
            h, w = block.shape
            np.dot(block, x[c0:c0 + w], out=out[r0:r0 + h])
        return out

    @functools.cached_property
    def matrix(self):
        """The stored rows as a ``scipy.sparse`` CSR matrix, built on first access."""
        from scipy import sparse

        indptr = np.concatenate([[0], np.cumsum(self.hi - self.lo + 1)])
        indices = (np.arange(indptr[-1])
                   - np.repeat(indptr[:-1] - self.lo, np.diff(indptr))).astype(np.int32)
        data = np.concatenate([self.row(i) for i in range(self.size)])
        return sparse.csr_matrix((data, indices, indptr),
                                 shape=(self.size, self.size), copy=False)


def lattice_cutoff(
    n: int, x_max: float, tail_eps: float = DEFAULT_POLICY.tail_eps
) -> int:
    """Pick a state-space cutoff for iterating from starting points <= x_max.

    Uses the Poisson quantile at level ``tail_eps`` for mean
    ``_CUTOFF_SAFETY * n * x_max``.  The safety factor leaves headroom for
    the mass the iteration spreads upward; the resulting leak is validated
    exactly, per starting point, by :func:`kernel_iterate`.
    """
    _check_index(n)
    _check_real(x_max, "x_max")
    # a mean that overflows is named by the series, as a finite one past max_terms is
    lo, w, _, _ = _poisson_weights(_CUTOFF_SAFETY * n * x_max,
                                   TruncationPolicy(tail_eps=tail_eps, max_terms=10 ** 8))
    return max(lo + w.size - 1, 1)


def _row_window(i: np.ndarray, K: int):
    """Columns lo..hi of Poisson(i) rows, each side missing at most 2^-64.

    The ends are the series windows' Chernoff point
    (:func:`~oplimits.operators._lower_end`), unrounded, and Bernstein point
    (:func:`~oplimits.operators._upper_end`); hi is then clipped to K.
    """
    return _lower_end(i, _WINDOW_LOG_BUDGET), np.minimum(K, _upper_end(i, _WINDOW_LOG_BUDGET))


def _poisson_block(r0, r1, lo, hi):
    """Rows r0..r1-1 of the Poisson kernel on columns lo[r0]..hi[r1-1].

    Rows from 1 on come from one call of the series' pmf routine, so each
    entry in a row's window carries the bits of that row evaluated alone.
    Entries outside a row's window are 0.0; row 0 is the point mass at 0.
    ``lo`` and ``hi`` never decrease, so those entries lie left of the last
    row's lo or right of the first row's hi, and only those columns are
    masked.
    """
    c0, c1 = int(lo[r0]), int(hi[r1 - 1])
    block = np.empty((r1 - r0, c1 - c0 + 1))
    first = max(r0, 1)
    if first < r1:
        _poisson_pmf(np.arange(first, r1, dtype=float)[:, None], c0, c1,
                     out=block[first - r0:])
    c = np.arange(c0, c1 + 1)
    left, right = int(lo[r1 - 1]) - c0, int(hi[r0]) - c0 + 1
    block[:, :left][c[:left] < lo[r0:r1, None]] = 0.0
    # this also clears row 0, whose window is column 0 alone
    block[:, right:][c[right:] > hi[r0:r1, None]] = 0.0
    if r0 == 0:
        block[0, 0] = 1.0
    return block


def build_sm_kernel(
    n: int,
    K: int,
    tail_eps: float = DEFAULT_POLICY.tail_eps,
    checked_rows: Optional[int] = None,
) -> TransitionKernel:
    """Truncated Poisson transition kernel: row i is the Poisson(i) pmf.

    Row 0 is the point mass at 0.  Each row is truncated to its certified
    window (see :func:`_row_window`) intersected with [0, K], and the rows
    are stored in dense blocks of ``_BLOCK_ROWS``.  When ``checked_rows``
    is given, rows 0..checked_rows must each miss at most ``tail_eps``, in
    (0, 1), of mass (one minus the stored row sum), otherwise
    :class:`CutoffTooSmallError` reports the worst offender.
    """
    n = _check_index(n)
    K = _check_index(K, "K", least=0)
    _check_real(tail_eps, "tail_eps", 0.0, 1.0, open_ends=True)
    lo, hi = _row_window(np.arange(K + 1), K)
    lo[0] = hi[0] = 0  # state 0 is absorbing
    blocks = tuple(
        (r0, int(lo[r0]), _poisson_block(r0, min(r0 + _BLOCK_ROWS, K + 1), lo, hi))
        for r0 in range(0, K + 1, _BLOCK_ROWS)
    )
    kernel = TransitionKernel(n=n, lo=lo, hi=hi, blocks=blocks)
    if checked_rows is not None:
        checked_rows = min(_check_index(checked_rows, "checked_rows", least=0), K)
        # the slices of TransitionKernel.row, taken block by block
        defect = []
        for r0, c0, block in blocks:
            r1 = min(r0 + block.shape[0], checked_rows + 1)
            defect += [max(0.0, 1.0 - float(row[a - c0:b - c0 + 1].sum()))
                       for row, a, b in zip(block, lo[r0:r1].tolist(), hi[r0:r1].tolist())]
        worst = int(np.argmax(defect))
        if defect[worst] > tail_eps:
            raise CutoffTooSmallError(
                f"row {worst} loses mass {defect[worst]:.3e} > tail_eps={tail_eps:.3e}; "
                f"increase the cutoff K={K}"
            )
    return kernel


def bernstein_kernel(n: int) -> TransitionKernel:
    """Exact (n+1) x (n+1) binomial transition kernel on {i/n : 0 <= i <= n}.

    Row i is Binomial(n, i/n); rows 0 and n are point masses (absorbing
    endpoints) and no row is truncated.  The kernel is one dense block.
    """
    n = _check_index(n)
    rows = np.zeros((n + 1, n + 1))
    rows[0, 0] = rows[n, n] = 1.0
    rows[1:n] = _binomial_pmf(n, np.arange(1, n)[:, None] / n, np.arange(n + 1))
    lo = np.zeros(n + 1, dtype=np.int64)
    hi = np.full(n + 1, n, dtype=np.int64)
    lo[n], hi[0] = n, 0
    return TransitionKernel(n=n, lo=lo, hi=hi, blocks=((0, 0, rows),))


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


def kernel_iterate(kernel: TransitionKernel, f, k: int) -> LatticeFunction:
    """Apply the kernel k times to f restricted to the lattice.

    Alongside the function values the constant-one function is propagated;
    its shortfall from 1 is the exact per-state leaked mass, which prices
    the truncation error budget.  f and the constant one are the two
    columns of one array, so each step is one dense matrix product per
    kernel block.  The blocks are the tasks of k steps of
    :func:`~oplimits.mc._run_claimed` on min(usable CPUs, stored entries //
    ``_MIN_THREADED_ENTRIES``) threads, so the bits do not depend on the
    CPU count and a failing product raises the lowest-numbered block's
    error.  At k = 0 f on the lattice returns with a zero budget.
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
    x = np.empty((kernel.size, 2))
    x[:, 0] = v
    x[:, 1] = 1.0
    y = np.empty_like(x)
    products = [[(block, a[c0:c0 + block.shape[1]], b[r0:r0 + block.shape[0]])
                 for r0, c0, block in kernel.blocks] for a, b in ((x, y), (y, x))]

    def product(step, i):
        block, operand, out = products[step % 2][i]
        # np.dot runs np.matmul's BLAS product, bit for bit, but releases the GIL
        np.dot(block, operand, out=out)

    entries = sum(block.size for _, _, block in kernel.blocks)
    threads = max(1, min(_usable_cpus(), entries // _MIN_THREADED_ENTRIES))
    _run_claimed(product, len(kernel.blocks), threads, steps=k)
    v, mass = (x, y)[k % 2].T
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


def _roots_of_unity_minus_one(size: int):
    """Real and imaginary parts of exp(-2 pi i m / size) - 1, 0 <= m <= size/2.

    The real part is -2 sin^2(theta/2), free of the cancellation in
    cos theta - 1, as in numpy's complex ``expm1``.
    """
    theta = np.arange(size // 2 + 1) * (-2.0 * np.pi / size)
    half_sin = np.sin(0.5 * theta)
    return -2.0 * half_sin * half_sin, np.sin(theta)


def _gw_psi(re: np.ndarray, im: np.ndarray, k: int):
    """Real and imaginary parts of phi_{k-1}(s) - 1 at s = 1 + re + i im, k >= 1.

    Iterates psi_0 = s - 1, psi_j = exp(psi_{j-1}) - 1 in real arithmetic,
    on copies of ``re`` and ``im``, for s in the closed unit disc (where
    re <= 0 and |im| <= 1 stay true).  With psi = a + i b, tau = tan(b/2)
    and e = expm1(a), exp(psi) - 1 = e - (1 + e)(1 - cos b) + i (1 + e) sin b,
    and sin b = 2 tau / (1 + tau^2), 1 - cos b = tau sin b keep both parts
    free of cancellation.  A generation is one ``np.tan``, one ``np.expm1``
    and ten in-place products, sums and quotients per point: about 13 ns a
    point on an AVX-512 Xeon, where complex ``np.expm1`` (a scalar loop)
    takes about 42 ns.  Both parts stay within a few units in the last
    place per generation of that complex iteration; their last bits depend
    on the SIMD code numpy dispatches to.
    """
    a = np.array(re, dtype=float)
    b = np.array(im, dtype=float)
    sin_b = np.empty_like(b)
    one_plus_e = np.empty_like(a)
    for _ in range(k - 1):
        np.multiply(b, 0.5, out=b)
        np.tan(b, out=b)
        np.expm1(a, out=a)
        np.multiply(b, b, out=sin_b)
        sin_b += 1.0
        np.divide(b, sin_b, out=sin_b)
        sin_b *= 2.0
        np.multiply(b, sin_b, out=b)  # 1 - cos b
        np.add(a, 1.0, out=one_plus_e)
        b *= one_plus_e
        a -= b
        np.multiply(one_plus_e, sin_b, out=b)
    return a, b


def _alias_bound(n: int, k: int, x: float):
    """The Chernoff bound min_r G(r) r^-size on P(n X_k >= size), as a function of size, k >= 1.

    G(r) = exp(n x (phi_{k-1}(r) - 1)) is the generating function of n X_k
    at real r > 1.  The critical process keeps G finite only for r below
    about 1 + 2/k, so r - 1 runs over a grid of (0, 2/k); grid points where
    G overflows are skipped.  The k - 1 generations of phi run once here;
    each size then costs one pass over the grid.
    """
    psi = rm1 = np.linspace(0.0, 2.0 / k, _BOUND_POINTS + 2)[1:-1]
    with np.errstate(over="ignore"):
        for _ in range(k - 1):
            psi = np.expm1(psi)
        log_g = n * x * psi
    log_r = np.log1p(rm1)
    return lambda size: float(np.exp(np.min(log_g - size * log_r)))


@functools.lru_cache(maxsize=8)
def _chain_cdf(n: int, k: int, x: float) -> np.ndarray:
    """Read-only cumulative distribution of n X_k on {0, ..., M-1}, k >= 1.

    M starts 12 standard deviations (Var n X_k = n x k) plus 64 above the
    mean n x and grows until the bound of :func:`_alias_bound`, built once
    per law, meets ``_ALIAS_BUDGET``.
    The law is ``irfft`` of G on the M/2 + 1 points exp(-2 pi i m / M),
    where :func:`_gw_psi` steps phi through the k - 1 generations in real
    arithmetic at about 13 ns per point and generation (AVX-512 Xeon; 13 ms
    at n = k = 250, M = 8,192); its round-off negatives are clipped to zero.
    The last bits of the law follow numpy's SIMD dispatch, within the
    round-off of about M unit roundoffs stated in
    :func:`chain_terminal_values`.
    """
    mean = n * x
    size = _fft_size_at_least(mean + 12.0 * math.sqrt(mean * k) + 64)
    bound = _alias_bound(n, k, x)
    while bound(size) > _ALIAS_BUDGET:
        size = _fft_size_at_least(size + 1)
    a, b = _gw_psi(*_roots_of_unity_minus_one(size), k)
    pmf = irfft(np.exp(mean * (a + 1j * b)), size)
    cdf = np.cumsum(np.clip(pmf, 0.0, None))
    cdf.flags.writeable = False
    return cdf


def _atoms(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` as floats, written into ``u``.

    Each uniform u gets the atom #{j : cdf[j] <= u}, the j with u in
    [cdf[j - 1], cdf[j]).  One sort of ``u`` and one search of the
    len(cdf) entries among the sorted uniforms count the uniforms in each
    atom: a uniform equal to an entry counts in the atom above it, and a
    plateau of the cumulative distribution holds none.  Equal uniforms
    fall in the same atom, so the result does not depend on how the sort
    orders ties.
    """
    order = np.argsort(u)
    counts = np.diff(np.searchsorted(u, cdf, sorter=order), prepend=0, append=u.size)
    u[order] = np.repeat(np.arange(cdf.size + 1.0), counts)
    return u


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
    gives the law, and each endpoint is one uniform from ``rng``, all drawn
    in one call, located in its cumulative distribution.  They are located
    together by :func:`_atoms`: one sort of the uniforms and one search of
    the law's M entries among them, so once the law is built a call costs
    O(size log size + M log size).  The law differs from the exact one by
    at most ``_ALIAS_BUDGET`` (1e-15) in total variation from aliasing,
    certified at every call by a Chernoff bound on the mass at or above M,
    plus round-off of about M times the double unit roundoff (M = 1,536 at
    n = k = 50, where the measured total is 3e-14).  That round-off's last
    bits depend on the SIMD code numpy dispatches to (AVX-512 or not), so a
    draw can move between hosts only if its uniform lands within it of an
    entry of the cumulative distribution.  The law is built once per
    (n, k, x) and cached, so concurrent streams share it; it costs about
    k M (see :func:`_chain_cdf`).  A mean n x above 2^53, the cap of the
    series grid's means, raises a ValueError before any law is sized.
    """
    n = _check_index(n)
    _check_real(x, "x")
    k = _check_index(k, "k", least=0)
    size = _check_index(size, "size", least=0)
    if k == 0 or x == 0:
        return np.full(size, float(x))
    if not n * x <= 2.0 ** 53:
        raise ValueError(f"the chain's mean n x = {n} * {x} must be at most 2^53")
    with _LAW_LOCK:
        cdf = _chain_cdf(n, k, float(x))
    u = rng.random(size)
    u *= cdf[-1]
    return np.divide(_atoms(cdf, u), n, out=u)


def kelisky_rivlin_reference(f, x: float) -> float:
    """Fixed-n limit of Bernstein iterates: the chord f(0) + (f(1) - f(0)) x."""
    _check_real(x, "x", 0.0, 1.0)
    f0 = float(f(0.0))
    f1 = float(f(1.0))
    return f0 + (f1 - f0) * x
