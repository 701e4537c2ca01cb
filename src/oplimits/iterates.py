"""Operator iterates via truncated transition kernels and chain sampling.

The k-th iterate of a lattice operator equals the k-step expectation of a
Markov chain on {i/n}.  For the Poisson (Szasz-Mirakyan) chain the one-step
law from state i/n is Poisson(i)/n, which does not depend on n; state 0 is
absorbing.  For the binomial (Bernstein) chain on [0, 1] the law from i/n is
Binomial(n, i/n)/n, with 0 and 1 absorbing.

Exact computation truncates the state space at a cutoff K and applies the
row-stochastic kernel repeatedly as a sparse matrix-vector product.  Rows
are NOT renormalized: the omitted mass per row is tracked, and the iterate
additionally propagates the constant-one function so that the exact leaked
mass per starting state is known.  The resulting per-point error budget
(sup |f| times leaked mass) is rigorous and, unlike a uniform bound over all
rows, stays tight at the interior states the experiments evaluate.  On a
large kernel the two propagations run side by side on two threads; each is
the same sequence of sparse products either way, so the results do not
depend on the CPU count.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import CutoffTooSmallError, EvaluationError
from .mc import MonteCarloEstimate, _usable_cpus, estimate_from, sample_across_workers
from .operators import (
    DEFAULT_POLICY,
    TruncationPolicy,
    _binomial_pmf,
    _poisson_pmf,
    _poisson_weights,
)

# Row supports cover this many standard deviations on each side (plus a fixed
# buffer), putting the within-row truncation far below any tail_eps in use.
_ROW_SIGMAS = 14.0
_ROW_BUFFER = 30

# lattice_cutoff's headroom factor on the largest starting mean.
_CUTOFF_SAFETY = 2.5

# Smallest kernel, in nonzeros, whose two propagations kernel_iterate runs
# on two threads.  The helper takes its whole loop of products in one
# handoff.  Interleaved timings of k = n steps on the semigroup kernels
# (x_max = 10), 2 CPUs, threaded/serial median [quartiles]: n = 8 (80,017
# nnz) 0.83 [0.80, 0.91]; n = 16 (212,400) 0.60; n = 20 (288,758) 0.57;
# n = 32 (554,142) 0.54; n = 128 (3,911,444) 0.51.  A handoff per step
# measured 1.29, 0.84, 0.76, 0.68 and 0.56 on the same kernels.  Below the
# threshold a serial run of k = n steps takes under about 10 ms, so a
# thread would save a few milliseconds at most.
_MIN_THREADED_NNZ = 262144


@dataclass(frozen=True)
class TransitionKernel:
    """One-step transition probabilities on the lattice {i/n : 0 <= i <= K}.

    ``matrix`` holds the truncated rows; ``defect[i]`` is the probability
    mass row i lost to truncation (within-row tail plus anything beyond K).
    """

    n: int
    matrix: sparse.csr_matrix = field(repr=False)
    defect: np.ndarray = field(repr=False)

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
    if x_max < 0:
        raise ValueError("x_max must be nonnegative")
    policy = TruncationPolicy(tail_eps=tail_eps, max_terms=10 ** 8)
    k, _, _ = _poisson_weights(_CUTOFF_SAFETY * n * x_max, policy)
    return max(int(k[-1]), 1)


def build_sm_kernel(
    n: int,
    K: int,
    tail_eps: float = DEFAULT_POLICY.tail_eps,
    checked_rows: Optional[int] = None,
) -> TransitionKernel:
    """Truncated Poisson transition kernel: row i is the Poisson(i) pmf.

    Row 0 is the point mass at 0.  Each row is truncated to its own
    high-probability window intersected with [0, K]; the exact omitted mass
    is recorded in ``defect``.  When ``checked_rows`` is given, rows
    0..checked_rows must each have defect at most ``tail_eps``, otherwise
    :class:`CutoffTooSmallError` reports the worst offender.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if K < 0:
        raise ValueError("K must be nonnegative")
    i = np.arange(K + 1)
    sd = np.sqrt(i)
    # int() truncation toward zero, as astype does
    lo = np.maximum(0, (i - _ROW_SIGMAS * sd - _ROW_BUFFER).astype(np.int64))
    hi = np.minimum(K, (i + _ROW_SIGMAS * sd + _ROW_BUFFER).astype(np.int64))
    lo[0] = hi[0] = 0  # state 0 is absorbing
    indptr = np.concatenate([[0], np.cumsum(hi - lo + 1)])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.int32)
    defect = np.zeros(K + 1)
    data[0] = 1.0
    indices[0] = 0
    for r in range(1, K + 1):
        j = np.arange(lo[r], hi[r] + 1)
        row = _poisson_pmf(float(r), j)
        data[indptr[r]:indptr[r + 1]] = row
        indices[indptr[r]:indptr[r + 1]] = j
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
                f"increase the cutoff K={K}",
                row=worst,
                defect=float(defect[worst]),
            )
    return TransitionKernel(n=n, matrix=matrix, defect=defect)


def bernstein_kernel(n: int) -> TransitionKernel:
    """Exact (n+1) x (n+1) binomial transition kernel on {i/n : 0 <= i <= n}.

    Row i is Binomial(n, i/n); rows 0 and n are point masses (absorbing
    endpoints) and every row carries zero defect.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = np.empty((n + 1, n + 1))
    j = np.arange(n + 1)
    rows[0] = 0.0
    rows[0, 0] = 1.0
    rows[n] = 0.0
    rows[n, n] = 1.0
    for i in range(1, n):
        rows[i] = _binomial_pmf(n, i / n, j)
    return TransitionKernel(n=n, matrix=sparse.csr_matrix(rows), defect=np.zeros(n + 1))


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

    n: int
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
    thread.  With more than one usable CPU and at least
    ``_MIN_THREADED_NNZ`` nonzeros, one helper thread runs all k products of
    the values while the calling thread runs those of the mass; the values
    are bit-identical to running both on one thread.
    """
    if k < 0:
        raise ValueError("iteration count k must be nonnegative")
    latt = kernel.lattice()
    v = np.asarray(f(latt), dtype=float)
    if v.shape != latt.shape:
        raise ValueError("f must evaluate elementwise on the lattice")
    if not np.all(np.isfinite(v)):
        bad = float(latt[~np.isfinite(v)][0])
        raise EvaluationError(f"non-finite lattice value at {bad}", x=bad)
    f_sup = float(np.max(np.abs(v)))
    matrix = kernel.matrix
    mass = np.ones(kernel.size)
    if k and matrix.nnz >= _MIN_THREADED_NNZ and _usable_cpus() > 1:
        from concurrent.futures import ThreadPoolExecutor

        # scipy's CSR matvec releases the GIL, so the helper's products of f
        # run alongside the calling thread's products of the mass; leaving
        # the block joins the helper
        with ThreadPoolExecutor(max_workers=1) as helper:
            values = helper.submit(_power, matrix, v, k)
            mass = _power(matrix, mass, k)
            v = values.result()
    else:
        v = _power(matrix, v, k)
        mass = _power(matrix, mass, k)
    if not np.all(np.isfinite(v)):
        raise EvaluationError("non-finite accumulation during kernel iteration")
    leak = np.clip(1.0 - mass, 0.0, None)
    return LatticeFunction(n=kernel.n, values=v, error_budget=f_sup * leak)


def chain_terminal_values(
    n: int, k: int, x: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized endpoints of ``size`` independent k-step chains from x.

    Each step replaces every value v by Poisson(n v)/n; the state 0 is
    absorbing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if x < 0:
        raise ValueError("x must be nonnegative")
    v = np.full(size, float(x))
    for _ in range(k):
        v = rng.poisson(n * v).astype(float) / n
    return v


def chain_expectation_mc(
    n: int,
    k: int,
    x: float,
    f,
    samples: int,
    seed: int,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the k-step chain expectation of f from x.

    Deterministic given (seed, samples); see :mod:`oplimits.mc` for the
    partitioning scheme.  ``f`` may be called concurrently from several
    threads, so it must be thread-safe.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    values = sample_across_workers(
        lambda rng, m: np.asarray(f(chain_terminal_values(n, k, x, m, rng)), dtype=float),
        samples,
        seed,
    )
    return estimate_from(values)


def kelisky_rivlin_reference(f, x: float) -> float:
    """Fixed-n limit of Bernstein iterates: the chord f(0) + (f(1) - f(0)) x."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"reference is defined on [0, 1], got {x}")
    f0 = float(f(0.0))
    f1 = float(f(1.0))
    return f0 + (f1 - f0) * x
