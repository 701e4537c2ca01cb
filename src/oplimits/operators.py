"""Single applications of three positive linear lattice operators.

The operators average a function over a lattice {k/n} against a probability
distribution parameterized by the evaluation point x:

* Szasz-Mirakyan: Poisson(n x) weights, domain [0, inf);
* Bernstein: Binomial(n, x) weights, domain [0, 1];
* Baskakov: negative-binomial weights, domain [0, inf), experimental.

The transition kernels of :mod:`oplimits.iterates` take their rows and
their index checks from here, so series and kernels cannot drift apart.

Infinite series are truncated at an index whose omitted probability mass is
below a policy tolerance; every truncated evaluation reports that omitted
mass alongside the value so downstream error budgets stay explicit.  Weights
are computed in log space, which stays stable for Poisson means up to at
least 5e4; all three laws read log k! from one table (``_log_factorial_table``)
that grows on demand.  Its entries are Cephes ``lgam(k + 1)`` evaluated with
libm logarithms (``_log_factorials``), the same doubles as SciPy's log-gamma
(also Cephes ``lgam``) without loading it.

One routine, ``_poisson_pmf``, evaluates the Poisson law on a range of
integers, for a series window and for a block of kernel rows alike.  It
spends exp only where it can return a nonzero double (a Chernoff bound
marks the prefix that underflows to 0.0).  The tail sums that locate a
window's cut run from the top of the window down to the mode.  Both
savings return the same bits as evaluating and summing the whole window.
The last Poisson window is memoised with read-only arrays, so applying
several functions at one mean builds it once.

Also provides the exact Poisson moment polynomials, which the chain's
scaling identities in the weak-convergence experiment read, and the closed
form of the Szasz-Mirakyan operator on exponentials, the Korovkin
experiment's oracle for the truncated series.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, TruncationFailureError


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls where infinite lattice series are cut off.

    ``tail_eps`` bounds the omitted probability mass; ``max_terms`` caps the
    number of series terms regardless of the tolerance.
    """

    tail_eps: float = 1e-12
    max_terms: int = 10 ** 6

    def __post_init__(self):
        if not (0.0 < self.tail_eps < 1.0):
            raise ValueError(f"tail_eps must lie in (0, 1), got {self.tail_eps}")
        if self.max_terms < 1:
            raise ValueError("max_terms must be positive")


DEFAULT_POLICY = TruncationPolicy()


# glibc's malloc maps fresh pages for a block at or above its mmap threshold
# (128 KiB at start) and unmaps them on free; freeing such a block raises the
# threshold to its size.  Series windows grow to about 55k terms (440 KB),
# so until something larger is freed each new window's arrays pay first-touch
# page faults.  Freeing one 4 MiB array at import lets every temporary of a
# default run be reused from the heap: the default voronovskaya run took
# 1.1k page faults instead of 9.6k, and 0.15-0.17 s instead of 0.19-0.21 s
# (2 vCPUs).  Other allocators are unaffected.
np.empty(1 << 19)


class SeriesValue(NamedTuple):
    """A truncated series evaluation and the probability mass it omitted."""

    value: float
    omitted_mass: float


def _check_index(value, name="n", least=1) -> int:
    """``value`` as an int if it is an integer >= ``least``, else a ValueError naming it.

    NaN and the infinities fail the range test before they can reach ``int``.
    """
    if not (least <= value < math.inf and int(value) == value):
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def _validate(n, x, x_name="x"):
    """Check n is a positive integer and x is finite and >= 0; return n as an int."""
    n = _check_index(n)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{x_name} must be finite and nonnegative, got {x}")
    return n


def _average(k, w, f, n) -> float:
    """The lattice average sum_k w_k f(k/n), rejecting non-finite terms.

    Any non-finite term makes the dot product non-finite (a zero weight
    times inf is nan), so the terms are scanned for the culprit only when
    the dot product is not finite.  ``np.vdot`` runs the same BLAS dot as
    ``w @ vals`` but raises no floating-point warning for that nan.
    """
    vals = np.asarray(f(k / n), dtype=float)
    total = float(np.vdot(w, vals))
    if not math.isfinite(total):
        bad = k[~np.isfinite(vals)]
        if bad.size:
            raise EvaluationError(f"non-finite series term at lattice point {bad[0] / n}")
    return total


# Cephes lgam's constants: log sqrt(2 pi) and the coefficients, highest
# degree first, of its Stirling correction in 1/x^2 below x = 1000
_LS2PI = 0.91893853320467274178
_LGAM_A = (
    8.11614167470508450300E-4,
    -5.95061904284301438324E-4,
    7.93650340457716943945E-4,
    -2.77777777730099687205E-3,
    8.33333333333331927722E-2,
)


def _log_factorials(lo, hi):
    """log k! for lo <= k < hi, bit for bit SciPy's log-gamma at k + 1.0.

    A port of Cephes ``lgam`` (Moshier, *Methods and Programs for
    Mathematical Functions*, 1989), the routine behind SciPy's log-gamma,
    at x = k + 1.0.  Below x = 13 it is the log of the exact double (x - 1)!.
    Above, it is q = (x - 0.5) log x - x + log sqrt(2 pi), plus a
    correction in p = 1/x^2 divided by x: a degree-4 polynomial below
    x = 1000, three Stirling terms up to x = 1e8 and nothing beyond.  The
    logarithms come from libm through ``math.log``; numpy's SIMD log
    differs from libm in the last bit at a few integers (8 of the first
    262,144 on an AVX-512 x86-64 host).  The rest runs elementwise in Cephes's
    order, so each entry is the double ``lgam`` returns.
    """
    x = np.arange(lo, hi) + 1.0
    out = np.empty(x.size)
    small = int(np.searchsorted(x, 13.0))
    out[:small] = [math.log(float(math.factorial(k))) for k in range(lo, lo + small)]
    x = x[small:]
    q = out[small:]
    np.multiply(x - 0.5, np.fromiter(map(math.log, x.tolist()), float, x.size), out=q)
    q -= x
    q += _LS2PI
    # x ascends, so each correction covers one slice: x < 1000, 1000 <= x <= 1e8
    mid = int(np.searchsorted(x, 1000.0))
    top = int(np.searchsorted(x, 1e8, side="right"))
    xs = x[:mid]
    p = 1.0 / (xs * xs)
    poly = np.full(xs.size, _LGAM_A[0])
    for a in _LGAM_A[1:]:
        poly *= p
        poly += a
    q[:mid] += poly / xs
    xs = x[mid:top]
    p = 1.0 / (xs * xs)
    q[mid:top] += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                   + 0.0833333333333333333333) / xs
    return out


# log k! at k = 0, 1, ...: entry k is _log_factorials' value, so a lookup
# returns the bits of a log-gamma call at k + 1.0.  Empty until first use
# (importing builds nothing); grown by doubling.
_log_factorial_cache = np.empty(0)


def _log_factorial_table(size):
    """The log k! table, grown (by doubling) to at least ``size`` entries."""
    global _log_factorial_cache
    table = _log_factorial_cache
    if table.size < size:
        size = max(size, 2 * table.size)
        table = np.concatenate([table, _log_factorials(table.size, size)])
        _log_factorial_cache = table
    return table


# exp(t) is exactly 0.0 for every double t below -745.1333; a log pmf bounded by
# -746 leaves a margin far above the exponent's rounding error (about 1e-10
# at lam = 1e5, where its terms reach 1e6)
_UNDERFLOW_LOG = 746.0


def _poisson_pmf(lam, lo, hi, out=None):
    """Poisson(lam) pmf on lo..hi, exp(-lam + k log lam - log k!), into ``out`` if given.

    ``lam`` is a mean, or a column of ascending means that gives one row
    per mean on the same range, as a block of kernel rows needs.  For
    k <= lam the Chernoff bound gives log p_k <= -(lam - k)^2 / (2 lam),
    so below k0 = floor(lam - sqrt(2 * 746 * lam)) every term underflows to
    0.0.  Those entries are written as zeros and exp is evaluated only from
    k0 (or lo, if higher) to hi, which returns the same bits as evaluating
    every term.  When lam <= 1492, k0 is 0.  k0 does not decrease as lam
    grows, so the first mean's k0 serves every row.  Each entry is the same
    double whichever range or block it is evaluated in.  The series windows
    and the kernel rows both come from here.
    """
    rows = isinstance(lam, np.ndarray)
    first = float(lam[0, 0]) if rows else lam
    if out is None:
        out = np.empty((lam.shape[0], hi - lo + 1) if rows else hi - lo + 1)
    k0 = max(lo, int(first - math.sqrt(2.0 * _UNDERFLOW_LOG * first)))
    if k0 > lo:
        out[..., :k0 - lo] = 0.0
    log_p = np.arange(k0, hi + 1) * np.log(lam)
    log_p += -lam
    log_p -= _log_factorial_table(hi + 1)[k0:hi + 1]
    np.exp(log_p, out=out[..., k0 - lo:])
    return out


def _binomial_pmf(n, p, k):
    """Binomial(n, p) pmf at the integers k in log space; a column p gives one row per p."""
    log_factorial = _log_factorial_table(n + 1)
    return np.exp(
        log_factorial[n]
        - log_factorial[k]
        - log_factorial[n - k]
        + k * np.log(p)
        + (n - k) * np.log1p(-p)
    )


def _cut_at_tail(hi, mode, pmf, ratio_beyond, policy, label, mean):
    """Evaluate ``pmf(hi)`` on 0..hi and cut at the smallest K with tail <= tail_eps.

    ``ratio_beyond(hi)`` bounds the pmf ratio p_{j+1}/p_j for every j past
    hi; the geometric remainder it implies is folded into every tail value,
    so the cut is rigorous even though the window is finite.  The window
    doubles until a certified cut exists inside it.  Returns the support
    0..K, the pmf on it, and the certified tail mass beyond K.  ``label``
    and ``mean`` name the law in the error raised past ``max_terms``.

    The tail past j is the sequential sum p_hi + p_{hi-1} + ... + p_{j+1}
    plus the remainder, so a cumulative sum over the top of the window,
    from hi down to ``mode``, gives the same bits as one over the whole
    window; it is widened to the whole window only if the cut lies below
    ``mode``.  The tail is nonincreasing in j, so the cut is located by
    binary search.
    """
    while True:
        if hi + 1 > policy.max_terms:
            raise TruncationFailureError(
                f"series window for {label} {mean} needs more than "
                f"max_terms={policy.max_terms} terms"
            )
        p = pmf(hi)
        ratio = ratio_beyond(hi)
        if ratio < 1.0:
            remainder = p[-1] * ratio / (1.0 - ratio)
            for lo in (min(mode, hi - 1), 0):
                # tail[m] is the tail past j = hi - 1 - m, for j = hi - 1 down to lo
                tail = np.cumsum(p[hi:lo:-1]) + remainder
                within = int(np.searchsorted(tail, policy.tail_eps, side="right"))
                if within < tail.size:
                    break
            # the tail past hi itself is the remainder alone
            omitted = tail[within - 1] if within else remainder
            if omitted <= policy.tail_eps:
                K = hi - within
                return np.arange(K + 1), p[: K + 1], float(omitted)
        hi *= 2


@functools.lru_cache(maxsize=1)
def _poisson_weights(lam: float, policy: TruncationPolicy):
    """Poisson(lam) pmf on 0..K plus the certified tail mass beyond K.

    K is the smallest cutoff whose upper-tail mass is <= ``tail_eps``.  The
    tail is an exact reversed summation over a mode-centered window (20
    standard deviations plus a buffer) augmented with a certified geometric
    remainder for the mass beyond the window; the window grows if the
    tolerance is not certifiably reached inside it.  The weights are
    :func:`_poisson_pmf` on 0..hi, cut at K; only tail sums that cannot
    reach the cut are skipped.

    The last window is memoised, so callers that apply several functions
    at one mean (the Korovkin experiment's rates) build it once; its
    arrays are read-only.
    """
    if lam == 0.0:
        k, w, omitted = np.arange(1), np.array([1.0]), 0.0
    else:
        k, w, omitted = _cut_at_tail(
            int(lam + 20.0 * np.sqrt(lam) + 60.0),
            int(lam),
            lambda hi: _poisson_pmf(lam, 0, hi),
            lambda hi: lam / (hi + 1.0),
            policy,
            "mean",
            lam,
        )
    k.flags.writeable = False
    w.flags.writeable = False
    return k, w, omitted


def truncation_index(n: int, x: float, policy: TruncationPolicy = DEFAULT_POLICY) -> int:
    """Smallest K with Poisson(n x) mass beyond K at most ``tail_eps``."""
    n = _validate(n, x)
    k, _, _ = _poisson_weights(n * x, policy)
    return int(k[-1])


def sm_apply(n: int, f, x: float, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Apply the Szasz-Mirakyan operator of index n to f at x.

    Evaluates ``sum_k exp(-nx) (nx)^k / k! * f(k/n)`` over k = 0..K with K
    chosen by :func:`truncation_index`.  Returns the truncated value and the
    omitted Poisson mass.
    """
    n = _validate(n, x)
    k, w, omitted = _poisson_weights(n * x, policy)
    return SeriesValue(_average(k, w, f, n), omitted)


def bernstein_apply(n: int, f, x: float) -> float:
    """Apply the Bernstein operator: the finite binomial average of f.

    ``sum_k C(n,k) x^k (1-x)^(n-k) f(k/n)`` for x in [0, 1], computed with
    log-space weights; exact point evaluations at the endpoints.
    """
    n = _validate(n, x)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"Bernstein operator requires x in [0, 1], got {x}")
    if x == 0.0:
        return float(f(0.0))
    if x == 1.0:
        return float(f(1.0))
    k = np.arange(n + 1)
    return _average(k, _binomial_pmf(n, x, k), f, n)


def _negative_binomial_weights(n: int, x: float, policy: TruncationPolicy):
    """Negative-binomial weights C(n+k-1,k) x^k / (1+x)^(n+k) on 0..K.

    The initial window adds a geometric allowance on top of the usual
    deviation-based width: the tail decays only like (x/(1+x))^k, so for
    small n and large x it needs about (1+x) log(1/eps) extra terms.
    """
    if x == 0.0:
        return np.arange(1), np.array([1.0]), 0.0
    mean = n * x
    sd = np.sqrt(n * x * (1.0 + x))
    geometric = (1.0 + x) * max(0.0, np.log(1.0 / policy.tail_eps))

    def pmf(hi):
        k = np.arange(hi + 1)
        log_factorial = _log_factorial_table(n + hi)
        return np.exp(
            log_factorial[n - 1 + k]
            - log_factorial[k]
            - log_factorial[n - 1]
            + k * np.log(x)
            - (n + k) * np.log1p(x)
        )

    return _cut_at_tail(
        int(mean + 20.0 * sd + geometric + 60.0),
        int((n - 1) * x),
        pmf,
        lambda hi: (n + hi) / (hi + 1.0) * x / (1.0 + x),
        policy,
        "Baskakov mean",
        mean,
    )


def baskakov_apply(n: int, f, x: float, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Apply the Baskakov operator (negative-binomial average) to f at x.

    Experimental branch: its limiting behavior is only supported by a
    heuristic second-order coefficient, so none of the quantitative rate
    assertions elsewhere in the package rely on it.
    """
    n = _validate(n, x)
    k, w, omitted = _negative_binomial_weights(n, x, policy)
    return SeriesValue(_average(k, w, f, n), omitted)


def sm_exponential_closed_form(n: int, lam: float, x):
    """Closed form of the Szasz-Mirakyan operator on ``exp(-lam x)``.

    Equals ``exp(-n x (1 - exp(-lam/n)))``; as n grows the inner factor
    tends to lam, recovering the exponential itself.  ``x`` may be an
    array of points, each finite and nonnegative; a scalar x gives a float.
    """
    n = _check_index(n)
    x = np.asarray(x, dtype=float)
    bad = ~((0.0 <= x) & (x < math.inf))
    if bad.any():
        raise ValueError(f"x must be finite and nonnegative, got {x[bad][0]}")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    # -expm1 keeps 1 - exp(-lam/n) accurate when lam/n is tiny
    values = np.exp(-n * x * (-np.expm1(-lam / n)))
    return float(values) if values.ndim == 0 else values


def sm_moment(n: int, p: int, x: float) -> float:
    """Raw moment E[T^p] of T ~ Poisson(n x), p in {1, 2}."""
    n = _validate(n, x)
    m = n * x
    if p == 1:
        return float(m)
    if p == 2:
        return float(m ** 2 + m)
    raise ValueError(f"moment order p must be in {{1, 2}}, got {p}")
