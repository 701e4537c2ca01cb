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
mass alongside the value so downstream error budgets stay explicit.  A
Szasz-Mirakyan window also starts at a certified lower end lo, below which
lies at most min(2^-64, tolerance) of the Poisson mass (lo = 0 for means
below about 770).  Its omitted mass is the upper tail plus that bound, and
f is evaluated only on lo..K.  Weights are computed in log space, which
stays stable for Poisson means up to at least 5e4; all three laws read
log k! from one table (``_log_factorial_table``) that grows on demand.  Its
entries are Cephes ``lgam(k + 1)`` evaluated with libm logarithms
(``_log_factorials``), the same doubles as SciPy's log-gamma (also Cephes
``lgam``) without loading it.

One routine, ``_poisson_pmf``, evaluates the Poisson law on a range of
integers, for a series window and for a block of kernel rows alike.  One
Chernoff point (``_lower_end``) marks where a window or a kernel row may
start and the prefix whose exp underflows to 0.0.  The tail sums that
locate a window's cut run from the top of the window down to the mode.
The cut K, its upper tail and every weight from lo to K carry the same
bits as evaluating and summing the whole window from k = 0.  Averages of
more than 8,192 terms are summed in fixed pieces, so they do not depend on
the BLAS thread count.  The last Poisson window is memoised with read-only
weights, so applying several functions at one mean builds it once.

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

    ``tail_eps`` bounds the omitted probability mass above the cut; a
    Szasz-Mirakyan window omits at most min(2^-64, tail_eps) more below its
    lower end.  ``max_terms`` caps the top index of a series window plus
    one, regardless of the tolerance.
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
# threshold to its size.  Until something larger is freed, every large
# temporary pays first-touch page faults.  Freeing one 4 MiB array at import
# lets them be reused from the heap: with scipy loaded, the default semigroup
# and weak-convergence runs took 6.3k and 2.3k page faults instead of 10.6k
# and 6.3k, and voronovskaya, korovkin and kelisky-rivlin together 0.5k
# instead of 1.0k (2 vCPUs).  Other allocators are unaffected.
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


# OpenBLAS splits a dot product of more than 10,000 terms across its threads,
# so its summation order, and its last bits, would follow the thread count.
# Longer averages are summed in pieces of this many terms, added in order.
_DOT_PIECE = 8192


def _average(lo, w, f, n) -> float:
    """The lattice average sum_k w_k f(k/n) from k = lo on, rejecting non-finite terms.

    ``w`` holds the weights from k = lo on, and f is evaluated only there.
    Any non-finite term makes the dot product non-finite (a zero weight
    times inf is nan), so the terms are scanned for the culprit only when
    the dot product is not finite.  ``np.vdot`` runs the same BLAS dot as
    ``w @ vals`` but raises no floating-point warning for that nan.  A sum
    of more than ``_DOT_PIECE`` terms adds the dot products of its pieces in
    order, so it does not depend on the BLAS thread count.
    """
    k = np.arange(lo, lo + w.size)
    vals = np.asarray(f(k / n), dtype=float)
    total = float(np.vdot(w[:_DOT_PIECE], vals[:_DOT_PIECE]))
    for i in range(_DOT_PIECE, w.size, _DOT_PIECE):
        total += float(np.vdot(w[i:i + _DOT_PIECE], vals[i:i + _DOT_PIECE]))
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

# Log of 2^-64, the Poisson mass a series window may leave below its lower
# end and a kernel row on either side.  It is below the 2^-53 resolution of
# a sum of weights, so dropping it moves no sum.
_WINDOW_LOG_BUDGET = 64.0 * math.log(2.0)

# Series windows start at a multiple of this.  Every mean below about 770
# then keeps its window from k = 0, and so its sums, among them those behind
# the default Voronovskaya run's largest f1 residuals (x = 0.37, mean 379 at
# n = 1024).  Unrounded lower ends moved that run's fitted rate by 1.07e-9.
_LOWER_END_STEP = 512


def _lower_end(lam, log_budget):
    """floor(lam - sqrt(2 L lam)), at least 0: Poisson(lam) has mass <= exp(-L) below it.

    For k <= lam the Chernoff bound gives P(X <= k) <= exp(-(lam - k)^2 / (2 lam)),
    and the mass below the returned index lies at or below a point at least
    sqrt(2 L lam) under lam.  ``lam`` is a mean, giving an int, or an array
    of means, giving an int64 array; both evaluate the same doubles.
    """
    if isinstance(lam, np.ndarray):
        return np.maximum(0, np.floor(lam - np.sqrt(2.0 * log_budget * lam)).astype(np.int64))
    return max(0, math.floor(lam - math.sqrt(2.0 * log_budget * lam)))


def _poisson_pmf(lam, lo, hi, out=None):
    """Poisson(lam) pmf on lo..hi, exp(-lam + k log lam - log k!), into ``out`` if given.

    ``lam`` is a mean, or a column of ascending means that gives one row
    per mean on the same range, as a block of kernel rows needs.  Below
    k0 = ``_lower_end(lam, 746)`` = floor(lam - sqrt(2 * 746 * lam)) every
    term underflows to 0.0.  Those entries are written as zeros and exp is
    evaluated only from k0 (or lo, if higher) to hi, which returns the same
    bits as evaluating every term.  When lam <= 1492, k0 is 0.  k0 does not
    decrease as lam grows, so the first mean's k0 serves every row.  Each
    entry is the same double whichever range or block it is evaluated in.
    The series windows and the kernel rows both come from here.
    """
    rows = isinstance(lam, np.ndarray)
    first = float(lam[0, 0]) if rows else lam
    if out is None:
        out = np.empty((lam.shape[0], hi - lo + 1) if rows else hi - lo + 1)
    k0 = max(lo, _lower_end(first, _UNDERFLOW_LOG))
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


def _cut_at_tail(lo, hi, mode, pmf, ratio_beyond, policy, label, mean):
    """Evaluate ``pmf(lo, hi)`` on lo..hi and cut at the smallest K with tail <= tail_eps.

    ``ratio_beyond(hi)`` bounds the pmf ratio p_{j+1}/p_j for every j past
    hi; the geometric remainder it implies is folded into every tail value,
    so the cut is rigorous even though the window is finite.  The window
    doubles until a certified cut exists inside it.  Returns the window's
    lower end, the pmf on it up to K, and the certified upper tail mass
    beyond K.  The mass below ``lo`` is the caller's to certify; this tail
    does not include it.  ``label`` and ``mean`` name the law in the error
    raised past ``max_terms``.

    The tail past j is the sequential sum p_hi + p_{hi-1} + ... + p_{j+1}
    plus the remainder, so a cumulative sum over the top of the window,
    from hi down to ``mode``, gives the same bits as one over the whole
    window, and as one that started at k = 0; it is widened to the whole
    window only if the cut lies below ``mode``.  The tail is nonincreasing
    in j, so the cut is located by binary search.  If even the tail past
    lo - 1, the whole window plus the remainder, meets ``tail_eps``, then so
    does every tail past j < lo: adding terms of at most 2^-64 to a sum
    that close to 1 leaves its bits alone.  The cut is then K = 0, and the
    window is k = 0 alone.
    """
    while True:
        if hi + 1 > policy.max_terms:
            raise TruncationFailureError(
                f"series window for {label} {mean} needs more than "
                f"max_terms={policy.max_terms} terms"
            )
        p = pmf(lo, hi)
        ratio = ratio_beyond(hi)
        if ratio < 1.0:
            remainder = p[-1] * ratio / (1.0 - ratio)
            top = p[::-1]
            for last in (min(mode, hi - 1), max(lo - 1, 0)):
                # tail[m] is the tail past j = hi - 1 - m, for j = hi - 1 down to last
                tail = top[:hi - last].cumsum()
                tail += remainder
                within = int(tail.searchsorted(policy.tail_eps, side="right"))
                if within < tail.size:
                    break
            # the tail past hi itself is the remainder alone
            omitted = tail[within - 1] if within else remainder
            if omitted <= policy.tail_eps:
                K = hi - within
                if K < lo:
                    return 0, pmf(0, 0), float(omitted)
                return lo, p[:K - lo + 1], float(omitted)
        hi *= 2


@functools.lru_cache(maxsize=1)
def _poisson_weights(lam: float, policy: TruncationPolicy):
    """Poisson(lam) pmf on lo..K, the tail mass beyond K and a bound on the mass below lo.

    Returns ``(lo, w, tail, below)``: w is the pmf on lo..K, tail the
    certified mass beyond K, and below a certified bound on the mass below
    lo.  The omitted mass is tail + below.

    K is the smallest cutoff whose upper-tail mass is <= ``tail_eps``.  The
    tail is an exact reversed summation over a mode-centered window (20
    standard deviations plus a buffer) augmented with a certified geometric
    remainder for the mass beyond the window; the window grows if the
    tolerance is not certifiably reached inside it.  The weights are
    :func:`_poisson_pmf` on lo..hi, cut at K; only tail sums that cannot
    reach the cut are skipped.  K, the tail and every weight from lo to K
    carry the bits of a window evaluated and summed from k = 0.

    lo is the Chernoff point of :func:`_lower_end` for a budget of
    min(2^-64, tail_eps), rounded down to a multiple of ``_LOWER_END_STEP``;
    it is 0 for means below about 770.  below is the Chernoff bound
    exp(-(lam - lo + 1)^2 / (2 lam)) on P(X <= lo - 1), and 0.0 when lo = 0.

    The last window is memoised, so callers that apply several functions
    at one mean (the Korovkin experiment's rates) build it once; its
    weights are read-only.
    """
    if lam == 0.0:
        lo, w, tail = 0, np.array([1.0]), 0.0
    else:
        log_budget = max(_WINDOW_LOG_BUDGET, -math.log(policy.tail_eps))
        lo, w, tail = _cut_at_tail(
            _lower_end(lam, log_budget) // _LOWER_END_STEP * _LOWER_END_STEP,
            int(lam + 20.0 * math.sqrt(lam) + 60.0),
            int(lam),
            lambda lo, hi: _poisson_pmf(lam, lo, hi),
            lambda hi: lam / (hi + 1.0),
            policy,
            "mean",
            lam,
        )
    below = math.exp(-(lam - lo + 1) ** 2 / (2.0 * lam)) if lo else 0.0
    w.flags.writeable = False
    return lo, w, tail, below


def truncation_index(n: int, x: float, policy: TruncationPolicy = DEFAULT_POLICY) -> int:
    """Smallest K with Poisson(n x) mass beyond K at most ``tail_eps``."""
    n = _validate(n, x)
    lo, w, _, _ = _poisson_weights(n * x, policy)
    return lo + w.size - 1


def sm_apply(n: int, f, x: float, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Apply the Szasz-Mirakyan operator of index n to f at x.

    Evaluates ``sum_k exp(-nx) (nx)^k / k! * f(k/n)`` over k = lo..K: K is
    chosen by :func:`truncation_index`, and below lo lies at most
    min(2^-64, tail_eps) of the Poisson(nx) mass (lo = 0 when nx is below
    about 770).  f is evaluated only on lo..K.  Returns the truncated value
    and the omitted Poisson mass: the tail beyond K plus the certified
    bound on the mass below lo.
    """
    n = _validate(n, x)
    lo, w, tail, below = _poisson_weights(n * x, policy)
    return SeriesValue(_average(lo, w, f, n), tail + below)


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
    return _average(0, _binomial_pmf(n, x, np.arange(n + 1)), f, n)


def _negative_binomial_weights(n: int, x: float, policy: TruncationPolicy):
    """Negative-binomial weights C(n+k-1,k) x^k / (1+x)^(n+k) on 0..K, as ``(0, w, tail)``.

    The initial window adds a geometric allowance on top of the usual
    deviation-based width: the tail decays only like (x/(1+x))^k, so for
    small n and large x it needs about (1+x) log(1/eps) extra terms.
    """
    if x == 0.0:
        return 0, np.array([1.0]), 0.0
    mean = n * x
    sd = np.sqrt(n * x * (1.0 + x))
    geometric = (1.0 + x) * max(0.0, np.log(1.0 / policy.tail_eps))

    def pmf(lo, hi):
        k = np.arange(lo, hi + 1)
        log_factorial = _log_factorial_table(n + hi)
        return np.exp(
            log_factorial[n - 1 + k]
            - log_factorial[k]
            - log_factorial[n - 1]
            + k * np.log(x)
            - (n + k) * np.log1p(x)
        )

    return _cut_at_tail(
        0,
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
    lo, w, omitted = _negative_binomial_weights(n, x, policy)
    return SeriesValue(_average(lo, w, f, n), omitted)


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
