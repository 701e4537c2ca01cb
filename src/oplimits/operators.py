"""Applications of three positive linear lattice operators.

The operators average a function over a lattice {k/n} against a probability
distribution parameterized by the evaluation point x:

* Szasz-Mirakyan: Poisson(n x) weights, domain [0, inf);
* Bernstein: Binomial(n, x) weights, domain [0, 1];
* Baskakov: negative-binomial weights, domain [0, inf), experimental.

The transition kernels of :mod:`oplimits.iterates` take their rows from
here, so series and kernels cannot drift apart.

Infinite series are truncated so that the probability mass they omit is
at most a policy tolerance, and every truncated evaluation reports that
mass alongside the value.  A Szasz-Mirakyan window starts at a certified
lower end lo, below which lies at most min(2^-64, tolerance) of the mass
(lo = 0 for means below about 770), and ends at the smallest cut K whose
upper tail, summed exactly, meets the tolerance.  A Baskakov window has
two closed-form ends, each with at most half the tolerance beyond it, and
sums no tail.  f is evaluated only inside a window.  Weights are computed
in log space, which stays stable for Poisson means up to at least 5e4;
the Poisson and binomial laws read log k! from one table
(``_log_factorial_table``) that grows on demand, and the Baskakov law
sums the logs of its weight ratios from log-gamma values at lo.  The
table's entries are Cephes ``lgam(k + 1)`` evaluated with libm logarithms
(``_log_factorials``), the same doubles as SciPy's log-gamma (also Cephes
``lgam``) without loading it.

One routine, ``_poisson_pmf``, evaluates the Poisson law on ranges of
integers, for a series window, for a block of kernel rows and for the
concatenated windows of many means alike.  One Chernoff point
(``_lower_end``) marks where a Poisson window or a kernel row may start,
and one Bernstein point (``_upper_end``) where it ends.  The tail sums
that locate a Poisson window's cut run from its top down to a floor well
above the mean.  The cut K, its upper tail and every weight from lo to K
carry the same bits as evaluating and summing the window from k = 0.
Averages of more than 8,192 terms are summed in fixed pieces, so they do
not depend on the BLAS thread count.

Two routines apply the Szasz-Mirakyan operator: ``sm_apply`` at one point,
and ``sm_apply_grid`` at every point of a grid, which builds the windows of
consecutive points together and evaluates f once per chunk of them.  They
share the window start, the pmf, the cut and the dot product, so the grid
routine returns, point for point, the bits of ``sm_apply``; a point whose
window the batched cut does not certify goes through ``sm_apply`` itself.
Given a tuple of functions, the grid routine builds each chunk's windows
once and averages every function over them, one row of values each.

Also provides the exact Poisson moment polynomials, which the chain's
scaling identities in the weak-convergence experiment read, and the closed
form of the Szasz-Mirakyan operator on exponentials, the Korovkin
experiment's oracle for the truncated series.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, TruncationFailureError, _check_index, _check_real, _check_reals


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls where infinite lattice series are cut off.

    ``tail_eps`` bounds the omitted probability mass above a
    Szasz-Mirakyan window's cut, which omits at most min(2^-64, tail_eps)
    more below its lower end; a Baskakov window omits at most tail_eps/2 on
    each side.  ``max_terms`` caps the top index of a series window plus
    one, regardless of the tolerance; a Szasz-Mirakyan window's top is the
    Bernstein point with at most tail_eps 2^-53 of the mass above it.
    """

    tail_eps: float = 1e-12
    max_terms: int = 10 ** 6

    def __post_init__(self):
        _check_real(self.tail_eps, "tail_eps", 0.0, 1.0, open_ends=True)
        _check_index(self.max_terms, "max_terms")


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


# OpenBLAS splits a dot product of more than 10,000 terms across its threads,
# so its summation order, and its last bits, would follow the thread count.
# Longer averages are summed in pieces of this many terms, added in order.
_DOT_PIECE = 8192


def _dot(lo, w, vals, n) -> float:
    """sum_k w_k vals_k for the lattice points k = lo, lo + 1, ..., rejecting non-finite terms.

    ``vals`` holds f(k/n) at those points.  Any non-finite term makes the
    dot product non-finite (a zero weight times inf is nan), so the terms
    are scanned for the culprit only when the dot product is not finite.
    ``np.vdot`` runs the same BLAS dot as ``w @ vals`` but raises no
    floating-point warning for that nan.  A sum of more than ``_DOT_PIECE``
    terms adds the dot products of its pieces in order, so it does not
    depend on the BLAS thread count.
    """
    if w.size <= _DOT_PIECE:
        total = float(np.vdot(w, vals))
    else:
        total = float(np.vdot(w[:_DOT_PIECE], vals[:_DOT_PIECE]))
        for i in range(_DOT_PIECE, w.size, _DOT_PIECE):
            total += float(np.vdot(w[i:i + _DOT_PIECE], vals[i:i + _DOT_PIECE]))
    if not math.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise EvaluationError(f"non-finite series term at lattice point {(lo + bad[0]) / n}")
    return total


def _average(lo, w, f, n) -> float:
    """The lattice average sum_k w_k f(k/n) from k = lo on; f is evaluated only there."""
    return _dot(lo, w, np.asarray(f(np.arange(lo, lo + w.size) / n), dtype=float), n)


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
    logarithms come from libm through ``math.log`` of the ints x, which
    CPython converts exactly below 2^53; numpy's SIMD log differs from libm
    in the last bit at a few integers (8 of the first 262,144 on an AVX-512
    x86-64 host).  The rest runs elementwise in Cephes's order, so each
    entry is the double ``lgam`` returns.
    """
    x = np.arange(lo, hi) + 1.0
    out = np.empty(x.size)
    small = int(np.searchsorted(x, 13.0))
    out[:small] = [math.log(float(math.factorial(k))) for k in range(lo, lo + small)]
    x = x[small:]
    q = out[small:]
    np.multiply(x - 0.5, np.fromiter(map(math.log, range(lo + small + 1, hi + 1)), float, x.size),
                out=q)
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
# (importing builds nothing); grown by doubling, its new entries filled in
# pieces of _LOG_FACTORIAL_PIECE.
_log_factorial_cache = np.empty(0)

# Entries per _log_factorials call as the table grows, so that a fill's
# temporaries stay a few pieces' size: growing the default Voronovskaya
# run's table from 29,696 to 59,392 entries peaked at 1.90 MB of traced
# allocations in one call and at 0.64 MB in pieces.
_LOG_FACTORIAL_PIECE = 4096


def _log_factorial_table(size):
    """The log k! table, grown to at least ``size`` entries.

    A growing table at least doubles: one new array takes the old entries
    and the new ones, filled by :func:`_log_factorials` in pieces of
    ``_LOG_FACTORIAL_PIECE`` (each entry has the same bits in any piece),
    and replaces the cached table once it is filled.
    """
    global _log_factorial_cache
    table = _log_factorial_cache
    if table.size < size:
        grown = np.empty(max(size, 2 * table.size))
        grown[:table.size] = table
        for lo in range(table.size, grown.size, _LOG_FACTORIAL_PIECE):
            hi = min(lo + _LOG_FACTORIAL_PIECE, grown.size)
            grown[lo:hi] = _log_factorials(lo, hi)
        _log_factorial_cache = table = grown
    return table


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


def _upper_end(lam, log_budget):
    """ceil(lam + a), a = L/3 + sqrt(L^2/9 + 2 L lam): Poisson(lam) has mass <= exp(-L) above it.

    Bernstein's inequality gives P(X >= lam + a) <= exp(-a^2 / (2 (lam + a/3))),
    which is exp(-L) at this a.  ``lam`` is a mean, giving an int, or an
    array of means, giving an int64 array; both evaluate the same doubles.
    """
    L = log_budget
    if isinstance(lam, np.ndarray):
        return np.ceil(lam + L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * L * lam)).astype(np.int64)
    return math.ceil(lam + L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * L * lam))


# Mean window length from which the segment form of _poisson_pmf evaluates
# its windows one at a time
_LONG_WINDOW = 1024


def _poisson_pmf(lam, lo, hi, out=None):
    """Poisson pmf exp(-lam + k log lam - log k!) on integer ranges, into ``out`` if given.

    One evaluation serves three forms, so each entry is the same double
    whichever form, range or block it is evaluated in:

    * a mean ``lam`` on lo..hi, a series window;
    * a column of means on lo..hi, one row per mean, a block of kernel rows;
    * arrays of means, of lo and of hi, one entry per window: the pmf of
      each mean on its own lo..hi, the windows concatenated, a chunk of
      series windows over a grid.

    Every term is evaluated; those that underflow come out as 0.0.
    """
    if isinstance(lo, np.ndarray):
        sizes = hi - lo + 1
        ends = np.cumsum(sizes)
        if ends[-1] >= _LONG_WINDOW * sizes.size:
            # long windows are cheaper one at a time, slicing the log k! table
            if out is None:
                out = np.empty(ends[-1])
            for lam_t, lo_t, hi_t, end in zip(lam.tolist(), lo.tolist(), hi.tolist(),
                                              ends.tolist()):
                _poisson_pmf(lam_t, lo_t, hi_t, out=out[end - (hi_t - lo_t + 1):end])
            return out
        # the steps below, each repeated term built just before its use so
        # that at most one chunk-sized temporary lives beside k
        k = np.repeat(lo - (ends - sizes), sizes)
        k += np.arange(k.size)
        log_p = np.multiply(k, np.repeat(np.log(lam), sizes), out=out)
        log_p += np.repeat(-lam, sizes)
        log_p -= _log_factorial_table(int(hi.max()) + 1)[k]
        return np.exp(log_p, out=log_p)
    # float k (exact integers) multiplies without casting each entry
    k = np.arange(lo, hi + 1, dtype=float)
    log_p = np.multiply(k, np.log(lam), out=out)
    log_p += -lam
    log_p -= _log_factorial_table(hi + 1)[lo:hi + 1]
    return np.exp(log_p, out=log_p)


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


def _past_max_terms(label, mean, policy):
    """The error for a window of the law ``label`` ``mean`` that needs more than max_terms."""
    return TruncationFailureError(
        f"series window for {label} {mean} needs more than max_terms={policy.max_terms} terms")


def _poisson_start(lam, policy):
    """The first window lo..hi of Poisson(lam) and a floor below its cut, as ``(lo, hi, floor)``.

    lo is the Chernoff point of :func:`_lower_end` for a budget of
    min(2^-64, tail_eps), rounded down to a multiple of ``_LOWER_END_STEP``;
    it is 0 for means below about 770.  Above hi, the Bernstein point of
    :func:`_upper_end`, lies at most tail_eps 2^-53 of the mass, below the
    rounding of any tail compared with tail_eps.  The first tail pass stops
    at floor(lam + sqrt(lam log(1/tail_eps))), at most hi - 1: 5.3 standard
    deviations above the mean at the default tail_eps, with at least 7e-8
    of the mass above it.  ``lam`` is a mean, giving ints, or an array of
    means, giving int64 arrays of the same values.
    """
    log_eps = -math.log(policy.tail_eps)
    lo = _lower_end(lam, max(_WINDOW_LOG_BUDGET, log_eps)) // _LOWER_END_STEP * _LOWER_END_STEP
    hi = _upper_end(lam, log_eps + 53.0 * math.log(2.0))
    if isinstance(lam, np.ndarray):
        return lo, hi, np.minimum(np.floor(lam + np.sqrt(lam * log_eps)).astype(np.int64), hi - 1)
    return lo, hi, min(math.floor(lam + math.sqrt(lam * log_eps)), hi - 1)


def _below(lam, lo):
    """The Chernoff bound exp(-(lam - lo + 1)^2 / (2 lam)) on P(X <= lo - 1), 0.0 if lo = 0."""
    return math.exp(-(lam - lo + 1) ** 2 / (2.0 * lam)) if lo else 0.0


def _poisson_weights(lam: float, policy: TruncationPolicy):
    """Poisson(lam) pmf on lo..K, the tail mass beyond K and a bound on the mass below lo.

    Returns ``(lo, w, tail, below)``: w is the pmf on lo..K, tail the
    certified mass beyond K and below the bound of :func:`_below` on the
    mass below lo; the omitted mass is tail + below.  K is the smallest cut
    whose tail is <= ``tail_eps``.  The pmf is evaluated on the window
    lo..hi of :func:`_poisson_start`; past hi the pmf ratio stays below
    r = lam/(hi + 1), so p_hi r/(1 - r) bounds the mass beyond hi.  The tail
    past j, p_hi + p_{hi-1} + ... + p_{j+1} plus that remainder, is a
    cumulative sum from hi down to the floor, widened to lo - 1 only if the
    cut lies at or below the floor, so K, the tail and every weight carry
    the bits of a window summed from k = 0.  The tail past hi - 1 meets
    tail_eps (p_hi lies far below it).  If the tail past lo - 1 meets it
    too, so does every tail past j < lo (terms of at most 2^-64 leave a sum
    that close to 1 alone), and the window is k = 0 alone.  A mean of 2^53
    or more, as an overflow gives, needs more than any ``max_terms``.
    """
    if lam == 0.0:
        return 0, np.array([1.0]), 0.0, 0.0
    if lam >= 2.0 ** 53:
        raise _past_max_terms("mean", lam, policy)
    lo, hi, floor = _poisson_start(lam, policy)
    if hi + 1 > policy.max_terms:
        raise _past_max_terms("mean", lam, policy)
    p = _poisson_pmf(lam, lo, hi)
    ratio = lam / (hi + 1.0)
    remainder = p[-1] * ratio / (1.0 - ratio)
    top = p[::-1]
    for last in (min(floor, hi - 1), max(lo - 1, 0)):
        # tail[m] is the tail past j = hi - 1 - m, for j = hi - 1 down to last
        tail = top[:hi - last].cumsum()
        tail += remainder
        within = int(tail.searchsorted(policy.tail_eps, side="right"))
        if within < tail.size:
            break
    K, omitted = hi - within, float(tail[within - 1])
    if K < lo:
        return 0, _poisson_pmf(lam, 0, 0), omitted, 0.0
    return lo, p[:K - lo + 1], omitted, _below(lam, lo)


def truncation_index(n: int, x: float, policy: TruncationPolicy = DEFAULT_POLICY) -> int:
    """Smallest K with Poisson(n x) mass beyond K at most ``tail_eps``."""
    n = _check_index(n)
    _check_real(x, "x")
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
    n = _check_index(n)
    _check_real(x, "x")
    lo, w, tail, below = _poisson_weights(n * x, policy)
    return SeriesValue(_average(lo, w, f, n), tail + below)


# sm_apply_grid evaluates the pmf of consecutive windows in chunks of at
# most this many terms (a longer window is a chunk of its own)
_GRID_CHUNK = 1 << 14


def _poisson_windows(lam, lo, hi, floor, policy, buffer):
    """The window ``(lo, w, omitted)`` of each of consecutive means, or None where uncertified.

    ``lam``, ``lo``, ``hi`` and ``floor`` are arrays from :func:`_poisson_start`
    of positive means whose windows lo..hi fit within ``max_terms``.  One
    :func:`_poisson_pmf` call evaluates the windows, concatenated, into
    ``buffer`` if they fit there.  The first pass of the cut of
    :func:`_poisson_weights`, the tail sums from hi down to the floor, then
    runs for all of them at once, one sequential cumulative sum per window
    as there.  A window whose cut that pass certifies carries the bits
    :func:`_poisson_weights` gives it, with omitted = tail + below.  Where
    the pass does not certify the cut (it lies at or below the floor or
    below lo), the entry is None.
    """
    sizes = hi - lo + 1
    ends = np.cumsum(sizes) - 1
    p = _poisson_pmf(lam, lo, hi, out=buffer[:ends[-1] + 1] if ends[-1] < buffer.size else None)
    tops = hi - floor
    # tail[r, m] is the tail past j = hi_r - 1 - m, for m below window r's
    # top; past it the row adds zeros
    tail = np.zeros((lam.size, int(tops.max())))
    for row, end, top in zip(tail, ends.tolist(), tops.tolist()):
        row[:top] = p[end - top + 1:end + 1][::-1]
    np.cumsum(tail, axis=1, out=tail)
    ratio = lam / (hi + 1.0)  # below 1: _upper_end puts hi above the mean
    remainder = p[ends] * ratio / (1.0 - ratio)
    tail += remainder[:, None]
    over = tail > policy.tail_eps
    within = over.argmax(axis=1)
    rows = np.arange(lam.size)
    omitted = np.where(within > 0, tail[rows, within - 1], remainder)
    K = hi - within
    cut = (within < tops) & over[rows, within] & (omitted <= policy.tail_eps) & (K >= lo)
    return [(lo_t, p[start:start + K_t - lo_t + 1], omitted_t + _below(lam_t, lo_t))
            if cut_t else None
            for lam_t, lo_t, start, K_t, omitted_t, cut_t in zip(
                lam.tolist(), lo.tolist(), (ends + 1 - sizes).tolist(), K.tolist(),
                omitted.tolist(), cut.tolist())]


def sm_apply_grid(n: int, f, xs, policy: TruncationPolicy = DEFAULT_POLICY):
    """Apply the Szasz-Mirakyan operator of index n to f at every point of ``xs``.

    Returns ``(values, omitted)``, two arrays with one entry per point of
    the 1-d ``xs``: the bits of ``sm_apply(n, f, x, policy)`` at each point
    x.  ``f`` may also be a tuple of functions; ``values`` then has one row
    per function, the bits of a call with that function alone, and
    ``omitted``, which does not depend on f, stays one row.  The points are
    taken in order, and the functions in tuple order within a point, so a
    point that sm_apply would reject raises the same error, after the
    points before it have been evaluated, as a loop of sm_apply calls would.

    Consecutive points whose windows lo..hi overlap are taken in chunks of
    at most ``_GRID_CHUNK`` terms.  :func:`_poisson_windows` builds a
    chunk's windows once for all functions, each function is evaluated once
    on the lattice points from the least lo to the greatest K among them,
    and each window is summed against each function by the dot product of
    :func:`_average`.  Nearby means share most of their windows, so f is
    evaluated on far fewer points than the windows hold together.  A point
    whose cut :func:`_poisson_windows` does not certify, the point mass at
    x = 0, a window past ``max_terms`` and a point sm_apply rejects each go
    through :func:`sm_apply` itself, once per function, in their place in
    the point order.
    """
    fs = f if isinstance(f, tuple) else (f,)
    if not fs:
        raise ValueError("f must be a function or a nonempty tuple of functions")
    n = _check_index(n)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"xs must be a 1-d array of points, got shape {xs.shape}")
    with np.errstate(over="ignore"):
        # inf, as n * x is for sm_apply, if it overflows; 0 where x is rejected
        lam = np.where((0.0 <= xs) & (xs < math.inf), n * xs, 0.0)
    # capped so that hi fits an int64; so large a window is past max_terms
    lo, hi, floor = _poisson_start(np.minimum(lam, 2.0 ** 53), policy)
    # a point mass, a rejected x and a window past max_terms are chunks of their own
    sizes = np.where((lam > 0.0) & (hi < policy.max_terms), hi - lo + 1, 0).tolist()
    lows, highs = lo.tolist(), hi.tolist()
    values, omitted = np.empty((len(fs), xs.size)), np.empty(xs.size)
    buffer = np.empty(_GRID_CHUNK)
    i = 0
    while i < xs.size:
        # a chunk's windows overlap the span first..last of those before them
        j, total, first, last = i + 1, sizes[i], lows[i], highs[i]
        while (total and j < xs.size and sizes[j] and lows[j] <= last and highs[j] >= first
               and total + sizes[j] <= _GRID_CHUNK):
            total, first, last = total + sizes[j], min(first, lows[j]), max(last, highs[j])
            j += 1
        windows = _poisson_windows(lam[i:j], lo[i:j], hi[i:j], floor[i:j], policy,
                                   buffer) if total else [None]
        certified = [window for window in windows if window]
        if certified:
            first = min(lo_t for lo_t, _, _ in certified)
            last = max(lo_t + w.size for lo_t, w, _ in certified)
            vals = [np.asarray(g(np.arange(first, last) / n), dtype=float) for g in fs]
        for t, window in zip(range(i, j), windows):
            if window is None:
                for row, g in zip(values, fs):
                    row[t], omitted[t] = sm_apply(n, g, float(xs[t]), policy)
            else:
                lo_t, w, omitted[t] = window
                for row, v in zip(values, vals):
                    row[t] = _dot(lo_t, w, v[lo_t - first:lo_t - first + w.size], n)
        i = j
    return (values if isinstance(f, tuple) else values[0]), omitted


def bernstein_apply(n: int, f, x: float) -> float:
    """Apply the Bernstein operator: the finite binomial average of f.

    ``sum_k C(n,k) x^k (1-x)^(n-k) f(k/n)`` for x in [0, 1], computed with
    log-space weights; exact point evaluations at the endpoints.
    """
    n = _check_index(n)
    _check_real(x, "x", 0.0, 1.0)
    if x == 0.0:
        return float(f(0.0))
    if x == 1.0:
        return float(f(1.0))
    return _average(0, _binomial_pmf(n, x, np.arange(n + 1)), f, n)


def _negative_binomial_weights(n: int, x: float, policy: TruncationPolicy):
    """Negative-binomial weights C(n+k-1,k) x^k / (1+x)^(n+k) on lo..hi: ``(lo, w, above, below)``.

    The law is that of a sum S of n independent geometric variables of mean
    x.  Each end of the window is a closed-form bound for the budget
    L = log(2/tail_eps), and no tail is summed.  Maurer's inequality for
    sums of nonnegative variables (JIPAM 4(1), 2003) gives P(S <= nx - t)
    <= exp(-t^2 / (2 v)) with v = n x (1 + 2x), the summed second moments,
    so lo = floor(nx - sqrt(2 L v)) has below = exp(-(nx - lo + 1)^2 / (2 v))
    < tail_eps/2 under it (0.0 when lo = 0).  Janson's bound (Statist.
    Probab. Lett. 135, 2018, Thm 2.1) gives P(S + n >= c n (1 + x))
    <= exp(-n (c - 1 - log c)) for c >= 1, and c - 1 - log c
    >= (c - 1)^2 / (2c), so c = 1 + a + sqrt(a^2 + 2a), a = L/n, puts
    above = tail_eps/2 beyond hi = ceil(c n (1 + x)) - n.  A window past
    ``max_terms``, as an overflowing mean gives, is named before any term
    is evaluated.
    """
    if x == 0.0:
        return 0, np.array([1.0]), 0.0, 0.0
    mean = n * x
    # Python floats, so an overflowing mean makes top inf with no warning
    L = math.log(2.0) - math.log(policy.tail_eps)
    a = L / n
    top = (1.0 + a + math.sqrt(a * a + 2.0 * a)) * n * (1.0 + x)
    # hi + 1 = ceil(top) - n + 1 <= max_terms, and inf and nan fail
    if not top <= policy.max_terms + n - 1:
        raise _past_max_terms("Baskakov mean", mean, policy)
    hi = math.ceil(top) - n
    spread = mean * (1.0 + 2.0 * x)
    lo = max(0, math.floor(mean - math.sqrt(2.0 * L * spread)))
    # log w_lo, then the logs of the ratios w_j / w_(j-1) = q + q (n - 1) / j,
    # q = x / (1 + x), summed in order: the work follows the window, not n
    log_w = np.arange(lo, hi + 1, dtype=float)
    log_w[0] = (math.lgamma(n + lo) - math.lgamma(n) - math.lgamma(lo + 1.0)
                + lo * math.log(x) - (n + lo) * math.log1p(x))
    q = x / (1.0 + x)
    log_w[1:] = np.log(np.divide(q * (n - 1), log_w[1:], out=log_w[1:]) + q)
    w = np.exp(np.cumsum(log_w, out=log_w), out=log_w)
    below = math.exp(-(mean - lo + 1) ** 2 / (2.0 * spread)) if lo else 0.0
    return lo, w, 0.5 * policy.tail_eps, below


def baskakov_apply(n: int, f, x: float, policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesValue:
    """Apply the Baskakov operator (negative-binomial average) to f at x.

    Experimental branch: its limiting behavior is only supported by a
    heuristic second-order coefficient, so none of the quantitative rate
    assertions elsewhere in the package rely on it.  f is evaluated only on
    the window lo..hi of :func:`_negative_binomial_weights`; the omitted
    mass is the sum of the closed-form bounds above hi and below lo, at
    most ``tail_eps``.
    """
    n = _check_index(n)
    _check_real(x, "x")
    lo, w, above, below = _negative_binomial_weights(n, x, policy)
    return SeriesValue(_average(lo, w, f, n), above + below)


def sm_exponential_closed_form(n: int, lam: float, x):
    """Closed form of the Szasz-Mirakyan operator on ``exp(-lam x)``.

    Equals ``exp(-n x (1 - exp(-lam/n)))``; as n grows the inner factor
    tends to lam, recovering the exponential itself.  ``x`` may be an
    array of points, each finite and nonnegative; a scalar x gives a float.
    """
    n = _check_index(n)
    x = _check_reals(x, "x")
    _check_real(lam, "lam", open_ends=True)
    c = -np.expm1(-lam / n)  # 1 - exp(-lam/n), accurate for tiny lam/n
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow's entries are replaced
        # where n x overflows, x (n c) overflows only with the exponent, whose value is 0.0
        exponent = np.where(np.isinf(n * x), -x * (n * c), -n * x * c)
    values = np.exp(exponent)
    return float(values) if values.ndim == 0 else values


def sm_moment(n: int, p: int, x: float) -> float:
    """Raw moment E[T^p] of T ~ Poisson(n x), for p = 1 or 2."""
    n = _check_index(n)
    _check_real(x, "x")
    m = n * x
    if p == 1:
        return float(m)
    if p == 2:
        return float(m ** 2 + m)
    raise ValueError(f"p must be 1 or 2, got {p}")
