"""Single applications of three positive linear lattice operators.

The operators average a function over a lattice {k/n} against a probability
distribution parameterized by the evaluation point x:

* Szasz-Mirakyan: Poisson(n x) weights, domain [0, inf);
* Bernstein: Binomial(n, x) weights, domain [0, 1];
* Baskakov: negative-binomial weights, domain [0, inf), experimental.

Infinite series are truncated at an index whose omitted probability mass is
below a policy tolerance; every truncated evaluation reports that omitted
mass alongside the value so downstream error budgets stay explicit.  Weights
are computed in log space, which stays stable for Poisson means up to at
least 5e4; all three laws read log k! from one table of ``gammaln`` values
that grows on demand.

Also provides the exact Poisson moment polynomials, the closed form of the
Szasz-Mirakyan operator on exponentials, the exact centered fourth moment,
and a Bernstein-type exponential concentration bound for the scaled Poisson
variable; these are the quantitative ingredients the convergence experiments
rely on.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

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


class SeriesValue(NamedTuple):
    """A truncated series evaluation and the probability mass it omitted."""

    value: float
    omitted_mass: float


def _validate(n, x):
    """Check n is a positive integer and x >= 0; return n as an int."""
    if n < 1 or int(n) != n:
        raise ValueError(f"operator index n must be a positive integer, got {n}")
    if x < 0:
        raise ValueError("x must be nonnegative")
    return int(n)


def _average(k, w, f, n) -> float:
    """The lattice average sum_k w_k f(k/n), rejecting non-finite terms."""
    vals = np.asarray(f(k / n), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = k[~np.isfinite(vals)][0] / n
        raise EvaluationError(f"non-finite series term at lattice point {bad}", x=bad)
    return float(w @ vals)


# log k! at k = 0, 1, ...: each entry is gammaln(k + 1.0) itself, so a lookup
# returns the same bits as the call at about a tenth of its cost.  Empty
# until first use (importing builds nothing); grown by doubling.
_log_factorials = np.empty(0)


def _log_factorial(k):
    """log k! at a nonnegative integer or integer array k, from the growing table."""
    global _log_factorials
    table = _log_factorials
    try:
        return table[k]
    except IndexError:
        size = max(int(np.max(k)) + 1, 2 * table.size)
        table = np.concatenate([table, gammaln(np.arange(table.size, size) + 1.0)])
        _log_factorials = table
        return table[k]


def _poisson_pmf(lam, k):
    """Poisson(lam) pmf at the nonnegative integers k, evaluated in log space."""
    return np.exp(-lam + k * np.log(lam) - _log_factorial(k))


def _binomial_pmf(n, p, k):
    """Binomial(n, p) pmf at the integers k, evaluated in log space."""
    return np.exp(
        _log_factorial(n)
        - _log_factorial(k)
        - _log_factorial(n - k)
        + k * np.log(p)
        + (n - k) * np.log1p(-p)
    )


def _cut_at_tail(hi, pmf, ratio_beyond, policy, label, mean):
    """Evaluate ``pmf`` on 0..hi and cut at the smallest K with tail <= tail_eps.

    ``ratio_beyond(hi)`` bounds the pmf ratio p_{j+1}/p_j for every j past
    hi; the geometric remainder it implies is folded into every tail value,
    so the cut is rigorous even though the window is finite.  The window
    doubles until a certified cut exists inside it.  Returns the support
    0..K, the pmf on it, and the certified tail mass beyond K.  ``label``
    and ``mean`` name the law in the error raised past ``max_terms``.
    """
    while True:
        if hi + 1 > policy.max_terms:
            raise TruncationFailureError(
                f"series window for {label} {mean} needs more than "
                f"max_terms={policy.max_terms} terms"
            )
        k = np.arange(hi + 1)
        p = pmf(k)
        ratio = ratio_beyond(hi)
        if ratio < 1.0:
            remainder = p[-1] * ratio / (1.0 - ratio)
            # tail[j] = sum of pmf over j+1..hi, plus the beyond-window remainder
            tail = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]]) + remainder
            cut = np.nonzero(tail <= policy.tail_eps)[0]
            if cut.size:
                K = int(cut[0])
                return k[: K + 1], p[: K + 1], float(tail[K])
        hi *= 2


def _poisson_weights(lam: float, policy: TruncationPolicy):
    """Poisson(lam) pmf on 0..K plus the certified tail mass beyond K.

    K is the smallest cutoff whose upper-tail mass is <= ``tail_eps``.  The
    tail is an exact reversed summation over a mode-centered window (20
    standard deviations plus a buffer) augmented with a certified geometric
    remainder for the mass beyond the window; the window grows if the
    tolerance is not certifiably reached inside it.
    """
    if lam == 0.0:
        return np.arange(1), np.array([1.0]), 0.0
    return _cut_at_tail(
        int(lam + 20.0 * np.sqrt(lam) + 60.0),
        lambda k: _poisson_pmf(lam, k),
        lambda hi: lam / (hi + 1.0),
        policy,
        "mean",
        lam,
    )


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
    return _cut_at_tail(
        int(mean + 20.0 * sd + geometric + 60.0),
        lambda k: np.exp(
            _log_factorial(n - 1 + k)
            - _log_factorial(k)
            - _log_factorial(n - 1)
            + k * np.log(x)
            - (n + k) * np.log1p(x)
        ),
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


def sm_exponential_closed_form(n: int, lam: float, x: float) -> float:
    """Closed form of the Szasz-Mirakyan operator on ``exp(-lam x)``.

    Equals ``exp(-n x (1 - exp(-lam/n)))``; as n grows the inner factor
    tends to lam, recovering the exponential itself.
    """
    n = _validate(n, x)
    if lam <= 0:
        raise ValueError("lam must be positive")
    # -expm1 keeps 1 - exp(-lam/n) accurate when lam/n is tiny
    return float(np.exp(-n * x * (-np.expm1(-lam / n))))


def sm_moment(n: int, p: int, x: float) -> float:
    """Raw moment E[T^p] of T ~ Poisson(n x), p in {1, 2, 3, 4}."""
    n = _validate(n, x)
    m = n * x
    if p == 1:
        return float(m)
    if p == 2:
        return float(m ** 2 + m)
    if p == 3:
        return float(m ** 3 + 3 * m ** 2 + m)
    if p == 4:
        return float(m ** 4 + 6 * m ** 3 + 7 * m ** 2 + m)
    raise ValueError(f"moment order p must be in {{1, 2, 3, 4}}, got {p}")


def sm_centered_fourth_moment_bound(n: int, x: float) -> float:
    """Exact value of E[(T/n - x)^4] for T ~ Poisson(n x).

    Equals ``3 x^2 / n^2 + x / n^3``; its square root controls the cubic
    remainder in the second-order expansion of the operator.
    """
    n = _validate(n, x)
    return float(3.0 * x ** 2 / n ** 2 + x / n ** 3)


def poisson_tail_bound(n: int, x: float, delta: float) -> float:
    """Exponential bound on P(|T/n - x| >= delta) for T ~ Poisson(n x).

    Returns ``2 exp(-n delta^2 / (2 (x + delta)))``.  The bound may exceed 1
    for small n; it is reported as-is and clipped only at reporting layers.
    """
    n = _validate(n, x)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return float(2.0 * np.exp(-n * delta ** 2 / (2.0 * (x + delta))))
