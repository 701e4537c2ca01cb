"""Exact-arithmetic references for the tests, from Python's decimal module.

Each reference converts its float arguments to Decimal exactly and
evaluates at ``DIGITS`` significant digits, far below the resolution of a
double, so a test may treat it as exact once converted back with ``float``.
"""

import math
from decimal import Decimal, localcontext

DIGITS = 40


def poisson_pmf(lam, lo, hi):
    """The Poisson(lam) pmf exp(-lam) lam^k / k! at k = lo..hi, as a list of Decimals.

    The first term is evaluated directly and the rest by the recurrence
    p_{k+1} = p_k lam / (k + 1), which loses about one unit of the last of
    ``DIGITS`` digits per step.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam = Decimal(lam)
        p = (-lam).exp() * lam ** lo / Decimal(math.factorial(lo))
        out = [p]
        for k in range(lo + 1, hi + 1):
            p = p * lam / k
            out.append(p)
        return out


def _one_minus_exp_neg(q):
    """1 - exp(-q) for a Decimal q >= 0.

    Below q = 1/10 the difference would cancel (to 0 once q is under about
    10^-DIGITS), so it is summed from its series q - q^2/2 + q^3/6 - ...,
    whose terms shrink at least tenfold each, until they no longer count.
    """
    if q > Decimal("0.1"):
        return 1 - (-q).exp()
    total, term, k = Decimal(0), q, 1
    while total + term != total:
        total += term
        k += 1
        term = -term * q / k
    return total


def sm_exponential(n, lam, x):
    """The Szasz-Mirakyan operator of index n on exp(-lam u) at x: exp(-n x (1 - exp(-lam/n)))."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        n, lam, x = Decimal(n), Decimal(lam), Decimal(x)
        return (-n * x * _one_minus_exp_neg(lam / n)).exp()


def feller_laplace(lam, x, t):
    """The square-root diffusion's Laplace transform E[exp(-lam Y_t)] from x: exp(-lam x / (1 + lam t / 2))."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam, x, t = Decimal(lam), Decimal(x), Decimal(t)
        return (-lam * x / (1 + lam * t / 2)).exp()
