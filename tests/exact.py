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


def sm_exponential(n, lam, x):
    """The Szasz-Mirakyan operator of index n on exp(-lam u) at x: exp(-n x (1 - exp(-lam/n)))."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        n, lam, x = Decimal(n), Decimal(lam), Decimal(x)
        return (-n * x * (1 - (-lam / n).exp())).exp()
