"""The Szasz-Mirakyan limit generator and quantitative residuals.

The scaled defect n(P_n f - f) of the Szasz-Mirakyan operator converges to
the degenerate elliptic operator A f(x) = (x/2) f''(x) on [0, inf).

This module evaluates the generator, the explicit weighted-norm constant
controlling the rate, the measured residual ``w_alpha |n(P_n f - f) - A f|``
and its theoretical bound, the assembled iterate-to-semigroup rate bound,
and log-log rate fitting.  The residual applies P_n on its whole grid with
one :func:`~oplimits.operators.sm_apply_grid` call per n, which gives each
point the bits of a scalar ``sm_apply`` call.
"""

from typing import Sequence

import numpy as np

from .errors import _check_index, _check_real, _check_reals
from .funcspace import Grid, weight_eval
# sm_apply is no longer called here, but perfbench/tests/test_tracer.py checks
# that the tracer replaces this module's binding of it
from .operators import TruncationPolicy, DEFAULT_POLICY, sm_apply, sm_apply_grid  # noqa: F401


def generator_apply(f, x):
    """Evaluate (x/2) f''(x), with the degenerate boundary value 0 at x = 0.

    ``x`` is a point or an array of points; an array gives an array.
    ``f`` must carry its analytic second derivative ``d2_fn``, as every
    catalog function does; it is not evaluated at x = 0.
    """
    xa = _check_reals(x, "x")
    d2 = getattr(f, "d2_fn", None)
    if d2 is None:
        raise ValueError("generator_apply needs f with an analytic d2_fn")
    out = np.zeros(xa.shape)
    inside = xa > 0.0
    out[inside] = 0.5 * xa[inside] * np.asarray(d2(xa[inside]), dtype=float)
    return float(out) if np.isscalar(x) else out


def m_alpha(alpha: float) -> float:
    """Weighted-norm constant in the Szasz-Mirakyan residual bound.

    Equals the sum of the two weighted suprema
    ``3^(3/4) sup x^(3/2) w_alpha(x)`` and ``sup x^(3/4) w_alpha(x)``,
    each evaluated in closed form.  Defined for alpha > 3/2; the first
    supremum degenerates at alpha = 3/2.
    """
    _check_real(alpha, "alpha", 1.5, open_ends=True)
    first = (
        3.0 ** 0.75
        * (2.0 * alpha - 3.0)
        / (2.0 * alpha)
        * (3.0 / (2.0 * alpha - 3.0)) ** (3.0 / (2.0 * alpha))
    )
    second = (
        (4.0 * alpha - 3.0)
        / (4.0 * alpha)
        * (3.0 / (4.0 * alpha - 3.0)) ** (3.0 / (4.0 * alpha))
    )
    return float(first + second)


def voronovskaya_residual(
    n: int,
    f,
    alpha: float,
    grid: Grid,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Measured weighted residual of the second-order expansion.

    Returns ``max over the grid of w_alpha(x) |n (P_n f(x) - f(x)) - (x/2) f''(x)|``
    where P_n is the Szasz-Mirakyan operator.  A grid max, hence a lower
    bound of the sup over [0, inf).
    """
    _check_real(alpha, "alpha", 1.0)
    xs = grid.points
    pn, _ = sm_apply_grid(n, f, xs, policy)
    residual = n * (pn - np.asarray(f(xs), dtype=float)) - generator_apply(f, xs)
    return float(np.max(weight_eval(alpha, xs) * np.abs(residual)))


def voronovskaya_bound(n: int, alpha: float, lip_d2: float) -> float:
    """Theoretical residual bound ``m_alpha(alpha) * lip_d2 / (6 sqrt(n))``.

    Valid whenever f'' is Lipschitz with constant ``lip_d2`` and
    alpha > 3/2; holds for every n, not just asymptotically.
    """
    n = _check_index(n)
    _check_real(lip_d2, "lip_d2")
    return m_alpha(alpha) * lip_d2 / (6.0 * np.sqrt(n))


def semigroup_rate_bound(
    n: int,
    t: float,
    alpha: float,
    norm_af: float,
    lip_d2: float,
) -> float:
    """Assembled iterate-to-semigroup rate bound at time t.

    Computes ``(sqrt(t/n) + 1/n) (norm_af + m_alpha lip_d2 / (6 sqrt n))``
    plus the composite-trapezoid quadrature (64 panels) of
    ``s -> m_alpha lip_d2 / (6 sqrt n)`` over [0, t].

    The flow term needs the Lipschitz constant of the evolved function's
    second derivative, which is not computable in closed form; it is
    replaced by the constant ``lip_d2``, a heuristic that is NOT backed by
    the theory and is intended for reporting only.
    """
    n = _check_index(n)
    _check_real(t, "t")
    _check_real(norm_af, "norm_af")
    _check_real(lip_d2, "lip_d2")
    ma = m_alpha(alpha)
    head = (np.sqrt(t / n) + 1.0 / n) * (norm_af + ma * lip_d2 / (6.0 * np.sqrt(n)))
    if t == 0.0:
        return float(head)
    g = np.full(65, ma * float(lip_d2) / (6.0 * np.sqrt(n)))
    panel = t / 64.0
    integral = panel * (0.5 * g[0] + g[1:-1].sum() + 0.5 * g[-1])
    return float(head + integral)


def fit_rate(n_values: Sequence[int], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(n)."""
    n_values = _check_reals(n_values, "n_values", open_ends=True)
    errors = _check_reals(errors, "errors", open_ends=True)
    if n_values.size < 3:
        raise ValueError("need at least 3 points to fit a rate")
    if n_values.size != errors.size:
        raise ValueError("n_values and errors must have equal length")
    return float(np.polyfit(np.log(n_values), np.log(errors), 1)[0])
