"""Weighted function spaces on the half line.

Provides the polynomial-taming weights ``w_alpha(x) = 1/(1 + x^alpha)``,
the evaluation grids that weighted sup-norms are taken over (a grid max is
a lower bound of the supremum over [0, inf)), and a catalog of standard
test functions with analytic second derivatives (exponentials, monomials,
two bounded rational/exponential profiles and a cubic kink), one table row
each of numpy expressions on the float array a call makes of its argument.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import _check_index, _check_real, _check_reals


def weight_eval(alpha: float, x: float):
    """Evaluate the weight ``1 / (1 + x**alpha)``.

    Parameters
    ----------
    alpha : float
        Weight exponent, finite and ``>= 1``.
    x : float or ndarray
        Evaluation point(s), finite and nonnegative.

    Returns
    -------
    float or ndarray
        Weight value(s) in (0, 1], equal to 1 at x = 0 and strictly
        decreasing on (0, inf).
    """
    _check_real(alpha, "alpha", 1.0)
    xa = _check_reals(x, "x")
    with np.errstate(over="ignore"):  # a power past the largest double is inf, weight 0.0
        xa = xa ** alpha
    out = 1.0 / (1.0 + xa)
    return float(out) if np.isscalar(x) else out


@dataclass(frozen=True)
class TestFunction:
    """An evaluatable function on [0, inf) with optional analytic extras.

    Attributes
    ----------
    label : str
        Catalog identifier.
    fn : callable
        Evaluation map on a float array (0-d for a point), total and finite
        on [0, inf); calling the function converts its argument to one.
    d2_fn : callable, optional
        Analytic second derivative on a float array, which the generator evaluates.
    lip_d2 : float, optional
        A known Lipschitz constant of the second derivative.
    """

    label: str
    fn: Callable
    d2_fn: Optional[Callable] = None
    lip_d2: Optional[float] = None

    # keep pytest from collecting this public class as a test case
    __test__ = False

    def __post_init__(self):
        if self.lip_d2 is not None:
            _check_real(self.lip_d2, "lip_d2")

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Grid:
    """A finite, strictly increasing set of evaluation points starting at 0."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size == 0:
            raise ValueError("grid must be a nonempty 1-d sequence")
        _check_reals(pts, "grid points")
        if pts[0] != 0.0:
            raise ValueError("grid must start at 0")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("grid points must be strictly increasing")


def make_geometric_grid(x_max: float, m: int, dense_head: int = 0) -> Grid:
    """Build {0} plus a uniform head on (0, 1] plus a geometric tail.

    The head consists of ``dense_head`` uniformly spaced points
    ``i/dense_head`` (points above ``x_max`` are dropped); the tail
    consists of ``m - 1`` geometrically spaced points
    ``x_max**(j/(m-1))`` for j = 1..m-1.  The result is sorted and
    deduplicated.
    """
    _check_real(x_max, "x_max", open_ends=True)
    m = _check_index(m, "m", least=2)
    dense_head = _check_index(dense_head, "dense_head", least=0)
    parts = [np.array([0.0])]
    if dense_head > 0:
        head = np.arange(1, dense_head + 1, dtype=float) / dense_head
        parts.append(head[head <= x_max])
    j = np.arange(1, m, dtype=float)
    parts.append(x_max ** (j / (m - 1)))
    points = np.sort(np.concatenate(parts))
    # the sorted distinct values, as np.unique would give without loading numpy.ma
    return Grid(points[np.concatenate([[True], points[1:] != points[:-1]])])


def catalog() -> dict:
    """Standard test functions keyed by label.

    e0, e1, e2 are the monomials 1, x, x^2; xexp is x exp(-x); cauchy is
    1/(1 + x^2); kink3 is |x - 1|^3, whose f'' = 6 |x - 1| is Lipschitz
    while f''' jumps at x = 1, so its Voronovskaya residual decays at the
    sharp half-order rate; f1, f2, f3 are exp(-lam x) for lam = 1, 2, 3.
    """
    rows = [
        TestFunction("e0", np.ones_like, np.zeros_like, lip_d2=0.0),
        TestFunction("e1", lambda x: x, np.zeros_like, lip_d2=0.0),
        TestFunction("e2", lambda x: x ** 2, lambda x: np.full_like(x, 2.0), lip_d2=0.0),
        TestFunction("xexp", lambda x: x * np.exp(-x), lambda x: (x - 2.0) * np.exp(-x),
                     lip_d2=3.0),  # sup |(3 - x) exp(-x)| = 3 at x = 0
        # np.square squares a Python float as an array's ** 2 does; its ** 2 goes through pow
        TestFunction("cauchy", lambda x: 1.0 / (1.0 + x ** 2),
                     lambda x: (6.0 * np.square(x) - 2.0) / (1.0 + np.square(x)) ** 3),
        TestFunction("kink3", lambda x: np.abs(x - 1.0) ** 3, lambda x: 6.0 * np.abs(x - 1.0),
                     lip_d2=6.0),  # |f'''| = 6 on both sides of the jump at x = 1
        *(TestFunction(f"f{int(lam)}", lambda x, lam=lam: np.exp(-lam * x),
                       lambda x, lam=lam: lam ** 2 * np.exp(-lam * x),
                       lip_d2=lam ** 3)  # sup |f'''| = lam^3 at x = 0
          for lam in (1.0, 2.0, 3.0)),
    ]
    return {f.label: f for f in rows}


CATALOG = catalog()
