"""Limit diffusions of the chain models and Monte Carlo semigroup estimates.

Two driftless diffusions appear as scaling limits of the lattice chains:

* the square-root diffusion dY = sqrt(Y) dW on [0, inf), absorbed at 0
  (the limit of the Poisson chain);
* the Wright-Fisher diffusion dX = sqrt(X(1-X)) dW on [0, 1], absorbed at
  both endpoints (the limit of the binomial chain).

For the square-root diffusion the transition law admits exact sampling as a
Poisson-mixed Gamma: N ~ Poisson(2x/t), then 0 if N = 0 else
Gamma(shape=N, scale=t/2).  This law is characterized by the Laplace
transform E[exp(-lam Y_t)] = exp(-lam x / (1 + lam t / 2)); it is a derived
construction, so the test suite validates it against an independent
Euler-Maruyama oracle (moments, extinction mass, and distributional
agreement) before anything else relies on it.  In particular E[Y_t] = x
(martingale), Var(Y_t) = x t, and P(Y_t = 0) = exp(-2x/t).

Euler schemes use full truncation: the state is clamped to the state space
after every increment, which preserves absorption at the degenerate
boundary.  The final step is shortened to land exactly on the horizon.
Their normals are drawn a block of steps at a time, each block one RNG call
of at least ``mc._MIN_THREADED_CHUNK`` values (fewer only in a path's last
block) that releases the GIL throughout.  A block holds exactly the values
per-step draws would, so ``semigroup_mc`` counts an Euler path's steps
when it decides whether its streams run on threads, and its estimates do
not depend on that decision.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import UnsupportedMethodError, _check_index, _check_real, _check_reals
from .mc import (
    _MIN_THREADED_CHUNK,
    MonteCarloEstimate,
    estimate_from,
    sample_across_workers,
)
from .operators import sm_moment


@dataclass(frozen=True)
class EulerConfig:
    """Time step of an Euler-Maruyama path (clamping follows the diffusion)."""

    dt: float = 1e-3

    def __post_init__(self):
        _check_real(self.dt, "dt", open_ends=True)


def feller_exact_terminal(
    x: float, t: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized exact draws of the square-root diffusion at time t from x."""
    _check_real(t, "t", open_ends=True)
    _check_real(x, "x")
    size = _check_index(size, "size", least=0)
    out = np.zeros(size)
    if x == 0.0:
        return out
    counts = rng.poisson(2.0 * x / t, size=size)
    pos = counts > 0
    if np.any(pos):
        out[pos] = rng.gamma(shape=counts[pos], scale=t / 2.0)
    return out


def _euler_steps(T: float, dt: float):
    """Step count and final step length of an Euler path to the horizon T.

    Full steps of length dt; when they fall short of T, one more step,
    shortened to land exactly on T.  Both must be finite and positive.
    """
    _check_real(T, "T", open_ends=True)
    _check_real(dt, "dt", open_ends=True)
    nfull = int(T / dt)
    rem = T - nfull * dt
    if rem > 1e-15 * max(1.0, T):
        return nfull + 1, rem
    return nfull, dt


def _euler_increments(T: float, dt: float, size: int, rng: np.random.Generator):
    """Yield (h, z) per Euler step: its length h and its ``size`` normals z.

    The normals are drawn in blocks of ``rows`` steps, at least
    ``_MIN_THREADED_CHUNK`` values per call (fewer only in the last block),
    into one reused buffer.  numpy fills the block in C order, so row j
    holds exactly the normals a per-step ``standard_normal(size)`` would
    draw at step j; a block call releases the GIL for its whole length,
    which lets Euler streams run side by side on threads.
    """
    nsteps, last = _euler_steps(T, dt)
    rows = max(1, min(nsteps, -(-_MIN_THREADED_CHUNK // max(size, 1))))
    block = np.empty((rows, size))
    for start in range(0, nsteps, rows):
        drawn = block[: min(rows, nsteps - start)]
        rng.standard_normal(out=drawn)
        for j, z in enumerate(drawn, start):
            yield (last if j == nsteps - 1 else dt), z


def feller_euler_terminal(
    x: float, T: float, dt: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Clamped Euler endpoints for dY = sqrt(Y) dW (vectorized over paths)."""
    _check_real(x, "x")
    size = _check_index(size, "size", least=0)
    y = np.full(size, float(x))
    for h, z in _euler_increments(T, dt, size, rng):
        y = np.maximum(0.0, y + np.sqrt(y * h) * z)
    return y


def wf_euler_terminal(
    x: float, T: float, dt: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Clamped Euler endpoints for dX = sqrt(X(1-X)) dW on [0, 1]."""
    _check_real(x, "x", 0.0, 1.0)
    size = _check_index(size, "size", least=0)
    v = np.full(size, float(x))
    for h, z in _euler_increments(T, dt, size, rng):
        v = np.clip(v + np.sqrt(v * (1.0 - v) * h) * z, 0.0, 1.0)
    return v


def feller_semigroup_closed_form(lam: float, x, t: float):
    """E[exp(-lam Y_t)] for the square-root diffusion from x.

    Equals ``exp(-lam x / (1 + lam t / 2))``; serves as the oracle against
    which the exact sampler and the chain iterates are checked.  ``x`` may
    be an array of points; a scalar x gives a float.  Where ``lam x`` or
    ``lam t`` overflows, the exponent is taken as ``-x / (1/lam + t/2)``.
    """
    _check_real(lam, "lam", open_ends=True)
    x = _check_reals(x, "x")
    _check_real(t, "t")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow's entries are replaced
        num, den = -lam * x, 1.0 + lam * t / 2.0
        exponent = np.where(np.isinf(num) | np.isinf(den), -x / (1.0 / lam + t / 2.0), num / den)
    values = np.exp(exponent)
    return float(values) if values.ndim == 0 else values


FELLER = "feller"
WRIGHT_FISHER = "wright-fisher"
METHOD_EXACT = "exact"
METHOD_EULER = "euler"


def semigroup_mc(
    kind: str,
    t: float,
    x: float,
    f,
    samples: int,
    seed: int | tuple[int, ...],
    method: str = METHOD_EXACT,
    config: EulerConfig = EulerConfig(),
) -> MonteCarloEstimate:
    """Monte Carlo estimate of E[f(terminal value at time t from x)].

    ``kind`` selects the diffusion ("feller" or "wright-fisher"); exact
    sampling is available only for the square-root diffusion.  x must lie in
    the diffusion's state space, [0, inf) or [0, 1], at every t.  t = 0
    returns (f(x), 0) without consuming randomness.  Deterministic given
    (seed, samples).  ``f`` may be called concurrently from several threads,
    so it must be thread-safe.
    """
    if kind not in (FELLER, WRIGHT_FISHER):
        raise ValueError(f"unknown diffusion kind {kind!r}")
    if method not in (METHOD_EXACT, METHOD_EULER):
        raise ValueError(f"unknown method {method!r}")
    if kind == WRIGHT_FISHER and method == METHOD_EXACT:
        raise UnsupportedMethodError(
            "exact transition sampling is only implemented for the square-root diffusion"
        )
    samples = _check_index(samples, "samples", least=2)
    _check_real(t, "t")
    # the starting point the samplers would reject, also at t = 0
    _check_real(x, "x", 0.0, None if kind == FELLER else 1.0)
    if t == 0.0:
        return MonteCarloEstimate(mean=float(f(x)), stderr=0.0, samples=samples)

    def draw(rng, m):
        if kind == FELLER and method == METHOD_EXACT:
            terminal = feller_exact_terminal(x, t, m, rng)
        elif kind == FELLER:
            terminal = feller_euler_terminal(x, t, config.dt, m, rng)
        else:
            terminal = wf_euler_terminal(x, t, config.dt, m, rng)
        return np.asarray(f(terminal), dtype=float)

    # an Euler path's normals are drawn up to all of its steps per RNG call
    steps = _euler_steps(t, config.dt)[0] if method == METHOD_EULER else 1
    return estimate_from(sample_across_workers(draw, samples, seed, steps=steps))


class ScaledMoments(NamedTuple):
    """Scaled one-step drift and squared-displacement of the Poisson chain."""

    mean_scaled: float
    var_scaled: float


def chain_scaling_moments(n: int, y: float) -> ScaledMoments:
    """Exact scaled one-step moments n E[G - y] and n E[(G - y)^2] at y = i/n.

    Here G = T/n with T ~ Poisson(n y).  Evaluated through the exact Poisson
    moment polynomials; the results are (0, y), the drift and diffusion
    coefficients the weak-convergence criterion requires.
    """
    n = _check_index(n)
    _check_real(y, "y")
    i = round(y * n)
    if abs(y * n - i) > 1e-9:
        raise ValueError(f"{y} is not a lattice point i/{n}")
    if y == 0.0:
        return ScaledMoments(0.0, 0.0)
    m1 = sm_moment(n, 1, y)
    m2 = sm_moment(n, 2, y)
    mean_scaled = n * (m1 / n - y)
    var_scaled = n * (m2 / n ** 2 - 2.0 * y * m1 / n + y ** 2)
    return ScaledMoments(float(mean_scaled), float(var_scaled))
