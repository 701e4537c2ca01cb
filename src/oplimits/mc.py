"""Reproducible Monte Carlo plumbing.

Samples are partitioned deterministically across a fixed number of streams
(``STREAMS``, never the host's CPU count); stream w draws from an
independent generator spawned from the master seed.  Streams that each
draw many values run concurrently on up to min(streams, usable CPUs)
threads, and their chunks are merged in stream order, so identical
(seed, samples) yields bit-identical results on any machine, whatever its
CPU count.  The stream layout is not an experiment parameter and does not
enter report rows.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

# Monte Carlo stream count of every sample_across_workers call.
STREAMS = 4

# Fewest values an Euler stream draws per RNG call: its normals come in
# blocks of at least this many.  numpy's generators release the GIL for one
# whole call, so what keeps a threaded stream steady is a long call: on 2
# CPUs, 4 threaded streams of 256 values took 1.3 to 12 times as long as
# serial draws, and Euler streams that drew each step's 5,000 normals in a
# call of their own spread the benchmark's library-calls wall_s 3.7 times
# as wide (quartile distance 0.487 s against 0.131 s).
_MIN_THREADED_CHUNK = 16384

# Fewest values a stream must draw in all (its chunk times ``steps``) for
# the streams to run on threads; below it, starting the pool in a fresh
# process costs more than the threads save.  Threaded/serial wall time of 4
# streams of blocked Euler paths (2 CPUs): 0.62 at 5,000 paths of 1,000
# steps, 0.71 at 2,048 of 100, 0.76 at 256 of 1,000, but 1.04 at 17 of
# 1,000 and 1.18 at 2,048 of 10.  Drawing the default weak-convergence
# run's 25,000-value streams serially took the benchmark's chain-sampling
# workload from 0.0524 s to 0.0440 s and from 46.6 MB to 44.6 MB at peak
# (medians of 6 alternating runs, 2 vCPUs).
_MIN_THREADED_DRAW = 1 << 17


class MonteCarloEstimate(NamedTuple):
    """Sample mean, standard error (sample std / sqrt(n)), and sample count."""

    mean: float
    stderr: float
    samples: int


def resolve_workers(workers=None) -> int:
    """Stream count: the explicit argument, else ``STREAMS``."""
    if workers is None:
        return STREAMS
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def chunk_sizes(samples: int, streams: int):
    """Split ``samples`` into ``streams`` near-equal deterministic chunks."""
    if samples < 1:
        raise ValueError("samples must be positive")
    base, extra = divmod(samples, streams)
    return [base + (1 if w < extra else 0) for w in range(streams)]


def sample_across_workers(
    draw_chunk: Callable[[np.random.Generator, int], np.ndarray],
    samples: int,
    seed: int | tuple[int, ...],
    *,
    steps: int = 1,
) -> np.ndarray:
    """Draw ``samples`` values via per-stream generators, merged in order.

    ``seed`` is the master seed's entropy: an int, or a tuple of ints such
    as (config seed, ladder position, draw) that keeps calls apart.
    ``draw_chunk(rng, m)`` must return m values using only ``rng``; it may
    be called concurrently from several threads, so it must be thread-safe.
    ``steps`` is how many values a stream draws per sample: an Euler path's
    step count, as its normals are drawn a block of steps at a time; 1
    where a stream draws one value per sample, as exact diffusion draws and
    chain endpoints do.  The streams run on min(nonempty streams, usable
    CPUs) threads when a stream draws at least ``_MIN_THREADED_DRAW``
    values in all (``samples // streams * steps`` reaches it), and one
    after another on the calling thread otherwise.
    Each stream's values land at its offset in the output, so the result
    does not depend on the thread count.  If streams fail, the exception of
    the lowest-numbered failing stream is raised, after every thread has
    been joined.
    """
    streams = resolve_workers()
    children = np.random.SeedSequence(seed).spawn(streams)
    sizes = chunk_sizes(samples, streams)
    offsets = np.cumsum([0] + sizes)
    out = np.empty(samples)

    def draw(w):
        m = sizes[w]
        part = np.asarray(draw_chunk(np.random.default_rng(children[w]), m), dtype=float)
        if part.shape != (m,):
            raise ValueError(
                f"draw_chunk returned shape {part.shape}, expected ({m},)"
            )
        out[offsets[w]:offsets[w + 1]] = part

    nonempty = range(min(samples, streams))  # only trailing streams can be empty
    threads = min(len(nonempty), _usable_cpus())
    if threads == 1 or samples // streams * steps < _MIN_THREADED_DRAW:
        for w in nonempty:
            draw(w)
    else:
        # reading the results in stream order raises the lowest-numbered
        # failure and cancels the streams not yet started; leaving the
        # block joins every thread
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(draw, nonempty))
    return out


def estimate_from(values: np.ndarray) -> MonteCarloEstimate:
    """Mean and standard error of a sample (requires at least 2 values)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least 2 samples for a standard error")
    return MonteCarloEstimate(
        mean=float(values.mean()),
        stderr=float(values.std(ddof=1) / np.sqrt(n)),
        samples=int(n),
    )


def _runs(s: np.ndarray):
    """Distinct values of the sorted nonempty ``s``, and the counts of s at
    or below each, with 0 prepended: the ends of its runs of ties."""
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    return s[ends], np.concatenate(([0], ends + 1))


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|.

    Both empirical CDFs are right-continuous steps that jump only at sample
    values, so the sup is taken at the distinct values of the two samples.
    A sorted sample's own CDF at its distinct values is read off the ends of
    its runs of ties, with no search.  One search places the distinct values
    of the sample with fewer of them (a chain sample of 10^5 draws has about
    1,500) among the other's; from those positions an equality test gives
    the other's CDF at them, and a ``bincount`` and a ``cumsum`` give their
    own CDF at the other's values.  Each CDF value is the count a search of the whole sample would
    give, over the sample size, so the distance is exactly the maximum over
    every pooled point of
    |searchsorted(a)/a.size - searchsorted(b)/b.size|.

    Raises ValueError if either sample is not 1-d, is empty or holds a NaN.
    """
    runs = []
    for name, sample in (("a", a), ("b", b)):
        sample = np.asarray(sample, dtype=float)
        if sample.ndim != 1:
            raise ValueError(f"sample {name} must be 1-d, got shape {sample.shape}")
        if sample.size == 0:
            raise ValueError("both samples must be nonempty")
        sample = np.sort(sample)
        if np.isnan(sample[-1]):  # sorting puts NaNs last
            raise ValueError(f"sample {name} contains NaN")
        runs.append(_runs(sample))
    del sample  # each sorted copy is freed once its runs are taken
    # the distance is symmetric, so s names the sample with fewer distinct
    # values and l the other; c[j + 1] / c[-1] is F at z[j].  p[i], zs[i]'s
    # left position among zl, is at most j exactly when zs[i] <= zl[j], so
    # the cumsum counts the distinct values of s at or below each zl
    (zs, cs), (zl, cl) = sorted(runs, key=lambda r: r[0].size)
    p = np.searchsorted(zl, zs)
    at_s = np.abs(cs[1:] / cs[-1] - cl[p + (zl[np.minimum(p, zl.size - 1)] == zs)] / cl[-1])
    below = cs[np.cumsum(np.bincount(p, minlength=zl.size))[:zl.size]]
    at_l = np.abs(below / cs[-1] - cl[1:] / cl[-1])
    return float(max(np.max(at_s), np.max(at_l)))
