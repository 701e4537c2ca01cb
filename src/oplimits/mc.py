"""Reproducible Monte Carlo plumbing.

Samples are partitioned deterministically across a fixed number of streams;
stream w draws from an independent generator spawned from the master seed.
The stream count is decided here alone: ``OPLIMITS_WORKERS`` when set, else
4, never the host's CPU count.  Streams whose RNG calls draw many values
each run concurrently on up to min(streams, usable CPUs) threads, and
their chunks are merged in stream order, so identical (seed, samples)
yields bit-identical results on any machine, whatever its CPU count.
"""

import os
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError

WORKERS_ENV_VAR = "OPLIMITS_WORKERS"

# Stream count when OPLIMITS_WORKERS is unset.
_DEFAULT_STREAMS = 4

# Fewest values a stream must draw per RNG call to get a thread of its own
# (its chunk times the ``steps`` of sample_across_workers).  numpy's
# generators release the GIL for one whole call, so what keeps a threaded
# stream steady is a long call, not a long stream.  Streams that hand the
# GIL over every few microseconds contend for it: on 2 CPUs, 4 threaded
# streams of 256 values took 1.3 to 12 times as long as the same draws one
# after another, and Euler streams of 5,000 paths that drew each step's
# normals in a call of their own spread the benchmark's library-calls
# wall_s 3.7 times as wide as serial draws did (quartile distance 0.487 s
# against 0.131 s).  The 25,000-value Poisson calls of weak-convergence
# stay steady, and so do Euler paths that draw their normals in blocks of
# at least this many (a draw is about 90 us per 5,000 normals, three
# quarters of a step).  Threaded/serial wall time of 4 streams of blocked
# Euler paths (2 CPUs, interleaved medians): 0.62 at 5,000 paths of 1,000
# steps, 0.71 at 2,048 paths of 100 steps, 0.76 at 256 paths of 1,000
# steps; just above the threshold, where a call takes a few milliseconds,
# starting the pool costs more than it saves: 1.04 at 17 paths of 1,000
# steps and 1.18 (0.4 ms) at 2,048 paths of 10 steps.
_MIN_THREADED_CHUNK = 16384


class MonteCarloEstimate(NamedTuple):
    """Sample mean, standard error (sample std / sqrt(n)), and sample count."""

    mean: float
    stderr: float
    samples: int


def resolve_workers(workers=None) -> int:
    """Stream count: explicit argument, else OPLIMITS_WORKERS, else 4."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if not env:
            return _DEFAULT_STREAMS
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ConfigError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {env!r}"
            )
        return workers
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
    seed: int,
    *,
    steps: int = 1,
) -> np.ndarray:
    """Draw ``samples`` values via per-stream generators, merged in order.

    ``draw_chunk(rng, m)`` must return m values using only ``rng``; it may
    be called concurrently from several threads, so it must be thread-safe.
    ``steps`` is how many values per sample one RNG call of a stream may
    draw: an Euler path's step count, as its normals are drawn a block of
    steps at a time; 1 where every call draws one value per sample, as
    exact draws and chain steps do.  The streams run on min(nonempty
    streams, usable CPUs) threads when a stream's calls draw at least
    ``_MIN_THREADED_CHUNK`` values each (``samples // streams * steps``
    reaches it), and one after another on the calling thread otherwise.
    Each stream's values land at its offset in the output, so the result
    does not depend on the thread count.  If streams fail, the exception of the lowest-numbered failing
    stream is raised, after every thread has been joined.
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
    if threads == 1 or samples // streams * steps < _MIN_THREADED_CHUNK:
        for w in nonempty:
            draw(w)
    else:
        from concurrent.futures import ThreadPoolExecutor

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


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    z = np.concatenate([a, b])
    ca = np.searchsorted(a, z, side="right") / a.size
    cb = np.searchsorted(b, z, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))
