"""Reproducible Monte Carlo plumbing.

Samples are partitioned deterministically across a fixed number of streams;
stream w draws from an independent generator spawned from the master seed,
and the chunks are merged in stream order.  The stream count is decided here
alone: ``OPLIMITS_WORKERS`` when set, else 4, never the host's CPU count.
Identical (seed, samples) therefore yields bit-identical results on any
machine.
"""

import os
from typing import Callable, NamedTuple

import numpy as np

WORKERS_ENV_VAR = "OPLIMITS_WORKERS"

# Stream count when OPLIMITS_WORKERS is unset.
_DEFAULT_STREAMS = 4


class MonteCarloEstimate(NamedTuple):
    """Sample mean, standard error (sample std / sqrt(n)), and sample count."""

    mean: float
    stderr: float
    samples: int


def resolve_workers(workers=None) -> int:
    """Stream count: explicit argument, else OPLIMITS_WORKERS, else 4."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        workers = int(env) if env else _DEFAULT_STREAMS
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


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
) -> np.ndarray:
    """Draw ``samples`` values via per-stream generators, merged in order.

    ``draw_chunk(rng, m)`` must return m values using only ``rng``.
    """
    streams = resolve_workers()
    children = np.random.SeedSequence(seed).spawn(streams)
    parts = []
    for w, m in enumerate(chunk_sizes(samples, streams)):
        if m == 0:
            continue
        rng = np.random.default_rng(children[w])
        part = np.asarray(draw_chunk(rng, m), dtype=float)
        if part.shape != (m,):
            raise ValueError(
                f"draw_chunk returned shape {part.shape}, expected ({m},)"
            )
        parts.append(part)
    return np.concatenate(parts)


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
