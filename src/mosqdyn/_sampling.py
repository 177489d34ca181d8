"""Deterministic sampling streams and worker-count plumbing.

Philox is a counter-based generator: a stream keyed by (seed, stream ids)
yields the same draws no matter what other streams were consumed before it,
which keeps sampled experiments reproducible.  MOSQDYN_THREADS caps only
the row fan-out of basin rasters (`map_chunks`); sampled checks never fan out.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import UsageError

THREADS_ENV = "MOSQDYN_THREADS"

# Stream namespaces so independent purposes never share a key.
STREAM_INVARIANCE = 1
STREAM_MONOTONICITY = 2


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by a nonnegative seed plus stream ids."""
    if seed < 0:
        raise UsageError(f"seed must be nonnegative, got {seed}")
    key = np.random.SeedSequence(entropy=[int(seed), *(int(s) for s in stream)])
    return np.random.Generator(np.random.Philox(key))


def thread_count() -> int:
    """Worker cap from the environment; defaults to 1."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise UsageError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return n


def chunk_ranges(n: int, chunks: int) -> list[tuple[int, int]]:
    """Split range(n) into at most ``chunks`` contiguous pieces."""
    chunks = max(1, min(chunks, n)) if n else 1
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def map_chunks(fn, n: int):
    """Apply ``fn(start, stop)`` over chunks of range(n), merged in order.

    Workers only evaluate elementwise math on disjoint slices, so the merged
    result is identical for any thread count.
    """
    ranges = chunk_ranges(n, thread_count())
    if len(ranges) <= 1:
        return [fn(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(fn, a, b) for a, b in ranges]
        return [f.result() for f in futures]
