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
        raise ValueError(f"seed must be nonnegative, got {seed}")
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


def map_chunks(fn, n: int) -> list:
    """``[fn(start, stop), ...]`` over contiguous pieces of range(n), in order.

    range(n) is cut into at most `thread_count()` pieces, each run on its own
    thread when there are two or more.  The caller's fn must read and write
    only its own slice; then the list is identical for any thread count.
    """
    bounds = np.linspace(0, n, max(1, min(thread_count(), n)) + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(ranges) <= 1:
        return [fn(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(fn, a, b) for a, b in ranges]
        return [f.result() for f in futures]
