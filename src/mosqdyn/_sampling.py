"""Deterministic sampling streams and worker-count plumbing.

Philox is a counter-based generator: a stream keyed by (seed, stream ids)
yields the same draws no matter what other streams were consumed before it,
which keeps sampled experiments reproducible.  MOSQDYN_THREADS caps only
the row fan-out of basin rasters (`map_chunks`, forked worker processes, so
every piece runs in parallel, whatever its loop); sampled checks never fan out.
"""

from __future__ import annotations

import os

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

    range(n) is cut into at most `thread_count()` pieces.  Piece 0 runs in the
    caller; each other piece runs at once in a worker process started by fork
    (in order in the caller where the platform has no fork).  So fn and its
    results must be picklable, and fn must return what it computes, not store
    it; then the list is identical for any worker count.
    """
    bounds = np.linspace(0, n, max(1, min(thread_count(), n)) + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(ranges) > 1:
        import multiprocessing  # here, so that one worker imports no pool
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(len(ranges) - 1, mp_context=ctx) as pool:
                rest = [pool.submit(fn, a, b) for a, b in ranges[1:]]
                return [fn(*ranges[0])] + [f.result() for f in rest]
    return [fn(a, b) for a, b in ranges]
