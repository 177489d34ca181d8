"""Deterministic sampling streams.

Philox is a counter-based generator: a stream keyed by (seed, stream ids)
yields the same draws no matter what other streams were consumed before it,
which keeps sampled experiments reproducible.  Every computation of the
package runs in the calling process.

`generator` imports numpy inside, as every array path of the package does,
so that `equilibria` and `sweep`, which work on floats alone, start without
it.
"""

from __future__ import annotations

# Stream namespaces so independent purposes never share a key.
STREAM_INVARIANCE = 1
STREAM_MONOTONICITY = 2


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by a nonnegative seed plus stream ids."""
    import numpy as np
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    key = np.random.SeedSequence(entropy=[int(seed), *(int(s) for s in stream)])
    return np.random.Generator(np.random.Philox(key))


def thread_count() -> int:
    """1, the number of worker processes: every computation runs in the caller.

    Kept only for the benchmark harness (`perfbench/worker.py`), which records
    it as run metadata; ROADMAP item 1 removes it together with that reader.
    It reads no environment variable.
    """
    return 1
