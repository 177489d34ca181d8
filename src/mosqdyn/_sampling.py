"""Deterministic sampling streams and worker-count plumbing.

Philox is a counter-based generator: a stream keyed by (seed, stream ids)
yields the same draws no matter what other streams were consumed before it,
which keeps sampled experiments reproducible.  MOSQDYN_THREADS caps only
the row fan-out of the basin rasters that no proof decides, on the
threshold's band at a tol below its fixed point (`map_chunks`: children
forked straight from the caller, with no pool, so every piece runs in
parallel, whatever its loop); sampled checks never fan out.

`generator` and `map_chunks` import numpy inside, as every array path of
the package does, so that `equilibria` and `sweep`, which work on floats
alone, start without it.
"""

from __future__ import annotations

import os

from .errors import UsageError

THREADS_ENV = "MOSQDYN_THREADS"

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
    caller, each other piece at once in a child forked from it (in order in
    the caller where `os` has no fork).  A child pickles its result, or its
    exception for the caller to raise, into a pipe; one that exits without
    a result raises ChildProcessError.  Every child is reaped before the
    call ends.  fn must return what it computes, not store it; then the
    list is identical for any worker count.
    """
    import numpy as np
    bounds = np.linspace(0, n, max(1, min(thread_count(), n)) + 1).astype(int)
    ranges = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    if len(ranges) == 1 or not hasattr(os, "fork"):
        return [fn(a, b) for a, b in ranges]
    import pickle
    import signal
    kids = {}  # pid: read end of its pipe, for the children not yet reaped
    try:
        for a, b in ranges[1:]:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                _run_child(fn, a, b, w)
            os.close(w)
            kids[pid] = open(r, "rb")
        results = [fn(*ranges[0])]
        for (a, b), (pid, pipe) in zip(ranges[1:], list(kids.items())):
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            kids.pop(pid).close()
            if status or not data:
                raise ChildProcessError(f"the worker for rows {a}-{b} exited with "
                                        f"status {os.waitstatus_to_exitcode(status)}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in kids.items():  # on an error: killed, then reaped
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(fn, a: int, b: int, w: int):
    """A forked piece of `map_chunks`: pickle its outcome into pipe w, exit."""
    import pickle
    code = 1
    try:
        try:
            out = True, fn(a, b)
        except Exception as exc:  # the caller raises it
            out = False, exc
        try:
            data = pickle.dumps(out)
        except Exception as exc:  # keep what the caller can still be told
            data = pickle.dumps((False, ChildProcessError(
                f"rows {a}-{b}: {out[1]!r} does not pickle: {exc}")))
        with open(w, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
