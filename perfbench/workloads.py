"""Seeded workloads: CLI argument lists plus the verdict each call must give.

Every operation is one ``mosqdyn`` invocation.  Floats travel as ``repr``
strings so the program receives exactly the generated values.  Expected
verdicts come from closed forms computed here, never from the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

#: Reference tuple (alpha, beta, mu, d0); positive fixed point at (1.5, 0.375).
P0 = (0.5, 2.0, 0.8, 0.3)
#: Same alpha/mu/d0 with beta exactly on the persistence threshold 1.28.
P_BOUNDARY = (0.5, 0.8 * (1.0 + 0.3 / 0.5), 0.8, 0.3)

#: Orbit-limit check: the CLI declares convergence within 10*tol of the fixed
#: point, and the interior default tol is 1e-8.
LIMIT_RADIUS = 1e-7
#: Closed-form x*/y* may differ from the program's in the last few ulps.
FIXED_POINT_RTOL = 1e-12

#: Steps to converge on the threshold scale as 1/tol: 6.7e4 per lane here
#: (about 2.5 s), against 6.7e5 (about 25 s) at the CLI default of 1e-6.
THRESHOLD_TOL = 1e-5

INTERIOR_TUPLES = 20
INTERIOR_BASIN_GRID = 192
INTERIOR_SIMS_PER_TUPLE = 12
#: One simulate start in ten sits far above the rectangle (ROADMAP item 2).
LARGE_Y_EVERY = 10
LARGE_Y_FACTOR = 1e3

SWEEP_TUPLES = 100
SWEEP_AT_THRESHOLD_SHARE = 0.2
VERIFY_SAMPLES = 20_000
CYCLES_GRID = 30
SWEEP_GRID = 16


@dataclass(frozen=True)
class Op:
    """One CLI call; ``check(exit_code, output)`` returns a failure label or None."""

    argv: tuple[str, ...]
    check: Callable[[int, bytes], str | None]
    #: A documented defect makes this call fail today (large-y simulate starts).
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    threads: str | None  # MOSQDYN_THREADS for the pass process; None = unset
    ops: tuple[Op, ...]
    tuples: int
    orbits: int  # basin lanes + simulate starts + cycle-search Newton seeds


def _flags(t) -> list[str]:
    alpha, beta, mu, d0 = t
    return ["--alpha", repr(alpha), "--beta", repr(beta),
            "--mu", repr(mu), "--d0", repr(d0)]


def threshold(t) -> float:
    alpha, _, mu, d0 = t
    return mu * (1.0 + d0 / alpha)


def fixed_point(t) -> tuple[float, float] | None:
    """Closed-form positive fixed point, None on or below the threshold."""
    alpha, beta, mu, d0 = t
    if not beta > threshold(t):
        return None
    return (alpha * (beta - mu) / (mu * d0) - 1.0,
            (alpha * (beta - mu) - mu * d0) / (mu * (beta - mu)))


def _latin_tuples(rng: random.Random, n: int, at_threshold: list[bool]):
    """n tuples from the admissible box of tests/conftest.py:sample_w0_params.

    Each coordinate is Latin-hypercube stratified, so every tuple is drawn
    from the same marginal box while the total work of a pass varies less
    from seed to seed.
    """
    cols = []
    for _ in range(4):
        col = [(k + rng.random()) / n for k in range(n)]
        rng.shuffle(col)
        cols.append(col)
    out = []
    for (ua, ud, um, ub), on in zip(zip(*cols), at_threshold):
        alpha = 0.05 + 0.85 * ua
        d0 = 0.05 + (min(0.9, 1.0 - alpha) - 0.05) * ud
        mu = 0.1 + 0.9 * um
        t = mu * (1.0 + d0 / alpha)
        if on:
            beta = t
        else:
            spread = min(0.5 * t, 30.0 * mu * d0 / alpha)
            beta = t + (0.02 + 0.98 * ub) * spread
        out.append((alpha, beta, mu, d0))
    return out


# --- verdict checks -------------------------------------------------------

def _exit_label(code: int) -> str:
    return f"exit_{code}"


def _csv_codes(out: bytes) -> list[list[str]]:
    return [row.split(",") for row in out.decode().splitlines()]


def check_basin_origin(code: int, out: bytes) -> str | None:
    """On the threshold every lattice point converges to the origin (0)."""
    if code:
        return _exit_label(code)
    if any(c != "0" for row in _csv_codes(out) for c in row):
        return "wrong_codes"
    return None


def check_basin_interior(code: int, out: bytes) -> str | None:
    """Origin stays at the origin (0); every other lattice point converges (1)."""
    if code:
        return _exit_label(code)
    rows = _csv_codes(out)
    if rows[0][0] != "0":
        return "wrong_codes"
    rest = rows[0][1:] + [c for row in rows[1:] for c in row]
    if any(c != "1" for c in rest):
        return "wrong_codes"
    return None


def check_simulate(code: int, out: bytes, *, star: tuple[float, float]) -> str | None:
    if code:
        return _exit_label(code)
    last = out.decode().rstrip("\n").rsplit("\n", 1)[-1].split(",")
    x, y = float(last[1]), float(last[2])
    if max(abs(x - star[0]), abs(y - star[1])) > LIMIT_RADIUS:
        return "wrong_limit"
    return None


def _close(a, b) -> bool:
    return abs(a - b) <= FIXED_POINT_RTOL * max(1.0, abs(a), abs(b))


def check_equilibria(code: int, out: bytes, *, star) -> str | None:
    if code:
        return _exit_label(code)
    regime = json.loads(out)["regime"]
    got = (regime["x_star"], regime["y_star"])
    if star is None:
        return None if got == (None, None) else "wrong_fixed_point"
    if None in got or not (_close(got[0], star[0]) and _close(got[1], star[1])):
        return "wrong_fixed_point"
    return None


def check_verify(code: int, out: bytes) -> str | None:
    if code:
        return _exit_label(code)
    return None if json.loads(out)["ok"] is True else "violation"


def check_cycles(code: int, out: bytes) -> str | None:
    if code:
        return _exit_label(code)
    doc = json.loads(out)
    if any(s["cycles"] for s in doc["brute_force"]):
        return "cycle_found"
    return None if doc["ok"] is True else "certificate_error"


def check_sweep(code: int, out: bytes) -> str | None:
    if code:
        return _exit_label(code)
    for row in out.decode().splitlines()[1:]:
        if row.rsplit(",", 1)[1] not in ("true", "na"):
            return "certificate_failed"
    return None


def _bind(fn, **kw):
    return lambda code, out: fn(code, out, **kw)


# --- workloads ------------------------------------------------------------

def setup_op() -> Op:
    """The call that ends set-up: equilibria at the reference tuple."""
    return Op(("equilibria", *_flags(P0)),
              _bind(check_equilibria, star=fixed_point(P0)))


def threshold_basin(seed: int) -> Workload:
    # Fixed inputs: random threshold tuples differ in convergence length by
    # orders of magnitude, so the seed does not change this workload.
    grid = 4
    op = Op(("basin", *_flags(P_BOUNDARY), "--grid-n", str(grid),
             "--tol", repr(THRESHOLD_TOL)),
            check_basin_origin)
    return Workload("threshold_basin", None, (op,), tuples=1, orbits=grid * grid)


def interior_orbits(seed: int) -> Workload:
    # The tuples are drawn once, not per seed: the slowest lane of a basin
    # sets its cost, and that varies ~15x across the box (about 180 to 2800
    # steps), so seeded tuples made the pass time differ by ~17% between
    # seeds.  The seed draws the simulate starts.
    tuples = _latin_tuples(random.Random("mosqdyn-perfbench/interior_orbits"),
                           INTERIOR_TUPLES, [False] * INTERIOR_TUPLES)
    rng = random.Random(f"mosqdyn-perfbench/interior_orbits/{seed}")
    n_sims = INTERIOR_TUPLES * INTERIOR_SIMS_PER_TUPLE
    large = [k < n_sims // LARGE_Y_EVERY for k in range(n_sims)]
    rng.shuffle(large)
    ops = []
    for i, t in enumerate(tuples):
        alpha, beta, mu, d0 = t
        star = fixed_point(t)
        ops.append(Op(("basin", *_flags(t), "--grid-n", str(INTERIOR_BASIN_GRID)),
                      check_basin_interior))
        x_max, y_max = alpha * beta / (mu * d0), alpha / mu
        for k in range(INTERIOR_SIMS_PER_TUPLE):
            is_large = large[i * INTERIOR_SIMS_PER_TUPLE + k]
            x0 = rng.uniform(0.0, x_max)
            y0 = (LARGE_Y_FACTOR * y_max * rng.uniform(1.0, 1.1) if is_large
                  else rng.uniform(0.0, y_max))
            ops.append(Op(("simulate", *_flags(t), "--x0", repr(x0),
                           "--y0", repr(y0), "--stride", "1"),
                          _bind(check_simulate, star=star), known_defect=is_large))
    lanes = INTERIOR_TUPLES * INTERIOR_BASIN_GRID ** 2
    return Workload("interior_orbits", "2", tuple(ops), tuples=INTERIOR_TUPLES,
                    orbits=lanes + n_sims)


def verify_sweep(seed: int) -> Workload:
    rng = random.Random(f"mosqdyn-perfbench/verify_sweep/{seed}")
    n_at = round(SWEEP_TUPLES * SWEEP_AT_THRESHOLD_SHARE)
    at = [k < n_at for k in range(SWEEP_TUPLES)]
    rng.shuffle(at)
    ops = []
    for t in _latin_tuples(rng, SWEEP_TUPLES, at):
        f = _flags(t)
        ops += [
            Op(("equilibria", *f), _bind(check_equilibria, star=fixed_point(t))),
            Op(("verify", *f, "--samples", str(VERIFY_SAMPLES)), check_verify),
            Op(("cycles", *f, "--grid-n", str(CYCLES_GRID)), check_cycles),
            Op(("sweep", *f, "--grid-n", str(SWEEP_GRID)), check_sweep),
        ]
    seeds = SWEEP_TUPLES * 3 * CYCLES_GRID ** 2  # periods 2, 3 and 4
    return Workload("verify_sweep", None, tuple(ops), tuples=SWEEP_TUPLES,
                    orbits=seeds)


WORKLOADS = {
    "threshold_basin": threshold_basin,
    "interior_orbits": interior_orbits,
    "verify_sweep": verify_sweep,
}
