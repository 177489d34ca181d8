"""Orbit iteration, limit classification, and basin rasters.

Every orbit in the positive quadrant settles onto a fixed point: the origin
when beta sits on or below the persistence threshold, the positive fixed
point when beta exceeds it.  Starts with adult density above alpha/mu fall
below it in finitely many steps (see ``escape_probe``), so no orbit escapes.
The iterator detects convergence numerically (step size below tol while
sitting within NEAR_FACTOR*tol of a known fixed point) and otherwise
reports its budget ran out.  Undetermined is a first-class outcome, never
coerced: it is also the answer when the point sits that near to both fixed
points at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _sampling
from .core import Params, State, require_w0, step_w0_floats, step_w0_raw
from .equilibria import beta_vs_threshold, regime_quantities
from .errors import DomainError
from .geometry import RegionLabel, omega_bounds, region_of

#: "Near a fixed point" means within this multiple of tol, max norm.
NEAR_FACTOR = 10.0


class OmegaLimitClass(enum.IntEnum):
    """Limit classification; integer values double as raster codes.

    ESCAPE_X_UNBOUNDED is a reserved code that no classifier produces: with
    d0 > 0 no orbit escapes.
    """

    CONVERGED_TO_ORIGIN = 0
    CONVERGED_TO_POSITIVE_FIXED_POINT = 1
    ESCAPE_X_UNBOUNDED = 2
    UNDETERMINED = 3

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class TrajectorySample:
    n: int
    state: State
    phi: float
    region: RegionLabel


@dataclass(frozen=True)
class TrajectoryReport:
    samples: tuple[TrajectorySample, ...]
    iterations_used: int
    final: State
    limit: OmegaLimitClass
    boundary_regime: bool  # beta sits on the threshold: algebraic convergence


@dataclass(frozen=True)
class EscapeProbeReport:
    y_stayed_above: bool
    x_monotone_increasing_tail: bool
    y_gap_final: float
    horizon: int


@dataclass(frozen=True)
class BasinRaster:
    """Limit classes over a lattice; codes[i, j] classifies (xs[j], ys[i])."""

    xs: np.ndarray
    ys: np.ndarray
    codes: np.ndarray


def _fixed_points(p: Params) -> list[tuple[float, float, OmegaLimitClass]]:
    rq = regime_quantities(p)
    fps = [(0.0, 0.0, OmegaLimitClass.CONVERGED_TO_ORIGIN)]
    if rq.x_star is not None:
        fps.append((rq.x_star, rq.y_star,
                    OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT))
    return fps


def iterate(p: Params, z0: State, max_iter: int, tol: float,
            stride: int = 1) -> TrajectoryReport:
    """Iterate from z0 until convergence or budget exhaustion.

    Samples (n, state, phi, region) are recorded at n = 0, every stride-th
    committed step, and at the final state.  Convergence is declared when
    the next step would move less than tol (max norm) while the current
    state sits within NEAR_FACTOR*tol of a known fixed point; the
    classification follows that fixed point (UNDETERMINED when it is near
    both) and the probed step is not committed, so a start exactly on a
    fixed point reports 0 iterations.
    """
    require_w0(p)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    fps = _fixed_points(p)
    near = NEAR_FACTOR * tol

    def make_sample(n: int, x: float, y: float) -> TrajectorySample:
        st = State(x, y)
        return TrajectorySample(n, st, p.mu * x + p.beta * y, region_of(p, st))

    x, y = z0.x, z0.y
    used = 0
    samples = [make_sample(0, x, y)]
    limit = OmegaLimitClass.UNDETERMINED
    while used < max_iter:
        xn, yn = step_w0_floats(p, x, y)
        if max(abs(xn - x), abs(yn - y)) < tol:
            hit = None
            for fx, fy, cls in fps:
                if max(abs(x - fx), abs(y - fy)) <= near:
                    hit = cls if hit is None else OmegaLimitClass.UNDETERMINED
            if hit is not None:
                limit = hit
                break
        x, y = xn, yn
        used += 1
        if used % stride == 0:
            samples.append(make_sample(used, x, y))
    if samples[-1].n != used:
        samples.append(make_sample(used, x, y))
    return TrajectoryReport(
        samples=tuple(samples),
        iterations_used=used,
        final=samples[-1].state,
        limit=limit,
        boundary_regime=beta_vs_threshold(p) == 0,
    )


def escape_probe(p: Params, z0: State, horizon: int) -> EscapeProbeReport:
    """Run a fixed horizon and report on the escape hypothesis.

    Requires the starting adult density above alpha/mu.  Reports whether it
    stayed above at every step, whether the final 10% of larvae samples is
    strictly increasing, and the final gap y - alpha/mu.
    """
    require_w0(p)
    y_cap = p.alpha / p.mu
    if z0.y <= y_cap:
        raise DomainError(
            f"escape probe needs y0 > alpha/mu = {y_cap}, got y0 = {z0.y}"
        )
    x, y = z0.x, z0.y
    xs = [x]
    stayed = True
    for _ in range(horizon):
        x, y = step_w0_floats(p, x, y)
        stayed = stayed and (y > y_cap)
        xs.append(x)
    tail_len = max(2, math.ceil(0.1 * len(xs)))
    tail = xs[-tail_len:]
    increasing = all(a < b for a, b in zip(tail, tail[1:]))
    return EscapeProbeReport(
        y_stayed_above=stayed,
        x_monotone_increasing_tail=increasing,
        y_gap_final=y - y_cap,
        horizon=horizon,
    )


def classify_batch(p: Params, x0: np.ndarray, y0: np.ndarray, max_iter: int,
                   tol: float):
    """Vectorized limit classification; same stopping rule as `iterate`.

    Returns (codes, iterations, final_x, final_y) arrays.  Used by the basin
    raster and anywhere many initial points share a budget.
    """
    require_w0(p)
    fps = _fixed_points(p)
    near = NEAR_FACTOR * tol
    # (class, fixed points) in stopping order: a converging lane takes the
    # first class whose fixed points all lie within `near` of it.
    targets = [(cls, [(fx, fy)]) for fx, fy, cls in fps]
    if len(fps) == 2 and max(fps[1][0], fps[1][1]) <= 2.0 * near:
        # the near-balls overlap; lanes near both are UNDETERMINED, as in iterate
        targets.insert(0, (OmegaLimitClass.UNDETERMINED, [fp[:2] for fp in fps]))

    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    codes = np.full(x.shape, int(OmegaLimitClass.UNDETERMINED), dtype=np.int8)
    iters = np.full(x.shape, max_iter, dtype=np.int64)
    done = np.zeros(x.shape, dtype=bool)
    it = 0
    while it < max_iter and not done.all():
        xn, yn = step_w0_raw(p, x, y)
        xn = np.where(xn < 0.0, 0.0, xn)  # rounding-noise clamp
        yn = np.where(yn < 0.0, 0.0, yn)
        small = np.maximum(np.abs(xn - x), np.abs(yn - y)) < tol
        for cls, pts in targets:
            hit = ~done & small
            for fx, fy in pts:
                hit &= np.maximum(np.abs(x - fx), np.abs(y - fy)) <= near
            codes[hit] = int(cls)
            iters[hit] = it
            done |= hit
        x = np.where(done, x, xn)
        y = np.where(done, y, yn)
        it += 1
    return codes, iters, x, y


def basin_raster(p: Params, grid_n: int, max_iter: int, tol: float) -> BasinRaster:
    """Classify a grid_n x grid_n lattice of initial points over the rectangle.

    Row index follows y, column index follows x, both ascending from 0, so
    codes[i, j] is the limit class of the initial point (xs[j], ys[i]).
    Rows are processed in deterministic chunks (MOSQDYN_THREADS caps the
    fan-out) and written back by index.
    """
    require_w0(p)
    b = omega_bounds(p)
    xs = np.linspace(0.0, b.x_max, grid_n)
    ys = np.linspace(0.0, b.y_max, grid_n)
    codes = np.empty((grid_n, grid_n), dtype=np.int8)

    def work(row_a: int, row_b: int):
        gx, gy = np.meshgrid(xs, ys[row_a:row_b])
        got, _, _, _ = classify_batch(p, gx.ravel(), gy.ravel(), max_iter, tol)
        return row_a, got.reshape(row_b - row_a, grid_n)

    for row_a, block in _sampling.map_chunks(work, grid_n):
        codes[row_a:row_a + block.shape[0]] = block
    return BasinRaster(xs=xs, ys=ys, codes=codes)
