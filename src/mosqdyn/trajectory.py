"""Orbit iteration, limit classification, and basin rasters.

Every orbit in the positive quadrant settles onto a fixed point: the origin
when beta sits on or below the persistence threshold, the positive fixed
point when beta exceeds it.  Starts with adult density above alpha/mu fall
below it in finitely many steps (see ``escape_probe``), so no orbit escapes.
The iterator detects convergence numerically (step size below tol while
sitting within NEAR_FACTOR*tol of a known fixed point) and otherwise
reports its budget ran out.  Undetermined is a first-class outcome, never
coerced: it is also the answer when the point sits that near to both fixed
points at once.  Basin rasters run no step: they take every code from exact
proofs, the order sandwich above the threshold (`equilibria.order_sandwich`)
and `equilibria.settles_near_origin` on and below it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import (
    Params,
    State,
    _clamp,
    _clamp_into,
    require_w0,
    step_w0,
    step_w0_into,
)
from .equilibria import (
    beta_vs_threshold,
    order_sandwich,
    regime_quantities,
    settles_near_origin,
)
from .errors import DomainError
from .geometry import RegionLabel, _region_codes, omega_bounds

#: "Near a fixed point" means within this multiple of tol, max norm.
NEAR_FACTOR = 10.0

#: `classify_batch` hands its lanes to the scalar lane loop once at most this
#: many are left.  On threshold orbits the two loops cost the same at about
#: 64-72 lanes and on P0 orbits at about 128 (2-core x86 host): below that,
#: numpy's per-call dispatch outweighs the lanes' arithmetic.  The constant is
#: the lower of the two crossovers.
NARROW_LANES = 64


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


def _stopping_rule(p: Params, tol: float, max_iter: int):
    """Validated (fixed points, near radius) of the stopping rule."""
    require_w0(p)
    if not 0.0 < tol < math.inf:  # also refuses NaN
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    rq = regime_quantities(p)
    fps = [(0.0, 0.0, OmegaLimitClass.CONVERGED_TO_ORIGIN)]
    if rq.x_star is not None:
        fps.append((rq.x_star, rq.y_star,
                    OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT))
    return fps, NEAR_FACTOR * tol


def _run_lane(p: Params, x: float, y: float, n: int, tol: float, fps, near,
              stride: int):
    """At most n steps of one orbit under the stopping rule of `iterate`.

    Returns (limit, steps committed, x, y, trail); limit is None when all n
    steps were committed without a stop, and the flat list trail holds
    x, y after every stride-th committed step.  The step is `step_w0_raw`
    written out, in its exact operation order, so that a step makes no
    call; `test_trajectory.TestReferenceLaneLoop` pins it to the loop that
    calls `step_w0_raw`.  Lanes stay >= 0, so the near test of the origin
    is two comparisons, and it runs before the step-size test because a
    lane is far from every fixed point on most steps.
    """
    alpha, beta, mu, d0 = p.alpha, p.beta, p.mu, p.d0
    # Without a positive fixed point its near test can never pass.
    sx, sy = fps[1][:2] if len(fps) > 1 else (math.inf, math.inf)
    trail = []
    done = 0
    while done < n:
        chunk = min(stride, n - done)
        for k in range(done, done + chunk):
            em = alpha * x / (1.0 + x)
            xn = beta * y - em - d0 * x + x
            yn = em - mu * y + y
            if xn < 0.0 or yn < 0.0:
                xn, yn = _clamp(xn), _clamp(yn)
            if x <= near and y <= near or abs(x - sx) <= near and abs(y - sy) <= near:
                if abs(xn - x) < tol and abs(yn - y) < tol:
                    hit = None
                    for fx, fy, cls in fps:
                        if abs(x - fx) <= near and abs(y - fy) <= near:
                            hit = cls if hit is None else OmegaLimitClass.UNDETERMINED
                    return hit, k, x, y, trail
            x, y = xn, yn
        done += chunk
        if chunk == stride:
            trail.append(x)
            trail.append(y)
    return None, n, x, y, trail


def _orbit_columns(p: Params, z0: State, max_iter: int, tol: float, stride: int):
    """`iterate`'s run as (limit, steps used, n, x, y, phi, region codes).

    The last five are arrays with one entry per sample; the codes index
    tuple(RegionLabel).  One call of the scalar lane loop records the raw
    sampled points, and phi and the regions are computed once over them.
    Lane states are clamped to >= 0 or NaN, so a finite check of the columns
    does all of `State`'s validation: the first sample that fails it raises
    `State`'s own DomainError.
    """
    import numpy as np
    fps, near = _stopping_rule(p, tol, max_iter)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    hit, used, x, y, trail = _run_lane(p, z0.x, z0.y, max_iter, tol, fps, near,
                                       stride)
    flat = [z0.x, z0.y, *trail]
    if stride * (len(trail) // 2) != used:  # the final state was not sampled
        flat += [x, y]
    xy = np.array(flat).reshape(-1, 2)
    finite = np.isfinite(xy).all(axis=1)
    if not finite.all():
        State(*xy[finite.argmin()].tolist())  # raises
    n = np.arange(len(xy)) * stride
    n[-1] = used
    xs, ys = xy[:, 0], xy[:, 1]
    return (OmegaLimitClass.UNDETERMINED if hit is None else hit, used, n, xs, ys,
            p.mu * xs + p.beta * ys, _region_codes(omega_bounds(p), xs, ys))


def iterate(p: Params, z0: State, max_iter: int, tol: float,
            stride: int = 1) -> TrajectoryReport:
    """Iterate from z0 until convergence or budget exhaustion.

    Samples (n, state, phi, region) are recorded at n = 0, every stride-th
    committed step, and at the final state.  Convergence is declared when
    the next step would move less than tol (max norm) while the current
    state sits within NEAR_FACTOR*tol of a known fixed point; the
    classification follows that fixed point (UNDETERMINED when it is near
    both) and the probed step is not committed, so a start exactly on a
    fixed point reports 0 iterations.  All steps run in one call of the
    scalar lane loop that narrow `classify_batch` calls use; the samples
    are built from `_orbit_columns`.
    """
    limit, used, *columns = _orbit_columns(p, z0, max_iter, tol, stride)
    labels = tuple(RegionLabel)
    samples = tuple(TrajectorySample(n, State(x, y), phi, labels[c])
                    for n, x, y, phi, c in zip(*(a.tolist() for a in columns)))
    return TrajectoryReport(
        samples=samples,
        iterations_used=used,
        final=samples[-1].state,
        limit=limit,
        boundary_regime=beta_vs_threshold(p) == 0,
    )


def escape_probe(p: Params, z0: State, horizon: int) -> EscapeProbeReport:
    """Run a fixed horizon and report on the escape hypothesis.

    Requires the starting adult density above alpha/mu.  Reports whether it
    stayed above at every step, whether the final 10% of larvae samples is
    strictly increasing, and the final gap y - alpha/mu.  Steps go through
    `step_w0`, so an image that overflows raises DomainError.  The horizon
    must be at least 1, so that the tail holds two samples.
    """
    require_w0(p)
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    y_cap = p.alpha / p.mu
    if z0.y <= y_cap:
        raise DomainError(
            f"escape probe needs y0 > alpha/mu = {y_cap}, got y0 = {z0.y}"
        )
    z = z0
    xs = [z.x]
    stayed = True
    for _ in range(horizon):
        z = step_w0(p, z)
        stayed = stayed and (z.y > y_cap)
        xs.append(z.x)
    tail_len = max(2, math.ceil(0.1 * len(xs)))
    tail = xs[-tail_len:]
    increasing = all(a < b for a, b in zip(tail, tail[1:]))
    return EscapeProbeReport(
        y_stayed_above=stayed,
        x_monotone_increasing_tail=increasing,
        y_gap_final=z.y - y_cap,
        horizon=horizon,
    )


def classify_batch(p: Params, x0: np.ndarray, y0: np.ndarray, max_iter: int,
                   tol: float):
    """Vectorized limit classification; same stopping rule as `iterate`.

    Returns (codes, iterations, final_x, final_y) arrays (int8, int64,
    float64, float64) in the input's shape.  Batches of at most NARROW_LANES
    lanes run `iterate`'s scalar loop once per lane, because per-step numpy
    dispatch would cost more than the arithmetic; wider batches run one
    vector loop over all lanes until at most NARROW_LANES of them are left,
    and the scalar loop finishes those.  Both loops test nearness to a fixed
    point, then the step size.  Every lane gets the same bytes from either
    loop, so the output does not depend on the batch width.  Starts must be
    finite and nonnegative, as for `State`.
    """
    import numpy as np
    fps, near = _stopping_rule(p, tol, max_iter)
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"x0 and y0 differ in shape: {x.shape} vs {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("starts must be finite")
    if (x < 0.0).any() or (y < 0.0).any():
        raise DomainError("starts must be nonnegative")
    codes = np.full(x.shape, int(OmegaLimitClass.UNDETERMINED), dtype=np.int8)
    iters = np.full(x.shape, max_iter, dtype=np.int64)
    flat = (codes.reshape(-1), iters.reshape(-1), x.reshape(-1), y.reshape(-1))
    left, done = range(x.size), 0
    if x.size > NARROW_LANES:
        left, done = _classify_wide(p, max_iter, tol, fps, near, *flat)
    lane_codes, lane_iters, lane_x, lane_y = flat
    rest = max_iter - done
    for i in left:
        hit, used, lane_x[i], lane_y[i], _ = _run_lane(
            p, float(lane_x[i]), float(lane_y[i]), rest, tol, fps, near, rest)
        lane_iters[i] = done + used
        if hit is not None:
            lane_codes[i] = hit
    return codes, iters, x, y


def _classify_wide(p, max_iter, tol, fps, near, codes, iters, fx, fy):
    """The stopping rule over all lanes at once, in preallocated buffers.

    Like `_run_lane`, each step tests nearness to every fixed point first
    and runs the step-size test only when some lane is near one.  fx, fy hold
    the starts on entry.  A lane that stops is recorded at its own index,
    then set to NaN: NaN never moves less than tol, is never near a fixed
    point and is skipped by `_clamp_into`.  Once at most half of the width
    w is live, the live lanes move to the front of the buffers, `lane` maps
    each slot to its lane, and later steps run on ``[:w]`` views: no copy
    is wider than w/2, and at least half the lanes a step runs are live.  Once
    at most NARROW_LANES lanes are live, the loop writes their states to
    fx, fy and returns (their indices, steps taken) for the scalar loop to
    finish them.  When the budget runs out first, it writes the final
    states and returns no lanes.
    """
    import numpy as np
    n = fx.size
    x, y = fx.copy(), fy.copy()
    xn, yn, em, d, e = (np.empty(n) for _ in range(5))
    small, hit = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    near_fp = [np.empty(n, dtype=bool) for _ in fps]  # fps[0] is the origin
    lane, live, w = None, np.ones(n, dtype=bool), n  # no slot has moved yet

    def lanes(slots):
        return slots if lane is None else lane[slots]

    for it in range(max_iter):
        step_w0_into(p, x, y, xn, yn, em)
        _clamp_into(xn, yn)
        np.maximum(x, y, out=d)  # |x - 0| = x: lanes stay >= 0
        np.less_equal(d, near, out=near_fp[0])
        if len(fps) > 1:
            (sx, sy, _), mk = fps[1], near_fp[1]
            np.subtract(x, sx, out=d)
            np.abs(d, out=d)
            np.subtract(y, sy, out=e)
            np.abs(e, out=e)
            np.less_equal(d, near, out=mk)
            np.less_equal(e, near, out=small)
            np.logical_and(mk, small, out=mk)
        np.logical_or(near_fp[0], near_fp[-1], out=hit)
        if hit.any():
            np.subtract(xn, x, out=d)
            np.abs(d, out=d)
            np.subtract(yn, y, out=e)
            np.abs(e, out=e)
            np.maximum(d, e, out=d)
            np.less(d, tol, out=small)
            np.logical_and(hit, small, out=hit)
            if hit.any():
                stop = np.flatnonzero(hit)
                at = lanes(stop)
                for (_, _, cls), mk in zip(fps, near_fp):
                    codes[at[mk[stop]]] = int(cls)
                if len(near_fp) == 2:  # near both fixed points
                    both = near_fp[0][stop] & near_fp[1][stop]
                    codes[at[both]] = int(OmegaLimitClass.UNDETERMINED)
                iters[at], fx[at], fy[at] = it, x[stop], y[stop]
                live[stop] = False
                left = np.count_nonzero(live)
                if left <= max(w // 2, NARROW_LANES):
                    keep = np.flatnonzero(live)
                    if left <= NARROW_LANES:
                        at = lanes(keep)
                        fx[at], fy[at] = xn[keep], yn[keep]
                        return at.tolist(), it + 1
                    w, lane = left, lanes(keep)
                    for a in (xn, yn):
                        a[:w] = a[keep]
                    x, y, xn, yn, em, d, e, small, hit, live, *near_fp = (
                        a[:w] for a in (x, y, xn, yn, em, d, e, small, hit, live, *near_fp))
                    live[:] = True
                else:
                    xn[stop] = yn[stop] = np.nan
        x, xn = xn, x
        y, yn = yn, y
    fx[lanes(live)], fy[lanes(live)] = x[live], y[live]
    return [], max_iter


def basin_raster(p: Params, grid_n: int, max_iter: int, tol: float) -> BasinRaster:
    """Classify a grid_n x grid_n lattice of initial points over the rectangle.

    Row index follows y, column index follows x, both ascending from 0, so
    codes[i, j] is the limit class of the initial point (xs[j], ys[i]).
    Every code comes from an exact proof and no step runs, so max_iter is
    only validated.  The origin reads 0.  Where the positive fixed point
    exists, `order_sandwich` proves its attraction and every other code is
    1: every other lattice point is positive, or on an axis and positive
    within two steps, so its orbit converges to that fixed point.  These
    codes equal `classify_batch`'s wherever its rule reaches a true verdict;
    where the rule runs out of budget, stops near the repelling origin or
    stops near both fixed points, they hold the proven limit instead.
    Without a positive fixed point, where `settles_near_origin` proves that
    every orbit ends within the near radius of the origin, every code is 0.
    The rest is the threshold's band at a tol below its exact fixed point:
    there beta lies exactly above the threshold, so every other orbit
    converges to a fixed point that the float regime does not list and that
    lies at least the near radius from the origin.  No verdict but 3 is true
    of those cells.
    """
    import numpy as np
    require_w0(p)
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    fps, near = _stopping_rule(p, tol, max_iter)
    b = omega_bounds(p)
    if not (math.isfinite(b.x_max) and math.isfinite(b.y_max)):
        raise DomainError("starts must be finite")
    xs = np.linspace(0.0, b.x_max, grid_n)
    ys = np.linspace(0.0, b.y_max, grid_n)
    if len(fps) > 1 and order_sandwich(p) is not None:
        fill = OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
    elif len(fps) == 1 and settles_near_origin(p, near):
        fill = OmegaLimitClass.CONVERGED_TO_ORIGIN
    else:
        fill = OmegaLimitClass.UNDETERMINED
    codes = np.full((grid_n, grid_n), int(fill), dtype=np.int8)
    codes[0, 0] = int(OmegaLimitClass.CONVERGED_TO_ORIGIN)
    return BasinRaster(xs=xs, ys=ys, codes=codes)
