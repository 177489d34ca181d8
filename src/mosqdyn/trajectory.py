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
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _sampling
from .core import (
    NARROW_LANES,
    Params,
    State,
    _clamp,
    _clamp_into,
    require_w0,
    step_w0,
    step_w0_into,
)
from .equilibria import beta_vs_threshold, regime_quantities
from .errors import DomainError
from .geometry import RegionLabel, _region_codes, omega_bounds

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
              stride: int, box=None):
    """At most n steps of one orbit under the stopping rule of `iterate`.

    Returns (limit, steps committed, x, y, trail); limit is None when all n
    steps were committed without a stop, and the flat list trail holds
    x, y after every stride-th committed step.  The step is `step_w0_raw`
    written out, in its exact operation order, so that a step makes no
    call; `test_trajectory.TestReferenceLaneLoop` pins it to the loop that
    calls `step_w0_raw`.  Lanes stay >= 0, so the near test of the origin
    is two comparisons, and it runs before the step-size test because a
    lane is far from every fixed point on most steps.  A `_contraction_box`
    box takes the place of the positive fixed point's near square, and a
    lane inside it stops at once, without the step-size test.
    """
    alpha, beta, mu, d0 = p.alpha, p.beta, p.mu, p.d0
    # Without a positive fixed point its near test can never pass.
    sx, sy = fps[1][:2] if len(fps) > 1 else (math.inf, math.inf)
    rx, ry = box or (near, near)
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
            if x <= near and y <= near or abs(x - sx) <= rx and abs(y - sy) <= ry:
                if box and (x > near or y > near):  # in the box, off the origin's square
                    return OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT, k, x, y, trail
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
    return _classify(p, x0, y0, max_iter, tol, None)


def _classify(p: Params, x0, y0, max_iter: int, tol: float, box):
    """`classify_batch`, with lanes inside a `_contraction_box` box stopping."""
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
        left, done = _classify_wide(p, max_iter, tol, fps, near, box, *flat)
    lane_codes, lane_iters, lane_x, lane_y = flat
    rest = max_iter - done
    for i in left:
        hit, used, lane_x[i], lane_y[i], _ = _run_lane(
            p, float(lane_x[i]), float(lane_y[i]), rest, tol, fps, near, rest, box)
        lane_iters[i] = done + used
        if hit is not None:
            lane_codes[i] = hit
    return codes, iters, x, y


def _classify_wide(p, max_iter, tol, fps, near, box, codes, iters, fx, fy):
    """The stopping rule over all lanes at once, allocating nothing per step.

    Like `_run_lane`, each step tests nearness to every fixed point first
    and runs the step-size test only when some lane is near one; with a
    `_contraction_box` box, a lane inside it stops at once.  fx, fy hold
    the starts on entry.  A lane that stops is recorded, then set to NaN:
    NaN never moves less than tol, is never near a fixed point and is
    skipped by `_clamp_into`, so stopped lanes drop out of every per-step
    test without compaction.  Once at most NARROW_LANES lanes are live, the
    loop stops, writes their states to fx, fy and returns (their indices,
    steps taken), so that the scalar loop finishes them; the few slow lanes
    of a basin then do not drag every stopped lane through each step.  When
    the budget runs out first, it writes the final states and returns no
    lanes.
    """
    n = fx.size
    x, y = fx.copy(), fy.copy()
    xn, yn, em, d, e = (np.empty(n) for _ in range(5))
    small, hit = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    near_fp = [np.empty(n, dtype=bool) for _ in fps]  # fps[0] is the origin
    rx, ry = box or (near, near)
    live = np.ones(n, dtype=bool)
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
            np.less_equal(d, rx, out=mk)
            np.less_equal(e, ry, out=small)
            np.logical_and(mk, small, out=mk)
        np.logical_or(near_fp[0], near_fp[-1], out=hit)
        if hit.any():
            # lanes in the box stop at once, the others when the step is small
            if not box or near_fp[0].any():
                np.subtract(xn, x, out=d)
                np.abs(d, out=d)
                np.subtract(yn, y, out=e)
                np.abs(e, out=e)
                np.maximum(d, e, out=d)
                np.less(d, tol, out=small)
                if box:
                    np.logical_or(small, near_fp[1], out=small)
                np.logical_and(hit, small, out=hit)
            if hit.any():
                for (_, _, cls), mk in zip(fps, near_fp):
                    np.logical_and(mk, hit, out=mk)
                    np.copyto(codes, int(cls), where=mk)
                if len(near_fp) == 2:
                    np.logical_and(*near_fp, out=small)  # near both fixed points
                    np.copyto(codes, int(OmegaLimitClass.UNDETERMINED), where=small)
                np.copyto(iters, it, where=hit)
                np.copyto(fx, x, where=hit)
                np.copyto(fy, y, where=hit)
                np.copyto(live, False, where=hit)
                if np.count_nonzero(live) <= NARROW_LANES:
                    left = np.flatnonzero(live)
                    fx[left], fy[left] = xn[left], yn[left]
                    return left.tolist(), it + 1
                np.copyto(xn, np.nan, where=hit)
                np.copyto(yn, np.nan, where=hit)
        x, xn = xn, x
        y, yn = yn, y
    np.copyto(fx, x, where=live)
    np.copyto(fy, y, where=live)
    return [], max_iter


def _contraction_box(p: Params, fps, near: float):
    """Membership radii (rx, ry) of a certified contraction box, or None.

    On the restricted regime the map W sends the quadrant Q into itself,
    and on B ∩ Q, for a box B = c ± R, its Jacobian is bounded entrywise in
    modulus by M = [[max|1 - d0 - alpha/(1+x)^2|, beta],
    [alpha/(1+x_lo)^2, 1 - mu]], the max taken over the box's x range.
    With c the float positive fixed point, M·R + |W(c) - c| < R
    componentwise makes W map B ∩ Q into itself and contract it in the norm
    max(|x|/Rx, |y|/Ry), so the true fixed point is the only one in B ∩ Q
    and every orbit that enters B ∩ Q converges to it.  The check runs in
    outward-rounded arithmetic (`_interval`).  R points along the Perron
    vector of M, which depends on Rx alone; Rx is halved from x* until the
    check passes, then bisected to the largest value found.

    rx and ry sit one ulp below R, so a float lane that passes
    ``abs(x - c_x) <= rx and abs(y - c_y) <= ry`` in floats lies in B:
    rounding is monotone and fixes floats, so the computed |x - c_x| < Rx
    only where the exact one is.  B also contains the near square of c and
    misses the origin's, so no lane is near both.  None when there is no
    positive fixed point (fps holds only the origin) or no box passes; the
    function never raises.
    """
    if len(fps) < 2:
        return None
    from . import _interval as iv  # here: no other command pays for the import

    cx, cy = fps[1][:2]
    one, alpha, beta, d0 = (1.0, 1.0), (p.alpha,) * 2, (p.beta,) * 2, (p.d0,) * 2
    m22 = iv.sub(one, (p.mu,) * 2)
    X, Y = (cx, cx), (cy, cy)
    em = iv.div(iv.mul(alpha, X), iv.add(one, X))
    wx = iv.add(iv.sub(iv.sub(iv.mul(beta, Y), em), iv.mul(d0, X)), X)
    wy = iv.add(iv.sub(em, iv.mul((p.mu,) * 2, Y)), Y)
    dx, dy = (iv.mag(iv.sub(wx, X)),) * 2, (iv.mag(iv.sub(wy, Y)),) * 2

    def radii(rx: float):
        """(rx, ry) if the box of x half-width rx passes, else None."""
        x1 = iv.add(one, (max(0.0, iv.down(cx - rx)), iv.up(cx + rx)))  # 1 + x on B ∩ Q
        m21 = iv.div(alpha, iv.mul(x1, x1))
        m11 = iv.mag(iv.sub(iv.sub(one, d0), m21))
        h = 0.5 * (m11 - m22[1])
        s = math.sqrt(h * h + p.beta * m21[1])  # NaN, not an error, on NaN
        v1, v2 = (s + h, m21[1]) if h >= 0.0 else (p.beta, s - h)  # Perron vector
        if not v1 > 0.0:
            return None
        ry = rx * (v2 / v1)
        if not (iv.down(rx) >= near and iv.down(ry) >= near
                and (iv.down(cx - rx) > near or iv.down(cy - ry) > near)):
            return None
        R = (rx, rx), (ry, ry)
        ux = iv.add(iv.add(iv.mul((m11, m11), R[0]), iv.mul(beta, R[1])), dx)
        uy = iv.add(iv.add(iv.mul(m21, R[0]), iv.mul(m22, R[1])), dy)
        return (rx, ry) if ux[1] < rx and uy[1] < ry else None

    rx = cx
    for _ in range(64):
        if radii(rx):
            break
        rx *= 0.5
    else:
        return None
    lo, hi = rx, 2.0 * rx
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radii(mid) else (lo, mid)
    rx, ry = radii(lo)
    return iv.down(rx), iv.down(ry)


def _basin_rows(p: Params, xs, ys, max_iter: int, tol: float, box, row_a: int,
                row_b: int):
    """Codes of lattice rows row_a..row_b-1 (module-level, so it pickles)."""
    gx, gy = np.meshgrid(xs, ys[row_a:row_b])
    got, _, _, _ = _classify(p, gx.ravel(), gy.ravel(), max_iter, tol, box)
    return got.reshape(row_b - row_a, len(xs))


def basin_raster(p: Params, grid_n: int, max_iter: int, tol: float) -> BasinRaster:
    """Classify a grid_n x grid_n lattice of initial points over the rectangle.

    Row index follows y, column index follows x, both ascending from 0, so
    codes[i, j] is the limit class of the initial point (xs[j], ys[i]).
    Above the threshold, a lane that enters the `_contraction_box` built
    once per call stops there with code 1, which every orbit inside the box
    earns; elsewhere, and where no box is certified, `classify_batch`'s rule
    decides.  So the codes equal that rule's wherever it decides a lane
    within max_iter, and a lane whose budget runs out inside the box gets 1,
    not 3.  Rows are cut into deterministic pieces, at most MOSQDYN_THREADS
    of them (no other work reads it); `map_chunks` runs each piece in its
    own process, narrow scalar-loop pieces and wide vector-loop pieces
    alike, and the blocks are stacked in row order.  The codes are the same
    bytes for every piece width and worker count.
    """
    require_w0(p)
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    fps, near = _stopping_rule(p, tol, max_iter)
    b = omega_bounds(p)
    xs = np.linspace(0.0, b.x_max, grid_n)
    ys = np.linspace(0.0, b.y_max, grid_n)
    box = _contraction_box(p, fps, near)
    work = functools.partial(_basin_rows, p, xs, ys, max_iter, tol, box)
    codes = np.concatenate(_sampling.map_chunks(work, grid_n))  # rows in order
    return BasinRaster(xs=xs, ys=ys, codes=codes)
