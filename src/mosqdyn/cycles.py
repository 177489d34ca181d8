"""Periodic-orbit exclusion: coefficient algebra, a theorem, a search oracle.

A period-2 point of the restricted map must satisfy W(W(z)) = z.  Summing
the two components of that system eliminates y linearly,

    y(x) = x*(d0*(2-d0)*(1+x) - alpha*(beta-mu+d0)) / ((1+x)*D),
    D    = beta*(2-mu-d0) - mu*(2-mu) > 0   for beta at or above the threshold,

and substituting back turns the remaining equation into the quartic

    x*(B1*x^3 + B2*x^2 + B3*x + B4) = 0

whose coefficients come from the A0..A4 block below.  x = 0 and x = x* are
always roots; deflating them leaves a quadratic whose coefficients also have
independent closed forms.  When those are all positive the quadratic has no
positive root, hence no period-2 point in the quadrant; positivity is
immediate when B0 = alpha*(beta-mu+d0)/(d0*(2-d0)) - 1 <= 0, and otherwise
follows after recentering the quadratic at B0 (y(x) >= 0 forces x >= B0).
Cooperativity then rules out every longer period as well.

Each certificate quantity is computed along two independent algebraic routes
that must agree to 1e-9 relative.  The cycle lists come from the order
sandwich's theorem (`brute_force_cycle_search`); a damped Newton search over
iterated maps (`_newton_cycles`, one vector path over all seeds) is the
tests' fully independent oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import Params, require_w0, step_w0_raw
from .equilibria import beta_vs_threshold, jacobian_entries, order_sandwich
from .errors import BranchError, CertificateFailure, RegimeError
from .geometry import omega_bounds

#: Two independent algebraic routes to the same coefficient must agree this well.
ROUTE_TOL = 1e-9

#: Newton roots closer than this (max norm) are the same point.
DEDUP_RADIUS = 1e-6

#: Default Newton residual tolerance, in units of max(1, |z|_inf).
RESIDUAL_TOL = 1e-10

_NEWTON_MAX_ITER = 100
_NEWTON_DAMPING = 0.5


class CertificateBranch(enum.Enum):
    B0_NON_POSITIVE = "b0_non_positive"
    B0_POSITIVE = "b0_positive"


@dataclass(frozen=True)
class CycleCoefficients:
    """The quartic's building blocks, all sharing the denominator d."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    b2: float
    b3: float
    b4: float
    b0: float
    d: float


@dataclass(frozen=True)
class CycleCertificate:
    """Positivity certificate: the deflated quadratic has no positive root."""

    branch: CertificateBranch
    b0: float
    coefficients: tuple[float, float, float]
    all_positive: bool
    inequality_checks: dict[str, bool]


@dataclass(frozen=True)
class Cycle:
    """A genuine periodic orbit found by search (none are expected)."""

    period: int
    states: tuple[tuple[float, float], ...]
    residual: float


def _x_star_value(p: Params) -> float:
    # Valid for beta >= threshold; evaluates to ~0 exactly on the threshold.
    return p.alpha * (p.beta - p.mu) / (p.mu * p.d0) - 1.0


def cycle_coefficients(p: Params) -> CycleCoefficients:
    """The A/B coefficient block of the period-2 quartic."""
    require_w0(p)
    if beta_vs_threshold(p) < 0:
        raise RegimeError(
            "cycle algebra needs beta at or above the threshold (D > 0)"
        )
    al, be, mu, d0 = p.alpha, p.beta, p.mu, p.d0
    d = be * (2.0 - mu - d0) - mu * (2.0 - mu)
    if d <= 0.0:
        # only on the degenerate corner mu = 1, alpha + d0 = 1, beta = threshold,
        # where the elimination is undefined and no certificate can be built
        raise CertificateFailure(f"quartic denominator must be positive, got D = {d}")
    a0 = 1.0 - d0 + be * d0 * (2.0 - d0) / d
    a1 = 1.0 - al - al * be * (be - mu + d0) / d
    a2 = -al * al * (1.0 + be * (be - mu + d0) / d)
    a3 = mu * (2.0 - mu) * d0 * (2.0 - d0) / d
    a4 = -(al * (1.0 - mu) + al * mu * (2.0 - mu) * (be - mu + d0) / d)
    b1 = a0 * a3
    b2 = 2.0 * a0 * a3 + a1 * a3 + a0 * a4 - al * a0
    b3 = a0 * a3 + a1 * a3 + a3 + a0 * a4 + a1 * a4 - 2.0 * al * a0 - a2
    b4 = a3 + a4 - al * a0 - a2
    b0 = al * (be - mu + d0) / (d0 * (2.0 - d0)) - 1.0
    return CycleCoefficients(a0, a1, a2, a3, a4, b1, b2, b3, b4, b0, d)


def two_cycle_y_of_x(p: Params, x: float) -> float:
    """Adult density forced by a period-2 larvae density x."""
    c = cycle_coefficients(p)
    num = x * (p.d0 * (2.0 - p.d0) * (1.0 + x) - p.alpha * (p.beta - p.mu + p.d0))
    return num / ((1.0 + x) * c.d)


def quartic_residual(p: Params, x: float) -> float:
    """Value of the period-2 quartic at x; zero at x = 0 and x = x*."""
    c = cycle_coefficients(p)
    return x * (((c.b1 * x + c.b2) * x + c.b3) * x + c.b4)


def _check_routes(kind: str, composed, closed):
    """The composed route, once it agrees with the closed one."""
    for a, b in zip(composed, closed):
        if abs(a - b) > ROUTE_TOL * max(1.0, abs(a), abs(b)):
            raise CertificateFailure(
                f"{kind} coefficient routes disagree: {a!r} vs {b!r}"
            )
    return composed


def _reduced_quadratic_routes(p: Params, c: CycleCoefficients):
    """Deflated quadratic two ways: composed from the quartic, and closed form."""
    al, be, mu, d0 = p.alpha, p.beta, p.mu, p.d0
    xs = _x_star_value(p)
    composed = (
        c.b1,
        c.b2 + c.b1 * xs,
        c.b3 + c.b2 * xs + c.b1 * xs * xs,
    )
    g = (2.0 - mu) * (2.0 - d0) - al * (2.0 + be - mu)
    closed = (
        c.a0 * c.a3,
        mu * d0 * (be - mu) * (2.0 - mu) * (2.0 - d0) * g / (c.d * c.d),
        mu * d0 * g / c.d,
    )
    return composed, closed


def reduced_quadratic(p: Params) -> tuple[float, float, float]:
    """Coefficients left after deflating x and (x - x*) from the quartic.

    Computed by direct composition and cross-checked against the closed
    forms before being returned.
    """
    routes = _reduced_quadratic_routes(p, cycle_coefficients(p))
    return _check_routes("reduced quadratic", *routes)


def _shifted_quadratic_routes(p: Params, c: CycleCoefficients):
    """Quadratic recentered at B0, by Taylor shift and by closed form."""
    al, be, mu, d0 = p.alpha, p.beta, p.mu, p.d0
    q2, q1, q0 = _check_routes("reduced quadratic", *_reduced_quadratic_routes(p, c))
    b0 = c.b0
    shifted = (
        q2,
        q1 + 2.0 * b0 * q2,
        (q2 * b0 + q1) * b0 + q0,
    )
    closed = (
        c.a0 * c.a3,
        b0 * c.b1
        + mu * (2.0 - mu)
        * (d0 * (2.0 - d0) + al * ((be - mu) * (1.0 - d0) - d0)) / c.d,
        (
            al * mu * (2.0 + be - mu) * (2.0 - d0) * (1.0 - mu) * d0 * d0
            + al * al * mu * (2.0 - mu)
            * ((be - mu) ** 2 * (1.0 - d0) - (be - mu + 1.0) * d0 * d0)
        ) / (d0 * (2.0 - d0) * c.d),
    )
    return shifted, closed


def shifted_quadratic(p: Params) -> tuple[float, float, float]:
    """Deflated quadratic evaluated in the variable x - B0; needs B0 > 0.

    The shift leaves the leading coefficient untouched; the other two are
    cross-checked against their closed forms.  All three are positive
    throughout the admissible regime, which is what the certificate asserts.
    """
    c = cycle_coefficients(p)
    if c.b0 <= 0.0:
        raise BranchError(f"shifted quadratic needs B0 > 0, got B0 = {c.b0}")
    return _check_routes("shifted quadratic", *_shifted_quadratic_routes(p, c))


def no_cycle_certificate(p: Params) -> CycleCertificate:
    """Certify that no period-2 point exists in the positive quadrant.

    Picks the branch on the sign of B0, records the implied inequalities of
    that branch, and demands strict positivity of all three quadratic
    coefficients.  Any nonpositive coefficient or failed implication raises
    CertificateFailure rather than returning a weakened verdict.
    """
    c = cycle_coefficients(p)
    al, be, mu, d0 = p.alpha, p.beta, p.mu, p.d0
    if c.b0 > 0.0:
        branch = CertificateBranch.B0_POSITIVE
        coeffs = _check_routes("shifted quadratic", *_shifted_quadratic_routes(p, c))
        checks = {
            "gap_times_survival_exceeds_d0": (be - mu) * (1.0 - d0) > d0,
            "squared_gap_inequality":
                (be - mu) ** 2 * (1.0 - d0) > (be - mu + 1.0) * d0 * d0,
        }
    else:
        branch = CertificateBranch.B0_NON_POSITIVE
        coeffs = _check_routes("reduced quadratic", *_reduced_quadratic_routes(p, c))
        checks = {
            "mixed_product_nonnegative":
                (2.0 - mu) * (2.0 - d0) - al * (2.0 + be - mu) >= 0.0,
        }
    if not all(checks.values()):
        raise CertificateFailure(
            f"implied inequality failed on branch {branch.value} for {p}: {checks}"
        )
    all_positive = all(v > 0.0 for v in coeffs)
    if not all_positive:
        raise CertificateFailure(
            f"nonpositive quadratic coefficient on branch {branch.value} "
            f"for {p}: {coeffs}"
        )
    return CycleCertificate(branch=branch, b0=c.b0, coefficients=coeffs,
                            all_positive=True, inequality_checks=checks)


def _orbit(p: Params, x, y, period: int):
    """period steps of the raw map."""
    for _ in range(period):
        x, y = step_w0_raw(p, x, y)
    return x, y


def _orbit_jacobian(p: Params, x, y, period: int):
    """period steps of the raw map, plus the chain-rule Jacobian of the orbit."""
    t11, t12, t21, t22 = 1.0, 0.0, 0.0, 1.0
    for _ in range(period):
        j11, j12, j21, j22 = jacobian_entries(p, x)
        t11, t12, t21, t22 = (j11 * t11 + j12 * t21, j11 * t12 + j12 * t22,
                              j21 * t11 + j22 * t21, j21 * t12 + j22 * t22)
        x, y = step_w0_raw(p, x, y)
    return x, y, (t11, t12, t21, t22)


def _newton_cycle_batch(p: Params, x0, y0, period: int, tol: float):
    """Damped Newton on W^period(z) - z from an array of seeds.

    Every unconverged seed tries the full step; one whose residual it does
    not keep at or below the current one (NaN included) takes the half step
    instead.  Seeds that wander toward the x = -1 singularity, blow up, or
    hit a singular linearization are dropped; survivors are returned with
    their final residuals.  The passes run over all seeds at once, without
    compaction: a converged or dropped seed keeps being stepped in place.
    """
    import numpy as np
    x, y = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    alive = np.isfinite(x) & np.isfinite(y)
    for it in range(_NEWTON_MAX_ITER + 1):
        px, py, (t11, t12, t21, t22) = _orbit_jacobian(p, x, y, period)
        fx, fy = px - x, py - y
        res = np.maximum(np.abs(fx), np.abs(fy))
        scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        converged = res < tol * scale
        active = alive & ~converged
        if it == _NEWTON_MAX_ITER or not active.any():
            break
        a11, a12, a21, a22 = t11 - 1.0, t12, t21, t22 - 1.0
        det = a11 * a22 - a12 * a21
        singular = active & (np.abs(det) < 1e-300)
        alive &= ~singular
        active &= ~singular
        safe_det = np.where(det == 0.0, 1.0, det)
        dx = (a22 * fx - a12 * fy) / safe_det
        dy = (a11 * fy - a21 * fx) / safe_det
        nx = np.where(active, x - dx, x)
        ny = np.where(active, y - dy, y)
        tx, ty = _orbit(p, nx, ny, period)
        with np.errstate(invalid="ignore"):
            grew = active & ~(np.maximum(np.abs(tx - nx), np.abs(ty - ny)) <= res)
        x = np.where(grew, x - _NEWTON_DAMPING * dx, nx)
        y = np.where(grew, y - _NEWTON_DAMPING * dy, ny)
        bad = alive & (~np.isfinite(x) | ~np.isfinite(y)
                       | (1.0 + x < 1e-9) | (np.abs(x) > 1e9) | (np.abs(y) > 1e9))
        alive &= ~bad
    ok = alive & converged
    return x[ok], y[ok], res[ok]


def _canonical_rotation(pts):
    k = min(range(len(pts)), key=lambda i: pts[i])
    return tuple(pts[k:] + pts[:k])


def _check_search(p: Params, period: int, grid_n: int, tol: float) -> None:
    """The argument checks of `brute_force_cycle_search` and `_newton_cycles`."""
    require_w0(p)
    if period not in (2, 3, 4):
        raise ValueError(f"period must be 2, 3, or 4, got {period}")
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
    if not 0.0 < tol < math.inf:  # NaN, 0 or inf would vacuously answer "none"
        raise ValueError(f"tol must be positive and finite, got {tol}")


def brute_force_cycle_search(p: Params, period: int, grid_n: int,
                             tol: float = RESIDUAL_TOL) -> list[Cycle]:
    """Period-p cycles in the closed quadrant: none, by a theorem, so [].

    The map is cooperative there (H. L. Smith, Monotone Dynamical Systems,
    AMS 1995).  Above the exact threshold `equilibria.order_sandwich`, and at
    or below it the lo = 0 sandwich of `equilibria.settles_near_origin`,
    send every orbit to a fixed point, so no periodic point is anything else
    and no seed or step is needed for any tuple `require_w0` admits.  The
    Newton search this list came from, `_newton_cycles`, is the tests'
    second route; its -1e-9 quadrant slack only admitted rounded quadrant
    points.  The arguments are checked as there.
    """
    _check_search(p, period, grid_n, tol)
    return []


def _newton_cycles(p: Params, period: int, grid_n: int,
                   tol: float = RESIDUAL_TOL) -> list[Cycle]:
    """Hunt genuine period-p orbits by Newton from a grid over the rectangle.

    Each converged root is stepped period - 1 times, all roots at once, and
    dropped by any of four rules: an orbit point leaves the closed positive
    quadrant (below -1e-9, or NaN); an orbit point lies within DEDUP_RADIUS
    (max norm) of a known fixed point; two orbit points lie within
    DEDUP_RADIUS, so the minimal period is shorter; beta is at or below the
    threshold, decided exactly by `order_sandwich`, and an orbit point has
    x > 0.  There phi = mu*x + beta*y changes by x*((beta - mu)*alpha/(1 + x)
    - mu*d0) < 0 in every step from x > 0, the changes sum to 0 over a
    cycle, so the origin is the only periodic point.  (`beta_vs_threshold`'s
    relative band would also admit tuples just above the threshold, where
    phi rises for x < x*.)  Only the survivors, in root order, are
    rotated to a canonical start and deduplicated (DEDUP_RADIUS, up to
    orbit rotation).  Above the threshold the residual test still accepts
    artifacts, e.g. a hair above the corner mu = 1, alpha + d0 = 1.
    """
    _check_search(p, period, grid_n, tol)
    import numpy as np
    b = omega_bounds(p)
    gx = np.linspace(0.0, b.x_max, grid_n)
    gy = np.linspace(0.0, b.y_max, grid_n)
    seeds_x, seeds_y = (a.ravel() for a in np.meshgrid(gx, gy))
    roots_x, roots_y, residuals = _newton_cycle_batch(p, seeds_x, seeds_y, period, tol)

    fixed = [(0.0, 0.0)]
    if b.x_star is not None:
        fixed.append((b.x_star, b.y_star))

    # orbit point k of root r is (xs[k, r], ys[k, r])
    xs, ys = np.empty((2, period, roots_x.size))
    xs[0], ys[0] = roots_x, roots_y
    for k in range(1, period):
        xs[k], ys[k] = step_w0_raw(p, xs[k - 1], ys[k - 1])
    keep = ((xs >= -1e-9) & (ys >= -1e-9)).all(axis=0)
    i, j = np.triu_indices(period, 1)
    gaps = [(xs - fx, ys - fy) for fx, fy in fixed]  # fixed-point collapse
    gaps.append((xs[i] - xs[j], ys[i] - ys[j]))  # shorter minimal period
    for dx, dy in gaps:
        keep &= ~(np.maximum(np.abs(dx), np.abs(dy)) < DEDUP_RADIUS).any(axis=0)
    if order_sandwich(p) is None:
        keep &= ~(xs > 0.0).any(axis=0)

    cycles: list[Cycle] = []
    for r in np.flatnonzero(keep):
        canon = _canonical_rotation(list(zip(xs[:, r].tolist(), ys[:, r].tolist())))
        if any(
            all(
                max(abs(a[0] - b_[0]), abs(a[1] - b_[1])) < DEDUP_RADIUS
                for a, b_ in zip(canon, c.states)
            )
            for c in cycles
        ):
            continue  # duplicate of an already recorded orbit
        cycles.append(Cycle(period=period, states=canon, residual=float(residuals[r])))
    cycles.sort(key=lambda c: c.states)
    return cycles
