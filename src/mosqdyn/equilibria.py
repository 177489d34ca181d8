"""Fixed points of the restricted map: location, linearization, type.

The origin is fixed for every admissible parameter set.  A second, positive
fixed point

    x* = alpha*(beta - mu)/(mu*d0) - 1,
    y* = (alpha*(beta - mu) - mu*d0)/(mu*(beta - mu)),

exists exactly when beta exceeds the persistence threshold mu*(1 + d0/alpha).
Types follow the eigenvalue moduli of the 2x2 Jacobian

    [[1 - d0 - alpha/(1+x)^2,  beta],
     [alpha/(1+x)^2,           1 - mu]],

whose entries are all nonnegative in the restricted regime (the map is
cooperative).  The origin's type is also available without an eigensolve,
from comparing beta against the threshold and against

    threshold + alpha_star,   alpha_star = (4 - 2*(alpha + mu + d0))/alpha,

which are precisely the beta values where an eigenvalue crosses +1 and -1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import Params, State, require_w0, step_w0
from .errors import DomainError, NotAFixedPointError

#: Eigenvalue-modulus band around 1 inside which a fixed point is declared
#: non-hyperbolic; also used as the closed-form equality band on beta.
TOL_HYP = 1e-9

#: Relative band under which beta is treated as sitting exactly on a regime
#: boundary (beta = threshold, beta = threshold + alpha_star).
BOUNDARY_REL_TOL = 1e-12

#: Max-norm residual allowed before a point may be classified as fixed.
FIXED_POINT_TOL = 1e-9


class FixedPointClass(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class RegimeQuantities:
    """Threshold data and, when present, the positive fixed point."""

    threshold: float
    alpha_star: float
    x_star: float | None
    y_star: float | None


@dataclass(frozen=True)
class FixedPointInfo:
    state: State
    jacobian: tuple[float, float, float, float]
    eigenvalues: tuple[complex, complex]
    classification: FixedPointClass


@dataclass(frozen=True)
class EquilibriumReport:
    """All fixed points with their linearizations, plus the regime block."""

    regime: RegimeQuantities
    fixed_points: tuple[FixedPointInfo, ...]


def beta_vs_threshold(p: Params) -> int:
    """-1, 0, +1 for beta below / on / above the persistence threshold.

    Equality uses the band |beta - t| <= BOUNDARY_REL_TOL*max(|beta|, |t|),
    relative at every scale: exact-equality semantics do not survive
    floating point.
    """
    t = p.mu * (1.0 + p.d0 / p.alpha)
    if abs(p.beta - t) <= BOUNDARY_REL_TOL * max(abs(p.beta), abs(t)):
        return 0
    return 1 if p.beta > t else -1


def regime_quantities(p: Params) -> RegimeQuantities:
    """Threshold, eigenvalue-crossing shift, and the positive fixed point.

    x*/y* are filled only when beta lies strictly above the threshold; they
    then satisfy step_w0(p, (x*, y*)) = (x*, y*) to within 1e-12 per
    coordinate.  Raises DomainError when mu*d0 or mu*(beta - mu), their
    denominators, underflows to 0 (tiny admissible rates).
    """
    require_w0(p)
    threshold = p.mu * (1.0 + p.d0 / p.alpha)
    alpha_star = (4.0 - 2.0 * (p.alpha + p.mu + p.d0)) / p.alpha
    x_star = y_star = None
    if beta_vs_threshold(p) > 0:
        # threshold > mu because d0 > 0, so the y* denominator cannot vanish
        assert p.beta > p.mu
        den_x, den_y = p.mu * p.d0, p.mu * (p.beta - p.mu)
        if den_x == 0.0 or den_y == 0.0:
            raise DomainError(f"x*, y* are not representable: mu*d0 = {den_x} and "
                              f"mu*(beta - mu) = {den_y} must not underflow to 0")
        x_star = p.alpha * (p.beta - p.mu) / den_x - 1.0
        y_star = (p.alpha * (p.beta - p.mu) - den_x) / den_y
    return RegimeQuantities(threshold, alpha_star, x_star, y_star)


def order_sandwich(p: Params):
    """(eps0, v, hi) in exact `Fraction`s when beta > mu*(1 + d0/alpha), else None.

    The comparison is exact on the float constants.  The restricted map F
    is cooperative (see `jacobian`), and with v = (1, (alpha + d0)/beta)
    every lo = eps*v for 0 < eps <= eps0 = beta/t - 1, t the threshold,
    has F(lo) >= lo:

        x' - eps = alpha*eps^2/(1 + eps),
        y' - eps*v2 = eps*(alpha/(1 + eps) - mu*(alpha + d0)/beta).

    hi = (beta*Y/d0, Y) with Y = alpha/mu has F(hi) <= hi, and so has the
    hi of every larger Y.  So F^n(lo) rises and F^n(hi) falls to the one
    positive fixed point between them.  Every start with x > 0 and y > 0
    lies in some [lo, hi], so its orbit converges to that point too (H. L.
    Smith, Monotone Dynamical Systems, AMS 1995); a start on an axis other
    than the origin has x > 0 and y > 0 within two steps.
    """
    require_w0(p)
    # Imported here: at module level it would add about 3 ms and 0.3 MB to
    # the start-up of every command.
    from fractions import Fraction

    alpha, beta, mu, d0 = map(Fraction, (p.alpha, p.beta, p.mu, p.d0))
    t = mu * (1 + d0 / alpha)
    if beta <= t:
        return None
    y = alpha / mu
    return beta / t - 1, (Fraction(1), (alpha + d0) / beta), (beta * y / d0, y)


def settles_near_origin(p: Params, near: float) -> bool:
    """True when every orbit provably ends with max(x, y) < near, in `Fraction`s.

    If beta <= t, the threshold, the origin is the only fixed point, and
    every hi = (beta*Y/d0, Y) with Y >= alpha/mu has F(hi) <= hi: x' - x =
    -alpha*x/(1 + x) and y' - Y <= alpha - mu*Y.  Every start lies below
    some hi, so its orbit lies between 0 and the falling F^n(hi), which
    converges to the origin.  If beta > t, every orbit but the origin's
    converges to the positive fixed point (`order_sandwich`), so it must
    have max(x*, y*) < near.
    """
    require_w0(p)
    from fractions import Fraction

    alpha, beta, mu, d0 = map(Fraction, (p.alpha, p.beta, p.mu, p.d0))
    if beta <= mu * (1 + d0 / alpha):
        return True
    x_star = alpha * (beta - mu) / (mu * d0) - 1
    y_star = (alpha * (beta - mu) - mu * d0) / (mu * (beta - mu))
    return max(x_star, y_star) < near


def jacobian_entries(p: Params, x):
    """Row-major Jacobian entries at larvae density x (scalar or array)."""
    s = (1.0 + x) * (1.0 + x)
    return 1.0 - p.d0 - p.alpha / s, p.beta, p.alpha / s, 1.0 - p.mu


def jacobian(p: Params, z: State) -> tuple[float, float, float, float]:
    """Jacobian of the restricted map at z, row-major.

    All four entries are nonnegative whenever alpha + d0 <= 1, and the
    off-diagonal ones are strictly positive: the map is cooperative.
    """
    require_w0(p)
    return jacobian_entries(p, z.x)


def eigenvalues_2x2(m) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix given as four row-major reals.

    Roots of lam^2 - tr*lam + det via the sign-aware quadratic formula (the
    larger-magnitude root is formed without cancellation, the other from
    det/lam1), so |lam1*lam2| matches |det| to ~1e-10 relative.  Ordered by
    descending modulus, then descending real part, then descending imaginary
    part.
    """
    a11, a12, a21, a22 = (float(v) for v in m)
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        root = disc ** 0.5
        lam1 = 0.5 * (tr + root) if tr >= 0.0 else 0.5 * (tr - root)
        lam2 = det / lam1 if lam1 != 0.0 else tr - lam1
        pair = (complex(lam1), complex(lam2))
    else:
        re = 0.5 * tr
        im = 0.5 * (-disc) ** 0.5
        pair = (complex(re, im), complex(re, -im))
    return tuple(
        sorted(pair, key=lambda lam: (-abs(lam), -lam.real, -lam.imag))
    )


def _classify_eigenvalues(eigs: tuple[complex, complex]) -> FixedPointClass:
    moduli = [abs(lam) for lam in eigs]
    if any(abs(m - 1.0) <= TOL_HYP for m in moduli):
        return FixedPointClass.NON_HYPERBOLIC
    if all(m < 1.0 for m in moduli):
        return FixedPointClass.ATTRACTING
    if all(m > 1.0 for m in moduli):
        return FixedPointClass.REPELLING
    return FixedPointClass.SADDLE


def classify_fixed_point(p: Params, z: State) -> FixedPointClass:
    """Eigenvalue-based type of a fixed point z.

    z must actually be fixed: the step residual is checked in max norm
    before any classification happens.
    """
    image = step_w0(p, z)
    residual = max(abs(image.x - z.x), abs(image.y - z.y))
    if residual > FIXED_POINT_TOL:
        raise NotAFixedPointError(
            f"({z.x}, {z.y}) moves by {residual:.3e} under one step; not a fixed point"
        )
    return _classify_eigenvalues(eigenvalues_2x2(jacobian(p, z)))


def classify_origin_regime(p: Params) -> FixedPointClass:
    """Origin type from the closed-form beta table alone; no eigensolve.

    beta below the threshold gives attracting, between threshold and
    threshold + alpha_star a saddle, above that repelling; both equalities
    (bands of width TOL_HYP) give non-hyperbolic.
    """
    require_w0(p)
    rq = regime_quantities(p)
    upper = rq.threshold + rq.alpha_star
    if abs(p.beta - rq.threshold) <= TOL_HYP or abs(p.beta - upper) <= TOL_HYP:
        return FixedPointClass.NON_HYPERBOLIC
    if p.beta < rq.threshold:
        return FixedPointClass.ATTRACTING
    if p.beta < upper:
        return FixedPointClass.SADDLE
    return FixedPointClass.REPELLING


def _origin_on_boundary(p: Params, rq: RegimeQuantities) -> bool:
    upper = rq.threshold + rq.alpha_star
    scale = max(1.0, abs(p.beta))
    return (
        abs(p.beta - rq.threshold) <= BOUNDARY_REL_TOL * scale
        or abs(p.beta - upper) <= BOUNDARY_REL_TOL * scale
    )


def equilibrium_report(p: Params) -> EquilibriumReport:
    """Every fixed point with Jacobian, eigenvalues, and classification.

    At the two closed-form beta boundaries the origin is reported
    non-hyperbolic outright; that detection takes precedence over the
    eigensolve, whose moduli sit within rounding of 1 there.
    """
    require_w0(p)
    rq = regime_quantities(p)
    states = [State(0.0, 0.0)]
    if rq.x_star is not None:
        states.append(State(rq.x_star, rq.y_star))
    points = []
    for i, z in enumerate(states):
        jac = jacobian(p, z)
        eigs = eigenvalues_2x2(jac)
        cls = (FixedPointClass.NON_HYPERBOLIC if i == 0 and _origin_on_boundary(p, rq)
               else _classify_eigenvalues(eigs))
        points.append(FixedPointInfo(z, jac, eigs, cls))
    return EquilibriumReport(rq, tuple(points))
