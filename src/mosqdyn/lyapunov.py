"""The linear Lyapunov functional and its one-step increment.

phi(x, y) = mu*x + beta*y is monotone along orbits of the restricted map:
its one-step increment collapses to a function of x alone,

    phi(W(z)) - phi(z) = (beta - mu)*alpha*x/(1+x) - d0*mu*x
                       = (d0*mu*x/(1+x)) * (x* - x)      (beta above threshold)
                       = -d0*mu*x^2/(1+x)                (beta at threshold),

so phi never decreases on Omega1 (where x <= x*), never increases on
Omega2 (x >= x*), and at the threshold never increases anywhere on Omega.
Both closed forms are exposed next to the direct difference so each can
check the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _sampling
from .core import Params, State, require_w0, step_w0
from .equilibria import beta_vs_threshold, regime_quantities
from .errors import RegimeError
from .geometry import RegionLabel, _sampled_images, region_of

#: Slack allowed when asserting the sign of an increment.
SIGN_TOL = 1e-12


@dataclass(frozen=True)
class LyapunovSample:
    z: State
    phi: float
    delta_closed: float
    delta_direct: float
    region: RegionLabel


@dataclass(frozen=True)
class RegionMonotonicity:
    """Sampled sign check of the increment over one region."""

    region: RegionLabel
    claim: str  # "nondecreasing" or "nonincreasing"
    n_samples: int
    n_violations: int
    worst_delta: float | None
    worst_point: tuple[float, float] | None


@dataclass(frozen=True)
class MonotonicityReport:
    n_samples: int
    seed: int
    regions: tuple[RegionMonotonicity, ...]

    @property
    def total_violations(self) -> int:
        return sum(r.n_violations for r in self.regions)


def phi(p: Params, z: State) -> float:
    """mu*x + beta*y; nonnegative on the quadrant, zero only at the origin."""
    require_w0(p)
    return p.mu * z.x + p.beta * z.y


def delta_phi_direct(p: Params, z: State) -> float:
    """phi after one step minus phi now; the empirical route."""
    return phi(p, step_w0(p, z)) - phi(p, z)


def delta_phi_closed(p: Params, z: State) -> float:
    """One-step increment of phi in closed form; never reads y.

    Dispatches on beta against the threshold (relative band 1e-12): the
    factored form above it, the pure-decay form on it, and the raw algebraic
    identity below it, where x* would be negative and the factored form is
    meaningless but the identity still holds.
    """
    require_w0(p)
    x = z.x
    rel = beta_vs_threshold(p)
    if rel > 0:
        x_star = regime_quantities(p).x_star
        return (p.d0 * p.mu * x / (1.0 + x)) * (x_star - x)
    if rel == 0:
        return -(p.d0 * p.mu * x * x / (1.0 + x))
    return (p.beta - p.mu) * p.alpha * x / (1.0 + x) - p.d0 * p.mu * x


def lyapunov_sample(p: Params, z: State) -> LyapunovSample:
    """Bundle phi, both increment routes, and the region label at z."""
    return LyapunovSample(
        z=z,
        phi=phi(p, z),
        delta_closed=delta_phi_closed(p, z),
        delta_direct=delta_phi_direct(p, z),
        region=region_of(p, z),
    )


def monotonicity_report(p: Params, n_samples: int, seed: int) -> MonotonicityReport:
    """Sampled verification of the increment's sign pattern.

    Above the threshold the claims are: nondecreasing on Omega1 and
    nonincreasing on Omega2.  At the threshold: nonincreasing on all of
    Omega.  Violations are judged on the direct difference (the actual map),
    with SIGN_TOL slack; the worst margin and its sample point are reported
    whether or not anything violated.
    """
    require_w0(p)
    rel = beta_vs_threshold(p)
    if rel < 0:
        raise RegimeError(
            "monotonicity claims need beta at or above the threshold"
        )
    if rel == 0:
        plan = [(RegionLabel.OMEGA_ONLY, "nonincreasing")]
    else:
        plan = [
            (RegionLabel.OMEGA1, "nondecreasing"),
            (RegionLabel.OMEGA2, "nonincreasing"),
        ]
    entries = []
    for region, claim in plan:
        xs, ys, xp, yp = _sampled_images(p, region, n_samples, seed,
                                         _sampling.STREAM_MONOTONICITY)
        if n_samples == 0:
            entries.append(RegionMonotonicity(region, claim, 0, 0, None, None))
            continue
        delta = (p.mu * xp + p.beta * yp) - (p.mu * xs + p.beta * ys)
        if claim == "nondecreasing":
            bad = delta < -SIGN_TOL
            worst_i = int(np.argmin(delta))
        else:
            bad = delta > SIGN_TOL
            worst_i = int(np.argmax(delta))
        entries.append(RegionMonotonicity(
            region=region,
            claim=claim,
            n_samples=n_samples,
            n_violations=int(bad.sum()),
            worst_delta=float(delta[worst_i]),
            worst_point=(float(xs[worst_i]), float(ys[worst_i])),
        ))
    return MonotonicityReport(n_samples, seed, tuple(entries))
