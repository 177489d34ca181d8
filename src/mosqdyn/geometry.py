"""The trapping rectangle and its four-way subdivision.

All bounded dynamics happens inside

    Omega = [0, alpha*beta/(mu*d0)] x [0, alpha/mu].

When the positive fixed point (x*, y*) exists, Omega splits into

    Omega1 = [0, x*]      x [0, y*]         (closed)
    Omega2 = [x*, x_max]  x [y*, y_max]     (closed)
    Omega3 = (x*, x_max]  x [0, y*]         (half open in x)
    Omega4 = [0, x*)      x (y*, y_max]     (half open in y)

Omega, Omega1 and Omega2 are forward invariant; Omega3/Omega4 are not
claimed invariant and invariance checks on them are refused.  Membership is
tested in the order Omega1, Omega2, Omega3, Omega4 with the first match
winning, which keeps the closed sets exactly as defined and still yields a
deterministic partition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _sampling
from .core import Params, State, require_w0, step_w0_batch
from .equilibria import regime_quantities
from .errors import NotClaimedInvariantError, RegimeError

#: How far outside a region an image may land before it counts as a violation.
CONTAINMENT_TOL = 1e-12


class RegionLabel(enum.Enum):
    OMEGA1 = "omega1"
    OMEGA2 = "omega2"
    OMEGA3 = "omega3"
    OMEGA4 = "omega4"
    OMEGA_ONLY = "omega_only"
    OUTSIDE_OMEGA = "outside_omega"


#: Stable per-region stream ids for seeded sampling.
_REGION_STREAM = {label: i for i, label in enumerate(RegionLabel)}


@dataclass(frozen=True)
class RegionBounds:
    """Rectangle bounds, plus the subdivision point when it exists."""

    x_max: float
    y_max: float
    x_star: float | None
    y_star: float | None


@dataclass(frozen=True)
class RegionViolation:
    index: int
    x: float
    y: float
    x_image: float
    y_image: float
    excursion: float


@dataclass(frozen=True)
class InvarianceReport:
    region: RegionLabel
    n_samples: int
    seed: int
    violations: tuple[RegionViolation, ...]
    max_excursion: float


def omega_bounds(p: Params) -> RegionBounds:
    """Trapping-rectangle bounds; subdivision point filled when beta allows."""
    require_w0(p)
    rq = regime_quantities(p)
    return RegionBounds(
        x_max=p.alpha * p.beta / (p.mu * p.d0),
        y_max=p.alpha / p.mu,
        x_star=rq.x_star,
        y_star=rq.y_star,
    )


def region_of(p: Params, z: State) -> RegionLabel:
    """Label of the region containing z; total on the positive quadrant."""
    return _region_in(omega_bounds(p), z)


def _region_in(b: RegionBounds, z: State) -> RegionLabel:
    """region_of with the bounds already looked up, for per-sample callers."""
    if z.x > b.x_max or z.y > b.y_max:
        return RegionLabel.OUTSIDE_OMEGA
    if b.x_star is None:
        return RegionLabel.OMEGA_ONLY
    if z.x <= b.x_star and z.y <= b.y_star:
        return RegionLabel.OMEGA1
    if z.x >= b.x_star and z.y >= b.y_star:
        return RegionLabel.OMEGA2
    if z.x > b.x_star:
        return RegionLabel.OMEGA3
    return RegionLabel.OMEGA4


def _region_codes(b: RegionBounds, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`_region_in` over coordinate arrays, as indices into tuple(RegionLabel).

    The same comparisons in the same order, the first match winning.
    """
    outside = (x > b.x_max) | (y > b.y_max)
    if b.x_star is None:
        return np.where(outside, 5, 4)
    return np.select([outside, (x <= b.x_star) & (y <= b.y_star),
                      (x >= b.x_star) & (y >= b.y_star), x > b.x_star],
                     [5, 0, 1, 2], 3)


def region_box(p: Params, region: RegionLabel) -> tuple[float, float, float, float]:
    """Closed bounding box (x_lo, x_hi, y_lo, y_hi) of a region.

    For the half-open regions this is the closure; used for sampling, where
    the boundary has measure zero anyway.
    """
    b = omega_bounds(p)
    if region is RegionLabel.OUTSIDE_OMEGA:
        raise ValueError("the outside region has no bounding box")
    if region is RegionLabel.OMEGA_ONLY:
        return 0.0, b.x_max, 0.0, b.y_max
    if b.x_star is None:
        raise RegimeError(
            "region is not subdivided: beta does not exceed the threshold"
        )
    boxes = {
        RegionLabel.OMEGA1: (0.0, b.x_star, 0.0, b.y_star),
        RegionLabel.OMEGA2: (b.x_star, b.x_max, b.y_star, b.y_max),
        RegionLabel.OMEGA3: (b.x_star, b.x_max, 0.0, b.y_star),
        RegionLabel.OMEGA4: (0.0, b.x_star, b.y_star, b.y_max),
    }
    return boxes[region]


def sample_region(p: Params, region: RegionLabel, n_samples: int, seed: int,
                  stream: int = _sampling.STREAM_INVARIANCE):
    """n_samples uniform points of a region's box; deterministic given seed."""
    x_lo, x_hi, y_lo, y_hi = region_box(p, region)
    rng = _sampling.generator(seed, stream, _REGION_STREAM[region])
    xs = rng.uniform(x_lo, x_hi, n_samples)
    ys = rng.uniform(y_lo, y_hi, n_samples)
    return xs, ys


def _sampled_images(p: Params, region: RegionLabel, n: int, seed: int,
                    stream: int):
    """Seeded samples of a region and their images, as (xs, ys, xp, yp).

    The whole sample is stepped in one `step_w0_batch` call, never in chunks.
    """
    xs, ys = sample_region(p, region, n, seed, stream)
    return xs, ys, *step_w0_batch(p, xs, ys)


def check_invariance(p: Params, region: RegionLabel, n_samples: int,
                     seed: int) -> InvarianceReport:
    """Sample a claimed-invariant region and verify images stay inside.

    Only Omega (via OMEGA_ONLY), Omega1 and Omega2 carry invariance claims;
    asking about Omega3/Omega4 (or the outside) is refused.  A sample
    violates when its image leaves the region's box by more than
    CONTAINMENT_TOL in some coordinate; violations are reported in sample
    order together with the worst excursion seen.
    """
    require_w0(p)
    if region not in (RegionLabel.OMEGA1, RegionLabel.OMEGA2, RegionLabel.OMEGA_ONLY):
        raise NotClaimedInvariantError(
            f"no invariance claim for region {region.value}"
        )
    x_lo, x_hi, y_lo, y_hi = region_box(p, region)
    xs, ys, xp, yp = _sampled_images(p, region, n_samples, seed,
                                     _sampling.STREAM_INVARIANCE)
    # a running maximum; the operand order decides which of 0.0 and -0.0 wins
    ex = np.subtract(x_lo, xp)
    for m in (xp - x_hi, y_lo - yp, yp - y_hi, 0.0):
        np.maximum(ex, m, out=ex)
    violations = [
        RegionViolation(
            index=int(i), x=float(xs[i]), y=float(ys[i]),
            x_image=float(xp[i]), y_image=float(yp[i]), excursion=float(ex[i]),
        )
        for i in np.flatnonzero(ex > CONTAINMENT_TOL)
    ]
    max_excursion = float(ex.max()) if ex.size else 0.0
    return InvarianceReport(
        region=region,
        n_samples=n_samples,
        seed=seed,
        violations=tuple(violations),
        max_excursion=max_excursion,
    )
