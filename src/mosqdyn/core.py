"""Two-class mosquito population map: constants, state, one-step evolution.

The map advances larvae density x and adult density y by

    x' = beta*y - alpha*x/(1+x) - (d0 + d1*x)*x + x,
    y' = alpha*x/(1+x) - mu*y + y,

where alpha is the maximum emergence rate, beta the adult birth rate, mu the
adult death rate, and d0 + d1*x the larvae death rate.  Emergence saturates
through k(x) = x/(1+x).

Under the restricted regime

    0 < mu <= 1,  d0 > 0,  alpha + d0 <= 1,  d1 = 0,

the map sends the closed positive quadrant into itself and reduces to

    x' = beta*y - (alpha/(1+x) + d0 - 1)*x,
    y' = alpha*x/(1+x) + (1-mu)*y,

exposed as ``step_w0``.  Every downstream analysis (fixed points, invariant
boxes, Lyapunov descent, cycle exclusion, trajectory limits) lives in that
regime; ``Params.w0_regime`` records whether a parameter set qualifies.

One step function per data shape, and the clamp rule (negatives down to
-CLAMP_TOL become 0, lower ones raise) lives only in this module:

- ``step_general``: full map, unclamped; the reference tests compare against.
- ``step_w0``: State to State; equilibria, lyapunov, trajectory.escape_probe.
- ``step_w0_raw``: floats or arrays, unclamped; the Newton oracle in cycles.
- ``step_w0_into``: step_w0_raw into preallocated arrays; the wide orbit loop
  of ``trajectory.classify_batch`` and geometry's sampling workspace.
- ``trajectory._run_lane`` writes step_w0_raw out inline, so that the scalar
  orbit loop makes no call per step;
  ``test_trajectory.TestReferenceLaneLoop`` pins it to step_w0_raw.
- ``step_w0_batch``: arrays into fresh arrays, clamped by ``_clamp_into``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    NegativeDeathError,
    NonFiniteError,
    NonPositiveRateError,
    RegimeError,
)

#: Negative coordinates no larger than this are treated as rounding noise and
#: clamped to exactly 0; anything more negative is a hard error.
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class Params:
    """The five model constants, validated on construction.

    General-regime violations (non-finite input, alpha/beta/mu <= 0,
    d0/d1 < 0) are rejected outright; failing the restricted regime merely
    leaves ``w0_regime`` False.
    """

    alpha: float
    beta: float
    mu: float
    d0: float
    d1: float = 0.0
    w0_regime: bool = field(init=False, compare=False)

    def __post_init__(self):
        for name in ("alpha", "beta", "mu", "d0", "d1"):
            v = getattr(self, name)
            try:
                fv = float(v)
            except (TypeError, ValueError):
                raise NonFiniteError(name, f"{name} must be a real number, got {v!r}") from None
            if not math.isfinite(fv):
                raise NonFiniteError(name, f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, fv)
        for name in ("alpha", "beta", "mu"):
            if getattr(self, name) <= 0.0:
                raise NonPositiveRateError(
                    name, f"{name} must be positive, got {getattr(self, name)}"
                )
        for name in ("d0", "d1"):
            if getattr(self, name) < 0.0:
                raise NegativeDeathError(
                    name, f"{name} must be nonnegative, got {getattr(self, name)}"
                )
        object.__setattr__(
            self,
            "w0_regime",
            self.mu <= 1.0
            and self.d0 > 0.0
            and self.alpha + self.d0 <= 1.0
            and self.d1 == 0.0,
        )


@dataclass(frozen=True)
class State:
    """A population point (x, y); both coordinates must be finite and >= 0."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"state must be finite, got ({self.x}, {self.y})")
        if self.x < 0.0 or self.y < 0.0:
            raise DomainError(f"state must be nonnegative, got ({self.x}, {self.y})")


def validate_params(alpha, beta, mu, d0, d1=0.0) -> Params:
    """Build Params from five reals, raising the typed errors on bad input."""
    return Params(alpha, beta, mu, d0, d1)


def require_w0(p: Params) -> None:
    """Raise RegimeError unless p satisfies the restricted regime."""
    if not p.w0_regime:
        raise RegimeError(
            "operation requires the restricted regime "
            f"(0 < mu <= 1, d0 > 0, alpha + d0 <= 1, d1 = 0); got {p}"
        )


def emergence_response(x: float) -> float:
    """Saturating emergence fraction k(x) = x/(1+x) on x >= 0.

    Strictly increasing, k(0) = 0, and k(x) -> 1 as x -> infinity.
    """
    if x < 0.0:
        raise DomainError(f"emergence response needs x >= 0, got {x}")
    return x / (1.0 + x)


def step_general(p: Params, z: State) -> tuple[float, float]:
    """One step of the full map; result left unwrapped.

    Outside the restricted regime the image can have negative coordinates,
    so the caller inspects the raw pair instead of receiving a State.
    """
    em = p.alpha * z.x / (1.0 + z.x)
    xp = p.beta * z.y - em - (p.d0 + p.d1 * z.x) * z.x + z.x
    yp = em - p.mu * z.y + z.y
    return xp, yp


def step_w0(p: Params, z: State) -> State:
    """One step of the restricted map; the image is again a valid State.

    The regime guarantees nonnegative images analytically, so the only
    negatives that can appear are rounding noise; those are clamped to 0.
    """
    require_w0(p)
    xp, yp = step_w0_raw(p, z.x, z.y)
    return State(_clamp(xp), _clamp(yp))


def step_w0_raw(p: Params, x, y):
    """Restricted-map update on raw floats or numpy arrays.

    No domain checks and no clamping; internal iteration loops use this and
    apply their own handling.  The operation sequence matches step_general
    with d1 = 0 exactly, so the two agree bit-for-bit there; step_w0_into
    and the scalar orbit loop repeat it and must keep doing so.
    """
    em = p.alpha * x / (1.0 + x)
    return p.beta * y - em - p.d0 * x + x, em - p.mu * y + y


def step_w0_into(p: Params, x: np.ndarray, y: np.ndarray, xn: np.ndarray,
                 yn: np.ndarray, em: np.ndarray) -> None:
    """step_w0_raw written into preallocated float arrays xn, yn.

    em is scratch of the same shape.  Every operation and its order match
    step_w0_raw, so the two agree bit for bit; loops that step the same
    lanes many times use this form to allocate nothing per step.
    """
    import numpy as np
    np.multiply(p.alpha, x, out=em)
    np.add(1.0, x, out=xn)
    np.divide(em, xn, out=em)
    np.multiply(p.beta, y, out=xn)
    np.subtract(xn, em, out=xn)
    np.multiply(p.d0, x, out=yn)
    np.subtract(xn, yn, out=xn)
    np.add(xn, x, out=xn)
    np.multiply(p.mu, y, out=yn)
    np.subtract(em, yn, out=yn)
    np.add(yn, y, out=yn)


def step_w0_batch(p: Params, x: np.ndarray, y: np.ndarray):
    """Vectorized step_w0 over coordinate arrays, with the same clamping."""
    import numpy as np
    require_w0(p)
    xn, yn, em = (np.empty(np.broadcast(x, y).shape) for _ in range(3))
    step_w0_into(p, x, y, xn, yn, em)
    _clamp_into(xn, yn)
    return xn, yn


def _clamp(v: float) -> float:
    if v < 0.0:
        if v >= -CLAMP_TOL:
            return 0.0
        raise DomainError(f"map produced a negative coordinate beyond tolerance: {v}")
    return v


def _clamp_into(x: np.ndarray, y: np.ndarray) -> None:
    """Apply _clamp's rule to two float arrays in place; NaN lanes are skipped."""
    import numpy as np
    lo = min(np.fmin.reduce(x, axis=None, initial=0.0),
             np.fmin.reduce(y, axis=None, initial=0.0))
    if lo < 0.0:
        _clamp(lo)  # raises beyond CLAMP_TOL
        np.copyto(x, 0.0, where=x < 0.0)
        np.copyto(y, 0.0, where=y < 0.0)
