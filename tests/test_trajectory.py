import math

import numpy as np
import pytest

from conftest import P0, P_BOUNDARY, make_rng, sample_omega_points, sample_w0_params
from mosqdyn import (
    OmegaLimitClass,
    RegionLabel,
    State,
    basin_raster,
    escape_probe,
    iterate,
    omega_bounds,
    phi,
    regime_quantities,
    step_w0,
    validate_params,
)
from mosqdyn import trajectory
from mosqdyn.core import CLAMP_TOL, _clamp, step_w0_raw
from mosqdyn.equilibria import beta_vs_threshold
from mosqdyn.errors import DomainError, UsageError
from mosqdyn.geometry import _region_in
from mosqdyn.trajectory import (
    NARROW_LANES,
    TrajectoryReport,
    TrajectorySample,
    classify_batch,
)


class TestIterate:
    def test_start_at_fixed_point_converges_at_zero(self):
        rep = iterate(P0, State(1.5, 0.375), 1000, 1e-10)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
        assert rep.iterations_used == 0
        assert rep.final == State(1.5, 0.375)

    def test_interior_point_converges_to_positive_fixed_point(self):
        rep = iterate(P0, State(1.0, 0.5), 10**6, 1e-10)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
        assert rep.final.x == pytest.approx(1.5, abs=1e-9)
        assert rep.final.y == pytest.approx(0.375, abs=1e-9)
        assert not rep.boundary_regime

    def test_boundary_tuple_converges_to_origin(self):
        rep = iterate(P_BOUNDARY, State(0.5, 0.3), 2 * 10**6, 1e-5)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_ORIGIN
        assert rep.boundary_regime
        assert max(rep.final.x, rep.final.y) <= 1e-4

    def test_budget_exhaustion_is_reported_not_coerced(self):
        rep = iterate(P0, State(1.0, 0.5), 3, 1e-10)
        assert rep.limit is OmegaLimitClass.UNDETERMINED
        assert rep.iterations_used == 3

    def test_samples_monotone_and_final_matches(self):
        rep = iterate(P0, State(0.2, 0.6), 10**6, 1e-10, stride=7)
        ns = [s.n for s in rep.samples]
        assert ns == sorted(set(ns))
        assert ns[0] == 0
        assert rep.samples[-1].n == rep.iterations_used
        assert rep.samples[-1].state == rep.final
        interior = ns[1:-1] if rep.iterations_used % 7 else ns[1:]
        assert all(n % 7 == 0 for n in interior)

    def test_sample_phi_and_region_are_consistent(self):
        rep = iterate(P0, State(0.2, 0.6), 10**6, 1e-10, stride=17)
        for s in rep.samples:
            assert s.phi == pytest.approx(phi(P0, s.state), rel=1e-12)

    def test_outside_rectangle_start_still_converges(self):
        rep = iterate(P0, State(0.0, 10.0), 10**6, 1e-10)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT

    def test_below_threshold_converges_to_origin(self):
        p = validate_params(0.5, 1.0, 0.8, 0.3, 0.0)
        rep = iterate(p, State(0.0, 10.0), 10**6, 1e-8)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_ORIGIN

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            iterate(P0, State(0.1, 0.1), 10, 0.0)
        with pytest.raises(ValueError):
            iterate(P0, State(0.1, 0.1), 10, 1e-8, stride=0)

    def test_nan_tol_is_refused(self):
        with pytest.raises(ValueError):
            iterate(P0, State(1.0, 0.5), 50, float("nan"))

    def test_negative_budget_is_refused(self):
        # classify_batch used to report iters = -5 here and iterate 0
        with pytest.raises(ValueError, match="max_iter"):
            iterate(P0, State(1.0, 0.5), -5, 1e-8)
        with pytest.raises(ValueError, match="max_iter"):
            classify_batch(P0, [1.0], [0.5], -5, 1e-8)
        rep = iterate(P0, State(1.0, 0.5), 0, 1e-8)
        codes, iters, _, _ = classify_batch(P0, [1.0], [0.5], 0, 1e-8)
        assert rep.iterations_used == int(iters[0]) == 0
        assert rep.limit is OmegaLimitClass.UNDETERMINED
        assert int(codes[0]) == int(rep.limit)


class TestLargeAdultStarts:
    """Starts far above alpha/mu still converge (README, "The escape probe")."""

    def test_reference_start_reaches_positive_fixed_point(self):
        rep = iterate(P0, State(0.0, 100.0), 10**6, 1e-8)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
        assert max(abs(rep.final.x - 1.5), abs(rep.final.y - 0.375)) <= 1e-7

    def test_random_tuples_reach_positive_fixed_point(self):
        rng = make_rng(88)
        for _ in range(20):
            p = sample_w0_params(rng, "above")
            rq = regime_quantities(p)
            x0 = float(rng.uniform(0.0, omega_bounds(p).x_max))
            rep = iterate(p, State(x0, 1e3 * p.alpha / p.mu), 10**6, 1e-8)
            assert rep.limit is OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
            assert max(abs(rep.final.x - rq.x_star),
                       abs(rep.final.y - rq.y_star)) <= 1e-7

    def test_batch_matches_scalar_iterate_on_large_y_lanes(self):
        rng = make_rng(89)
        for p in (P0, sample_w0_params(rng, "above")):
            xs = rng.uniform(0.0, omega_bounds(p).x_max, 10)
            ys = 1e3 * (p.alpha / p.mu) * rng.uniform(1.0, 1.1, 10)
            codes, iters, fx, fy = classify_batch(p, xs, ys, 10**6, 1e-8)
            for i in range(xs.size):
                rep = iterate(p, State(float(xs[i]), float(ys[i])), 10**6, 1e-8,
                              stride=10**6)
                assert rep.limit is OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
                assert OmegaLimitClass(int(codes[i])) is rep.limit
                assert int(iters[i]) == rep.iterations_used
                assert float(fx[i]) == rep.final.x
                assert float(fy[i]) == rep.final.y


class TestAmbiguousLimit:
    """Within NEAR_FACTOR*tol of both fixed points the limit is undetermined."""

    # beta 5e-10 above the threshold 1.28 puts (x*, y*) near (1e-9, 6.5e-10)
    P_NEAR = validate_params(0.5, 0.8 * (1.0 + 0.3 / 0.5) + 5e-10, 0.8, 0.3, 0.0)
    XS = np.array([3e-8, 1e-9, 5e-8])
    YS = np.array([2e-8, 4e-8, 1e-9])

    def test_scalar_and_batch_report_undetermined(self):
        rq = regime_quantities(self.P_NEAR)
        assert 0.0 < rq.x_star < 1e-8 and 0.0 < rq.y_star < 1e-8
        codes, iters, fx, fy = classify_batch(self.P_NEAR, self.XS, self.YS,
                                              1000, 1e-8)
        for i in range(self.XS.size):
            rep = iterate(self.P_NEAR, State(self.XS[i], self.YS[i]), 1000, 1e-8)
            assert rep.limit is OmegaLimitClass.UNDETERMINED
            assert rep.iterations_used < 1000
            assert int(codes[i]) == 3
            assert int(iters[i]) == rep.iterations_used
            assert (float(fx[i]), float(fy[i])) == (rep.final.x, rep.final.y)


class TestOrbitProperties:
    def _orbit(self, p, z0, n):
        z = State(*z0)
        pts = [z0]
        for _ in range(n):
            z = step_w0(p, z)
            pts.append((z.x, z.y))
        return pts

    def test_monotone_coordinates_in_omega3_and_omega4(self):
        rng = make_rng(83)
        for _ in range(20):
            p = sample_w0_params(rng, "above")
            b = omega_bounds(p)
            z0 = (float(rng.uniform(0, b.x_max)), float(rng.uniform(0, b.y_max)))
            pts = self._orbit(p, z0, 200)
            for (x, y), (xn, yn) in zip(pts, pts[1:]):
                region = None
                if x <= b.x_max and y <= b.y_max:
                    from mosqdyn import region_of

                    region = region_of(p, State(x, y))
                if region is RegionLabel.OMEGA3:
                    assert xn <= x + 1e-12 and yn >= y - 1e-12
                elif region is RegionLabel.OMEGA4:
                    assert xn >= x - 1e-12 and yn <= y + 1e-12

    def test_phi_sign_along_orbits_matches_region(self):
        rng = make_rng(84)
        for _ in range(20):
            p = sample_w0_params(rng, "above")
            b = omega_bounds(p)
            z0 = (float(rng.uniform(0, b.x_max)), float(rng.uniform(0, b.y_max)))
            pts = self._orbit(p, z0, 200)
            from mosqdyn import region_of

            for (x, y), (xn, yn) in zip(pts, pts[1:]):
                d = (p.mu * xn + p.beta * yn) - (p.mu * x + p.beta * y)
                region = region_of(p, State(x, y))
                if region is RegionLabel.OMEGA1:
                    assert d >= -1e-12
                elif region is RegionLabel.OMEGA2:
                    assert d <= 1e-12


class TestEscapeProbe:
    def test_requires_y_above_cap(self):
        with pytest.raises(DomainError):
            escape_probe(P0, State(0.0, 0.625), 100)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_below_one_is_refused(self, horizon):
        # a one-point tail used to read as strictly increasing
        with pytest.raises(ValueError, match="horizon"):
            escape_probe(P0, State(1.0, 10.0), horizon)
        assert escape_probe(P0, State(1.0, 10.0), 1).horizon == 1

    def test_adults_strictly_decrease_while_above_cap(self):
        # y' - y = alpha*x/(1+x) - mu*y < alpha - mu*(alpha/mu) = 0 up there
        rng = make_rng(85)
        for _ in range(200):
            p = sample_w0_params(rng, "above")
            cap = p.alpha / p.mu
            x = float(rng.uniform(0.0, 100.0))
            y = cap * float(rng.uniform(1.0 + 1e-9, 20.0))
            assert step_w0(p, State(x, y)).y < y

    def test_overflow_raises_instead_of_reporting_nan(self):
        # beta*y overflows to inf on the first step; the probe used to carry
        # it on and report y_gap_final = nan
        with pytest.raises(DomainError, match="finite"):
            escape_probe(P0, State(0.0, 1e308), 5)

    def test_hypothesis_fails_in_finite_time_from_reference_start(self):
        # adults cannot stay above alpha/mu forever: larvae stay bounded
        # (x' <= beta*y + (1-d0)*x), so y loses at least alpha/(1+x_bound)
        # per step while above the cap and crosses it after finitely many
        # steps; from (0, 10) that happens at step 4
        report = escape_probe(P0, State(0.0, 10.0), 10)
        assert not report.y_stayed_above
        probe = escape_probe(P0, State(0.0, 10.0), 10**4)
        assert not probe.y_stayed_above
        assert probe.y_gap_final == pytest.approx(0.375 - 0.625, abs=1e-6)

    def test_hypothesis_fails_for_random_tuples_and_starts(self):
        rng = make_rng(86)
        for _ in range(50):
            p = sample_w0_params(rng, "at_or_above")
            cap = p.alpha / p.mu
            z0 = State(float(rng.uniform(0, 10)), cap * float(rng.uniform(1.5, 30)))
            assert not escape_probe(p, z0, 10**4).y_stayed_above

    def test_dip_hands_orbit_to_the_iterator(self):
        p = validate_params(0.5, 1.0, 0.8, 0.3, 0.0)
        probe = escape_probe(p, State(0.0, 10.0), 10**4)
        assert not probe.y_stayed_above
        rep = iterate(p, State(0.0, 10.0), 10**6, 1e-8)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_ORIGIN


class TestClassifyBatch:
    def test_shape_mismatch_refused(self):
        with pytest.raises(ValueError, match="differ in shape"):
            classify_batch(P0, np.zeros(3), np.zeros((3, 1)), 10, 1e-8)

    def test_limit_labels_are_lowercase_names(self):
        assert (OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT.label
                == "converged_to_positive_fixed_point")
        assert [c.label for c in OmegaLimitClass] == [
            "converged_to_origin", "converged_to_positive_fixed_point",
            "escape_x_unbounded", "undetermined"]

    def test_matches_scalar_iterate_exactly(self):
        rng = make_rng(87)
        for p, max_iter, tol in [
            (P0, 20_000, 1e-8),
            (P_BOUNDARY, 200_000, 1e-4),
            (sample_w0_params(rng, "above"), 20_000, 1e-8),
        ]:
            xs, ys = sample_omega_points(p, rng, 25)
            codes, iters, fx, fy = classify_batch(p, xs, ys, max_iter, tol)
            for i in range(xs.size):
                rep = iterate(p, State(float(xs[i]), float(ys[i])), max_iter, tol,
                              stride=max_iter)
                assert OmegaLimitClass(int(codes[i])) is rep.limit
                assert int(iters[i]) == rep.iterations_used
                assert float(fx[i]) == rep.final.x
                assert float(fy[i]) == rep.final.y


#: Above the threshold with x* about 0.8 and y* about 8; its orbits take
#: thousands of steps to settle.
P_SLOW = validate_params(0.9, 0.06, 0.05, 0.1)


def _lanes(case, width, rng):
    """(p, xs, ys, max_iter, tol) for one identity case at the given width."""
    if case == "sampled":
        p, max_iter, tol = sample_w0_params(rng, "above"), 20_000, 1e-8
    else:
        p, max_iter, tol = {
            "p0": (P0, 20_000, 1e-8),
            "boundary": (P_BOUNDARY, 200_000, 1e-4),
            "ambiguous": (TestAmbiguousLimit.P_NEAR, 1000, 1e-8),
            "large_y": (P0, 10**6, 1e-8),
            "budget": (P0, 60, 1e-8),
            "slow": (P_SLOW, 20_000, 1e-8),
        }[case]
    xs, ys = sample_omega_points(p, rng, width)
    if case == "ambiguous":
        xs, ys = rng.uniform(0.0, 6e-8, width), rng.uniform(0.0, 6e-8, width)
    elif case == "large_y":
        ys = 1e3 * (p.alpha / p.mu) * rng.uniform(1.0, 1.1, width)
    return p, xs, ys, max_iter, tol


#: Lane counts on both sides of the narrow/wide switch, two more narrow
#: ones, and a wide 2-D grid.
WIDTHS = {1: (1, 1), 48: (1, 48), 49: (49, 1), NARROW_LANES: (1, NARROW_LANES),
          NARROW_LANES + 1: (NARROW_LANES + 1, 1), 260: (20, 13)}


class TestClassifyBatchWidths:
    @pytest.mark.parametrize("width", list(WIDTHS))
    @pytest.mark.parametrize("case", ["p0", "boundary", "ambiguous", "large_y", "budget",
                                      "sampled", "slow"])
    def test_every_width_matches_scalar_iterate(self, case, width):
        p, xs, ys, max_iter, tol = _lanes(case, width, make_rng(90 + width))
        shape = WIDTHS[width]
        codes, iters, fx, fy = classify_batch(p, xs.reshape(shape), ys.reshape(shape),
                                              max_iter, tol)
        for a, dtype in ((codes, np.int8), (iters, np.int64), (fx, np.float64),
                         (fy, np.float64)):
            assert a.shape == shape and a.dtype == dtype
        for i in range(width):
            rep = iterate(p, State(float(xs[i]), float(ys[i])), max_iter, tol,
                          stride=max_iter)
            assert OmegaLimitClass(int(codes.flat[i])) is rep.limit
            assert int(iters.flat[i]) == rep.iterations_used
            assert float(fx.flat[i]) == rep.final.x
            assert float(fy.flat[i]) == rep.final.y

    @pytest.mark.parametrize("x0, y0", [(-1.0, 0.5), (np.nan, 0.5), (1.0, np.inf)],
                             ids=["negative", "nan", "inf"])
    def test_starts_are_checked_like_state(self, x0, y0):
        with pytest.raises(DomainError):
            State(x0, y0)
        with pytest.raises(DomainError):
            classify_batch(P0, [1.0, x0], [0.5, y0], 10, 1e-8)

    def test_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            classify_batch(P0, [1.0], [0.5], 10, 0.0)

    def test_nan_tol_is_refused(self):
        with pytest.raises(ValueError):
            classify_batch(P0, [1.0], [0.5], 50, float("nan"))


#: tol = 0.1 * 2**-24 makes near = NEAR_FACTOR * tol exactly 2**-24.
NEAR_TOL, NEAR = 0.1 * 2.0**-24, 2.0**-24
#: P_SLOW with beta below its threshold 0.05 * (1 + 0.1/0.9): origin only.
P_SLOW_BELOW = validate_params(0.9, 0.05, 0.05, 0.1)
_STAR = regime_quantities(P_SLOW)
_X_SLOW, _Y_SLOW = _STAR.x_star, _STAR.y_star
_POS = OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
_ORIGIN = OmegaLimitClass.CONVERGED_TO_ORIGIN
#: (p, x0, y0, iterations, limit): each tie and the start one ulp farther out.
NEAR_TIES = {
    "y_star_plus": (P_SLOW, _X_SLOW, _Y_SLOW + NEAR, 0, _POS),
    "y_star_plus_ulp": (P_SLOW, _X_SLOW, math.nextafter(_Y_SLOW + NEAR, math.inf),
                        1, _POS),
    "y_star_minus": (P_SLOW, _X_SLOW, _Y_SLOW - NEAR, 0, _POS),
    "y_star_minus_ulp": (P_SLOW, _X_SLOW, math.nextafter(_Y_SLOW - NEAR, -math.inf),
                         1, _POS),
    "origin": (P_SLOW_BELOW, 0.0, NEAR, 0, _ORIGIN),
    "origin_ulp": (P_SLOW_BELOW, 0.0, math.nextafter(NEAR, 1.0), 1, _ORIGIN),
}


class TestNearRadiusIsClosed:
    """A lane exactly `near` away from a fixed point is near it; one ulp
    farther out is not.

    Each tie start steps by less than tol, so it stops at once, and the
    start one ulp farther out takes one step first.  Both loops must agree
    on the tie, at the origin and at the positive fixed point.
    """

    def test_premise(self):
        assert trajectory.NEAR_FACTOR * NEAR_TOL == NEAR
        assert regime_quantities(P_SLOW_BELOW).x_star is None

    @pytest.mark.parametrize("start", NEAR_TIES)
    def test_exact_iterations_in_every_loop(self, start):
        p, x0, y0, used, limit = NEAR_TIES[start]
        rep = iterate(p, State(x0, y0), 1000, NEAR_TOL)
        assert (rep.iterations_used, rep.limit) == (used, limit)
        for width in (1, NARROW_LANES + 1):
            codes, iters, _, _ = classify_batch(p, np.full(width, x0),
                                                np.full(width, y0), 1000, NEAR_TOL)
            assert np.all(iters == used)
            assert np.all(codes == int(limit))


class TestOneClampRule:
    """Every loop clamps rounding-noise negatives to 0 and raises beyond.

    The tuples break alpha + d0 <= 1, so the map itself can send x below 0;
    `w0_regime` is forced on so that every loop runs them.  From (X0, y0)
    the x-image is the given multiple of CLAMP_TOL, and the clamped image
    (0, y1) lies near the origin with a step below tol, so an orbit that
    clamps stops there after one step.  mu = 1 leaves the origin as the only
    fixed point; mu = 0.01 adds a positive one.
    """

    X0 = 1.1e-7
    MUS = (1.0, 0.01)

    @staticmethod
    def _forced(mu):
        p = validate_params(0.05, 0.5, mu, 0.99)
        object.__setattr__(p, "w0_regime", True)
        return p

    def _start(self, p, x_image):
        em = p.alpha * self.X0 / (1.0 + self.X0)
        y0 = (em + p.d0 * self.X0 - self.X0 + x_image) / p.beta
        assert step_w0_raw(p, self.X0, y0)[0] == pytest.approx(x_image, rel=1e-9)
        return y0

    def test_noise_is_clamped_in_every_loop(self):
        for mu in self.MUS:
            p = self._forced(mu)
            y0 = self._start(p, -0.5 * CLAMP_TOL)
            rep = iterate(p, State(self.X0, y0), 1000, 1e-8)
            assert rep.limit is OmegaLimitClass.CONVERGED_TO_ORIGIN
            assert rep.iterations_used == 1
            assert rep.final.x == 0.0
            for width in (1, NARROW_LANES + 1):
                codes, iters, fx, fy = classify_batch(
                    p, np.full(width, self.X0), np.full(width, y0), 1000, 1e-8)
                assert np.all(codes == int(rep.limit))
                assert np.all(iters == rep.iterations_used)
                assert np.all(fx == 0.0) and not np.signbit(fx).any()
                assert np.all(fy == rep.final.y)

    def test_beyond_tolerance_raises_in_every_loop(self):
        for mu in self.MUS:
            p = self._forced(mu)
            y0 = self._start(p, -10.0 * CLAMP_TOL)
            with pytest.raises(DomainError):
                iterate(p, State(self.X0, y0), 1000, 1e-8)
            for width in (1, NARROW_LANES + 1):
                with pytest.raises(DomainError):
                    classify_batch(p, np.full(width, self.X0), np.full(width, y0),
                                   1000, 1e-8)


def _reference_run_lane(p, x, y, n, tol, fps, near):
    """The lane loop as it was before its step was written out inline."""
    for k in range(n):
        xn, yn = step_w0_raw(p, x, y)
        if xn < 0.0 or yn < 0.0:
            xn, yn = _clamp(xn), _clamp(yn)
        if abs(xn - x) < tol and abs(yn - y) < tol:
            hit = None
            for fx, fy, cls in fps:
                if abs(x - fx) <= near and abs(y - fy) <= near:
                    hit = cls if hit is None else OmegaLimitClass.UNDETERMINED
            if hit is not None:
                return hit, k, x, y
        x, y = xn, yn
    return None, n, x, y


def _reference_iterate(p, z0, max_iter, tol, stride):
    """`iterate` as it was: one reference lane call per stride chunk."""
    fps, near = trajectory._stopping_rule(p, tol, max_iter)
    bounds = omega_bounds(p)

    def make_sample(n, x, y):
        st = State(x, y)
        return TrajectorySample(n, st, p.mu * x + p.beta * y, _region_in(bounds, st))

    x, y = z0.x, z0.y
    used = 0
    samples = [make_sample(0, x, y)]
    limit = OmegaLimitClass.UNDETERMINED
    while used < max_iter:
        hit, k, x, y = _reference_run_lane(p, x, y, min(stride, max_iter - used),
                                           tol, fps, near)
        used += k
        if hit is not None:
            limit = hit
            break
        if used % stride == 0:
            samples.append(make_sample(used, x, y))
    if samples[-1].n != used:
        samples.append(make_sample(used, x, y))
    return TrajectoryReport(tuple(samples), used, samples[-1].state, limit,
                            beta_vs_threshold(p) == 0)


REFERENCE_CASES = ["p0", "boundary", "sampled", "ambiguous", "budget", "large_y"]


def _reference_lanes(case):
    """(p, starts, max_iter, tol): five starts of the case plus its fixed points."""
    p, xs, ys, max_iter, tol = _lanes(case, 5, make_rng(95))
    starts = [(0.0, 0.0)] + list(zip(xs.tolist(), ys.tolist()))
    rq = regime_quantities(p)
    if rq.x_star is not None:
        starts.append((rq.x_star, rq.y_star))
    return p, starts, max_iter, tol


class TestReferenceLaneLoop:
    """The call-free lane loop and `iterate` against the loop that called
    `step_w0_raw` once per step, bit for bit."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_lane_loop_matches_reference(self, case):
        p, starts, max_iter, tol = _reference_lanes(case)
        fps, near = trajectory._stopping_rule(p, tol, max_iter)
        for x0, y0 in starts:
            want = _reference_run_lane(p, x0, y0, max_iter, tol, fps, near)
            hit, k, x, y, _ = trajectory._run_lane(p, x0, y0, max_iter, tol, fps,
                                                   near, max_iter)
            assert (hit, k, x.hex(), y.hex()) == (
                want[0], want[1], want[2].hex(), want[3].hex())

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_iterate_matches_reference_at_every_stride(self, case):
        p, starts, max_iter, tol = _reference_lanes(case)
        for x0, y0 in starts:
            for stride in (1, 7, max_iter):
                got = iterate(p, State(x0, y0), max_iter, tol, stride)
                want = _reference_iterate(p, State(x0, y0), max_iter, tol, stride)
                assert repr(got) == repr(want)


class TestBasinRaster:
    @pytest.mark.parametrize("grid_n", [0, -2])
    def test_empty_grid_is_refused(self, grid_n):
        # used to return an empty raster; the cycle search already refused
        with pytest.raises(ValueError, match="grid_n"):
            basin_raster(P0, grid_n, 100, 1e-8)

    def test_single_cell_grid_is_the_origin(self):
        raster = basin_raster(P0, 1, 1000, 1e-8)
        assert raster.codes.shape == (1, 1)
        assert OmegaLimitClass(int(raster.codes[0, 0])) is (
            OmegaLimitClass.CONVERGED_TO_ORIGIN
        )

    def test_reference_grid_is_single_color_minus_origin(self):
        raster = basin_raster(P0, 16, 10**6, 1e-8)
        codes = raster.codes.ravel()
        assert OmegaLimitClass(int(codes[0])) is OmegaLimitClass.CONVERGED_TO_ORIGIN
        assert np.all(
            codes[1:] == int(OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT)
        )

    def test_boundary_grid_converges_to_origin_everywhere(self):
        raster = basin_raster(P_BOUNDARY, 8, 2 * 10**6, 1e-5)
        assert np.all(raster.codes == int(OmegaLimitClass.CONVERGED_TO_ORIGIN))

    def test_thread_count_does_not_change_raster(self, monkeypatch):
        base = basin_raster(P0, 12, 10**5, 1e-8)
        monkeypatch.setenv("MOSQDYN_THREADS", "4")
        threaded = basin_raster(P0, 12, 10**5, 1e-8)
        assert np.array_equal(base.codes, threaded.codes)

    def test_reads_thread_env(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "zero")
        with pytest.raises(UsageError, match="MOSQDYN_THREADS"):
            basin_raster(P0, 2, 100, 1e-8)

    def test_star_seeded_cell_classifies_positive_immediately(self):
        rq = regime_quantities(P0)
        codes, iters, _, _ = classify_batch(
            P0, np.array([rq.x_star]), np.array([rq.y_star]), 100, 1e-10
        )
        assert int(codes[0]) == int(OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT)
        assert int(iters[0]) == 0
