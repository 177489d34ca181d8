import math
from fractions import Fraction
from pathlib import Path

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
from mosqdyn.cli import main
from mosqdyn.core import CLAMP_TOL, _clamp, step_w0_raw
from mosqdyn.equilibria import beta_vs_threshold, order_sandwich, settles_near_origin
from mosqdyn.errors import DomainError
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

    #: The message `State` gave for the first sample that is not finite.
    NOT_FINITE = {1: "state must be finite, got (inf, 1.9999999999999992e+307)",
                  2: "state must be finite, got (nan, nan)",
                  5: "state must be finite, got (nan, nan)"}

    @pytest.mark.parametrize("stride", NOT_FINITE)
    def test_orbit_that_is_not_finite_raises_states_message(self, stride):
        with pytest.raises(DomainError) as err:
            iterate(P0, State(1.0, 1e308), 5, 1e-8, stride)
        assert str(err.value) == self.NOT_FINITE[stride]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_orbit_that_is_not_finite_raises_states_message(self, fmt, capsys):
        argv = ["simulate", "--alpha", "0.5", "--beta", "2.0", "--mu", "0.8",
                "--d0", "0.3", "--x0", "1", "--y0", "1e308", "--max-iter", "5",
                "--format", fmt]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("mosqdyn: error: --x0/--y0: the orbit overflows: "
                       f"{self.NOT_FINITE[1]}\n")

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
        # inf used to stop every orbit after 0 steps
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol"):
                iterate(P0, State(1.0, 0.5), 50, tol)

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


#: The golden files' tuple below the threshold.
P_BELOW = validate_params(0.5, 1.0, 0.8, 0.3)
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


#: Wide batches whose lanes stop over many steps, so that the vector loop
#: compacts its live lanes several times: (p, max_iter, tol).
COMPACTING = {
    "p0": (P0, 20_000, 1e-8),
    "threshold": (P_BOUNDARY, 20_000, 1e-3),
    # P0 lanes stop from step 109 on: the budget runs out after three
    # compactions, with more lanes live than the scalar loop takes
    "budget": (P0, 118, 1e-8),
}


def _compactions(iters, max_iter):
    """(compactions, live lanes at the hand-off or budget's end) of a wide run.

    Replays the vector loop's halving rule on the steps at which its lanes
    stopped; a lane whose budget ran out reads max_iter.
    """
    stops = np.sort(iters[iters < max_iter])
    width = live = iters.size
    count = 0
    for it in np.unique(stops):
        live = iters.size - int(np.searchsorted(stops, it, side="right"))
        if live <= NARROW_LANES:
            break
        if live <= width // 2:
            width, count = live, count + 1
    return count, live


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
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol"):
                classify_batch(P0, [1.0], [0.5], 50, tol)

    @pytest.mark.parametrize("width", [4096, 20_000])
    @pytest.mark.parametrize("case", list(COMPACTING))
    def test_compacted_lanes_match_the_lane_loop(self, case, width):
        p, max_iter, tol = COMPACTING[case]
        xs, ys = sample_omega_points(p, make_rng(width), width)
        fps, near = trajectory._stopping_rule(p, tol, max_iter)
        got = classify_batch(p, xs, ys, max_iter, tol)
        compactions, live = _compactions(got[1], max_iter)
        assert compactions >= 3
        assert (live > NARROW_LANES) == (case == "budget")
        want = [np.empty(width, dtype=a.dtype) for a in got]
        for i in range(width):
            hit, want[1][i], want[2][i], want[3][i], _ = trajectory._run_lane(
                p, float(xs[i]), float(ys[i]), max_iter, tol, fps, near, max_iter)
            want[0][i] = OmegaLimitClass.UNDETERMINED if hit is None else hit
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


#: tol = 0.1 * 2**-24 makes near = NEAR_FACTOR * tol exactly 2**-24.
NEAR_TOL, NEAR = 0.1 * 2.0**-24, 2.0**-24
#: P_SLOW with beta below its threshold 0.05 * (1 + 0.1/0.9): origin only.
P_SLOW_BELOW = validate_params(0.9, 0.05, 0.05, 0.1)
_STAR = regime_quantities(P_SLOW)
_X_SLOW, _Y_SLOW = _STAR.x_star, _STAR.y_star
_POS = OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
_ORIGIN = OmegaLimitClass.CONVERGED_TO_ORIGIN
_UNDETERMINED = OmegaLimitClass.UNDETERMINED
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


def _reference_simulate_csv(report):
    """The CLI's simulate CSV as it was: one f-string per `TrajectorySample`."""
    def fmt(v):
        return format(float(v), ".17g")

    return "\n".join(["n,x,y,phi,region"] + [
        f"{s.n},{fmt(s.state.x)},{fmt(s.state.y)},{fmt(s.phi)},{s.region.value}"
        for s in report.samples
    ]) + "\n"


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

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_cli_csv_matches_reference_writer(self, case, capsys):
        p, starts, max_iter, tol = _reference_lanes(case)
        flags = [f"--{k}={getattr(p, k)!r}" for k in ("alpha", "beta", "mu", "d0")]
        for x0, y0 in starts:
            for stride in (1, 7, max_iter):
                assert main(["simulate", *flags, f"--x0={x0!r}", f"--y0={y0!r}",
                             f"--max-iter={max_iter}", f"--tol={tol!r}",
                             f"--stride={stride}"]) == 0
                want = _reference_iterate(p, State(x0, y0), max_iter, tol, stride)
                assert capsys.readouterr().out == _reference_simulate_csv(want)

    def test_cli_cases_cover_budget_and_stop_rows(self):
        """The cases above hold runs whose budget runs out, and stopped runs
        whose last row is a sampled step or an extra final row."""
        seen = set()
        for case in REFERENCE_CASES:
            p, starts, max_iter, tol = _reference_lanes(case)
            for x0, y0 in starts:
                rep = iterate(p, State(x0, y0), max_iter, tol)
                used = rep.iterations_used
                if used == max_iter:
                    seen.add("budget")
                elif used > 0:
                    seen.add("stop_sampled" if used % 7 == 0 else "stop_extra_row")
        assert seen == {"budget", "stop_sampled", "stop_extra_row"}


class TestOrbitColumns:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_phi_column_matches_scalar_phi(self, case):
        p, starts, max_iter, tol = _reference_lanes(case)
        for x0, y0 in starts:
            _, _, _, xs, ys, phis, _ = trajectory._orbit_columns(
                p, State(x0, y0), max_iter, tol, 1)
            want = [(p.mu * x + p.beta * y).hex()
                    for x, y in zip(xs.tolist(), ys.tolist())]
            assert [v.hex() for v in phis.tolist()] == want


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

    def test_rectangle_that_overflows_is_refused(self):
        # x_max = alpha*beta/(mu*d0) is inf, so no lattice can be laid out
        p = validate_params(0.5, 1e300, 1e-5, 1e-5)
        with pytest.raises(DomainError, match="finite"):
            basin_raster(p, 3, 10, 1e-8)

    def test_boundary_grid_converges_to_origin_everywhere(self):
        raster = basin_raster(P_BOUNDARY, 8, 2 * 10**6, 1e-5)
        assert np.all(raster.codes == int(OmegaLimitClass.CONVERGED_TO_ORIGIN))

    # earlier versions read MOSQDYN_THREADS; an environment may still set it.
    # Nothing reads it any more, so one value is enough; it keeps its test id
    @pytest.mark.parametrize("workers", ["2"])
    @pytest.mark.parametrize("grid_n", [12, 40])
    def test_thread_count_does_not_change_raster(self, monkeypatch, grid_n, workers):
        # every raster is decided by a proof: above, below and on the threshold
        for p, max_iter, tol in ((P0, 10**5, 1e-8), (P_BELOW, 10**5, 1e-8),
                                 (P_BOUNDARY, 300, 1e-17)):
            monkeypatch.delenv("MOSQDYN_THREADS", raising=False)
            base = basin_raster(p, grid_n, max_iter, tol)
            monkeypatch.setenv("MOSQDYN_THREADS", workers)
            threaded = basin_raster(p, grid_n, max_iter, tol)
            assert threaded.codes.dtype == base.codes.dtype == np.int8
            assert np.array_equal(base.codes, threaded.codes)

    def test_star_seeded_cell_classifies_positive_immediately(self):
        rq = regime_quantities(P0)
        codes, iters, _, _ = classify_batch(
            P0, np.array([rq.x_star]), np.array([rq.y_star]), 100, 1e-10
        )
        assert int(codes[0]) == int(OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT)
        assert int(iters[0]) == 0


def _exact_step(p, x, y):
    """One step of the restricted map in `Fraction`s."""
    alpha, beta, mu, d0 = map(Fraction, (p.alpha, p.beta, p.mu, p.d0))
    em = alpha * x / (1 + x)
    return beta * y - em - d0 * x + x, em - mu * y + y


def _log_domain_params(rng):
    """alpha, d0/(1 - alpha), mu and beta/threshold - 1 log-uniform over
    [1e-4, 0.999], [1e-8, 1], [1e-4, 1] and [1e-10, 1e3]."""
    while True:
        alpha = 10.0 ** rng.uniform(-4.0, math.log10(0.999))
        d0 = (1.0 - alpha) * 10.0 ** rng.uniform(-8.0, 0.0)
        mu = 10.0 ** rng.uniform(-4.0, 0.0)
        t = mu * (1.0 + d0 / alpha)
        p = validate_params(alpha, t * (1.0 + 10.0 ** rng.uniform(-10.0, 3.0)), mu, d0)
        if p.w0_regime:
            return p


#: beta 4e-10 above a threshold of 1.45e-3 in relative terms.
P_NEAR_THRESHOLD = validate_params(0.5, 1.45e-3 * (1.0 + 4e-10), 1e-3, 0.225)
#: x* about 1.3e8.
P_HUGE_STAR = validate_params(0.006741288187734768, 273.53443603038295,
                              0.8299343699704457, 1.6970538949649012e-08)


#: One ulp above the threshold 2 on the corner mu = 1, alpha + d0 = 1.
P_CORNER_UP = validate_params(0.5, math.nextafter(2.0, 3.0), 1.0, 0.5)


class TestOrderSandwich:
    """`order_sandwich`, checked in `Fraction`s."""

    @staticmethod
    def _check(p):
        eps0, v, hi = order_sandwich(p)
        assert eps0 > 0 and v[0] == 1 and v[1] > 0
        for eps in (eps0, eps0 / 2, eps0 / 10**6):
            lo = eps * v[0], eps * v[1]
            x, y = _exact_step(p, *lo)
            assert x >= lo[0] and y >= lo[1]  # F(lo) >= lo
        x, y = _exact_step(p, *hi)
        assert x <= hi[0] and y <= hi[1]  # F(hi) <= hi
        # the exact positive fixed point lies in [lo(eps0), hi]
        alpha, beta, mu, d0 = map(Fraction, (p.alpha, p.beta, p.mu, p.d0))
        xs = alpha * (beta - mu) / (mu * d0) - 1
        ys = (alpha * (beta - mu) - mu * d0) / (mu * (beta - mu))
        assert _exact_step(p, xs, ys) == (xs, ys)
        assert eps0 * v[0] <= xs <= hi[0] and eps0 * v[1] <= ys <= hi[1]

    def test_sampled_tuples(self):
        rng = make_rng(96)
        for _ in range(40):
            self._check(sample_w0_params(rng, "above"))

    def test_log_domain_and_extreme_tuples(self):
        rng = make_rng(98)
        for p in [P0, P_SLOW, P_NEAR_THRESHOLD, P_HUGE_STAR, P_CORNER_UP] + [
                _log_domain_params(rng) for _ in range(400)]:
            self._check(p)

    # t = 0.5*(1 + 0.5/0.5) = 1 and t = 1*(1 + 0.5/0.5) = 2 exactly
    @pytest.mark.parametrize("p", [P_SLOW_BELOW, validate_params(0.5, 1.0, 0.5, 0.5),
                                   validate_params(0.5, 2.0, 1.0, 0.5)],
                             ids=["below", "equal", "corner"])
    def test_none_at_or_below_the_threshold(self, p):
        assert order_sandwich(p) is None

    def test_exact_above_the_band_on_the_threshold(self):
        # beta is the float above mu*(1 + d0/alpha): exactly above it, inside
        # beta_vs_threshold's band, so there is no positive fixed point and
        # basin_raster asks settles_near_origin instead
        assert order_sandwich(P_BOUNDARY) is not None
        assert regime_quantities(P_BOUNDARY).x_star is None

    @pytest.mark.parametrize("p", [P0, P_SLOW, P_CORNER_UP, P_HUGE_STAR],
                             ids=["p0", "slow", "corner_up", "huge_star"])
    def test_axis_lattice_cells_turn_positive_within_two_steps(self, p):
        raster = basin_raster(p, 6, 1, 1e-8)
        starts = [(x, 0.0) for x in raster.xs[1:]] + [(0.0, y) for y in raster.ys[1:]]
        for x0, y0 in starts:
            x, y = Fraction(x0), Fraction(y0)
            for _ in range(2):
                x, y = _exact_step(p, x, y)
            assert x > 0 and y > 0

    def test_positive_fixed_point_implies_the_exact_test(self):
        # beta within 1e-14 to 1e-10 of the threshold, relative, on both
        # sides, so about half the tuples above it fall in beta_vs_threshold's
        # band of 1e-12: wherever the float regime finds x*, beta > t exactly
        rng = make_rng(95)
        found = 0
        for _ in range(2000):
            q = _log_domain_params(rng)
            t = q.mu * (1.0 + q.d0 / q.alpha)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            rel = sign * 10.0 ** rng.uniform(-14.0, -10.0)
            p = validate_params(q.alpha, t * (1.0 + rel), q.mu, q.d0)
            if regime_quantities(p).x_star is not None:
                found += 1
                assert order_sandwich(p) is not None
        assert found > 300


class TestBoxRaster:
    """Above the threshold `basin_raster` takes its codes from the order
    sandwich; `classify_batch` keeps the stopping rule, the second route."""

    # the rule runs the scalar loop alone at grid 6, the vector loop at grid
    # 20, and compacts the vector loop's lanes at grid 64; the raster runs
    # neither, whatever MOSQDYN_THREADS holds.  Nothing reads the variable
    # any more, so one value is enough; it keeps its test id
    @pytest.mark.parametrize("workers", ["3"], ids=["threads_3"])
    @pytest.mark.parametrize("grid_n", [6, 20, 64])
    def test_codes_equal_the_rule_wherever_it_decides(self, monkeypatch, grid_n,
                                                      workers):
        monkeypatch.setenv("MOSQDYN_THREADS", workers)
        rng = make_rng(97)
        for p in [P0, P_SLOW] + [sample_w0_params(rng, "above") for _ in range(4)]:
            assert regime_quantities(p).x_star is not None
            raster = basin_raster(p, grid_n, 2000, 1e-8)
            gx, gy = np.meshgrid(raster.xs, raster.ys)
            want, _, _, _ = classify_batch(p, gx, gy, 2000, 1e-8)
            decided = want != int(OmegaLimitClass.UNDETERMINED)
            assert np.array_equal(raster.codes[decided], want[decided])

    def test_budget_exhausted_lanes_in_the_box_get_code_1(self, capsys):
        # at P0 every lane but the origin needs more than 50 steps to meet
        # the stopping rule; the proof needs none
        argv = ["basin", "--alpha", "0.5", "--beta", "2.0", "--mu", "0.8",
                "--d0", "0.3", "--grid-n", "6", "--max-iter", "50"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "0,1,1,1,1,1" and all(r == "1,1,1,1,1,1" for r in rows[1:])
        raster = basin_raster(P0, 6, 50, 1e-8)
        gx, gy = np.meshgrid(raster.xs, raster.ys)
        want, _, _, _ = classify_batch(P0, gx, gy, 50, 1e-8)
        assert np.count_nonzero(want == int(OmegaLimitClass.UNDETERMINED)) == 35

    #: P0 grid 6 flags -> (cells the rule leaves at 3, cells other than the
    #: origin it sends to 0).  The budget runs out, a lane near the repelling
    #: origin stops there, or at tol 1 every lane is near both fixed points.
    RULE_MISSES = {"max_iter_1": (["--max-iter", "1"], 35, 0),
                   "tol_0.03": (["--tol", "0.03"], 0, 1),
                   "tol_0.1": (["--tol", "0.1"], 7, 2),
                   "tol_1": (["--tol", "1"], 36, 0)}

    @pytest.mark.parametrize("case", list(RULE_MISSES))
    def test_cells_the_rule_misses_read_the_proven_limit(self, case, capsys):
        flags, undetermined, false_origin = self.RULE_MISSES[case]
        argv = ["basin", "--alpha", "0.5", "--beta", "2.0", "--mu", "0.8",
                "--d0", "0.3", "--grid-n", "6", *flags]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "0,1,1,1,1,1" and all(r == "1,1,1,1,1,1" for r in rows[1:])
        max_iter = int(flags[1]) if flags[0] == "--max-iter" else 10**6
        tol = float(flags[1]) if flags[0] == "--tol" else 1e-8
        raster = basin_raster(P0, 6, max_iter, tol)
        gx, gy = np.meshgrid(raster.xs, raster.ys)
        want = classify_batch(P0, gx, gy, max_iter, tol)[0].ravel()
        assert np.count_nonzero(want == int(_UNDETERMINED)) == undetermined
        assert np.count_nonzero(want[1:] == int(_ORIGIN)) == false_origin

    def test_wide_batch_hands_its_last_lanes_to_the_lane_loop(self, monkeypatch):
        calls = []
        real = trajectory._run_lane

        def spy(p, x, y, n, *rest):
            calls.append(n)
            return real(p, x, y, n, *rest)

        monkeypatch.setattr(trajectory, "_run_lane", spy)
        p, xs, ys, max_iter, tol = _lanes("slow", 260, make_rng(91))
        codes, iters, fx, fy = classify_batch(p, xs, ys, max_iter, tol)
        handed = list(calls)
        assert 0 < len(handed) <= NARROW_LANES
        assert all(n < max_iter for n in handed)  # after some vector-loop steps
        monkeypatch.undo()
        for i in range(xs.size):
            rep = iterate(p, State(float(xs[i]), float(ys[i])), max_iter, tol,
                          stride=max_iter)
            assert OmegaLimitClass(int(codes[i])) is rep.limit
            assert int(iters[i]) == rep.iterations_used
            assert (float(fx[i]), float(fy[i])) == (rep.final.x, rep.final.y)


def _origin_tuples():
    """Tuples without a float positive fixed point: on the threshold's band
    or below it."""
    rng = make_rng(99)
    return [P_BOUNDARY, P_BELOW, P_SLOW_BELOW] + [
        sample_w0_params(rng, mode) for mode in ("at", "below") for _ in range(3)]


class TestOriginRaster:
    """On and below the threshold `basin_raster` reads 0 wherever
    `settles_near_origin` holds; `classify_batch` keeps the stopping rule,
    the second route."""

    @pytest.mark.parametrize("grid_n", [6, 20, 64])
    def test_codes_equal_the_rule_wherever_it_decides(self, grid_n):
        decided_cells = 0
        for p in _origin_tuples():
            assert regime_quantities(p).x_star is None
            raster = basin_raster(p, grid_n, 2000, 1e-5)
            gx, gy = np.meshgrid(raster.xs, raster.ys)
            want, _, _, _ = classify_batch(p, gx, gy, 2000, 1e-5)
            decided = want != int(_UNDETERMINED)
            assert np.array_equal(raster.codes[decided], want[decided])
            assert not raster.codes.any()
            decided_cells += np.count_nonzero(decided)
        assert decided_cells > grid_n * grid_n  # the rule decides many cells

    def test_exact_premises(self):
        below = band = 0
        for p in _origin_tuples():
            alpha, beta, mu, d0 = map(Fraction, (p.alpha, p.beta, p.mu, p.d0))
            if beta <= mu * (1 + d0 / alpha):
                below += 1
                for y in (alpha / mu, 2 * alpha / mu, 10**6 * alpha / mu):
                    hi = beta * y / d0, y
                    x1, y1 = _exact_step(p, *hi)
                    assert x1 <= hi[0] and y1 <= hi[1]  # F(hi) <= hi
                # a fixed point with x > 0 needs x = x* > 0, so beta > mu and
                # alpha*(beta - mu) > mu*d0; x = 0 forces y = 0
                assert beta <= mu or alpha * (beta - mu) <= mu * d0
                assert settles_near_origin(p, 5e-324)
            else:
                band += 1
                xs = alpha * (beta - mu) / (mu * d0) - 1
                ys = (alpha * (beta - mu) - mu * d0) / (mu * (beta - mu))
                assert xs > 0 and ys > 0 and _exact_step(p, xs, ys) == (xs, ys)
                assert max(xs, ys) < trajectory.NEAR_FACTOR * 1e-5
                assert settles_near_origin(p, trajectory.NEAR_FACTOR * 1e-5)
                assert not settles_near_origin(p, float(max(xs, ys)) / 2)
        assert below >= 5 and band >= 1

    def test_band_tuple_runs_no_step_at_any_tol(self, monkeypatch, capsys):
        # P_BOUNDARY's exact z* is about (4.07e-16, 2.54e-16): near = 10*tol
        # holds it at tol 1e-16, where `settles_near_origin` gives all 0s,
        # but not at 1e-17, where z* exists exactly but not in floats and
        # every cell but the origin reads 3.  No orbit loop runs at either
        def boom(*args):
            raise AssertionError("the stopping rule ran")

        for name in ("_run_lane", "_classify_wide", "classify_batch"):
            monkeypatch.setattr(trajectory, name, boom)
        raster = basin_raster(P_BOUNDARY, 6, 300, 1e-16)
        assert raster.codes.dtype == np.int8 and not raster.codes.any()
        # the proof overrides the budget, as above the threshold
        argv = ["basin", "--alpha", "0.5", "--beta", "1.2800000000000002",
                "--mu", "0.8", "--d0", "0.3"]
        assert main([*argv, "--grid-n", "6", "--max-iter", "1"]) == 0
        assert capsys.readouterr().out == "0,0,0,0,0,0\n" * 6
        assert main([*argv, "--grid-n", "6", "--max-iter", "300",
                     "--tol", "1e-17"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows == ["0,3,3,3,3,3"] + ["3,3,3,3,3,3"] * 5
        # at the default budget of 10**7 steps
        assert main([*argv, "--grid-n", "72", "--tol", "1e-17"]) == 0
        golden = Path(__file__).parent / "golden" / "basin_band_wide.csv"
        assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

    #: (tuple, grid_n, max_iter, tol) on the threshold's band at a tol below
    #: the exact fixed point: P_BOUNDARY, and tuples with beta/t - 1 = k*1e-13
    BAND_CASES = [(P_BOUNDARY, grid_n, max_iter, tol)
                  for tol in (1e-17, 4e-17) for grid_n in (2, 6, 33)
                  for max_iter in (1, 300, 20000)] + [
        (validate_params(0.5, 0.8 * (1.0 + d0 / 0.5) * (1.0 + k * 1e-13), 0.8, d0),
         12, 3000, tol)
        for d0, tol, k in ((1e-6, 1e-8, 2), (1e-6, 1e-8, 5), (1e-6, 1e-10, 1),
                           (1e-8, 1e-8, 1), (1e-8, 1e-10, 1), (1e-8, 1e-10, 5))]

    def test_band_codes_equal_the_rule(self):
        # the second route: there the rule stops no lane but the origin's
        for p, grid_n, max_iter, tol in self.BAND_CASES:
            assert beta_vs_threshold(p) == 0
            assert not settles_near_origin(p, trajectory.NEAR_FACTOR * tol)
            raster = basin_raster(p, grid_n, max_iter, tol)
            gx, gy = np.meshgrid(raster.xs, raster.ys)
            want, _, _, _ = classify_batch(p, gx, gy, max_iter, tol)
            assert np.array_equal(raster.codes, want)
            assert raster.codes[0, 0] == int(_ORIGIN)
            assert (raster.codes.ravel()[1:] == int(_UNDETERMINED)).all()
