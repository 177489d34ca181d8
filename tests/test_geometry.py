import math

import numpy as np
import pytest

from conftest import P0, P_BOUNDARY, make_rng, sample_w0_params
from mosqdyn import (
    RegionLabel,
    State,
    check_invariance,
    omega_bounds,
    region_of,
    validate_params,
)
from mosqdyn.core import step_w0_batch
from mosqdyn.errors import NotClaimedInvariantError, RegimeError
from mosqdyn import geometry
from mosqdyn.geometry import (
    CONTAINMENT_TOL,
    RegionViolation,
    _region_codes,
    _region_in,
    region_box,
    sample_region,
)


class TestOmegaBounds:
    def test_reference_values(self):
        b = omega_bounds(P0)
        assert b.x_max == pytest.approx(25.0 / 6.0, rel=1e-12)
        assert b.y_max == pytest.approx(0.625, rel=1e-12)
        assert b.x_star == pytest.approx(1.5, rel=1e-12)
        assert b.y_star == pytest.approx(0.375, rel=1e-12)

    def test_boundary_values(self):
        b = omega_bounds(P_BOUNDARY)
        assert b.x_max == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert b.y_max == pytest.approx(0.625, rel=1e-12)
        assert b.x_star is None and b.y_star is None

    def test_y_max_times_mu_is_alpha(self):
        assert omega_bounds(P0).y_max * P0.mu == P0.alpha
        rng = make_rng(31)
        for _ in range(500):
            p = sample_w0_params(rng, "above")
            prod = omega_bounds(p).y_max * p.mu
            # one rounded division followed by one rounded multiplication
            assert abs(prod - p.alpha) <= 2 * math.ulp(p.alpha)

    def test_requires_restricted_regime(self):
        from mosqdyn import validate_params

        with pytest.raises(RegimeError):
            omega_bounds(validate_params(0.5, 2.0, 1.5, 0.3, 0.0))


class TestRegionOf:
    def test_origin_in_omega1(self):
        assert region_of(P0, State(0.0, 0.0)) is RegionLabel.OMEGA1

    def test_example_in_omega3(self):
        assert region_of(P0, State(2.0, 0.2)) is RegionLabel.OMEGA3

    def test_example_outside(self):
        assert region_of(P0, State(5.0, 0.1)) is RegionLabel.OUTSIDE_OMEGA

    def test_boundary_tie_breaking(self):
        # the shared corner belongs to the first closed box
        assert region_of(P0, State(1.5, 0.375)) is RegionLabel.OMEGA1
        # edges shared between a closed and a half-open box go to the closed one
        assert region_of(P0, State(1.5, 0.5)) is RegionLabel.OMEGA2
        assert region_of(P0, State(2.0, 0.375)) is RegionLabel.OMEGA2
        assert region_of(P0, State(1.5, 0.2)) is RegionLabel.OMEGA1
        assert region_of(P0, State(1.0, 0.375)) is RegionLabel.OMEGA1

    def test_whole_rectangle_when_not_subdivided(self):
        assert region_of(P_BOUNDARY, State(1.0, 0.3)) is RegionLabel.OMEGA_ONLY
        assert region_of(P_BOUNDARY, State(3.0, 0.3)) is RegionLabel.OUTSIDE_OMEGA

    def test_star_sits_strictly_inside_the_rectangle(self):
        rng = make_rng(36)
        for _ in range(500):
            b = omega_bounds(sample_w0_params(rng, "above"))
            assert b.x_max > 0.0 and b.y_max > 0.0
            assert 0.0 < b.x_star < b.x_max
            assert 0.0 < b.y_star < b.y_max

    def test_total_and_consistent_with_bounds(self):
        rng = make_rng(37)
        for _ in range(20):
            p = sample_w0_params(rng, "above")
            b = omega_bounds(p)
            xs = rng.uniform(0.0, 2.0 * b.x_max, 200)
            ys = rng.uniform(0.0, 2.0 * b.y_max, 200)
            for x, y in zip(xs, ys):
                label = region_of(p, State(float(x), float(y)))
                inside = x <= b.x_max and y <= b.y_max
                assert inside == (label is not RegionLabel.OUTSIDE_OMEGA)


def _edge_values(star, top):
    """Signed zeros, the subdivision point and the top edge, each with its
    float neighbours, and a value far outside."""
    values = [-0.0, 0.0, math.nextafter(top, 0.0), top, math.nextafter(top, math.inf),
              2.0 * top]
    if star is not None:
        values += [math.nextafter(star, 0.0), star, math.nextafter(star, math.inf)]
    return values


class TestRegionCodes:
    """The vector labeller against `_region_in`, element by element."""

    @pytest.mark.parametrize("p", [
        P0, P_BOUNDARY, validate_params(0.5, 1.0, 0.8, 0.3),
        sample_w0_params(make_rng(38), "above"),
    ], ids=["p0", "at_threshold", "below_threshold", "sampled"])
    def test_matches_scalar_labeller(self, p):
        b = omega_bounds(p)
        edges = [(x, y) for x in _edge_values(b.x_star, b.x_max)
                 for y in _edge_values(b.y_star, b.y_max)]
        rng = make_rng(39)
        sampled = zip(rng.uniform(0.0, 1.5 * b.x_max, 500).tolist(),
                      rng.uniform(0.0, 1.5 * b.y_max, 500).tolist())
        points = edges + list(sampled)
        xs, ys = (np.array(c) for c in zip(*points))
        codes = _region_codes(b, xs, ys)
        got = [tuple(RegionLabel)[c] for c in codes.tolist()]
        want = [_region_in(b, State(x, y)) for x, y in points]
        assert got == want
        labels = set(want)
        assert RegionLabel.OUTSIDE_OMEGA in labels
        if b.x_star is None:
            assert labels == {RegionLabel.OMEGA_ONLY, RegionLabel.OUTSIDE_OMEGA}
        else:
            assert len(labels) == 5  # all four subregions


class TestCheckInvariance:
    @pytest.mark.parametrize("region", [
        RegionLabel.OMEGA1, RegionLabel.OMEGA2, RegionLabel.OMEGA_ONLY,
    ])
    def test_claimed_regions_hold_at_reference(self, region):
        report = check_invariance(P0, region, 10_000, seed=1)
        assert report.violations == ()
        assert report.max_excursion <= 1e-12

    def test_whole_rectangle_holds_on_boundary_tuple(self):
        report = check_invariance(P_BOUNDARY, RegionLabel.OMEGA_ONLY, 10_000, seed=1)
        assert report.violations == ()

    def test_random_tuples_hold(self):
        rng = make_rng(41)
        for _ in range(10):
            p = sample_w0_params(rng, "above")
            for region in (RegionLabel.OMEGA1, RegionLabel.OMEGA2,
                           RegionLabel.OMEGA_ONLY):
                report = check_invariance(p, region, 2_000, seed=3)
                assert report.violations == (), (p, region)

    def test_images_stay_strictly_inside_rectangle(self):
        # the analytic margins are macroscopic, not rounding-level
        b = omega_bounds(P0)
        xs, ys = sample_region(P0, RegionLabel.OMEGA_ONLY, 20_000, seed=5)
        xp, yp = step_w0_batch(P0, xs, ys)
        assert float(xp.max()) < b.x_max
        assert float(yp.max()) < b.y_max

    def test_unclaimed_regions_refused(self):
        for region in (RegionLabel.OMEGA3, RegionLabel.OMEGA4,
                       RegionLabel.OUTSIDE_OMEGA):
            with pytest.raises(NotClaimedInvariantError):
                check_invariance(P0, region, 100, seed=1)

    def test_subdivided_region_needs_beta_above_threshold(self):
        with pytest.raises(RegimeError):
            check_invariance(P_BOUNDARY, RegionLabel.OMEGA1, 100, seed=1)

    def test_deterministic_given_seed(self):
        a = check_invariance(P0, RegionLabel.OMEGA1, 5_000, seed=9)
        b = check_invariance(P0, RegionLabel.OMEGA1, 5_000, seed=9)
        assert a == b

    def test_negative_seed_is_a_value_error(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            check_invariance(P0, RegionLabel.OMEGA_ONLY, 10, -1)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        base = check_invariance(P0, RegionLabel.OMEGA2, 5_000, seed=9)
        monkeypatch.setenv("MOSQDYN_THREADS", "3")
        threaded = check_invariance(P0, RegionLabel.OMEGA2, 5_000, seed=9)
        assert base == threaded

    def test_does_not_read_thread_env(self, monkeypatch):
        base = check_invariance(P0, RegionLabel.OMEGA_ONLY, 1_000, seed=9)
        monkeypatch.setenv("MOSQDYN_THREADS", "zero")  # refused where it is read
        assert check_invariance(P0, RegionLabel.OMEGA_ONLY, 1_000, seed=9) == base


def _edge_images(box):
    """Images on, just inside and just outside every edge of a box."""
    x_lo, x_hi, y_lo, y_hi = box
    xm, ym = 0.5 * (x_lo + x_hi), 0.5 * (y_lo + y_hi)
    pts = [(xm, ym), (x_lo, ym), (x_hi, ym), (xm, y_lo), (xm, y_hi),
           (x_lo, y_lo), (x_hi, y_hi), (-0.0, ym), (0.0, ym), (xm, -0.0),
           (xm, 0.0), (-0.0, -0.0)]
    for d in (1e-13, 1e-11, 0.25):
        pts += [(x_lo - d, ym), (x_hi + d, ym), (xm, y_lo - d), (xm, y_hi + d),
                (x_lo - d, y_hi + 2 * d)]
    return tuple(np.array(c) for c in zip(*pts))


def _reference_excursion(box, xp, yp):
    """The stacked maximum check_invariance took before the running one."""
    x_lo, x_hi, y_lo, y_hi = box
    return np.maximum.reduce([
        x_lo - xp, xp - x_hi, y_lo - yp, yp - y_hi, np.zeros_like(xp),
    ])


class TestExcursionMatchesStackedMaximum:
    def _compare(self, monkeypatch, region, box, xp, yp):
        xs, ys = xp + 0.5, yp + 0.25  # any distinct preimages will do
        monkeypatch.setattr(geometry, "_sampled_images",
                            lambda *args: (xs, ys, xp, yp))
        report = check_invariance(P0, region, xp.size, seed=0)
        ex = _reference_excursion(box, xp, yp)
        want = tuple(
            RegionViolation(int(i), float(xs[i]), float(ys[i]), float(xp[i]),
                            float(yp[i]), float(ex[i]))
            for i in np.flatnonzero(ex > CONTAINMENT_TOL)
        )
        assert repr(report.violations) == repr(want)
        assert repr(report.max_excursion) == repr(float(ex.max()) if ex.size else 0.0)
        return report

    @pytest.mark.parametrize("region", [
        RegionLabel.OMEGA1, RegionLabel.OMEGA2, RegionLabel.OMEGA_ONLY,
    ])
    def test_edges_and_violators(self, monkeypatch, region):
        box = region_box(P0, region)
        report = self._compare(monkeypatch, region, box, *_edge_images(box))
        assert len(report.violations) >= 8

    def test_inside_only_and_empty(self, monkeypatch):
        box = region_box(P0, RegionLabel.OMEGA_ONLY)
        xp, yp = _edge_images(box)
        keep = slice(0, 7)
        report = self._compare(monkeypatch, RegionLabel.OMEGA_ONLY, box,
                               xp[keep], yp[keep])
        assert report.violations == () and repr(report.max_excursion) == "0.0"
        self._compare(monkeypatch, RegionLabel.OMEGA_ONLY, box,
                      np.empty(0), np.empty(0))

    def test_nan_image(self, monkeypatch):
        box = region_box(P0, RegionLabel.OMEGA1)
        xp, yp = _edge_images(box)
        xp[3] = np.nan
        report = self._compare(monkeypatch, RegionLabel.OMEGA1, box, xp, yp)
        assert math.isnan(report.max_excursion)

    def test_signed_zero_bounds(self, monkeypatch):
        # a box with -0.0 edges makes x_lo - xp a -0.0 that ties with the
        # final +0.0, so the tie-break of the maximum shows in the result
        box = (-0.0, 1.0, -0.0, 1.0)
        monkeypatch.setattr(geometry, "region_box", lambda p, region: box)
        xp, yp = np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.5, 0.0])
        report = self._compare(monkeypatch, RegionLabel.OMEGA_ONLY, box, xp, yp)
        assert report.violations == () and repr(report.max_excursion) == "0.0"


class TestSampling:
    def test_samples_fall_in_the_region_box(self):
        xs, ys = sample_region(P0, RegionLabel.OMEGA2, 1_000, seed=2)
        x_lo, x_hi, y_lo, y_hi = region_box(P0, RegionLabel.OMEGA2)
        assert np.all((xs >= x_lo) & (xs <= x_hi))
        assert np.all((ys >= y_lo) & (ys <= y_hi))

    def test_streams_are_independent_of_each_other(self):
        xs1, _ = sample_region(P0, RegionLabel.OMEGA1, 100, seed=2)
        xs2, _ = sample_region(P0, RegionLabel.OMEGA2, 100, seed=2)
        assert not np.array_equal(xs1, xs2)
