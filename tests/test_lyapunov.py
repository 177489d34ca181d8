import math

import numpy as np
import pytest

from conftest import (
    P0,
    P_BOUNDARY,
    make_rng,
    sample_omega_state,
    sample_w0_params,
)
from mosqdyn import (
    RegionLabel,
    State,
    delta_phi_closed,
    delta_phi_direct,
    lyapunov_sample,
    monotonicity_report,
    phi,
    validate_params,
)
from mosqdyn.errors import RegimeError
from mosqdyn.lyapunov import SIGN_TOL


class TestPhi:
    def test_zero_only_at_origin(self):
        assert phi(P0, State(0.0, 0.0)) == 0.0
        assert phi(P0, State(0.0, 1e-9)) > 0.0
        assert phi(P0, State(1e-9, 0.0)) > 0.0

    def test_hand_values(self):
        assert phi(P0, State(1.5, 0.375)) == pytest.approx(1.95, rel=1e-12)
        assert phi(P0, State(1.0, 0.5)) == pytest.approx(1.8, rel=1e-12)


class TestDeltaPhiClosed:
    def test_hand_value_above_threshold(self):
        assert delta_phi_closed(P0, State(1.0, 0.7)) == pytest.approx(0.06, rel=1e-12)

    def test_vanishes_at_x_star(self):
        assert delta_phi_closed(P0, State(1.5, 0.123)) == 0.0

    def test_hand_value_on_threshold(self):
        assert delta_phi_closed(P_BOUNDARY, State(1.0, 0.9)) == pytest.approx(
            -0.12, rel=1e-12
        )

    def test_never_reads_y(self):
        for p in (P0, P_BOUNDARY):
            a = delta_phi_closed(p, State(0.7, 0.0))
            b = delta_phi_closed(p, State(0.7, 123.456))
            assert a == b  # bit-identical, not merely close

    @pytest.mark.parametrize("mode", ["above", "at", "below"])
    def test_matches_direct_difference(self, mode):
        rng = make_rng(51)
        for _ in range(4000):
            p = sample_w0_params(rng, mode)
            z = sample_omega_state(p, rng)
            closed = delta_phi_closed(p, z)
            direct = delta_phi_direct(p, z)
            scale = max(1.0, abs(phi(p, z)))
            assert abs(closed - direct) < 1e-12 * scale

    def test_sign_pattern_above_threshold(self):
        rng = make_rng(53)
        for _ in range(2000):
            p = sample_w0_params(rng, "above")
            z = sample_omega_state(p, rng)
            d = delta_phi_closed(p, z)
            from mosqdyn import regime_quantities

            x_star = regime_quantities(p).x_star
            if z.x <= x_star:
                assert d >= -1e-12
            else:
                assert d <= 1e-12

    def test_sign_on_threshold_zero_only_at_x_zero(self):
        assert delta_phi_closed(P_BOUNDARY, State(0.0, 0.4)) == 0.0
        rng = make_rng(54)
        for _ in range(500):
            x = float(rng.uniform(1e-6, 2.0))
            assert delta_phi_closed(P_BOUNDARY, State(x, 0.0)) < 0.0


class TestLyapunovSample:
    def test_bundle_is_consistent(self):
        s = lyapunov_sample(P0, State(1.0, 0.5))
        assert s.phi == pytest.approx(1.8, rel=1e-12)
        assert s.region is RegionLabel.OMEGA4
        assert abs(s.delta_closed - s.delta_direct) < 1e-12 * max(1.0, abs(s.phi))


class TestMonotonicityReport:
    def test_reference_has_no_violations(self):
        rep = monotonicity_report(P0, 10_000, seed=7)
        assert [r.region for r in rep.regions] == [RegionLabel.OMEGA1,
                                                   RegionLabel.OMEGA2]
        assert [r.claim for r in rep.regions] == ["nondecreasing", "nonincreasing"]
        assert rep.total_violations == 0

    def test_boundary_has_no_violations_on_whole_rectangle(self):
        rep = monotonicity_report(P_BOUNDARY, 10_000, seed=7)
        assert [r.region for r in rep.regions] == [RegionLabel.OMEGA_ONLY]
        assert rep.total_violations == 0

    def test_zero_samples_is_vacuous(self):
        rep = monotonicity_report(P0, 0, seed=7)
        assert rep.total_violations == 0
        assert all(r.n_samples == 0 for r in rep.regions)

    def test_negative_seed_is_a_value_error(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            monotonicity_report(P0, 10, -1)

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("MOSQDYN_THREADS", "1")
        base = monotonicity_report(P0, 5_000, seed=9)
        monkeypatch.setenv("MOSQDYN_THREADS", "3")
        assert monotonicity_report(P0, 5_000, seed=9) == base

    def test_does_not_read_thread_env(self, monkeypatch):
        base = monotonicity_report(P0, 1_000, seed=9)
        monkeypatch.setenv("MOSQDYN_THREADS", "zero")  # nothing reads it
        assert monotonicity_report(P0, 1_000, seed=9) == base

    def test_below_threshold_refused(self):
        with pytest.raises(RegimeError):
            monotonicity_report(validate_params(0.5, 1.0, 0.8, 0.3, 0.0), 10, seed=7)

    def test_random_tuples_have_no_violations(self):
        rng = make_rng(57)
        for _ in range(10):
            p = sample_w0_params(rng, "at_or_above")
            rep = monotonicity_report(p, 2_000, seed=11)
            assert rep.total_violations == 0, p


def _stub_images(monkeypatch, images):
    """Make monotonicity_report difference fresh copies of `images` per region."""
    def stub(p, region, n, seed, stream, workspace):
        assert workspace.shape == (5, n)
        return tuple(a.copy() for a in images)

    monkeypatch.setattr("mosqdyn.lyapunov._sampled_images", stub)


class TestViolationCount:
    """n_violations against a plain count, on images that break both claims."""

    def _images(self, n=4_000):
        rng = make_rng(58)
        xs, ys = rng.uniform(0.0, 4.0, n), rng.uniform(0.0, 0.6, n)
        xp = xs + rng.uniform(-1e-9, 1e-9, n)
        yp = ys + rng.uniform(-1e-9, 1e-9, n)
        xp[::7] = xs[::7]  # some increments exactly 0
        yp[::7] = ys[::7]
        return xs, ys, xp, yp

    def _deltas(self, images):
        xs, ys, xp, yp = images
        return (P0.mu * xp + P0.beta * yp) - (P0.mu * xs + P0.beta * ys)

    def test_counts_match_the_elementwise_comparison(self, monkeypatch):
        images = self._images()
        delta = self._deltas(images)
        _stub_images(monkeypatch, images)
        up, down = monotonicity_report(P0, delta.size, seed=0).regions
        assert (up.claim, down.claim) == ("nondecreasing", "nonincreasing")
        assert up.n_violations == int((delta < -SIGN_TOL).sum()) > 0
        assert down.n_violations == int((delta > SIGN_TOL).sum()) > 0
        assert up.worst_delta == delta.min() and down.worst_delta == delta.max()

    def test_no_violator_counts_zero(self, monkeypatch):
        xs, ys, xp, yp = self._images()
        images = (xs, ys, xs, ys)  # the identity map: every increment is 0
        _stub_images(monkeypatch, images)
        rep = monotonicity_report(P0, xs.size, seed=0)
        assert [r.n_violations for r in rep.regions] == [0, 0]
        assert [r.worst_delta for r in rep.regions] == [0.0, 0.0]

    def test_nan_worst_value_still_counts_every_violator(self, monkeypatch):
        xs, ys, xp, yp = images = self._images()
        xp[10] = np.nan
        delta = self._deltas(images)
        _stub_images(monkeypatch, images)
        up, down = monotonicity_report(P0, xs.size, seed=0).regions
        assert math.isnan(up.worst_delta) and math.isnan(down.worst_delta)
        assert up.worst_point == down.worst_point == (xs[10], ys[10])
        assert up.n_violations == int((delta < -SIGN_TOL).sum()) > 0
        assert down.n_violations == int((delta > SIGN_TOL).sum()) > 0
