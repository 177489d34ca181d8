import math

import numpy as np
import pytest

from conftest import P0, make_rng, sample_w0_params
from mosqdyn import State, emergence_response, step_general, step_w0, validate_params
from mosqdyn.core import (
    CLAMP_TOL,
    _clamp,
    _clamp_into,
    step_w0_batch,
    step_w0_into,
    step_w0_raw,
)
from mosqdyn.errors import (
    DomainError,
    NegativeDeathError,
    NonFiniteError,
    NonPositiveRateError,
    RegimeError,
)


class TestValidateParams:
    def test_reference_set_is_in_restricted_regime(self):
        p = validate_params(0.5, 2.0, 0.8, 0.3, 0.0)
        assert p.w0_regime

    def test_quadratic_death_clears_the_flag(self):
        assert not validate_params(0.5, 2.0, 0.8, 0.3, 0.1).w0_regime

    def test_mu_above_one_clears_the_flag_but_is_accepted(self):
        p = validate_params(0.5, 2.0, 1.5, 0.3, 0.0)
        assert not p.w0_regime
        assert p.mu == 1.5

    def test_zero_d0_clears_the_flag(self):
        assert not validate_params(0.5, 2.0, 0.8, 0.0, 0.0).w0_regime

    def test_alpha_plus_d0_above_one_clears_the_flag(self):
        assert not validate_params(0.8, 2.0, 0.8, 0.3, 0.0).w0_regime

    @pytest.mark.parametrize("field,args", [
        ("alpha", (0.0, 2.0, 0.8, 0.3, 0.0)),
        ("alpha", (-0.5, 2.0, 0.8, 0.3, 0.0)),
        ("beta", (0.5, -2.0, 0.8, 0.3, 0.0)),
        ("mu", (0.5, 2.0, 0.0, 0.3, 0.0)),
    ])
    def test_nonpositive_rates_rejected(self, field, args):
        with pytest.raises(NonPositiveRateError) as exc:
            validate_params(*args)
        assert exc.value.param == field

    def test_negative_death_rejected(self):
        with pytest.raises(NegativeDeathError):
            validate_params(0.5, 2.0, 0.8, -0.3, 0.0)
        with pytest.raises(NegativeDeathError):
            validate_params(0.5, 2.0, 0.8, 0.3, -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "x", None])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            validate_params(bad, 2.0, 0.8, 0.3, 0.0)


class TestState:
    def test_rejects_negative_coordinates(self):
        with pytest.raises(DomainError):
            State(-0.1, 0.5)
        with pytest.raises(DomainError):
            State(0.1, -0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            State(float("nan"), 0.0)


class TestEmergenceResponse:
    def test_zero(self):
        assert emergence_response(0.0) == 0.0

    def test_half_saturation(self):
        assert emergence_response(1.0) == 0.5

    def test_limit(self):
        assert emergence_response(1e6) == pytest.approx(0.999999, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            emergence_response(-0.5)

    def test_monotone(self):
        rng = make_rng(11)
        xs = np.sort(rng.uniform(0.0, 1e3, 500))
        ks = [emergence_response(float(x)) for x in xs]
        assert all(a < b for a, b in zip(ks, ks[1:]))


class TestStepGeneral:
    def test_origin_always_fixed(self):
        assert step_general(P0, State(0.0, 0.0)) == (0.0, 0.0)

    def test_hand_value(self):
        xp, yp = step_general(P0, State(1.0, 0.5))
        assert xp == pytest.approx(1.45, abs=1e-12)
        assert yp == pytest.approx(0.35, abs=1e-12)

    def test_quadratic_death_subtracts_d1_x_squared(self):
        p = validate_params(0.5, 2.0, 0.8, 0.3, 0.1)
        xp, yp = step_general(p, State(1.0, 0.5))
        assert xp == pytest.approx(1.35, abs=1e-12)
        assert yp == pytest.approx(0.35, abs=1e-12)

    def test_returns_plain_pair_even_when_negative(self):
        # outside the restricted regime the image may leave the quadrant
        p = validate_params(0.9, 0.1, 0.8, 0.9, 0.0)
        xp, _ = step_general(p, State(1.0, 0.0))
        assert xp < 0.0


class TestStepW0:
    def test_origin_fixed(self):
        z = step_w0(P0, State(0.0, 0.0))
        assert (z.x, z.y) == (0.0, 0.0)

    def test_positive_fixed_point_residual(self):
        z = step_w0(P0, State(1.5, 0.375))
        assert abs(z.x - 1.5) < 1e-12
        assert abs(z.y - 0.375) < 1e-12

    def test_hand_value(self):
        z = step_w0(P0, State(1.0, 0.5))
        assert z.x == pytest.approx(1.45, abs=1e-12)
        assert z.y == pytest.approx(0.35, abs=1e-12)

    def test_regime_enforced(self):
        p = validate_params(0.5, 2.0, 0.8, 0.3, 0.1)
        with pytest.raises(RegimeError):
            step_w0(p, State(1.0, 0.5))

    def test_matches_general_within_four_ulps(self):
        rng = make_rng(7)
        for _ in range(2000):
            p = sample_w0_params(rng, "above")
            z = State(float(rng.uniform(0, 1e3)), float(rng.uniform(0, 1e3)))
            gx, gy = step_general(p, z)
            w = step_w0(p, z)
            assert abs(w.x - gx) <= 4 * math.ulp(max(abs(gx), 1e-300))
            assert abs(w.y - gy) <= 4 * math.ulp(max(abs(gy), 1e-300))

    def test_quadrant_preserved_on_large_box(self):
        # 100 parameter sets x 1000 points = 1e5 random (p, z) pairs
        rng = make_rng(13)
        for _ in range(100):
            p = sample_w0_params(rng, "above")
            xs = rng.uniform(0.0, 1e3, 1000)
            ys = rng.uniform(0.0, 1e3, 1000)
            xp, yp = step_w0_batch(p, xs, ys)  # raises if < -1e-12 anywhere
            assert np.all(xp >= 0.0)
            assert np.all(yp >= 0.0)

    def test_out_form_matches_raw_bit_for_bit(self):
        rng = make_rng(14)
        for _ in range(50):
            p = sample_w0_params(rng, "at_or_above")
            xs = np.concatenate([[0.0, 1e-300], rng.uniform(0.0, 1e3, 200),
                                 rng.uniform(0.0, 1e-6, 50)])
            ys = rng.permutation(xs)
            xn, yn, em = np.empty_like(xs), np.empty_like(xs), np.empty_like(xs)
            step_w0_into(p, xs, ys, xn, yn, em)
            rx, ry = step_w0_raw(p, xs, ys)
            assert xn.tobytes() == rx.tobytes()
            assert yn.tobytes() == ry.tobytes()

    def test_clamp_tolerance(self):
        assert _clamp(-0.5 * CLAMP_TOL) == 0.0
        assert _clamp(0.0) == 0.0
        with pytest.raises(DomainError):
            _clamp(-10 * CLAMP_TOL)

    def test_batch_matches_step_w0_lane_by_lane(self):
        # 40 parameter sets x 252 lanes, about 1e4 (p, z) pairs; compared as
        # bytes, so a clamped lane must be +0.0 on both sides.  With
        # alpha + d0 = 1, y = 0 and x below 1e-14 the x image rounds to a
        # tiny negative in about a third of the lanes.
        rng = make_rng(15)
        clamped = 0
        for k in range(40):
            p = sample_w0_params(rng, "at_or_above")
            if k % 4 == 0:
                p = validate_params(p.alpha, p.beta, p.mu, 1.0 - p.alpha)
            xs = np.concatenate([[0.0, 1e-300], rng.uniform(0.0, 1e3, 150),
                                 rng.uniform(0.0, 1e-6, 50),
                                 10.0 ** rng.uniform(-20.0, -14.0, 50)])
            ys = rng.permutation(xs)
            ys[-50:] = 0.0
            clamped += int((step_w0_raw(p, xs, ys)[0] < 0.0).sum())
            xp, yp = step_w0_batch(p, xs, ys)
            images = [step_w0(p, State(x, y)) for x, y in zip(xs, ys)]
            assert xp.tobytes() == np.array([z.x for z in images]).tobytes()
            assert yp.tobytes() == np.array([z.y for z in images]).tobytes()
        assert clamped > 0


class TestClampInto:
    def test_noise_becomes_positive_zero(self):
        x = np.array([-0.5 * CLAMP_TOL, 1.0, -CLAMP_TOL])
        y = np.array([2.0, -1e-300, 0.0])
        _clamp_into(x, y)
        assert x.tolist() == [0.0, 1.0, 0.0]
        assert y.tolist() == [2.0, 0.0, 0.0]
        assert not np.signbit(x).any() and not np.signbit(y).any()

    @pytest.mark.parametrize("coord", [0, 1])
    def test_beyond_tolerance_raises(self, coord):
        pair = [np.array([1.0, -0.5 * CLAMP_TOL]), np.array([1.0, 2.0])]
        pair[coord][0] = -10 * CLAMP_TOL
        with pytest.raises(DomainError):
            _clamp_into(*pair)

    def test_nan_lanes_are_left_untouched(self):
        x = np.array([np.nan, -0.5 * CLAMP_TOL, 3.0])
        y = np.array([np.nan, np.nan, -0.5 * CLAMP_TOL])
        _clamp_into(x, y)
        assert np.isnan(x[0]) and np.isnan(y[0]) and np.isnan(y[1])
        assert x[1:].tolist() == [0.0, 3.0] and y[2] == 0.0
