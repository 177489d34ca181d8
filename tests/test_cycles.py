import math

import numpy as np
import pytest

from conftest import P0, P_B0_NEG, P_BOUNDARY, make_rng, sample_w0_params
from mosqdyn import (
    State,
    brute_force_cycle_search,
    cycle_coefficients,
    no_cycle_certificate,
    quartic_residual,
    reduced_quadratic,
    regime_quantities,
    shifted_quadratic,
    step_w0,
    two_cycle_y_of_x,
    validate_params,
)
from mosqdyn import cycles
from mosqdyn.core import step_w0_raw
from mosqdyn.cycles import (
    CertificateBranch,
    _newton_cycle_batch,
    _newton_cycles,
    _reduced_quadratic_routes,
    _shifted_quadratic_routes,
)
from mosqdyn.equilibria import beta_vs_threshold, order_sandwich
from mosqdyn.errors import BranchError, CertificateFailure, RegimeError


class TestCoefficients:
    def test_reference_block(self):
        c = cycle_coefficients(P0)
        assert c.d == pytest.approx(0.84, rel=1e-12)
        assert c.a0 == pytest.approx(67.0 / 35.0, rel=1e-12)
        assert c.a3 == pytest.approx(102.0 / 175.0, rel=1e-12)
        assert c.b1 == pytest.approx(6834.0 / 6125.0, rel=1e-12)
        assert c.b0 == pytest.approx(8.0 / 17.0, rel=1e-12)
        assert c.b1 == c.a0 * c.a3  # composed exactly this way

    def test_denominator_positive_whenever_beta_at_least_threshold(self):
        rng = make_rng(61)
        for _ in range(2000):
            p = sample_w0_params(rng, "at_or_above")
            assert cycle_coefficients(p).d > 0.0

    def test_a2_always_negative(self):
        rng = make_rng(62)
        for _ in range(1000):
            p = sample_w0_params(rng, "at_or_above")
            assert cycle_coefficients(p).a2 < 0.0

    def test_below_threshold_refused(self):
        with pytest.raises(RegimeError):
            cycle_coefficients(validate_params(0.5, 1.0, 0.8, 0.3, 0.0))

    def test_degenerate_corner_is_a_certificate_failure(self):
        # mu = 1, alpha + d0 = 1 with beta on the threshold: D = 0, so the
        # elimination is undefined and no certificate can be built
        corner = validate_params(0.5, 2.0, 1.0, 0.5, 0.0)
        for build in (cycle_coefficients, no_cycle_certificate):
            with pytest.raises(CertificateFailure, match="D = 0"):
                build(corner)


class TestTwoCycleYOfX:
    def test_zero_at_zero(self):
        assert two_cycle_y_of_x(P0, 0.0) == 0.0

    def test_reproduces_fixed_point(self):
        assert two_cycle_y_of_x(P0, 1.5) == pytest.approx(0.375, rel=1e-12)
        rng = make_rng(63)
        for _ in range(500):
            p = sample_w0_params(rng, "above")
            rq = regime_quantities(p)
            assert two_cycle_y_of_x(p, rq.x_star) == pytest.approx(
                rq.y_star, rel=1e-9, abs=1e-12
            )

    def test_hand_value(self):
        # (0.51*2 - 0.75) / (2*0.84)
        assert two_cycle_y_of_x(P0, 1.0) == pytest.approx(0.27 / 1.68, rel=1e-12)

    def test_solves_the_summed_iterate_identity(self):
        # y(x) was eliminated from x + y = x'' + y''; check that directly
        rng = make_rng(64)
        for _ in range(500):
            p = sample_w0_params(rng, "at_or_above")
            x = float(rng.uniform(0.0, 5.0))
            y = two_cycle_y_of_x(p, x)
            x1, y1 = step_w0_raw(p, x, y)
            x2, y2 = step_w0_raw(p, x1, y1)
            assert x2 + y2 == pytest.approx(x + y, rel=1e-9, abs=1e-9)


class TestQuartic:
    def test_zero_at_zero(self):
        assert quartic_residual(P0, 0.0) == 0.0

    def test_vanishes_at_x_star(self):
        c = cycle_coefficients(P0)
        scale = max(abs(c.b1) * 1.5**4, abs(c.b2) * 1.5**3,
                    abs(c.b3) * 1.5**2, abs(c.b4) * 1.5)
        assert abs(quartic_residual(P0, 1.5)) < 1e-9 * scale

    def test_value_at_one_is_coefficient_sum(self):
        c = cycle_coefficients(P0)
        assert quartic_residual(P0, 1.0) == pytest.approx(
            c.b1 + c.b2 + c.b3 + c.b4, rel=1e-12
        )

    def test_vanishes_at_x_star_for_random_tuples(self):
        rng = make_rng(65)
        for _ in range(500):
            p = sample_w0_params(rng, "above")
            xs = regime_quantities(p).x_star
            c = cycle_coefficients(p)
            scale = max(1.0, abs(c.b1) * xs**4, abs(c.b2) * xs**3,
                        abs(c.b3) * xs**2, abs(c.b4) * xs)
            assert abs(quartic_residual(p, xs)) < 1e-9 * scale


class TestReducedQuadratic:
    def test_two_routes_agree(self):
        rng = make_rng(66)
        for _ in range(1000):
            p = sample_w0_params(rng, "at_or_above")
            composed, closed = _reduced_quadratic_routes(p, cycle_coefficients(p))
            for a, b in zip(composed, closed):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_middle_coefficient_sign_factor_at_reference(self):
        # (2-mu)*(2-d0) - alpha*(2+beta-mu) = 1.2*1.7 - 0.5*3.2 = 0.44
        g = (2 - P0.mu) * (2 - P0.d0) - P0.alpha * (2 + P0.beta - P0.mu)
        assert g == pytest.approx(0.44, rel=1e-12)

    def test_deflation_against_polynomial_division(self):
        rng = make_rng(67)
        for _ in range(300):
            p = sample_w0_params(rng, "above")
            c = cycle_coefficients(p)
            xs = regime_quantities(p).x_star
            quotient, remainder = np.polydiv(
                [c.b1, c.b2, c.b3, c.b4, 0.0], [1.0, -xs, 0.0]
            )
            got = reduced_quadratic(p)
            assert got == pytest.approx(tuple(quotient), rel=1e-9, abs=1e-9)
            scale = max(1.0, float(np.max(np.abs(quotient))))
            assert np.max(np.abs(remainder)) < 1e-9 * scale

    def test_deflation_identity_at_sampled_abscissae(self):
        rng = make_rng(68)
        for _ in range(100):
            p = sample_w0_params(rng, "above")
            q2, q1, q0 = reduced_quadratic(p)
            xs = regime_quantities(p).x_star
            c = cycle_coefficients(p)
            x = rng.uniform(0.0, float(np.maximum(1.0, 2.0 * xs)), 1000)
            quart = x * (((c.b1 * x + c.b2) * x + c.b3) * x + c.b4)
            rebuilt = x * (x - xs) * ((q2 * x + q1) * x + q0)
            scale = np.maximum(1.0, np.max(
                [np.abs(c.b1) * x**4, np.abs(c.b2) * x**3,
                 np.abs(c.b3) * x**2, np.abs(c.b4) * x], axis=0))
            assert np.all(np.abs(quart - rebuilt) < 1e-9 * scale)

    def test_all_positive_on_nonpositive_b0_branch(self):
        assert cycle_coefficients(P_B0_NEG).b0 == pytest.approx(-0.2, rel=1e-12)
        assert all(v > 0.0 for v in reduced_quadratic(P_B0_NEG))


class TestShiftedQuadratic:
    def test_leading_coefficient_unchanged(self):
        c = cycle_coefficients(P0)
        assert shifted_quadratic(P0)[0] == c.b1

    def test_two_routes_agree(self):
        rng = make_rng(69)
        n_checked = 0
        for _ in range(2000):
            p = sample_w0_params(rng, "at_or_above")
            if cycle_coefficients(p).b0 <= 0.0:
                continue
            shifted, closed = _shifted_quadratic_routes(p, cycle_coefficients(p))
            for a, b in zip(shifted, closed):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
            n_checked += 1
        assert n_checked > 100

    def test_reference_inequalities(self):
        be, mu, d0 = P0.beta, P0.mu, P0.d0
        assert (be - mu) * (1 - d0) == pytest.approx(0.84, rel=1e-12)
        assert (be - mu) * (1 - d0) > d0
        assert (be - mu) ** 2 * (1 - d0) == pytest.approx(1.008, rel=1e-12)
        assert (be - mu + 1) * d0**2 == pytest.approx(0.198, rel=1e-12)

    def test_branch_error_when_b0_nonpositive(self):
        with pytest.raises(BranchError):
            shifted_quadratic(P_B0_NEG)


class TestImplicationChains:
    def test_chains_hold_on_random_tuples(self):
        rng = make_rng(71)
        for _ in range(2000):
            p = sample_w0_params(rng, "at_or_above")
            al, be, mu, d0 = p.alpha, p.beta, p.mu, p.d0
            b0 = cycle_coefficients(p).b0
            if b0 <= 0.0:
                assert (2 - mu) * (2 - d0) - al * (2 + be - mu) >= -1e-12
            else:
                assert (be - mu) * (1 - d0) > d0
                assert (be - mu) ** 2 * (1 - d0) > (be - mu + 1) * d0**2


class TestCertificate:
    def test_reference_certificate(self):
        cert = no_cycle_certificate(P0)
        assert cert.branch is CertificateBranch.B0_POSITIVE
        assert cert.all_positive
        assert cert.coefficients[0] == pytest.approx(6834.0 / 6125.0, rel=1e-12)

    def test_nonpositive_b0_witness_found_by_grid_scan(self):
        # scan the admissible box for tuples where the recentering branch
        # is not needed; the witness parameter set must be among them
        witnesses = []
        for alpha in np.linspace(0.1, 0.9, 9):
            for d0 in np.linspace(0.1, 1.0 - alpha, 5):
                if d0 <= 0.0:
                    continue
                for mu in np.linspace(0.1, 1.0, 5):
                    t = mu * (1.0 + d0 / alpha)
                    upper = mu - d0 + d0 * (2.0 - d0) / alpha
                    if upper <= t + 1e-6:
                        # the gap closes only on the degenerate corner
                        # mu = 1, alpha + d0 = 1, where D = 0
                        continue
                    p = validate_params(alpha, 0.5 * (t + upper), mu, d0, 0.0)
                    if cycle_coefficients(p).b0 <= 0.0:
                        witnesses.append(p)
        assert witnesses, "B0 <= 0 is reachable inside the admissible box"
        for p in witnesses:
            cert = no_cycle_certificate(p)
            assert cert.branch is CertificateBranch.B0_NON_POSITIVE
            assert cert.all_positive

    def test_recorded_witness(self):
        cert = no_cycle_certificate(P_B0_NEG)
        assert cert.branch is CertificateBranch.B0_NON_POSITIVE
        assert cert.all_positive

    @pytest.mark.parametrize("p, branch", [
        (P0, CertificateBranch.B0_POSITIVE),
        (P_B0_NEG, CertificateBranch.B0_NON_POSITIVE),
    ], ids=["b0_positive", "b0_non_positive"])
    def test_coefficients_computed_once(self, monkeypatch, p, branch):
        calls = []
        real = cycles.cycle_coefficients

        def spy(q):
            calls.append(q)
            return real(q)

        monkeypatch.setattr(cycles, "cycle_coefficients", spy)
        assert no_cycle_certificate(p).branch is branch
        assert calls == [p]

    def test_never_fails_on_random_tuples(self):
        rng = make_rng(73)
        branches = set()
        for _ in range(2000):
            p = sample_w0_params(rng, "at_or_above")
            cert = no_cycle_certificate(p)  # raises CertificateFailure on defect
            assert cert.all_positive
            branches.add(cert.branch)
        assert CertificateBranch.B0_POSITIVE in branches


#: The theorem's list and the Newton search refuse the same arguments.
_SEARCHES = (brute_force_cycle_search, _newton_cycles)


class TestBruteForceSearch:
    """The Newton search, the numerical second route, finds no cycle."""

    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_no_cycles_at_reference(self, period):
        assert _newton_cycles(P0, period, 25) == []

    def test_no_cycles_on_boundary_tuple(self):
        assert _newton_cycles(P_BOUNDARY, 2, 25) == []

    def test_no_cycles_below_threshold(self):
        p = validate_params(0.5, 1.0, 0.8, 0.3, 0.0)
        assert _newton_cycles(p, 2, 25) == []

    def test_newton_from_fixed_point_converges_and_is_filtered(self):
        rx, ry, res = _newton_cycle_batch(
            P0, np.array([1.5]), np.array([0.375]), 2, 1e-10
        )
        assert len(rx) == 1 and res[0] < 1e-10
        assert rx[0] == pytest.approx(1.5, abs=1e-9)
        # a grid that contains the fixed point still reports no cycles
        assert _newton_cycles(P0, 2, 11) == []

    #: mu = 1, alpha + d0 = 1, beta on the threshold: J(0)^2 = I there.
    CORNER = validate_params(0.5, 2.0, 1.0, 0.5, 0.0)

    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_no_cycles_at_degenerate_corner(self, period):
        # Newton converges to residual-level period-2 artifacts near the
        # non-hyperbolic origin on these grids; no cycle exists there
        for grid_n in (7, 30):
            assert _newton_cycles(self.CORNER, period, grid_n) == []

    def test_threshold_rule_is_exact(self):
        # one ulp either side of beta = 2 is on the threshold within
        # beta_vs_threshold's band; only the exact comparison tells them apart
        up, down = (validate_params(0.5, math.nextafter(2.0, b), 1.0, 0.5, 0.0)
                    for b in (3.0, 1.0))
        assert beta_vs_threshold(up) == beta_vs_threshold(down) == 0
        assert order_sandwich(self.CORNER) is None
        assert order_sandwich(down) is None
        assert order_sandwich(up) is not None

    def test_rejects_unsupported_period(self):
        for search in _SEARCHES:
            with pytest.raises(ValueError):
                search(P0, 5, 10)

    def test_rejects_empty_grid(self):
        # zero seeds would answer "no cycles" without searching at all
        for search in _SEARCHES:
            with pytest.raises(ValueError, match="grid_n"):
                search(P0, 2, 0)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
    def test_rejects_tol_that_is_not_finite_and_positive(self, tol):
        # NaN, 0 or -1 converge no seed, and inf converges every seed: each
        # would answer without a genuine search
        for search in _SEARCHES:
            with pytest.raises(ValueError, match="tol"):
                search(P0, 2, 7, tol)

    def test_certificate_agrees_with_search(self):
        rng = make_rng(77)
        for _ in range(5):
            p = sample_w0_params(rng, "at_or_above")
            cert = no_cycle_certificate(p)
            assert cert.all_positive
            assert _newton_cycles(p, 2, 15) == []


def _no_newton(*args):
    raise AssertionError("the theorem's list ran Newton")


class TestTheoremList:
    """brute_force_cycle_search answers from the order sandwich's theorem."""

    #: A hair above the corner, and a tuple with |z*| near 8e6: the Newton
    #: search's residual test accepts period-2, 3 and 4 artifacts there.
    ARTIFACT_TUPLES = [
        (validate_params(0.5, 2.0000000000000004, 1.0, 0.5, 0.0), 30, (2,)),
        (validate_params(0.8339749585926484, 0.8964979125430002,
                         0.01215246883793422, 2.2098100790239033e-05, 0.0),
         8, (2, 3, 4)),
    ]

    @pytest.mark.parametrize("p, grid_n, periods", ARTIFACT_TUPLES,
                             ids=["near_corner", "large_z_star"])
    def test_drops_what_newton_accepts(self, p, grid_n, periods):
        assert order_sandwich(p) is not None
        for period in periods:
            assert _newton_cycles(p, period, grid_n)
            assert brute_force_cycle_search(p, period, grid_n) == []

    def test_runs_no_newton(self, monkeypatch):
        monkeypatch.setattr(cycles, "_newton_cycle_batch", _no_newton)
        monkeypatch.setattr(cycles, "omega_bounds", _no_newton)
        rng = make_rng(78)
        tuples = [P0, P_BOUNDARY, P_B0_NEG, TestBruteForceSearch.CORNER] + [
            sample_w0_params(rng, regime) for regime in ("above", "below")
            for _ in range(5)]
        for p in tuples:
            for period in (2, 3, 4):
                assert brute_force_cycle_search(p, period, 64) == []

    def test_rejects_tuples_outside_the_regime(self):
        p = validate_params(0.7, 2.0, 0.8, 0.5, 0.0)  # alpha + d0 > 1
        for search in _SEARCHES:
            with pytest.raises(RegimeError):
                search(p, 2, 7)


class TestPolynomialRootOracle:
    def test_only_positive_real_root_with_admissible_y_is_x_star(self):
        # companion-matrix roots of the quartic: any root that yields a
        # genuine quadrant point must be the positive fixed point
        rng = make_rng(79)
        for _ in range(100):
            p = sample_w0_params(rng, "above")
            c = cycle_coefficients(p)
            xs = regime_quantities(p).x_star
            roots = np.roots([c.b1, c.b2, c.b3, c.b4, 0.0])
            for r in roots:
                if abs(r.imag) > 1e-8 * max(1.0, abs(r.real)):
                    continue
                x = float(r.real)
                if x <= 1e-9:
                    continue
                if two_cycle_y_of_x(p, x) < -1e-12:
                    continue
                assert x == pytest.approx(xs, rel=1e-6, abs=1e-6), p


def _reference_filter(p, period, roots_x, roots_y, residuals):
    """The per-root Python filter the vectorised search replaced.

    Returns the cycles and how often each rejection rule fired.
    """
    rejected = dict.fromkeys(
        ("quadrant", "fixed_point", "shorter_period", "duplicate"), 0)
    rq = regime_quantities(p)
    fixed = [(0.0, 0.0)]
    if rq.x_star is not None:
        fixed.append((rq.x_star, rq.y_star))
    found = []
    for x, y, res in zip(roots_x, roots_y, residuals):
        x, y = float(x), float(y)
        orbit = [(x, y)]
        for _ in range(period - 1):
            x, y = cycles.step_w0_raw(p, x, y)
            orbit.append((float(x), float(y)))
        if any(not (px >= -1e-9 and py >= -1e-9) for px, py in orbit):
            rejected["quadrant"] += 1
            continue
        if any(
            max(abs(px - fx), abs(py - fy)) < cycles.DEDUP_RADIUS
            for px, py in orbit for fx, fy in fixed
        ):
            rejected["fixed_point"] += 1
            continue
        if any(
            max(abs(orbit[i][0] - orbit[j][0]), abs(orbit[i][1] - orbit[j][1]))
            < cycles.DEDUP_RADIUS
            for i in range(period) for j in range(i + 1, period)
        ):
            rejected["shorter_period"] += 1
            continue
        k = min(range(len(orbit)), key=lambda i: orbit[i])
        canon = tuple(orbit[k:] + orbit[:k])
        if any(
            all(
                max(abs(a[0] - b[0]), abs(a[1] - b[1])) < cycles.DEDUP_RADIUS
                for a, b in zip(canon, c.states)
            )
            for c in found
        ):
            rejected["duplicate"] += 1
            continue
        found.append(cycles.Cycle(period=period, states=canon, residual=float(res)))
    found.sort(key=lambda c: c.states)
    return found, rejected


def _synthetic_roots():
    """Root candidates that hit every filter rule for P0 (x* = (1.5, 0.375))."""
    nan = float("nan")
    pts = [
        (1.5, 0.375), (1.5 + 4e-7, 0.375 - 4e-7), (1.5 + 3e-6, 0.375),
        (0.0, 0.0), (-0.0, 5e-7), (4e-6, 0.0),
        (-1e-8, 0.4), (-5e-10, 0.4), (0.4, -2e-9), (nan, 0.4), (0.4, nan),
        (-1e-9, 0.45), (0.45, -1e-9), (1.05e-6, 0.0),
        (0.3, 0.7), (0.7, 0.3), (0.3 + 5e-7, 0.7), (0.3 + 1.05e-6, 0.7),
        (2.0, 0.1), (0.1, 2.0), (2.0, 0.1), (0.25, 0.25 + 5e-7),
        (0.6, 0.6 + 9.5e-7), (3.0, 0.5), (0.5, 3.0 - 9e-7), (1.0, 1e-12),
        (1e-12, 1.0),
    ]
    rx, ry = (np.array(c) for c in zip(*pts))
    res = np.linspace(1e-14, 9e-11, rx.size)
    res[14] = -0.0  # a survivor: the sign of zero must come through
    return rx, ry, res


def _swap(p, x, y):
    """A stand-in map with every off-diagonal point on a 2-cycle."""
    return y, x


class TestVectorFilterMatchesLoop:
    """_newton_cycles' root filter against the per-root loop."""

    def _compare(self, monkeypatch, p, period, roots):
        monkeypatch.setattr(cycles, "_newton_cycle_batch",
                            lambda *args: tuple(a.copy() for a in roots))
        want, rejected = _reference_filter(p, period, *roots)
        got = _newton_cycles(p, period, 3)
        assert [repr(c) for c in got] == [repr(c) for c in want]
        return want, rejected

    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_real_map(self, monkeypatch, period):
        want, rejected = self._compare(monkeypatch, P0, period, _synthetic_roots())
        assert want and rejected["quadrant"] and rejected["fixed_point"]

    def test_swap_map_period_two(self, monkeypatch):
        monkeypatch.setattr(cycles, "step_w0_raw", _swap)
        want, rejected = self._compare(monkeypatch, P0, 2, _synthetic_roots())
        assert len(want) >= 4
        assert all(rejected.values()), rejected

    @pytest.mark.parametrize("period", [3, 4])
    def test_swap_map_longer_period_sees_two_cycles(self, monkeypatch, period):
        monkeypatch.setattr(cycles, "step_w0_raw", _swap)
        want, rejected = self._compare(monkeypatch, P0, period, _synthetic_roots())
        assert want == []
        assert rejected["shorter_period"] >= 10

    def test_no_roots(self, monkeypatch):
        empty = (np.empty(0), np.empty(0), np.empty(0))
        want, _ = self._compare(monkeypatch, P0, 4, empty)
        assert want == []

    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_real_searches(self, period):
        rng = make_rng(80 + period)
        for p in [P0, P_BOUNDARY] + [sample_w0_params(rng, "at_or_above")
                                     for _ in range(4)]:
            b = cycles.omega_bounds(p)
            g = np.meshgrid(np.linspace(0.0, b.x_max, 12),
                            np.linspace(0.0, b.y_max, 12))
            roots = _newton_cycle_batch(p, g[0].ravel(), g[1].ravel(), period,
                                        cycles.RESIDUAL_TOL)
            assert roots[0].size > 0
            want, _ = _reference_filter(p, period, *roots)
            got = _newton_cycles(p, period, 12)
            assert [repr(c) for c in got] == [repr(c) for c in want] == []


def _reference_orbit(p, x, y, period, want_jacobian):
    """period steps of the raw map; optionally the chain-rule Jacobian."""
    cx, cy = np.asarray(x, dtype=float).copy(), np.asarray(y, dtype=float).copy()
    if want_jacobian:
        t11 = np.ones_like(cx)
        t12 = np.zeros_like(cx)
        t21 = np.zeros_like(cx)
        t22 = np.ones_like(cx)
    for _ in range(period):
        if want_jacobian:
            j11, j12, j21, j22 = cycles.jacobian_entries(p, cx)
            t11, t12, t21, t22 = (
                j11 * t11 + j12 * t21,
                j11 * t12 + j12 * t22,
                j21 * t11 + j22 * t21,
                j21 * t12 + j22 * t22,
            )
        cx, cy = cycles.step_w0_raw(p, cx, cy)
    if want_jacobian:
        return cx, cy, (t11, t12, t21, t22)
    return cx, cy


def _reference_newton(p, x0, y0, period, tol):
    """The Newton search with a forked orbit helper and a damping loop."""
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    alive = np.isfinite(x) & np.isfinite(y)
    converged = np.zeros_like(alive)
    for _ in range(cycles._NEWTON_MAX_ITER):
        if not np.any(alive & ~converged):
            break
        px, py, (t11, t12, t21, t22) = _reference_orbit(p, x, y, period, True)
        fx, fy = px - x, py - y
        res = np.maximum(np.abs(fx), np.abs(fy))
        scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
        converged = alive & (res < tol * scale)
        active = alive & ~converged
        if not np.any(active):
            break
        a11, a12, a21, a22 = t11 - 1.0, t12, t21, t22 - 1.0
        det = a11 * a22 - a12 * a21
        singular = active & (np.abs(det) < 1e-300)
        alive &= ~singular
        active &= ~singular
        safe_det = np.where(det == 0.0, 1.0, det)
        dx = (a22 * fx - a12 * fy) / safe_det
        dy = (a11 * fy - a21 * fx) / safe_det
        for damp in (1.0, cycles._NEWTON_DAMPING):
            nx = np.where(active, x - damp * dx, x)
            ny = np.where(active, y - damp * dy, y)
            if damp == 1.0:
                tx, ty = _reference_orbit(p, nx, ny, period, False)
                with np.errstate(invalid="ignore"):
                    grew = active & ~(
                        np.maximum(np.abs(tx - nx), np.abs(ty - ny)) <= res
                    )
                if not np.any(grew):
                    x, y = nx, ny
                    break
                x = np.where(grew, x, nx)
                y = np.where(grew, y, ny)
                active = grew
            else:
                x, y = nx, ny
        bad = alive & (~np.isfinite(x) | ~np.isfinite(y)
                       | (1.0 + x < 1e-9) | (np.abs(x) > 1e9) | (np.abs(y) > 1e9))
        alive &= ~bad
    px, py = _reference_orbit(p, x, y, period, False)
    res = np.maximum(np.abs(px - x), np.abs(py - y))
    scale = np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))
    with np.errstate(invalid="ignore"):
        ok = alive & np.isfinite(res) & (res < tol * scale)
    return x[ok], y[ok], res[ok]


def _wild_seeds(rng, n):
    """Seeds off the grid: non-finite, at the x = -1 pole, huge, and random."""
    inf, nan = float("inf"), float("nan")
    special = [nan, inf, -inf, -1.0, -1.0 + 1e-12, -1.0 - 1e-12, 0.0, -0.0,
               1e12, -1e12, 1e-300, 5.0]
    sx = np.array(special + special[::-1])
    sy = np.array(special[::-1] + special)
    rx = np.concatenate([sx, rng.uniform(-3.0, 60.0, n)])
    ry = np.concatenate([sy, rng.uniform(-3.0, 60.0, n)])
    return rx, ry


#: Below, at and above the threshold, both certificate branches, and the
#: non-hyperbolic corner mu = 1, alpha + d0 = 1 on the threshold.
_NEWTON_TUPLES = [
    P0, P_BOUNDARY, P_B0_NEG,
    validate_params(0.5, 1.0, 0.8, 0.3, 0.0),
    validate_params(0.5, 2.0, 1.0, 0.5, 0.0),
    validate_params(0.2, 9.0, 1.0, 0.8, 0.0),
]


class TestNewtonMatchesReference:
    """_newton_cycle_batch against the forked-helper, damping-loop form."""

    @staticmethod
    def _assert_same(p, x0, y0, period, tol):
        want = _reference_newton(p, x0, y0, period, tol)
        got = _newton_cycle_batch(p, x0, y0, period, tol)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        return got

    @pytest.mark.parametrize("tol", [1e-10, 1e-14])
    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_grids(self, period, tol):
        rng = make_rng(90 + period)
        tuples = _NEWTON_TUPLES + [sample_w0_params(rng, "at_or_above")
                                   for _ in range(3)]
        found = 0
        for p in tuples:
            b = cycles.omega_bounds(p)
            for n in (1, 7, 16):
                g = np.meshgrid(np.linspace(0.0, b.x_max, n),
                                np.linspace(0.0, b.y_max, n))
                found += self._assert_same(p, g[0].ravel(), g[1].ravel(),
                                           period, tol)[0].size
        assert found > 0

    @pytest.mark.parametrize("tol", [1e-10, 1e-14])
    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_wild_seeds(self, period, tol):
        rng = make_rng(95 + period)
        for p in _NEWTON_TUPLES:
            with np.errstate(all="ignore"):
                self._assert_same(p, *_wild_seeds(rng, 40), period, tol)

    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    def test_iteration_budget_runs_out(self, monkeypatch, max_iter):
        # the grids converge within about 25 Jacobian evaluations, far below
        # the real budget, so only a cut budget reaches its last pass
        monkeypatch.setattr(cycles, "_NEWTON_MAX_ITER", max_iter)
        for p in _NEWTON_TUPLES:
            b = cycles.omega_bounds(p)
            g = np.meshgrid(np.linspace(0.0, b.x_max, 7),
                            np.linspace(0.0, b.y_max, 7))
            for period in (2, 3, 4):
                self._assert_same(p, g[0].ravel(), g[1].ravel(), period, 1e-10)

    @pytest.mark.parametrize("period", [2, 3, 4])
    def test_converged_seed_dropped_as_bad_is_no_root(self, period):
        # x* is about 5.0e9 here: the seed (x*, y*) converges on the first
        # pass, and the pass that the seed (1, 0.5) forces then drops it by
        # the |x| > 1e9 rule, so it must not come back as a root
        p = validate_params(0.5, 10.0, 1e-3, 1e-6, 0.0)
        rq = regime_quantities(p)
        got = self._assert_same(p, np.array([rq.x_star, 1.0]),
                                np.array([rq.y_star, 0.5]), period, 1e-10)
        assert rq.x_star not in got[0]

    #: P0 seeds whose iterate meets the pole x = -1 after pass 0: the period
    #: and the seed.  The first seed's pass-1 trial step lands on x = -1.
    #: The second seed's pass-2 orbit passes through x = -1, so the residual
    #: is NaN.
    POLE_SEEDS = {
        "trial_step_on_pole": (2, (-0.24680145083296143, 0.0)),
        "nan_residual": (3, (-0.813880336464118, 33.0)),
    }

    @pytest.mark.parametrize("case", POLE_SEEDS)
    def test_seed_meeting_the_pole(self, case):
        period, (sx, sy) = self.POLE_SEEDS[case]
        with np.errstate(all="ignore"):
            self._assert_same(P0, np.array([sx]), np.array([sy]), period, 1e-10)

    def test_no_seed_alive(self):
        nan = np.array([float("nan"), float("inf")])
        with np.errstate(all="ignore"):
            got = self._assert_same(P0, nan, nan[::-1], 2, 1e-10)
        assert all(a.size == 0 for a in got)
