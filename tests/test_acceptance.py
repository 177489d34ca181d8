"""Acceptance suite: one test per exit criterion, full budgets.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s``).
Criterion 7 is marked as a strict expected failure: the stated probe
outcome contradicts the map's actual dynamics (adults cannot stay above
alpha/mu forever when d0 > 0 because larvae stay bounded, so the orbit
from (0, 10) re-enters the rectangle and converges to the positive fixed
point).  The assertions are implemented exactly as stated and fail
honestly; see the test body for the step-4 dip.
"""

import json

import numpy as np
import pytest

from conftest import (
    P0,
    P_BOUNDARY,
    make_rng,
    sample_omega_points,
    sample_w0_params,
    sample_w0_params_any_regime,
)
from mosqdyn import (
    FixedPointClass,
    OmegaLimitClass,
    RegionLabel,
    State,
    check_invariance,
    classify_fixed_point,
    classify_origin_regime,
    cycle_coefficients,
    delta_phi_closed,
    delta_phi_direct,
    eigenvalues_2x2,
    escape_probe,
    iterate,
    jacobian,
    monotonicity_report,
    no_cycle_certificate,
    phi,
    reduced_quadratic,
    regime_quantities,
    step_w0,
    validate_params,
)
from mosqdyn.cli import main
from mosqdyn.cycles import (
    _newton_cycles,
    _reduced_quadratic_routes,
    _shifted_quadratic_routes,
)
from mosqdyn.geometry import RegionBounds, omega_bounds
from mosqdyn.trajectory import classify_batch


def _report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE criterion {n}: PASS - {text}")


def test_criterion_1_fixed_point_residual():
    rng = make_rng(101)
    worst = 0.0
    for _ in range(1000):
        p = sample_w0_params(rng, "above")
        rq = regime_quantities(p)
        z = step_w0(p, State(rq.x_star, rq.y_star))
        worst = max(worst, abs(z.x - rq.x_star), abs(z.y - rq.y_star))
    assert worst < 1e-12
    _report(1, f"1000 tuples, worst fixed-point residual {worst:.3e} < 1e-12")


def test_criterion_2_invariance_suites():
    rng = make_rng(102)
    tuples = [P0] + [sample_w0_params(rng, "above") for _ in range(9)]
    regions = (RegionLabel.OMEGA_ONLY, RegionLabel.OMEGA1, RegionLabel.OMEGA2)
    worst = 0.0
    for p in tuples:
        for region in regions:
            report = check_invariance(p, region, 100_000, seed=1)
            assert report.violations == (), (p, region)
            worst = max(worst, report.max_excursion)
    _report(2, "10 tuples x 3 regions x 1e5 samples: zero violations "
               f"(worst excursion {worst:.3e})")


def test_criterion_3_lyapunov_identity_and_signs():
    rng = make_rng(103)
    worst = 0.0
    for mode, count in (("above", 60_000), ("at", 20_000), ("below", 20_000)):
        for _ in range(count // 500):
            p = sample_w0_params(rng, mode)
            xs, ys = sample_omega_points(p, rng, 500)
            for x, y in zip(xs, ys):
                z = State(float(x), float(y))
                gap = abs(delta_phi_closed(p, z) - delta_phi_direct(p, z))
                worst = max(worst, gap)
    assert worst < 1e-12

    assert monotonicity_report(P0, 100_000, seed=7).total_violations == 0
    assert monotonicity_report(P_BOUNDARY, 100_000, seed=7).total_violations == 0
    for _ in range(5):
        p = sample_w0_params(rng, "above")
        assert monotonicity_report(p, 20_000, seed=7).total_violations == 0
    _report(3, f"1e5 closed-vs-direct gaps (worst {worst:.3e} < 1e-12); "
               "sign pattern clean on Omega1/Omega2 and on Omega at the boundary")


def test_criterion_4_global_convergence():
    rng = make_rng(104)
    rq = regime_quantities(P0)
    fps = ((0.0, 0.0), (rq.x_star, rq.y_star))
    n_done = 0
    while n_done < 1000:
        xs, ys = sample_omega_points(P0, rng, 1)
        x, y = float(xs[0]), float(ys[0])
        if any(max(abs(x - fx), abs(y - fy)) < 1e-9 for fx, fy in fps):
            continue  # initial set excludes the fixed points
        rep = iterate(P0, State(x, y), 10**6, 1e-8, stride=10**6)
        assert rep.limit is OmegaLimitClass.CONVERGED_TO_POSITIVE_FIXED_POINT
        assert max(abs(rep.final.x - 1.5), abs(rep.final.y - 0.375)) < 1e-7
        n_done += 1

    xs, ys = sample_omega_points(P_BOUNDARY, rng, 100)
    codes, iters, fx, fy = classify_batch(P_BOUNDARY, xs, ys, 10**7, 1e-6)
    assert np.all(codes == int(OmegaLimitClass.CONVERGED_TO_ORIGIN))
    assert int(iters.max()) < 10**7
    _report(4, "1000 interior orbits hit the positive fixed point within 1e-7; "
               f"100 boundary orbits hit the origin (max {int(iters.max())} iters)")


def test_criterion_5_cycle_exclusion():
    rng = make_rng(105)
    branches = {b: 0 for b in ("b0_positive", "b0_non_positive")}
    for _ in range(10_000):
        p = sample_w0_params(rng, "at_or_above")
        cert = no_cycle_certificate(p)  # raises CertificateFailure on defect
        assert cert.all_positive
        branches[cert.branch.value] += 1

    tuples = [P0] + [sample_w0_params(rng, "at_or_above") for _ in range(9)]
    for p in tuples:
        for period in (2, 3, 4):
            assert _newton_cycles(p, period, 50, 1e-10) == [], (p, period)
    _report(5, f"1e4 certificates succeeded (branches: {branches}); "
               "grid-50 Newton search found no 2/3/4-cycles on 10 tuples")


def test_criterion_6_classification_agreement():
    rng = make_rng(106)
    for _ in range(10_000):
        p = sample_w0_params_any_regime(rng, margin=1e-6)
        closed = classify_origin_regime(p)
        eig = classify_fixed_point(p, State(0.0, 0.0))
        assert closed is eig, (p, closed, eig)

    boundary_pairs = 0
    for _ in range(20):
        q = sample_w0_params(rng, "above")
        t = q.mu * (1.0 + q.d0 / q.alpha)
        upper = t + (4.0 - 2.0 * (q.alpha + q.mu + q.d0)) / q.alpha
        for beta in (t, upper):
            b = validate_params(q.alpha, beta, q.mu, q.d0, 0.0)
            assert classify_origin_regime(b) is FixedPointClass.NON_HYPERBOLIC
            assert (classify_fixed_point(b, State(0.0, 0.0))
                    is FixedPointClass.NON_HYPERBOLIC)
            boundary_pairs += 1

    lams = eigenvalues_2x2(jacobian(P0, State(0.0, 0.0)))
    assert abs(lams[0] - 1.2) < 1e-12
    assert abs(lams[1] - (-0.8)) < 1e-12
    _report(6, "1e4 tuples agree closed-form vs eigensolve; "
               f"{boundary_pairs} boundary tuples all non-hyperbolic; "
               "reference origin eigenvalues (1.2, -0.8) within 1e-12")


@pytest.mark.xfail(
    strict=True,
    reason="the stated probe outcome contradicts the dynamics: with d0 > 0 "
    "larvae stay bounded (x' <= beta*y + (1-d0)*x), so adults lose at least "
    "alpha/(1+x_bound) per step while above alpha/mu and must dip below in "
    "finite time; from (0, 10) the dip happens at step 4 (y = 0.5953 < 0.625) "
    "and the orbit then converges to (1.5, 0.375)",
)
def test_criterion_7_escape_behavior():
    report = escape_probe(P0, State(0.0, 10.0), 10**5)
    ok = (report.y_stayed_above and report.x_monotone_increasing_tail
          and abs(report.y_gap_final) < 1e-4)
    print(f"\nACCEPTANCE criterion 7: FAIL (expected) - probe reported "
          f"y_stayed_above={report.y_stayed_above}, "
          f"x_monotone_increasing_tail={report.x_monotone_increasing_tail}, "
          f"y_gap_final={report.y_gap_final:+.6f}; the persistent-escape "
          f"hypothesis is unsatisfiable for these dynamics")
    assert report.y_stayed_above, "adult density dipped to/below alpha/mu"
    assert report.x_monotone_increasing_tail
    assert abs(report.y_gap_final) < 1e-4
    assert ok


def test_criterion_8_algebra_cross_checks():
    rng = make_rng(108)
    worst_route = 0.0
    worst_deflation = 0.0
    for _ in range(10_000):
        p = sample_w0_params(rng, "at_or_above")
        composed, closed = _reduced_quadratic_routes(p, cycle_coefficients(p))
        for a, b in zip(composed, closed):
            gap = abs(a - b) / max(1.0, abs(a), abs(b))
            worst_route = max(worst_route, gap)
            assert gap < 1e-9
        c = cycle_coefficients(p)
        if c.b0 > 0.0:
            shifted, closed_s = _shifted_quadratic_routes(p, c)
            for a, b in zip(shifted, closed_s):
                gap = abs(a - b) / max(1.0, abs(a), abs(b))
                worst_route = max(worst_route, gap)
                assert gap < 1e-9

        q2, q1, q0 = reduced_quadratic(p)
        xs = p.alpha * (p.beta - p.mu) / (p.mu * p.d0) - 1.0
        x = rng.uniform(0.0, max(1.0, 2.0 * xs), 1000)
        quart = x * (((c.b1 * x + c.b2) * x + c.b3) * x + c.b4)
        rebuilt = x * (x - xs) * ((q2 * x + q1) * x + q0)
        scale = np.maximum(1.0, np.max(
            [np.abs(c.b1) * x**4, np.abs(c.b2) * x**3,
             np.abs(c.b3) * x**2, np.abs(c.b4) * x], axis=0))
        gaps = np.abs(quart - rebuilt) / scale
        worst_deflation = max(worst_deflation, float(gaps.max()))
        assert float(gaps.max()) < 1e-9
    _report(8, f"1e4 tuples: route agreement (worst {worst_route:.3e}) and "
               f"deflation identity at 1e3 abscissae each "
               f"(worst {worst_deflation:.3e}), both < 1e-9")


def test_criterion_9_cli_determinism_and_exit_contract(tmp_path, monkeypatch):
    p0_flags = ["--alpha", "0.5", "--beta", "2", "--mu", "0.8", "--d0", "0.3"]

    verify_argv = ["verify", *p0_flags, "--samples", "20000", "--seed", "1"]
    a, b = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main([*verify_argv, "--out", str(a)]) == 0
    assert main([*verify_argv, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    basin_argv = ["basin", *p0_flags, "--grid-n", "16"]
    c, d = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert main([*basin_argv, "--out", str(c)]) == 0
    assert main([*basin_argv, "--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()

    real = omega_bounds

    def corrupted(p):
        bounds = real(p)
        return RegionBounds(0.5 * bounds.x_max, bounds.y_max,
                            bounds.x_star, bounds.y_star)

    monkeypatch.setattr("mosqdyn.geometry.omega_bounds", corrupted)
    e = tmp_path / "corrupt.json"
    assert main([*verify_argv, "--out", str(e)]) == 1
    assert json.loads(e.read_text())["ok"] is False
    monkeypatch.undo()

    _report(9, "verify and basin byte-identical across reruns; exit 0 clean, "
               "exit 1 under the corrupted-bound harness hook")
