import numpy as np
import pytest

from conftest import P0, P_BOUNDARY, make_rng, sample_w0_params, sample_w0_params_any_regime
from mosqdyn import (
    FixedPointClass,
    State,
    classify_fixed_point,
    classify_origin_regime,
    eigenvalues_2x2,
    equilibrium_report,
    jacobian,
    regime_quantities,
    step_w0,
    validate_params,
)
from mosqdyn.core import step_w0_raw
from mosqdyn.equilibria import beta_vs_threshold
from mosqdyn.errors import DomainError, NotAFixedPointError, RegimeError


class TestRegimeQuantities:
    def test_reference_values(self):
        rq = regime_quantities(P0)
        assert rq.threshold == pytest.approx(1.28, rel=1e-12)
        assert rq.alpha_star == pytest.approx(1.6, rel=1e-12)
        assert rq.x_star == pytest.approx(1.5, rel=1e-12)
        assert rq.y_star == pytest.approx(0.375, rel=1e-12)

    def test_boundary_has_no_positive_fixed_point(self):
        rq = regime_quantities(P_BOUNDARY)
        assert rq.threshold == pytest.approx(1.28, rel=1e-12)
        assert rq.x_star is None and rq.y_star is None

    def test_below_threshold_has_no_positive_fixed_point(self):
        rq = regime_quantities(validate_params(0.5, 1.0, 0.8, 0.3, 0.0))
        assert rq.x_star is None and rq.y_star is None

    def test_threshold_band_is_relative_below_one(self):
        # beta 4e-10 above a threshold of 1.45e-3 in relative terms, but only
        # 5.8e-13 in absolute terms, which an absolute 1e-12 band swallowed
        alpha, mu, d0 = 0.5, 1e-3, 0.225
        t = mu * (1.0 + d0 / alpha)
        p = validate_params(alpha, t * (1.0 + 4e-10), mu, d0)
        assert beta_vs_threshold(p) == 1
        star = equilibrium_report(p).fixed_points[1].state
        assert star.x > 0.0 and star.y > 0.0
        assert beta_vs_threshold(validate_params(alpha, t, mu, d0)) == 0

    def test_requires_restricted_regime(self):
        with pytest.raises(RegimeError):
            regime_quantities(validate_params(0.5, 2.0, 0.8, 0.3, 0.1))

    @pytest.mark.parametrize("beta,mu,d0", [
        (2e-200, 1e-200, 0.3),  # mu*(beta - mu) underflows
        (1.0, 1e-300, 1e-30),   # mu*d0 underflows
    ], ids=["beta_minus_mu", "d0"])
    def test_underflowing_denominator_raises_domain_error(self, beta, mu, d0):
        p = validate_params(0.5, beta, mu, d0)
        assert beta_vs_threshold(p) == 1
        with pytest.raises(DomainError, match="underflow"):
            regime_quantities(p)

    def test_fixed_point_residual_small_everywhere(self):
        rng = make_rng(23)
        for _ in range(2000):
            p = sample_w0_params(rng, "above")
            rq = regime_quantities(p)
            assert rq.x_star > 0.0 and rq.y_star > 0.0
            z = step_w0(p, State(rq.x_star, rq.y_star))
            assert max(abs(z.x - rq.x_star), abs(z.y - rq.y_star)) < 1e-12


class TestJacobian:
    def test_at_origin(self):
        j = jacobian(P0, State(0.0, 0.0))
        assert j == pytest.approx((0.2, 2.0, 0.5, 0.2), abs=1e-12)

    def test_at_positive_fixed_point(self):
        j = jacobian(P0, State(1.5, 0.375))
        assert j == pytest.approx((0.62, 2.0, 0.08, 0.2), abs=1e-12)

    def test_x_prime_linear_in_y(self):
        rng = make_rng(3)
        for _ in range(50):
            p = sample_w0_params(rng, "above")
            z = State(float(rng.uniform(0, 5)), float(rng.uniform(0, 1)))
            assert jacobian(p, z)[1] == p.beta

    def test_against_central_differences(self):
        rng = make_rng(5)
        h = 1e-6
        for _ in range(1000):
            p = sample_w0_params(rng, "above")
            x = float(rng.uniform(0.0, 10.0))
            y = float(rng.uniform(0.0, 2.0))
            j = jacobian(p, State(x, y))
            fxp = step_w0_raw(p, x + h, y)
            fxm = step_w0_raw(p, x - h, y)  # raw map is fine just left of 0
            fyp = step_w0_raw(p, x, y + h)
            fym = step_w0_raw(p, x, y - h)
            fd = (
                (fxp[0] - fxm[0]) / (2 * h),
                (fyp[0] - fym[0]) / (2 * h),
                (fxp[1] - fxm[1]) / (2 * h),
                (fyp[1] - fym[1]) / (2 * h),
            )
            assert j == pytest.approx(fd, abs=1e-5)

    def test_cooperative_sign_configuration(self):
        rng = make_rng(6)
        for _ in range(1000):
            p = sample_w0_params(rng, "above")
            z = State(float(rng.uniform(0.0, 50.0)), 0.0)
            j11, j12, j21, j22 = jacobian(p, z)
            assert j11 >= 0.0 and j22 >= 0.0
            assert j12 > 0.0 and j21 > 0.0


class TestEigenvalues:
    def test_origin_matrix(self):
        lams = eigenvalues_2x2((0.2, 2.0, 0.5, 0.2))
        assert lams[0] == pytest.approx(1.2, abs=1e-12)
        assert lams[1] == pytest.approx(-0.8, abs=1e-12)

    def test_identity(self):
        assert eigenvalues_2x2((1.0, 0.0, 0.0, 1.0)) == (1.0, 1.0)

    def test_positive_fixed_point_matrix(self):
        lams = eigenvalues_2x2((0.62, 2.0, 0.08, 0.2))
        assert lams[0].real == pytest.approx(0.8618, abs=1e-4)
        assert lams[1].real == pytest.approx(-0.0418, abs=1e-4)

    def test_modulus_product_matches_determinant(self):
        rng = make_rng(9)
        for _ in range(3000):
            m = tuple(float(v) for v in rng.uniform(-2, 2, 4))
            l1, l2 = eigenvalues_2x2(m)
            det = m[0] * m[3] - m[1] * m[2]
            assert abs(l1) * abs(l2) == pytest.approx(abs(det), rel=1e-10, abs=1e-12)

    def test_matches_library_eigensolver(self):
        rng = make_rng(10)
        for _ in range(500):
            m = tuple(float(v) for v in rng.uniform(-2, 2, 4))
            mine = eigenvalues_2x2(m)
            ref = sorted(
                np.linalg.eigvals(np.array(m).reshape(2, 2)),
                key=lambda lam: (-abs(lam), -lam.real, -lam.imag),
            )
            for a, b in zip(mine, ref):
                assert a == pytest.approx(complex(b), abs=1e-9)

    def test_ordering_is_descending_modulus(self):
        lams = eigenvalues_2x2((0.0, 1.0, -1.0, 0.0))  # +/- i
        assert abs(lams[0]) >= abs(lams[1])
        assert lams[0].imag > 0  # conjugate pair tie broken toward +imag


class TestClassification:
    def test_origin_is_saddle_at_reference(self):
        assert classify_fixed_point(P0, State(0.0, 0.0)) is FixedPointClass.SADDLE

    def test_positive_point_is_attracting(self):
        assert (classify_fixed_point(P0, State(1.5, 0.375))
                is FixedPointClass.ATTRACTING)

    def test_origin_nonhyperbolic_on_threshold(self):
        assert (classify_fixed_point(P_BOUNDARY, State(0.0, 0.0))
                is FixedPointClass.NON_HYPERBOLIC)

    def test_rejects_non_fixed_point(self):
        with pytest.raises(NotAFixedPointError):
            classify_fixed_point(P0, State(1.0, 0.5))

    def test_origin_regime_table(self):
        assert classify_origin_regime(P0) is FixedPointClass.SADDLE
        rep = validate_params(0.5, 3.0, 0.8, 0.3, 0.0)  # 3.0 > 1.28 + 1.6
        assert classify_origin_regime(rep) is FixedPointClass.REPELLING
        att = validate_params(0.5, 1.0, 0.8, 0.3, 0.0)
        assert classify_origin_regime(att) is FixedPointClass.ATTRACTING
        assert classify_origin_regime(P_BOUNDARY) is FixedPointClass.NON_HYPERBOLIC

    def test_origin_regime_matches_eigensolve(self):
        rng = make_rng(16)
        for _ in range(2000):
            p = sample_w0_params_any_regime(rng)
            closed = classify_origin_regime(p)
            eig = classify_fixed_point(p, State(0.0, 0.0))
            assert closed is eig, (p, closed, eig)


class TestEquilibriumReport:
    def test_reference_report(self):
        rep = equilibrium_report(P0)
        assert len(rep.fixed_points) == 2
        origin, star = rep.fixed_points
        assert (origin.state.x, origin.state.y) == (0.0, 0.0)
        assert origin.classification is FixedPointClass.SADDLE
        assert star.state.x == pytest.approx(1.5, rel=1e-12)
        assert star.classification is FixedPointClass.ATTRACTING

    def test_boundary_report_has_single_nonhyperbolic_point(self):
        rep = equilibrium_report(P_BOUNDARY)
        assert len(rep.fixed_points) == 1
        assert rep.fixed_points[0].classification is FixedPointClass.NON_HYPERBOLIC

    def test_upper_boundary_reported_nonhyperbolic(self):
        rq = regime_quantities(P0)
        p = validate_params(0.5, rq.threshold + rq.alpha_star, 0.8, 0.3, 0.0)
        rep = equilibrium_report(p)
        assert rep.fixed_points[0].classification is FixedPointClass.NON_HYPERBOLIC
        # the boundary override is the origin's alone; x* keeps its eigenvalue type
        star = rep.fixed_points[1]
        assert star.classification is classify_fixed_point(p, star.state)
        assert star.classification is FixedPointClass.ATTRACTING
