import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from sfpe.dist import Constant, ExpPoly, ExpStretched, LogPareto, LogView, Pareto
from sfpe.theory import (
    REGIMES,
    PreconditionError,
    Prediction,
    appendix_smallint_diagnostic,
    convolution_limit_check,
    convolution_tail,
    example_constants,
    ifs_constants,
    predict,
    predictions_to_csv,
    product_convolution_check,
    rv_uniformity_check,
    salpha_check_convex,
    salpha_check_dom,
)


def _one_sided(xi, mu):
    """D+ of a one-sided regime: the ifs system with mu_- = xi_- = 0."""
    d_plus, d_minus = ifs_constants(mu, 0.0, xi, 0.0)
    assert d_minus == 0.0
    return d_plus


class TestRegimeConstants:
    # each single-regime constant of the affine recursion is xi / (1 - mu)

    def test_regime_table(self):
        assert set(REGIMES) == {"grey", "ifs", "example"}
        for spec in REGIMES.values():
            assert len(spec.labels) == len(spec.constants(*[0.25] * len(spec.inputs)))

    def test_grey(self):
        # B-dominated: xi_+ = 1 against the tail of B
        def grey(e_a_alpha):
            (row,) = predict("grey", e_a_alpha=e_a_alpha)
            assert (row.regime, row.reference) == ("grey", "B")
            return row.constant

        assert grey(0.5) == 2.0
        assert grey(0.0) == 1.0
        assert grey(0.32) == pytest.approx(1.4705882352941178)
        with pytest.raises(PreconditionError, match="contraction"):
            grey(1.0)

    def test_kevei(self):
        # A-dominated: mu_+ = E[A^alpha], xi_+ = E[X^alpha]
        assert _one_sided(0.0, 0.5) == 0.0
        assert _one_sided(3.0, 0.32) == pytest.approx(4.411764705882353)
        assert _one_sided(1.0, 0.0) == 1.0

    def test_affine(self):
        assert _one_sided(2.0, 0.5) == 4.0
        assert _one_sided(0.0, 0.9) == 0.0
        with pytest.raises(PreconditionError):
            _one_sided(1.0, 1.0)

    def test_indep(self):
        # independent comparable tails: xi_+ = E[X_+^alpha] + c_B
        assert _one_sided(3.0 + 1.0, 0.32) == pytest.approx(5.882352941176471)
        assert _one_sided(0.0 + 0.0, 0.5) == 0.0


class TestIfsConstants:
    def test_rational_example(self):
        dp, dm = ifs_constants(0.3, 0.2, 1.0, 0.0)
        assert dp == pytest.approx(0.7 / 0.45)
        assert dm == pytest.approx(0.2 / 0.45)

    def test_decouples_without_negative_part(self):
        dp, dm = ifs_constants(0.4, 0.0, 2.0, 0.0)
        assert dp == pytest.approx(2.0 / (1.0 - 0.4))
        assert dm == 0.0

    def test_symmetric_inputs(self):
        dp, dm = ifs_constants(0.3, 0.25, 1.5, 1.5)
        assert dp == pytest.approx(dm)
        assert dp == pytest.approx(1.5 / (1.0 - 0.55))

    def test_contraction_required(self):
        with pytest.raises(PreconditionError, match="contraction"):
            ifs_constants(0.6, 0.4, 1.0, 1.0)

    def test_negative_functional_rejected(self):
        # a one-step functional is the alpha-moment of a positive part
        for xi_p, xi_m in ((-1.0, 0.0), (0.0, -1.0), (-1e-300, 1.0)):
            with pytest.raises(PreconditionError, match="xi_"):
                ifs_constants(0.3, 0.2, xi_p, xi_m)

    def test_agrees_with_linear_solve_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            mu_p = rng.uniform(0.0, 0.95)
            mu_m = rng.uniform(0.0, 0.999 - mu_p)
            xi_p, xi_m = rng.uniform(0.0, 10.0, 2)
            dp, dm = ifs_constants(mu_p, mu_m, xi_p, xi_m)  # raises on mismatch
            assert dp >= 0.0 and dm >= 0.0
            det = (1 - mu_p - mu_m) * (1 - mu_p + mu_m)
            assert det > 0.0

    def test_reduces_to_indep(self):
        # mu_- = 0 and xi_+ = E[X_+^alpha] + c_B gives the independent regime
        ex, cb, ea = 2.5, 1.0, 0.32
        dp, _ = ifs_constants(ea, 0.0, ex + cb, 0.0)
        assert dp == pytest.approx((ex + cb) / (1.0 - ea), rel=1e-15)


class TestExampleConstants:
    def test_moment_identity_oracle(self):
        # independent input: E[X] = mu/(1-mu),
        # E[X^2](1-sigma) = 2 mu^2 E[X] + sigma, d1 = (E[X^2]+1)/(1-sigma);
        # equal input: E[(X+1)^2](1-sigma) = 2E[X]+1+... solved directly
        mu, sigma = 0.5192694724646927, 0.32
        ex = mu / (1 - mu)
        ex2 = (2 * mu**2 * ex + sigma) / (1 - sigma)
        d1_oracle = (ex2 + 1.0) / (1 - sigma)
        ey2 = sigma * (1 + mu) / ((1 - mu) * (1 - sigma))
        d2_oracle = (ey2 + 2 * mu / (1 - mu) + 1.0) / (1 - sigma)
        d1, d2 = example_constants(mu, sigma)
        assert d1 == pytest.approx(d1_oracle, rel=1e-12)
        assert d2 == pytest.approx(d2_oracle, rel=1e-12)

    def test_polynomial_form_d1(self):
        mu, sigma = 0.5, 0.45
        d1, _ = example_constants(mu, sigma)
        assert d1 == pytest.approx((2 * mu**3 - mu + 1) / ((1 - mu) * (1 - sigma) ** 2))
        assert d1 == pytest.approx(4.958677685950413)

    def test_limits_small_mu(self):
        d1, d2 = example_constants(1e-12, 0.45)
        assert d1 == pytest.approx(1.0 / 0.55**2, rel=1e-9)
        assert d2 == pytest.approx(1.0 / 0.55**2, rel=1e-9)

    def test_discrimination(self):
        d1, d2 = example_constants(0.5, 0.45)
        assert d1 != pytest.approx(d2)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            example_constants(1.5, 0.5)
        with pytest.raises(PreconditionError):
            example_constants(0.5, 1.0)


class TestPredictions:
    def test_csv_format(self):
        preds = predict("ifs", mu_plus=0.3, mu_minus=0.2, xi_plus=1.0, xi_minus=0.0)
        text = predictions_to_csv(preds)
        lines = text.strip().split("\n")
        assert lines[0] == "regime,constant,reference,inputs_json"
        regime, constant, ref, blob = lines[1].split(",", 3)
        assert regime == "ifs_right"
        assert float(constant) == pytest.approx(0.7 / 0.45)
        assert ref == "A"
        assert json.loads(blob)["mu_plus"] == 0.3

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            predict("kesten", anything=1.0)


class TestSalphaDom:
    def test_exp_poly_passes(self):
        rep = salpha_check_dom(ExpPoly(1.0, -2.0, 1.0), 1.0)
        assert rep.passed
        # K(2x)/K(x) = 2^p = 1/4 for the pure power correction
        assert rep.doubling_min == pytest.approx(0.25, rel=1e-6)

    def test_constant_k_fails_integrability(self):
        rep = salpha_check_dom(LogView(Pareto(2.0, 1.0)), 2.0)
        assert not rep.pass_integral
        assert rep.pass_shift and rep.pass_doubling
        assert not rep.passed

    def test_slow_power_fails_integrability(self):
        # K(t) ~ t^{-1/2}: shifts and doubling fine, integral diverges
        class HalfPower:
            support_low = 1.0

            @staticmethod
            def log_survival(t):
                t = np.maximum(np.asarray(t, float), 1.0)
                return -0.5 * np.log(t)

        rep = salpha_check_dom(HalfPower(), 0.0)
        assert not rep.pass_integral


class TestSalphaConvex:
    def test_exp_stretched_passes(self):
        rep = salpha_check_convex(ExpStretched(1.0, 1.0, 0.5, 1.0), 1.0, 0.5)
        assert rep.passed
        assert math.isfinite(rep.concave_from)
        assert rep.sup_dev_final < 0.05

    def test_gamma_domain(self):
        with pytest.raises(PreconditionError):
            salpha_check_convex(ExpStretched(1.0, 1.0, 0.5, 1.0), 1.0, 1.0)

    def test_convex_neg_log_k_fails(self):
        # K growing like e^{sqrt t}: -log K is convex decreasing, not concave
        class Growing:
            support_low = 1.0

            @staticmethod
            def log_survival(t):
                t = np.asarray(t, float)
                return -t + np.sqrt(np.maximum(t, 0.0))

        rep = salpha_check_convex(Growing(), 1.0, 0.5)
        assert not rep.passed


class TestConvolution:
    def test_degenerate_identity(self):
        # adding a point mass at 0 leaves the tail unchanged
        ep = ExpPoly(1.0, -2.0, 1.0)
        shifted = convolution_tail(ep, Constant(0.0), 8.0, n_grid=50_000)
        assert shifted == pytest.approx(float(ep.survival(8.0)), rel=1e-6)

    def test_step_halving_stability(self):
        ep = ExpPoly(1.0, -2.0, 1.0)
        a = convolution_tail(ep, ep, 40.0, n_grid=100_000)
        b = convolution_tail(ep, ep, 40.0, n_grid=200_000)
        assert abs(a - b) / b < 0.01

    def test_two_fold_limit(self):
        ep = ExpPoly(1.0, -2.0, 1.0)
        rep = convolution_limit_check(ep, 1.0, [20, 40, 80, 160])
        assert rep.target == pytest.approx(2.0 * ep.exp_moment(1.0), rel=1e-9)
        assert rep.passed

    def test_infinite_moment_rejected(self):
        ep = ExpPoly(1.0, -2.0, 1.0)
        with pytest.raises(PreconditionError, match="not finite"):
            convolution_limit_check(ep, 2.0, [20.0])


class TestSmallIntegral:
    def test_stabilizes_and_decreases_in_v(self):
        ep = ExpPoly(1.0, -2.0, 1.0)
        # the x -> infinity stabilization is O(1/x); doubling from 320 is the
        # first step where all v rows land within the 5% window
        mat, v_monotone = appendix_smallint_diagnostic(
            ep, [1.0, 2.0, 4.0], [80.0, 160.0, 320.0, 640.0], n_grid=100_000
        )
        assert np.all(np.abs(mat[:, -1] - mat[:, -2]) <= 0.05 * mat[:, -1])
        assert v_monotone
        assert np.all(mat[:, -1] >= 0.0)

    def test_empty_range_is_zero(self):
        ep = ExpPoly(1.0, -2.0, 1.0)
        mat, _ = appendix_smallint_diagnostic(ep, [10.0], [15.0], n_grid=1000)
        assert mat[0, 0] == 0.0


class TestProductConvolution:
    def test_log_pareto_target(self):
        lp = LogPareto(2.0, 3.0, 0.4)
        rep = product_convolution_check(lp, 2.0, [2.0, 4.0, 8.0, 15.0])
        assert rep.target == 2.0 * lp.alpha_moment(2.0)
        assert rep.target == pytest.approx(0.64)
        assert rep.monotone_ok

    def test_matches_quad_of_product_tail(self):
        # P[A A' > t] = S(t/x0) + int_{x0}^{t/x0} S(t/a) dF(a), here by
        # adaptive quadrature in u = log(a/x0) of the closed-form density
        alpha, beta, x0 = 2.0, 3.0, 0.4
        lp = LogPareto(alpha, beta, x0)

        def density(u):  # of u = log(A/x0)
            return math.exp(-alpha * u) * (1.0 + u) ** -beta * (alpha + beta / (1.0 + u))

        def ratio(t):
            val, _ = quad(
                lambda u: float(lp.survival(t / (x0 * math.exp(u)))) * density(u),
                0.0, math.log(t / x0**2), epsabs=0.0, epsrel=1e-12, limit=200,
            )
            return (val + float(lp.survival(t / x0))) / float(lp.survival(t))

        t_list = [2.0, 4.0, 8.0, 15.0]
        rep = product_convolution_check(lp, alpha, t_list)
        np.testing.assert_allclose(rep.estimates, [ratio(t) for t in t_list], rtol=1e-9)

    def test_point_mass_rejected(self):
        with pytest.raises(PreconditionError, match="not regularly varying"):
            product_convolution_check(Constant(2.0), 2.0, [1.0])

    def test_divergent_moment_refuses_assertion(self):
        # E[A^2] = inf for Pareto(2, 1), as in the convolution check
        with pytest.raises(PreconditionError, match="not finite"):
            product_convolution_check(Pareto(2.0, 1.0), 2.0, [10.0, 20.0])


class TestUniformity:
    def test_pareto_float_exact(self):
        rep = rv_uniformity_check(Pareto(2.0, 1.0), 2.0, 0.1, [1e2, 1e3, 1e4])
        assert np.all(rep.sup_dev <= 1e-12)
        assert not rep.strictly_decreasing
        assert rep.passed  # on exact zeros, which cannot decrease

    def test_log_pareto_strictly_decreasing(self):
        rep = rv_uniformity_check(LogPareto(2.0, 3.0, 0.4), 2.0, 0.1, [1e2, 1e3, 1e4])
        assert rep.strictly_decreasing
        assert rep.sup_dev[-1] >= 1e-2  # logarithmic decay; see the ledger
        assert rep.passed

    def test_underflowed_tail_gives_inf_not_nan(self):
        # P[A > 1e3] underflows to 0 here; the ratio of log tails does not,
        # and it overflows to inf where the tail falls faster than any power
        rep = rv_uniformity_check(ExpStretched(1.0, 1.0, 0.5, 1.0), 1.0, 0.1, [1e2, 1e3, 1e4])
        assert float(ExpStretched(1.0, 1.0, 0.5, 1.0).survival(1e3)) == 0.0
        assert not np.any(np.isnan(rep.sup_dev))
        assert rep.sup_dev[-1] == math.inf
        assert not rep.passed

    def test_larger_c_no_larger_deviation(self):
        lp = LogPareto(2.0, 3.0, 0.4)
        small = rv_uniformity_check(lp, 2.0, 0.1, [1e3])
        large = rv_uniformity_check(lp, 2.0, 0.5, [1e3])
        assert large.sup_dev[0] <= small.sup_dev[0]

    def test_c_positive_required(self):
        with pytest.raises(PreconditionError):
            rv_uniformity_check(Pareto(2.0, 1.0), 2.0, 0.0, [10.0])
