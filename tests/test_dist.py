import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpe.dist import (
    Constant,
    ExpPoly,
    ExpStretched,
    InvalidParameterError,
    LogPareto,
    Pareto,
    format_model,
    _newton_concave_increasing,
    log_view,
    parse_model,
)

ALL_MODELS = [
    Pareto(2.0, 1.0),
    Pareto(0.7, 0.3),
    LogPareto(2.0, 3.0, 0.4),
    LogPareto(1.2, 1.5, 2.0),
    ExpPoly(1.0, -2.0, 1.0),
    ExpPoly(0.5, -1.5, 0.2),
    ExpStretched(1.0, 1.0, 0.5, 1.0),
    ExpStretched(2.0, 0.3, 0.8, 0.5),
]


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            Pareto(-1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            Pareto(2.0, 0.0)
        with pytest.raises(InvalidParameterError):
            LogPareto(2.0, 1.0, 0.4)  # beta must exceed 1
        with pytest.raises(InvalidParameterError):
            ExpPoly(1.0, -0.5, 1.0)  # p must be < -1
        with pytest.raises(InvalidParameterError):
            ExpStretched(1.0, 1.0, 1.5, 1.0)  # gamma in (0,1)


class TestSurvival:
    def test_pareto_value(self):
        assert Pareto(2.0, 1.0).survival(10.0) == pytest.approx(0.01, rel=1e-15)

    def test_log_pareto_support_edge(self):
        assert LogPareto(2.0, 3.0, 0.4).survival(0.4) == 1.0

    def test_exp_poly_value(self):
        # 2^{-2} e^{-1}, evaluated independently with high-precision arithmetic
        assert ExpPoly(1.0, -2.0, 1.0).survival(2.0) == pytest.approx(
            0.09196986029286058, rel=1e-12
        )

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_shape(self, model):
        t = np.linspace(model.support_low - 1.0, model.support_low + 50.0, 400)
        s = model.survival(t)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s[t <= model.support_low] == 1.0)
        assert model.survival(1e12) < 1e-6

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_log_survival_consistent(self, model):
        t = np.linspace(model.support_low, model.support_low + 30.0, 50)
        np.testing.assert_allclose(
            model.log_survival(t), np.log(model.survival(t)), rtol=1e-12, atol=1e-12
        )


class TestQuantile:
    def test_pareto_closed_form(self):
        assert Pareto(2.0, 1.0).quantile(0.01) == pytest.approx(10.0, rel=1e-14)

    def test_log_pareto_support_edge(self):
        assert LogPareto(2.0, 3.0, 0.4).quantile(1.0) == pytest.approx(0.4)

    def test_log_pareto_deep(self):
        m = LogPareto(2.0, 3.0, 0.4)
        t = m.quantile(1e-4)
        assert m.survival(t) == pytest.approx(1e-4, rel=1e-10)

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_inversion(self, model):
        rng = np.random.default_rng(0)
        u = np.exp(rng.uniform(np.log(1e-8), 0.0, 1000))
        s = model.survival(model.quantile(u))
        assert np.max(np.abs(s - u) / u) <= 1e-8

    def test_domain_errors(self):
        m = Pareto(2.0, 1.0)
        with pytest.raises(ValueError, match="unbounded"):
            m.quantile(0.0)
        with pytest.raises(ValueError):
            m.quantile(1.5)

    @given(st.floats(min_value=1e-8, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_inversion_property(self, u):
        m = LogPareto(2.0, 3.0, 0.4)
        assert m.survival(m.quantile(u)) == pytest.approx(u, rel=1e-8)


# (alpha, beta, x0): LogPareto(alpha, beta, x0) and ExpPoly(alpha, -beta, x0)
SOLVER_PARAMS = [
    (0.5, 5.0, 2.0),
    (2.0, 40.0, 1.0),
    (5.0, 1.01, 0.1),
    (2.0, 3.0, 0.4),
    (1.2, 1.5, 2.0),
    (1.0, 2.0, 1.0),
]


class TestLog1pSolver:
    """LogPareto and ExpPoly quantiles solve a v + b log1p(v) = -log u; the
    oracle is the generic Newton solver started from w / a."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _u():
        rng = np.random.default_rng(11)
        return np.concatenate([np.logspace(-300.0, 0.0, 601), 1.0 - rng.random(5000)])

    @pytest.mark.parametrize("alpha,beta,x0", SOLVER_PARAMS)
    def test_log_pareto_matches_oracle(self, alpha, beta, x0):
        u = self._u()
        w = -np.log(u)
        v_ref = _newton_concave_increasing(
            lambda v: alpha * v + beta * np.log1p(v),
            lambda v: alpha + beta / (1.0 + v),
            w,
            w / alpha,
        )
        with np.errstate(over="ignore"):
            q = LogPareto(alpha, beta, x0).quantile(u)
            finite = np.isfinite(x0 * np.exp(v_ref))
        # past exp overflow both give inf
        np.testing.assert_array_equal(np.isfinite(q), finite)
        v = np.log(q[finite] / x0)
        err = np.abs(v - v_ref[finite]) / (self.EPS * (1.0 + v_ref[finite]))
        assert err.max() <= 4.0

    @pytest.mark.parametrize("alpha,beta,t0", SOLVER_PARAMS)
    def test_exp_poly_matches_oracle(self, alpha, beta, t0):
        u = self._u()
        w = -np.log(u)
        z_ref = _newton_concave_increasing(
            lambda z: alpha * z + beta * np.log1p(z / t0),
            lambda z: alpha + beta / (t0 + z),
            w,
            w / alpha,
        )
        v = (ExpPoly(alpha, -beta, t0).quantile(u) - t0) / t0
        v_ref = z_ref / t0
        assert np.max(np.abs(v - v_ref) / (self.EPS * (1.0 + v_ref))) <= 4.0

    @pytest.mark.parametrize("model", [
        LogPareto(2.0, 3.0, 0.4), ExpPoly(1.0, -2.0, 1.0), ExpStretched(1.0, 1.0, 0.5, 1.0),
    ])
    def test_contract(self, model):
        assert isinstance(model.quantile(0.3), float)
        assert model.quantile(1.0) == model.support_low
        u = self._u()
        kept = u.copy()
        u.flags.writeable = False  # writing into the caller's u would raise
        q = model.quantile(u)
        np.testing.assert_array_equal(u, kept)
        # each element's root is its own: one call per element changes no bit
        assert np.array_equal(q, [model.quantile(x) for x in u])
        with pytest.raises(ValueError, match="unbounded"):
            model.quantile(np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="domain error"):
            model.quantile(1.5)


class TestSampling:
    def test_constant(self):
        rng = np.random.default_rng(0)
        assert np.all(Constant(1.0).sample(10, rng) == 1.0)

    def test_pareto_single_u(self):
        # U = 0.25 maps to t with (1/t)^2 = 0.25
        assert Pareto(2.0, 1.0).quantile(0.25) == pytest.approx(2.0)

    def test_log_pareto_tail_frequency(self):
        m = LogPareto(2.0, 3.0, 0.4)
        rng = np.random.default_rng(42)
        x = m.sample(10**6, rng)
        p = m.survival(4.0)
        se = math.sqrt(p * (1 - p) / 10**6)
        assert abs(np.mean(x > 4.0) - p) <= 3 * se

    @pytest.mark.parametrize("model", ALL_MODELS[:4])
    def test_chi_square_fit(self, model):
        from scipy.stats import chisquare

        rng = np.random.default_rng(7)
        n = 10**5
        x = model.sample(n, rng)
        edges = model.quantile(1.0 - np.linspace(0.0, 0.95, 21)[1:])  # 20 bins
        counts = np.histogram(x, bins=np.concatenate(([model.support_low], np.sort(edges), [np.inf])))[0]
        expected = np.full(21, n / 20.0)
        expected[-1] = n * 0.05
        expected[:20] = n * 0.0475  # 0.95/20 per interior bin
        stat, pval = chisquare(counts, expected * counts.sum() / expected.sum())
        assert pval > 1e-3


class TestMoments:
    def test_pareto_closed_form(self):
        assert Pareto(3.0, 1.0).alpha_moment(2.0) == pytest.approx(3.0)
        assert Pareto(2.0, 1.0).alpha_moment(2.0) == math.inf

    def test_log_pareto_boundary_moment(self):
        # x0^a (1 + a/(beta-1)) = 0.16 * 2
        assert LogPareto(2.0, 3.0, 0.4).alpha_moment(2.0) == pytest.approx(0.32)

    def test_log_pareto_quadrature_vs_closed_form(self):
        m = LogPareto(2.0, 3.0, 0.4)
        closed = m.alpha_moment(2.0)
        # adaptive quadrature of the defining integral x0^2 + int 2 t S(t) dt,
        # after the substitution v = log(t / x0) which tames the slow tail
        from scipy.integrate import quad

        val, _ = quad(
            lambda v: 2.0 * 0.4**2 * np.exp(2.0 * v) * m.survival(0.4 * np.exp(v)),
            0.0,
            np.inf,
            epsrel=1e-10,
            limit=500,
        )
        assert 0.4**2 + val == pytest.approx(closed, rel=1e-6)

    def test_exp_poly_exponential_moment(self):
        m = ExpPoly(1.0, -2.0, 1.0)
        # m_alpha at s = alpha: integral of e^t S(t) = e * t^{-2}, so
        # E[e^X] = e + int_1^inf e^t S(t) dt = e + e * 1 = 2e
        assert m.exp_moment(1.0) == pytest.approx(2.0 * math.e, rel=1e-8)
        assert m.exp_moment(1.5) == math.inf

    def test_constant_moments(self):
        assert Constant(2.0).alpha_moment(2.0) == 4.0
        assert Constant(2.0).exp_moment(1.0) == pytest.approx(math.exp(2.0))


class TestLogView:
    def test_pareto_becomes_exponential(self):
        lv = log_view(Pareto(2.0, 1.0))
        t = np.linspace(0.0, 20.0, 100)
        np.testing.assert_allclose(lv.survival(t), np.exp(-2.0 * t), rtol=1e-12)

    def test_log_pareto_form(self):
        lv = log_view(LogPareto(2.0, 3.0, 1.0))
        t = np.linspace(0.001, 20.0, 100)
        np.testing.assert_allclose(
            lv.survival(t), np.exp(-2.0 * t) * (1.0 + t) ** -3.0, rtol=1e-12
        )

    def test_pointwise_vs_direct(self):
        m = ExpPoly(1.0, -2.0, 1.0)
        lv = log_view(m)
        t = np.linspace(0.0, 5.0, 100)
        np.testing.assert_allclose(lv.survival(t), m.survival(np.exp(t)), rtol=1e-12)

    def test_exp_moment_is_base_power_moment(self):
        m = LogPareto(2.0, 3.0, 0.4)
        assert log_view(m).exp_moment(2.0) == pytest.approx(0.32)

    def test_rejects_signed_support(self):
        with pytest.raises(ValueError):
            log_view(Constant(-1.0))

    def test_log_survival_no_overflow(self):
        lv = log_view(Pareto(2.0, 1.0))
        # far beyond where exp(t) overflows, the log-survival stays exact
        assert lv.log_survival(5000.0) == pytest.approx(-10000.0)


class TestRegularVariation:
    def test_pareto_exact_scaling(self):
        m = Pareto(2.0, 1.0)
        y = np.array([0.5, 1.0, 2.0, 10.0])
        t = 100.0
        np.testing.assert_allclose(
            m.survival(y * t) / m.survival(t), y**-2.0, rtol=1e-12
        )

    def test_log_pareto_sup_decreases(self):
        m = LogPareto(2.0, 3.0, 0.4)
        y = np.geomspace(0.5, 10.0, 200)
        sups = []
        for t in (1e2, 1e3, 1e4):
            ratio = m.survival(y * t) / m.survival(t)
            sups.append(np.max(np.abs(ratio - y**-2.0)))
        assert sups[0] > sups[1] > sups[2]


class TestModelGrammar:
    @pytest.mark.parametrize("model", ALL_MODELS + [Constant(1.5)])
    def test_round_trip(self, model):
        assert parse_model(format_model(model)) == model

    def test_parse_example(self):
        m = parse_model("log_pareto(alpha=2.0, beta=3.0, x0=0.4)")
        assert m == LogPareto(2.0, 3.0, 0.4)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unknown model family"):
            parse_model("cauchy(x0=1)")
        with pytest.raises(ValueError, match="missing parameters"):
            parse_model("pareto(alpha=2)")
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_model("pareto(alpha=2, beta=3, x0=1)")
