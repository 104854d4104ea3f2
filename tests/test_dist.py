import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expn

from sfpe.dist import (
    Constant,
    ExpPoly,
    ExpStretched,
    InvalidParameterError,
    LogPareto,
    LogView,
    Pareto,
    TailModel,
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
# the laws with a closed-form quantile, the first two of ALL_MODELS
PARETOS = ALL_MODELS[:2]


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

    @pytest.mark.parametrize(
        "spec",
        [
            "pareto(alpha=inf, x0=1.0)",
            "pareto(alpha=2.0, x0=inf)",
            "log_pareto(alpha=2.0, beta=inf, x0=0.4)",
            "exp_poly(alpha=1.0, p=-inf, t0=1.0)",
            "exp_stretched(alpha=1.0, beta=inf, gamma=0.5, t0=1.0)",
            "constant(c=nan)",
            "constant(c=inf)",
        ],
    )
    def test_non_finite_parameters_rejected(self, spec):
        with pytest.raises(InvalidParameterError, match="finite"):
            parse_model(spec)


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


class TestElasticity:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_matches_central_difference(self, model):
        # e(t) = -dlog S / dlog t against a central difference of
        # log_survival in log t, from just above the support edge out
        t = model.support_low * np.array([1.01, 1.5, 3.0, 10.0, 100.0])
        h = 1e-5
        diff = (model.log_survival(t * math.exp(-h)) - model.log_survival(t * math.exp(h))) / (2 * h)
        np.testing.assert_allclose(model.elasticity(t), diff, rtol=1e-7, atol=0.0)
        assert type(model.elasticity(float(t[1]))) is float


class TestQuantile:
    def test_pareto_closed_form(self):
        assert Pareto(2.0, 1.0).quantile(0.01) == pytest.approx(10.0, rel=1e-14)

    @pytest.mark.parametrize("model", PARETOS)
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

    @pytest.mark.parametrize("model", [m for m in ALL_MODELS if m not in PARETOS])
    def test_no_closed_form_no_quantile(self, model):
        with pytest.raises(NotImplementedError, match=f"{model.family} has no closed-form quantile"):
            model.quantile(0.5)


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

    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_chi_square_fit(self, model):
        # the bin edges solve log S(t) = log u by brentq, a route the
        # samplers do not share
        from scipy.optimize import brentq
        from scipy.stats import chisquare

        def edge(u):
            def f(t):
                return model.log_survival(t) - math.log(u)

            hi = 2.0 * model.support_low
            while f(hi) > 0.0:
                hi *= 2.0
            return brentq(f, model.support_low, hi, xtol=1e-14, rtol=1e-14)

        rng = np.random.default_rng(7)
        n = 10**5
        x = model.sample(n, rng)
        edges = np.array([edge(u) for u in 1.0 - np.linspace(0.0, 0.95, 21)[1:]])  # 20 bins
        counts = np.histogram(x, bins=np.concatenate(([model.support_low], np.sort(edges), [np.inf])))[0]
        expected = np.full(21, n / 20.0)
        expected[-1] = n * 0.05
        expected[:20] = n * 0.0475  # 0.95/20 per interior bin
        stat, pval = chisquare(counts, expected * counts.sum() / expected.sum())
        assert pval > 1e-3

    @pytest.mark.parametrize("model", ALL_MODELS + [Constant(1.5)])
    def test_same_seed_same_bytes(self, model):
        draws = [model.sample(1000, np.random.default_rng(3)) for _ in range(2)]
        assert draws[0].tobytes() == draws[1].tobytes()
        assert draws[0].shape == (1000,) and np.all(draws[0] >= model.support_low)


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
        # the moment rule itself, where s t + log S(t) cancels
        assert TailModel.exp_moment(m, 1.0) == pytest.approx(2.0 * math.e, rel=1e-12)

    @pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
    def test_exp_poly_exponential_moment_below_alpha(self, s):
        # E[e^{sX}] = e^s + s int_1^inf e^{st} t^{-2} e^{-(t-1)} dt
        #           = e^s + s e E_2(1 - s)
        expected = math.exp(s) + s * math.e * expn(2, 1.0 - s)
        assert ExpPoly(1.0, -2.0, 1.0).exp_moment(s) == pytest.approx(expected, rel=1e-12)

    def test_exp_stretched_exponential_moment_at_alpha(self):
        # E[e^X] = e + int_1^inf e^t e^{-(t-1) - (sqrt(t) - 1)} dt
        #        = e + e^2 int_1^inf e^{-sqrt(t)} dt = e + e^2 (4/e) = 5e
        m = ExpStretched(1.0, 1.0, 0.5, 1.0)
        assert m.exp_moment(1.0) == pytest.approx(5.0 * math.e, rel=1e-12)

    @pytest.mark.parametrize("model", [Pareto(2.0, 1.0), LogPareto(2.0, 3.0, 0.4)])
    def test_power_tail_has_no_exponential_moment(self, model):
        assert model.exp_moment(0.0) == 1.0
        assert model.exp_moment(0.5) == math.inf

    def test_constant_moments(self):
        assert Constant(2.0).alpha_moment(2.0) == 4.0
        assert Constant(2.0).exp_moment(1.0) == pytest.approx(math.exp(2.0))

    @pytest.mark.parametrize(
        "model, s",
        [(LogPareto(2.0, 3.0, 0.4), s) for s in (0.5, 1.0, 1.5, 1.9, 1.99)]
        + [(ExpPoly(1.0, -2.0, 1.0), s) for s in (0.3, 1.0, 2.0)]
        + [(ExpStretched(1.0, 1.0, 0.5, 1.0), s) for s in (0.3, 1.0, 2.0)]
        + [(LogPareto(0.5, 1.01, 0.1), 0.25), (LogPareto(5.0, 1.01, 0.1), 2.5)],
    )
    def test_power_moment_matches_quad(self, model, s):
        # t0^s (1 + s int_0^inf e^{s v} S(t0 e^v) dv), v = log(t / t0), by
        # adaptive quadrature; on the log scale, since t0 e^v overflows at
        # v = 710, and for LogPareto at s = 1.99 about 2e-10 of the moment lies past it
        t0 = model.support_low
        val, _ = quad(
            lambda v: math.exp(s * v + model.log_survival_logx(math.log(t0) + v)),
            0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=1000,
        )
        assert model.alpha_moment(s) == pytest.approx(t0**s * (1.0 + s * val), rel=1e-12)

    @pytest.mark.parametrize(
        "model, s",
        [(ExpPoly(1.0, -2.0, 1.0), s) for s in (0.3, 0.9)]
        + [(ExpStretched(1.0, 1.0, 0.5, 1.0), s) for s in (0.3, 1.0)]
        + [(ExpStretched(2.0, 0.3, 0.8, 0.5), s) for s in (1.0, 2.0)],
    )
    def test_exponential_moment_matches_quad(self, model, s):
        # e^{s t0} + s int_0^inf e^{s (t0 + z)} S(t0 + z) dz by adaptive quadrature
        t0 = model.support_low
        val, _ = quad(
            lambda z: math.exp(s * (t0 + z) + model.log_survival(t0 + z)),
            0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=1000,
        )
        assert model.exp_moment(s) == pytest.approx(math.exp(s * t0) + s * val, rel=1e-12)

    @pytest.mark.parametrize(
        "model, s",
        [(Pareto(3.0, 1.0), s) for s in (0.0, 0.5, 1.0, 2.0, 2.9)]
        + [(Pareto(0.7, 0.3), 0.35), (Pareto(2.0, 5.0), 1.5)],
    )
    def test_default_power_moment_matches_pareto_closed_form(self, model, s):
        # the rule itself, on a law whose moments are alpha x0^s / (alpha - s)
        assert TailModel.alpha_moment(model, s) == pytest.approx(model.alpha_moment(s), rel=1e-12)

    @pytest.mark.parametrize("p", [-1.01, -1.5, -2.0])
    def test_exp_poly_moment_at_alpha_for_slow_tails(self, p):
        # e^{alpha t} S(t) = e^{alpha t0} (t/t0)^p, whose tail past 1e13 holds
        # most of the integral at p = -1.01: the closed form against quadrature
        m = ExpPoly(1.0, p, 1.0)
        val, _ = quad(lambda t: t**p, 1.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=1000)
        assert m.exp_moment(1.0) == pytest.approx(math.e * (1.0 + val), rel=1e-9)


class TestLogView:
    def test_pareto_becomes_exponential(self):
        lv = LogView(Pareto(2.0, 1.0))
        t = np.linspace(0.0, 20.0, 100)
        np.testing.assert_allclose(lv.survival(t), np.exp(-2.0 * t), rtol=1e-12)

    def test_log_pareto_form(self):
        lv = LogView(LogPareto(2.0, 3.0, 1.0))
        t = np.linspace(0.001, 20.0, 100)
        np.testing.assert_allclose(
            lv.survival(t), np.exp(-2.0 * t) * (1.0 + t) ** -3.0, rtol=1e-12
        )

    def test_pointwise_vs_direct(self):
        m = ExpPoly(1.0, -2.0, 1.0)
        lv = LogView(m)
        t = np.linspace(0.0, 5.0, 100)
        np.testing.assert_allclose(lv.survival(t), m.survival(np.exp(t)), rtol=1e-12)

    def test_exp_moment_is_base_power_moment(self):
        m = LogPareto(2.0, 3.0, 0.4)
        assert LogView(m).exp_moment(2.0) == pytest.approx(0.32)

    def test_rejects_signed_support(self):
        with pytest.raises(ValueError):
            LogView(Constant(-1.0))

    def test_log_survival_no_overflow(self):
        lv = LogView(Pareto(2.0, 1.0))
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
        assert parse_model(repr(model)) == model

    def test_parse_example(self):
        m = parse_model("log_pareto(alpha=2.0, beta=3.0, x0=0.4)")
        assert m == LogPareto(2.0, 3.0, 0.4)
        assert repr(m) == "log_pareto(alpha=2.0, beta=3.0, x0=0.4)"

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="unknown model family"):
            parse_model("cauchy(x0=1)")
        with pytest.raises(ValueError, match="missing parameters"):
            parse_model("pareto(alpha=2)")
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_model("pareto(alpha=2, beta=3, x0=1)")
        with pytest.raises(ValueError, match="given twice"):
            parse_model("pareto(alpha=2, x0=1, alpha=3)")


class TestFamilyContract:
    """What TailModel owns, checked on every family."""

    @pytest.mark.parametrize("model", ALL_MODELS + [Constant(1.5)])
    def test_scalar_in_float_out_array_in_array_out(self, model):
        t = 2.0 * model.support_low + 1.0
        methods = [(model.survival, t), (model.log_survival, t)]
        if model in PARETOS or isinstance(model, Constant):
            methods.append((model.quantile, 0.3))
        for method, x in methods:
            assert type(method(x)) is float
            out = method(np.full((2, 3), x))
            assert isinstance(out, np.ndarray) and out.shape == (2, 3)

    @pytest.mark.parametrize("model", ALL_MODELS + [Constant(1.5)])
    def test_below_support(self, model):
        below = np.array([-1.0, 0.0, 0.5 * model.support_low])
        for t in (-1.0, 0.0, below):
            assert np.all(model.survival(t) == 1.0)
            assert np.all(model.log_survival(t) == 0.0)

    @pytest.mark.parametrize("model", ALL_MODELS + [Constant(1.5)])
    def test_quantile_domain(self, model):
        for u in (0.0, 1.5, math.nan, np.array([0.5, 0.0])):
            with pytest.raises(ValueError, match="u must be in"):
                model.quantile(u)

    @pytest.mark.parametrize("model", ALL_MODELS + [Constant(1.5)])
    def test_params_are_the_grammar_keys(self, model):
        params = model.params()

        def spec(items):
            return f"{model.family}({', '.join(f'{k}={v!r}' for k, v in items)})"

        assert parse_model(spec(params.items())) == model
        for key in params:
            with pytest.raises(ValueError, match="missing parameters"):
                parse_model(spec((k, v) for k, v in params.items() if k != key))
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_model(spec([*params.items(), ("extra", 1.0)]))
