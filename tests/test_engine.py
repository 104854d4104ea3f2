import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from sfpe import engine
from sfpe.dist import Constant, ExpPoly, ExpStretched, LogPareto, Pareto, TailModel
from sfpe.engine import (
    EngineError,
    SampleBatch,
    SimConfig,
    conditional_tail,
    load_batch,
    sample_perpetuity,
    sample_stationary_chain,
    save_batch,
    smoothed_tail,
)
from sfpe.maps import (
    AFFINE,
    EQUAL,
    INDEPENDENT,
    MAX_AFFINE,
    SIGNED,
    CoeffLaw,
    MapFamily,
)
from sfpe.tailstats import default_grid

LP = LogPareto(2.0, 3.0, 0.4)
INDEP = CoeffLaw(LP, LP, INDEPENDENT, c_b=1.0)
INDEP_FAMILY = MapFamily(AFFINE, INDEP)
SIGNED_COEFF = CoeffLaw(LP, LP, SIGNED, p_plus=0.75, c_b=1.0)
EQUAL_COEFF = CoeffLaw(LP, LP, EQUAL)
CONST_B = CoeffLaw(LP, Constant(1.0), INDEPENDENT)
# B on a support edge of its own
OTHER_B = CoeffLaw(LP, LogPareto(3.0, 1.5, 1.0), SIGNED, p_plus=0.75)
# B of each other family: a pure power tail and two light tails
PARETO_B = CoeffLaw(LP, Pareto(3.0, 1.0), SIGNED, p_plus=0.75)
EXP_POLY_B = CoeffLaw(LP, ExpPoly(1.0, -2.0, 1.0), SIGNED, p_plus=0.75)
EXP_STRETCHED_B = CoeffLaw(LP, ExpStretched(1.0, 1.0, 0.5, 1.0), SIGNED, p_plus=0.75)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_samples=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n_samples=10, seed=1, burn_in=0)
        with pytest.raises(ValueError):
            SimConfig(n_samples=10, seed=1, truncation_eps=2.0)
        with pytest.raises(ValueError):
            SimConfig(n_samples=10, seed=1, method="mcmc")
        with pytest.raises(ValueError):
            SimConfig(n_samples=10, seed=1, method="smoothed")
        with pytest.raises(ValueError):
            SimConfig(n_samples=10, seed=1, chunk_size=0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError):
                SimConfig(n_samples=10, seed=seed)
        for x_init in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="x_init"):
                SimConfig(n_samples=10, seed=1, x_init=x_init)

    def test_seeds_give_distinct_streams(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = [(seed, 0) for seed in (0, 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1)]
            # words of a list-form SeedSequence key: both are [0, 1, 5]
            keys += [(2**32, 5), (0, 1 + 5 * 2**32)]
            # the stability precheck's stream against the first chunk's
            keys += [(7, 2**63), (7, 0)]
            draws = [engine._chunk_rng(seed, chunk).random() for seed, chunk in keys]
        assert len(set(draws)) == len(keys)


class TestChain:
    def test_fixed_point_in_one_step(self):
        fam = MapFamily(AFFINE, CoeffLaw(Constant(0.0), Constant(5.0), INDEPENDENT))
        batch = sample_stationary_chain(fam, SimConfig(n_samples=100, seed=1))
        assert np.all(batch.values == 5.0)

    def test_deterministic_geometric_sum(self):
        fam = MapFamily(AFFINE, CoeffLaw(Constant(0.5), Constant(1.0), INDEPENDENT))
        batch = sample_stationary_chain(
            fam, SimConfig(n_samples=50, seed=1, burn_in=4)
        )
        assert np.all(batch.values == 1.875)

    def test_mean_matches_moment_identity(self):
        # E[X] = E[B] / (1 - E[A]) for independent coefficients
        mu = LP.alpha_moment(1.0)
        target = mu / (1.0 - mu)
        batch = sample_stationary_chain(
            INDEP_FAMILY, SimConfig(n_samples=400_000, seed=3)
        )
        se = batch.values.std(ddof=1) / math.sqrt(batch.values.size)
        assert abs(batch.values.mean() - target) <= 3 * se

    def test_overflow_is_engine_error(self):
        # A x overflows at the first step; the chain's own check reports it,
        # with no numpy RuntimeWarning on the way
        cfg = SimConfig(n_samples=1000, seed=1, x_init=-1e308)
        with pytest.raises(EngineError, match="non-finite state in replica .* at step 0"):
            sample_stationary_chain(INDEP_FAMILY, cfg)

    def test_determinism_across_worker_counts(self):
        cfg = SimConfig(n_samples=200_000, seed=9)
        ref = sample_stationary_chain(INDEP_FAMILY, cfg, workers=1)
        for workers in (2, 4):
            other = sample_stationary_chain(INDEP_FAMILY, cfg, workers=workers)
            np.testing.assert_array_equal(ref.values, other.values)

    def test_burn_in_doubling_changes_little(self):
        n = 100_000
        a = sample_stationary_chain(INDEP_FAMILY, SimConfig(n_samples=n, seed=5))
        b = sample_stationary_chain(
            INDEP_FAMILY, SimConfig(n_samples=n, seed=6, burn_in=128)
        )
        assert ks_2samp(a.values, b.values).statistic <= 0.01

    def test_stationarity_one_more_map(self):
        # applying one extra random map leaves the distribution unchanged
        from sfpe.maps import apply_map, draw_coeffs

        batch = sample_stationary_chain(
            INDEP_FAMILY, SimConfig(n_samples=200_000, seed=8)
        )
        rng = np.random.default_rng(123)
        a, b, c = draw_coeffs(INDEP_FAMILY, batch.values.size, rng)
        moved = apply_map(AFFINE, a, b, c, batch.values)
        for t in np.quantile(batch.values, [0.5, 0.9, 0.99]):
            p0 = np.mean(batch.values > t)
            p1 = np.mean(moved > t)
            se = math.sqrt(2 * p0 * (1 - p0) / batch.values.size)
            assert abs(p0 - p1) <= 3 * se


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    max_workers_seen = []

    def __init__(self, max_workers):
        self.max_workers_seen.append(max_workers)

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)

    def shutdown(self):
        pass


class TestWorkerBound:
    def test_at_most_one_process_per_chunk(self, monkeypatch):
        monkeypatch.setattr(engine, "ProcessPoolExecutor", _SerialPool)
        monkeypatch.setattr(_SerialPool, "max_workers_seen", [])
        cfg = SimConfig(n_samples=4000, seed=3, burn_in=8, chunk_size=1000)
        ref = sample_stationary_chain(INDEP_FAMILY, cfg, workers=1)
        assert _SerialPool.max_workers_seen == []
        many = sample_stationary_chain(INDEP_FAMILY, cfg, workers=10**6)
        assert _SerialPool.max_workers_seen == [4]
        assert many.values.tobytes() == ref.values.tobytes()


class TestPerpetuity:
    def test_geometric_series(self):
        coeff = CoeffLaw(Constant(0.5), Constant(1.0), INDEPENDENT)
        n_terms, _ = engine.perpetuity_terms(coeff, 1e-3)
        batch = sample_perpetuity(coeff, SimConfig(n_samples=20, seed=1))
        expected = 2.0 * (1.0 - 0.5**n_terms)
        assert np.all(batch.values == expected)

    def test_a_zero_collapses_to_b(self):
        coeff = CoeffLaw(Constant(0.0), Constant(7.0), INDEPENDENT)
        # E[|A|] = 0 so a single term suffices
        batch = sample_perpetuity(coeff, SimConfig(n_samples=10, seed=1))
        assert np.all(batch.values == 7.0)

    def test_remainder_bound_recorded(self):
        batch = sample_perpetuity(INDEP, SimConfig(n_samples=100, seed=1))
        assert batch.extra["remainder_bound"] < 1e-3
        assert batch.extra["n_terms"] >= 1

    def test_is_chain_run_n_terms_from_zero(self):
        cfg = SimConfig(n_samples=1000, seed=12, chunk_size=300, x_init=2.0)
        perp = sample_perpetuity(SIGNED_COEFF, cfg)
        n_terms, _ = engine.perpetuity_terms(SIGNED_COEFF, cfg.truncation_eps)
        chain = sample_stationary_chain(
            MapFamily(AFFINE, SIGNED_COEFF),
            SimConfig(n_samples=1000, seed=12, chunk_size=300, burn_in=n_terms),
        )
        assert perp.values.tobytes() == chain.values.tobytes()
        assert perp.method == "perpetuity"
        assert perp.extra["n_terms"] == n_terms

    def test_contraction_required(self):
        coeff = CoeffLaw(Constant(1.5), Constant(1.0), INDEPENDENT)
        with pytest.raises(EngineError, match="use chain method"):
            sample_perpetuity(coeff, SimConfig(n_samples=10, seed=1))

    def test_cross_method_ks(self):
        n = 100_000
        chain = sample_stationary_chain(INDEP_FAMILY, SimConfig(n_samples=n, seed=21))
        perp = sample_perpetuity(INDEP, SimConfig(n_samples=n, seed=22))
        assert ks_2samp(chain.values, perp.values).statistic <= 0.01

    def test_truncation_error_consistent_with_eps(self):
        # rerun the same series to K+20 terms on one stream and measure the
        # mass the truncation drops
        cfg = SimConfig(n_samples=50_000, seed=31, truncation_eps=1e-3)
        short = sample_perpetuity(INDEP, cfg)
        k = short.extra["n_terms"]
        assert short.extra["remainder_bound"] < cfg.truncation_eps

        from sfpe.maps import draw_coeffs

        rng = np.random.default_rng(99)
        n = cfg.n_samples
        acc = np.zeros(n)
        prod = np.ones(n)
        truncated = None
        for step in range(k + 20):
            a, b, _ = draw_coeffs(INDEP_FAMILY, n, rng)
            acc += b * prod
            prod *= a
            if step == k - 1:
                truncated = acc.copy()
        dropped = np.abs(acc - truncated)
        # Markov bound on E|remainder| is what sized K; check it empirically
        assert dropped.mean() < cfg.truncation_eps
        assert np.quantile(dropped, 0.99) < 10 * cfg.truncation_eps


class TestConditionalTail:
    def test_equal_closed_form(self):
        pa = Pareto(2.0, 1.0)
        coeff = CoeffLaw(pa, pa, EQUAL)
        out = conditional_tail(coeff, AFFINE, 10.0, np.array([1.0]))
        assert out[0] == pytest.approx(0.04)

    def test_constant_b_shift(self):
        pa = Pareto(2.0, 1.0)
        coeff = CoeffLaw(pa, Constant(1.0), INDEPENDENT)
        out = conditional_tail(coeff, AFFINE, 11.0, np.array([2.0]))
        assert out[0] == pytest.approx(0.04)

    def test_max_affine(self):
        pa = Pareto(2.0, 1.0)
        coeff = CoeffLaw(pa, Constant(3.0), INDEPENDENT)
        # P[max(2A, 3) > 10] = P[A > 5] = 0.04
        out = conditional_tail(coeff, MAX_AFFINE, 10.0, np.array([2.0]))
        assert out[0] == pytest.approx(0.04)

    def test_max_affine_left_tail(self):
        # P[max(A y, B) < -t] = P[A y < -t] P[B < -t]: with B = -5 and t = 1
        # that is 1 at y = -3 (A >= 0.4 > 1/3) and S_A(1) at y = -1
        coeff = CoeffLaw(LP, Constant(-5.0), INDEPENDENT)
        out = conditional_tail(coeff, MAX_AFFINE, 1.0, np.array([-3.0, -1.0, 2.0]), side=-1)
        np.testing.assert_allclose(out, [1.0, LP.survival(1.0), 0.0], rtol=1e-15)
        assert LP.survival(1.0) == pytest.approx(0.0228, abs=1e-4)
        # B = -5 is never below -t = -6, and a positive B never below -t
        assert np.all(conditional_tail(coeff, MAX_AFFINE, 6.0, np.array([-3.0, -1.0]), side=-1) == 0.0)
        positive = CoeffLaw(LP, LP, INDEPENDENT)
        assert np.all(conditional_tail(positive, MAX_AFFINE, 1.0, np.array([-3.0, -1.0]), side=-1) == 0.0)

    def test_indep_affine_vs_monte_carlo(self):
        rng = np.random.default_rng(17)
        n = 2_000_000
        a = LP.sample(n, rng)
        b = LP.sample(n, rng)
        for y, t in ((2.0, 10.0), (0.5, 6.0), (-1.0, 4.0)):
            mc = np.mean(a * y + b > t)
            exact = conditional_tail(INDEP, AFFINE, t, np.array([y]))[0]
            se = math.sqrt(max(mc, 1e-12) * (1 - mc) / n)
            assert abs(exact - mc) <= 4 * se + 1e-9

    def test_signed_both_tails_vs_monte_carlo(self):
        coeff = CoeffLaw(LP, LP, SIGNED, p_plus=0.75, c_b=1.0)
        rng = np.random.default_rng(29)
        n = 2_000_000
        w = LP.sample(n, rng)
        sign = np.where(rng.random(n) < 0.75, 1.0, -1.0)
        b = LP.sample(n, rng)
        for y, t in ((2.0, 8.0), (-1.5, 6.0)):
            x = sign * w * y + b
            for side, mc in ((+1, np.mean(x > t)), (-1, np.mean(x < -t))):
                exact = conditional_tail(coeff, AFFINE, t, np.array([y]), side=side)[0]
                se = math.sqrt(max(mc, 1e-12) * (1 - mc) / n)
                assert abs(exact - mc) <= 4 * se + 1e-9


def _log_density(b, x):
    """dF_B / dlog b at b = e^x, which is S_B(b) e_B(b) with
    e_B = -dlog S_B / dlog b, written out for each family of B."""
    v = math.exp(x)
    if isinstance(b, Pareto):  # S = (x0/v)^alpha
        return b.alpha * (b.x0 / v) ** b.alpha
    if isinstance(b, LogPareto):  # S = (x0/v)^alpha (1 + r)^-beta, r = log(v/x0)
        r = x - math.log(b.x0)
        return math.exp(-b.alpha * r) * (1.0 + r) ** -b.beta * (b.alpha + b.beta / (1.0 + r))
    if isinstance(b, ExpPoly):  # S = (v/t0)^p e^{-alpha (v - t0)}
        return (v / b.t0) ** b.p * math.exp(-b.alpha * (v - b.t0)) * (b.alpha * v - b.p)
    # ExpStretched: S = exp{-alpha (v - t0) - beta (v^gamma - t0^gamma)}
    g = b.gamma
    log_s = -b.alpha * (v - b.t0) - b.beta * (v**g - b.t0**g)
    return math.exp(log_s) * (b.alpha * v + b.beta * g * v**g)


def _affine_branch_by_quad(w, b, s, t, sigma):
    """P[s W + sigma B > t] = int P[s W > t - sigma b] dF_B(b) for independent
    LogPareto W and B of any family, by adaptive quadrature over x = log b,
    split at the kinks of the integrand and densely on both sides of each."""

    def p_sw(c):
        if s > 0:
            return float(w.survival(c / s))
        if s < 0:
            return 1.0 - float(w.survival(c / s))
        return float(c < 0.0)

    def integrand(x):
        return p_sw(t - sigma * math.exp(x)) * _log_density(b, x)

    x0 = b.support_low
    lo = math.log(x0)  # up to log b = 600, beyond which dF_B is nil
    kinks = [k for k in ((t - s * w.x0) / sigma, t / sigma) if k > x0]
    kinks = [math.log(k) for k in kinks]
    near = [k + side * math.log1p(10.0**j)
            for k in kinks for j in range(-7, 4) for side in (-1, 1)]
    edges = sorted({lo, 600.0, *kinks, *(e for e in near if e > lo)})
    return sum(
        quad(integrand, x, y, epsabs=1e-22, epsrel=1e-11, limit=400)[0]
        for x, y in zip(edges[:-1], edges[1:])
    )


class TestConditionalTailQuadrature:
    # Gauss-Legendre over log B against adaptive quadrature over log B with
    # the density written out; the 4-sigma Monte Carlo tests above cannot
    # resolve a percent-level bias deep in the tail
    YS = (-3.0, -1.0, -0.3, 0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
    TS = (2.0, 3.5, 10.0, 50.0, 200.0)

    @pytest.mark.parametrize("coeff,side", [
        (INDEP, +1), (SIGNED_COEFF, +1), (SIGNED_COEFF, -1), (OTHER_B, +1), (OTHER_B, -1),
        (PARETO_B, +1), (EXP_POLY_B, +1), (EXP_STRETCHED_B, +1),
    ], ids=["independent", "signed-right", "signed-left", "other-b-right", "other-b-left",
            "pareto-b-right", "exp-poly-b-right", "exp-stretched-b-right"])
    def test_affine_matches_quadrature(self, coeff, side):
        p = coeff.p_plus
        w, b = coeff.marginal_a, coeff.marginal_b
        for t in self.TS:
            got = conditional_tail(coeff, AFFINE, t, np.array(self.YS), side=side)
            want = [
                p * _affine_branch_by_quad(w, b, side * y, t, side)
                + (1.0 - p) * _affine_branch_by_quad(w, b, -side * y, t, side)
                for y in self.YS
            ]
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0,
                                       err_msg=f"t = {t}")


CASES = pytest.mark.parametrize("coeff,side", [
    (INDEP, +1), (SIGNED_COEFF, +1), (SIGNED_COEFF, -1),
], ids=["independent", "signed-right", "signed-left"])
# CASES and the two laws whose one-step tail needs no quadrature
ALL_CASES = pytest.mark.parametrize("coeff,side", [
    (INDEP, +1), (SIGNED_COEFF, +1), (SIGNED_COEFF, -1), (EQUAL_COEFF, +1), (CONST_B, +1),
], ids=["independent", "signed-right", "signed-left", "equal", "constant-b"])


class TestSmoothedTail:
    def test_unbiased_and_lower_variance(self):
        batch = sample_stationary_chain(
            INDEP_FAMILY, SimConfig(n_samples=300_000, seed=41)
        )
        n = batch.values.size
        ts = np.quantile(batch.values, [0.9, 0.99, 0.999])
        ests, ses = smoothed_tail(batch, INDEP, AFFINE, ts)
        for t, sm, sm_se in zip(ts, ests, ses):
            raw = np.mean(batch.values > t)
            raw_se = math.sqrt(raw * (1 - raw) / n)
            assert abs(sm - raw) <= 3 * math.hypot(sm_se, raw_se)
            assert sm_se < raw_se

    @pytest.mark.parametrize("n", [50_000, 300_000])
    @pytest.mark.parametrize("coeff,side,t", [
        (INDEP, +1, 8.0), (SIGNED_COEFF, +1, 8.0), (SIGNED_COEFF, -1, 4.0),
        (EQUAL_COEFF, +1, 8.0), (CONST_B, +1, 8.0),
    ], ids=["independent", "signed-right", "signed-left", "equal", "constant-b"])
    def test_interpolation_matches_direct(self, coeff, side, t, n):
        # the grid estimate against the mean of the conditional tail at
        # every sample, in slices to bound memory
        batch = _chain_batch(coeff, n)
        (est,), _ = smoothed_tail(batch, coeff, AFFINE, [t], side=side)
        y = batch.values
        direct = sum(
            conditional_tail(coeff, AFFINE, t, y[i:i + 50_000], side=side).sum()
            for i in range(0, y.size, 50_000)
        ) / y.size
        assert est == pytest.approx(direct, rel=1e-5)

    @pytest.mark.filterwarnings("error")
    @ALL_CASES
    def test_equal_values_and_single_sample(self, coeff, side):
        # a batch of equal values has a zero-width grid: the conditional tail
        # at that value, with no spread; one sample has no standard error
        ts = [1.5, 4.0, 20.0]
        for values in (np.full(1000, 2.5), np.array([-0.7])):
            batch = SampleBatch(values, "chain", 0, SimConfig(n_samples=values.size, seed=0))
            est, se = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
            want = [conditional_tail(coeff, AFFINE, t, values[:1], side=side)[0] for t in ts]
            np.testing.assert_allclose(est, want, rtol=1e-12, atol=0.0)
            if values.size == 1:
                assert np.all(np.isnan(se))
            else:
                assert np.all(se == 0.0)

    def test_certain_level_gives_one(self):
        # states are >= 0.4 and so are A and B, so Ay + B > 0.5 is certain;
        # on this batch the weights' dot product with v = 1 rounds to 1 + eps
        batch = sample_stationary_chain(INDEP_FAMILY, SimConfig(n_samples=50_000, seed=42))
        est, se = smoothed_tail(batch, INDEP, AFFINE, [0.3, 0.5])
        assert np.all(est == 1.0) and np.all(se == 0.0)
        # with B = 1 the states are >= 1, so Ay + 1 > 1.2 is certain; on this
        # batch the weights' dot product with v = 1 rounds to 1 - eps/2
        batch = _chain_batch(CONST_B, 300_000)
        est, se = smoothed_tail(batch, CONST_B, AFFINE, [0.5, 1.2])
        assert np.all(est == 1.0) and np.all(se == 0.0)

    def test_impossible_level_gives_zero(self):
        # A, B > 0 and states > 0, so Ay + B < -t is impossible at every t
        batch = _chain_batch(INDEP, 50_000)
        est, se = smoothed_tail(batch, INDEP, AFFINE, [0.1, 1.0, 20.0], side=-1)
        assert np.all(est == 0.0) and np.all(se == 0.0)

    @pytest.mark.parametrize("side", [+1, -1], ids=["right", "left"])
    def test_estimates_stay_probabilities_near_the_kink(self, side):
        # below the support edge 0.4 of B, the signed law's one-step tail
        # is 1 at y = 0 alone (right) or 0 at y = 0 alone (left): a kink,
        # where the cubic weights of a stencil that spans it can leave
        # [0, 1].  The stationary batch, and batches held near 0
        ts = [0.05, 0.2, 0.35, 0.4, 0.45, 0.6, 1.0, 2.0]
        for values in (_chain_batch(SIGNED_COEFF, 50_000).values,
                       np.linspace(-0.05, 0.05, 1001), np.array([-1e-3, 0.0, 2e-3])):
            batch = SampleBatch(values, "chain", 0, SimConfig(n_samples=values.size))
            est, _ = smoothed_tail(batch, SIGNED_COEFF, AFFINE, ts, side=side)
            assert np.all((est >= 0.0) & (est <= 1.0))

    def test_overshoot_at_a_kink_is_clipped(self):
        # with B = 1 the one-step tail at t = 1.5 reaches 1 at y = 1.25 with
        # a kink; midway between the first two nodes where it is 1, the cubic
        # value exceeds 1, and a batch held there has a mean above 1
        grid_g = np.linspace(np.asinh(0.5), np.asinh(3.0), engine._SMOOTH_GRID)
        v = conditional_tail(CONST_B, AFFINE, 1.5, np.sinh(grid_g))
        k = np.argmax(v == 1.0)
        values = np.r_[0.5, np.full(10_000, np.sinh((grid_g[k] + grid_g[k + 1]) / 2)), 3.0]
        batch = SampleBatch(values, "chain", 0, SimConfig(n_samples=values.size))
        est, _ = smoothed_tail(batch, CONST_B, AFFINE, [1.5])
        assert 0.0 <= est[0] <= 1.0

    @ALL_CASES
    def test_matches_per_sample_interpolation(self, coeff, side):
        # the per-batch weights and the banded variance form against the
        # 4-point Lagrange value at every sample of the same grid (nodes
        # j - 1 .. j + 2 about the interval j, clipped to the grid), then
        # mean and std
        batch = _chain_batch(coeff, 50_000)
        ts = np.concatenate([[1.2, 1.8], default_grid(batch, side=side)])
        est, se = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
        g = np.asinh(batch.values)
        grid_g = np.linspace(g.min(), g.max(), engine._SMOOTH_GRID)
        start = np.clip(np.searchsorted(grid_g, g, side="right") - 2, 0, grid_g.size - 4)
        nodes = grid_g[start[:, None] + np.arange(4)]
        for i, t in enumerate(ts):
            v = conditional_tail(coeff, AFFINE, t, np.sinh(grid_g), side=side)
            if np.all(v == v[0]):
                # a certain or impossible level: the per-sample spread
                # below would be rounding alone
                assert est[i] == v[0] and se[i] == 0.0
                continue
            vals = sum(
                v[start + a] * np.prod(
                    [(g - nodes[:, b]) / (nodes[:, a] - nodes[:, b]) for b in range(4) if b != a],
                    axis=0,
                )
                for a in range(4)
            )
            np.testing.assert_allclose(est[i], vals.mean(), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(
                se[i], vals.std(ddof=1) / math.sqrt(vals.size), rtol=1e-12, atol=0.0
            )

    @ALL_CASES
    def test_calls_no_quantile(self, coeff, side, monkeypatch):
        # the one-step tail integrates over log B with the closed-form
        # density: no quantile on the smoothing path
        batch = _chain_batch(coeff, 50_000)

        def refused(self, u):
            raise AssertionError("quantile called while smoothing")

        monkeypatch.setattr(TailModel, "quantile", refused)
        ts = np.concatenate([[0.3, 1.2], default_grid(batch, side=side)])
        est, _ = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
        assert np.all(np.isfinite(est))

    @pytest.mark.parametrize("n", [1, 1000, 50_000])
    def test_cost_is_the_grid_whatever_the_batch_size(self, n, monkeypatch):
        # each level evaluates the one-step tail on the grid's nodes alone,
        # never on the samples
        sizes = []

        def counted(coeff, kind, t, y, side=+1):
            sizes.append(np.asarray(y).size)
            return conditional_tail(coeff, kind, t, y, side=side)

        monkeypatch.setattr(engine, "conditional_tail", counted)
        batch = _chain_batch(EQUAL_COEFF, 50_000)
        batch = SampleBatch(batch.values[:n], "chain", 0, SimConfig(n_samples=n))
        smoothed_tail(batch, EQUAL_COEFF, AFFINE, [1.5, 4.0, 20.0])
        assert sizes == [engine._SMOOTH_GRID] * 3


class TestQuadratureBlocking:
    # _affine_branch evaluates its quadrature rows in blocks of _GL_BLOCK;
    # a row's value must not depend on the block it falls in

    @CASES
    def test_slices_match_whole_grid(self, coeff, side):
        y = _chain_batch(coeff, 50_000).values
        g = np.linspace(np.asinh(y.min()), np.asinh(y.max()), engine._SMOOTH_GRID)
        grid = np.sinh(g)
        block = engine._GL_BLOCK
        cuts = [0, block - 211, 2 * block + 5, 1800, grid.size]
        sizes = np.diff(cuts)
        assert np.all(sizes % block != 0) and sizes.min() < block
        for t in (1.2, 1.5, 1.8, 2.2, 3.2, 8.0, 38.0):
            whole = conditional_tail(coeff, AFFINE, t, grid, side=side)
            parts = np.concatenate([
                conditional_tail(coeff, AFFINE, t, grid[lo:hi], side=side)
                for lo, hi in zip(cuts[:-1], cuts[1:])
            ])
            assert np.array_equal(whole, parts), f"t = {t}"

    @CASES
    def test_smoothed_tail_matches_unblocked(self, coeff, side, monkeypatch):
        batch = _chain_batch(coeff, 50_000)
        ts = [1.2, 1.8, 8.0]
        blocked = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
        monkeypatch.setattr(engine, "_GL_BLOCK", engine._SMOOTH_GRID)
        unblocked = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
        assert np.array_equal(blocked, unblocked)


class TestSmoothingGridError:
    @pytest.mark.parametrize("coeff,side", [
        (SIGNED_COEFF, +1), (SIGNED_COEFF, -1), (EQUAL_COEFF, +1), (CONST_B, +1),
    ], ids=["right", "left", "equal", "constant-b"])
    def test_half_grid_moves_estimate_far_below_se(self, coeff, side, monkeypatch):
        # the interpolation error of the grid is bounded by how far the
        # estimate moves when the grid is halved; the equal and constant-B
        # one-step tails have a kink at the support edge
        batch = _chain_batch(coeff, 262_144)
        ts = default_grid(batch, side=side)
        est, se = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
        monkeypatch.setattr(engine, "_SMOOTH_GRID", engine._SMOOTH_GRID // 2)
        half, _ = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
        assert np.max(np.abs(half - est) / se) < 0.05


@lru_cache(maxsize=None)
def _chain_batch(coeff, n):
    return sample_stationary_chain(MapFamily(AFFINE, coeff), SimConfig(n_samples=n, seed=43))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        batch = sample_stationary_chain(INDEP_FAMILY, SimConfig(n_samples=1000, seed=2))
        path = tmp_path / "batch.bin"
        save_batch(batch, path)
        loaded = load_batch(path)
        np.testing.assert_array_equal(batch.values, loaded.values)
        assert loaded.config == batch.config
        assert loaded.method == batch.method

    def test_sidecar_holds_the_sampling_method(self, tmp_path):
        # sample_perpetuity keeps the config it was given, whatever its method
        batch = sample_perpetuity(INDEP, SimConfig(n_samples=20, seed=1, chunk_size=7))
        path = tmp_path / "batch.bin"
        save_batch(batch, path)
        loaded = load_batch(path)
        assert loaded.method == "perpetuity"
        assert loaded.config == SimConfig(n_samples=20, seed=1, chunk_size=7, method="perpetuity")
        # a batch without its sidecar is not read
        (tmp_path / "batch.bin.cfg").unlink()
        with pytest.raises(EngineError, match="sidecar .*batch.bin.cfg"):
            load_batch(path)

    @pytest.mark.parametrize(
        "line", ["seed = x", "seed 1", "burn_in = 0", "n_terms = ("],
        ids=["bad-int", "no-equals", "bad-field", "bad-extra"],
    )
    def test_bad_sidecar_line_rejected(self, tmp_path, line):
        path = tmp_path / "batch.bin"
        save_batch(sample_perpetuity(INDEP, SimConfig(n_samples=20, seed=1)), path)
        sidecar = tmp_path / "batch.bin.cfg"
        sidecar.write_text(sidecar.read_text() + line + "\n")
        with pytest.raises(EngineError, match="sidecar .*batch.bin.cfg"):
            load_batch(path)

    def test_round_trip_keeps_extra(self, tmp_path):
        batch = sample_perpetuity(INDEP, SimConfig(n_samples=20, seed=1))
        path = tmp_path / "batch.bin"
        save_batch(batch, path)
        assert batch.extra.keys() == {"n_terms", "remainder_bound"}
        assert load_batch(path).extra == batch.extra

    def test_header_layout(self, tmp_path):
        batch = SampleBatch(
            np.array([1.0, 2.0]), "chain", 7, SimConfig(n_samples=2, seed=7)
        )
        path = tmp_path / "b.bin"
        save_batch(batch, path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 2 * 8
        assert raw[:4] == b"SFPB"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 2

    @pytest.mark.parametrize("keep", [-8, 10], ids=["body", "header"])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "batch.bin"
        save_batch(sample_stationary_chain(INDEP_FAMILY, SimConfig(n_samples=100, seed=2)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(EngineError, match="truncated.*batch.bin"):
            load_batch(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(EngineError, match="magic"):
            load_batch(path)
