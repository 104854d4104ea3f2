import math

import numpy as np
import pytest

from sfpe import tailstats
from sfpe.dist import LogPareto, Pareto
from sfpe.engine import SampleBatch, SimConfig
from sfpe.maps import AFFINE, INDEPENDENT, SIGNED, CoeffLaw, MapFamily
from sfpe.tailstats import (
    default_grid,
    ecdf_survival,
    estimate_to_csv,
    hill,
    plugin_moment,
    ratio_curve,
    reliable_index,
    smoothed_survival,
    wilson_interval,
)


def batch_of(values):
    arr = np.asarray(values, dtype=float)
    return SampleBatch(arr, "chain", 0, SimConfig(n_samples=arr.size, seed=0))


class TestEcdf:
    def test_simple_counts(self):
        est = ecdf_survival(batch_of([1, 2, 3, 4]), np.array([2.5]))
        assert est.p_hat[0] == 0.5
        assert est.n_exceed[0] == 2

    def test_extremes(self):
        est = ecdf_survival(batch_of([1, 2, 3, 4]), np.array([0.5, 10.0]))
        assert est.p_hat[0] == 1.0
        assert est.p_hat[1] == 0.0

    def test_binomial_accuracy(self):
        rng = np.random.default_rng(0)
        m = Pareto(2.0, 1.0)
        est = ecdf_survival(batch_of(m.sample(10**6, rng)), np.array([10.0]))
        se = math.sqrt(0.01 * 0.99 / 10**6)
        assert abs(est.p_hat[0] - 0.01) <= 3 * se

    def test_monotone_and_ordered(self):
        rng = np.random.default_rng(1)
        est = ecdf_survival(
            batch_of(rng.exponential(size=10_000)), np.linspace(0.1, 5.0, 30)
        )
        assert np.all(np.diff(est.p_hat) <= 0)
        assert np.all(est.ci_lo <= est.p_hat)
        assert np.all(est.p_hat <= est.ci_hi)
        np.testing.assert_array_equal(
            est.n_exceed, np.rint(est.p_hat * est.n_total).astype(int)
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ecdf_survival(np.array([]), np.array([1.0]))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ecdf_survival(batch_of([1.0, 2.0]), np.array([2.0, 1.0]))


class TestWilson:
    def test_coverage_calibration(self):
        # 95% interval should cover the truth ~95% of the time
        rng = np.random.default_rng(123)
        p_true, n, reps = 0.03, 2000, 1000
        k = rng.binomial(n, p_true, size=reps)
        lo, hi = wilson_interval(k, n)
        coverage = np.mean((lo <= p_true) & (p_true <= hi))
        assert abs(coverage - 0.95) <= 0.015

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0


class TestRatioCurve:
    def test_identity(self):
        m = Pareto(2.0, 1.0)
        grid = np.array([2.0, 5.0, 10.0])
        est = ecdf_survival(batch_of([1.5, 3.0, 20.0]), grid)
        curve = ratio_curve(est, m.survival)
        np.testing.assert_allclose(curve.ratio * curve.ref_tail, est.p_hat)

    def test_doubling(self):
        grid = np.array([2.0, 4.0])
        est = ecdf_survival(batch_of([3.0, 5.0, 5.0, 5.0]), grid)
        curve = ratio_curve(est, lambda t: est.p_hat / 2.0)
        np.testing.assert_allclose(curve.ratio, 2.0)

    def test_zero_reference_rejected(self):
        est = ecdf_survival(batch_of([1.0, 2.0]), np.array([1.5]))
        with pytest.raises(ValueError, match="positive"):
            ratio_curve(est, lambda t: np.zeros_like(t))


class TestHill:
    def test_hand_computed(self):
        x = [math.e**3, math.e**2, math.e, 1.0]
        assert hill(batch_of(x), 3) == pytest.approx(0.5)

    def test_exact_pareto_quantiles(self):
        n, k, a = 10**4, 100, 2.0
        u = np.arange(1, n + 1) / (n + 1)
        x = Pareto(a, 1.0).quantile(u)
        assert abs(hill(batch_of(x), k) - a) <= 0.4

    def test_consistency_along_growing_samples(self):
        a = 2.0
        errs = []
        for n, k in ((10**3, 30), (10**4, 100), (10**5, 300)):
            u = np.arange(1, n + 1) / (n + 1)
            x = Pareto(a, 1.0).quantile(u)
            errs.append(abs(hill(batch_of(x), k) - a))
        assert errs[0] > errs[1] > errs[2]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            hill(batch_of([2.0, 2.0, 2.0, 2.0]), 3)
        with pytest.raises(ValueError, match="positive"):
            hill(batch_of([-1.0, -2.0, 3.0, 4.0]), 3)


class TestPluginMoment:
    def test_pow_plus(self):
        mean, _ = plugin_moment(batch_of([1.0, 2.0]), lambda x: np.maximum(x, 0.0) ** 2.0)
        assert mean == 2.5

    def test_pow_minus(self):
        mean, _ = plugin_moment(batch_of([-1.0, 1.0]), lambda x: np.maximum(-x, 0.0) ** 2.0)
        assert mean == 0.5

    def test_jackknife_matches_standard_error(self):
        rng = np.random.default_rng(5)
        x = rng.exponential(size=10_000)
        mean, se = plugin_moment(batch_of(x), lambda v: v)
        assert se == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-10)

    def test_one_step_functional_matches_moment_identity(self):
        # xi_+ for the independent affine family is E[f_+(X)] = E[X^2] + c_B
        # with E[X^2] = (2 E[A]^2 E[X] + E[B^2]) / (1 - E[A^2]).  X^2 has
        # infinite variance, so a plug-in mean has no usable standard error:
        # f_+ is checked pointwise, and E[X^2] on the exact law of the chain
        from finite_t import ChainLaw
        from sfpe.maps import f_plus

        lp = LogPareto(2.0, 3.0, 0.4)
        coeff = CoeffLaw(lp, lp, INDEPENDENT, c_b=1.0)
        y = np.array([-3.0, -0.5, 0.0, 0.25, 1.0, 7.0, 1e6])
        np.testing.assert_array_equal(
            f_plus(MapFamily(AFFINE, coeff), y, 2.0), np.maximum(y, 0.0) ** 2 + 1.0
        )
        mu = lp.alpha_moment(1.0)
        ex2 = (2 * mu**2 * (mu / (1 - mu)) + 0.32) / (1 - 0.32)
        # E[X^2] = int 2t P[X > t] dt: P[X > t] = 1 below the support edge,
        # and t^2 P[X > t] = F is log-linear in log t between knots, so a cell
        # gives 2 log(t1/t0) times the logarithmic mean of F0 and F1
        law = ChainLaw(coeff, steps=16)
        low = law.right.low
        t = np.concatenate([[low], law.grid.t[law.grid.t > low]])
        f = t**2 * law.survival(t)
        r = np.log(f[1:] / f[:-1])
        log_mean = np.where(r != 0, np.diff(f) / np.where(r != 0, r, 1.0), f[:-1])
        body = low**2 + np.sum(2 * np.diff(np.log(t)) * log_mean)
        # above the grid P[X > t] = D P[A > t], D the ratio at the top, and
        # int_T^inf 2t P[A > t] dt = x0^2 (1 + log(T/x0))^-2 for this A
        top = t[-1]
        above = law.ratio(top)[0] * lp.x0**2 * (1 + math.log(top / lp.x0)) ** -2
        assert body + above == pytest.approx(ex2, rel=1e-3)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            plugin_moment(batch_of([1.0, np.inf]), lambda v: v)


class TestGrids:
    def test_default_grid_respects_rule(self):
        rng = np.random.default_rng(2)
        values = Pareto(2.0, 1.0).sample(100_000, rng)
        batch = batch_of(values)
        grid = default_grid(batch)
        assert grid.size == 20
        est = ecdf_survival(batch, grid)
        assert est.n_exceed[-1] >= 290  # the 300-exceedance endpoint
        assert est.p_hat[0] <= 0.011

    def test_left_grid_is_grid_of_negated_batch(self):
        values = Pareto(2.0, 1.0).sample(100_000, np.random.default_rng(3))
        signed = np.where(np.arange(values.size) % 2 == 0, values, -values)
        np.testing.assert_array_equal(
            default_grid(batch_of(signed), side=-1), default_grid(batch_of(-signed))
        )

    def test_reliable_index(self):
        est = ecdf_survival(
            batch_of(np.arange(1, 1002, dtype=float)), np.array([500.0, 900.0])
        )
        assert reliable_index(est) == 0
        with pytest.raises(ValueError):
            reliable_index(est, min_exceed=10_000)


class TestSmoothedSurvival:
    def test_matches_ecdf_with_smaller_se(self):
        from sfpe.engine import sample_stationary_chain

        lp = LogPareto(2.0, 3.0, 0.4)
        coeff = CoeffLaw(lp, lp, INDEPENDENT, c_b=1.0)
        fam = MapFamily(AFFINE, coeff)
        batch = sample_stationary_chain(fam, SimConfig(n_samples=300_000, seed=77))
        grid = default_grid(batch, points=10)
        raw = ecdf_survival(batch, grid)
        smooth = smoothed_survival(batch, coeff, AFFINE, grid)
        for i in range(grid.size):
            raw_se = (raw.ci_hi[i] - raw.ci_lo[i]) / 2
            sm_se = (smooth.ci_hi[i] - smooth.ci_lo[i]) / 2
            assert abs(smooth.p_hat[i] - raw.p_hat[i]) <= 3 * math.hypot(raw_se, sm_se)
            assert sm_se < raw_se


    def test_n_exceed_counts_the_requested_tail(self):
        # the empirical exceedance count, not the smoothed estimate times N
        lp = LogPareto(2.0, 3.0, 0.4)
        coeff = CoeffLaw(lp, lp, SIGNED, p_plus=0.75, c_b=1.0)
        batch = batch_of([-5.0, -2.0, 1.0, 3.0])
        for side, counts in ((+1, [1, 0]), (-1, [2, 1])):
            est = smoothed_survival(batch, coeff, AFFINE, [1.5, 3.0], side=side)
            np.testing.assert_array_equal(est.n_exceed, counts)
            ecdf = ecdf_survival(batch, [1.5, 3.0], side=side)
            np.testing.assert_array_equal(ecdf.n_exceed, counts)


class TestCsv:
    def test_exact_header_and_rows(self):
        m = Pareto(2.0, 1.0)
        grid = np.array([2.0, 4.0])
        est = ecdf_survival(batch_of([1.0, 3.0, 5.0, 9.0]), grid)
        text = estimate_to_csv(est, ratio_curve(est, m.survival))
        lines = text.strip().split("\n")
        assert lines[0] == "t,p_hat,ci_lo,ci_hi,n_exceed,ref_tail,ratio,ratio_ci_lo,ratio_ci_hi"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 2.0
        assert float(first[1]) == 0.75
        assert first[4] == "3"
