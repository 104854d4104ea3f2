import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from sfpe import engine
from sfpe.dist import Constant, LogPareto, Pareto
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

    def test_seeds_give_distinct_streams(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = [
                engine._chunk_rng(seed, 0).random()
                for seed in (0, 1, 2**63, 2**64 - 1)
            ]
        assert len(set(draws)) == 4


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


def _affine_branch_by_quad(w, b, s, t, sigma):
    """P[s W + sigma B > t] = int P[s W > t - sigma b] dF_B(b) for independent
    LogPareto W, B, by adaptive quadrature over x = log b, split at the kinks
    of the integrand and densely on both sides of each."""

    def p_sw(c):
        if s > 0:
            return float(w.survival(c / s))
        if s < 0:
            return 1.0 - float(w.survival(c / s))
        return float(c < 0.0)

    def integrand(x):
        # dF_B = S_B(b) (alpha + beta / (1 + log(b / x0))) dlog b
        r = x - math.log(b.x0)
        dens = float(b.survival(math.exp(x))) * (b.alpha + b.beta / (1.0 + r))
        return p_sw(t - sigma * math.exp(x)) * dens

    lo = math.log(b.x0)  # up to log b = 600, beyond which dF_B is nil
    kinks = [k for k in ((t - s * w.x0) / sigma, t / sigma) if k > b.x0]
    kinks = [math.log(k) for k in kinks]
    near = [k + side * math.log1p(10.0**j)
            for k in kinks for j in range(-7, 4) for side in (-1, 1)]
    edges = sorted({lo, 600.0, *kinks, *(e for e in near if e > lo)})
    return sum(
        quad(integrand, x, y, epsabs=1e-22, epsrel=1e-11, limit=400)[0]
        for x, y in zip(edges[:-1], edges[1:])
    )


class TestConditionalTailQuadrature:
    # Gauss-Legendre over the B survival scale against adaptive quadrature
    # over log B; the 4-sigma Monte Carlo tests above cannot resolve a
    # percent-level bias deep in the tail
    YS = (-3.0, -1.0, -0.3, 0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0)
    TS = (2.0, 3.5, 10.0, 50.0, 200.0)

    @pytest.mark.parametrize("coeff,side", [
        (INDEP, +1), (SIGNED_COEFF, +1), (SIGNED_COEFF, -1),
    ], ids=["independent", "signed-right", "signed-left"])
    def test_affine_matches_quadrature(self, coeff, side):
        p = coeff.p_plus if coeff.dependence == SIGNED else 1.0
        for t in self.TS:
            got = conditional_tail(coeff, AFFINE, t, np.array(self.YS), side=side)
            want = [
                p * _affine_branch_by_quad(LP, LP, side * y, t, side)
                + (1.0 - p) * _affine_branch_by_quad(LP, LP, -side * y, t, side)
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

    @ALL_CASES
    def test_matches_per_sample_interpolation(self, coeff, side):
        # the per-batch weights and the tridiagonal variance form against
        # np.interp at every sample of the same grid, then mean and std
        batch = _chain_batch(coeff, 50_000)
        ts = np.concatenate([[1.2, 1.8], default_grid(batch, side=side)])
        est, se = smoothed_tail(batch, coeff, AFFINE, ts, side=side)
        g = np.asinh(batch.values)
        grid_g = np.linspace(g.min(), g.max(), engine._SMOOTH_GRID)
        for i, t in enumerate(ts):
            v = conditional_tail(coeff, AFFINE, t, np.sinh(grid_g), side=side)
            vals = np.interp(g, grid_g, v)
            np.testing.assert_allclose(est[i], vals.mean(), rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(
                se[i], vals.std(ddof=1) / math.sqrt(vals.size), rtol=1e-12, atol=0.0
            )


class TestQuadratureBlocking:
    # _affine_branch evaluates its quadrature rows in blocks of _GL_BLOCK;
    # a row's value must not depend on the block it falls in

    @CASES
    def test_slices_match_whole_grid(self, coeff, side):
        y = _chain_batch(coeff, 50_000).values
        g = np.linspace(np.asinh(y.min()), np.asinh(y.max()), engine._SMOOTH_GRID)
        grid = np.sinh(g)
        block = engine._GL_BLOCK
        cuts = [0, block - 211, 3 * block + 5, 5000, grid.size]
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
    @pytest.mark.parametrize("side", [+1, -1], ids=["right", "left"])
    def test_half_grid_moves_estimate_far_below_se(self, side, monkeypatch):
        # the interpolation error of the 8192-node grid is bounded by how far
        # the estimate moves when the grid is halved
        batch = _chain_batch(SIGNED_COEFF, 262_144)
        ts = default_grid(batch, side=side)
        est, se = smoothed_tail(batch, SIGNED_COEFF, AFFINE, ts, side=side)
        monkeypatch.setattr(engine, "_SMOOTH_GRID", engine._SMOOTH_GRID // 2)
        half, _ = smoothed_tail(batch, SIGNED_COEFF, AFFINE, ts, side=side)
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

    def test_header_layout(self, tmp_path):
        batch = SampleBatch(
            np.array([1.0, 2.0]), "chain", 7, SimConfig(n_samples=2, seed=7)
        )
        path = tmp_path / "b.bin"
        save_batch(batch, path)
        raw = path.read_bytes()
        assert len(raw) == 16 + 2 * 8
        assert raw[:4] == b"SFPB"
        assert int.from_bytes(raw[4:8], "little") == 1
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
