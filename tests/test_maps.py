import math

import numpy as np
import pytest

from sfpe.dist import Constant, LogPareto, Pareto
from sfpe.engine import conditional_tail
from sfpe.maps import (
    AFFINE,
    EQUAL,
    INDEPENDENT,
    MAX_AFFINE,
    POS_PART_AFFINE,
    SIGNED,
    SQRT_LOG,
    CoeffLaw,
    MapFamily,
    NoClosedFormError,
    apply_map,
    draw_coeffs,
    elton_precheck,
    f_minus,
    f_plus,
)

LP = LogPareto(2.0, 3.0, 0.4)


def indep_family(kind=AFFINE, **kw):
    return MapFamily(kind, CoeffLaw(LP, LP, INDEPENDENT, c_b=1.0), **kw)


class TestCoeffLaw:
    def test_equal_forces_shared_marginal(self):
        law = CoeffLaw(LP, Pareto(1.5, 1.0), EQUAL)
        assert law.marginal_b == LP
        assert law.c_b == 1.0

    def test_signed_requires_p_plus(self):
        with pytest.raises(ValueError):
            CoeffLaw(LP, LP, SIGNED, p_plus=0.0)
        with pytest.raises(ValueError):
            CoeffLaw(LP, LP, SIGNED, p_plus=1.2)

    def test_p_plus_is_one_unless_signed(self):
        # p_plus is P[A > 0]; a law whose A is not signed has no use for another
        for dep in (INDEPENDENT, EQUAL):
            with pytest.raises(ValueError, match="p_plus"):
                CoeffLaw(LP, LP, dep, p_plus=0.5)
        assert CoeffLaw(LP, LP, SIGNED, p_plus=0.5).p_plus == 0.5

    def test_c_b_finite_and_nonnegative(self):
        for c_b in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_b"):
                CoeffLaw(LP, LP, INDEPENDENT, c_b=c_b)

    def test_reference_tail(self):
        law = CoeffLaw(LP, LP, SIGNED, p_plus=0.75)
        assert law.a_tail(5.0) == pytest.approx(0.75 * LP.survival(5.0))
        law2 = CoeffLaw(LP, LP, INDEPENDENT)
        assert law2.a_tail(5.0) == pytest.approx(LP.survival(5.0))


class TestMapFamily:
    def test_only_sqrt_log_takes_c(self):
        law = CoeffLaw(LP, LP, INDEPENDENT)
        for kind in (AFFINE, MAX_AFFINE, POS_PART_AFFINE):
            for kw in ({"marginal_c": Constant(5.0)}, {"c_c": 3.0}):
                with pytest.raises(ValueError, match="c, c_c"):
                    MapFamily(kind, law, **kw)
            assert MapFamily(kind, law, c_c=0.0).marginal_c is None
        with pytest.raises(ValueError, match="sqrt_log"):
            MapFamily(SQRT_LOG, law)
        assert MapFamily(SQRT_LOG, law, marginal_c=Constant(5.0), c_c=3.0).c_c == 3.0
        for c_c in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="c_c must be"):
                MapFamily(SQRT_LOG, law, marginal_c=Constant(5.0), c_c=c_c)


class TestRealizedMaps:
    # a realized map is apply_map at one drawn coefficient triple
    def test_affine(self):
        assert apply_map(AFFINE, 0.5, 2.0, 0.0, 3.0) == pytest.approx(3.5)

    def test_max_affine(self):
        assert apply_map(MAX_AFFINE, 2.0, 10.0, 0.0, 1.0) == 10.0
        assert apply_map(MAX_AFFINE, 2.0, 10.0, 0.0, 100.0) == 200.0

    def test_pos_part_affine(self):
        assert apply_map(POS_PART_AFFINE, 2.0, 3.0, 0.0, -5.0) == 3.0
        assert apply_map(POS_PART_AFFINE, 2.0, 3.0, 0.0, 2.0) == 7.0

    def test_sqrt_log(self):
        x = math.e**2
        assert apply_map(SQRT_LOG, 1.0, 1.0, 1.0, x) == pytest.approx(
            x + math.e * 2.0 + 1.0
        )

    def test_drawn_map_matches_family_formula(self):
        fam = indep_family()
        a, b, c = draw_coeffs(fam, 1, np.random.default_rng(3))
        assert c == 0.0
        x = np.array([-1.0, 0.0, 2.5])
        np.testing.assert_allclose(apply_map(fam.kind, a, b, c, x), a * x + b)


def sqrtlog(x):
    return np.sqrt(np.maximum(x, 0.0)) * np.log(np.maximum(x, 1.0))


# the positive-part envelope holds for x > -X_LOW; with B > 0 the chain
# itself stays above 0
X_LOW = 0.5


def envelope(fam, a, b, c):
    """(coefficient, phi) with |Psi(x) - A x| <= coefficient * phi(|x|), per
    drawn map (columns)."""
    if fam.kind == AFFINE:
        return np.abs(b), lambda x: np.ones_like(x)
    if fam.kind == MAX_AFFINE:
        return b, lambda x: np.ones_like(x)
    if fam.kind == POS_PART_AFFINE:
        return a * X_LOW + b, lambda x: np.ones_like(x)
    return b + c, lambda x: sqrtlog(x) + 1.0


class TestDecomposition:
    @pytest.mark.parametrize(
        "fam",
        [
            indep_family(AFFINE),
            indep_family(MAX_AFFINE),
            indep_family(POS_PART_AFFINE),
            indep_family(SQRT_LOG, marginal_c=Constant(1.0), c_c=0.0),
        ],
    )
    def test_envelope_bound(self, fam):
        rng = np.random.default_rng(11)
        # the decomposition bound is stated on the chain's support:
        # x >= 0 for max-affine, x > -X_LOW for the positive-part family
        if fam.kind == MAX_AFFINE:
            x = np.linspace(0.0, 20.0, 81)
        elif fam.kind == POS_PART_AFFINE:
            x = np.linspace(-X_LOW, 20.0, 81)
        else:
            x = np.linspace(-20.0, 20.0, 81)
        a, b, c = draw_coeffs(fam, 1000, rng)
        x = x[:, None]
        coeff, phi = envelope(fam, a, b, c)
        psi = apply_map(fam.kind, a, b, c, x)
        assert np.all(np.abs(psi - a * x) <= coeff * phi(np.abs(x)) + 1e-12)

    @pytest.mark.parametrize("kind", [MAX_AFFINE, POS_PART_AFFINE])
    def test_monotone_for_positive_a(self, kind):
        fam = indep_family(kind)
        rng = np.random.default_rng(5)
        x = np.linspace(-10.0, 10.0, 201)[:, None]
        a, b, c = draw_coeffs(fam, 200, rng)
        assert np.all(np.diff(apply_map(kind, a, b, c, x), axis=0) >= 0)


class TestClosedForms:
    def test_indep_at_zero(self):
        assert f_plus(indep_family(), 0.0, 2.0) == pytest.approx(1.0)

    def test_equal(self):
        fam = MapFamily(AFFINE, CoeffLaw(LP, LP, EQUAL))
        assert f_plus(fam, 1.0, 2.0) == pytest.approx(4.0)
        assert f_plus(fam, -3.0, 2.0) == 0.0

    def test_signed(self):
        fam = MapFamily(AFFINE, CoeffLaw(LP, LP, SIGNED, p_plus=0.75, c_b=1.0))
        assert f_plus(fam, -2.0, 2.0) == pytest.approx(8.0 / 3.0)
        assert f_minus(fam, -2.0, 2.0) == pytest.approx(4.0)
        assert f_minus(fam, 2.0, 2.0) == pytest.approx((0.25 / 0.75) * 4.0)

    def test_positive_a_left_tail_from_negative_states(self):
        # Psi(y) = A y + B < -t takes A > t / (-y): the left tail of -Psi(y)
        y = np.linspace(-5.0, 5.0, 11)
        f = f_minus(indep_family(), y, 2.0)
        np.testing.assert_array_equal(f[y >= 0.0], 0.0)
        np.testing.assert_array_equal(f[y < 0.0], (-y[y < 0.0]) ** 2.0)

    def test_no_closed_form(self):
        fam = MapFamily(MAX_AFFINE, CoeffLaw(LP, LP, SIGNED, p_plus=0.5))
        with pytest.raises(NoClosedFormError):
            f_plus(fam, 1.0, 2.0)

    def test_both_tails_have_the_same_closed_forms(self):
        laws = [CoeffLaw(LP, LP, INDEPENDENT), CoeffLaw(LP, LP, EQUAL),
                CoeffLaw(LP, LP, SIGNED, p_plus=0.5)]
        for kind in (AFFINE, MAX_AFFINE, POS_PART_AFFINE, SQRT_LOG):
            c = {"marginal_c": Constant(1.0)} if kind == SQRT_LOG else {}
            for law in laws:
                fam = MapFamily(kind, law, **c)
                raised = []
                for f in (f_plus, f_minus):
                    try:
                        f(fam, np.array([-1.0, 2.0]), 2.0)
                        raised.append(False)
                    except NoClosedFormError:
                        raised.append(True)
                assert raised[0] == raised[1], (kind, law.dependence)

    def test_max_affine_and_pos_part_have_no_left_tail(self):
        # max(A y, B) >= B and A max(y, 0) + B >= B, whatever the state
        y = np.linspace(-5.0, 5.0, 11)
        for kind in (MAX_AFFINE, POS_PART_AFFINE):
            np.testing.assert_array_equal(f_minus(indep_family(kind), y, 2.0), 0.0)

    def test_nonnegative_and_continuous(self):
        y = np.linspace(-10.0, 10.0, 4001)
        for fam in (
            indep_family(),
            MapFamily(AFFINE, CoeffLaw(LP, LP, EQUAL)),
            MapFamily(AFFINE, CoeffLaw(LP, LP, SIGNED, p_plus=0.6, c_b=1.0)),
        ):
            vals = f_plus(fam, y, 2.0)
            assert np.all(vals >= 0.0)
            assert np.max(np.abs(np.diff(vals))) < 0.2  # no jumps on a fine grid

    def test_empirical_ratio_converges_to_closed_form(self):
        # the defining limit at fixed y for the independent affine family.
        # The Monte Carlo ratio is held against the exact finite-t ratio at
        # the levels its sample reaches (an expected 5 or more exceedances:
        # t = 20 and 60, not 180, where 4e6 draws expect 0.36), and the
        # exact ratio is seen to approach f_plus like 1 / log t deep in the tail
        fam = indep_family()
        y, alpha = 2.0, 2.0
        rng = np.random.default_rng(19)
        n = 4_000_000
        a = LP.sample(n, rng)
        b = LP.sample(n, rng)
        target = float(f_plus(fam, y, alpha))

        def exact(t):
            return conditional_tail(fam.coeff, AFFINE, t, np.array([y]))[0]

        levels = (20.0, 60.0, 180.0)
        reached = [t for t in levels if n * exact(t) >= 5.0]
        assert reached == [20.0, 60.0]
        for t in reached:
            p = exact(t)
            se = math.sqrt(p * (1 - p) / n) / LP.survival(t)
            ratio = np.mean(a * y + b > t) / LP.survival(t)
            assert abs(ratio - p / LP.survival(t)) <= 4 * se, t
        t = 10.0 ** np.arange(3.0, 13.0, 3.0)
        dev = np.array([exact(level) / LP.survival(level) for level in t]) - target
        assert np.all(dev > 0.0) and np.all(np.diff(dev) < 0.0)
        # dev log t is flat (7.7 to 8.2), so dev -> 0; a target 2 % off
        # would make it drift by more than 25 % over these levels
        scaled = dev * np.log(t)
        assert scaled.max() / scaled.min() < 1.1


def assert_f_bound(fam, alpha, y):
    """f+(y) <= 2^alpha (y+^alpha + f+(0)) and the mirrored bound for f-,
    stated for positive A."""
    fp0 = float(f_plus(fam, 0.0, alpha))
    fm0 = float(f_minus(fam, 0.0, alpha))
    pos, neg = np.maximum(y, 0.0), np.maximum(-y, 0.0)
    assert np.all(f_plus(fam, y, alpha) <= 2.0**alpha * (pos**alpha + fp0))
    assert np.all(f_minus(fam, y, alpha) <= 2.0**alpha * (neg**alpha + fm0))


class TestFBound:
    def test_holds_for_independent(self):
        assert_f_bound(indep_family(), 2.0, np.linspace(-10, 10, 101))

    def test_arithmetic_example(self):
        fam = indep_family()
        assert f_plus(fam, 3.0, 2.0) == pytest.approx(10.0)
        assert 10.0 <= 2.0**2 * (9.0 + 1.0)

    def test_holds_for_equal(self):
        fam = MapFamily(AFFINE, CoeffLaw(LP, LP, EQUAL))
        assert_f_bound(fam, 2.0, np.linspace(-5, 50, 111))


class TestEltonPrecheck:
    def test_contracting_constant(self):
        fam = MapFamily(AFFINE, CoeffLaw(Constant(0.5), Constant(1.0), INDEPENDENT))
        rep = elton_precheck(fam, 2000, np.random.default_rng(0))
        assert rep.passed
        assert rep.e_log_lip == pytest.approx(math.log(0.5))

    def test_expanding_constant_fails(self):
        fam = MapFamily(AFFINE, CoeffLaw(Constant(2.0), Constant(1.0), INDEPENDENT))
        rep = elton_precheck(fam, 2000, np.random.default_rng(0))
        assert not rep.passed

    def test_log_pareto_contracts(self):
        # E[A^2] = 0.32 < 1 forces E[log A] < 0 by Jensen
        fam = indep_family()
        rep = elton_precheck(fam, 100_000, np.random.default_rng(1))
        assert rep.passed
        assert rep.e_log_lip + 3 * rep.se_log_lip < 0.0

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            elton_precheck(indep_family(), 10, np.random.default_rng(0))


class TestDrawCoeffs:
    def test_equal_is_pathwise(self):
        fam = MapFamily(AFFINE, CoeffLaw(LP, LP, EQUAL))
        a, b, c = draw_coeffs(fam, 100, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)
        assert c == 0.0

    def test_signed_sign_frequency(self):
        fam = MapFamily(AFFINE, CoeffLaw(LP, LP, SIGNED, p_plus=0.75))
        a, _, _ = draw_coeffs(fam, 100_000, np.random.default_rng(2))
        frac = np.mean(a > 0)
        assert abs(frac - 0.75) < 3 * math.sqrt(0.75 * 0.25 / 100_000)

    def test_sqrt_log_c_has_marginal_c_law(self):
        pa = Pareto(2.0, 1.0)
        fam = indep_family(SQRT_LOG, marginal_c=pa, c_c=1.0)
        n = 100_000
        a, b, c = draw_coeffs(fam, n, np.random.default_rng(4))
        assert c.shape == (n,)
        # C is drawn after (A, B) from the same stream
        rng = np.random.default_rng(4)
        draw_coeffs(indep_family(), n, rng)
        np.testing.assert_array_equal(c, pa.sample(n, rng))
        for t in (1.5, 3.0, 10.0):
            p = float(pa.survival(t))
            assert abs(np.mean(c > t) - p) <= 4 * math.sqrt(p * (1 - p) / n)

    def test_apply_map_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_map("quadratic", 1.0, 1.0, 0.0, 1.0)
