"""Checks of the finite-t chain law in `finite_t` on coarse grids."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from sfpe.dist import Constant, LogPareto
from sfpe.maps import EQUAL, INDEPENDENT, SIGNED, CoeffLaw

from finite_t import ChainLaw

LP = LogPareto(2.0, 3.0, 0.4)
INDEP = CoeffLaw(LP, LP, INDEPENDENT, c_b=1.0)
SIGNED_COEFF = CoeffLaw(LP, LP, SIGNED, p_plus=0.75, c_b=1.0)
MODELS = {
    "independent": INDEP,
    "equal": CoeffLaw(LP, LP, EQUAL),
    "constant B": CoeffLaw(LP, Constant(1.0), INDEPENDENT),
    "signed": SIGNED_COEFF,
}


def test_one_step_is_the_b_law():
    # X_1 = A * 0 + B
    for coeff in (INDEP, SIGNED_COEFF):
        law = ChainLaw(coeff, steps=1, cells=12)
        np.testing.assert_array_equal(law.right.surv, LP.survival(law.grid.t))
        assert not np.any(law.left.surv)


def test_two_equal_steps_match_quadrature():
    # X_2 = A'(A + 1): P[X_2 > t] = int S_A(t / (a + 1)) dF_A(a).  Past the
    # kink a_k = t / x0 - 1 the integrand is 1, which leaves the mass S_A(a_k);
    # below it, over v = log(a / x0), dF_A has the density S_A(a) e_A(a)
    ts = np.array([1.0, 2.0, 20.0, 1e4, 1e10])
    want = []
    for t in ts:
        a_kink = t / LP.x0 - 1.0

        def below_kink(v):
            a = LP.x0 * math.exp(v)
            return float(LP.survival(t / (a + 1.0)) * LP.survival(a) * LP.elasticity(a))

        rest, _ = quad(below_kink, 0.0, math.log(a_kink / LP.x0),
                       epsabs=0.0, epsrel=1e-12, limit=200)
        want.append(float(LP.survival(a_kink)) + rest)
    err = {
        cells: ChainLaw(MODELS["equal"], steps=2, cells=cells).survival(ts) / want - 1.0
        for cells in (23, 46)
    }
    # midpoint cells: second order in the step, so halving it cuts the error
    # at least in half
    assert np.all(np.abs(err[46]) <= 2e-3)
    assert np.all(np.abs(err[46]) <= 0.5 * np.abs(err[23]))


def _moment(law, k):
    """E[X^k] = int k t^k P[X > t] dlog t: trapezoid on the grid, P[X > t] = 1
    below it, and above it the last ratio times the tail of A."""
    g, s = law.grid, law.right.surv
    f = k * g.t**k * s
    body = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(g.u))) + g.t[0] ** k
    top = g.t[-1]
    a_tail, _ = quad(lambda x: k * x ** (k - 1) * float(LP.survival(x)), top, math.inf)
    return body + float(law.ratio(top)[0]) * a_tail


def test_moments_match_closed_forms():
    # criterion 2's chain: E[X] = mu/(1-mu), E[X^2] from the moment identity
    mu, sigma = LP.alpha_moment(1.0), LP.alpha_moment(2.0)
    ex = mu / (1.0 - mu)
    ex2 = (2.0 * mu * mu * ex + sigma) / (1.0 - sigma)
    law = ChainLaw(INDEP, cells=12)
    assert _moment(law, 1) == pytest.approx(ex, rel=1e-3)
    assert _moment(law, 2) == pytest.approx(ex2, rel=1e-3)


@pytest.mark.parametrize("name", list(MODELS))
def test_halving_the_grid_step_moves_ratios_little(name):
    # 16 and 32 cells per log(1/x0) bracket the 23 of the acceptance tests;
    # 24 steps from 0 already give the 64-step law to well below 1e-6.  The
    # levels start near the 0.99 quantile, where the acceptance grids start:
    # closer to the support's lower edge (5/3 for the constant-B chain) the
    # bulk of the law spans few cells and converges more slowly
    coeff = MODELS[name]
    ts = np.array([3.0, 5.0, 20.0, 100.0, 1e12])
    coarse, fine = (ChainLaw(coeff, steps=24, cells=c) for c in (16, 32))
    sides = (+1, -1) if coeff.dependence == SIGNED else (+1,)
    for side in sides:
        np.testing.assert_allclose(
            coarse.ratio(ts, side), fine.ratio(ts, side), rtol=5e-3
        )
