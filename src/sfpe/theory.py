"""Closed-form tail constants and numerical checks of their preconditions.

Every regime constant of the affine recursion solves the one 2x2 system of
ifs_constants; a one-sided regime is its case mu_- = xi_- = 0, D = xi_+ /
(1 - mu_+), and the B-dominated regime that case with xi_+ = 1.  The two-input
example has its own closed form.  Also: exponential-tilt class checks,
convolution diagnostics and the uniformity of regular variation.

All tail-ratio targets are normalized by a single declared reference tail
(P[A > t], except the B-dominated regime which uses P[B > t]).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import csv_text
from .dist import Constant, LogView, TailModel

__all__ = [
    "Prediction",
    "predictions_to_csv",
    "ifs_constants",
    "example_constants",
    "REGIMES",
    "predict",
    "salpha_check_dom",
    "salpha_check_convex",
    "convolution_tail",
    "convolution_limit_check",
    "appendix_smallint_diagnostic",
    "product_convolution_check",
    "rv_uniformity_check",
]


class PreconditionError(ValueError):
    """Inputs violate the regime's standing assumptions."""


@dataclass(frozen=True)
class Prediction:
    regime: str
    constant: float
    reference: str  # which marginal tail normalizes the ratio: "A" or "B"
    inputs: dict = field(default_factory=dict)


def predictions_to_csv(preds) -> str:
    return csv_text(
        "regime,constant,reference,inputs_json",
        [[p.regime, p.constant, p.reference, json.dumps(p.inputs, sort_keys=True)] for p in preds],
    )


# --- regime constants -------------------------------------------------------

def ifs_constants(mu_plus, mu_minus, xi_plus, xi_minus):
    """Two-sided constants (D+, D-) solving
    D+ = mu_+ D+ + mu_- D- + xi_+, D- = mu_+ D- + mu_- D+ + xi_-.

    Returns the closed form and cross-checks it against an independent 2x2
    linear solve to 1e-12 relative."""
    if mu_plus < 0.0 or mu_minus < 0.0:
        raise PreconditionError("mu_+ and mu_- must be >= 0")
    if xi_plus < 0.0 or xi_minus < 0.0:
        raise PreconditionError("xi_+ and xi_- must be >= 0")
    if mu_plus + mu_minus >= 1.0:
        raise PreconditionError("contraction violated: mu_+ + mu_- >= 1")
    det = (1.0 - mu_plus - mu_minus) * (1.0 - mu_plus + mu_minus)
    d_plus = ((1.0 - mu_plus) * xi_plus + mu_minus * xi_minus) / det
    d_minus = ((1.0 - mu_plus) * xi_minus + mu_minus * xi_plus) / det
    mat = np.array([[1.0 - mu_plus, -mu_minus], [-mu_minus, 1.0 - mu_plus]])
    sol = np.linalg.solve(mat, np.array([xi_plus, xi_minus]))
    scale = max(abs(d_plus), abs(d_minus), 1.0)
    if abs(sol[0] - d_plus) > 1e-12 * scale or abs(sol[1] - d_minus) > 1e-12 * scale:
        raise ArithmeticError("closed form disagrees with the linear solve")
    return d_plus, d_minus


def example_constants(mu: float, sigma: float):
    """The two-input example with identical marginals Z, alpha = 2,
    mu = E[Z], sigma = E[Z^2]: constants for the independent input
    (d1) and the pathwise-equal input (d2).

    d1 = (2 mu^3 - mu + 1) / ((1-mu)(1-sigma)^2) follows from the moment
    identity E[X^2](1-sigma) = (2 mu^3 + sigma(1-mu))/(1-mu) and
    d1 = (E[X^2]+1)/(1-sigma).  For the equal input the same route gives
    E[(X+1)^2] = (1+mu)/((1-mu)(1-sigma)) and hence
    d2 = (1 + mu) / ((1-mu)(1-sigma)^2).
    """
    if not (0.0 < mu < 1.0 and 0.0 < sigma < 1.0):
        raise PreconditionError("need mu, sigma in (0, 1)")
    denom = (1.0 - mu) * (1.0 - sigma) ** 2
    d1 = (2.0 * mu**3 - mu + 1.0) / denom
    d2 = (1.0 + mu) / denom
    return d1, d2


class Regime(NamedTuple):
    constants: Callable  # inputs -> a tuple of constants
    inputs: tuple  # names of the inputs, in call order
    reference: str  # "A" or "B", see Prediction
    labels: tuple  # one row label per constant


REGIMES = {
    # P[X > t] ~ P[B > t] / (1 - E[A^alpha]): the one-step functional is B's tail
    "grey": Regime(
        lambda e_a_alpha: ifs_constants(e_a_alpha, 0.0, 1.0, 0.0)[:1],
        ("e_a_alpha",), "B", ("grey",),
    ),
    "ifs": Regime(
        ifs_constants, ("mu_plus", "mu_minus", "xi_plus", "xi_minus"), "A",
        ("ifs_right", "ifs_left"),
    ),
    "example": Regime(
        example_constants, ("mu", "sigma"), "A", ("example_d1", "example_d2")
    ),
}


def predict(regime: str, **inputs):
    """Build one Prediction row per label of a named regime of REGIMES: `ifs`
    and `example` yield two (right/left tails resp. the two dependence
    structures)."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    spec = REGIMES[regime]
    inp = {k: inputs[k] for k in spec.inputs}
    return [
        Prediction(label, v, spec.reference, inp)
        for label, v in zip(spec.labels, spec.constants(*inp.values()))
    ]


# --- exponential-tilt class checks -----------------------------------------

def _tilted(log_tail, alpha):
    """K(t) = e^{alpha t} S(t) and log K, evaluated stably in log space."""

    def lk(t):
        t = np.asarray(t, dtype=float)
        return alpha * t + np.asarray(log_tail.log_survival(t), dtype=float)

    def k(t):
        return np.exp(lk(t))

    return k, lk


@dataclass(frozen=True)
class DomReport:
    """The flags of the three criteria of salpha_check_dom, with the values
    behind (ii) and (iii); passed needs all three."""

    doubling_min: float
    integral_increment: float
    pass_shift: bool
    pass_doubling: bool
    pass_integral: bool

    @property
    def passed(self):
        return self.pass_shift and self.pass_doubling and self.pass_integral


def salpha_check_dom(log_tail, alpha: float) -> DomReport:
    """Numeric membership check via the tilted tail K(t) = e^{alpha t} S(t)
    on 25 points x up to 1e6:
    (i) K(x-y)/K(x) -> 1 for y in {1, 2} (deviation < 2% at the largest x),
    (ii) K(2x)/K(x) bounded away from 0 at large x,
    (iii) the integral of K converges (relative increment of the last
    doubling below 1%)."""
    k, lk = _tilted(log_tail, alpha)
    low = log_tail.support_low
    xs = np.geomspace(max(low, 1.0) * 4.0, 1e6, 25)
    pass_shift = all(
        np.abs(np.exp(lk(xs - y) - lk(xs)) - 1.0)[-1] < 0.02 for y in (1.0, 2.0)
    )
    top = xs[xs >= xs[-1] ** 0.5]
    doubling = np.exp(lk(2.0 * top) - lk(top))
    doubling_min = float(doubling.min())
    pass_doubling = doubling_min > 1e-4

    # doubling-window trapezoid integrals of K; convergence means the last
    # window contributes under 1% of the running total
    edges = low + np.array([0.0] + [2.0**j for j in range(0, 22)])
    total = 0.0
    increment = math.inf
    for a, b in zip(edges[:-1], edges[1:]):
        grid = np.linspace(a, b, 513)
        piece = float(np.trapezoid(k(grid), grid))
        total += piece
        increment = piece / total if total > 0 else math.inf
    pass_integral = increment < 0.01
    return DomReport(doubling_min, increment, pass_shift, pass_doubling, pass_integral)


@dataclass(frozen=True)
class ConvexReport:
    """concave_from is where -log K is concave from on (inf if nowhere), and
    sup_dev_final is criterion (c) at the largest x."""

    concave_from: float
    sup_dev_final: float
    passed: bool


def salpha_check_convex(log_tail, alpha: float, gamma: float) -> ConvexReport:
    """Membership check for stretched-exponential-type corrections.

    Uses the witness function f(x) = (s log x)^{1/gamma} with s large enough
    that x K(f(x)) -> 0 (the corollary only requires existence of some f).
    Passes when each holds "eventually" on the grid: (a) concavity of -log K,
    (b) f(x) <= x/2 with f -> infinity, (c) sup_{y <= f(x)} |K(x-y)/K(x) - 1|
    decreasing to below 0.05, and (d) x K(f(x)) decreasing to below 0.05."""
    if not 0.0 < gamma < 1.0:
        raise PreconditionError("need gamma in (0, 1)")
    k, lk = _tilted(log_tail, alpha)
    low = log_tail.support_low

    # (a) eventual concavity of -log K on a uniform grid
    t = np.linspace(low + 0.5, 1e4, 2001)
    neg_log_k = -lk(t)
    d2 = np.diff(neg_log_k, 2)
    bad = np.nonzero(d2 > 1e-9)[0]
    concave_from = float(t[bad[-1] + 2]) if bad.size else float(t[0])
    if bad.size and bad[-1] + 2 >= t.size - 10:
        concave_from = math.inf  # not concave even at the grid's end

    scale = max(2.0, 2.0 / getattr(log_tail, "beta", 1.0))
    xs = np.geomspace(1e2, 1e12, 21)
    fx = (scale * np.log(xs)) ** (1.0 / gamma)

    # (b) f(x) <= x/2 at the last three points, and f increasing to infinity
    f_ok = np.all(fx[-3:] <= xs[-3:] / 2.0) and np.all(np.diff(fx) > 0)

    # (c) sup_{0 < y <= f(x)} |K(x-y)/K(x) - 1|
    frac = np.linspace(1e-3, 1.0, 200)
    sup_dev = np.empty(xs.size)
    for i, (x, f) in enumerate(zip(xs, fx)):
        y = frac * min(f, x / 2.0)
        sup_dev[i] = float(np.max(np.abs(np.exp(lk(x - y) - lk(x)) - 1.0)))
    sup_ok = np.all(np.diff(sup_dev[-5:]) <= 1e-12) and sup_dev[-1] < 0.05

    # (d) x K(f(x)) -> 0
    xk = xs * k(fx)
    xk_ok = np.all(np.diff(xk[-5:]) < 0) and xk[-1] < 0.05
    passed = bool(math.isfinite(concave_from) and f_ok and sup_ok and xk_ok)
    return ConvexReport(concave_from, float(sup_dev[-1]), passed)


# --- convolution diagnostics ------------------------------------------------

def _stieltjes(model, lo, hi, g, n_grid):
    """(S(hi), sum_k (S(y_k) - S(y_{k+1})) g(mid_k)) on n_grid equal cells
    y_0 = lo < ... < y_n = hi, with S the survival function of model: the
    Stieltjes sum for int_lo^hi g dF.

    Weights are survival-function differences (never CDF differences: when
    S < 1e-16 the CDF rounds to 1.0 and the tail mass vanishes from the
    quadrature, which visibly corrupts the ratio targets here)."""
    y = np.linspace(lo, hi, n_grid + 1)
    s = np.asarray(model.survival(y), dtype=float)
    mid = 0.5 * (y[:-1] + y[1:])
    return s[-1], np.sum((s[:-1] - s[1:]) * np.asarray(g(mid), dtype=float))


def convolution_tail(g1, g2, t: float, n_grid: int = 400_000) -> float:
    """P[X + Y > t] for independent X ~ g1, Y ~ g2 by Stieltjes quadrature
    over X."""
    low1, low2 = g1.support_low, g2.support_low
    hi = t - low2
    if hi <= low1:
        return 1.0
    s_hi, total = _stieltjes(g1, low1, hi, lambda x: g2.survival(t - x), n_grid)
    return float(s_hi + total)


@dataclass(frozen=True)
class TrajectoryReport:
    """Ratio estimates along t and their limit target; passed needs the last
    within tolerance of the target and the approach to it monotone."""

    estimates: np.ndarray
    target: float
    final_ok: bool
    monotone_ok: bool

    @property
    def passed(self):
        return self.final_ok and self.monotone_ok


def _trend_ok(estimates, target):
    """Last three absolute deviations from the target non-increasing."""
    dev = np.abs(np.asarray(estimates) - target)
    tail_part = dev[-3:]
    return bool(np.all(np.diff(tail_part) <= 1e-12 + 1e-9 * np.abs(tail_part[:-1])))


def convolution_limit_check(model, alpha: float, t_list, tol: float = 0.05) -> TrajectoryReport:
    """Ratio of the two-fold convolution tail of model to its own tail against
    the limit 2 m_alpha(F)."""
    m = model.exp_moment(alpha)
    if not math.isfinite(m):
        raise PreconditionError("exponential moment is not finite")
    target = 2.0 * m
    t_list = np.asarray(t_list, dtype=float)
    est = np.array(
        [convolution_tail(model, model, t) / float(model.survival(t)) for t in t_list]
    )
    final_ok = abs(est[-1] - target) <= tol * target
    return TrajectoryReport(est, target, final_ok, _trend_ok(est, target))


class SmallintReport(NamedTuple):
    integrals: np.ndarray  # I(v, x), one row per v
    v_monotone: bool  # I(v, x) at the last x is nonincreasing in v

    @property
    def passed(self):
        # stabilization in x is not judged: it is O(1/x) and fails at
        # x <= 160 even for exp_poly(1, -2, 1); it first holds from x = 320
        return self.v_monotone


def appendix_smallint_diagnostic(f_model, v_list, x_list, n_grid=200_000) -> SmallintReport:
    """Matrix I(v, x) of the normalized middle-range convolution integrals
    int_v^{x-v} S(x-y)/S(x) dF(y).

    For convolution-equivalent F the integrals stabilize in x for each fixed
    v and the stabilized values decrease to 0 as v grows."""
    v_list = np.asarray(v_list, dtype=float)
    x_list = np.asarray(x_list, dtype=float)
    low = f_model.support_low
    out = np.zeros((v_list.size, x_list.size))
    for i, v in enumerate(v_list):
        for j, x in enumerate(x_list):
            lo = max(v, low)
            hi = x - v
            if hi <= lo:
                continue
            _, total = _stieltjes(
                f_model, lo, hi, lambda y: f_model.survival(x - y), n_grid
            )
            out[i, j] = float(total / float(f_model.survival(x)))
    v_monotone = bool(np.all(np.diff(out[:, -1]) <= 1e-12))
    return SmallintReport(out, v_monotone)


def product_convolution_check(
    a_model: TailModel, alpha: float, t_list, tol: float = 0.25
) -> TrajectoryReport:
    """Trajectory of P[A A' > t]/P[A > t] versus the limit 2 E[A^alpha].

    On the log scale the product is a sum, P[A A' > t] = P[log A + log A' >
    log t], so this is the convolution check of log A at the levels log t,
    whose target 2 m_alpha(log A) is 2 E[A^alpha]."""
    if isinstance(a_model, Constant):
        raise PreconditionError("point mass is not regularly varying")
    lv = LogView(a_model)
    return convolution_limit_check(lv, alpha, np.log(t_list), tol)


@dataclass(frozen=True)
class UniformityReport:
    sup_dev: np.ndarray
    strictly_decreasing: bool

    @property
    def passed(self):
        """The deviation strictly decreases along t, or is float-exact 0 at
        the last t (a pure power tail, where it cannot decrease)."""
        return self.strictly_decreasing or self.sup_dev[-1] < 1e-12


def rv_uniformity_check(a_model: TailModel, alpha: float, c: float, t_list) -> UniformityReport:
    """sup_{y > c} |P[A > y t]/P[A > t] - y^{-alpha}| along t_list.

    For a pure power tail the deviation is float-exact 0 once c t clears the
    support edge.  With a slowly varying correction the supremum is dominated
    by y near c and decays only logarithmically, so no level of it is
    asserted: the check judges its decrease."""
    if c <= 0.0:
        raise PreconditionError("need c > 0")
    t_list = np.asarray(t_list, dtype=float)
    y = np.geomspace(c, 1e3, 4001)[1:]  # open at c
    dev = np.empty(t_list.size)
    for i, t in enumerate(t_list):
        # from the log tails, so a P[A > t] that underflows to 0 divides
        # nothing; the ratio is inf where the tail falls faster than any power
        with np.errstate(over="ignore"):
            ratio = np.exp(a_model.log_survival(y * t) - a_model.log_survival(t))
        dev[i] = float(np.max(np.abs(ratio - y ** (-alpha))))
    dec = bool(np.all(dev[1:] < dev[:-1]))  # inf < inf is False, not nan
    return UniformityReport(dev, dec)
