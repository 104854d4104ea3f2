"""Random Lipschitz map families and their coefficient laws.

A map family fixes a functional form (affine, max-affine, positive-part
affine, sqrt-log) together with the joint law of its coefficients.
`draw_coeffs` draws the coefficients of n maps and `apply_map` applies them;
the sampler and the stability precheck both go through this pair.
Closed-form one-step tail functionals f+ / f- are provided for the dependence
structures that admit them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import TailModel

__all__ = [
    "CoeffLaw",
    "MapFamily",
    "NoClosedFormError",
    "apply_map",
    "draw_coeffs",
    "f_plus",
    "f_minus",
    "elton_precheck",
]

INDEPENDENT = "independent"
EQUAL = "equal"
SIGNED = "signed"

AFFINE = "affine"
MAX_AFFINE = "max_affine"
POS_PART_AFFINE = "pos_part_affine"
SQRT_LOG = "sqrt_log"

_KINDS = (AFFINE, MAX_AFFINE, POS_PART_AFFINE, SQRT_LOG)


class NoClosedFormError(ValueError):
    """Requested (kind, dependence) combination has no closed form; use
    empirical f+/- via simulation."""


@dataclass(frozen=True)
class CoeffLaw:
    """Joint law of (A, B).

    dependence:
      independent -- A and B drawn independently from their marginals.
      equal       -- A = B pathwise (c_b is 1 by construction).
      signed      -- A = eps * W with P[eps = +1] = p_plus, W ~ marginal_a,
                     eps independent of (W, B).

    c_b is the tail-ratio constant lim P[B > t] / P[W > t] against the
    unsigned marginal of A.  For positive A this is lim P[B > t] / P[A > t];
    for signed A the reference tail is P[A > t] = p_plus * P[W > t] and the
    closed-form f+/- rescale accordingly.
    """

    marginal_a: TailModel
    marginal_b: TailModel
    dependence: str = INDEPENDENT
    p_plus: float = 1.0
    c_b: float = 0.0

    def __post_init__(self):
        if self.dependence not in (INDEPENDENT, EQUAL, SIGNED):
            raise ValueError(f"unknown dependence {self.dependence!r}")
        if self.dependence == SIGNED and not (0.0 < self.p_plus <= 1.0):
            raise ValueError("signed dependence requires p_plus in (0, 1]")
        if self.dependence == EQUAL:
            object.__setattr__(self, "marginal_b", self.marginal_a)
            object.__setattr__(self, "c_b", 1.0)
        if self.c_b < 0:
            raise ValueError("c_b must be >= 0")

    def a_tail(self, t):
        """P[A > t], the reference tail for every ratio in this package."""
        s = self.marginal_a.survival(t)
        return self.p_plus * s if self.dependence == SIGNED else s


@dataclass(frozen=True)
class MapFamily:
    """One of the supported Psi families with its coefficient law.

    sqrt_log carries a third nonnegative coefficient C with tail constant
    c_c; the other kinds need nothing beyond (A, B).
    """

    kind: str
    coeff: CoeffLaw
    marginal_c: TailModel | None = None
    c_c: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.kind == SQRT_LOG and self.marginal_c is None:
            raise ValueError("sqrt_log requires a third coefficient law C")


def _sqrtlog(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.maximum(x, 0.0)) * np.log(np.maximum(x, 1.0))


def apply_map(kind, a, b, c, x):
    x = np.asarray(x, dtype=float)
    if kind == AFFINE:
        return a * x + b
    if kind == MAX_AFFINE:
        return np.maximum(a * x, b)
    if kind == POS_PART_AFFINE:
        return a * np.maximum(x, 0.0) + b
    if kind == SQRT_LOG:
        return a * x + b * _sqrtlog(x) + c
    raise ValueError(f"unknown map kind {kind!r}")


def draw_coeffs(family: MapFamily, n: int, rng: np.random.Generator):
    """Draw the coefficients (A, B, C) of n maps of the family.  C is the
    sqrt-log coefficient, drawn after (A, B), and 0.0 for the other kinds.
    The draw order is fixed so that streams are reproducible independently
    of chunking."""
    coeff = family.coeff
    if coeff.dependence == EQUAL:
        a = coeff.marginal_a.sample(n, rng)
        b = a
    elif coeff.dependence == INDEPENDENT:
        a = coeff.marginal_a.sample(n, rng)
        b = coeff.marginal_b.sample(n, rng)
    else:
        w = coeff.marginal_a.sample(n, rng)
        sign = np.where(rng.random(n) < coeff.p_plus, 1.0, -1.0)
        b = coeff.marginal_b.sample(n, rng)
        a = sign * w
    c = family.marginal_c.sample(n, rng) if family.kind == SQRT_LOG else 0.0
    return a, b, c


# --- closed-form one-step tail functionals --------------------------------

def _pow_plus(y, alpha):
    y = np.asarray(y, dtype=float)
    return np.maximum(y, 0.0) ** alpha


def _pow_minus(y, alpha):
    y = np.asarray(y, dtype=float)
    return np.maximum(-y, 0.0) ** alpha


def f_plus(family: MapFamily, y, alpha: float):
    """lim_t P[Psi(y) > t] / P[A > t], where P[A > t] is the reference tail
    of the (possibly signed) coefficient A."""
    coeff = family.coeff
    kind, dep = family.kind, coeff.dependence
    if kind in (AFFINE, MAX_AFFINE) and dep == INDEPENDENT:
        return _pow_plus(y, alpha) + coeff.c_b
    if kind == AFFINE and dep == EQUAL:
        y = np.asarray(y, dtype=float)
        return np.maximum(y + 1.0, 0.0) ** alpha
    if kind == AFFINE and dep == SIGNED:
        p = coeff.p_plus
        return (
            _pow_plus(y, alpha)
            + (1.0 - p) / p * _pow_minus(y, alpha)
            + coeff.c_b / p
        )
    if kind == POS_PART_AFFINE and dep == INDEPENDENT:
        return _pow_plus(y, alpha) + coeff.c_b
    if kind == SQRT_LOG and dep == INDEPENDENT:
        # the middle coefficient contributes through the sqrt-log envelope
        return (
            _pow_plus(y, alpha)
            + coeff.c_b * _sqrtlog(y) ** alpha
            + family.c_c
        )
    raise NoClosedFormError(
        f"no closed form for ({kind}, {dep}); use empirical f+/- via simulation"
    )


def f_minus(family: MapFamily, y, alpha: float):
    """lim_t P[Psi(y) < -t] / P[A > t]."""
    coeff = family.coeff
    kind, dep = family.kind, coeff.dependence
    if kind in (AFFINE, MAX_AFFINE, POS_PART_AFFINE, SQRT_LOG) and dep in (
        INDEPENDENT,
        EQUAL,
    ):
        # positive A and nonnegative-tailed B: no left tail at the A scale
        y = np.asarray(y, dtype=float)
        return np.zeros_like(y)
    if kind == AFFINE and dep == SIGNED:
        p = coeff.p_plus
        return _pow_minus(y, alpha) + (1.0 - p) / p * _pow_plus(y, alpha)
    raise NoClosedFormError(
        f"no closed form for ({kind}, {dep}); use empirical f+/- via simulation"
    )


# --- Elton preconditions ---------------------------------------------------

@dataclass(frozen=True)
class EltonReport:
    e_log_lip: float
    se_log_lip: float
    passed: bool


def elton_precheck(family: MapFamily, n_draws: int, rng: np.random.Generator) -> EltonReport:
    """Monte Carlo check that the maps contract on average, E[log L] < 0 for
    the Lipschitz constant L: passed when the mean of log L plus three
    standard errors is below 0.

    That is all it checks.  A draw whose L or Psi(0) is not finite raises
    ArithmeticError; a sample mean cannot show that E[log+ L] or a moment of
    the displacement is finite."""
    if n_draws < 1000:
        raise ValueError("n_draws must be >= 1000")
    a, b, c = draw_coeffs(family, n_draws, rng)
    if family.kind == SQRT_LOG:
        lip = np.abs(a) + np.abs(b)
    else:
        lip = np.abs(a)
    psi0 = apply_map(family.kind, a, b, c, np.zeros(n_draws))
    if not (np.all(np.isfinite(lip)) and np.all(np.isfinite(psi0))):
        i = int(np.argmax(~(np.isfinite(lip) & np.isfinite(psi0))))
        raise ArithmeticError(
            f"non-finite coefficient draw at index {i}: A={a[i]}, B={b[i]}"
        )
    if np.any(lip <= 0.0):
        # log of a zero Lipschitz constant is -inf; treat as strongly contracting
        lip = np.maximum(lip, 1e-300)
    log_lip = np.log(lip)
    e_log = float(log_lip.mean())
    se_log = float(log_lip.std(ddof=1) / math.sqrt(n_draws))
    return EltonReport(e_log, se_log, e_log + 3.0 * se_log < 0.0)
