"""Random Lipschitz map families and their coefficient laws.

A map family fixes a functional form (affine, max-affine, positive-part
affine, sqrt-log) together with the joint law of its coefficients.
`draw_coeffs` draws the coefficients of n maps and `apply_map` applies them;
the sampler and the stability precheck both go through this pair.
The one-step tail functionals f+ / f- and the exact one-step tail
`engine.conditional_tail` read one table: per (kind, dependence) with a
closed form, the multiplier s(y) of A in Psi(y) = A s(y) + (terms bounded
below).  Both tails of Psi(y) are reached through A s(y), the left tail as
the right tail of -Psi(y).
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
    "one_step",
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

    p_plus is P[A > 0]: 1 unless the law is signed.  c_b is the tail-ratio
    constant lim P[B > t] / P[W > t] against the unsigned marginal W of A
    (W = A for positive A); the reference tail is P[A > t] = p_plus P[W > t].
    """

    marginal_a: TailModel
    marginal_b: TailModel
    dependence: str = INDEPENDENT
    p_plus: float = 1.0
    c_b: float = 0.0

    def __post_init__(self):
        if self.dependence not in (INDEPENDENT, EQUAL, SIGNED):
            raise ValueError(f"unknown dependence {self.dependence!r}")
        if not (0.0 < self.p_plus <= 1.0 and (self.dependence == SIGNED or self.p_plus == 1.0)):
            raise ValueError("p_plus must be in (0, 1] with signed dependence and 1 without")
        if self.dependence == EQUAL:
            object.__setattr__(self, "marginal_b", self.marginal_a)
            object.__setattr__(self, "c_b", 1.0)
        if not 0.0 <= self.c_b < math.inf:
            raise ValueError("c_b must be finite and >= 0")

    def a_tail(self, t):
        """P[A > t] = p_plus P[W > t], the reference tail for every ratio in
        this package."""
        return self.p_plus * self.marginal_a.survival(t)


@dataclass(frozen=True)
class MapFamily:
    """One of the supported Psi families with its coefficient law.

    sqrt_log carries a third nonnegative coefficient C ~ marginal_c with
    tail constant c_c; the other kinds have no C and take neither.
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
        if self.kind != SQRT_LOG and (self.marginal_c is not None or self.c_c != 0.0):
            raise ValueError(f"c, c_c: the coefficient C is for sqrt_log only, not {self.kind}")
        if not 0.0 <= self.c_c < math.inf:
            raise ValueError("c_c must be finite and >= 0")


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

# (kind, dependence) -> (s, phi), with Psi(y) = A s(y) + B phi(y) + C + (terms
# bounded below): the state's multipliers of A and of B.  phi is None where
# B = A is already in s.  Max-affine takes s = max(y, 0): max(A y, B) >= B
# has no left tail, while s = y would give it one at y < 0.
_ONE_STEP = {
    (AFFINE, INDEPENDENT): (lambda y: y, lambda y: 1.0),
    (AFFINE, SIGNED): (lambda y: y, lambda y: 1.0),
    (AFFINE, EQUAL): (lambda y: y + 1.0, None),
    (MAX_AFFINE, INDEPENDENT): (lambda y: np.maximum(y, 0.0), lambda y: 1.0),
    (POS_PART_AFFINE, INDEPENDENT): (lambda y: np.maximum(y, 0.0), lambda y: 1.0),
    (SQRT_LOG, INDEPENDENT): (lambda y: y, _sqrtlog),
}


def one_step(kind: str, dependence: str):
    """(s, phi) of the (kind, dependence) pair; NoClosedFormError for a pair
    without a closed form."""
    try:
        return _ONE_STEP[kind, dependence]
    except KeyError:
        raise NoClosedFormError(
            f"no closed form for ({kind}, {dependence}); use empirical f+/- via simulation"
        ) from None


def _one_step_limit(family: MapFamily, y, alpha: float, side: int):
    """lim_t P[side Psi(y) > t] / P[A > t] for side = +-1.

    A s(y) reaches side * Psi(y) > t as |A| exceeds t / |s(y)| with the sign
    of side * s(y), which A takes with probability p_plus (A > 0) or
    1 - p_plus (A < 0).  B and C are bounded below, so they reach the right
    tail alone."""
    s, phi = one_step(family.kind, family.coeff.dependence)
    y = np.asarray(y, dtype=float)
    sy = s(y)
    p = family.coeff.p_plus
    out = np.maximum(sy if side > 0 else -sy, 0.0) ** alpha
    if p < 1.0:
        out = out + (1.0 - p) / p * np.maximum(-sy if side > 0 else sy, 0.0) ** alpha
    if side > 0 and phi is not None:
        out = out + family.coeff.c_b / p * phi(y) ** alpha
    if side > 0 and family.marginal_c is not None:
        out = out + family.c_c
    return out


def f_plus(family: MapFamily, y, alpha: float):
    """lim_t P[Psi(y) > t] / P[A > t], where P[A > t] is the reference tail
    of the (possibly signed) coefficient A."""
    return _one_step_limit(family, y, alpha, +1)


def f_minus(family: MapFamily, y, alpha: float):
    """lim_t P[Psi(y) < -t] / P[A > t]: the right tail of -Psi(y)."""
    return _one_step_limit(family, y, alpha, -1)


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
