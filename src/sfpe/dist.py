"""Parametric heavy-tailed distribution families with exact survival functions.

Every model exposes the same small surface: ``survival`` (exact, vectorized),
``log_survival``, ``elasticity`` (-d log S / d log t, the hazard on the log
scale), ``quantile`` (inverse survival), ``sample``, ``alpha_moment`` (power
moments E|X|^s), ``exp_moment`` (exponential moments E[e^{sX}]) and
``params``.  Models are immutable after construction and safe to share
between workers.

A family states only its parameters (the dataclass fields, all finite,
checked in ``__post_init__``), its ``support_low`` and three formulas:
``_tail(t)``, S(t) for t > support_low; ``_log_tail(t)``, log S(t) for t >=
support_low; ``_elasticity(t)``, -d log S / d log t for t >= support_low;
and, only where it has a closed form, ``_inverse(u)``, the t with S(t) = u.
`TailModel` owns the rest: ``survival`` is 1 up to support_low and ``_tail``
above it, ``log_survival`` and ``elasticity`` are ``_log_tail`` and
``_elasticity`` at max(t, support_low), ``quantile`` rejects u outside
(0, 1], NaN included, before it calls ``_inverse``, all four return a float
for a scalar and an array of the same shape for an array, and ``params`` and
the keys ``parse_model`` accepts are the dataclass fields.  ``Constant`` keeps
its own ``survival`` and ``log_survival``, since a point mass has survival 0
at c itself, and has no ``elasticity``.

Only ``Pareto`` and ``Constant`` have a quantile: they sample by inverse
transform through their closed-form ``_inverse``, and the default
``_inverse`` raises NotImplementedError.  The LogPareto, ExpPoly and
ExpStretched survivals are each the product of two closed-form survivals,
so these three sample a draw as the minimum of two independent closed-form
draws from two standard exponentials.  The smoothing quadrature integrates
over log t with the closed-form ``elasticity``, so no run inverts a
survival.

One moment rule serves every moment without a closed form: the fixed
exp-sinh rule of Takahasi and Mori (1974), ``_integral_above``, on
s u + log S(e^u) over u = log t for E[X^s] and on s t + log S(t) over t for
E[e^{sX}].  Its nodes stop 1.6e13 past the lower end: at s = alpha,
s t + log S(t) cancels, and its rounding error grows fast past about 1e15.
So ExpPoly, whose e^{alpha t} S(t) is a power of t, keeps a closed form there."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

__all__ = [
    "TailModel",
    "Pareto",
    "LogPareto",
    "ExpPoly",
    "ExpStretched",
    "Constant",
    "LogView",
    "parse_spec",
    "parse_model",
]

class InvalidParameterError(ValueError):
    """Model parameters outside the admissible range."""


def _scalar(out):
    """A float for a scalar input, the array otherwise."""
    return out if np.ndim(out) else float(out)


def _integral_above(log_f, low):
    """int_low^inf exp(log_f(v)) dv, log_f vectorized, by the exp-sinh rule: the
    nodes low + x_k, x_k = e^{(pi/2) sinh(k/32)} for k = -140..117, and the
    weights (pi/64) cosh(k/32) x_k."""
    k = np.arange(-140, 118) / 32.0
    x = np.exp(0.5 * np.pi * np.sinh(k))
    return float(np.pi / 64.0 * np.cosh(k) * x @ np.exp(log_f(low + x)))


def _finite(model):
    return all(map(math.isfinite, model.params().values()))


def _exp_pair(n, rng, r1, r2):
    """E1/r1 and E2/r2 for two rows of n standard exponentials, in place.  A
    survival e^{-r1 z} e^{-r2 h(z)}, h increasing from h(0) = 0, is that of
    min(E1/r1, h^-1(E2/r2)), the draw of LogPareto, ExpPoly and ExpStretched."""
    e = rng.standard_exponential((2, n))
    e[0] /= r1
    e[1] /= r2
    return e[0], e[1]


class TailModel:
    """Base class for right-unbounded parametric survival models; the module
    docstring says what a family states and what this class owns."""

    family: str = "base"
    # a power tail: the class checks of theory run on log X (see LogView)
    regularly_varying: bool = False

    @property
    def support_low(self) -> float:
        raise NotImplementedError

    def params(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def survival(self, t):
        """P[X > t], exact: 1 up to `support_low`, `_tail` above it."""
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        m = t > self.support_low
        out[m] = self._tail(t[m])
        return _scalar(out)

    def log_survival(self, t):
        """log P[X > t] without underflow: `_log_tail` at max(t, support_low)."""
        t = np.asarray(t, dtype=float)
        return _scalar(self._log_tail(np.maximum(t, self.support_low)))

    def elasticity(self, t):
        """e(t) = -d log S / d log t, at max(t, support_low): the hazard on the
        log scale, so the law has density S(t) e(t) in log t."""
        t = np.asarray(t, dtype=float)
        return _scalar(self._elasticity(np.maximum(t, self.support_low)))

    def log_survival_logx(self, u):
        """log P[X > e^u]; overridden where e^u would overflow prematurely."""
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            return _scalar(self.log_survival(np.exp(u)))

    def quantile(self, u):
        """t with survival(t) = u, for u in (0, 1], where the family has a
        closed-form ``_inverse`` (Pareto and Constant); NotImplementedError
        for the others."""
        u = np.asarray(u, dtype=float)
        if not np.all((u > 0.0) & (u <= 1.0)):
            if np.any(u <= 0.0):
                raise ValueError("unbounded quantile: u must be in (0, 1]")
            raise ValueError("quantile domain error: u must be in (0, 1]")
        return _scalar(self._inverse(u))

    def _inverse(self, u):
        raise NotImplementedError(f"{self.family} has no closed-form quantile")

    def alpha_moment(self, s: float) -> float:
        """E|X|^s for s >= 0, which is E[X^s] for a positive support; +inf
        when the moment diverges.  Without a closed form, t0^s + s times the
        moment rule on s u + log_survival_logx(u) above u = log t0, t0 =
        support_low > 0, which does not overflow for the power tails."""
        if s < 0:
            raise ValueError("s must be >= 0")
        t0 = self.support_low
        val = _integral_above(lambda u: s * u + self.log_survival_logx(u), math.log(t0))
        return t0**s + s * val

    def exp_moment(self, s: float) -> float:
        """E[e^{sX}] for s >= 0; +inf when divergent, as for every s > 0 of a
        power tail.  For the exponential families with rate alpha, e^{s t0} +
        s times the moment rule on s t + log_survival(t) above t0, since e^{st}
        alone overflows far out."""
        if s < 0:
            raise ValueError("s must be >= 0")
        if self.regularly_varying:
            return 1.0 if s == 0 else math.inf
        if s > self.alpha:
            return math.inf
        t0 = self.support_low
        return math.exp(s * t0) + s * _integral_above(lambda t: s * t + self.log_survival(t), t0)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-transform draws; U uniform on (0, 1]."""
        return self.quantile(1.0 - rng.random(n))

    def __repr__(self):
        """The spec that parse_model reads back to an equal model."""
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{self.family}({inner})"


@dataclass(frozen=True, repr=False)
class Pareto(TailModel):
    """S(t) = (x0/t)^alpha for t >= x0."""

    alpha: float
    x0: float

    family = "pareto"
    support_low = property(attrgetter("x0"))
    regularly_varying = True

    def __post_init__(self):
        if not (_finite(self) and self.alpha > 0 and self.x0 > 0):
            raise InvalidParameterError("pareto requires finite alpha > 0 and x0 > 0")

    def _tail(self, t):
        return (self.x0 / t) ** self.alpha

    def _log_tail(self, t):
        # np.log for both logs, so that log S(x0) is exactly 0
        return self.alpha * (np.log(self.x0) - np.log(t))

    def _elasticity(self, t):
        return np.full_like(t, self.alpha)

    def log_survival_logx(self, u):
        u = np.asarray(u, dtype=float)
        lx0 = math.log(self.x0)
        return _scalar(np.where(u > lx0, self.alpha * (lx0 - u), 0.0))

    def _inverse(self, u):
        return self.x0 * u ** (-1.0 / self.alpha)

    def alpha_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        if s >= self.alpha:
            return math.inf
        return self.alpha * self.x0**s / (self.alpha - s)


@dataclass(frozen=True, repr=False)
class LogPareto(TailModel):
    """S(t) = (x0/t)^alpha (1 + log(t/x0))^{-beta} for t >= x0.

    Regularly varying with index alpha; the logarithmic correction keeps the
    alpha-th moment finite (beta > 1).
    """

    alpha: float
    beta: float
    x0: float

    family = "log_pareto"
    support_low = property(attrgetter("x0"))
    regularly_varying = True

    def __post_init__(self):
        if not (_finite(self) and self.alpha > 0 and self.beta > 1 and self.x0 > 0):
            raise InvalidParameterError(
                "log_pareto requires finite alpha > 0, beta > 1, x0 > 0"
            )

    def _tail(self, t):
        return (self.x0 / t) ** self.alpha * (1.0 + np.log(t / self.x0)) ** (-self.beta)

    def _log_tail(self, t):
        lr = np.log(t / self.x0)
        return -self.alpha * lr - self.beta * np.log1p(lr)

    def _elasticity(self, t):
        return self.alpha + self.beta / (1.0 + np.log(t / self.x0))

    def log_survival_logx(self, u):
        u = np.asarray(u, dtype=float)
        lr = np.maximum(u - math.log(self.x0), 0.0)
        return _scalar(-self.alpha * lr - self.beta * np.log1p(lr))

    def sample(self, n, rng):
        """x0 exp(min(E1/alpha, expm1(E2/beta))): log(X/x0) is the minimum of
        an Exp(alpha) draw and a draw with survival (1 + v)^(-beta)."""
        x, v = _exp_pair(n, rng, self.alpha, self.beta)
        np.expm1(v, out=v)
        np.minimum(x, v, out=x)
        np.exp(x, out=x)
        x *= self.x0
        return x

    def alpha_moment(self, s):
        if s > self.alpha:
            return math.inf
        if s == self.alpha:
            return self.x0**s * (1.0 + s / (self.beta - 1.0))
        return super().alpha_moment(s)


@dataclass(frozen=True, repr=False)
class ExpPoly(TailModel):
    """S(t) = (t/t0)^p e^{-alpha (t - t0)} for t >= t0, with p < -1.

    Normalized so S(t0) = 1 (conditional-on-support form).
    """

    alpha: float
    p: float
    t0: float

    family = "exp_poly"
    support_low = property(attrgetter("t0"))

    def __post_init__(self):
        if not (_finite(self) and self.alpha > 0 and self.p < -1 and self.t0 > 0):
            raise InvalidParameterError(
                "exp_poly requires finite alpha > 0, p < -1, t0 > 0"
            )

    def _tail(self, t):
        return (t / self.t0) ** self.p * np.exp(-self.alpha * (t - self.t0))

    def _log_tail(self, t):
        return self.p * np.log(t / self.t0) - self.alpha * (t - self.t0)

    def _elasticity(self, t):
        return self.alpha * t - self.p

    def exp_moment(self, s):
        if s == self.alpha:
            return math.exp(s * self.t0) * (1.0 + s * self.t0 / (-1.0 - self.p))
        return super().exp_moment(s)

    def sample(self, n, rng):
        """t0 + min(E1/alpha, t0 expm1(E2/(-p))): X - t0 is the minimum of an
        Exp(alpha) draw and a draw with survival (1 + z/t0)^p."""
        x, z = _exp_pair(n, rng, self.alpha, -self.p)
        np.expm1(z, out=z)
        z *= self.t0
        np.minimum(x, z, out=x)
        x += self.t0
        return x


@dataclass(frozen=True, repr=False)
class ExpStretched(TailModel):
    """S(t) = exp{-alpha (t - t0) - beta (t^gamma - t0^gamma)} for t >= t0."""

    alpha: float
    beta: float
    gamma: float
    t0: float

    family = "exp_stretched"
    support_low = property(attrgetter("t0"))

    def __post_init__(self):
        if not (
            _finite(self)
            and self.alpha > 0 and self.beta > 0 and 0.0 < self.gamma < 1.0 and self.t0 > 0
        ):
            raise InvalidParameterError(
                "exp_stretched requires finite alpha, beta > 0, gamma in (0,1), t0 > 0"
            )

    def _tail(self, t):
        return np.exp(self._log_tail(t))

    def _log_tail(self, t):
        return -self.alpha * (t - self.t0) - self.beta * (
            t**self.gamma - self.t0**self.gamma
        )

    def _elasticity(self, t):
        return self.alpha * t + self.beta * self.gamma * t**self.gamma

    def sample(self, n, rng):
        """min(t0 + E1/alpha, (t0^gamma + E2/beta)^(1/gamma)): the minimum of
        an Exp(alpha) draw above t0 and a draw with survival
        exp(-beta (t^gamma - t0^gamma)), the latter taken as
        t0 (1 + E2/(beta t0^gamma))^(1/gamma), which is t0 itself at E2 = 0."""
        g, t0 = self.gamma, self.t0
        x, y = _exp_pair(n, rng, self.alpha, self.beta * t0**g)
        x += t0
        y += 1.0
        y **= 1.0 / g
        y *= t0
        np.minimum(x, y, out=x)
        return x


@dataclass(frozen=True, repr=False)
class Constant(TailModel):
    """Point mass at c (degenerate coefficient, e.g. B = 1).  It keeps its
    own survival, since a point mass has survival 0 at c itself."""

    c: float

    family = "constant"
    support_low = property(attrgetter("c"))

    def __post_init__(self):
        if not _finite(self):
            raise InvalidParameterError("constant requires a finite c")

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        return _scalar(np.where(t < self.c, 1.0, 0.0))

    def log_survival(self, t):
        with np.errstate(divide="ignore"):
            return _scalar(np.log(self.survival(t)))

    def _inverse(self, u):
        return np.full_like(u, self.c)

    def alpha_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        return abs(self.c) ** s

    def exp_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        return math.exp(s * self.c)


@dataclass(frozen=True)
class LogView:
    """Pushforward of a positive-support model under log: survival(t) = S(e^t).

    The class checks of theory live on this scale for a regularly varying
    base, and the product A A' is the sum log A + log A' on it.  The
    exponential moment on this scale equals the power moment of the base.
    """

    base: TailModel

    def __post_init__(self):
        if self.base.support_low <= 0:
            raise ValueError("LogView requires support on the positive reals")

    @property
    def support_low(self):
        return math.log(self.base.support_low)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return _scalar(self.base.survival(np.exp(t)))

    def log_survival(self, t):
        return self.base.log_survival_logx(t)

    def exp_moment(self, s):
        return self.base.alpha_moment(s)


# --- spec grammar: name(key=value, ...) -----------------------------------

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^()]*)\)\s*$")


def parse_spec(text: str, readers: dict, what: str):
    """Parse `name(key=value, ...)`, the keys in any order and each at most
    once, into (name, {key: value}) for the keys given.  `readers` maps each
    accepted name to {key: reader of the value text}; `what` names the spec."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse {what} spec: {text!r}")
    name, body = m.groups()
    if name not in readers:
        raise ValueError(f"unknown {what}: {name!r}")
    kwargs = {}
    for part in filter(None, (p.strip() for p in body.split(","))):
        k, _, v = (s.strip() for s in part.partition("="))
        if k not in readers[name]:
            raise ValueError(f"unknown parameter {k!r} for {what} {name!r}")
        if k in kwargs:
            raise ValueError(f"parameter {k!r} given twice in {what} spec {text!r}")
        kwargs[k] = readers[name][k](v)
    return name, kwargs


_FAMILIES = {
    cls.family: cls for cls in (Pareto, LogPareto, ExpPoly, ExpStretched, Constant)
}
_PARAMS = {name: {f.name: float for f in fields(cls)} for name, cls in _FAMILIES.items()}


def parse_model(text: str) -> TailModel:
    """Parse `family(key=value, ...)`, e.g. `log_pareto(alpha=2.0, beta=3.0, x0=0.4)`."""
    name, kwargs = parse_spec(text, _PARAMS, "model family")
    missing = [k for k in _PARAMS[name] if k not in kwargs]
    if missing:
        raise ValueError(f"missing parameters {missing} for family {name!r}")
    return _FAMILIES[name](**kwargs)
