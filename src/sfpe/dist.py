"""Parametric heavy-tailed distribution families with exact survival functions.

Every model exposes the same small surface: ``survival`` (exact, vectorized),
``quantile`` (inverse survival), ``sample`` (inverse transform), ``alpha_moment``
(power moments E[X^s], closed form where available, adaptive quadrature
otherwise) and ``exp_moment`` (exponential moments E[e^{sX}]).  Models are
immutable after construction and safe to share between workers.

The LogPareto and ExpPoly quantiles are the hot kernel of the sampler and
of the smoothing quadrature.  Both reduce to a v + b log1p(v) = -log u and
share one solver, `_solve_log1p`: Newton steps from the first-order inverse,
written into preallocated arrays, with each element stopping on its own.
ExpStretched keeps the generic `_newton_concave_increasing`, whose elements
also stop on their own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

__all__ = [
    "TailModel",
    "Pareto",
    "LogPareto",
    "ExpPoly",
    "ExpStretched",
    "Constant",
    "LogView",
    "log_view",
    "parse_model",
    "format_model",
]

_QUAD_RELTOL = 1e-9


class InvalidParameterError(ValueError):
    """Model parameters outside the admissible range."""


def _newton_concave_increasing(g, gprime, w, v0, max_iter=60, tol=1e-15):
    """Solve g(v) = w elementwise for concave increasing g, starting above the root.

    One step from above lands below the root; afterwards the iteration is
    monotone increasing, so convergence is guaranteed and quadratic.  Each
    element stops at its own first small step and the rest go on alone, so
    an element's root does not depend on the other elements of the call.
    """
    root = np.array(v0, dtype=float)
    flat = root.reshape(-1)  # a view: writes land in root
    v, w = flat, np.broadcast_to(w, root.shape).reshape(-1)
    active = np.arange(flat.size)
    for _ in range(max_iter):
        step = (g(v) - w) / gprime(v)
        v = np.maximum(v - step, 0.0)
        flat[active] = v
        live = np.abs(step) > tol * (1.0 + np.abs(v))
        if not live.any():
            break
        active, v, w = active[live], v[live], w[live]
    return root


def _solve_log1p(a, b, u, max_iter=60, tol=1e-15):
    """Solve a v + b log1p(v) = -log(u) (a, b > 0, u in (0, 1]) elementwise.

    The left side is concave and increasing, so Newton's method converges
    from any start: the first step lands at or below the root, and from
    below the iteration rises monotonically.  It starts from the first-order
    inverse max((w - b log1p(w / (a + b))) / a, 0), w = -log(u), which is
    right to first order both as w -> 0 and as w -> inf, so the step test of
    `_newton_concave_increasing` runs only from the fourth step on.  There
    each element stops at its own first small step and the rest go on
    alone, so an element's root does not depend on the other elements of
    the call.  The steps write into preallocated arrays; `u` is only read.
    """
    w = np.log(u, out=np.empty_like(u))
    np.negative(w, out=w)
    root = np.divide(w, a + b, out=np.empty_like(w))
    np.log1p(root, out=root)
    root *= b
    np.subtract(w, root, out=root)
    root /= a
    np.maximum(root, 0.0, out=root)
    flat = root.reshape(-1)  # a view: writes land in root
    v, w = flat, w.reshape(-1)
    active = None  # indices of flat that v holds; None while v is flat
    f, d = np.empty_like(v), np.empty_like(v)
    for i in range(max_iter):
        # f = (a v + b log1p(v) - w) / (a + b / (1 + v)), the Newton step
        np.log1p(v, out=f)
        f *= b
        np.multiply(v, a, out=d)
        f += d
        f -= w
        np.add(v, 1.0, out=d)
        np.divide(b, d, out=d)
        d += a
        f /= d
        v -= f
        np.maximum(v, 0.0, out=v)
        if i < 3:
            continue
        np.abs(f, out=f)
        np.add(v, 1.0, out=d)
        d *= tol
        live = np.flatnonzero(np.greater(f, d))
        if active is not None:
            flat[active] = v
        if live.size == 0:
            break
        active = live if active is None else active[live]
        v, w = flat[active], w[live]
        f, d = np.empty_like(v), np.empty_like(v)
    return root


class TailModel:
    """Base class for right-unbounded parametric survival models."""

    family: str = "base"

    @property
    def support_low(self) -> float:
        raise NotImplementedError

    def params(self) -> dict:
        raise NotImplementedError

    def survival(self, t):
        """P[X > t], exact, scalar or array."""
        raise NotImplementedError

    def log_survival(self, t):
        """log P[X > t], computed without underflow where the family allows."""
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.log(self.survival(t))
        return out if np.ndim(out) else float(out)

    def log_survival_logx(self, u):
        """log P[X > e^u]; overridden where e^u would overflow prematurely."""
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            out = self.log_survival(np.exp(u))
        return out if np.ndim(out) else float(out)

    def quantile(self, u):
        """t with survival(t) = u, for u in (0, 1]."""
        raise NotImplementedError

    def alpha_moment(self, s: float) -> float:
        """E[X^s] for s >= 0; +inf when the moment diverges.  Adaptive
        quadrature of s t^(s-1) S(t) above the support's lower end where
        the family has no closed form."""
        if s < 0:
            raise ValueError("s must be >= 0")
        if s == 0:
            return 1.0
        t0 = self.support_low
        val, _ = quad(
            lambda t: s * t ** (s - 1.0) * float(self.survival(t)),
            t0,
            math.inf,
            epsrel=_QUAD_RELTOL,
            limit=200,
        )
        return t0**s + val

    def exp_moment(self, s: float) -> float:
        """E[e^{sX}] for s >= 0; +inf when divergent.  Where the family has
        no closed form: e^{s t0} + s times the adaptive quadrature of
        e^{st} S(t) above t0, for the exponential families with rate alpha,
        where e^{st} S(t) decays (s < alpha) or is integrable (s = alpha)."""
        if s < 0:
            raise ValueError("s must be >= 0")
        if s > self.alpha:
            return math.inf
        t0 = self.support_low
        val, _ = quad(
            lambda t: math.exp(s * t) * float(self.survival(t)),
            t0,
            math.inf,
            epsrel=_QUAD_RELTOL,
            limit=400,
        )
        return math.exp(s * t0) + s * val

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-transform draws; U uniform on (0, 1]."""
        return self.quantile(1.0 - rng.random(n))

    def _check_u(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u <= 0.0):
            raise ValueError("unbounded quantile: u must be in (0, 1]")
        if np.any(u > 1.0):
            raise ValueError("quantile domain error: u must be in (0, 1]")
        return u

    def __repr__(self):  # pragma: no cover
        inner = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({inner})"


@dataclass(frozen=True, repr=False)
class Pareto(TailModel):
    """S(t) = (x0/t)^alpha for t >= x0."""

    alpha: float
    x0: float

    family = "pareto"

    def __post_init__(self):
        if not (self.alpha > 0 and self.x0 > 0):
            raise InvalidParameterError("pareto requires alpha > 0 and x0 > 0")

    @property
    def support_low(self):
        return self.x0

    def params(self):
        return {"alpha": self.alpha, "x0": self.x0}

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        m = t > self.x0
        out[m] = (self.x0 / t[m]) ** self.alpha
        return out if out.ndim else float(out)

    def log_survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t > self.x0, self.alpha * (math.log(self.x0) - np.log(t)), 0.0)
        return out if out.ndim else float(out)

    def log_survival_logx(self, u):
        u = np.asarray(u, dtype=float)
        lx0 = math.log(self.x0)
        out = np.where(u > lx0, self.alpha * (lx0 - u), 0.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = self._check_u(u)
        out = self.x0 * u ** (-1.0 / self.alpha)
        return out if out.ndim else float(out)

    def alpha_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        if s >= self.alpha:
            return math.inf
        return self.alpha * self.x0**s / (self.alpha - s)

    def exp_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        return math.exp(s * self.x0) if s == 0.0 else math.inf


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

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 1 and self.x0 > 0):
            raise InvalidParameterError(
                "log_pareto requires alpha > 0, beta > 1, x0 > 0"
            )

    @property
    def support_low(self):
        return self.x0

    def params(self):
        return {"alpha": self.alpha, "beta": self.beta, "x0": self.x0}

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        m = t > self.x0
        tm = t[m]
        out[m] = (self.x0 / tm) ** self.alpha * (
            1.0 + np.log(tm / self.x0)
        ) ** (-self.beta)
        return out if out.ndim else float(out)

    def log_survival(self, t):
        t = np.asarray(t, dtype=float)
        lr = np.log(np.maximum(t / self.x0, 1.0))
        out = -self.alpha * lr - self.beta * np.log1p(lr)
        return out if out.ndim else float(out)

    def log_survival_logx(self, u):
        u = np.asarray(u, dtype=float)
        lr = np.maximum(u - math.log(self.x0), 0.0)
        out = -self.alpha * lr - self.beta * np.log1p(lr)
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = self._check_u(u)
        out = _solve_log1p(self.alpha, self.beta, u)  # log(t / x0)
        np.exp(out, out=out)
        out *= self.x0
        return out if out.ndim else float(out)

    def alpha_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        a, b = self.alpha, self.beta
        if s > a:
            return math.inf
        if s == a:
            return self.x0**a * (1.0 + a / (b - 1.0))
        # E[X^s] = x0^s (1 + s * int_0^inf e^{(s-a)u} (1+u)^{-b} du)
        val, _ = quad(
            lambda v: math.exp((s - a) * v) * (1.0 + v) ** (-b),
            0.0,
            math.inf,
            epsrel=_QUAD_RELTOL,
            limit=200,
        )
        return self.x0**s * (1.0 + s * val)

    def exp_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        return math.exp(s * self.x0) if s == 0.0 else math.inf


@dataclass(frozen=True, repr=False)
class ExpPoly(TailModel):
    """S(t) = (t/t0)^p e^{-alpha (t - t0)} for t >= t0, with p < -1.

    Normalized so S(t0) = 1 (conditional-on-support form).
    """

    alpha: float
    p: float
    t0: float

    family = "exp_poly"

    def __post_init__(self):
        if not (self.alpha > 0 and self.p < -1 and self.t0 > 0):
            raise InvalidParameterError(
                "exp_poly requires alpha > 0, p < -1, t0 > 0"
            )

    @property
    def support_low(self):
        return self.t0

    def params(self):
        return {"alpha": self.alpha, "p": self.p, "t0": self.t0}

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        m = t > self.t0
        tm = t[m]
        out[m] = (tm / self.t0) ** self.p * np.exp(-self.alpha * (tm - self.t0))
        return out if out.ndim else float(out)

    def log_survival(self, t):
        t = np.asarray(t, dtype=float)
        tm = np.maximum(t, self.t0)
        out = self.p * np.log(tm / self.t0) - self.alpha * (tm - self.t0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        # a z + q log1p(z / t0) = -log u, solved for v = z / t0
        u = self._check_u(u)
        out = _solve_log1p(self.alpha * self.t0, -self.p, u)
        out *= self.t0
        out += self.t0
        return out if out.ndim else float(out)


@dataclass(frozen=True, repr=False)
class ExpStretched(TailModel):
    """S(t) = exp{-alpha (t - t0) - beta (t^gamma - t0^gamma)} for t >= t0."""

    alpha: float
    beta: float
    gamma: float
    t0: float

    family = "exp_stretched"

    def __post_init__(self):
        if not (
            self.alpha > 0 and self.beta > 0 and 0.0 < self.gamma < 1.0 and self.t0 > 0
        ):
            raise InvalidParameterError(
                "exp_stretched requires alpha, beta > 0, gamma in (0,1), t0 > 0"
            )

    @property
    def support_low(self):
        return self.t0

    def params(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "t0": self.t0,
        }

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        m = t > self.t0
        tm = t[m]
        out[m] = np.exp(
            -self.alpha * (tm - self.t0)
            - self.beta * (tm**self.gamma - self.t0**self.gamma)
        )
        return out if out.ndim else float(out)

    def log_survival(self, t):
        t = np.asarray(t, dtype=float)
        tm = np.maximum(t, self.t0)
        out = -self.alpha * (tm - self.t0) - self.beta * (
            tm**self.gamma - self.t0**self.gamma
        )
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = self._check_u(u)
        a, b, g, t0 = self.alpha, self.beta, self.gamma, self.t0
        w = -np.log(u)
        z = _newton_concave_increasing(
            lambda z: a * z + b * ((t0 + z) ** g - t0**g),
            lambda z: a + b * g * (t0 + z) ** (g - 1.0),
            w,
            w / a,
        )
        out = t0 + z
        return out if out.ndim else float(out)


@dataclass(frozen=True, repr=False)
class Constant(TailModel):
    """Point mass at c (degenerate coefficient, e.g. B = 1)."""

    c: float

    family = "constant"

    @property
    def support_low(self):
        return self.c

    def params(self):
        return {"c": self.c}

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t < self.c, 1.0, 0.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        u = self._check_u(u)
        out = np.full_like(u, self.c)
        return out if out.ndim else float(out)

    def alpha_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        if self.c < 0:
            raise ValueError("alpha_moment undefined for negative point mass")
        if s == 0:
            return 1.0
        return self.c**s

    def exp_moment(self, s):
        if s < 0:
            raise ValueError("s must be >= 0")
        return math.exp(s * self.c)


@dataclass(frozen=True)
class LogView:
    """Pushforward of a positive-support model under log: survival(t) = S(e^t).

    Used by the convolution-equivalence checks, which live on the log scale.
    The exponential moment on this scale equals the power moment of the base.
    """

    base: TailModel

    def __post_init__(self):
        if self.base.support_low <= 0:
            raise ValueError("log_view requires support on the positive reals")

    @property
    def support_low(self):
        return math.log(self.base.support_low)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = self.base.survival(np.exp(t))
        return out if np.ndim(out) else float(out)

    def log_survival(self, t):
        return self.base.log_survival_logx(t)

    def quantile(self, u):
        out = np.log(self.base.quantile(u))
        return out if np.ndim(out) else float(out)

    def exp_moment(self, s):
        return self.base.alpha_moment(s)

    def sample(self, n, rng):
        return np.log(self.base.sample(n, rng))


def log_view(model: TailModel) -> LogView:
    """Survival of log X for a positive random variable X."""
    return LogView(model)


# --- model specification grammar: family(key=value, ...) ------------------

_FAMILIES = {
    "pareto": (Pareto, ("alpha", "x0")),
    "log_pareto": (LogPareto, ("alpha", "beta", "x0")),
    "exp_poly": (ExpPoly, ("alpha", "p", "t0")),
    "exp_stretched": (ExpStretched, ("alpha", "beta", "gamma", "t0")),
    "constant": (Constant, ("c",)),
}

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*\(([^()]*)\)\s*$")


def parse_model(text: str) -> TailModel:
    """Parse `family(key=value, ...)`, e.g. `log_pareto(alpha=2.0, beta=3.0, x0=0.4)`."""
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse model spec: {text!r}")
    name, body = m.group(1), m.group(2)
    if name not in _FAMILIES:
        raise ValueError(f"unknown model family: {name!r}")
    cls, keys = _FAMILIES[name]
    kwargs = {}
    for part in filter(None, (p.strip() for p in body.split(","))):
        if "=" not in part:
            raise ValueError(f"bad parameter {part!r} in model spec {text!r}")
        k, v = (s.strip() for s in part.split("=", 1))
        if k not in keys:
            raise ValueError(f"unknown parameter {k!r} for family {name!r}")
        kwargs[k] = float(v)
    missing = [k for k in keys if k not in kwargs]
    if missing:
        raise ValueError(f"missing parameters {missing} for family {name!r}")
    return cls(**kwargs)


def format_model(model: TailModel) -> str:
    """Inverse of parse_model; round-trips exactly."""
    inner = ", ".join(f"{k}={v!r}" for k, v in model.params().items())
    return f"{model.family}({inner})"
