"""Stationary-law sampling for R_n = Psi_n(R_{n-1}), and the smoothed tail.

One sampler: independent replica chains.  The truncated perpetuity (affine
maps only) is that chain run K steps from 0, with K from the remainder
bound.  On top of a batch, the Rao-Blackwellized (smoothed) tail estimator
averages the closed-form one-step tail over the samples by a local cubic
rule on one grid per batch: the weights are built once per batch, and each
level evaluates the one-step tail on the grid's nodes alone, never on the
samples.  The one-step tail of the affine map is a Gauss-Legendre quadrature
over log B with the closed-form B density S_B e_B (`TailModel.elasticity`),
so smoothing calls no quantile.  Sampling is chunked; each chunk owns an
SFC64 stream seeded by SeedSequence(seed, spawn_key=(chunk_index,)), so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import ast
import functools
import math
import os
import struct
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import SFC64, Generator, SeedSequence

from .dist import Constant, TailModel
from .maps import (
    AFFINE,
    EQUAL,
    MAX_AFFINE,
    SQRT_LOG,
    CoeffLaw,
    MapFamily,
    NoClosedFormError,
    apply_map,
    draw_coeffs,
    one_step,
)

__all__ = [
    "SimConfig",
    "SampleBatch",
    "EngineError",
    "sample_stationary_chain",
    "sample_perpetuity",
    "smoothed_tail",
    "conditional_tail",
    "save_batch",
    "load_batch",
]

_MAGIC = b"SFPB"
_VERSION = 2  # 1: batches drawn from Philox streams

CHAIN = "chain"
PERPETUITY = "perpetuity"


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Sampling settings; the fields are the [sim] config keys and sidecar lines."""

    n_samples: int
    seed: int = 0
    burn_in: int = 64
    chunk_size: int = 1 << 16
    method: str = CHAIN
    truncation_eps: float = 1e-3
    x_init: float = 0.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.seed < 2**64:  # the seed keys every random stream
            raise ValueError("seed must be in [0, 2**64)")
        if self.burn_in < 1:
            raise ValueError("burn_in must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not (0.0 < self.truncation_eps < 1.0):
            raise ValueError("truncation_eps must be in (0, 1)")
        if self.method not in (CHAIN, PERPETUITY):
            raise ValueError(f"unknown method {self.method!r}")
        if not math.isfinite(self.x_init):
            raise ValueError("x_init must be finite")


@dataclass
class SampleBatch:
    values: np.ndarray
    method: str
    seed: int
    config: SimConfig
    extra: dict = field(default_factory=dict)


def _chunk_rng(seed: int, chunk_index: int) -> Generator:
    """SFC64 stream keyed by (seed, chunk_index), both in [0, 2**64).

    SeedSequence hashes the seed, padded to a fixed 128-bit pool, with the
    chunk index as its spawn key, so distinct (seed, chunk_index) pairs give
    distinct streams with overwhelming probability (not by construction, as
    a counter-based key would).  The list form SeedSequence([seed, chunk])
    is not used: it joins variable-length 32-bit words, so (2**32, 5) and
    (0, 1 + 5 * 2**32) would share a stream."""
    return Generator(SFC64(SeedSequence(seed, spawn_key=(chunk_index,))))


def _chunk_ranges(n, chunk_size):
    return [(i, min(i + chunk_size, n)) for i in range(0, n, chunk_size)]


def _chain_chunk(args):
    family, cfg, chunk_index, lo, hi = args
    n = hi - lo
    rng = _chunk_rng(cfg.seed, chunk_index)
    x = np.full(n, cfg.x_init, dtype=float)
    # an overflow is reported below, as a non-finite state
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.burn_in):
            a, b, c = draw_coeffs(family, n, rng)
            x = apply_map(family.kind, a, b, c, x)
            if not np.all(np.isfinite(x)):
                i = int(np.argmax(~np.isfinite(x)))
                raise EngineError(f"non-finite state in replica {lo + i} at step {step}")
    return x


def _run_chunks(jobs, n_total, workers=1):
    out = np.empty(n_total)
    workers = min(workers, len(jobs))  # a fork pool starts all its processes at once
    if workers <= 1:
        results = map(_chain_chunk, jobs)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_chain_chunk, jobs, chunksize=1))
        finally:
            pool.shutdown()
    # both maps return results in job order
    for (*_, lo, hi), values in zip(jobs, results):
        out[lo:hi] = values
    return out


def sample_stationary_chain(family: MapFamily, cfg: SimConfig, workers: int = 1) -> SampleBatch:
    """n_samples independent replicas, each the chain state after burn_in
    iterations from x_init."""
    jobs = [
        (family, cfg, idx, lo, hi)
        for idx, (lo, hi) in enumerate(_chunk_ranges(cfg.n_samples, cfg.chunk_size))
    ]
    values = _run_chunks(jobs, cfg.n_samples, workers)
    return SampleBatch(values, CHAIN, cfg.seed, cfg)


def perpetuity_terms(coeff: CoeffLaw, eps: float):
    """(K, bound): the fewest terms K whose remainder bound
    (E|A|)^K E|B| / (1 - E|A|) is below eps, and that bound."""
    ma = coeff.marginal_a.alpha_moment(1.0)
    mb = coeff.marginal_b.alpha_moment(1.0)
    if not (math.isfinite(ma) and ma < 1.0):
        raise EngineError(
            "perpetuity truncation bound unavailable; use chain method"
        )
    k = 1
    bound = ma * mb / (1.0 - ma)
    while bound >= eps:
        bound *= ma
        k += 1
        if k > 100000:
            raise EngineError("perpetuity truncation bound does not contract")
    return k, bound


def sample_perpetuity(coeff: CoeffLaw, cfg: SimConfig, workers: int = 1) -> SampleBatch:
    """Truncated perpetuity sums sum_{k<K} B_{k+1} prod_{j<=k} A_j for the
    affine map, sampled as the affine chain run K steps from 0, which has
    their law; K is chosen from the Markov-inequality remainder bound."""
    n_terms, bound = perpetuity_terms(coeff, cfg.truncation_eps)
    chain_cfg = replace(cfg, burn_in=n_terms, x_init=0.0)
    values = sample_stationary_chain(MapFamily(AFFINE, coeff), chain_cfg, workers).values
    return SampleBatch(
        values, PERPETUITY, cfg.seed, cfg, extra={"n_terms": n_terms, "remainder_bound": bound}
    )


# --- smoothed (Rao-Blackwellized) tail estimation --------------------------

_GL_NODES = 96
_GL_PANELS = 12
_GL_BLOCK = 512  # rows per block of _affine_branch: (512, 96) float64 = 393 KB
_TAIL_EPS = 1e-12  # bound on the B mass past the cut of an unbounded interval, over S_B(b0)


@functools.lru_cache(maxsize=None)
def _gl01(n):
    """n-node Gauss-Legendre rule on [0, 1]; read-only, shared by callers."""
    x, w = leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _scaled_tail(marginal: TailModel, s, u):
    """P[W s > u] for W ~ marginal (W > 0), vectorized over s, u."""
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    out = np.empty(np.broadcast(s, u).shape)
    s, u = np.broadcast_arrays(s, u)
    pos = s > 0
    neg = s < 0
    zero = ~pos & ~neg
    out[pos] = marginal.survival(u[pos] / s[pos])
    # s < 0: P[W s > u] = P[W < u/s]; continuous marginals, strictness immaterial
    out[neg] = 1.0 - marginal.survival(u[neg] / s[neg])
    out[zero] = (u[zero] < 0.0).astype(float)
    return out


def _graded(start, end, first, panels):
    """(n, panels + 1) panel edges per row from start to end (either way
    round): the first panel, at start, of width `first`, the rest widening
    geometrically up to end."""
    span = end - start
    size = np.abs(span)
    ratio = np.clip(first / np.where(size > 0.0, size, 1.0), 1e-300, 1.0)
    rel = ratio[:, None] ** ((panels - 1 - np.arange(panels)) / (panels - 1))
    rel = np.concatenate([np.zeros((start.size, 1)), rel], axis=1)
    return start[:, None] + span[:, None] * rel


def _affine_branch(wm: TailModel, bm: TailModel, s, t: float, sigma: int):
    """P[s W + sigma B > t] for independent W ~ wm > 0 and B ~ bm > 0, or a
    `Constant` of either sign, t > 0 and sigma = +-1.

    Integrates P[s W > t - sigma b] over the B marginal on the scale
    u = log b, where dF_B = S_B(b) e_B(b) du with the closed-form
    e_B = `TailModel.elasticity`.  Let b0 = max(sigma (t - s x0w), x0B), x0w
    and x0B the lower ends of W and B.  For s != 0 the integrand is exactly
    0 or 1 on one side of b0; that flat part is added in closed form
    (missing it silently drops the "B alone exceeds t" mass, which
    dominates deep in the tail), and on the other side the live integrand
    is S_W((t - sigma b) / s) for both signs of s:

      case                flat part     live interval in u               sign
      sigma = +1, s > 0   S_B(b0)       [log x0B, log b0], two halves    +
      sigma = +1, s < 0   S_B(b0)       [log b0, log b0 + L / m]         -
      sigma = -1, s > 0   1 - S_B(b0)   [log b0, log b0 + L / m]         +
      otherwise           S_B(t) for sigma = +1, 0 for sigma = -1; nothing live

    and 1, with nothing live, for sigma = +1, s > 0 where b0 = x0B, since
    then s W + B > s x0w + x0B >= t.

    An unbounded interval is cut at L = log(1 / _TAIL_EPS) over m, a lower
    bound of e_B on [b0, inf): alpha for the regularly varying families, whose
    e_B falls to alpha, and e_B(b0) for the others, whose e_B rises.  Since
    S_B(b) <= S_B(b0) e^{-m (u - log b0)} and the integrand is at most 1, the
    mass dropped is at most _TAIL_EPS S_B(b0); the integrand falls with b, so
    that is also at most _TAIL_EPS / (1 - _TAIL_EPS) of the integral kept.

    The integrand changes fast near each end it is graded from: W's
    argument moves by its own size within log1p(|t - sigma b| / b) of b
    (the ramp of width |s| x0w at b0, where the integrand leaves 1), and B's
    mass within 1 / e_B(b).  So the node budget is spent on panels whose
    first, at that end, is the smaller of the two, widening geometrically
    away from it: _GL_PANELS panels from log b0 on an unbounded interval,
    half of them from each end on the bounded one, where B's mass sits at
    log x0B and the ramp at log b0.  The integrand is taken as one exp of
    log S_W + log S_B, times e_B.

    Each element of s is one row of _GL_NODES nodes.  Rows are evaluated in
    blocks of _GL_BLOCK in preallocated cache-sized arrays (393 KB each)
    instead of arrays that grow with s (1.6 MB each on the 2048-node
    smoothing grid) and are page-faulted in afresh on every call.  A row's
    sum is the same reduction in any block, so the blocking changes no bit.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if isinstance(bm, Constant):
        return _scaled_tail(wm, s, t - sigma * bm.c)
    x0w, x0b = wm.support_low, bm.support_low
    out = np.full(s.shape, float(bm.survival(t)) if sigma > 0 else 0.0)
    live = s != 0 if sigma > 0 else s > 0
    if sigma > 0:
        sure = (s > 0) & (t - s * x0w <= x0b)
        out[sure] = 1.0
        live &= ~sure
    sl = s[live]
    b0 = np.maximum(sigma * (t - sl * x0w), x0b)
    u0 = np.log(b0)

    def first(b):
        return np.minimum(np.log1p(np.abs(t - sigma * b) / b), 1.0 / bm.elasticity(b))

    half = _GL_PANELS // 2
    bounded = sl > 0 if sigma > 0 else np.zeros(sl.shape, dtype=bool)
    edges = np.empty((sl.size, _GL_PANELS + 1))
    ue = u0[bounded]
    mid = 0.5 * (math.log(x0b) + ue)
    left = _graded(np.full_like(ue, math.log(x0b)), mid, first(x0b), half)
    right = _graded(ue, mid, first(b0[bounded]), half)
    edges[bounded] = np.concatenate([left, right[:, -2::-1]], axis=1)  # mid once
    bf, uf = b0[~bounded], u0[~bounded]
    m = np.full_like(bf, bm.alpha) if bm.regularly_varying else bm.elasticity(bf)
    edges[~bounded] = _graded(uf, uf + math.log(1.0 / _TAIL_EPS) / m, first(bf), _GL_PANELS)

    g, gw = _gl01(_GL_NODES // _GL_PANELS)
    u, b, x = (np.empty((min(sl.size, _GL_BLOCK), _GL_PANELS, g.size)) for _ in range(3))
    integral = np.empty(sl.size)
    for lo in range(0, sl.size, _GL_BLOCK):
        rows = slice(lo, lo + _GL_BLOCK)
        e = edges[rows]
        n = e.shape[0]
        width = np.diff(e, axis=1)[:, :, None]
        un, bn, xn = u[:n], b[:n], x[:n]
        np.multiply(width, g, out=un)
        un += e[:, :-1, None]
        np.exp(un, out=bn)
        if sigma > 0:
            np.subtract(t, bn, out=xn)
        else:
            np.add(t, bn, out=xn)
        xn /= sl[rows, None, None]
        h = wm.log_survival(xn)
        h += bm.log_survival_logx(un)
        np.exp(h, out=h)
        h *= bm.elasticity(bn)
        np.multiply(width, gw, out=xn)
        h *= xn
        integral[rows] = np.sum(h.reshape(n, -1), axis=1)
    sb0 = bm.survival(b0)
    if sigma > 0:
        out[live] = sb0 + np.where(bounded, integral, -integral)
    else:
        out[live] = 1.0 - sb0 + integral
    return out


def conditional_tail(coeff: CoeffLaw, kind: str, t: float, y, side=+1):
    """Exact P[Psi(y) > t] (side=+1) or P[Psi(y) < -t] (side=-1) given the
    previous state y, for the closed-form combinations; NoClosedFormError
    for the others.

    For the affine kinds Psi(y) = A s + B with s = s(y) of `maps.one_step`,
    so side * Psi(y) > t is (side s) W + side B > t for A = W > 0, and
    (-side s) W + side B > t for A = -W, which a signed law takes with
    probability 1 - p_plus."""
    y = np.asarray(y, dtype=float)
    s = one_step(kind, coeff.dependence)[0](y)
    wm, bm, p = coeff.marginal_a, coeff.marginal_b, coeff.p_plus
    if coeff.dependence == EQUAL:  # B = A: Psi(y) = A s
        return _scaled_tail(wm, side * s, t)
    if kind == MAX_AFFINE:
        if side < 0:
            # P[max(Ay, B) < -t] = P[Ay < -t] P[B < -t], at the raw state y:
            # 0 unless B may lie below -t (a negative Constant)
            return _scaled_tail(wm, -y, t) * (1.0 - float(bm.survival(-t)))
        sa = _scaled_tail(wm, s, t)
        sb = float(bm.survival(t))
        return sa + sb - sa * sb
    if kind == SQRT_LOG:
        raise NoClosedFormError(f"no closed-form conditional tail for ({kind}, {coeff.dependence})")
    out = _affine_branch(wm, bm, side * s, t, side)
    if p < 1.0:
        out = p * out + (1.0 - p) * _affine_branch(wm, bm, -side * s, t, side)
    return out


_SMOOTH_GRID = 2048
_WEIGHT_BLOCK = 1 << 12  # points per block of _lagrange_weights


def _lagrange_weights(g, grid_g):
    """Cubic Lagrange weights of the points g on the uniform grid_g: (w, d),
    with w of size G and d = [d_0, .., d_3] of sizes G .. G - 3.

    Point i in interval j_i takes the nodes s_i .. s_i + 3 (s_i = j_i - 1,
    clipped to [0, G - 4]) at weights l_ia.  The mean of the interpolated
    values sum_a l_ia v[s_i + a] is w . v, and their sum of squares is
    d_0 . v^2 + 2 sum_{k>0} d_k . (v[:-k] v[k:]).  Points go in blocks of
    _WEIGHT_BLOCK, so the work arrays do not grow with the batch.
    """
    size = grid_g.size
    step = (grid_g[-1] - grid_g[0]) / (size - 1)
    # acc holds w, d_0 .. d_3 in slots of size G: l_a adds to w[s + a], l_a l_{a+k} to d_k[s + a]
    pairs = np.array([(a, a + k) for k in range(4) for a in range(4 - k)])
    at = np.concatenate([np.arange(4), (1 + pairs[:, 1] - pairs[:, 0]) * size + pairs[:, 0]])
    acc = np.zeros(5 * size)
    for lo in range(0, g.size, _WEIGHT_BLOCK):
        x = g[lo:lo + _WEIGHT_BLOCK] - grid_g[0]
        if step > 0.0:  # a zero-width grid (equal points) has x = 0: all on node 0
            x /= step
        s = np.clip(x.astype(np.intp) - 1, 0, size - 4)
        x -= s
        x1, x2, x3 = x - 1.0, x - 2.0, x - 3.0
        lag = np.stack([-x1 * x2 * x3 / 6.0, x * x2 * x3 / 2.0,
                        -x * x1 * x3 / 2.0, x * x1 * x2 / 6.0], axis=1)
        cols = np.concatenate([lag, lag[:, pairs[:, 0]] * lag[:, pairs[:, 1]]], axis=1)
        acc += np.bincount((s[:, None] + at).ravel(), cols.ravel(), acc.size)
    return acc[:size] / g.size, [acc[(1 + k) * size:(2 + k) * size - k] for k in range(4)]


def smoothed_tail(batch: SampleBatch, coeff: CoeffLaw, kind: str, t_grid, side=+1):
    """Mean over stationary samples y_i of P[Psi(y_i) > t] at each t of
    t_grid; unbiased for P[R > t] with strictly smaller variance than the
    indicator estimator.

    Returns (estimates, standard errors), one per t; a single sample has
    standard error nan.  The closed-form one-step tail, monotone in y with
    kinks at the support edges, is taken on the _SMOOTH_GRID nodes of one
    asinh grid over the batch's range and interpolated by _lagrange_weights:
    each t costs the nodes and a few dot products, whatever the batch size.
    The mean takes one refinement step, m + w . (v - m), exact where v is
    constant on the nodes (the weights sum to 1 only up to rounding), and
    the variance is taken about it.  Cubic weights can be negative, so the
    estimate is clipped to [0, 1].
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    # asinh scale covers signed, heavy-tailed sample ranges gracefully
    g = np.asinh(np.asarray(batch.values, dtype=float))
    n = g.size
    grid_g = np.linspace(float(g.min()), float(g.max()), _SMOOTH_GRID)
    w, d = _lagrange_weights(g, grid_g)
    grid_y = np.sinh(grid_g)
    est, se = np.empty(t_grid.shape), np.empty(t_grid.shape)
    for i, t in enumerate(t_grid):
        v = conditional_tail(coeff, kind, float(t), grid_y, side=side)
        m = w @ v
        m += w @ (v - m)
        est[i] = min(max(m, 0.0), 1.0)
        c = v - m
        ss = d[0] @ (c * c) + 2.0 * sum(d[k] @ (c[:-k] * c[k:]) for k in (1, 2, 3))
        se[i] = math.sqrt(max(ss, 0.0) / (n - 1) / n) if n > 1 else math.nan
    return est, se


# --- batch persistence ------------------------------------------------------

def save_batch(batch: SampleBatch, path):
    """16-byte header (magic, version, count) + little-endian float64 values,
    with a sidecar text file echoing the config that made the batch (for a
    perpetuity, n_terms in extra records the chain steps that ran)."""
    values = np.ascontiguousarray(batch.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", _VERSION, values.size))
        fh.write(values.tobytes())
    cfg = replace(batch.config, method=batch.method)
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]
    lines += [f"{k} = {v!r}" for k, v in sorted(batch.extra.items())]
    with open(str(path) + ".cfg", "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_batch(path) -> SampleBatch:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise EngineError(f"bad magic in batch file {path}")
        header = fh.read(12)
        if len(header) < 12:
            raise EngineError(f"truncated header in batch file {path}")
        version, count = struct.unpack("<IQ", header)
        if version != _VERSION:
            raise EngineError(f"unsupported batch version {version}")
        # the size first: a header may claim more values than memory holds
        have = (os.fstat(fh.fileno()).st_size - 16) // 8
        if have < count:
            raise EngineError(f"truncated batch file {path}: {have} of {count} values")
        values = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
    # a field the sidecar lacks keeps its default; the sample count is the header's
    sidecar = str(path) + ".cfg"
    types = typing.get_type_hints(SimConfig)
    given, extra = {}, {}
    try:
        with open(sidecar) as fh:
            for k, v in (map(str.strip, line.split("=", 1)) for line in fh):
                if k in types:
                    given[k] = types[k](v)
                else:  # a SampleBatch.extra item, which save_batch writes as its repr
                    extra[k] = ast.literal_eval(v)
        cfg = replace(SimConfig(count), **given)
    except (OSError, ValueError, SyntaxError) as exc:
        raise EngineError(f"missing or unreadable sidecar {sidecar}: {exc}") from None
    return SampleBatch(values.copy(), cfg.method, cfg.seed, cfg, extra)
