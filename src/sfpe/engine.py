"""Stationary-law sampling for R_n = Psi_n(R_{n-1}), and the smoothed tail.

One sampler: independent replica chains.  The truncated perpetuity (affine
maps only) is that chain run K steps from 0, with K from the remainder
bound.  On top of a batch, the Rao-Blackwellized (smoothed) tail estimator
averages the closed-form one-step tail over the samples, interpolated on one
grid per batch for every family that has one: the interpolation weights are
built once per batch, and each level evaluates the one-step tail on the grid
alone, never on the samples.  Sampling is chunked; each chunk owns a
counter-based Philox stream keyed by (seed, chunk_index), so results are
bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .dist import Constant, TailModel
from .maps import (
    AFFINE,
    EQUAL,
    INDEPENDENT,
    MAX_AFFINE,
    POS_PART_AFFINE,
    SIGNED,
    CoeffLaw,
    MapFamily,
    NoClosedFormError,
    apply_map,
    draw_coeffs,
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
_VERSION = 1

CHAIN = "chain"
PERPETUITY = "perpetuity"


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    seed: int
    burn_in: int = 64
    chunk_size: int = 1 << 16
    method: str = CHAIN
    truncation_eps: float = 1e-3
    x_init: float = 0.0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be in [0, 2**64)")
        if self.burn_in < 1:
            raise ValueError("burn_in must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if not (0.0 < self.truncation_eps < 1.0):
            raise ValueError("truncation_eps must be in (0, 1)")
        if self.method not in (CHAIN, PERPETUITY):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class SampleBatch:
    values: np.ndarray
    method: str
    seed: int
    config: SimConfig
    extra: dict = field(default_factory=dict)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Philox stream keyed by (seed, chunk_index), both in [0, 2**64)."""
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_ranges(n, chunk_size):
    return [(i, min(i + chunk_size, n)) for i in range(0, n, chunk_size)]


def _chain_chunk(args):
    family, cfg, chunk_index, lo, hi = args
    n = hi - lo
    rng = _chunk_rng(cfg.seed, chunk_index)
    x = np.full(n, cfg.x_init, dtype=float)
    for step in range(cfg.burn_in):
        a, b, c = draw_coeffs(family, n, rng)
        x = apply_map(family.kind, a, b, c, x)
        if not np.all(np.isfinite(x)):
            i = int(np.argmax(~np.isfinite(x)))
            raise EngineError(
                f"non-finite state in replica {lo + i} at step {step}"
            )
    return chunk_index, x


def _run_chunks(jobs, n_total, workers=1):
    out = np.empty(n_total)
    if workers <= 1:
        results = map(_chain_chunk, jobs)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_chain_chunk, jobs, chunksize=1))
        finally:
            pool.shutdown()
    ranges = {idx: (lo, hi) for _, _, idx, lo, hi in jobs}
    for chunk_index, values in results:
        lo, hi = ranges[chunk_index]
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


@functools.lru_cache(maxsize=None)
def _gl01(n):
    """n-node Gauss-Legendre rule on [0, 1]; read-only, shared by callers."""
    x, w = np.polynomial.legendre.leggauss(n)
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


def _affine_branch(wm: TailModel, bm: TailModel, s, t: float, sigma: int):
    """P[s W + sigma B > t] for independent W ~ wm > 0, B ~ bm > 0, t > 0.

    Integrates over the B marginal on its survival scale v = S_B(b) with
    Gauss-Legendre nodes, after splitting off the regions where the
    W-conditional probability is exactly 0 or 1 (missing the exact-one region
    near v = 0 silently drops the "B alone exceeds t" mass, which dominates
    deep in the tail).  What is left is an interval with one end where the
    integrand changes fast: the edge u_star of the exact-0/1 region, across
    which it moves between 0 and 1 within a layer that can be much thinner
    than the interval, or v = 0, near which it behaves like v times powers
    of log v.  The node budget is spent on panels that widen geometrically
    away from that end instead of on one rule over the interval.

    Each element of s is one row of _GL_NODES nodes.  Rows are evaluated in
    blocks of _GL_BLOCK, so the node, quantile and integrand arrays stay
    cache-sized (393 KB each) instead of growing with s (6.3 MB each on the
    8192-node smoothing grid) and being page-faulted in afresh on every
    call.  A row's sum is the same reduction in any block, and the quantile
    solves each element on its own, so the blocking changes no bit.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if isinstance(bm, Constant):
        return _scaled_tail(wm, s, t - sigma * bm.c)
    x0w = wm.support_low
    out = np.zeros(s.shape)

    def _gl_graded(start, end, first, scale, h):
        # integral of h(b, scale) over v between start and end (either way
        # round), per element: _GL_PANELS panels, the first (at start) of
        # width `first`, the rest widening geometrically up to end.  Rows go
        # in blocks of _GL_BLOCK, each with its slice of `scale`
        end = np.broadcast_to(end, start.shape)
        g, gw = _gl01(_GL_NODES // _GL_PANELS)
        k = np.arange(_GL_PANELS)
        sums = []
        for lo in range(0, start.size, _GL_BLOCK):
            rows = slice(lo, lo + _GL_BLOCK)
            st = start[rows]
            span = end[rows] - st
            size = np.abs(span)
            ratio = np.clip(first[rows] / np.where(size > 0.0, size, 1.0), 1e-300, 1.0)
            offsets = ratio[:, None] ** ((_GL_PANELS - 1 - k) / (_GL_PANELS - 1))
            rel = np.concatenate([np.zeros((st.size, 1)), offsets], axis=1)
            edges = st[:, None] + span[:, None] * rel
            width = np.diff(edges, axis=1)
            v = (edges[:, :-1, None] + width[:, :, None] * g).reshape(st.size, -1)
            b = bm.quantile(np.clip(v, 1e-300, 1.0))
            weights = (np.abs(width)[:, :, None] * gw).reshape(st.size, -1)
            sums.append(np.sum(h(b, scale[rows, None]) * weights, axis=1))
        return np.concatenate(sums)

    pos = s > 0
    neg = s < 0
    if sigma > 0:
        zero = ~pos & ~neg
        out[zero] = float(bm.survival(t))
        if np.any(pos):
            sp = s[pos]
            # exact 1 for b > t - s*x0w, i.e. v < u_star; by v = u_ramp
            # (b = t - 2 s x0w) it is down to S_W(2 x0w).  The first panel
            # spans that drop, and no more than u_star, the scale on which
            # the quantile b(v) itself moves near v = u_star
            u_star = np.asarray(bm.survival(t - sp * x0w), dtype=float)
            u_ramp = np.asarray(bm.survival(t - 2.0 * sp * x0w), dtype=float)
            vals = _gl_graded(
                u_star,
                1.0,
                np.minimum(u_ramp - u_star, u_star),
                sp,
                lambda b, sp: wm.survival((t - b) / sp),
            )
            out[pos] = u_star + vals
        if np.any(neg):
            sn = -s[neg]
            # nonzero only for b > t + |s|*x0w, i.e. v < u_star; by v = u_ramp
            # (b = t + 2 |s| x0w) it is up to 1 - S_W(2 x0w).  Mirrors s > 0
            u_star = np.asarray(bm.survival(t + sn * x0w), dtype=float)
            u_ramp = np.asarray(bm.survival(t + 2.0 * sn * x0w), dtype=float)
            out[neg] = _gl_graded(
                u_star,
                0.0,
                np.minimum(u_star - u_ramp, u_star),
                sn,
                lambda b, sn: 1.0 - wm.survival((b - t) / sn),
            )
    else:
        # P[s W - B > t]: needs s > 0 and then b < s*x0w - t can make it certain
        if np.any(pos):
            sp = s[pos]
            v_bar = np.asarray(bm.survival(sp * x0w - t), dtype=float)
            vals = _gl_graded(
                np.zeros_like(v_bar),
                v_bar,
                1e-6 * v_bar,
                sp,
                lambda b, sp: wm.survival((t + b) / sp),
            )
            out[pos] = (1.0 - v_bar) + vals
        # s <= 0: sW - B <= 0 < t almost surely
    return out


def _indep_affine_tail(coeff: CoeffLaw, t: float, y, sign_a=1.0, side=+1):
    """P[side-tail of sign_a*W*y + B at level t] for independent B,
    W ~ marginal_a > 0; side = +1 is P[. > t], side = -1 is P[. < -t]."""
    y = np.asarray(y, dtype=float)
    return _affine_branch(
        coeff.marginal_a, coeff.marginal_b, side * sign_a * y, t, side
    )


def conditional_tail(coeff: CoeffLaw, kind: str, t: float, y, side=+1):
    """Exact P[Psi(y) > t] (side=+1) or P[Psi(y) < -t] (side=-1) given the
    previous state y, for the closed-form combinations; NoClosedFormError
    for the others."""
    y = np.asarray(y, dtype=float)
    dep = coeff.dependence
    if kind == AFFINE and dep == EQUAL:
        s = y + 1.0
        return _scaled_tail(coeff.marginal_a, side * s, t)
    if kind == AFFINE and dep == INDEPENDENT:
        return _indep_affine_tail(coeff, t, y, side=side)
    if kind == AFFINE and dep == SIGNED:
        p = coeff.p_plus
        plus = _indep_affine_tail(coeff, t, y, sign_a=+1.0, side=side)
        minus = _indep_affine_tail(coeff, t, y, sign_a=-1.0, side=side)
        return p * plus + (1.0 - p) * minus
    if kind == POS_PART_AFFINE and dep == INDEPENDENT:
        return _indep_affine_tail(coeff, t, np.maximum(y, 0.0), side=side)
    if kind == MAX_AFFINE and dep == INDEPENDENT:
        if side < 0:
            # A, B >= 0: max(Ay, B) has no left tail below -t < 0
            return np.zeros_like(y)
        sa = _scaled_tail(coeff.marginal_a, y, t)
        sb = float(coeff.marginal_b.survival(t))
        return sa + sb - sa * sb
    raise NoClosedFormError(
        f"no closed-form conditional tail for ({kind}, {dep})"
    )


_SMOOTH_GRID = 8192


def _interp_weights(g, grid_g):
    """Linear interpolation of the points g on grid_g as weights on the
    nodes: (w, d, o), of sizes G, G and G - 1.

    Point i lies in interval j_i at fraction f_i, so its interpolated value
    is (1 - f_i) v[j_i] + f_i v[j_i + 1].  The mean of these values is w . v,
    and their sum of squares is sum_k d_k v_k^2 + 2 sum_k o_k v_k v_{k+1};
    w, d and o depend on the points alone, not on v.
    """
    size = grid_g.size
    j = np.searchsorted(grid_g, g, side="right")
    j -= 1
    np.clip(j, 0, size - 2, out=j)
    f = g - grid_g[j]
    width = np.diff(grid_g)[j]
    # equal points give a zero-width grid, and f = g - grid_g[j] = 0 there
    np.divide(f, width, out=f, where=width > 0.0)
    del width
    h = 1.0 - f
    w = np.bincount(j, h, size)
    d = np.bincount(j, h * h, size)
    o = np.bincount(j, h * f, size)
    j += 1
    w += np.bincount(j, f, size)
    d += np.bincount(j, f * f, size)
    return w / g.size, d, o[:-1]


def smoothed_tail(batch: SampleBatch, coeff: CoeffLaw, kind: str, t_grid, side=+1):
    """Mean over stationary samples y_i of P[Psi(y_i) > t] at each t of
    t_grid; unbiased for P[R > t] with strictly smaller variance than the
    indicator estimator.

    Returns (estimates, standard errors), one per t; a single sample has
    standard error nan.  The closed-form conditional tail (a smooth monotone
    function of y) is linearly interpolated from one dense asinh-spaced grid
    over the batch's range; the grid error is far below Monte Carlo noise.
    The interpolation weights are built once per batch, so each t costs the
    one-step tail on every grid node and a few dot products, whatever the
    batch size and however the samples spread over the grid (nodes without
    samples have weight 0; skipping them would make the cost follow the
    sample extremes).  The weights sum to 1 only up to rounding, so the mean
    takes one refinement step, m + w . (v - m), which makes it exact where
    v is constant on the nodes.  The variance is taken about that mean,
    which interpolation carries over to the samples exactly.
    """
    y = np.asarray(batch.values, dtype=float)
    n = y.size
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    # asinh scale covers signed, heavy-tailed sample ranges gracefully
    g = np.asinh(y)
    grid_g = np.linspace(float(g.min()), float(g.max()), _SMOOTH_GRID)
    w, d, o = _interp_weights(g, grid_g)
    grid_y = np.sinh(grid_g)
    est = np.empty(t_grid.shape)
    se = np.empty(t_grid.shape)
    for i, t in enumerate(t_grid):
        v = conditional_tail(coeff, kind, float(t), grid_y, side=side)
        m = w @ v
        m += w @ (v - m)
        # a mean of probabilities; the dot products can round above 1
        est[i] = m = min(m, 1.0)
        c = v - m
        ss = d @ (c * c) + 2.0 * (o @ (c[:-1] * c[1:]))
        se[i] = math.sqrt(max(ss, 0.0) / (n - 1) / n) if n > 1 else math.nan
    return est, se


# --- batch persistence ------------------------------------------------------

def save_batch(batch: SampleBatch, path):
    """16-byte header (magic, version, count) + little-endian float64 values,
    with a sidecar text file echoing the config."""
    values = np.ascontiguousarray(batch.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", _VERSION, values.size))
        fh.write(values.tobytes())
    cfg = batch.config
    lines = [
        f"method = {batch.method}",
        f"n_samples = {cfg.n_samples}",
        f"seed = {cfg.seed}",
        f"burn_in = {cfg.burn_in}",
        f"chunk_size = {cfg.chunk_size}",
        f"truncation_eps = {cfg.truncation_eps!r}",
        f"x_init = {cfg.x_init!r}",
    ]
    for k, v in sorted(batch.extra.items()):
        lines.append(f"{k} = {v!r}")
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
        body = fh.read(count * 8)
        if len(body) < count * 8:
            raise EngineError(
                f"truncated batch file {path}: {len(body) // 8} of {count} values"
            )
        values = np.frombuffer(body, dtype="<f8", count=count)
    meta = {}
    try:
        with open(str(path) + ".cfg") as fh:
            for line in fh:
                if "=" in line:
                    k, v = (s.strip() for s in line.split("=", 1))
                    meta[k] = v
    except FileNotFoundError:
        pass
    cfg = SimConfig(
        n_samples=int(meta.get("n_samples", count)),
        seed=int(meta.get("seed", 0)),
        burn_in=int(meta.get("burn_in", 64)),
        chunk_size=int(meta.get("chunk_size", 1 << 16)),
        method=meta.get("method", CHAIN),
        truncation_eps=float(meta.get("truncation_eps", 1e-3)),
        x_init=float(meta.get("x_init", 0.0)),
    )
    return SampleBatch(values.copy(), cfg.method, cfg.seed, cfg)
