"""Empirical tail estimation.

Survival curves with Wilson confidence intervals, tail-ratio curves against a
reference survival function, the Hill tail-index estimator and plug-in moment
functionals with jackknife standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import csv_text
from .engine import SampleBatch, smoothed_tail

__all__ = [
    "TailEstimate",
    "RatioCurve",
    "wilson_interval",
    "ecdf_survival",
    "smoothed_survival",
    "ratio_curve",
    "hill",
    "plugin_moment",
    "default_grid",
    "reliable_index",
    "ESTIMATE_HEADER",
    "estimate_rows",
    "estimate_to_csv",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

RELIABLE_EXCEED = 300


@dataclass
class TailEstimate:
    t_grid: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    n_exceed: np.ndarray
    n_total: int


@dataclass
class RatioCurve:
    t_grid: np.ndarray
    ratio: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    ref_tail: np.ndarray


def wilson_interval(k, n, z=_Z95):
    """Wilson score interval for a binomial proportion; vectorized in k."""
    k = np.asarray(k, dtype=float)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lo = np.where(k == 0, 0.0, np.clip(center - half, 0.0, 1.0))
    hi = np.where(k == n, 1.0, np.clip(center + half, 0.0, 1.0))
    return lo, hi


def _values(batch, side=+1):
    """The batch's values, negated for the left tail (side = -1), so that
    P[X < -t] is the right tail of what is returned."""
    v = batch.values if isinstance(batch, SampleBatch) else np.asarray(batch, float)
    if v.size == 0:
        raise ValueError("empty batch")
    return v if side > 0 else -v


def _exceedances(values, t):
    """#{x_i > t} for each t, and the sample size; one sort."""
    srt = np.sort(values)
    return srt.size - np.searchsorted(srt, t, side="right"), srt.size


def ecdf_survival(batch, t_grid, side=+1) -> TailEstimate:
    """p_hat(t) = #{x_i > t} / N (side = +1) or #{x_i < -t} / N (side = -1)
    with 95% Wilson intervals; one pass over sorted data."""
    values = _values(batch, side)
    t = np.asarray(t_grid, dtype=float)
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("t_grid must be strictly increasing")
    n_exceed, n = _exceedances(values, t)
    p_hat = n_exceed / n
    lo, hi = wilson_interval(n_exceed, n)
    return TailEstimate(t, p_hat, lo, hi, n_exceed, n)


def smoothed_survival(batch, coeff, kind, t_grid, side=+1) -> TailEstimate:
    """Like ecdf_survival but each point is the smoothed one-step estimator;
    normal-approximation CIs from its (much smaller) standard error.
    n_exceed is the empirical exceedance count, as in ecdf_survival, so that
    which points are reliable does not depend on smoothing noise."""
    t = np.asarray(t_grid, dtype=float)
    p, se = smoothed_tail(batch, coeff, kind, t, side=side)
    lo = np.clip(p - _Z95 * se, 0.0, 1.0)
    hi = np.clip(p + _Z95 * se, 0.0, 1.0)
    n_exceed, n = _exceedances(_values(batch, side), t)
    return TailEstimate(t, p, lo, hi, n_exceed, n)


def ratio_curve(est: TailEstimate, ref) -> RatioCurve:
    """Empirical tail divided by a reference tail ref, a callable t ->
    survival; CIs scaled identically."""
    sref = np.asarray(ref(est.t_grid), dtype=float)
    if np.any(sref <= 0.0):
        raise ValueError("reference survival must be positive on the grid")
    return RatioCurve(
        est.t_grid, est.p_hat / sref, est.ci_lo / sref, est.ci_hi / sref, sref
    )


def hill(batch, k: int) -> float:
    """Hill estimator from the k largest order statistics."""
    values = _values(batch)
    if k < 1:
        raise ValueError("k must be >= 1")
    if values.size < k + 1:
        raise ValueError("need at least k+1 samples")
    top = np.partition(values, values.size - (k + 1))[-(k + 1):]
    top.sort()
    pivot = top[0]
    if pivot <= 0.0:
        raise ValueError("Hill estimator needs the k+1 largest samples positive")
    mean_log = float(np.mean(np.log(top[1:] / pivot)))
    if mean_log <= 0.0:
        raise ValueError("degenerate tail")
    return 1.0 / mean_log


def plugin_moment(batch, g):
    """Sample mean of g(x_i) with its standard error std(ddof=1) / sqrt(n),
    which is also the leave-one-out jackknife's for a mean.

    g is a vectorized callable, e.g. `lambda y: np.maximum(y, 0.0) ** alpha`
    or a closed-form one-step functional `maps.f_plus` / `maps.f_minus` at
    fixed (family, alpha)."""
    values = _values(batch)
    gx = np.asarray(g(values), dtype=float)
    if not np.all(np.isfinite(gx)):
        raise ValueError("moment estimate non-finite; check the tail index")
    se = float(gx.std(ddof=1) / np.sqrt(gx.size)) if gx.size > 1 else 0.0
    return float(gx.mean()), se


def default_grid(batch, lo=0.99, hi_exceed=RELIABLE_EXCEED, points=20, side=+1):
    """Geometric grid from the empirical lo-quantile to the point where
    hi_exceed samples remain above, of X (side = +1) or of -X (side = -1)."""
    srt = np.sort(_values(batch, side))
    n = srt.size
    start = float(srt[min(int(lo * n), n - 1)])
    stop = float(srt[max(n - hi_exceed - 1, 0)])
    if not (0.0 < start < stop):
        raise ValueError("cannot build a geometric grid: need 0 < start < stop")
    return np.geomspace(start, stop, points)


def reliable_index(est: TailEstimate, min_exceed=RELIABLE_EXCEED):
    """Index of the largest grid point with n_exceed >= min_exceed."""
    ok = np.nonzero(est.n_exceed >= min_exceed)[0]
    if ok.size == 0:
        raise ValueError(f"no grid point has n_exceed >= {min_exceed}")
    return int(ok[-1])


ESTIMATE_HEADER = "t,p_hat,ci_lo,ci_hi,n_exceed,ref_tail,ratio,ratio_ci_lo,ratio_ci_hi"


def estimate_rows(est: TailEstimate, curve: RatioCurve) -> list:
    """One row of values per grid point, in the columns of ESTIMATE_HEADER."""
    return [
        [est.t_grid[i], est.p_hat[i], est.ci_lo[i], est.ci_hi[i], int(est.n_exceed[i]),
         curve.ref_tail[i], curve.ratio[i], curve.ci_lo[i], curve.ci_hi[i]]
        for i in range(est.t_grid.size)
    ]


def estimate_to_csv(est: TailEstimate, curve: RatioCurve) -> str:
    return csv_text(ESTIMATE_HEADER, estimate_rows(est, curve))
