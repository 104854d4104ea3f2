"""Correctness checks on the workloads' outputs, computed apart from sfpe.

Every check returns (ok, detail).  The references are:

* the exact finite-t law of the sampled chain, `chain_law.json`, written by
  `reference.py` from `tests/finite_t.ChainLaw`;
* closed forms written out here: the LogPareto moments by quadrature of its
  survival function, E[X_K] = E[B](1 - m^K)/(1 - m), the example constants
  d1, d2 by the stationary moment recursion, the one-step functionals f+-
  and the two-sided constants D+- of the signed chain;
* byte identity between commands and between repeated runs.

None of them reads a stored copy of the program's own output.
"""

import json
import math
import os

import numpy as np
from scipy.integrate import quad

Z95 = 1.959963984540054
EXCEED_MIN = 300  # empirical exceedances a grid point needs to be compared
Z_MAX = 5.0  # largest admitted |estimate - reference| in standard errors
REL_EXACT = 1e-9  # closed forms recomputed along another route

_LAW_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "chain_law.json")


def log_pareto_moment(s, alpha, beta, x0):
    """E[W^s] = x0^s + int_{x0}^inf s t^(s-1) S(t) dt, S(t) = (x0/t)^alpha
    (1 + log(t/x0))^-beta, integrated over v = log(t/x0)."""
    val, _ = quad(
        lambda v: s * x0**s * math.exp((s - alpha) * v) * (1.0 + v) ** (-beta),
        0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return x0**s + val


def load_law(model):
    with open(_LAW_PATH) as fh:
        law = json.load(fh)[model]
    return {k: np.asarray(v, dtype=float) for k, v in law.items()}


def exact_tail(law, t, side):
    """P[X > t] (side +1) or P[X < -t] (side -1), log-linear between nodes."""
    surv = np.maximum(law["right" if side > 0 else "left"], 1e-300)
    return np.exp(np.interp(np.log(t), np.log(law["t"]), np.log(surv)))


def tail_vs_exact(values, t, p, lo, hi, law, side):
    """The smoothed tail at every grid point with at least EXCEED_MIN
    empirical exceedances lies within Z_MAX standard errors of the exact
    finite-t chain law; the standard error is the CI half-width / 1.96."""
    v = np.sort(values if side > 0 else -values)
    exceed = v.size - np.searchsorted(v, t, side="right")
    use = exceed >= EXCEED_MIN
    if not np.any(use):
        return False, "no grid point has 300 exceedances"
    se = (hi - lo)[use] / (2.0 * Z95)
    z = (p[use] - exact_tail(law, t[use], side)) / se
    worst = float(np.max(np.abs(z)))
    return worst <= Z_MAX, f"{int(use.sum())} points, max |z| = {worst:.2f}"


def mean_vs_closed_form(values, m, e_b, steps):
    """Batch mean against E[X_steps] = E[B] (1 - m^steps) / (1 - m) for the
    affine chain from 0 with E[A] = m."""
    target = e_b * (1.0 - m**steps) / (1.0 - m)
    se = float(values.std(ddof=1)) / math.sqrt(values.size)
    z = (float(values.mean()) - target) / se
    return abs(z) <= Z_MAX, f"mean {values.mean():.5f} vs {target:.5f}, z = {z:.2f}"


def ecdf_vs_smoothed(p_s, lo_s, hi_s, p_e, lo_e, hi_e):
    """Smoothed and empirical tails agree at every grid point within Z_MAX
    of their combined CI-derived standard error."""
    se = np.hypot(hi_s - lo_s, hi_e - lo_e) / (2.0 * Z95)
    worst = float(np.max(np.abs(p_s - p_e) / se))
    return worst <= Z_MAX, f"max |z| = {worst:.2f}"


def signed_constants(values, p_plus, c_b, e_w2, xi, d):
    """The plug-in xi+- = mean f+-(X) with f+(y) = y+^2 + (1-p)/p y-^2 + c_b/p,
    f-(y) = y-^2 + (1-p)/p y+^2, and D+- solving D+ = mu+ D+ + mu- D- + xi+,
    D- = mu+ D- + mu- D+ + xi-, for mu+ = p E[W^2], mu- = (1-p) E[W^2]."""
    q = (1.0 - p_plus) / p_plus
    pos2 = np.maximum(values, 0.0) ** 2
    neg2 = np.maximum(-values, 0.0) ** 2
    xi_ref = np.array([np.mean(pos2 + q * neg2 + c_b / p_plus), np.mean(neg2 + q * pos2)])
    mu_p, mu_m = p_plus * e_w2, (1.0 - p_plus) * e_w2
    # Cramer's rule on the 2x2 system
    det = (1.0 - mu_p) ** 2 - mu_m**2
    d_ref = np.array([
        ((1.0 - mu_p) * xi_ref[0] + mu_m * xi_ref[1]) / det,
        ((1.0 - mu_p) * xi_ref[1] + mu_m * xi_ref[0]) / det,
    ])
    err = max(_rel(xi, xi_ref), _rel(d, d_ref))
    return err <= REL_EXACT, f"D+- {d[0]:.5f}, {d[1]:.5f}; rel err {err:.1e}"


def example_constants(d1, d2, mu, sigma):
    """d1, d2 from the stationary moments: for X = AX + B (independent,
    E[B] = mu), E[X] = mu/(1-mu) and E[X^2](1 - sigma) = 2 mu^2 E[X] + sigma,
    d1 = (E[X^2] + 1)/(1 - sigma); for X = A(X + 1), E[(X+1)^2](1 - sigma)
    = 2 E[X] + 1, d2 = E[(X+1)^2]/(1 - sigma)."""
    ex = mu / (1.0 - mu)
    ex2 = (2.0 * mu * mu * ex + sigma) / (1.0 - sigma)
    ref1 = (ex2 + 1.0) / (1.0 - sigma)
    ref2 = (2.0 * ex + 1.0) / (1.0 - sigma) ** 2
    err = max(_rel(d1, ref1), _rel(d2, ref2))
    return err <= REL_EXACT, f"d1 {d1:.6f}, d2 {d2:.6f}; rel err {err:.1e}"


def exp_poly_exp_moment(alpha, p, t0, s):
    """E[e^(sX)] = e^(s t0) + int_{t0}^inf s e^(st) S(t) dt for
    S(t) = (t/t0)^p e^(-alpha (t - t0))."""
    val, _ = quad(
        lambda t: s * math.exp(s * t - alpha * (t - t0)) * (t / t0) ** p,
        t0, math.inf, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return math.exp(s * t0) + val


def dist_check_targets(rows, expected):
    """Each (check, detail) row named in `expected` carries that value."""
    errs = []
    for key, ref in expected.items():
        if key not in rows:
            return False, f"missing row {key}"
        errs.append(abs(rows[key] - ref) / abs(ref))
    err = max(errs)
    return err <= REL_EXACT, f"targets {sorted(expected.values())}; rel err {err:.1e}"


def csv_prefix_equal(estimate_text, verify_text, columns=9):
    """estimate.csv equals the first `columns` columns of verify.csv."""
    est = estimate_text.splitlines()
    ver = [",".join(line.split(",")[:columns]) for line in verify_text.splitlines()]
    ok = est == ver and len(est) > 1
    return ok, f"{len(est)} lines, {'equal' if ok else 'differ'}"


def read_batch(raw):
    """batch.bin: 4-byte magic, uint32 version, uint64 count, float64 values."""
    if raw[:4] != b"SFPB":
        raise ValueError("bad magic in batch.bin")
    count = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    return np.frombuffer(raw[16:], dtype="<f8", count=count)


def read_csv(text):
    lines = text.strip().splitlines()
    cols = lines[0].split(",")
    return {c: np.array([float(r.split(",")[i]) for r in lines[1:]]) for i, c in enumerate(cols)}


def read_predictions(text):
    """predictions.csv: regime -> constant (the last column is JSON)."""
    rows = [line.split(",", 3) for line in text.strip().splitlines()[1:]]
    return {r[0]: float(r[1]) for r in rows}


def read_dist_check(text):
    rows = {}
    for line in text.strip().splitlines()[1:]:
        check, detail, value, _ = line.split(",")
        rows[f"{check}.{detail}"] = float(value)
    return rows


def _rel(a, b):
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return float(np.max(np.abs(a - b) / np.abs(b)))
