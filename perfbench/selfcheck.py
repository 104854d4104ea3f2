"""Show that every benchmark check fails on a wrong input.

    python3 perfbench/selfcheck.py

Each check of `checks.py` gets an input that is right and one that is
deliberately wrong, produced by the same stages the workloads run
(`workload.run_stages`) or by the same sfpe calls that write the CLI outputs.
The script prints one line per case and exits 1 unless every right input
passes and every wrong input fails.  It takes under a minute.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

from sfpe import engine, tailstats, theory  # noqa: E402
from sfpe.dist import ExpPoly, LogPareto  # noqa: E402
from sfpe.maps import EQUAL  # noqa: E402

import checks  # noqa: E402
import models  # noqa: E402
import run  # noqa: E402
import workload  # noqa: E402

SEED = 20171006


def stages(name, family, cfg):
    return workload.run_stages(name, family, cfg, lambda _: None)[0]


def with_coeff(family, **changes):
    return dataclasses.replace(family, coeff=dataclasses.replace(family.coeff, **changes))


def main():
    cases = []  # (check, input, expected pass, (ok, detail))
    alpha, beta, x0 = models.LOG_PARETO
    e_w = checks.log_pareto_moment(1.0, alpha, beta, x0)
    e_w2 = checks.log_pareto_moment(2.0, alpha, beta, x0)

    # signed chain: the chain_signed stages, then with p_plus swapped
    fam, cfg = workload.build("chain_signed", SEED)
    signed = run.LibraryWorkload("chain_signed", SEED, None)
    good = stages("chain_signed", fam, cfg)
    for name, res in signed.check(good).items():
        cases.append((name, "chain_signed as run", True, res))
    swapped = stages("chain_signed", with_coeff(fam, p_plus=1.0 - models.P_PLUS), cfg)
    res = signed.check(swapped)
    for name in ("right tail vs exact", "left tail vs exact", "mean vs closed form"):
        cases.append((name, "p_plus 0.75 -> 0.25", False, res[name]))
    d_swapped = dict(good, d=good["d"][::-1].copy())
    cases.append(("plug-in D+-", "D+ and D- swapped", False, signed.check(d_swapped)["plug-in D+-"]))

    # independent chain above the cut-over: burn_in 8 and 2 instead of 64
    fam, _ = workload.build("cli_flow", SEED)
    n = models.WORKLOADS["cli_flow"]["n"]
    law = checks.load_law("independent")
    for burn_in in (models.BURN_IN, 8, 2):
        cfg = engine.SimConfig(n_samples=n, seed=SEED, burn_in=burn_in)
        batch = engine.sample_stationary_chain(fam, cfg)
        tag = f"{n} samples, burn_in {burn_in}"
        cases.append(("mean vs closed form", tag, burn_in == models.BURN_IN,
                      checks.mean_vs_closed_form(batch.values, e_w, e_w, models.BURN_IN)))
        if burn_in != 8:
            grid = tailstats.default_grid(batch)
            est = tailstats.smoothed_survival(batch, fam.coeff, fam.kind, grid)
            cases.append(("right tail vs exact", tag, burn_in == models.BURN_IN,
                          checks.tail_vs_exact(batch.values, est.t_grid, est.p_hat,
                                               est.ci_lo, est.ci_hi, law, +1)))
        if burn_in == models.BURN_IN:
            curve = tailstats.ratio_curve(est, fam.coeff.a_tail)
            est_csv = tailstats.estimate_to_csv(est, curve)

    # small batch: smoothed with the equal-coefficient law against the ECDF
    fam, cfg = workload.build("small_indep", SEED)
    batch = engine.sample_stationary_chain(fam, cfg)
    grid = tailstats.default_grid(batch)
    ecdf = tailstats.ecdf_survival(batch, grid)
    eq = tailstats.smoothed_survival(batch, with_coeff(fam, dependence=EQUAL).coeff,
                                     fam.kind, grid)
    cases.append(("ecdf vs smoothed", "smoothed with A = B", False, checks.ecdf_vs_smoothed(
        eq.p_hat, eq.ci_lo, eq.ci_hi, ecdf.p_hat, ecdf.ci_lo, ecdf.ci_hi)))

    # CLI files: verify.csv rows are estimate.csv rows plus two columns
    lines = est_csv.splitlines()
    verify = "\n".join([lines[0] + ",predicted,pass"] + [r + ",3.42,0" for r in lines[1:]])
    cases.append(("estimate.csv = verify.csv[:9]", "as written", True,
                  checks.csv_prefix_equal(est_csv, verify)))
    bad = verify.replace(lines[5].split(",")[1], repr(float(lines[5].split(",")[1]) * (1 + 1e-15)))
    cases.append(("estimate.csv = verify.csv[:9]", "one p_hat changed in its last digits", False,
                  checks.csv_prefix_equal(est_csv, bad)))

    mu, sigma = run._config_moments()
    d1, d2 = theory.example_constants(mu, sigma)
    cases.append(("example d1, d2", "theory.example_constants", True,
                  checks.example_constants(d1, d2, mu, sigma)))
    cases.append(("example d1, d2", "d1 and d2 swapped", False,
                  checks.example_constants(d2, d1, mu, sigma)))

    lp = LogPareto(alpha, beta, x0)
    for label, value, ok in (("2 E[A^2]", 2.0 * lp.alpha_moment(2.0), True),
                             ("2 E[A]", 2.0 * lp.alpha_moment(1.0), False)):
        cases.append(("dist-check product target 2 E[A^2]", label, ok, checks.dist_check_targets(
            {"product.target": value}, {"product.target": 2.0 * e_w2})))
    ep = ExpPoly(1.0, -2.0, 1.0)
    target = 2.0 * checks.exp_poly_exp_moment(1.0, -2.0, 1.0, 1.0)
    for label, value, ok in (("2 E[e^X]", 2.0 * ep.exp_moment(1.0), True),
                             ("E[e^X]", ep.exp_moment(1.0), False)):
        cases.append(("dist-check convolution target 4e", label, ok, checks.dist_check_targets(
            {"convolution.target": value}, {"convolution.target": target})))

    cases.append(("rounds reproduce the outputs", "last bit of one sample flipped", False,
                  (run.LibraryWorkload.same(good, _flip(good)), "")))

    failures = 0
    for check, label, expect, (ok, detail) in cases:
        right = ok == expect
        failures += not right
        print(f"{'ok ' if right else 'BAD'} {check} [{label}]: "
              f"{'pass' if ok else 'fail'} ({detail})")
    print(f"{len(cases)} cases, {failures} wrong")
    return 1 if failures else 0


def _flip(outputs):
    values = outputs["values"].copy()
    values.view(np.uint64)[0] ^= np.uint64(1)
    return dict(outputs, values=values)


if __name__ == "__main__":
    sys.exit(main())
