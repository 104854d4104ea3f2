"""One round of a library workload in a fresh process.

    python3 perfbench/workload.py WORKLOAD SEED OUT_DIR [--trace] [--setup-only | --sample-only]

Builds the model, then runs the workload's stages and writes to OUT_DIR:
`result.json` (the monotonic clock at the end of set-up, the wall time of
each stage, sizes) and `outputs.npz` (the batch and every estimate, for the
checks that run later in the benchmark's parent process).  With `--trace`
the layer wrappers of `layertrace.py` are installed before set-up ends and the
spans go to `spans.json`.  With `--setup-only` the process stops after
set-up, and with `--sample-only` after the sampling stage.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from sfpe import engine, tailstats, theory  # noqa: E402
from sfpe.dist import LogPareto  # noqa: E402
from sfpe.maps import AFFINE, INDEPENDENT, SIGNED, CoeffLaw, MapFamily  # noqa: E402

import models  # noqa: E402


def build(workload, seed):
    spec = models.WORKLOADS[workload]
    lp = LogPareto(*models.LOG_PARETO)
    dep = SIGNED if spec["signed"] else INDEPENDENT
    coeff = CoeffLaw(lp, lp, dep, p_plus=spec.get("p_plus", 1.0), c_b=models.C_B)
    family = MapFamily(AFFINE, coeff)
    cfg = engine.SimConfig(n_samples=spec["n"], seed=seed, burn_in=models.BURN_IN)
    return family, cfg


def run_stages(workload, family, cfg, stamp):
    """The workload's stages; `stamp(name)` closes the stage that is open."""
    from sfpe.maps import elton_precheck, f_minus, f_plus

    coeff, kind = family.coeff, family.kind
    out = {}
    if workload == "chain_signed":
        rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 2**63]))
        rep = elton_precheck(family, 10_000, rng)
        out["elton_passed"] = np.array(rep.passed)
        stamp("precheck")
        batch = engine.sample_stationary_chain(family, cfg, workers=1)
        stamp("sample")
        neg = engine.SampleBatch(-batch.values, batch.method, batch.seed, batch.config)
        grid_r = tailstats.default_grid(batch)
        grid_l = tailstats.default_grid(neg)
        stamp("grid")
        right = tailstats.smoothed_survival(batch, coeff, kind, grid_r, side=+1)
        left = tailstats.smoothed_survival(batch, coeff, kind, grid_l, side=-1)
        stamp("estimate")
        curve_r = tailstats.ratio_curve(right, coeff.a_tail)
        curve_l = tailstats.ratio_curve(left, coeff.a_tail)
        alpha = models.LOG_PARETO[0]
        e_w = coeff.marginal_a.alpha_moment(alpha)
        mu_p, mu_m = coeff.p_plus * e_w, (1.0 - coeff.p_plus) * e_w
        xi_p, _ = tailstats.plugin_moment(batch, lambda y: f_plus(family, y, alpha))
        xi_m, _ = tailstats.plugin_moment(batch, lambda y: f_minus(family, y, alpha))
        d_p, d_m = theory.ifs_constants(mu_p, mu_m, xi_p, xi_m)
        stamp("constants")
        out.update(
            right_p=right.p_hat, right_lo=right.ci_lo, right_hi=right.ci_hi,
            right_t=right.t_grid, right_ratio=curve_r.ratio,
            left_p=left.p_hat, left_lo=left.ci_lo, left_hi=left.ci_hi,
            left_t=left.t_grid, left_ratio=curve_l.ratio,
            mu=np.array([mu_p, mu_m]), xi=np.array([xi_p, xi_m]),
            d=np.array([d_p, d_m]),
        )
        levels = grid_r.size + grid_l.size
    else:
        batch = engine.sample_stationary_chain(family, cfg, workers=1)
        stamp("sample")
        grid = tailstats.default_grid(batch)
        stamp("grid")
        right = tailstats.smoothed_survival(batch, coeff, kind, grid, side=+1)
        stamp("estimate")
        ecdf = tailstats.ecdf_survival(batch, grid)
        stamp("ecdf")
        out.update(
            right_p=right.p_hat, right_lo=right.ci_lo, right_hi=right.ci_hi,
            right_t=right.t_grid,
            ecdf_p=ecdf.p_hat, ecdf_lo=ecdf.ci_lo, ecdf_hi=ecdf.ci_hi,
        )
        levels = grid.size
    out["values"] = batch.values
    return out, levels


def main(argv):
    workload, seed, out_dir = argv[0], int(argv[1]), argv[2]
    tracer = None
    if "--trace" in argv:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    family, cfg = build(workload, seed)
    result = {"setup_end": time.monotonic(), "stages": {}}
    if "--sample-only" in argv:
        t0 = time.perf_counter()
        engine.sample_stationary_chain(family, cfg, workers=1)
        result["stages"]["sample"] = time.perf_counter() - t0
    elif "--setup-only" not in argv:
        last = [time.perf_counter()]

        def stamp(name):
            now = time.perf_counter()
            result["stages"][name] = now - last[0]
            last[0] = now

        outputs, levels = run_stages(workload, family, cfg, stamp)
        result.update(replicas=cfg.n_samples, levels=levels)
        np.savez(os.path.join(out_dir, "outputs.npz"), **outputs)
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, "spans.json"))
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
