"""The sfpe benchmark: cold-process workloads, checked, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round of a workload runs in fresh
Python processes, since every `sfpe` command is one: rounds repeat until S
seconds have passed (at least one), and every metric is the median over the
rounds.  Set-up time is the median over seven cold set-ups: the rounds' own
and extra processes that only set up.  Where a workload samples in those
extra processes too (`sample_in_setup` in `models.py`), `sample_rate` uses
the median over all cold sampling stages of the run.  The outputs of the first round are
checked against references computed apart from the program (`checks.py`),
and every later round must reproduce them byte for byte; checking happens
in this process, outside every timed region.

With --trace 1, untraced and traced rounds alternate, the traced ones with
the layer wrappers of `layertrace.py` installed, and the per-layer metrics
are printed instead of the end-to-end ones.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import models  # noqa: E402

SETUP_SAMPLES = 7
PROCESS_TIMEOUT = 150.0
CLI_COMMANDS = ("predict", "simulate", "estimate", "verify", "dist-check")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sample_rate": "replicas/s",
    "estimate_rate": "sample.levels/s",
}

# (layer function, statistic, unit); `bytes` is the element count of save_batch
_LAYER_STATS = [
    ("dist.quantile", ("s", "self_s", "calls", "n")),
    ("dist.survival", ("s", "calls", "n")),
    ("dist.alpha_moment", ("s", "calls")),
    ("maps.draw_coeffs", ("s", "self_s", "calls", "minflt")),
    ("maps.apply_map", ("s", "minflt")),
    ("maps.elton_precheck", ("s",)),
    ("maps.f_plus", ("s",)),
    ("maps.f_minus", ("s",)),
    ("engine.sample_stationary_chain", ("s", "self_s", "calls", "n", "minflt", "sys_s")),
    ("engine.sample_perpetuity", ("s", "calls")),
    ("engine.conditional_tail", ("s", "self_s", "calls", "n")),
    ("engine.smoothed_tail", ("s", "self_s", "calls", "minflt")),
    ("engine.save_batch", ("s", "bytes")),
    ("engine.load_batch", ("s", "calls")),
    ("tailstats.default_grid", ("s",)),
    ("tailstats.smoothed_survival", ("s",)),
    ("tailstats.ecdf_survival", ("s",)),
    ("tailstats.ratio_curve", ("s",)),
    ("tailstats.plugin_moment", ("s",)),
    ("theory.predict", ("s",)),
    ("theory.ifs_constants", ("s",)),
    ("theory.convolution_tail", ("s", "calls")),
    ("theory.convolution_limit_check", ("s",)),
    ("theory.appendix_smallint_diagnostic", ("s",)),
    ("theory.product_convolution_check", ("s",)),
    ("theory.rv_uniformity_check", ("s",)),
    ("theory.salpha_check_dom", ("s",)),
] + [(f"cli.{c}", ("s", "minflt", "sys_s", "replicas_sampled")) for c in CLI_COMMANDS]
_UNITS = {"s": "s", "self_s": "s", "sys_s": "s", "bytes": "bytes"}
_HIGHER = {"engine.load_batch.calls"}  # reuse of a saved batch shows here


def per_layer_metrics():
    """[(name, unit, better)] in BENCHMARK.json order."""
    out = []
    for fn, stats in _LAYER_STATS:
        for st in stats:
            name = f"{fn}.{st}"
            out.append((name, _UNITS.get(st, "count"),
                        "higher" if name in _HIGHER else "lower"))
    out += [("trace.wall_s", "s", "lower"), ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Proc:
    """A finished child process: exit code, wall interval and its rusage
    (its own and that of the descendants it waited for)."""

    def __init__(self, cmd, log_path):
        self.start = time.monotonic()
        with open(log_path, "ab") as log:
            p = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT, p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        self.end = time.monotonic()
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.cpu = ru.ru_utime + ru.ru_stime
        self.sys = ru.ru_stime
        self.minflt = ru.ru_minflt
        self.rss_mb = ru.ru_maxrss / 1024.0
        if self.code not in (0, 4):
            with open(log_path, errors="replace") as fh:
                tail = fh.read()[-4000:]
            raise RuntimeError(f"{cmd} exited {self.code}:\n{tail}")


# --- library workloads: one process per round ------------------------------

class LibraryWorkload:
    def __init__(self, name, seed, tmp):
        self.name, self.seed, self.tmp = name, seed, tmp
        self.rounds = 0

    def _run(self, *flags):
        self.rounds += 1
        out = os.path.join(self.tmp, f"r{self.rounds}")
        os.mkdir(out)
        cmd = [sys.executable, os.path.join(HERE, "workload.py"), self.name, str(self.seed), out]
        cmd += list(flags)
        proc = Proc(cmd, os.path.join(out, "log.txt"))
        with open(os.path.join(out, "result.json")) as fh:
            res = json.load(fh)
        res["setup_s"] = res["setup_end"] - proc.start
        res["proc"], res["dir"] = proc, out
        return res

    def setup_only(self):
        """Set-up time, and the sampling-stage times if the workload samples
        in its set-up processes."""
        if models.WORKLOADS[self.name].get("sample_in_setup"):
            res = self._run("--sample-only")
            return res["setup_s"], [res["stages"]["sample"]]
        return self._run("--setup-only")["setup_s"], []

    def round(self, traced=False):
        res = self._run(*["--trace"] * traced)
        st, proc = res["stages"], res["proc"]
        metrics = {
            "wall_s": sum(st.values()),
            "cpu_s": proc.cpu,
            "peak_rss_mb": proc.rss_mb,
            "estimate_rate": res["replicas"] * res["levels"] / st["estimate"],
        }
        layers = None
        if traced:
            with open(os.path.join(res["dir"], "spans.json")) as fh:
                layers = layertrace.summarize(json.load(fh))
        return {"metrics": metrics, "setup": [res["setup_s"]], "ops": len(st),
                "replicas": res["replicas"], "sample_s": [st["sample"]],
                "outputs": dict(np.load(os.path.join(res["dir"], "outputs.npz"))),
                "layers": layers, "cli": {}}

    def check(self, outputs):
        spec = models.WORKLOADS[self.name]
        alpha, beta, x0 = models.LOG_PARETO
        e_w = checks.log_pareto_moment(1.0, alpha, beta, x0)
        values = outputs["values"]
        results = {}
        if spec["signed"]:
            law = checks.load_law("signed")
            p = spec["p_plus"]
            for side, key in ((+1, "right"), (-1, "left")):
                results[f"{key} tail vs exact"] = checks.tail_vs_exact(
                    values, outputs[f"{key}_t"], outputs[f"{key}_p"],
                    outputs[f"{key}_lo"], outputs[f"{key}_hi"], law, side)
            results["mean vs closed form"] = checks.mean_vs_closed_form(
                values, (2.0 * p - 1.0) * e_w, e_w, models.BURN_IN)
            results["plug-in D+-"] = checks.signed_constants(
                values, p, models.C_B, checks.log_pareto_moment(2.0, alpha, beta, x0),
                outputs["xi"], outputs["d"])
            results["elton precheck passed"] = (bool(outputs["elton_passed"]), "")
        else:
            law = checks.load_law("independent")
            results["right tail vs exact"] = checks.tail_vs_exact(
                values, outputs["right_t"], outputs["right_p"], outputs["right_lo"],
                outputs["right_hi"], law, +1)
            results["mean vs closed form"] = checks.mean_vs_closed_form(
                values, e_w, e_w, models.BURN_IN)
            results["ecdf vs smoothed"] = checks.ecdf_vs_smoothed(
                outputs["right_p"], outputs["right_lo"], outputs["right_hi"],
                outputs["ecdf_p"], outputs["ecdf_lo"], outputs["ecdf_hi"])
        return results

    @staticmethod
    def same(a, b):
        return a.keys() == b.keys() and all(
            a[k].tobytes() == b[k].tobytes() for k in a)


# --- cli_flow: one process per command ------------------------------------

class CliWorkload:
    def __init__(self, name, seed, tmp):
        self.seed, self.tmp = seed, tmp
        self.rounds = 0
        spec = models.WORKLOADS[name]
        self.n = spec["n"]
        self.workers = min(spec["workers"], len(os.sched_getaffinity(0)))

    def _configs(self, out):
        main_cfg = os.path.join(out, "exp.cfg")
        with open(main_cfg, "w") as fh:
            fh.write(models.CLI_CONFIG.format(
                n=self.n, seed=self.seed, workers=self.workers, out=os.path.join(out, "out")))
        poly_cfg = os.path.join(out, "poly.cfg")
        with open(poly_cfg, "w") as fh:
            fh.write(models.CLI_EXP_POLY_CONFIG.format(
                seed=self.seed, out=os.path.join(out, "poly")))
        return main_cfg, poly_cfg

    def _command(self, out, command, cfg, traced, tag):
        cmd = [sys.executable, os.path.join(HERE, "launch.py")]
        spans = os.path.join(out, f"spans_{tag}.json")
        if traced:
            cmd += ["--trace", spans]
        return Proc(cmd + [command, "--config", cfg], os.path.join(out, "log.txt")), spans

    def _new_dir(self):
        self.rounds += 1
        out = os.path.join(self.tmp, f"r{self.rounds}")
        os.mkdir(out)
        return out

    def setup_only(self):
        out = self._new_dir()
        main_cfg, _ = self._configs(out)
        return self._command(out, "predict", main_cfg, False, "predict")[0].wall, []

    def round(self, traced=False):
        out = self._new_dir()
        main_cfg, poly_cfg = self._configs(out)
        steps = [("predict", main_cfg), ("simulate", main_cfg), ("estimate", main_cfg),
                 ("verify", main_cfg), ("dist-check", main_cfg), ("dist-check", poly_cfg)]
        procs = []
        for i, (command, cfg) in enumerate(steps):
            procs.append((command,) + self._command(out, command, cfg, traced, i))
        outputs = {}
        for rel in ("out/predictions.csv", "out/estimate.csv", "out/verify.csv",
                    "out/dist_check.csv", "poly/dist_check.csv", "out/batch.bin"):
            with open(os.path.join(out, rel), "rb") as fh:
                outputs[rel] = fh.read()
        levels = outputs["out/estimate.csv"].count(b"\n") - 1
        by_cmd = {c: p for c, p, _ in procs[:4]}
        metrics = {
            "wall_s": procs[-1][1].end - by_cmd["simulate"].start,
            "cpu_s": sum(p.cpu for _, p, _ in procs),
            "peak_rss_mb": max(p.rss_mb for _, p, _ in procs),
            "estimate_rate": self.n * levels / by_cmd["estimate"].wall,
        }
        layers, cli = None, {}
        if traced:
            spans_all = []
            for command, proc, spans_path in procs:
                with open(spans_path) as fh:
                    spans = json.load(fh)
                rec = cli.setdefault(f"cli.{command}", dict.fromkeys(
                    ("s", "minflt", "sys_s", "replicas_sampled"), 0))
                rec["s"] += proc.wall
                rec["minflt"] += proc.minflt
                rec["sys_s"] += proc.sys
                rec["replicas_sampled"] += sum(
                    sp[4] for sp in spans if sp[0].startswith("engine.sample_"))
                base = len(spans_all)
                spans_all += [sp[:1] + [sp[1] + base if sp[1] >= 0 else -1] + sp[2:]
                              for sp in spans]
            layers = layertrace.summarize(spans_all)
        return {"metrics": metrics, "setup": [procs[0][1].wall], "ops": len(procs),
                "replicas": self.n, "sample_s": [by_cmd["simulate"].wall],
                "outputs": outputs, "layers": layers, "cli": cli}

    def check(self, outputs):
        alpha, beta, x0 = models.LOG_PARETO
        e_w = checks.log_pareto_moment(1.0, alpha, beta, x0)
        e_w2 = checks.log_pareto_moment(2.0, alpha, beta, x0)
        text = {k: v.decode() for k, v in outputs.items() if k.endswith(".csv")}
        values = checks.read_batch(outputs["out/batch.bin"])
        est = checks.read_csv(text["out/estimate.csv"])
        law = checks.load_law("independent")
        results = {
            "estimate.csv right tail vs exact": checks.tail_vs_exact(
                values, est["t"], est["p_hat"], est["ci_lo"], est["ci_hi"], law, +1),
            "batch.bin mean vs closed form": checks.mean_vs_closed_form(
                values, e_w, e_w, models.BURN_IN),
            "estimate.csv = verify.csv[:9]": checks.csv_prefix_equal(
                text["out/estimate.csv"], text["out/verify.csv"]),
        }
        pred = checks.read_predictions(text["out/predictions.csv"])
        mu, sigma = _config_moments()
        results["example d1, d2"] = checks.example_constants(
            pred["example_d1"], pred["example_d2"], mu, sigma)
        results["config mu, sigma = E[A], E[A^2]"] = (
            max(abs(mu - e_w) / e_w, abs(sigma - e_w2) / e_w2) <= checks.REL_EXACT,
            f"E[A] {e_w!r}, E[A^2] {e_w2!r}")
        results["dist-check product target 2 E[A^2]"] = checks.dist_check_targets(
            checks.read_dist_check(text["out/dist_check.csv"]),
            {"product.target": 2.0 * e_w2})
        results["dist-check convolution target 4e"] = checks.dist_check_targets(
            checks.read_dist_check(text["poly/dist_check.csv"]),
            {"convolution.target": 2.0 * checks.exp_poly_exp_moment(1.0, -2.0, 1.0, 1.0)})
        return results

    @staticmethod
    def same(a, b):
        return a == b


def _config_moments():
    fields = dict(line.split(" = ") for line in models.CLI_CONFIG.splitlines() if " = " in line)
    return float(fields["mu"]), float(fields["sigma"])


# --- one run ----------------------------------------------------------------

def _median(values):
    return float(statistics.median(values))


def run(workload, seed, seconds, trace):
    kind = CliWorkload if workload == "cli_flow" else LibraryWorkload
    tmp_root = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        wl = kind(workload, seed, tmp)
        # the set-up processes go first, so that no round is the first
        # process to read the interpreter and libraries from disk
        setup, sample_s = [], []
        for _ in range(SETUP_SAMPLES - 1):
            s, t = wl.setup_only()
            setup.append(s)
            sample_s += t
        ops = len(setup)
        deadline = time.monotonic() + seconds
        rounds = []
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append(wl.round(traced=traced))
            if time.monotonic() >= deadline and (not trace or len(rounds) >= 2):
                break
        setup += [s for r in rounds for s in r["setup"]]
        ops += sum(r["ops"] for r in rounds)
        results = wl.check(rounds[0]["outputs"])
        same = all(wl.same(rounds[0]["outputs"], r["outputs"]) for r in rounds[1:])
        results["rounds reproduce the outputs byte for byte"] = (same, f"{len(rounds)} rounds")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:  # another run is using it
            pass
    for name, (ok, detail) in results.items():
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})", file=sys.stderr)
    correct = all(ok for ok, _ in results.values())

    plain = [r for r in rounds if r["layers"] is None]
    if not trace:
        metrics = {k: _median([r["metrics"][k] for r in plain]) for k in END_TO_END
                   if k not in ("setup_s", "sample_rate")}
        metrics["setup_s"] = _median(setup)
        sample_s += [t for r in plain for t in r["sample_s"]]
        metrics["sample_rate"] = plain[0]["replicas"] / _median(sample_s)
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = _layer_metrics(rounds)
    return {"correct": bool(correct), "attempted": int(ops), "failed": 0, "metrics": metrics}


def _layer_metrics(rounds):
    traced = [r for r in rounds if r["layers"] is not None]
    plain = [r for r in rounds if r["layers"] is None]
    values = {}
    for name, unit, _ in per_layer_metrics():
        fn, stat = name.rsplit(".", 1)
        if fn == "trace":
            continue
        if stat == "bytes":
            stat = "n"
        src = "cli" if fn.startswith("cli.") else "layers"
        value = _median([r[src].get(fn, {}).get(stat, 0) for r in traced])
        values[name] = (int(round(value)) if unit in ("count", "bytes") else value, unit)
    wall_t = _median([r["metrics"]["wall_s"] for r in traced])
    wall_u = _median([r["metrics"]["wall_s"] for r in plain])
    values["trace.wall_s"] = (wall_t, "s")
    values["trace.untraced_wall_s"] = (wall_u, "s")
    values["trace.overhead_s"] = (wall_t - wall_u, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(models.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the workload seed in [0, 2^63) is a function of --seed alone
    seed = int(np.random.default_rng(abs(args.seed)).integers(0, 2**63))
    result = run(args.workload, seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
