"""Config-driven experiment orchestration.

Commands:
  predict     closed-form constants for a named regime -> predictions.csv
  simulate    sample a stationary batch -> batch.bin (+ .cfg sidecar)
  estimate    empirical survival + ratio curve -> estimate.csv
  verify      predicted constant vs empirical ratio with CIs -> verify.csv
  dist-check  regular-variation / convolution-class diagnostics -> report

Configs are sectioned key=value files ([model], [sim], [analysis], [output]).
Exit codes: 0 ok, 2 config error, 3 precondition error, 4 assertion failure,
5 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import re
import sys
from pathlib import Path

import numpy as np

from . import csv_text, engine, tailstats, theory
from .dist import parse_model
from .maps import (
    AFFINE,
    EQUAL,
    INDEPENDENT,
    SIGNED,
    CoeffLaw,
    MapFamily,
    NoClosedFormError,
    elton_precheck,
    f_minus,
    f_plus,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_ASSERTION = 4
EXIT_NUMERIC = 5


class ConfigError(ValueError):
    pass


_SIGNED_RE = re.compile(r"^signed\(\s*p_plus\s*=\s*([0-9.eE+-]+)\s*\)$")
_GRID_RE = re.compile(
    r"^quantile\(\s*lo\s*=\s*([0-9.eE+-]+)\s*,\s*hi_exceed\s*=\s*(\d+)\s*,"
    r"\s*points\s*=\s*(\d+)\s*\)$"
)


class ExperimentConfig:
    """Typed view over a sectioned key=value config file; re-emitting and
    re-parsing yields an identical config."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser

    @classmethod
    def load(cls, path):
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return cls(parser)

    def dump(self, fh):
        self.parser.write(fh)

    def get(self, section, key, default=None, required=False):
        try:
            return self.parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if required:
                raise ConfigError(f"missing [{section}] {key}") from None
            return default

    def get_float(self, section, key, default=None, required=False):
        return self._get_as(float, "a real number", section, key, default, required)

    def get_int(self, section, key, default=None, required=False):
        return self._get_as(int, "an integer", section, key, default, required)

    def _get_as(self, convert, what, section, key, default, required):
        raw = self.get(section, key, required=required)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be {what}") from None


def _parse_dependence(text):
    text = text.strip()
    if text in (INDEPENDENT, EQUAL):
        return text, 1.0
    m = _SIGNED_RE.match(text)
    if m:
        return SIGNED, float(m.group(1))
    raise ConfigError(f"bad dependence spec {text!r}")


def build_family(cfg: ExperimentConfig) -> MapFamily:
    kind = cfg.get("model", "kind", default=AFFINE)
    try:
        a = parse_model(cfg.get("model", "a", required=True))
        dep, p_plus = _parse_dependence(cfg.get("model", "dependence", default=INDEPENDENT))
        b_raw = cfg.get("model", "b")
        b = parse_model(b_raw) if b_raw else a
        coeff = CoeffLaw(
            a, b, dep, p_plus=p_plus, c_b=cfg.get_float("model", "c_b", default=0.0)
        )
        c_raw = cfg.get("model", "c")
        return MapFamily(
            kind,
            coeff,
            b_lower=cfg.get_float("model", "b_lower", default=0.0),
            marginal_c=parse_model(c_raw) if c_raw else None,
            c_c=cfg.get_float("model", "c_c", default=0.0),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_sim_config(cfg: ExperimentConfig, seed_override=None) -> engine.SimConfig:
    seed = seed_override if seed_override is not None else cfg.get_int("sim", "seed", default=0)
    try:
        return engine.SimConfig(
            n_samples=cfg.get_int("sim", "n_samples", required=True),
            seed=seed,
            burn_in=cfg.get_int("sim", "burn_in", default=64),
            chunk_size=cfg.get_int("sim", "chunk_size", default=1 << 16),
            method=cfg.get("sim", "method", default=engine.CHAIN),
            truncation_eps=cfg.get_float("sim", "truncation_eps", default=1e-3),
            x_init=cfg.get_float("sim", "x_init", default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_side(cfg: ExperimentConfig):
    """[analysis] side: +1 for the right tail P[X > t], -1 for the left tail
    P[X < -t]."""
    side = cfg.get("analysis", "side", default="right").strip()
    if side not in ("right", "left"):
        raise ConfigError(f"[analysis] side must be right or left, not {side!r}")
    return +1 if side == "right" else -1


def _grid_rule(cfg: ExperimentConfig):
    """[analysis] t_grid, checked before any sampling: a function of
    (batch, side) that returns the grid."""
    rule = cfg.get("analysis", "t_grid", default="quantile(lo=0.99, hi_exceed=300, points=20)")
    m = _GRID_RE.match(rule.strip())
    if m:
        try:
            lo = float(m.group(1))
        except ValueError:
            raise ConfigError(f"bad t_grid rule {rule!r}") from None
        hi_exceed, points = int(m.group(2)), int(m.group(3))
        if not (0.0 < lo < 1.0 and points >= 1):
            raise ConfigError(f"t_grid rule {rule!r} needs 0 < lo < 1 and points >= 1")

        def quantile_grid(batch, side):
            try:
                return tailstats.default_grid(batch, lo, hi_exceed, points, side=side)
            except ValueError as exc:
                raise theory.PreconditionError(
                    f"no usable tail on this side of the batch: {exc}"
                ) from None

        return quantile_grid
    try:
        grid = np.array([float(x) for x in rule.split(",")])
    except ValueError:
        raise ConfigError(f"bad t_grid rule {rule!r}") from None
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)):
        raise ConfigError(f"t_grid {rule!r} must be finite and strictly increasing")
    return lambda batch, side: grid


def _out_dir(cfg, args):
    out = args.out or cfg.get("output", "dir", default=".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _workers(cfg: ExperimentConfig):
    workers = cfg.get_int("sim", "workers", default=1)
    if workers < 1:
        raise ConfigError("[sim] workers must be >= 1")
    return workers


def _run_batch(family, sim_cfg, workers):
    if sim_cfg.method == engine.PERPETUITY:
        return engine.sample_perpetuity(family.coeff, sim_cfg, workers=workers)
    return engine.sample_stationary_chain(family, sim_cfg, workers=workers)


# --- commands ---------------------------------------------------------------

def cmd_predict(cfg, args):
    regime = cfg.get("analysis", "regime", required=True)
    if regime not in theory.REGIMES:
        raise ConfigError(f"unknown regime {regime!r}")
    inputs = {
        k: cfg.get_float("analysis", k, required=True)
        for k in theory.REGIMES[regime].inputs
    }
    preds = theory.predict(regime, **inputs)
    out = _out_dir(cfg, args) / "predictions.csv"
    out.write_text(theory.predictions_to_csv(preds))
    print(f"wrote {out}")
    for p in preds:
        print(f"{p.regime}: {p.constant!r} (reference tail: {p.reference})")
    return EXIT_OK


def cmd_simulate(cfg, args):
    family = build_family(cfg)
    sim_cfg = build_sim_config(cfg, args.seed)
    workers = _workers(cfg)
    rng = engine._chunk_rng(sim_cfg.seed, 2**63)
    report = elton_precheck(family, 10000, rng)
    if not report.passed:
        print(
            f"stability precheck failed: E[log L] = {report.e_log_lip:.4f} "
            f"+- {report.se_log_lip:.4f}",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    batch = _run_batch(family, sim_cfg, workers)
    out = _out_dir(cfg, args) / "batch.bin"
    engine.save_batch(batch, out)
    print(f"wrote {out} ({batch.values.size} samples, method={batch.method})")
    return EXIT_OK


def _estimate_curves(cfg, family, sim_cfg, side):
    """Smoothed survival of the requested tail on the configured grid, or
    the empirical one where the family has no closed-form conditional tail;
    and its ratio curve against P[A > t]."""
    grid_for = _grid_rule(cfg)
    batch = _run_batch(family, sim_cfg, _workers(cfg))
    grid = grid_for(batch, side)
    try:
        est = tailstats.smoothed_survival(
            batch, family.coeff, family.kind, grid, side=side
        )
    except NoClosedFormError:
        est = tailstats.ecdf_survival(batch, grid, side=side)
    curve = tailstats.ratio_curve(est, family.coeff.a_tail)
    return batch, est, curve


def cmd_estimate(cfg, args):
    family = build_family(cfg)
    sim_cfg = build_sim_config(cfg, args.seed)
    _, est, curve = _estimate_curves(cfg, family, sim_cfg, _parse_side(cfg))
    out = _out_dir(cfg, args) / "estimate.csv"
    out.write_text(tailstats.estimate_to_csv(est, curve))
    print(f"wrote {out}")
    return EXIT_OK


def _predicted_constants(cfg, family, batch, alpha):
    """(D_plus, D_minus) from plug-in one-step functionals on the batch."""
    coeff = family.coeff
    e_w_alpha = coeff.marginal_a.alpha_moment(alpha)
    if coeff.dependence == SIGNED:
        mu_p = coeff.p_plus * e_w_alpha
        mu_m = (1.0 - coeff.p_plus) * e_w_alpha
    else:
        mu_p, mu_m = e_w_alpha, 0.0
    xi_p, _ = tailstats.plugin_moment(batch, lambda y: f_plus(family, y, alpha))
    xi_m, _ = tailstats.plugin_moment(batch, lambda y: f_minus(family, y, alpha))
    return theory.ifs_constants(mu_p, mu_m, xi_p, xi_m)


def cmd_verify(cfg, args):
    family = build_family(cfg)
    sim_cfg = build_sim_config(cfg, args.seed)
    alpha = cfg.get_float("analysis", "alpha", required=True)
    tol = cfg.get_float("analysis", "tolerance", default=0.25)
    side = _parse_side(cfg)
    batch, est, curve = _estimate_curves(cfg, family, sim_cfg, side)
    d_plus, d_minus = _predicted_constants(cfg, family, batch, alpha)
    predicted = d_plus if side > 0 else d_minus
    try:
        final = tailstats.reliable_index(est)
    except ValueError as exc:
        raise theory.PreconditionError(
            f"no usable tail on this side of the batch: {exc}"
        ) from None

    ok_flags = np.abs(curve.ratio - predicted) <= tol * predicted
    rows = [row + [predicted, ok] for row, ok in zip(tailstats.estimate_rows(est, curve), ok_flags)]
    out = _out_dir(cfg, args) / "verify.csv"
    out.write_text(csv_text(tailstats.ESTIMATE_HEADER + ",predicted,pass", rows))
    print(
        f"predicted {predicted!r}; ratio at final reliable t={est.t_grid[final]:.4g}: "
        f"{curve.ratio[final]:.6g} "
        f"[{curve.ci_lo[final]:.6g}, {curve.ci_hi[final]:.6g}]"
    )
    print(f"wrote {out}")
    return EXIT_OK if ok_flags[final] else EXIT_ASSERTION


_DIST_CHECKS = ("uniformity", "product", "dom", "convex", "convolution", "smallint")


def cmd_dist_check(cfg, args):
    model = parse_model(cfg.get("model", "a", required=True))
    alpha = cfg.get_float("analysis", "alpha", required=True)
    checks = [
        s.strip()
        for s in cfg.get("analysis", "checks", default="uniformity,product").split(",")
    ]
    # the whole config is checked before the first check runs
    for check in checks:
        if check not in _DIST_CHECKS:
            raise ConfigError(f"unknown check {check!r}")
    if "product" in checks:
        n_mc = cfg.get_int("analysis", "n_products", default=1_000_000)
        if n_mc < 2:
            raise ConfigError("[analysis] n_products must be >= 2")
    if "convex" in checks:
        gamma = cfg.get_float("analysis", "gamma", required=True)
    seed = args.seed if args.seed is not None else cfg.get_int("sim", "seed", default=0)
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be in [0, 2**64)")
    rng = np.random.default_rng(seed)
    rows = []
    ok = True
    for check in checks:
        if check == "uniformity":
            rep = theory.rv_uniformity_check(model, alpha, 0.1, [1e2, 1e3, 1e4])
            passed = rep.strictly_decreasing or rep.sup_dev[-1] < 1e-12
            values = {"sup_dev_final": rep.sup_dev[-1]}
        elif check == "product":
            rep = theory.product_convolution_check(model, alpha, [2, 4, 8, 15], n_mc, rng)
            passed, values = rep.passed, {"final_ratio": rep.estimates[-1], "target": rep.target}
        elif check == "dom":
            rep = theory.salpha_check_dom(model, alpha)
            passed, values = rep.passed, {"integral_increment": rep.integral_increment}
        elif check == "convex":
            rep = theory.salpha_check_convex(model, alpha, gamma)
            passed, values = rep.passed, {"sup_dev_final": rep.sup_dev_final}
        elif check == "convolution":
            rep = theory.convolution_limit_check(
                model, model, model, 1.0, 1.0, alpha, [20, 40, 80, 160]
            )
            passed, values = rep.passed, {"final_ratio": rep.estimates[-1], "target": rep.target}
        else:  # smallint
            mat, _, passed = theory.appendix_smallint_diagnostic(
                model, alpha, [1, 2, 4], [20, 40, 80, 160]
            )
            values = {"v_monotone": mat[-1][-1]}
        rows.extend([check, detail, value, passed] for detail, value in values.items())
        ok &= passed
    out = _out_dir(cfg, args) / "dist_check.csv"
    out.write_text(csv_text("check,detail,value,pass", rows))
    print(f"wrote {out}")
    return EXIT_OK if ok else EXIT_ASSERTION


_COMMANDS = {
    "predict": cmd_predict,
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "dist-check": cmd_dist_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sfpe", description="Tail asymptotics of iterated random maps."
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override [sim] seed")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, configparser.Error) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (theory.PreconditionError, NoClosedFormError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ArithmeticError, engine.EngineError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
