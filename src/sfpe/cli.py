"""Config-driven experiment orchestration.

Commands:
  predict     closed-form constants for a named regime -> predictions.csv
  simulate    sample a stationary batch -> batch.bin (+ .cfg sidecar)
  estimate    empirical survival + ratio curve of batch.bin -> estimate.csv
  verify      predicted constant vs empirical ratio with CIs -> verify.csv
  dist-check  regular-variation / convolution-class diagnostics -> report

Configs are sectioned key=value files ([model], [sim], [analysis], [output])
whose keys are those of CONFIG_KEYS; the [sim] keys are the SimConfig fields,
with their defaults, plus workers.  Each value is read, and each unknown key
rejected, before a command starts.  Specs share the grammar of
dist.parse_spec: `name(key=value, ...)`, the keys in any order.
simulate alone samples; estimate and verify read the batch.bin it wrote to
the output directory, and a batch of another [model] or [sim] is a config error.
Exit codes: 0 ok, 2 config error, 3 precondition error (e.g. no batch), 4
assertion failure, 5 numeric failure (e.g. an unreadable batch).
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from . import csv_text, engine, tailstats, theory
from .dist import Constant, LogView, parse_model, parse_spec
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


# --- value readers: the text of a value -> its value, or ValueError --------

def _number(convert, low, high=math.inf, open_low=False):
    """Reader of a finite number in [low, high), or (low, high) if open_low."""

    def read(text):
        value = convert(text)
        above = low < value if open_low else low <= value
        if not (math.isfinite(value) and above and value < high):
            raise ValueError(f"must be finite and in {'(' if open_low else '['}{low}, {high})")
        return value

    return read


def _choice(options):
    """Reader of one of the keys of options, giving its value."""

    def read(text):
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return options[text]

    return read


def _dependence(text):
    """independent, equal or signed(p_plus=...), as CoeffLaw keywords."""
    if text in (INDEPENDENT, EQUAL):
        return {"dependence": text}
    name, kwargs = parse_spec(text, {SIGNED: {"p_plus": float}}, "dependence")
    return {"dependence": name, **kwargs}


_GRID_RULES = {
    "quantile": {
        "lo": _number(float, 0.0, 1.0, open_low=True),
        "hi_exceed": _number(int, 0),
        "points": _number(int, 1),
    }
}


def _t_grid(text):
    """A quantile(...) rule, whose keywords go to tailstats.default_grid, or a
    list of levels: a function of (batch, side) that gives the grid."""
    if "(" in text:
        rule = parse_spec(text, _GRID_RULES, "t_grid rule")[1]
        return lambda batch, side: tailstats.default_grid(batch, side=side, **rule)
    grid = np.array([float(x) for x in text.split(",")])
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)):
        raise ValueError("levels must be finite and strictly increasing")
    return lambda batch, side: grid


_DIST_CHECKS = ("uniformity", "product", "dom", "convex", "convolution", "smallint")


def _checks(text):
    return [_choice({c: c for c in _DIST_CHECKS})(name.strip()) for name in text.split(",")]


# section -> key -> reader; a key not listed here is a config error
CONFIG_KEYS = {
    "model": {
        "kind": str, "a": parse_model, "b": parse_model, "dependence": _dependence,
        "c_b": float, "c": parse_model, "c_c": float,
    },
    "sim": {**typing.get_type_hints(engine.SimConfig), "workers": _number(int, 1)},
    "analysis": {
        "regime": _choice({r: r for r in theory.REGIMES}),
        **{k: _number(float, -math.inf) for r in theory.REGIMES.values() for k in r.inputs},
        "alpha": _number(float, 0.0, open_low=True),
        "tolerance": _number(float, 0.0),
        "side": _choice({"right": +1, "left": -1}),
        "t_grid": _t_grid,
        "checks": _checks,
        "gamma": _number(float, -math.inf),
    },
    "output": {"dir": str},
}


class ExperimentConfig:
    """A config file read against CONFIG_KEYS: values[section][key] holds
    the value of each key given."""

    def __init__(self, path):
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        self.values = {section: {} for section in CONFIG_KEYS}
        for section in parser.sections():
            if section not in CONFIG_KEYS:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in CONFIG_KEYS[section]:
                    raise ConfigError(f"unknown key [{section}] {key}")
                try:
                    self.values[section][key] = CONFIG_KEYS[section][key](raw)
                except ValueError as exc:
                    raise ConfigError(f"[{section}] {key} = {raw}: {exc}") from None

    def get(self, section, key, default=MISSING):
        """The value of [section] key if given, else default; a config error
        if neither is."""
        value = self.values[section].get(key, default)
        if value is MISSING:
            raise ConfigError(f"missing [{section}] {key}")
        return value


def build_family(cfg: ExperimentConfig) -> MapFamily:
    """[model] as a MapFamily; a key not given takes the default of CoeffLaw
    or MapFamily, and b that of a.  dependence = equal takes neither b nor c_b."""
    model = cfg.values["model"]
    a = cfg.get("model", "a")

    def given(*keys):
        return {k: model[k] for k in keys if k in model}

    fixed = ", ".join(given("b", "c_b"))
    if fixed and model.get("dependence", {}).get("dependence") == EQUAL:
        # A = B pathwise fixes the law of B and c_b = 1; CoeffLaw would ignore them
        raise ConfigError(f"[model] {fixed}: not allowed with dependence = equal")
    try:
        coeff = CoeffLaw(a, model.get("b", a), **model.get("dependence", {}), **given("c_b"))
        return MapFamily(
            model.get("kind", AFFINE), coeff, marginal_c=model.get("c"), **given("c_c")
        )
    except ValueError as exc:
        raise ConfigError(f"[model] {exc}") from None


def _out_dir(cfg, args):
    return Path(args.out or cfg.get("output", "dir", "."))


def _out_file(cfg, args, name):
    """The path of the file name in the output directory, made if need be:
    only a command that writes makes it."""
    path = _out_dir(cfg, args)
    path.mkdir(parents=True, exist_ok=True)
    return path / name


def _sampling(cfg, args):
    """(family, SimConfig), checked together before any sampling.  Each
    SimConfig field is its [sim] key if given, else its default, and one
    with neither is a config error; --seed is over [sim] seed."""
    family = build_family(cfg)
    sim = cfg.values["sim"]
    kwargs = {f.name: sim.get(f.name, f.default) for f in fields(engine.SimConfig)}
    if args.seed is not None:
        kwargs.update(seed=args.seed)
    for key, value in kwargs.items():
        if value is MISSING:
            raise ConfigError(f"missing [sim] {key}")
    try:
        sim_cfg = engine.SimConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[sim] {exc}") from None
    if sim_cfg.method == engine.PERPETUITY and family.kind != AFFINE:
        raise ConfigError(f"[sim] method = perpetuity needs [model] kind = affine: {family.kind}")
    return family, sim_cfg


# --- commands ---------------------------------------------------------------

def cmd_predict(cfg, args):
    regime = cfg.get("analysis", "regime")
    inputs = {k: cfg.get("analysis", k) for k in theory.REGIMES[regime].inputs}
    preds = theory.predict(regime, **inputs)
    out = _out_file(cfg, args, "predictions.csv")
    out.write_text(theory.predictions_to_csv(preds))
    print(f"wrote {out}")
    for p in preds:
        print(f"{p.regime}: {p.constant!r} (reference tail: {p.reference})")
    return EXIT_OK


def cmd_simulate(cfg, args):
    family, sim_cfg = _sampling(cfg, args)
    workers = cfg.get("sim", "workers", 1)
    rng = engine._chunk_rng(sim_cfg.seed, 2**63)
    report = elton_precheck(family, 10000, rng)
    if not report.passed:
        print(
            f"stability precheck failed: E[log L] = {report.e_log_lip:.4f} "
            f"+- {report.se_log_lip:.4f}",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    if sim_cfg.method == engine.PERPETUITY:
        batch = engine.sample_perpetuity(family.coeff, sim_cfg, workers=workers)
    else:
        batch = engine.sample_stationary_chain(family, sim_cfg, workers=workers)
    batch.extra["model"] = repr(family)
    out = _out_file(cfg, args, "batch.bin")
    engine.save_batch(batch, out)
    print(f"wrote {out} ({batch.values.size} samples, method={batch.method})")
    return EXIT_OK


def _estimate_curves(cfg, args):
    """(family, batch, side, survival, ratio curve): the smoothed survival of
    the requested tail on the configured grid, or the empirical one where the
    family has no closed-form conditional tail, and its ratio to P[A > t],
    of the batch simulate wrote for this config, whatever its workers."""
    family, sim_cfg = _sampling(cfg, args)
    side = cfg.get("analysis", "side", +1)
    grid_for = cfg.get("analysis", "t_grid", _t_grid("quantile()"))
    path = _out_dir(cfg, args) / "batch.bin"
    if not path.is_file():
        raise theory.PreconditionError(f"no batch {path}: run `sfpe simulate` first")
    batch = engine.load_batch(path)
    if batch.config != sim_cfg:
        raise ConfigError(f"[sim] does not match {path}: run `sfpe simulate` again")
    if batch.extra.get("model") != repr(family):
        raise ConfigError(f"[model] does not match {path}: run `sfpe simulate` again")
    try:
        grid = grid_for(batch, side)
    except ValueError as exc:
        raise theory.PreconditionError(
            f"no usable tail on this side of the batch: {exc}"
        ) from None
    try:
        est = tailstats.smoothed_survival(
            batch, family.coeff, family.kind, grid, side=side
        )
    except NoClosedFormError:
        est = tailstats.ecdf_survival(batch, grid, side=side)
    curve = tailstats.ratio_curve(est, family.coeff.a_tail)
    return family, batch, side, est, curve


def cmd_estimate(cfg, args):
    *_, est, curve = _estimate_curves(cfg, args)
    out = _out_file(cfg, args, "estimate.csv")
    out.write_text(tailstats.estimate_to_csv(est, curve))
    print(f"wrote {out}")
    return EXIT_OK


def _predicted_constants(family, batch, alpha):
    """(D_plus, D_minus) from plug-in one-step functionals on the batch."""
    p = family.coeff.p_plus
    e_w_alpha = family.coeff.marginal_a.alpha_moment(alpha)
    # E[A_+^alpha] and E[A_-^alpha]: A < 0 has probability 1 - p, and at p = 1
    # E[A_-^alpha] is 0 even where E[W^alpha] is infinite
    mu_p = p * e_w_alpha
    mu_m = (1.0 - p) * e_w_alpha if p < 1.0 else 0.0
    # a functional that overflows is a numeric failure, not a bad config
    try:
        with np.errstate(over="ignore"):
            xi_p, _ = tailstats.plugin_moment(batch, lambda y: f_plus(family, y, alpha))
            xi_m, _ = tailstats.plugin_moment(batch, lambda y: f_minus(family, y, alpha))
    except NoClosedFormError:
        raise
    except ValueError as exc:
        raise ArithmeticError(f"plug-in one-step functional at alpha = {alpha}: {exc}") from None
    return theory.ifs_constants(mu_p, mu_m, xi_p, xi_m)


def cmd_verify(cfg, args):
    alpha = cfg.get("analysis", "alpha")
    tol = cfg.get("analysis", "tolerance", 0.25)
    family, batch, side, est, curve = _estimate_curves(cfg, args)
    d_plus, d_minus = _predicted_constants(family, batch, alpha)
    predicted = d_plus if side > 0 else d_minus
    try:
        final = tailstats.reliable_index(est)
    except ValueError as exc:
        raise theory.PreconditionError(
            f"no usable tail on this side of the batch: {exc}"
        ) from None

    ok_flags = np.abs(curve.ratio - predicted) <= tol * predicted
    rows = [row + [predicted, ok] for row, ok in zip(tailstats.estimate_rows(est, curve), ok_flags)]
    out = _out_file(cfg, args, "verify.csv")
    out.write_text(csv_text(tailstats.ESTIMATE_HEADER + ",predicted,pass", rows))
    print(
        f"predicted {predicted!r}; ratio at final reliable t={est.t_grid[final]:.4g}: "
        f"{curve.ratio[final]:.6g} "
        f"[{curve.ci_lo[final]:.6g}, {curve.ci_hi[final]:.6g}]"
    )
    print(f"wrote {out}")
    return EXIT_OK if ok_flags[final] else EXIT_ASSERTION


def cmd_dist_check(cfg, args):
    # the whole config is checked before the first check runs
    model = cfg.get("model", "a")
    alpha = cfg.get("analysis", "alpha")
    checks = cfg.get("analysis", "checks", ["uniformity", "product"])
    if "convex" in checks:
        gamma = cfg.get("analysis", "gamma")
    if isinstance(model, Constant):
        raise theory.PreconditionError("[model] a is a point mass, which has no tail to check")
    # the class checks run on the scale where the law's tail is studied
    scaled = LogView(model) if model.regularly_varying else model
    rows = []
    ok = True
    for check in checks:
        if check == "uniformity":
            rep = theory.rv_uniformity_check(model, alpha, 0.1, [1e2, 1e3, 1e4])
            values = {"sup_dev_final": rep.sup_dev[-1]}
        elif check == "product":
            rep = theory.product_convolution_check(model, alpha, [2, 4, 8, 15])
            values = {"final_ratio": rep.estimates[-1], "target": rep.target}
        elif check == "dom":
            rep = theory.salpha_check_dom(scaled, alpha)
            values = {"integral_increment": rep.integral_increment}
        elif check == "convex":
            rep = theory.salpha_check_convex(scaled, alpha, gamma)
            values = {"sup_dev_final": rep.sup_dev_final}
        elif check == "convolution":
            rep = theory.convolution_limit_check(scaled, alpha, [20, 40, 80, 160])
            values = {"final_ratio": rep.estimates[-1], "target": rep.target}
        else:  # smallint
            rep = theory.appendix_smallint_diagnostic(scaled, [1, 2, 4], [20, 40, 80, 160])
            values = {"final_integral": rep.integrals[-1][-1]}
        passed = rep.passed
        rows.extend([check, detail, value, passed] for detail, value in values.items())
        ok &= passed
    out = _out_file(cfg, args, "dist_check.csv")
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
        cfg = ExperimentConfig(args.config)
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
