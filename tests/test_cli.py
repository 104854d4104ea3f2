import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sfpe import engine, theory
from sfpe.cli import (
    CONFIG_KEYS,
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PRECONDITION,
    ExperimentConfig,
    main,
)
from sfpe.dist import ExpPoly, LogPareto, TailModel

A_LINE = "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)"
B_LINE = "b = log_pareto(alpha=2.0, beta=3.0, x0=0.4)\n"
EXAMPLE = "regime = example\nmu = 0.5\nsigma = 0.45"
BASE_CONFIG = """\
[model]
kind = affine
a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)
b = log_pareto(alpha=2.0, beta=3.0, x0=0.4)
dependence = independent
c_b = 1.0

[sim]
method = chain
n_samples = 50000
seed = 42
workers = 1

[analysis]
alpha = 2.0
regime = example
mu = 0.5
sigma = 0.45

[output]
dir = {out}
"""


@pytest.fixture
def config_file(tmp_path):
    def write(text=None, **fmt):
        fmt.setdefault("out", str(tmp_path / "out"))
        path = tmp_path / "exp.cfg"
        path.write_text((text or BASE_CONFIG).format(**fmt))
        return str(path)

    return write


def _forbid_sampling(monkeypatch):
    """From here on, fails a test that reaches the stability precheck or a sampler."""

    def fail(*args, **kwargs):
        raise AssertionError("sampled outside simulate, or before the config was checked")

    for name in ("sample_stationary_chain", "sample_perpetuity"):
        monkeypatch.setattr(engine, name, fail)
    monkeypatch.setattr("sfpe.cli.elton_precheck", fail)


@pytest.fixture
def no_sampling(monkeypatch):
    _forbid_sampling(monkeypatch)


def _simulate(path, *flags):
    """Writes the batch that estimate and verify then read from the output directory."""
    assert main(["simulate", "--config", path, *flags]) == EXIT_OK


def _config_error(path, commands, named, capsys, *flags):
    """Each command exits 2 with a message that names [section] key."""
    for command in commands:
        assert main([command, "--config", path, *flags]) == EXIT_CONFIG, command
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err, (command, err)


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the lazy numpy submodules a run uses are
    # loaded at import, in set-up, not in the first stage that draws or smooths
    code = (
        "import sys, sfpe.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], "
        "'numpy.random' in sys.modules and 'numpy.polynomial' in sys.modules)"
    )
    path = (str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "True"]


class TestConfig:
    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["predict", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_bad_value_is_config_error(self, config_file, capsys, no_sampling):
        sampling = ("simulate", "estimate", "verify")
        cases = [
            ("n_samples = 50000", "n_samples = many", "[sim] n_samples", sampling),
            ("n_samples = 50000\n", "", "missing [sim] n_samples", sampling),
            ("method = chain", "chunk_size = 0", "[sim] chunk_size", sampling),
            ("method = chain", "method = smoothed", "[sim] unknown method", sampling),
            # a non-finite start is a config error, not a numeric failure at step 0
            ("method = chain", "method = chain\nx_init = nan", "[sim] x_init", sampling),
            ("method = chain", "method = chain\nx_init = inf", "[sim] x_init", sampling),
            ("sigma = 0.45", "sigma = 0.45\nside = rght", "[analysis] side", sampling),
            ("alpha = 2.0", "alpha = -1.0", "[analysis] alpha", ("verify", "dist-check")),
            ("alpha = 2.0", "alpha = nan", "[analysis] alpha", ("verify", "dist-check")),
            ("sigma = 0.45", "sigma = 0.45\ntolerance = -1", "[analysis] tolerance", ("verify",)),
            ("sigma = 0.45", "sigma = 0.45\ntolerance = nan", "[analysis] tolerance", ("verify",)),
            # A = B fixes the law of B and c_b
            ("dependence = independent", "dependence = equal", "[model] b, c_b", sampling),
            (B_LINE + "dependence = independent", "dependence = equal", "[model] c_b", sampling),
            ("dependence = independent\nc_b = 1.0", "dependence = equal", "[model] b", sampling),
            # only sqrt_log has a third coefficient C
            ("c_b = 1.0", "c_b = 1.0\nc = constant(c=5.0)", "[model] c, c_c", sampling),
            ("c_b = 1.0", "c_b = 1.0\nc_c = 3.0", "[model] c, c_c", sampling),
            # the tail constants are finite
            ("c_b = 1.0", "c_b = nan", "[model] c_b", sampling),
            ("c_b = 1.0", "c_b = inf", "[model] c_b", sampling),
            ("kind = affine", "kind = sqrt_log\nc = constant(c=5.0)\nc_c = nan", "[model] c_c", sampling),
            ("kind = affine", "kind = sqrt_log\nc = constant(c=5.0)\nc_c = inf", "[model] c_c", sampling),
            # the regime inputs and gamma are finite
            (
                EXAMPLE, "regime = ifs\nmu_plus = 0.5\nmu_minus = 0\nxi_plus = nan\nxi_minus = 0",
                "[analysis] xi_plus", ("predict",),
            ),
            (
                EXAMPLE, "regime = ifs\nmu_plus = 0.3\nmu_minus = nan\nxi_plus = 1.0\nxi_minus = 1.0",
                "[analysis] mu_minus", ("predict",),
            ),
            (EXAMPLE, "regime = grey\ne_a_alpha = inf", "[analysis] e_a_alpha", ("predict",)),
            ("alpha = 2.0", "alpha = 2.0\nchecks = convex\ngamma = nan", "[analysis] gamma", ("dist-check",)),
        ]
        # so are the parameters of every family
        for model in (
            "pareto(alpha=inf, x0=1.0)",
            "pareto(alpha=2.0, x0=inf)",
            "log_pareto(alpha=2.0, beta=inf, x0=0.4)",
            "exp_poly(alpha=1.0, p=-inf, t0=1.0)",
            "exp_stretched(alpha=1.0, beta=inf, gamma=0.5, t0=1.0)",
            "constant(c=nan)",
            "constant(c=inf)",
        ):
            cases.append((A_LINE, f"a = {model}", "[model] a", ("simulate", "dist-check")))
        for grid in (
            "5,3", "nan,2", "2,inf",
            # the smoothed tail holds for levels t > 0 only
            "-1,2,3", "0,1,2",
            "quantile(lo=-0.5, hi_exceed=300, points=20)",
            "quantile(lo=0.99, hi_exceed=300, points=0)",
            "quantile(lo=1.5, hi_exceed=300, points=20)",
            "quantile(lo=0.99, hi_exceed=-1, points=20)",
            "quantile(lo=0.99, lo=0.9)",
            "quantile(low=0.99)",
            "geometric(lo=0.99)",
        ):
            cases.append(
                ("sigma = 0.45", f"sigma = 0.45\nt_grid = {grid}", "[analysis] t_grid", ("estimate", "verify"))
            )
        for old, new, named, commands in cases:
            path = config_file(BASE_CONFIG.replace(old, new))
            _config_error(path, commands, named, capsys)
        _config_error(config_file(), ("simulate",), "[sim] seed", capsys, "--seed", "-1")

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("dependence = independent", "depedence = signed(p_plus=0.75)", "[model] depedence"),
            ("sigma = 0.45", "sigma = 0.45\nsid = left", "[analysis] sid"),
            ("n_samples = 50000", "n_samples = 50000\nburnin = 4", "[sim] burnin"),
            ("[output]", "[outptu]", "[outptu]"),
            # no output depended on it: the bound of B is B's own law
            ("c_b = 1.0", "c_b = 1.0\nb_lower = 0.5", "[model] b_lower"),
            # the product check draws nothing: it is the convolution kernel on log A
            ("alpha = 2.0", "alpha = 2.0\nn_products = 1000000", "[analysis] n_products"),
            # inputs of the kevei and indep regimes, now ifs inputs
            ("sigma = 0.45", "sigma = 0.45\ne_x_alpha = 1.0", "[analysis] e_x_alpha"),
            ("sigma = 0.45", "sigma = 0.45\ne_xplus_alpha = 1.0", "[analysis] e_xplus_alpha"),
            ("sigma = 0.45", "sigma = 0.45\nc_b = 1.0", "[analysis] c_b"),
        ],
    )
    def test_unknown_key_is_config_error(self, config_file, capsys, no_sampling, old, new, named):
        path = config_file(BASE_CONFIG.replace(old, new))
        _config_error(path, ("predict", "simulate", "estimate", "verify", "dist-check"), named, capsys)

    def test_perpetuity_needs_affine_map(self, config_file, capsys, no_sampling):
        text = BASE_CONFIG.replace("kind = affine", "kind = max_affine").replace(
            "method = chain", "method = perpetuity"
        )
        _config_error(config_file(text), ("simulate", "estimate", "verify"), "[sim] method", capsys)

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", readme, re.MULTILINE)
        assert len(rows) == len(set(rows))
        assert set(rows) == {(s, k) for s, keys in CONFIG_KEYS.items() for k in keys}


class TestBenchmarkNames:
    def test_traced_layers_exist(self):
        # perfbench/layertrace.py wraps these by name; a rename should fail here
        tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "layertrace.py").read_text())
        names = {
            target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and target.id in ("LAYERS", "DIST_METHODS")
        }
        for module, functions in names["LAYERS"].items():
            mod = importlib.import_module(f"sfpe.{module}")
            for name in functions:
                assert callable(getattr(mod, name, None)), f"sfpe.{module}.{name}"
        for name in names["DIST_METHODS"]:
            assert callable(getattr(TailModel, name, None)), f"TailModel.{name}"


class TestBenchmarkConfigs:
    def test_configs_read_and_predict(self, tmp_path):
        # perfbench/models.py runs these configs through the CLI; a regime or
        # key removed from CONFIG_KEYS should fail here, not in the benchmark
        spec = importlib.util.spec_from_file_location(
            "perfbench_models", Path(__file__).parents[1] / "perfbench" / "models.py"
        )
        models = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(models)
        for name in ("CLI_CONFIG", "CLI_EXP_POLY_CONFIG"):
            path = tmp_path / f"{name}.cfg"
            path.write_text(
                getattr(models, name).format(n=1000, seed=1, workers=1, out=tmp_path / "out")
            )
            ExperimentConfig(str(path))
        assert main(["predict", "--config", str(tmp_path / "CLI_CONFIG.cfg")]) == EXIT_OK
        assert (tmp_path / "out" / "predictions.csv").is_file()


class TestPredict:
    def test_example_regime(self, config_file, tmp_path, capsys):
        assert main(["predict", "--config", config_file()]) == EXIT_OK
        rows = (tmp_path / "out" / "predictions.csv").read_text().strip().split("\n")
        assert rows[0] == "regime,constant,reference,inputs_json"
        d1 = float(rows[1].split(",")[1])
        assert d1 == pytest.approx(4.958677685950413)

    def test_ifs_regime(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "regime = example\nmu = 0.5\nsigma = 0.45",
            "regime = ifs\nmu_plus = 0.3\nmu_minus = 0.2\nxi_plus = 1\nxi_minus = 0",
        )
        assert main(["predict", "--config", config_file(text)]) == EXIT_OK
        rows = (tmp_path / "out" / "predictions.csv").read_text().strip().split("\n")
        assert float(rows[1].split(",")[1]) == pytest.approx(0.7 / 0.45)
        assert float(rows[2].split(",")[1]) == pytest.approx(0.2 / 0.45)

    def test_affine_regime(self, config_file, tmp_path):
        # a one-sided constant xi_+ / (1 - mu_+) is the ifs regime with mu_- = xi_- = 0
        text = BASE_CONFIG.replace(
            EXAMPLE, "regime = ifs\nxi_plus = 2\nmu_plus = 0.5\nmu_minus = 0\nxi_minus = 0"
        )
        assert main(["predict", "--config", config_file(text)]) == EXIT_OK
        rows = (tmp_path / "out" / "predictions.csv").read_text().strip().split("\n")
        assert [float(row.split(",")[1]) for row in rows[1:]] == [4.0, 0.0]

    def test_grey_regime(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(EXAMPLE, "regime = grey\ne_a_alpha = 0.5")
        assert main(["predict", "--config", config_file(text)]) == EXIT_OK
        rows = (tmp_path / "out" / "predictions.csv").read_text().strip().split("\n")
        assert rows[1].split(",")[:3] == ["grey", "2.0", "B"]

    def test_negative_functional_is_precondition(self, config_file, tmp_path, capsys):
        text = BASE_CONFIG.replace(
            EXAMPLE, "regime = ifs\nmu_plus = 0.3\nmu_minus = 0.2\nxi_plus = -1.0\nxi_minus = 0"
        )
        assert main(["predict", "--config", config_file(text)]) == EXIT_PRECONDITION
        assert "xi_+ and xi_- must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "predictions.csv").exists()

    def test_unknown_regime(self, config_file, capsys):
        # kevei, affine and indep are the ifs regime with mu_- = xi_- = 0
        for regime in ("kesten", "kevei", "affine", "indep"):
            text = BASE_CONFIG.replace("regime = example", f"regime = {regime}")
            _config_error(config_file(text), ("predict",), "[analysis] regime", capsys)


class TestSimulate:
    def test_deterministic_constant_chain(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "a = constant(c=0.5)"
        ).replace(
            "b = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "b = constant(c=1.0)"
        ).replace("n_samples = 50000", "n_samples = 100\nburn_in = 4")
        assert main(["simulate", "--config", config_file(text)]) == EXIT_OK
        from sfpe.engine import load_batch

        batch = load_batch(tmp_path / "out" / "batch.bin")
        assert np.all(batch.values == 1.875)

    def test_worker_count_invariance(self, config_file, tmp_path):
        path1 = config_file()
        assert main(["simulate", "--config", path1, "--out", str(tmp_path / "w1")]) == EXIT_OK
        text = BASE_CONFIG.replace("workers = 1", "workers = 4")
        path4 = config_file(text)
        assert main(["simulate", "--config", path4, "--out", str(tmp_path / "w4")]) == EXIT_OK
        b1 = (tmp_path / "w1" / "batch.bin").read_bytes()
        b4 = (tmp_path / "w4" / "batch.bin").read_bytes()
        assert b1 == b4

    def test_seed_override(self, config_file, tmp_path):
        path = config_file()
        main(["simulate", "--config", path, "--out", str(tmp_path / "s1"), "--seed", "1"])
        main(["simulate", "--config", path, "--out", str(tmp_path / "s2"), "--seed", "2"])
        assert (
            (tmp_path / "s1" / "batch.bin").read_bytes()
            != (tmp_path / "s2" / "batch.bin").read_bytes()
        )

    def test_perpetuity_with_negative_constant_b(self, config_file, tmp_path):
        # the remainder bound needs only E|B| = 1
        text = BASE_CONFIG.replace(
            B_LINE, "b = constant(c=-1.0)\n"
        ).replace("method = chain", "method = perpetuity")
        assert main(["simulate", "--config", config_file(text)]) == EXIT_OK
        batch = engine.load_batch(tmp_path / "out" / "batch.bin")
        # the fewest K with E|A|^K E|B| / (1 - E|A|) below truncation_eps = 1e-3
        mu = LogPareto(2.0, 3.0, 0.4).alpha_moment(1.0)
        k = math.floor(math.log(1e-3 * (1.0 - mu)) / math.log(mu)) + 1
        assert batch.extra["n_terms"] == k == 12

    def test_unstable_map_precondition(self, config_file):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "a = constant(c=2.0)"
        )
        assert main(["simulate", "--config", config_file(text)]) == EXIT_PRECONDITION


class TestEstimate:
    def test_writes_exact_columns(self, config_file, tmp_path, monkeypatch):
        path = config_file()
        _simulate(path)
        _forbid_sampling(monkeypatch)
        assert main(["estimate", "--config", path]) == EXIT_OK
        rows = (tmp_path / "out" / "estimate.csv").read_text().strip().split("\n")
        assert rows[0] == "t,p_hat,ci_lo,ci_hi,n_exceed,ref_tail,ratio,ratio_ci_lo,ratio_ci_hi"
        assert len(rows) == 21  # default 20-point grid

    def test_grid_rule_keys_in_any_order(self, config_file, tmp_path):
        # the spelled-out default rule, its keys reordered, gives the same bytes
        text = BASE_CONFIG.replace(
            "sigma = 0.45", "sigma = 0.45\nt_grid = quantile(points=20, lo=0.99, hi_exceed=300)"
        )
        out = tmp_path / "out" / "estimate.csv"
        _simulate(config_file())
        assert main(["estimate", "--config", config_file()]) == EXIT_OK
        default = out.read_bytes()
        assert main(["estimate", "--config", config_file(text)]) == EXIT_OK
        assert out.read_bytes() == default

    def test_batch_of_any_worker_count(self, config_file, tmp_path, monkeypatch):
        # workers is not compared: a batch from 4 workers is read under 1
        text = BASE_CONFIG.replace("workers = 1", "chunk_size = 20000\nworkers = 1")
        four = config_file(text.replace("workers = 1", "workers = 4"))
        _simulate(four, "--out", str(tmp_path / "w4"))
        one = config_file(text)
        _simulate(one, "--out", str(tmp_path / "w1"))
        _forbid_sampling(monkeypatch)
        for out in ("w1", "w4"):
            assert main(["estimate", "--config", one, "--out", str(tmp_path / out)]) == EXIT_OK
        assert (tmp_path / "w1" / "estimate.csv").read_bytes() == (
            tmp_path / "w4" / "estimate.csv"
        ).read_bytes()

    def test_pos_part_affine_batch(self, config_file, monkeypatch):
        # the kind takes no key beyond those of affine
        path = config_file(BASE_CONFIG.replace("kind = affine", "kind = pos_part_affine"))
        _simulate(path)
        _forbid_sampling(monkeypatch)
        assert main(["estimate", "--config", path]) == EXIT_OK

    def test_max_affine_left_tail_below_a_negative_b(self, config_file, tmp_path):
        # one step from -4 gives states y in [-5, -1.6]; the next step is
        # below -t < -5 iff A y is, so the smoothed left tail is the batch
        # mean of S_A(t / -y), not 0
        text = BASE_CONFIG.replace("kind = affine", "kind = max_affine").replace(
            B_LINE, "b = constant(c=-5.0)\n"
        ).replace("c_b = 1.0\n", "").replace(
            "workers = 1", "workers = 1\nx_init = -4.0\nburn_in = 1"
        ).replace("sigma = 0.45", "sigma = 0.45\nside = left\nt_grid = 0.5,1,2")
        path = config_file(text)
        _simulate(path)
        assert main(["estimate", "--config", path]) == EXIT_OK
        rows = (tmp_path / "out" / "estimate.csv").read_text().strip().split("\n")[1:]
        t, p_hat = np.array([row.split(",")[:2] for row in rows], dtype=float).T
        y = engine.load_batch(tmp_path / "out" / "batch.bin").values
        a = LogPareto(2.0, 3.0, 0.4)
        expected = [np.mean(a.survival(level / -y)) for level in t]
        assert p_hat[0] == 1.0 and p_hat[-1] > 0.0
        np.testing.assert_allclose(p_hat, expected, rtol=1e-6)

    def test_perpetuity_batch(self, config_file, monkeypatch):
        # the sidecar echoes the config that made the batch, so it matches
        path = config_file(BASE_CONFIG.replace("method = chain", "method = perpetuity"))
        _simulate(path)
        _forbid_sampling(monkeypatch)
        assert main(["estimate", "--config", path]) == EXIT_OK


class TestBatchFile:
    def test_missing_batch_is_precondition(self, config_file, capsys, no_sampling, tmp_path):
        batch = tmp_path / "out" / "batch.bin"
        for command in ("estimate", "verify"):
            assert main([command, "--config", config_file()]) == EXIT_PRECONDITION, command
            err = capsys.readouterr().err
            assert str(batch) in err and "sfpe simulate" in err, err
        assert not batch.parent.exists()  # only a command that writes makes it
        batch.mkdir(parents=True)  # a directory is no batch either
        assert main(["estimate", "--config", config_file()]) == EXIT_PRECONDITION

    def test_batch_of_another_config_is_config_error(self, config_file, capsys, monkeypatch):
        _simulate(config_file())
        _forbid_sampling(monkeypatch)
        _config_error(config_file(), ("estimate", "verify"), "[sim]", capsys, "--seed", "7")
        for old, new, named in (
            ("n_samples = 50000", "n_samples = 40000", "[sim]"),
            ("method = chain", "method = perpetuity", "[sim]"),
            ("c_b = 1.0", "c_b = 0.5", "[model]"),
        ):
            path = config_file(BASE_CONFIG.replace(old, new))
            _config_error(path, ("estimate", "verify"), named, capsys)

    def test_unreadable_batch_is_numeric_failure(self, config_file, tmp_path, capsys):
        path = config_file()
        _simulate(path)
        (tmp_path / "out" / "batch.bin.cfg").unlink()
        assert main(["estimate", "--config", path]) == EXIT_NUMERIC
        assert "batch.bin.cfg" in capsys.readouterr().err

    def test_batch_of_old_streams_is_numeric_failure(self, config_file, tmp_path, capsys):
        # a version-1 batch was drawn from Philox streams, not the ones its seed keys now
        path = config_file()
        _simulate(path)
        batch = tmp_path / "out" / "batch.bin"
        raw = bytearray(batch.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")
        batch.write_bytes(bytes(raw))
        for command in ("estimate", "verify"):
            assert main([command, "--config", path]) == EXIT_NUMERIC, command
            assert "unsupported batch version 1" in capsys.readouterr().err


    def test_batch_claiming_more_values_than_it_holds(self, config_file, tmp_path, capsys):
        # the header's count is checked against the file size before any read
        path = config_file()
        _simulate(path)
        batch = tmp_path / "out" / "batch.bin"
        raw = bytearray(batch.read_bytes())
        raw[8:16] = (2**40).to_bytes(8, "little")
        batch.write_bytes(bytes(raw))
        for command in ("estimate", "verify"):
            assert main([command, "--config", path]) == EXIT_NUMERIC, command
            assert f"50000 of {2**40} values" in capsys.readouterr().err


class TestVerify:
    def test_report_and_exit_code(self, config_file, tmp_path, monkeypatch):
        # at 5e4 samples the reliable range stops at small t where the
        # pre-asymptotic ratio exceeds the constant; expect assertion exit
        path = config_file()
        _simulate(path)
        _forbid_sampling(monkeypatch)
        code = main(["verify", "--config", path])
        rows = (tmp_path / "out" / "verify.csv").read_text().strip().split("\n")
        assert rows[0].endswith(",predicted,pass")
        assert code in (EXIT_OK, EXIT_ASSERTION)
        assert len(rows) == 21

    def test_overflowing_functional_is_numeric_failure(self, config_file, capsys):
        # E[A^400] is infinite and the plug-in f+ overflows: exit 5, no traceback
        path = config_file(BASE_CONFIG.replace("alpha = 2.0", "alpha = 400"))
        _simulate(path)
        assert main(["verify", "--config", path]) == EXIT_NUMERIC
        assert "numeric failure: plug-in" in capsys.readouterr().err

    def test_signed_left_tail(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "dependence = independent", "dependence = signed(p_plus=0.75)"
        ).replace("sigma = 0.45", "sigma = 0.45\nside = left")
        path = config_file(text)
        _simulate(path)
        code = main(["verify", "--config", path])
        assert code in (EXIT_OK, EXIT_ASSERTION)
        rows = (tmp_path / "out" / "verify.csv").read_text().strip().split("\n")
        assert len(rows) == 21

    def test_left_tail_mirrors_the_right_tail(self, config_file, tmp_path):
        # B = -1 gives the exact negatives of the B = +1 chain: its left tail
        # is the other's right tail, constant included
        text = BASE_CONFIG.replace(B_LINE, "b = {b}\n").replace("c_b = 1.0\n", "")
        runs = []
        for b, side in (("constant(c=1.0)", "right"), ("constant(c=-1.0)", "left")):
            out = tmp_path / side
            path = config_file(text.replace("sigma = 0.45", f"sigma = 0.45\nside = {side}"), b=b)
            _simulate(path, "--out", str(out))
            assert main(["verify", "--config", path, "--out", str(out)]) in (EXIT_OK, EXIT_ASSERTION)
            lines = (out / "verify.csv").read_text().strip().split("\n")
            runs.append(np.array([line.split(",") for line in lines[1:]], dtype=float))
        right, left = runs
        assert right[0, -2] > 0.0
        np.testing.assert_array_equal(left[:, -2], right[:, -2])  # predicted
        np.testing.assert_allclose(left[:, 1], right[:, 1], rtol=1e-12, atol=0.0)  # p_hat

    def test_no_left_tail_is_precondition(self, config_file, capsys):
        path = config_file(BASE_CONFIG.replace("sigma = 0.45", "sigma = 0.45\nside = left"))
        _simulate(path)
        assert main(["verify", "--config", path]) == EXIT_PRECONDITION
        assert "no usable tail" in capsys.readouterr().err

    def test_no_closed_form_is_precondition(self, config_file, capsys):
        text = BASE_CONFIG.replace("kind = affine", "kind = max_affine").replace(
            B_LINE + "dependence = independent\nc_b = 1.0", "dependence = equal"
        )
        path = config_file(text)
        _simulate(path)
        assert main(["verify", "--config", path]) == EXIT_PRECONDITION
        assert "no closed form" in capsys.readouterr().err


class TestDistCheck:
    def test_uniformity_and_product(self, config_file, tmp_path):
        text = BASE_CONFIG.replace("alpha = 2.0", "alpha = 2.0\nchecks = uniformity,product")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_OK
        rows = (tmp_path / "out" / "dist_check.csv").read_text().strip().split("\n")
        assert rows[0] == "check,detail,value,pass"
        rep = theory.product_convolution_check(LogPareto(2.0, 3.0, 0.4), 2.0, [2, 4, 8, 15])
        assert rows[2:] == [
            f"product,final_ratio,{float(rep.estimates[-1])!r},1",
            "product,target,0.6400000000000001,1",
        ]

    def test_seed_changes_no_row(self, config_file, tmp_path):
        # dist-check draws nothing, so [sim] seed and --seed act on no value
        text = BASE_CONFIG.replace("alpha = 2.0", "alpha = 2.0\nchecks = uniformity,product")
        written = []
        for seed in ("1", "2"):
            assert main(["dist-check", "--config", config_file(text), "--seed", seed]) == EXIT_OK
            written.append((tmp_path / "out" / "dist_check.csv").read_bytes())
        assert written[0] == written[1]

    def test_class_checks_of_a_power_tail_run_on_log_a(self, config_file, tmp_path):
        # on A itself the tilted tail e^(alpha t) P[A > t] overflows
        text = BASE_CONFIG.replace("alpha = 2.0", "alpha = 2.0\nchecks = dom,convolution,smallint")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["dist-check", "--config", config_file(text)]) == EXIT_OK
        rows = (tmp_path / "out" / "dist_check.csv").read_text().strip().split("\n")
        assert rows[3] == "convolution,target,0.6400000000000001,1"

    def test_dom_check_via_cli(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "a = exp_poly(alpha=1.0, p=-2.0, t0=1.0)"
        ).replace("alpha = 2.0", "alpha = 1.0\nchecks = dom")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_OK

    def test_smallint_row_holds_the_final_integral(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "a = exp_poly(alpha=1.0, p=-2.0, t0=1.0)"
        ).replace("alpha = 2.0", "alpha = 1.0\nchecks = smallint")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_OK
        rows = (tmp_path / "out" / "dist_check.csv").read_text().strip().split("\n")
        rep = theory.appendix_smallint_diagnostic(
            ExpPoly(1.0, -2.0, 1.0), [1, 2, 4], [20, 40, 80, 160]
        )
        assert len(rows) == 2
        check, detail, value, passed = rows[1].split(",")
        assert (check, detail, passed) == ("smallint", "final_integral", str(int(rep.passed)))
        assert float(value) == rep.integrals[-1][-1]

    def test_readme_lists_every_row(self, config_file, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("### `dist_check.csv`")[1].split("\n#")[0]
        rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", table, re.MULTILINE)
        assert len(rows) == len(set(rows))
        written = set()
        # two laws on which every check runs without a warning
        for spec, alpha, extra in (
            ("log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "2.0",
             "checks = uniformity,product"),
            ("exp_stretched(alpha=1.0, beta=1.0, gamma=0.5, t0=1.0)", "1.0",
             "checks = dom,convex,convolution,smallint\ngamma = 0.5"),
        ):
            text = BASE_CONFIG.replace(
                "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", f"a = {spec}"
            ).replace("alpha = 2.0", f"alpha = {alpha}\n{extra}")
            assert main(["dist-check", "--config", config_file(text)]) in (EXIT_OK, EXIT_ASSERTION)
            lines = (tmp_path / "out" / "dist_check.csv").read_text().strip().split("\n")
            written |= {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert set(rows) == written

    def test_convex_check_via_cli(self, config_file):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)",
            "a = exp_stretched(alpha=1.0, beta=1.0, gamma=0.5, t0=1.0)",
        ).replace("alpha = 2.0", "alpha = 1.0\nchecks = convex")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_CONFIG
        for gamma, code in (("0.5", EXIT_OK), ("1.0", EXIT_PRECONDITION)):
            with_gamma = text.replace("checks = convex", f"checks = convex\ngamma = {gamma}")
            assert main(["dist-check", "--config", config_file(with_gamma)]) == code, gamma

    def test_point_mass_is_refused_before_any_check(self, config_file, tmp_path, capsys):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "a = constant(c=2.0)"
        )
        for check in ("uniformity", "product", "dom", "convex", "convolution", "smallint"):
            with_check = text.replace("alpha = 2.0", f"alpha = 2.0\nchecks = {check}\ngamma = 0.5")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["dist-check", "--config", config_file(with_check)]) == EXIT_PRECONDITION
            assert "point mass" in capsys.readouterr().err
            assert not (tmp_path / "out" / "dist_check.csv").exists()

    def test_unknown_check(self, config_file):
        text = BASE_CONFIG.replace("alpha = 2.0", "alpha = 2.0\nchecks = entropy")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_CONFIG

    def test_whole_config_checked_before_any_check_runs(self, config_file, monkeypatch):
        calls = []
        monkeypatch.setattr(theory, "rv_uniformity_check", lambda *a, **k: calls.append(a))
        for extra in (
            "checks = uniformity,entropy",
            "checks = uniformity,product\nn_products = 1",
            "checks = uniformity,convex",
        ):
            text = BASE_CONFIG.replace("alpha = 2.0", f"alpha = 2.0\n{extra}")
            assert main(["dist-check", "--config", config_file(text)]) == EXIT_CONFIG, extra
        assert calls == []

    @pytest.mark.parametrize(
        "spec, alpha",
        [
            ("exp_stretched(alpha=1.0, beta=1.0, gamma=0.5, t0=1.0)", "1.0"),
            ("exp_poly(alpha=1.0, p=-2.0, t0=1.0)", "0.5"),
        ],
    )
    def test_convolution_check_has_finite_target(self, config_file, tmp_path, spec, alpha):
        # the exponential moment below (or, stretched, at) alpha is finite
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", f"a = {spec}"
        ).replace("alpha = 2.0", f"alpha = {alpha}\nchecks = convolution")
        assert main(["dist-check", "--config", config_file(text)]) in (EXIT_OK, EXIT_ASSERTION)
        rows = (tmp_path / "out" / "dist_check.csv").read_text().strip().split("\n")
        assert rows[2].startswith("convolution,target,")
        assert math.isfinite(float(rows[2].split(",")[2]))


class TestWorkers:
    @pytest.mark.parametrize("command", ["simulate", "estimate", "verify"])
    def test_fewer_than_one_worker_is_config_error(self, config_file, command):
        for workers in ("0", "-3"):
            text = BASE_CONFIG.replace("workers = 1", f"workers = {workers}")
            assert main([command, "--config", config_file(text)]) == EXIT_CONFIG, workers
