import configparser
import io

import numpy as np
import pytest

from sfpe.cli import (
    EXIT_ASSERTION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    ExperimentConfig,
    main,
)

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


class TestConfig:
    def test_round_trip(self, config_file):
        cfg = ExperimentConfig.load(config_file())
        buf = io.StringIO()
        cfg.dump(buf)
        reparsed = configparser.ConfigParser()
        reparsed.read_string(buf.getvalue())
        assert {s: dict(reparsed[s]) for s in reparsed.sections()} == {
            s: dict(cfg.parser[s]) for s in cfg.parser.sections()
        }

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["predict", "--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG

    def test_bad_value_is_config_error(self, config_file, capsys):
        path = config_file(BASE_CONFIG.replace("n_samples = 50000", "n_samples = many"))
        assert main(["simulate", "--config", path]) == EXIT_CONFIG
        for bad in ("chunk_size = 0", "method = smoothed"):
            path = config_file(BASE_CONFIG.replace("method = chain", bad))
            assert main(["simulate", "--config", path]) == EXIT_CONFIG
        path = config_file()
        for command in ("simulate", "dist-check"):
            assert main([command, "--config", path, "--seed", "-1"]) == EXIT_CONFIG
        path = config_file(BASE_CONFIG.replace("sigma = 0.45", "sigma = 0.45\nside = rght"))
        for command in ("estimate", "verify"):
            assert main([command, "--config", path]) == EXIT_CONFIG
        for grid in (
            "5,3", "nan,2", "2,inf",
            "quantile(lo=-0.5, hi_exceed=300, points=20)",
            "quantile(lo=0.99, hi_exceed=300, points=0)",
            "quantile(lo=1.5, hi_exceed=300, points=20)",
        ):
            path = config_file(BASE_CONFIG.replace("sigma = 0.45", f"sigma = 0.45\nt_grid = {grid}"))
            for command in ("estimate", "verify"):
                assert main([command, "--config", path]) == EXIT_CONFIG, (grid, command)


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
        text = BASE_CONFIG.replace(
            "regime = example\nmu = 0.5\nsigma = 0.45",
            "regime = affine\nxi_plus = 2\nmu_plus = 0.5",
        )
        assert main(["predict", "--config", config_file(text)]) == EXIT_OK
        rows = (tmp_path / "out" / "predictions.csv").read_text().strip().split("\n")
        assert float(rows[1].split(",")[1]) == 4.0

    def test_unknown_regime(self, config_file):
        text = BASE_CONFIG.replace("regime = example", "regime = kesten")
        assert main(["predict", "--config", config_file(text)]) == EXIT_CONFIG


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

    def test_unstable_map_precondition(self, config_file):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "a = constant(c=2.0)"
        )
        assert main(["simulate", "--config", config_file(text)]) == EXIT_PRECONDITION


class TestEstimate:
    def test_writes_exact_columns(self, config_file, tmp_path):
        assert main(["estimate", "--config", config_file()]) == EXIT_OK
        rows = (tmp_path / "out" / "estimate.csv").read_text().strip().split("\n")
        assert rows[0] == "t,p_hat,ci_lo,ci_hi,n_exceed,ref_tail,ratio,ratio_ci_lo,ratio_ci_hi"
        assert len(rows) == 21  # default 20-point grid


class TestVerify:
    def test_report_and_exit_code(self, config_file, tmp_path):
        # at 5e4 samples the reliable range stops at small t where the
        # pre-asymptotic ratio exceeds the constant; expect assertion exit
        code = main(["verify", "--config", config_file()])
        rows = (tmp_path / "out" / "verify.csv").read_text().strip().split("\n")
        assert rows[0].endswith(",predicted,pass")
        assert code in (EXIT_OK, EXIT_ASSERTION)
        assert len(rows) == 21


    def test_signed_left_tail(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "dependence = independent", "dependence = signed(p_plus=0.75)"
        ).replace("sigma = 0.45", "sigma = 0.45\nside = left")
        code = main(["verify", "--config", config_file(text)])
        assert code in (EXIT_OK, EXIT_ASSERTION)
        rows = (tmp_path / "out" / "verify.csv").read_text().strip().split("\n")
        assert len(rows) == 21

    def test_no_left_tail_is_precondition(self, config_file):
        text = BASE_CONFIG.replace("sigma = 0.45", "sigma = 0.45\nside = left")
        assert main(["verify", "--config", config_file(text)]) == EXIT_PRECONDITION

    def test_no_closed_form_is_precondition(self, config_file):
        text = BASE_CONFIG.replace("kind = affine", "kind = max_affine").replace(
            "dependence = independent", "dependence = equal"
        )
        assert main(["verify", "--config", config_file(text)]) == EXIT_PRECONDITION


class TestDistCheck:
    def test_uniformity_and_product(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "alpha = 2.0", "alpha = 2.0\nchecks = uniformity,product\nn_products = 200000"
        )
        code = main(["dist-check", "--config", config_file(text)])
        rows = (tmp_path / "out" / "dist_check.csv").read_text().strip().split("\n")
        assert rows[0] == "check,detail,value,pass"
        assert any(r.startswith("product,target,0.64") for r in rows)
        assert code in (EXIT_OK, EXIT_ASSERTION)

    def test_dom_check_via_cli(self, config_file, tmp_path):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)", "a = exp_poly(alpha=1.0, p=-2.0, t0=1.0)"
        ).replace("alpha = 2.0", "alpha = 1.0\nchecks = dom")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_OK

    def test_too_few_products_is_config_error(self, config_file):
        for n in (0, 1):
            text = BASE_CONFIG.replace(
                "alpha = 2.0", f"alpha = 2.0\nchecks = product\nn_products = {n}"
            )
            assert main(["dist-check", "--config", config_file(text)]) == EXIT_CONFIG, n

    def test_convex_check_via_cli(self, config_file):
        text = BASE_CONFIG.replace(
            "a = log_pareto(alpha=2.0, beta=3.0, x0=0.4)",
            "a = exp_stretched(alpha=1.0, beta=1.0, gamma=0.5, t0=1.0)",
        ).replace("alpha = 2.0", "alpha = 1.0\nchecks = convex")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_CONFIG
        for gamma, code in (("0.5", EXIT_OK), ("1.0", EXIT_PRECONDITION)):
            with_gamma = text.replace("checks = convex", f"checks = convex\ngamma = {gamma}")
            assert main(["dist-check", "--config", config_file(with_gamma)]) == code, gamma

    def test_unknown_check(self, config_file):
        text = BASE_CONFIG.replace("alpha = 2.0", "alpha = 2.0\nchecks = entropy")
        assert main(["dist-check", "--config", config_file(text)]) == EXIT_CONFIG
