import json
import math

import pytest
from click.testing import CliRunner

from cokfluct.cli import RunConfig, main
from cokfluct.ensembles import ConfigError
from cokfluct.experiments import ExperimentReport


def make_config(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "ensemble": {
            "p": 2,
            "kind": "block_triangular",
            "k": 4,
            "block_sizes": [8, 8, 8, 8],
            "A_dist": {"kind": "uniform_range", "low": -100, "high": 100},
            "B_dist": {"kind": "uniform_range", "low": -100, "high": 100},
            "master_seed": 12345,
        },
        "trials": 100,
        "groups": [{"p": 2, "lambda": [1]}],
        "lambdas": [[1]],
        "d": 1,
        "output_dir": str(tmp_path / "run"),
        "reproducible": True,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRunConfig:
    def test_round_trip(self, tmp_path):
        path = make_config(tmp_path)
        cfg = RunConfig.from_dict(json.loads(path.read_text()))
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("trials", [-5, True])
    def test_bad_trials_rejected(self, tmp_path, trials):
        cfg = RunConfig.from_dict(json.loads(make_config(tmp_path).read_text()))
        with pytest.raises(ConfigError, match="trials"):
            RunConfig(ensemble=cfg.ensemble, trials=trials)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("workers", 2.5, "workers must be an integer, got 2.5"),
            ("output_dir", 5, "output_dir must be a string, got 5"),
            ("reproducible", "yes", "reproducible must be true or false, got 'yes'"),
        ],
        ids=["workers", "output_dir", "reproducible"],
    )
    def test_python_api_checks_each_field(self, tmp_path, field, value, message):
        # the constructor runs the checks simulate runs, so RunConfig(...) refuses what a config file may not hold
        cfg = RunConfig.from_dict(json.loads(make_config(tmp_path).read_text()))
        with pytest.raises(ConfigError, match=message):
            RunConfig(ensemble=cfg.ensemble, trials=10, **{field: value})

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"schema_version": 1})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"schema_version": 99, "ensemble": {}, "trials": 1})


class TestSimulate:
    def test_smoke_outputs(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["simulate", "--config", str(make_config(tmp_path))])
        assert res.exit_code == 0, res.output
        out = tmp_path / "run"
        for name in ("config.json", "report.json", "hom_moments.csv", "l_moments.csv", "centered_histogram.csv"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["counts"]["included"] == 100
        assert "meta" not in report  # reproducible strips the timestamp

    def test_byte_identical_reruns(self, tmp_path):
        runner = CliRunner()
        cfg = make_config(tmp_path)
        assert runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]).exit_code == 0
        assert runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--workers", "2"]).exit_code == 0
        for name in ("report.json", "hom_moments.csv", "l_moments.csv", "centered_histogram.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_flag_overrides(self, tmp_path):
        runner = CliRunner()
        cfg = make_config(tmp_path)
        res = runner.invoke(
            main,
            ["simulate", "--config", str(cfg), "--trials", "7", "--out", str(tmp_path / "c")],
        )
        assert res.exit_code == 0
        report = json.loads((tmp_path / "c" / "report.json").read_text())
        assert report["trials"] == 7

    def test_unbalanced_distribution_exits_2(self, tmp_path):
        runner = CliRunner()
        cfg = make_config(
            tmp_path,
            ensemble={
                "p": 2, "kind": "matrix_product", "k": 2, "n": 4,
                "A_dist": {"kind": "constant", "value": 0},
                "master_seed": 1,
            },
        )
        res = runner.invoke(main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "balanced" in res.output

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = CliRunner().invoke(main, ["simulate", "--config", str(path)])
        assert res.exit_code == 2

    def test_missing_config_exits_2(self):
        res = CliRunner().invoke(main, ["simulate"])
        assert res.exit_code == 2

    def test_malformed_workers_env_exits_2(self, tmp_path):
        res = CliRunner().invoke(
            main, ["simulate", "--config", str(make_config(tmp_path))],
            env={"COKFLUCT_WORKERS": "abc"},
        )
        assert res.exit_code == 2
        assert "config error:" in res.output and "COKFLUCT_WORKERS" in res.output

    def test_negative_trials_exits_2(self, tmp_path):
        res = CliRunner().invoke(main, ["simulate", "--config", str(make_config(tmp_path, trials=-5))])
        assert res.exit_code == 2
        assert "config error:" in res.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lambdas": [[1, 1]], "d": 1},
            {"d": 0},
            {"zeta": 1.5},
            {"groups": [{"p": 3, "lambda": [1]}]},
            # targets whose subgroup lattice exceeds |G| <= 2**12
            {"groups": [{"p": 2, "lambda": [13]}]},
            {"groups": [], "lambdas": [[13]], "d": 1},
        ],
    )
    def test_bad_run_parameters_exit_2(self, tmp_path, overrides):
        res = CliRunner().invoke(main, ["simulate", "--config", str(make_config(tmp_path, **overrides))])
        assert res.exit_code == 2, res.output
        assert "config error:" in res.output
        assert not (tmp_path / "run").exists()

    def test_ensemble_precision_rejected(self, tmp_path):
        cfg = make_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["ensemble"]["precision"] = 5
        cfg.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 2
        assert "config error:" in res.output and "precision" in res.output
        raw["ensemble"]["precision"] = None
        cfg.write_text(json.dumps(raw))
        assert CliRunner().invoke(main, ["simulate", "--config", str(cfg)]).exit_code == 0

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_non_prime_p_exits_2(self, tmp_path, p):
        cfg = make_config(tmp_path)
        raw = json.loads(cfg.read_text())
        raw["ensemble"]["p"] = p
        cfg.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert f"config error: p must be prime, got {p}" in res.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "path,value",
        [
            (("ensemble", "p"), 2.7),
            (("ensemble", "k"), 2.9),
            (("ensemble", "k"), True),
            (("ensemble", "master_seed"), "12345"),
            (("ensemble", "block_sizes"), [8, 8.0, 8, 8]),
            (("ensemble", "block_sizes"), 8),
            (("ensemble", "A_dist", "low"), -100.5),
            (("trials",), 10.8),
            (("d",), 1.0),
            (("workers",), True),
            (("groups",), [{"p": 2.0, "lambda": [1]}]),
            (("ensemble",), {
                "p": 2, "kind": "matrix_product", "k": 3, "n": 4.5,
                "A_dist": {"kind": "uniform_mod", "m": 2}, "master_seed": 1,
            }),
            (("trials",), True),
        ],
    )
    def test_non_integer_field_exits_2(self, tmp_path, path, value):
        cfg = make_config(tmp_path)
        raw = json.loads(cfg.read_text())
        *outer, key = path
        target = raw
        for part in outer:
            target = target[part]
        target[key] = value
        cfg.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
        assert res.exit_code == 2, res.output
        assert "config error:" in res.output and "integer" in res.output
        assert not (tmp_path / "run").exists()

    def test_non_object_config_exits_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        for extra in ([], ["--seed", "3", "--trials", "2"]):
            res = CliRunner().invoke(main, ["simulate", "--config", str(path), *extra])
            assert res.exit_code == 2, res.output
            assert "config error: config must be a JSON object" in res.output

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("ensemble",), [], "ensemble must be a JSON object"),
            (("ensemble", "A_dist"), 5, "distribution must be a JSON object"),
            (("zeta",), None, "zeta must be a number"),
            (("ensemble", "A_dist"), {"kind": "bernoulli", "q": None}, "q must be a number"),
            (("ensemble", "A_dist"), {"kind": "bernoulli", "q": "1/0"}, "q must be a number"),
            (("lambdas",), [[1.5]], "must be an integer, got 1.5"),
            (("groups",), [{"p": 2, "lambda": [True]}], "must be an integer, got True"),
            (("ensemble", "A_dist"), {"kind": "finite_support", "support": [5]}, "[value, weight] pairs"),
            (("ensemble", "A_dist"), {"kind": "finite_support", "support": 5}, "[value, weight] pairs"),
            (("reproducible",), "no", "reproducible must be true or false"),
            (("output_dir",), None, "output_dir must be a string"),
            (("ensemble", "A_dist"), {"kind": "uniform_range", "low": 0, "high": 10 ** 20}, "int64 range"),
            (("ensemble", "A_dist"), {"kind": "finite_support", "support": [[0, 1], [10 ** 20, 1]]}, "int64 range"),
            (("ensemble", "B_dist"), {"kind": "constant", "value": 10 ** 20}, "int64 range"),
            (("ensemble", "B_dist"), {"kind": "uniform_mod", "m": 2 ** 63 + 1}, "modulus <= 2**63"),
        ],
        ids=[
            "ensemble-list", "A_dist-5", "zeta-null", "q-null", "q-1/0", "lambdas-1.5", "group-lambda-true",
            "support-5", "support-not-list", "reproducible-string", "output_dir-null",
            "uniform_range-high-1e20", "support-value-1e20", "constant-1e20", "uniform_mod-above-2**63",
        ],
    )
    def test_malformed_field_exits_2(self, tmp_path, path, value, message):
        cfg = make_config(tmp_path)
        raw = json.loads(cfg.read_text())
        *outer, key = path
        target = raw
        for part in outer:
            target = target[part]
        target[key] = value
        cfg.write_text(json.dumps(raw))
        for extra in ([], ["--seed", "3"]):
            res = CliRunner().invoke(main, ["simulate", "--config", str(cfg), *extra])
            assert res.exit_code == 2, res.output
            assert "config error:" in res.output and message in res.output
        assert not (tmp_path / "run").exists()

    def test_negative_master_seed_exits_2(self, tmp_path):
        cfg = make_config(tmp_path)
        for extra in (["--seed", "-1"], []):
            res = CliRunner().invoke(main, ["simulate", "--config", str(cfg), *extra])
            assert res.exit_code == 2, res.output
            assert "config error: master_seed must be >= 0, got -1" in res.output
            raw = json.loads(cfg.read_text())
            raw["ensemble"]["master_seed"] = -1
            cfg.write_text(json.dumps(raw))
        assert not (tmp_path / "run").exists()

    def test_zero_workers_exits_2(self, tmp_path):
        res = CliRunner().invoke(
            main, ["simulate", "--config", str(make_config(tmp_path)), "--workers", "0"]
        )
        assert res.exit_code == 2
        assert "config error:" in res.output


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not valid JSON")
    return json.loads(text, parse_constant=reject)


class TestEmptyMoments:
    """A moment with no values has NaN mean and CI in memory; report.json,
    its CSV and compare's output hold null for them, and a report reads
    them back."""

    @pytest.mark.parametrize(
        "overrides, empty",
        [
            ({"trials": 0}, ("hom_moments", "l_moments")),
            # a product of 64 factors uniform mod 2 of size 1 is 0 unless
            # every factor is 1: every trial is singular, so no L-moment value
            (
                {
                    "ensemble": {
                        "p": 2, "kind": "matrix_product", "k": 64, "n": 1,
                        "A_dist": {"kind": "uniform_mod", "m": 2}, "master_seed": 1,
                    },
                    "trials": 5,
                },
                ("l_moments",),
            ),
        ],
    )
    def test_null_not_nan(self, tmp_path, overrides, empty):
        runner = CliRunner()
        res = runner.invoke(main, ["simulate", "--config", str(make_config(tmp_path, **overrides))])
        assert res.exit_code == 0, res.output
        path = tmp_path / "run" / "report.json"
        report = strict_json(path.read_text())
        assert report["counts"]["included"] == 0
        for section in empty:
            for entry in report[section].values():
                assert entry["count"] == 0
                assert entry["mean"] is entry["ci_low"] is entry["ci_high"] is None
                assert entry["target"] == 1.0
            rows = (tmp_path / "run" / f"{section}.csv").read_text().splitlines()
            assert rows[1].split(",")[1:] == ["", "", "", "1.0", "0"]

        parsed = ExperimentReport.from_dict(report)
        assert math.isnan(parsed.l_moments["(1)"].mean)
        assert parsed.to_dict() == report

        res = runner.invoke(main, ["compare", str(path), str(path)])
        assert res.exit_code == 0, res.output
        assert strict_json(res.output)["moment_gaps"] == {"(1)": None}

    def test_null_only_with_count_zero(self, tmp_path):
        runner = CliRunner()
        runner.invoke(main, ["simulate", "--config", str(make_config(tmp_path, trials=3))])
        path = tmp_path / "run" / "report.json"
        report = strict_json(path.read_text())
        report["l_moments"]["(1)"]["mean"] = None
        path.write_text(json.dumps(report))
        res = runner.invoke(main, ["compare", str(path), str(path)])
        assert res.exit_code == 2
        assert "l_moments.(1).mean must be a number" in res.output


class TestVerify:
    @pytest.mark.parametrize("suite", ["identity", "balanced", "chains", "decomposition"])
    def test_suites_pass(self, suite):
        res = CliRunner().invoke(main, ["verify", suite])
        assert res.exit_code == 0, res.output
        assert "FAIL" not in res.output

    def test_cok_suite(self):
        res = CliRunner().invoke(main, ["verify", "cok"])
        assert res.exit_code == 0, res.output
        assert "100 random instances" in res.output

    def test_unknown_suite_rejected(self):
        res = CliRunner().invoke(main, ["verify", "nope"])
        assert res.exit_code == 2


class TestTheory:
    def test_values(self):
        res = CliRunner().invoke(
            main,
            ["theory", "--group", "2:1", "--group", "2:1,1", "--lam", "1", "--p", "2"],
        )
        assert res.exit_code == 0
        assert "G=2:(1)  ell=1  c=[1, 1]  limit=1" in res.output
        assert "G=2:(1,1)  ell=2  c=[1, 4, 3]  limit=3/2" in res.output
        assert "moment=1" in res.output

    def test_largest_targets_finish(self):
        res = CliRunner().invoke(main, ["theory", "--group", "2:4,4,4"])
        assert res.exit_code == 0, res.output
        res = CliRunner().invoke(main, ["theory", "--lam", "8", "--p", "2"])
        assert res.exit_code == 0, res.output
        assert "moment=63247905/128" in res.output

    @pytest.mark.parametrize("p", [0, 1, 4])
    def test_non_prime_p_exits_2(self, p):
        res = CliRunner().invoke(main, ["theory", "--p", str(p)])
        assert res.exit_code == 2, res.output
        assert f"config error: p must be prime, got {p}" in res.output

    def test_lattice_guard_exits_2(self):
        res = CliRunner().invoke(main, ["theory", "--group", "2:13"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("args, order", [
        (["--group", "2:3000000"], "2**3000000"),
        (["--lam", "300000", "--d", "1"], "2**300000"),
        (["--lam", "3000000", "--d", "1"], "2**3000000"),
    ])
    def test_huge_target_exits_2_naming_its_order(self, args, order):
        # |G| has more digits than Python converts to a string, and lambda'
        # of a 3000000-box lambda is never built
        res = CliRunner().invoke(main, ["theory", *args])
        assert res.exit_code == 2, res.output
        assert f"config error: |G| = {order} exceeds 4096" in res.output


class TestCompare:
    def test_self_compare(self, tmp_path):
        runner = CliRunner()
        cfg = make_config(tmp_path)
        runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        res = runner.invoke(
            main,
            ["compare", str(tmp_path / "x" / "report.json"), str(tmp_path / "x" / "report.json")],
        )
        assert res.exit_code == 0
        assert json.loads(res.output)["tv_distance"] == 0.0

    @pytest.mark.parametrize("text", ["[]", '{"counts": []}'])
    def test_malformed_report_exits_2(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        res = CliRunner().invoke(main, ["compare", str(path), str(path)])
        assert res.exit_code == 2
        assert "config error:" in res.output

    @pytest.mark.parametrize("field,value", [("trials", 100.5), ("d", True)])
    def test_non_integer_report_field_exits_2(self, tmp_path, field, value):
        runner = CliRunner()
        cfg = make_config(tmp_path, trials=20)
        runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        path = tmp_path / "x" / "report.json"
        raw = json.loads(path.read_text())
        raw[field] = value
        path.write_text(json.dumps(raw))
        res = runner.invoke(main, ["compare", str(path), str(path)])
        assert res.exit_code == 2, res.output
        assert f"config error: {field} must be an integer" in res.output

    @pytest.mark.parametrize("value, code", [(5, 2), (0, 0)])
    def test_saturated_count_must_be_zero(self, tmp_path, value, code):
        # every trial is classified, so a report claiming saturated trials
        # was not written by simulate
        runner = CliRunner()
        cfg = make_config(tmp_path, trials=20)
        runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        path = tmp_path / "x" / "report.json"
        raw = json.loads(path.read_text())
        raw["counts"]["saturated"] = value
        path.write_text(json.dumps(raw))
        res = runner.invoke(main, ["compare", str(path), str(path)])
        assert res.exit_code == code, res.output
        if code:
            assert "config error: counts.saturated must be 0, got 5" in res.output

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("centered_histogram", "(0)", "count"), 1.5, "count must be an integer"),
            (("centered_histogram", "(0)", "count"), "7", "count must be an integer"),
            (("centered_histogram", "(0)", "count"), True, "count must be an integer"),
            (("l_moments", "(1)", "mean"), "x", "mean must be a number"),
            (("l_moments", "(1)", "count"), "many", "count must be an integer"),
            (("zeta",), "0.0", "zeta must be a number"),
            # impossible counts: the 20 trials are all included, 8 of them in (0)
            (("centered_histogram", "(0)", "count"), -7, "count must be non-negative"),
            (("centered_histogram", "(0)", "count"), 9, "must sum to counts.included (20), got 21"),
            (("counts", "included"), -3, "counts.included must be non-negative"),
            (("counts", "free_rank"), 1, "must equal trials (20), got 20 + 1"),
            (("trials",), -20, "trials must be non-negative"),
            (("l_moments", "(1)", "count"), -1, "count must be non-negative"),
            (("generator",), 5, "generator must be a string"),
            (("l_moments", "(1)", "count"), 5, "l_moments.(1).count must be 20, got 5"),
            (("hom_moments", "2:(1)", "count"), 21, "hom_moments.2:(1).count must be 20, got 21"),
            (("l_moments", "(1)", "median"), 1.0, "l_moments.(1) must have exactly the keys"),
            (("hom_moments", "2:(1)"), {"mean": 1.0, "count": 20}, "hom_moments.2:(1) must have exactly the keys"),
        ],
        ids=[
            "count-1.5", "count-string", "count-true", "mean-string", "moment-count-string", "zeta-string",
            "count-negative", "histogram-sum", "included-negative", "counts-sum", "trials-negative",
            "moment-count-negative", "generator-int", "l-moment-count", "hom-moment-count",
            "moment-extra-key", "moment-missing-keys",
        ],
    )
    def test_malformed_report_field_exits_2(self, tmp_path, path, value, message):
        runner = CliRunner()
        cfg = make_config(tmp_path, trials=20)
        runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        report = tmp_path / "x" / "report.json"
        raw = json.loads(report.read_text())
        *outer, key = path
        target = raw
        for part in outer:
            target = target[part]
        target[key] = value
        report.write_text(json.dumps(raw))
        res = runner.invoke(main, ["compare", str(report), str(report)])
        assert res.exit_code == 2, res.output
        assert "config error:" in res.output and message in res.output

    @pytest.mark.parametrize(
        "path,value,message", [(("spec", "p"), 3, "on p"), (("zeta",), 0.5, "on zeta")], ids=["p", "zeta"]
    )
    def test_reports_that_disagree_exit_2(self, tmp_path, path, value, message):
        runner = CliRunner()
        cfg = make_config(tmp_path, trials=20)
        runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        report = tmp_path / "x" / "report.json"
        raw = json.loads(report.read_text())
        *outer, key = path
        target = raw
        for part in outer:
            target = target[part]
        target[key] = value
        other = tmp_path / "other.json"
        other.write_text(json.dumps(raw))
        res = runner.invoke(main, ["compare", str(report), str(other)])
        assert res.exit_code == 2, res.output
        assert f"config error: reports disagree {message}" in res.output

    def test_mismatched_reports_exit_2(self, tmp_path):
        runner = CliRunner()
        cfg_a = make_config(tmp_path)
        runner.invoke(main, ["simulate", "--config", str(cfg_a), "--out", str(tmp_path / "a")])
        cfg_b = make_config(tmp_path, d=2, lambdas=[[1]])
        runner.invoke(main, ["simulate", "--config", str(cfg_b), "--out", str(tmp_path / "b")])
        res = runner.invoke(
            main,
            ["compare", str(tmp_path / "a" / "report.json"), str(tmp_path / "b" / "report.json")],
        )
        assert res.exit_code == 2
