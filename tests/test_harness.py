"""Experiment configs, runners, report emission, and the CLI."""

import csv
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import oplimits.cli
from oplimits import ConfigError
from oplimits.cli import _collect_overrides, build_parser, main
from oplimits.harness import (
    PARAMETERS,
    ExperimentConfig,
    ReportRow,
    emit_report,
    floor_nt,
    load_config_file,
    run_experiment,
    _snap_panel,
)
from oplimits.iterates import chain_terminal_values
from oplimits.mc import (
    _MIN_THREADED_DRAW,
    _run_claimed,
    resolve_workers,
    sample_across_workers,
)


def _measured(rows, check):
    """Measured values of the rows for one check, in row order."""
    return [row.measured for row in rows if row.params["check"] == check]


class TestFloorSemantics:
    def test_guard_against_float_shortfall(self):
        # 10 * 0.3 is 2.999...96 in binary; the bracket must still be 3
        assert floor_nt(10, 0.3) == 3
        assert floor_nt(49, 0.3) == 14
        assert floor_nt(8, 1.0) == 8
        assert floor_nt(3, 0.0) == 0
        assert floor_nt(7, 2.0 / 7.0) == 2


class TestConfig:
    def test_defaults_per_experiment(self):
        cfg = ExperimentConfig("voronovskaya")
        assert cfg.n_ladder == (4, 16, 64, 256, 1024)
        assert cfg.function_label == "f1"
        cfg = ExperimentConfig("weak-convergence")
        assert cfg.n_ladder == (10, 50, 250)
        assert cfg.ks_tolerance == 0.02

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("korovkin", {"n_lader": (1, 2)})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("frobnicate")

    def test_ladder_must_increase(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("korovkin", {"n_ladder": (10, 10)})

    def test_function_must_exist(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("semigroup", {"function_label": "nope"})

    def test_lambda_ordering_enforced(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("korovkin", {"lambdas": (2.0, 1.0, 3.0)})

    def test_experiment_mismatch_in_overrides(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("korovkin", {"experiment": "semigroup"})

    def test_resolved_echo_contains_everything(self):
        cfg = ExperimentConfig("semigroup")
        echo = cfg.resolved()
        assert not {"output_path", "format", "workers"} & set(echo)
        assert echo["seed"] == 42
        assert echo["n_ladder"] == [8, 32, 128]
        assert "final_tolerance" in echo
        for name, params in PARAMETERS.items():
            assert set(ExperimentConfig(name).resolved()) == set(params)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_ladder": [2, 4], "seed": 7}))
        overrides = load_config_file(str(path))
        cfg = ExperimentConfig("semigroup", overrides)
        assert cfg.n_ladder == (2, 4) and cfg.seed == 7
        # korovkin draws no random numbers: it accepts a seed and drops it
        cfg = ExperimentConfig("korovkin", overrides)
        assert cfg.n_ladder == (2, 4) and not hasattr(cfg, "seed")

    def test_empty_x_panel_rejected(self):
        with pytest.raises(ConfigError, match="x_panel"):
            ExperimentConfig("semigroup", {"x_panel": []})

    @pytest.mark.parametrize("window", [[1], [-0.35, -0.65], [-0.5, -0.5],
                                        ["lo", "hi"], [-0.65, -0.5, -0.35]])
    def test_malformed_slope_window_rejected(self, window):
        with pytest.raises(ConfigError, match="slope_window"):
            ExperimentConfig("voronovskaya", {"slope_window": window})

    @pytest.mark.parametrize("experiment, key, value", [
        ("semigroup", "alpha", True), ("semigroup", "t", float("inf")),
        ("weak-convergence", "x", "1"), ("kelisky-rivlin", "k_max", 10.0),
        ("semigroup", "function_label", 3), ("korovkin", "lambdas", [1, 2, None]),
        ("semigroup", "seed", -1), ("semigroup", "x_max", 0.0),
        ("semigroup", "grid_points", 1), ("semigroup", "dense_head", -1),
    ])
    def test_wrong_typed_or_out_of_range_value_names_its_key(self, experiment, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ExperimentConfig(experiment, {key: value})

    def test_kelisky_rivlin_takes_one_n(self):
        with pytest.raises(ConfigError, match="kelisky-rivlin"):
            ExperimentConfig("kelisky-rivlin", {"n_ladder": (5, 7)})
        cfg = ExperimentConfig("kelisky-rivlin", {"n_ladder": (7,)})
        assert cfg.n_ladder == (7,)

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_file(str(bad))


class TestEmitReport:
    def _row(self, **kw):
        base = dict(experiment="demo", params={"n": 3}, measured=1.0 / 3.0,
                    bound=0.5, stderr=None, error_budget=1e-9, passed=True)
        base.update(kw)
        return ReportRow(**base)

    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([], str(path), "csv")
        assert path.read_bytes() == b"experiment,param_json,measured,bound,stderr,error_budget,pass\r\n"

    def test_seventeen_digit_serialization(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report([self._row()], str(path), "csv")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["measured"] == "0.33333333333333331"
        assert float(rows[0]["measured"]) == 1.0 / 3.0

    def test_csv_json_field_agreement(self, tmp_path):
        rows = [
            self._row(),
            self._row(measured=2.0, bound=None, stderr=0.125, passed=False),
        ]
        cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
        emit_report(rows, str(cpath), "csv")
        emit_report(rows, str(jpath), "json")
        with open(cpath, newline="") as fh:
            from_csv = list(csv.DictReader(fh))
        from_json = json.loads(jpath.read_text())
        assert len(from_csv) == len(from_json) == 2
        for c, j in zip(from_csv, from_json):
            assert c["experiment"] == j["experiment"]
            assert json.loads(c["param_json"]) == json.loads(j["param_json"])
            assert float(c["measured"]) == j["measured"]
            assert (c["bound"] == "" and j["bound"] is None) or float(c["bound"]) == j["bound"]
            assert (c["stderr"] == "" and j["stderr"] is None) or float(c["stderr"]) == j["stderr"]
            assert (c["pass"] == "true") == j["pass"]

    def test_json_bytes(self, tmp_path):
        # absent cells are null, the two string cells are JSON strings (the
        # param echo escaped inside its own), numbers carry 17 digits
        rows = [
            self._row(params={"label": 'a "quoted" \\ tab\t'}, bound=None,
                      error_budget=None, passed=False),
            self._row(measured=2.0, stderr=0.125),
        ]
        path = tmp_path / "r.json"
        emit_report(rows, str(path), "json")
        assert path.read_bytes() == (
            b'[\n'
            b'  {"experiment": "demo", '
            b'"param_json": "{\\"label\\": \\"a \\\\\\"quoted\\\\\\" '
            b'\\\\\\\\ tab\\\\t\\"}", '
            b'"measured": 0.33333333333333331, "bound": null, "stderr": null, '
            b'"error_budget": null, "pass": false},\n'
            b'  {"experiment": "demo", "param_json": "{\\"n\\": 3}", '
            b'"measured": 2, "bound": 0.5, "stderr": 0.125, '
            b'"error_budget": 1.0000000000000001e-09, "pass": true}\n'
            b']\n'
        )

    def test_non_finite_json_cells_read_back_as_the_csv_text(self, tmp_path):
        # JSON has no inf or nan, so such a cell is a string of the CSV text
        rows = [self._row(measured=math.inf, bound=-math.inf, stderr=math.nan)]
        cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
        emit_report(rows, str(cpath), "csv")
        emit_report(rows, str(jpath), "json")
        with open(cpath, newline="") as fh:
            (from_csv,) = csv.DictReader(fh)
        with open(jpath, encoding="utf-8") as fh:
            (from_json,) = json.load(fh)
        assert (from_json["measured"], from_json["bound"], from_json["stderr"]) == (
            "inf", "-inf", "nan")
        for key in ("measured", "bound", "stderr"):
            assert from_json[key] == from_csv[key]
        assert float(from_csv["error_budget"]) == from_json["error_budget"]

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], str(tmp_path / "r.xml"), "xml")

    def test_io_failure_carries_path_context(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = blocker / "r.csv"  # parent is a file, not a directory
        with pytest.raises(OSError) as err:
            emit_report([self._row()], str(target), "csv")
        assert str(target) in str(err.value)


class TestRunners:
    def test_voronovskaya_quadratic_all_pass(self):
        cfg = ExperimentConfig(
            "voronovskaya", {"n_ladder": (4, 16, 64), "function_label": "e2"}
        )
        rows = run_experiment(cfg)
        assert all(r.passed for r in rows)
        assert all(r.params["check"] == "polynomial-exactness" for r in rows)
        assert _measured(rows, "fitted-rate") == []

    def test_voronovskaya_without_lipschitz_data_reports_only(self):
        cfg = ExperimentConfig(
            "voronovskaya", {"n_ladder": (4, 16, 64), "function_label": "cauchy"}
        )
        rows = run_experiment(cfg)
        assert all(r.passed for r in rows)  # informational rows carry no verdict
        assert all(r.params["check"] == "residual-only" for r in rows)
        assert all(r.bound is None for r in rows)

    def test_voronovskaya_exponential_bounds_hold_rate_is_first_order(self):
        cfg = ExperimentConfig(
            "voronovskaya", {"n_ladder": (4, 16, 64)}
        )
        rows = run_experiment(cfg)
        bound_rows = [r for r in rows if r.params["check"] == "residual-vs-bound"]
        assert all(r.passed for r in bound_rows)
        # the measured residual decays like 1/n for this smooth function,
        # so the declared [-0.65, -0.35] window (which brackets the
        # guaranteed 1/sqrt(n) rate) reports a failure here
        slope_rows = [r for r in rows if r.params["check"] == "fitted-rate"]
        assert len(slope_rows) == 1
        assert -1.25 < slope_rows[0].measured < -0.8
        assert not slope_rows[0].passed

    def test_semigroup_closed_form_reference(self):
        cfg = ExperimentConfig("semigroup", {"n_ladder": (8, 32)})
        rows = run_experiment(cfg)
        assert all(r.passed for r in rows)
        measured = _measured(rows, "iterate-vs-semigroup")
        assert measured[1] < measured[0]
        assert all(r.stderr is None for r in rows)

    def test_semigroup_zero_horizon_is_identity(self):
        cfg = ExperimentConfig("semigroup", {"n_ladder": (8,), "t": 0.0})
        rows = run_experiment(cfg)
        assert rows[0].params["k"] == 0
        assert _measured(rows, "iterate-vs-semigroup")[0] <= 1e-12

    def test_semigroup_constant_function_fixed_by_both_sides(self):
        cfg = ExperimentConfig(
            "semigroup", {"n_ladder": (8,), "function_label": "e0", "samples": 1_000}
        )
        rows = run_experiment(cfg)
        assert _measured(rows, "iterate-vs-semigroup")[0] <= 8 * cfg.tail_eps + 1e-13

    def test_semigroup_monte_carlo_reference(self):
        cfg = ExperimentConfig(
            "semigroup",
            {"n_ladder": (8,), "function_label": "xexp", "samples": 20_000},
        )
        rows = run_experiment(cfg)
        rung = rows[0]
        assert rung.stderr is not None and rung.stderr > 0
        assert rung.error_budget is not None

    def test_kelisky_rivlin_default_passes(self):
        rows = run_experiment(ExperimentConfig("kelisky-rivlin"))
        assert all(r.passed for r in rows)
        assert _measured(rows, "deviation")[-1] <= 1e-8
        assert len(rows) == 201

    def test_korovkin_default_passes(self):
        rows = run_experiment(ExperimentConfig("korovkin"))
        assert all(r.passed for r in rows)
        checks = {r.params["check"] for r in rows}
        assert checks == {"series-vs-closed-form", "norm-error", "final-norm-error"}

    def test_korovkin_norm_trend_applies_the_declared_slack(self, monkeypatch):
        # a closed form of f + delta(n) puts every weighted norm error at
        # delta(n) (the weight is 1 at x = 0), rising by 1e-6 from n = 1 to
        # n = 10, within the declared slack of 1e-5
        delta = {1: 1e-3, 10: 1e-3 + 1e-6}
        monkeypatch.setattr("oplimits.harness.sm_exponential_closed_form",
                            lambda n, lam, x: np.exp(-lam * x) + delta[n])
        cfg = ExperimentConfig(
            "korovkin", {"n_ladder": (1, 10), "monotonicity_slack": 1e-5,
                         "grid_points": 8, "dense_head": 0},
        )
        trend = [r for r in run_experiment(cfg) if r.params["check"] == "norm-error"]
        rises = [r for r in trend if r.bound is not None]
        assert len(rises) == 3
        assert all(r.measured > r.bound for r in rises)
        assert all(r.passed for r in trend)

    def test_weak_convergence_small_ladder(self):
        cfg = ExperimentConfig(
            "weak-convergence", {"n_ladder": (10, 50), "samples": 50_000}
        )
        rows = run_experiment(cfg)
        assert all(r.passed for r in rows)
        measured = _measured(rows, "ks-distance")
        assert measured[1] < measured[0]

    def test_weak_convergence_requires_positive_start(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("weak-convergence", {"x": 0.0})
        with pytest.raises(ConfigError):
            ExperimentConfig("weak-convergence", {"t": 0.0})

    def test_skeleton_validates_directly_built_configs(self):
        # building a config checks it; no constructor skips the checks
        with pytest.raises(ConfigError, match="x_panel"):
            ExperimentConfig("semigroup", {"n_ladder": (8,), "x_panel": ()})
        with pytest.raises(TypeError):
            ExperimentConfig(experiment="semigroup", n_ladder=(8,), x_panel=())

    def test_panel_snapping(self):
        idx, xs = _snap_panel((0.0, 0.3, 1.0), 8)
        np.testing.assert_array_equal(idx, [0, 2, 8])
        np.testing.assert_allclose(xs, [0.0, 0.25, 1.0])


# Per runner: a small config, the check of each trend series' rows, and the
# final check that reads the last value of each series.
_TREND_RUNNERS = {
    "semigroup": ({"n_ladder": (4, 8, 16)}, ("iterate-vs-semigroup",),
                  {"final-discrepancy": "iterate-vs-semigroup"}),
    "kelisky-rivlin": ({"k_max": 6}, ("deviation",),
                       {"final-deviation": "deviation"}),
    "korovkin": ({"n_ladder": (1, 4, 16), "grid_points": 8, "dense_head": 0},
                 ("norm-error",), {"final-norm-error": "norm-error"}),
    "weak-convergence": ({"n_ladder": (5, 10, 20), "samples": 2_000},
                         ("ks-distance", "extinction-gap"),
                         {"final-ks": "ks-distance"}),
}


def _series_key(row, check):
    """Korovkin keeps one series per rate; the other runners one per check."""
    return check, row.params.get("lambda")


class TestTrendRule:
    @pytest.mark.parametrize("slack", [1e-3, -1.0], ids=["loose", "strict"])
    @pytest.mark.parametrize("experiment", sorted(_TREND_RUNNERS))
    def test_trend_and_final_rows(self, experiment, slack):
        # a slack of -1 asks each value to drop by more than it can, so the
        # later trend rows must fail; a runner ignoring the slack passes them
        overrides, trend_checks, finals = _TREND_RUNNERS[experiment]
        cfg = ExperimentConfig(
            experiment, {**overrides, "monotonicity_slack": slack})
        series = {}
        decided_by_slack = False
        for row in run_experiment(cfg):
            check = row.params["check"]
            if check in trend_checks:
                values = series.setdefault(_series_key(row, check), [])
                if values:
                    assert row.bound == values[-1]
                    assert row.passed == (row.measured <= row.bound + slack)
                    decided_by_slack |= (row.measured <= row.bound) != row.passed
                else:
                    assert row.bound is None and row.passed
                values.append(row.measured)
            elif check in finals:
                assert row.measured == series[_series_key(row, finals[check])][-1]
        assert set(series) == {(check, lam) for check in trend_checks
                               for lam in (cfg.lambdas if experiment == "korovkin"
                                           else (None,))}
        assert all(len(values) > 1 for values in series.values())
        assert decided_by_slack == (slack < 0)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = ExperimentConfig(
            "weak-convergence", {"n_ladder": (5, 10), "samples": 5_000}
        )
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            rows = run_experiment(cfg)
            emit_report(rows, str(path), "csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_stochastic_output(self, tmp_path):
        reports = []
        for seed in (1, 2):
            cfg = ExperimentConfig(
                "weak-convergence", {"n_ladder": (5, 10), "samples": 5_000, "seed": seed}
            )
            reports.append(run_experiment(cfg))
        assert _measured(reports[0], "ks-distance") != _measured(reports[1], "ks-distance")


class TestCLI:
    def test_all_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "kr.csv"
        code = main(["kelisky-rivlin", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "201/201 rows passed" in capsys.readouterr().out

    def test_failing_rows_exit_one(self, tmp_path, capsys):
        # a korovkin ladder stopped too early cannot meet the norm tolerance
        out = tmp_path / "kv.json"
        code = main(["korovkin", "--n-ladder", "1,10", "--out", str(out),
                     "--format", "json"])
        assert code == 1
        data = json.loads(out.read_text())
        assert any(not row["pass"] for row in data)

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = main(["semigroup", "--f", "not-a-function", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_rejected_config_values_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"x_panel": []}))
        out = str(tmp_path / "x.csv")
        assert main(["semigroup", "--config", str(cfg_path), "--out", out]) == 2
        assert "config error: x_panel" in capsys.readouterr().err
        assert main(["kelisky-rivlin", "--n-ladder", "5,7", "--out", out]) == 2
        assert "config error: n_ladder must be one entry (kelisky-rivlin" in \
            capsys.readouterr().err

    def test_non_integer_ladder_rejected_not_truncated(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_ladder": [8.5, 32.9]}))
        out = tmp_path / "x.csv"
        assert main(["semigroup", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config error: n_ladder" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("output_path", "r.csv"), ("format", "json")],
                             ids=["output_path", "format"])
    def test_output_path_in_config_file_rejected(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        out = tmp_path / "x.csv"
        assert main(["kelisky-rivlin", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"config error: unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_report_bytes_do_not_depend_on_out_path(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "sub" / "b.csv"]
        for path in paths:
            assert main(["kelisky-rivlin", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("values, key", [
        ({"samples": 2.5}, "samples"),
        ({"n_ladder": ["a"]}, "n_ladder"),
        ({"n_ladder": 5}, "n_ladder"),
        ({"seed": "x"}, "seed"),
    ], ids=["float-samples", "string-ladder-entry", "scalar-ladder", "string-seed"])
    def test_wrong_typed_config_value_names_its_key(self, tmp_path, capsys, values, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        out = tmp_path / "x.csv"
        assert main(["weak-convergence", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
        assert not out.exists()

    # the experiments that draw no random numbers drop a seed only once it
    # passes the seeded experiments' check
    @pytest.mark.parametrize("how", ["flag", "config-file"])
    @pytest.mark.parametrize("experiment", ["voronovskaya", "kelisky-rivlin", "korovkin"])
    def test_seedless_experiment_rejects_an_invalid_seed(self, tmp_path, capsys, experiment, how):
        if how == "flag":
            args, message = ["--seed", "-1"], "seed must be nonnegative, got -1"
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"seed": "abc"}))
            args, message = ["--config", str(cfg_path)], "seed must be an integer, got 'abc'"
        out = tmp_path / "x.csv"
        assert main([experiment, *args, "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_experiments_import_nothing_and_load_no_scipy(self, tmp_path):
        # every module a default run needs loads with oplimits.cli, so
        # set-up, not the run, pays for it; scipy is needed by none of them
        script = (
            "import contextlib, io, sys\n"
            "import oplimits.cli\n"
            "before = set(sys.modules)\n"
            "for e in ('voronovskaya', 'semigroup', 'kelisky-rivlin', 'korovkin',\n"
            "          'weak-convergence'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = oplimits.cli.main([e, '--out', sys.argv[1] + '/' + e + '.csv'])\n"
            "    assert status <= 1, (e, status)\n"
            "    gained = sorted(set(sys.modules) - before)\n"
            "    assert not gained, (e, gained)\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "assert not scipy, scipy\n"
        )
        src = os.path.dirname(os.path.dirname(oplimits.cli.__file__))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    def test_every_given_flag_is_an_override(self):
        args = build_parser().parse_args([
            "semigroup", "--n-ladder", "4,8", "--alpha", "2.5", "--t", "0.5",
            "--f", "e1", "--samples", "10", "--seed", "3", "--format", "json",
            "--out", "r.json",
        ])
        assert _collect_overrides(args) == {
            "n_ladder": (4, 8), "alpha": 2.5, "t": 0.5, "function_label": "e1",
            "samples": 10, "seed": 3,
        }
        assert _collect_overrides(build_parser().parse_args(["semigroup"])) == {}

    def test_config_file_plus_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_ladder": [5, 10], "samples": 4000, "seed": 3}))
        out = tmp_path / "wc.csv"
        code = main(["weak-convergence", "--config", str(cfg_path),
                     "--samples", "2000", "--out", str(out)])
        assert code in (0, 1)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        echo = json.loads(rows[0]["param_json"])["config"]
        assert echo["samples"] == 2000  # flag override wins
        assert echo["seed"] == 3
        assert not {"format", "workers"} & set(echo)


class TestWorkerResolution:
    def test_default_does_not_depend_on_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert resolve_workers() == 4

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_chunking_is_deterministic(self):
        from oplimits.mc import chunk_sizes
        assert chunk_sizes(10, 4) == [3, 3, 2, 2]
        assert chunk_sizes(3, 4) == [1, 1, 1, 0]
        assert sum(chunk_sizes(1_000_001, 7)) == 1_000_001


def _stream(rng):
    """Index of the stream a generator was spawned for."""
    return rng.bit_generator.seed_seq.spawn_key[-1]


def _chain_draw(rng, m):
    return chain_terminal_values(10, 10, 1.0, m, rng)


class TestConcurrentStreams:
    """Pinned streams drawn on min(streams, CPUs) threads when each draws many values."""

    @pytest.mark.parametrize("streams, switch_interval", [
        (4, None),
        (16, None),
        # more threads than cores, switching as often as the interpreter allows
        (16, 1e-6),
    ])
    def test_values_do_not_depend_on_cpu_count(self, monkeypatch, cpus, streams,
                                               switch_interval):
        monkeypatch.setattr("oplimits.mc.STREAMS", streams)
        samples = streams * _MIN_THREADED_DRAW + 3
        draws = []
        interval = sys.getswitchinterval()
        try:
            for count in (1, 2, streams, 64):
                cpus(count)
                if switch_interval is not None and count > 1:
                    sys.setswitchinterval(switch_interval)
                draws.append(sample_across_workers(_chain_draw, samples, seed=(5, 1)))
        finally:
            sys.setswitchinterval(interval)
        for values in draws[1:]:
            np.testing.assert_array_equal(values, draws[0])

    @pytest.mark.parametrize("count", [1, 2, 3, 64])
    def test_threads_used_are_capped(self, cpus, started_threads, count):
        # the calling thread claims streams beside min(streams, CPUs) - 1 helpers
        cpus(count)
        idents = set()

        def draw(rng, m):
            idents.add(threading.get_ident())
            return _chain_draw(rng, m)

        sample_across_workers(draw, 4 * _MIN_THREADED_DRAW, seed=3)
        assert len(started_threads) == min(4, count) - 1
        assert len(idents) <= min(4, count)
        if count == 1:
            assert idents == {threading.get_ident()}

    def test_small_chunks_stay_on_the_calling_thread(self, cpus):
        cpus(64)
        idents = set()

        def draw(rng, m):
            idents.add(threading.get_ident())
            return _chain_draw(rng, m)

        sample_across_workers(draw, 4 * _MIN_THREADED_DRAW - 1, seed=3)
        assert idents == {threading.get_ident()}

    def test_default_weak_convergence_run_starts_no_thread(self, monkeypatch, cpus):
        # its streams draw 25,000 values each, too few to repay threads
        cpus(64)

        def start(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", start)
        run_experiment(ExperimentConfig("weak-convergence"))

    def test_cpu_count_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        idents = set()

        def draw(rng, m):
            idents.add(threading.get_ident())
            return _chain_draw(rng, m)

        sample_across_workers(draw, 4 * _MIN_THREADED_DRAW, seed=3)
        assert idents == {threading.get_ident()}

    def test_empty_streams_are_not_drawn(self, cpus):
        cpus(64)
        calls = []

        def draw(rng, m):
            calls.append(_stream(rng))
            return rng.random(m)

        assert sample_across_workers(draw, 2, seed=0).shape == (2,)
        assert sorted(calls) == [0, 1]

    @pytest.mark.parametrize("failure, message", [
        ("raise", "stream 3 failed"),
        ("shape", r"draw_chunk returned shape \(\d+,\), expected \(\d+,\)"),
    ])
    def test_failing_stream_propagates_and_threads_are_joined(
            self, cpus, failure, message):
        cpus(4)
        before = threading.active_count()

        def draw(rng, m):
            if _stream(rng) == 1:
                time.sleep(0.1)  # still running when stream 3 has failed
            if _stream(rng) == 3:
                if failure == "raise":
                    raise ValueError("stream 3 failed")
                return rng.random(m + 1)
            return rng.random(m)

        with pytest.raises(ValueError, match=message):
            sample_across_workers(draw, 4 * _MIN_THREADED_DRAW, seed=1)
        assert threading.active_count() == before

    def test_first_failing_stream_is_raised(self, cpus):
        cpus(4)

        def draw(rng, m):
            if _stream(rng) in (1, 3):
                raise RuntimeError(f"stream {_stream(rng)}")
            return rng.random(m)

        for _ in range(5):
            with pytest.raises(RuntimeError, match="stream 1"):
                sample_across_workers(draw, 4 * _MIN_THREADED_DRAW, seed=1)


class TestRunClaimed:
    """The claim loop behind threaded kernel steps and Monte Carlo streams."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_each_step_ends_before_the_next_starts(self, watchdog, started_threads, threads):
        tasks, steps = 5, 6
        events = []  # list.append is atomic, so the log keeps the true order

        def task(step, i):
            events.append(("start", step, i))
            time.sleep(0.001 * ((step + i) % 3))
            events.append(("end", step, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_claimed(task, tasks, threads, steps)
        finally:
            sys.setswitchinterval(interval)
        assert len(started_threads) == threads - 1
        assert sorted(e[1:] for e in events if e[0] == "start") == [
            (s, i) for s in range(steps) for i in range(tasks)]
        for at, (kind, step, _) in enumerate(events):
            if kind == "start" and step > 0:
                ended = [e for e in events[:at] if e[:2] == ("end", step - 1)]
                assert len(ended) == tasks
        if threads == 1:
            assert events == [(kind, s, i) for s in range(steps) for i in range(tasks)
                              for kind in ("start", "end")]

    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_lowest_failure_is_raised_once_helpers_are_joined(self, watchdog,
                                                              started_threads, threads):
        # on threads, (2, 3) fails while (2, 0) is still running; (2, 0) fails last
        ran = []

        def task(step, i):
            ran.append((step, i))
            if step == 2 and i == 0:
                time.sleep(0.05)
            if step == 2 and i in (0, 3):
                raise RuntimeError(f"task {i}")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="task 0$"):
            _run_claimed(task, 5, threads, steps=4)
        assert not any(t.is_alive() for t in started_threads)
        assert len(started_threads) == threads - 1
        assert threading.active_count() == before
        assert ((2, 3) in ran) == (threads > 1) and max(ran) < (3, 0)
