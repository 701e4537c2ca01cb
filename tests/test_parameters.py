"""Each experiment accepts, stores and echoes exactly the parameters it reads,
and every verdict in a default report is recomputable from its cells."""

import contextlib
import csv
import inspect
import io
import json
import re

import pytest

from oplimits import ConfigError
from oplimits.cli import main
from oplimits.harness import PARAMETERS, ExperimentConfig, _Report, _RUNNERS

SEEDLESS = ("voronovskaya", "kelisky-rivlin", "korovkin")

# Per experiment, small configs that together take every branch that reads a
# parameter: e2 is polynomial (residual_zero_tolerance), e0 has no closed
# form, so semigroup estimates it by Monte Carlo (samples, seed).
BRANCHES = {
    "voronovskaya": [{"n_ladder": (4, 16, 64)},
                     {"n_ladder": (4, 16), "function_label": "e2"}],
    "semigroup": [{"n_ladder": (8, 16)},
                  {"n_ladder": (8,), "function_label": "e0", "samples": 200}],
    "kelisky-rivlin": [{"k_max": 6}],
    "korovkin": [{"n_ladder": (1, 4), "grid_points": 8, "dense_head": 0}],
    "weak-convergence": [{"n_ladder": (5, 10), "samples": 2_000}],
}

# Trend rows are bounded by the previous value of their series.
TREND_CHECKS = {"iterate-vs-semigroup", "deviation", "norm-error", "ks-distance",
                "extinction-gap"}
FINAL_CHECKS = {"final-discrepancy": "iterate-vs-semigroup",
                "final-deviation": "deviation", "final-norm-error": "norm-error",
                "final-ks": "ks-distance"}


class _ReadRecorder:
    """A config stand-in that records which of its parameters are read."""

    def __init__(self, config):
        self._config = config
        self.read = set()

    def __getattr__(self, name):
        if name in PARAMETERS[self._config.experiment]:
            self.read.add(name)
        value = getattr(self._config, name)
        # methods such as grid() run on the recorder, so their reads count
        return value.__func__.__get__(self) if inspect.ismethod(value) else value


def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def default_reports(tmp_path_factory):
    """experiment -> (exit status, CSV rows as dicts) of its default run."""
    tmp = tmp_path_factory.mktemp("reports")
    reports = {}
    for name in PARAMETERS:
        out = tmp / f"{name}.csv"
        code = _run_cli([name, "--out", str(out)])
        with open(out, newline="", encoding="utf-8") as fh:
            reports[name] = code, list(csv.DictReader(fh))
    return reports


@pytest.mark.parametrize("experiment", sorted(PARAMETERS))
def test_the_table_is_what_the_runner_reads(experiment):
    read = set()
    for overrides in BRANCHES[experiment]:
        recorder = _ReadRecorder(ExperimentConfig.for_experiment(experiment, overrides))
        report = _Report(recorder)
        recorder.read.clear()  # the echo reads every parameter; the runner may not
        _RUNNERS[experiment](recorder, report)
        read |= recorder.read
    assert read == set(PARAMETERS[experiment])


@pytest.mark.parametrize("experiment", SEEDLESS)
def test_seedless_reports_do_not_change_with_the_seed(experiment, tmp_path):
    blobs = []
    for seed in (1, 42):
        out = tmp_path / f"{seed}.csv"
        assert _run_cli([experiment, "--seed", str(seed), "--out", str(out)]) <= 1
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    assert "seed" not in ExperimentConfig.for_experiment(experiment, {"seed": 7}).resolved()


@pytest.mark.parametrize("experiment", sorted(PARAMETERS))
def test_every_key_the_experiment_does_not_read_is_rejected(experiment):
    unread = set().union(*PARAMETERS.values()) - set(PARAMETERS[experiment]) - {"seed"}
    for key in unread:
        default = next(p[key] for p in PARAMETERS.values() if key in p)
        with pytest.raises(ConfigError, match=f"'{key}' for {experiment}"):
            ExperimentConfig.for_experiment(experiment, {key: default})


@pytest.mark.parametrize("experiment", sorted(PARAMETERS))
def test_an_echo_is_a_config_of_its_experiment(experiment):
    echo = ExperimentConfig.for_experiment(experiment, {"n_ladder": [7]}).resolved()
    assert ExperimentConfig.for_experiment(experiment, echo).resolved() == echo


@pytest.mark.parametrize("argv, named", [
    (["korovkin", "--f", "cauchy"], "--f cauchy"),
    (["kelisky-rivlin", "--alpha", "9"], "--alpha 9"),
    (["korovkin", "--form", "json"], "--form json"),
], ids=["korovkin-f", "kelisky-rivlin-alpha", "no-abbreviations"])
def test_flags_the_experiment_does_not_read_exit_two(argv, named, tmp_path, capsys):
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {named}" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_key_the_experiment_does_not_read_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"x_panel": [0.5, 1.0]}))
    out = tmp_path / "r.csv"
    assert main(["weak-convergence", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown config key 'x_panel' for weak-convergence" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, flags", [
    ("voronovskaya", {"--n-ladder", "--alpha", "--f", "--seed"}),
    ("semigroup", {"--n-ladder", "--alpha", "--t", "--f", "--samples", "--seed"}),
    ("kelisky-rivlin", {"--n-ladder", "--f", "--seed"}),
    ("korovkin", {"--n-ladder", "--alpha", "--seed"}),
    ("weak-convergence", {"--n-ladder", "--t", "--samples", "--seed"}),
])
def test_help_lists_only_the_experiments_flags(experiment, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == flags | {"--help", "--config", "--out", "--format"}


def _number(cell):
    return None if cell == "" else float(cell)


def _recomputed(rows):
    """Each row's verdict rebuilt from its cells: measured <= bound, a trend
    row against the previous value plus the echoed slack, the fitted rate
    against its window."""
    last = {}
    verdicts = []
    for row in rows:
        params = json.loads(row["param_json"])
        check = params["check"]
        measured, bound = _number(row["measured"]), _number(row["bound"])
        series = (FINAL_CHECKS.get(check, check), params.get("lambda"))
        if check in TREND_CHECKS:
            assert bound == last.get(series)
            last[series] = measured
            if bound is not None:
                bound += params["config"]["monotonicity_slack"]
        elif check in FINAL_CHECKS:
            assert measured == last[series]
        if check == "fitted-rate":
            lo, hi = params["window"]
            verdicts.append(lo <= measured <= hi)
        else:
            verdicts.append(bound is None or measured <= bound)
    return verdicts


@pytest.mark.parametrize("experiment", sorted(PARAMETERS))
def test_verdicts_are_recomputable_from_the_report(experiment, default_reports):
    code, rows = default_reports[experiment]
    verdicts = _recomputed(rows)
    assert verdicts == [row["pass"] == "true" for row in rows]
    failing = [json.loads(row["param_json"]) for row, ok in zip(rows, verdicts) if not ok]
    if experiment == "voronovskaya":
        # f1 decays at first order, outside the half-order slope window
        assert [(p["check"], p["f"]) for p in failing] == [("fitted-rate", "f1")]
        assert code == 1
    else:
        assert failing == [] and code == 0
