"""The correctness gate behind failed_share, and the driver's own checks."""

import csv
import json
import os
import subprocess
import sys

import pytest

import gate
import layers
import oplimits.cli
import spec

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture(scope="module")
def expected():
    return gate.load_expected()["experiments"]


def _run(experiment, path):
    return oplimits.cli.main([experiment, "--out", str(path)])


def _rewrite(path, edit):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_reports_match_their_expectations(tmp_path, expected):
    for experiment in ("kelisky-rivlin", "voronovskaya"):
        path = tmp_path / f"{experiment}.csv"
        code = _run(experiment, path)
        assert gate.check_invocation(expected[experiment], code, path) == []


def test_fitted_rate_row_is_an_expected_fail(tmp_path, expected):
    path = tmp_path / "voronovskaya.csv"
    assert _run("voronovskaya", path) == 1
    fitted = [row for row in expected["voronovskaya"]["rows"]
              if json.loads(row["key"])["check"] == "fitted-rate"]
    assert [row["pass"] for row in fitted] == [False]

    def flip(rows):
        rows[-1][-1] = "true"
    _rewrite(path, flip)
    problems = gate.check_invocation(expected["voronovskaya"], 0, path)
    assert any("fitted-rate" in p and "verdict True" in p for p in problems)


def test_exit_status_2_always_fails(tmp_path, expected):
    path = tmp_path / "kelisky-rivlin.csv"
    _run("kelisky-rivlin", path)
    assert gate.check_invocation(expected["kelisky-rivlin"], 2, path) == ["exit status 2"]


def test_deterministic_values_must_stay_within_tolerance(tmp_path, expected):
    path = tmp_path / "korovkin.csv"
    code = _run("korovkin", path)
    row = 1 + [json.loads(r["key"])["check"]
               for r in expected["korovkin"]["rows"]].index("norm-error")
    original = float(expected["korovkin"]["rows"][row - 1]["measured"])

    def nudge(factor):
        def edit(rows):
            rows[row][2] = format(original * factor, ".17g")
        return edit

    _rewrite(path, nudge(1 + gate.RTOL / 10))
    assert gate.check_invocation(expected["korovkin"], code, path) == []
    _rewrite(path, nudge(1 + 100 * gate.RTOL))
    assert gate.check_invocation(expected["korovkin"], code, path) != []


def test_monte_carlo_rows_are_gated_on_verdict_only(expected):
    for row in expected["weak-convergence"]["rows"]:
        check = json.loads(row["key"])["check"]
        stochastic = check in gate.STOCHASTIC_CHECKS["weak-convergence"]
        assert ("measured" in row) != stochastic
        assert row["pass"]


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["paths"] == [os.path.basename(BENCH)]
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == \
        list(spec.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(layers.PER_LAYER)


def test_driver_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "kernel-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
