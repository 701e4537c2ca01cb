"""Correctness gate for the CLI invocations the workloads make.

``expected.json`` holds, per experiment, the exit status and every report
row's verdict; rows of deterministic checks also hold their measured value,
which a later run must reproduce within ``RTOL``/``ATOL``.  An invocation
fails the gate when its exit status is 2, when exit status or any verdict
differs from the expectation, or when a deterministic value drifts.  A row
expected to FAIL (voronovskaya's fitted-rate window) must still fail.

Re-record the expectations, after a change that is meant to alter a
report, from the repository root with
``PYTHONPATH=src python3 perfbench/gate.py --record``.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
RTOL = 1e-9
ATOL = 1e-12
EXPERIMENTS = ("voronovskaya", "korovkin", "kelisky-rivlin", "semigroup",
               "weak-convergence")
# Monte Carlo rows: only their verdict is reproducible across seeds.
STOCHASTIC_CHECKS = {"weak-convergence": {"ks-distance", "extinction-gap", "final-ks"}}
RECORD_SEED = 42
# Monte Carlo stream count (OPLIMITS_WORKERS) pinned for recording and runs.
STREAMS = 4


def load_expected(path=EXPECTED_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_report(path):
    """(key, measured, passed) per CSV row; the key omits the config echo."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        params = json.loads(row["param_json"])
        params.pop("config", None)
        key = json.dumps({"experiment": row["experiment"], **params}, sort_keys=True)
        out.append((key, float(row["measured"]), row["pass"] == "true"))
    return out


def check_invocation(expect, exit_code, report_path):
    """Problems found with one invocation; an empty list means it passed."""
    if exit_code == 2:
        return ["exit status 2"]
    problems = []
    if exit_code != expect["exit"]:
        problems.append(f"exit status {exit_code}, expected {expect['exit']}")
    try:
        rows = read_report(report_path)
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"unreadable report: {exc}"]
    if len(rows) != len(expect["rows"]):
        return problems + [f"{len(rows)} rows, expected {len(expect['rows'])}"]
    for (key, measured, passed), want in zip(rows, expect["rows"]):
        if key != want["key"]:
            problems.append(f"row {key} where {want['key']} was expected")
        elif passed != want["pass"]:
            problems.append(f"row {key} verdict {passed}, expected {want['pass']}")
        elif "measured" in want and not (
                abs(measured - want["measured"]) <= RTOL * abs(want["measured"]) + ATOL):
            problems.append(f"row {key} measured {measured!r}, "
                            f"expected {want['measured']!r}")
    return problems


def record(seed=RECORD_SEED):
    """Expectations from the current program, for every gated experiment."""
    from oplimits import cli

    expected = {"record_seed": seed, "experiments": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for experiment in EXPERIMENTS:
            out = os.path.join(tmp, f"{experiment}.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([experiment, "--seed", str(seed), "--out", out])
            stochastic = STOCHASTIC_CHECKS.get(experiment, set())
            rows = []
            for key, measured, passed in read_report(out):
                row = {"key": key, "pass": passed}
                if json.loads(key)["check"] not in stochastic:
                    row["measured"] = measured
                rows.append(row)
            expected["experiments"][experiment] = {"exit": code, "rows": rows}
    return expected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {os.path.basename(EXPECTED_PATH)}")
    args = parser.parse_args(argv)
    if not args.record:
        parser.error("nothing to do; pass --record")
    os.environ["OPLIMITS_WORKERS"] = str(STREAMS)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
