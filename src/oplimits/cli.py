"""Command-line entry point.

One binary, one subcommand per experiment.  A subcommand accepts only the
parameters its experiment reads (``harness.PARAMETERS``), plus ``--seed``.
A JSON config file provides the base settings; individual flags override
it.  ``--out`` and ``--format`` are not config keys: where and how the
report is written never enters it.
Exit status: 0 when every report row passes, 1 when any row fails, 2 on
configuration or runtime errors.
"""

import argparse
# argparse's gettext imports locale at its first message; importing it
# here moves that cost from the run to start-up
import locale  # noqa: F401
import sys

from .errors import ConfigError
from .harness import (
    PARAMETERS,
    ExperimentConfig,
    emit_report,
    load_config_file,
    run_experiment,
)


def _parse_ladder(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from exc


# config key -> its flag; a subcommand offers the flags of its own keys
_FLAGS = {
    "n_ladder": ("--n-ladder", dict(
        type=_parse_ladder, help="comma-separated operator indices, e.g. 8,32,128")),
    "alpha": ("--alpha", dict(type=float, help="weight exponent")),
    "t": ("--t", dict(type=float, help="time horizon")),
    "function_label": ("--f", dict(help="catalog function label")),
    "samples": ("--samples", dict(type=int, help="Monte Carlo sample count")),
    "seed": ("--seed", dict(type=int, help="master random seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oplimits",
        description=(
            "Desk-scale convergence experiments for positive lattice "
            "operators, their iterates, and their diffusion limits."
        ),
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, params in PARAMETERS.items():
        # no abbreviations: korovkin --f must not be read as --format
        p = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        p.add_argument("--config", help="JSON config file", default=None)
        # every subcommand takes --seed; see harness._SEEDLESS
        for key, (flag, kwargs) in _FLAGS.items():
            if key in params or key == "seed":
                p.add_argument(flag, dest=key, default=None, **kwargs)
        p.add_argument("--out", default=None,
                       help="report path (default <experiment>.<format>)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default csv)")
    return parser


def _collect_overrides(args) -> dict:
    """The config file's values, overridden by every flag that was given."""
    overrides = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    for key, value in vars(args).items():
        if value is not None and key not in ("experiment", "config", "out", "format"):
            overrides[key] = value
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ExperimentConfig.for_experiment(
            args.experiment, _collect_overrides(args)
        )
        rows = run_experiment(config)
        out = args.out or f"{config.experiment}.{args.format}"
        emit_report(rows, out, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures also map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2

    n_pass = sum(1 for r in rows if r.passed)
    shown = 0
    for r in rows:
        if r.passed and shown >= 40:
            continue  # failures always print; cap the pass-row echo
        shown += 1
        verdict = "pass" if r.passed else "FAIL"
        check = r.params.get("check", "")
        detail = {k: v for k, v in r.params.items() if k not in ("config", "check")}
        bound = "" if r.bound is None else f" bound={r.bound:.6g}"
        print(f"[{verdict}] {r.experiment}/{check} {detail} "
              f"measured={r.measured:.6g}{bound}")
    if shown < len(rows):
        print(f"... ({len(rows) - shown} more rows in the report)")
    print(f"{n_pass}/{len(rows)} rows passed; report written to {out}")
    return 0 if n_pass == len(rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
