"""Command-line front end.

Subcommands::

    simulate               sample a cohort from a scenario's DGP -> CSV
    estimate               estimate an ATE from a cohort CSV -> JSON
    bias-study             run a replicated bias study from a config JSON
    check-identification   evaluate the do-calculus premises -> table/JSON
    check-exchangeability  evaluate counterfactual exchangeability cells
    param-count            saturated-model parameter count
    export-graph           emit a scenario graph (full/simplified/amwn) as DOT

Exit codes: 0 success, 1 validation/usage error, 2 estimation failure
(empty stratum, empty risk set, or all replicates failed). Errors are
written to standard error as ``error: <ErrorClass>: <message>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .dgp import (
    default_dgp,
    dgp_from_json,
    read_cohort_csv,
    sample_cohort,
    write_cohort_csv,
)
from .errors import ESTIMATION_ERRORS, WorkbenchError
from .estimators import WeightConvention, ccw_ate, npmle_ate
from .harness import (
    StudyConfig,
    parameter_count,
    run_bias_study,
    write_estimates_csv,
)
from .identification import identification_report
from .scenarios import (
    Regime,
    ScenarioKind,
    build_amwn,
    build_trial_graph,
    exchangeability_table,
)
from .graphs import to_dot

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via exit code 1."""

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _scenario(args) -> ScenarioKind:
    return ScenarioKind.from_code(args.scenario)


def _cmd_simulate(args) -> int:
    kind = _scenario(args)
    if args.dgp is not None:
        with open(args.dgp, encoding="utf-8") as fh:
            dgp = dgp_from_json(fh.read())
    else:
        dgp = default_dgp(kind)
    cohort = sample_cohort(dgp, kind, args.n, args.seed)
    write_cohort_csv(cohort, sys.stdout if args.output is None else args.output)
    return 0


def _cmd_estimate(args) -> int:
    kind = _scenario(args)
    cohort = read_cohort_csv(args.cohort, kind)
    treat = Regime.from_descriptor(args.treat)
    control = Regime.from_descriptor(args.control)
    if args.estimator == "npmle":
        estimate = npmle_ate(cohort, kind, treat, control)
    else:
        estimate = ccw_ate(
            cohort,
            kind,
            treat,
            control,
            WeightConvention.from_code(args.weight_convention),
        )
    _write_text(estimate.to_json(), args.output)
    return 0


def _cmd_bias_study(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = StudyConfig.from_json(fh.read())
    if args.report is not None:
        config = dataclasses.replace(config, report_path=args.report)
    if args.estimates is not None:
        config = dataclasses.replace(config, estimates_path=args.estimates)
    report = run_bias_study(config)
    _write_text(report.to_json(), config.report_path)
    if config.estimates_path is not None:
        write_estimates_csv(report, config.estimates_path)
    return 0


def _cmd_check_identification(args) -> int:
    kind = _scenario(args)
    report = identification_report(kind, args.T)
    lines = [f"identification premises (scenario {kind.code}, T={report.T})"]
    lines.append(" k   rule2   rule3")
    for entry in report.entries:
        lines.append(
            f"{entry.k:2d}   {str(entry.rule2).lower():5s}   "
            f"{str(entry.rule3).lower():5s}"
        )
    lines.append(f"identified: {'yes' if report.identified else 'no'}")
    print("\n".join(lines))
    if args.output is not None:
        _write_text(report.to_json(), args.output)
    return 0


def _cmd_check_exchangeability(args) -> int:
    kind = _scenario(args)
    regime = Regime.from_descriptor(args.regime)
    table = exchangeability_table(kind, args.T, regime)
    T = args.T
    lines = [
        "exchangeability of counterfactual survival "
        f"(scenario {kind.code}, T={T}, regime {regime.describe()})"
    ]
    header = "  i\\k " + "".join(f"{k:>7d}" for k in range(1, T + 1))
    lines.append(header)
    for i in range(1, T + 1):
        cells = "".join(
            f"{str(table[(i, k)]).lower():>7s}" for k in range(1, T + 1)
        )
        lines.append(f"{i:5d} {cells}")
    n_false = sum(1 for v in table.values() if not v)
    lines.append(f"false cells: {n_false} of {T * T}")
    print("\n".join(lines))
    if args.output is not None:
        payload = {
            "scenario": kind.code,
            "T": T,
            "regime": regime.describe(),
            "cells": [
                {"i": i, "k": k, "holds": table[(i, k)]}
                for i in range(1, T + 1)
                for k in range(1, T + 1)
            ],
        }
        _write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output
        )
    return 0


def _cmd_param_count(args) -> int:
    print(parameter_count(args.control, args.subgroups, args.treat, args.c))
    return 0


def _cmd_export_graph(args) -> int:
    kind = _scenario(args)
    if args.variant == "amwn":
        graph = build_amwn(kind, args.T, Regime.from_descriptor(args.regime))
    else:
        graph = build_trial_graph(
            kind, args.T, with_latents=(args.variant == "full")
        )
    _write_text(to_dot(graph) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ttebench",
        description=(
            "Workbench for time-partitioned target trial emulation: "
            "identification checks and survival estimator bias studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_arg(p):
        p.add_argument(
            "--scenario", required=True, choices=["A", "B"],
            help="within-period structure: A (outcome first) or B (treatment first)",
        )

    p = sub.add_parser("simulate", help="sample a cohort to CSV")
    scenario_arg(p)
    p.add_argument("--n", type=int, default=1000, help="number of patients")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--dgp", help="JSON file with custom hazard/propensity tables")
    p.add_argument("--output", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="estimate an ATE from a cohort CSV")
    scenario_arg(p)
    p.add_argument("--cohort", required=True, help="cohort CSV path")
    p.add_argument(
        "--estimator", choices=["npmle", "ccw"], default="npmle",
        help="plug-in (npmle) or cloning-censoring-weighting (ccw)",
    )
    p.add_argument("--treat", default="always", help="treated-arm regime descriptor")
    p.add_argument("--control", default="never", help="control-arm regime descriptor")
    p.add_argument(
        "--weight-convention", choices=["lagged", "current"], default="lagged",
        dest="weight_convention", help="ccw row-weight timing",
    )
    p.add_argument("--output", help="JSON path (default: stdout)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bias-study", help="run a replicated bias study")
    p.add_argument("--config", required=True, help="study config JSON path")
    p.add_argument("--report", help="override report JSON output path")
    p.add_argument("--estimates", help="override per-replicate estimates CSV path")
    p.set_defaults(func=_cmd_bias_study)

    p = sub.add_parser(
        "check-identification", help="evaluate do-calculus premises"
    )
    scenario_arg(p)
    p.add_argument("--T", type=int, required=True, help="number of periods")
    p.add_argument("--output", help="also write the report as JSON here")
    p.set_defaults(func=_cmd_check_identification)

    p = sub.add_parser(
        "check-exchangeability",
        help="evaluate conditional exchangeability over all (i, k)",
    )
    scenario_arg(p)
    p.add_argument("--T", type=int, required=True, help="number of periods")
    p.add_argument(
        "--regime", default="always", help="intervened regime descriptor"
    )
    p.add_argument("--output", help="also write the table as JSON here")
    p.set_defaults(func=_cmd_check_exchangeability)

    p = sub.add_parser("param-count", help="saturated-model parameter count")
    p.add_argument("--control", type=int, required=True,
                   help="control-arm periods")
    p.add_argument("--subgroups", type=int, required=True,
                   help="treated subgroups (initiation patterns)")
    p.add_argument("--treat", type=int, required=True,
                   help="treated-arm periods per subgroup")
    p.add_argument("--c", type=int, required=True,
                   help="baseline confounder levels |C|")
    p.set_defaults(func=_cmd_param_count)

    p = sub.add_parser("export-graph", help="emit a scenario graph as DOT")
    scenario_arg(p)
    p.add_argument("--T", type=int, required=True, help="number of periods")
    p.add_argument(
        "--variant", choices=["full", "simplified", "amwn"], default="full",
        help="with latents, without, or the counterfactual network",
    )
    p.add_argument(
        "--regime", default="always",
        help="regime for --variant amwn (ignored otherwise)",
    )
    p.add_argument("--output", help="DOT path (default: stdout)")
    p.set_defaults(func=_cmd_export_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    except _UsageError as exc:
        print(f"error: UsageError: {exc}", file=sys.stderr)
        return 1
    except ESTIMATION_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (WorkbenchError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
