"""Command line orchestration of the validation workflows.

Subcommands: plan, optimize, classify, sample, evaluate, simulate, cost.
Flag overrides (`--set key=value`) win over the configuration file. A
failed equivalence test is a result, not a program error: the exit code is
nonzero only for hard errors (and, with --strict, for validation
violations). `main` reads each command's config and campaign as
`_COMMANDS` declares them; the command imports the library modules it uses
when it runs (so a process loads only those), writes its data files (a
labeled or sampled campaign, a details CSV) and returns its report and its
result's notes or warnings. `main` alone writes them: one `error: ` line
for a hard error and nothing else, or the report to --out or stdout, then
one `warning: ` line per violation of the campaign and per warning.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import io as io_mod
from .domain import SAFE, TEST_CLASSIC, TEST_PARTITIONED, UNLABELED, UNSAFE, DopRecord, relabel

if TYPE_CHECKING:
    from .classify import ClassifierSpec


def _classifier(config: io_mod.Config) -> ClassifierSpec:
    if config.classifier is None:
        raise io_mod.ConfigError("classifier.kind is not configured")
    return config.classifier


def _cost_params(records: list[DopRecord], config: io_mod.Config):
    """Cost breakdown of the file's labels; only a wholly unlabeled campaign is classified."""
    from . import cost as cost_mod
    from .classify import classify
    if records and all(r.label == UNLABELED for r in records):
        records = classify(records, _classifier(config))
    return cost_mod.cost_breakdown(records, config.rates, config.scheme, config.classifier)


def cmd_plan(args, config: io_mod.Config, records: None) -> tuple[dict, list[str]]:
    from . import planner
    plan = planner.make_plan(config.params, config.partition)
    return {**io_mod.report_to_dict(plan), "seed": config.seed}, list(plan.notes)


def cmd_optimize(args, config: io_mod.Config, records: list[DopRecord]) -> tuple[dict, list[str]]:
    from . import planner
    breakdown = _cost_params(records, config)
    costs = breakdown.cost_params()
    plan = planner.make_plan(config.params, config.partition, costs=costs)
    report = {
        **io_mod.report_to_dict(plan),
        "seed": config.seed,
        "scheme": breakdown.scheme,
        "total_cost_classic": planner.total_cost(plan.n_e, 1.0, config.partition, costs),
        "total_cost_partitioned": planner.total_cost(
            plan.n_rec, plan.q_planned, config.partition, costs
        ),
    }
    return report, [*breakdown.warnings, *plan.notes]


def cmd_classify(args, config: io_mod.Config, records: list[DopRecord]) -> tuple[dict, list[str]]:
    from .classify import KIND_COMBINED, classify, first_stage_unsafe
    spec = _classifier(config)
    labeled = classify(records, spec)
    io_mod.save_campaign(labeled, args.out)
    reclassified = sum(r.label == SAFE and unsafe
                       for r, unsafe in zip(labeled, first_stage_unsafe(records, spec)))
    n = len(labeled)
    n_s = sum(1 for r in labeled if r.label == SAFE)
    report = {
        "report": "classification",
        "version": io_mod.VERSION,
        "kind": spec.kind,
        "n": n,
        "n_s": n_s,
        "n_u": sum(1 for r in labeled if r.label == UNSAFE),
        "p_hat_s": n_s / n if n else 0.0,
        "reclassified": reclassified if spec.kind == KIND_COMBINED else None,
        "out": str(args.out),
    }
    return report, []


def cmd_sample(args, config: io_mod.Config, records: list[DopRecord]) -> tuple[dict, list[str]]:
    from .classify import draw_sample
    safe_ids = [r.dop_id for r in records if r.label == SAFE]
    mask = draw_sample(safe_ids, config.partition.q, config.seed)
    flags = iter(mask.tolist())  # one flag per safe record, in campaign order
    updated = [relabel(r, r.label, next(flags)) if r.label == SAFE else r for r in records]
    io_mod.save_campaign(updated, args.out)
    n_s = len(safe_ids)
    counted = int(mask.sum())
    report = {
        "report": "sample",
        "version": io_mod.VERSION,
        "seed": config.seed,
        "q": config.partition.q,
        "n_s": n_s,
        "counted": counted,
        "q_effective": counted / n_s,
        "out": str(args.out),
    }
    return report, []


def cmd_evaluate(args, config: io_mod.Config, records: list[DopRecord]) -> tuple[dict, list[str]]:
    from .estimator import evaluate_classic, evaluate_partitioned, record_rows
    mode = args.mode
    if mode == "auto":
        # a partially labeled campaign goes to the partitioned test, which names its records
        mode = "classic" if all(r.label == UNLABELED for r in records) else "partitioned"
    if mode == "classic":
        result = evaluate_classic(records, config.params)
    else:
        result = evaluate_partitioned(records, config.params, q_planned=config.partition.q)

    details_path = args.details
    if details_path is None and args.out:
        details_path = str(Path(args.out)) + ".details.csv"
    if details_path:
        io_mod.save_details(record_rows(records, result), details_path)
    report = {**io_mod.report_to_dict(result), "mode": mode, "seed": config.seed,
              "params": config.params}
    return report, list(result.warnings)


def cmd_simulate(args, config: io_mod.Config, records: None) -> tuple[dict, list[str]]:
    from . import simulate  # imports numpy, which only simulate and sample need

    model: simulate.NormalErrors | simulate.ResamplingErrors
    if args.pool_s is None and args.pool_u is None:
        model = simulate.planning_normal_model(config.params.nu, config.partition)
    else:
        model = simulate.ResamplingErrors(pool_s=args.pool_s or (), pool_u=args.pool_u or ())
    sim = simulate.SimConfig(
        error_model=model,
        params=config.params,
        partition=config.partition,
        n_values=args.n_grid,
        bias_sweep=args.bias_grid,
        trials=args.trials,
        test=args.test,
        seed=config.seed,
    )
    if args.audit:
        return {"report": "user_risk_audit", "version": io_mod.VERSION,
                "points": simulate.user_risk_audit(sim), "seed": config.seed,
                "trials": args.trials, "test": args.test, "bias_sweep": list(sim.bias_sweep)}, []
    curves = simulate.run_simulation(sim)
    if len(curves) == 1:
        return io_mod.report_to_dict(curves[0]), []
    return {"report": "success_curves", "version": io_mod.VERSION,
            "curves": [io_mod.report_to_dict(c) for c in curves]}, []


def cmd_cost(args, config: io_mod.Config, records: list[DopRecord]) -> tuple[dict, list[str]]:
    breakdown = _cost_params(records, config)
    return io_mod.report_to_dict(breakdown), list(breakdown.warnings)


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace, io_mod.Config, list[DopRecord] | None],
                  tuple[dict, list[str]]]
    help: str
    campaign: bool = False  # takes --campaign and --strict, and runs on the campaign
    writes: str = ""  # names the campaign it writes to --out; its report goes to stdout


# in the order of the usage text
_COMMANDS = {
    "plan": _Command(cmd_plan, "sample/record size and quota planning"),
    "optimize": _Command(cmd_optimize, "cost-optimal quota from campaign costs", campaign=True),
    "classify": _Command(cmd_classify, "assign safe/unsafe labels", campaign=True,
                         writes="labeled"),
    "sample": _Command(cmd_sample, "draw the counted subset of the safe partition",
                       campaign=True, writes="updated"),
    "evaluate": _Command(cmd_evaluate, "run the equivalence test on a campaign", campaign=True),
    "simulate": _Command(cmd_simulate, "Monte Carlo test success study"),
    "cost": _Command(cmd_cost, "cost parameters from a campaign", campaign=True),
}


def _comma_list(convert: Callable[[str], int | float]) -> Callable[[str], tuple]:
    """An argparse type: the non-empty items of a comma-separated list, each converted."""
    def parse(text: str) -> tuple:
        return tuple(convert(item) for item in text.split(",") if item.strip())

    parse.__name__ = f"comma-separated {convert.__name__}"  # for argparse's "invalid … value"
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="apcval",
        description="Plan, cost-optimize, run and stress-test partitioned "
        "equivalence tests for passenger counting validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="configuration file path")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", help="write the report/output to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, help="override the configured seed")
        if command.campaign:
            p.add_argument("--strict", action="store_true",
                           help="treat validation violations as errors")
            p.add_argument("--campaign", required=True, help="campaign file path")

    p = sub.choices["evaluate"]
    p.add_argument("--mode", choices=("auto", "classic", "partitioned"), default="auto")
    p.add_argument("--details", help="write the per-record spreadsheet CSV here")

    p = sub.choices["simulate"]
    p.add_argument("--test", choices=(TEST_CLASSIC, TEST_PARTITIONED), default=TEST_CLASSIC)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--n-grid", required=True, type=_comma_list(int),
                   help="comma-separated sample sizes, e.g. 500,1000,2000")
    p.add_argument("--bias-grid", type=_comma_list(float),
                   help="comma-separated target mean errors")
    p.add_argument("--pool-s", type=_comma_list(float),
                   help="comma-separated resampling pool (safe stratum)")
    p.add_argument("--pool-u", type=_comma_list(float),
                   help="comma-separated resampling pool (unsafe stratum)")
    p.add_argument("--audit", action="store_true",
                   help="report worst-case pass rate per n (user risk audit)")
    return parser


_LIST_FLAGS = ("--n-grid", "--bias-grid", "--pool-s", "--pool-u")


def _attach_list_values(argv: list[str]) -> list[str]:
    """Write `--bias-grid -0.01,0` as `--bias-grid=-0.01,0`, for every list flag.

    argparse takes a value that starts with "-" and is not one plain
    negative number for an option, and then finds the flag without its
    value. A list flag takes the next token unless it is a long option.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _LIST_FLAGS and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; usage errors exit 2 by `SystemExit`.

    The cyclic garbage collector is paused for the command and left as the
    caller had it. A command's records, columns and reports hold no
    reference cycles and are freed by reference counting, so passes during
    the command would only traverse live data. The little cyclic garbage a
    command leaves, the same for every campaign size, goes in the first
    automatic pass after `main` returns.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    args = build_parser().parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    command = _COMMANDS[args.command]
    try:
        if command.writes and not args.out:
            raise io_mod.ConfigError(
                f"{args.command} needs --out to write the {command.writes} campaign")
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        config = io_mod.load_config_with_overrides(args.config, args.overrides + seed)
        records, violations = (io_mod.load_campaign(args.campaign, strict=args.strict)
                               if command.campaign else (None, []))
        report, warnings = command.run(args, config, records)
        text = io_mod.emit_report(report, args.format)
        if args.out and not command.writes:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except (io_mod.CampaignError, io_mod.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: a result is out of range for these settings ({exc})", file=sys.stderr)
        return 1
    sys.stderr.writelines(f"warning: {message}\n" for message in [*violations, *warnings])
    return 0


if __name__ == "__main__":
    sys.exit(main())
