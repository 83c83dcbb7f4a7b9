"""Command line orchestration of the validation workflows.

Subcommands: plan, optimize, classify, sample, evaluate, simulate, cost.
Flag overrides (`--set key=value`) win over the configuration file. A
failed equivalence test is a result, not a program error: the exit code is
nonzero only for hard errors (and, with --strict, for validation
violations). Each command returns its warnings: the campaign's violations
and its result's notes or warnings. `main` alone writes to stderr: one
`error: ` line for a hard error, else, after the report, one `warning: `
line per warning.
"""

from __future__ import annotations

import argparse
import csv
import io as _stringio
import math
import sys
from pathlib import Path

from . import cost as cost_mod
from . import io as io_mod
from . import planner, simulate
from .classify import KIND_COMBINED, ClassifierSpec, _safe_flags, classify, draw_sample
from .domain import SAFE, UNLABELED, UNSAFE, DopRecord, relabel
from .estimator import _differences, evaluate_classic, evaluate_partitioned


def _add_common(p: argparse.ArgumentParser, campaign: bool = False) -> None:
    p.add_argument("--config", help="configuration file path")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--out", help="write the report/output to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument("--strict", action="store_true",
                   help="treat validation violations as errors")
    if campaign:
        p.add_argument("--campaign", required=True, help="campaign file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apcval",
        description="Plan, cost-optimize, run and stress-test partitioned "
        "equivalence tests for passenger counting validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="sample/record size and quota planning")
    _add_common(p)

    p = sub.add_parser("optimize", help="cost-optimal quota from campaign costs")
    _add_common(p, campaign=True)

    p = sub.add_parser("classify", help="assign safe/unsafe labels")
    _add_common(p, campaign=True)

    p = sub.add_parser("sample", help="draw the counted subset of the safe partition")
    _add_common(p, campaign=True)

    p = sub.add_parser("evaluate", help="run the equivalence test on a campaign")
    _add_common(p, campaign=True)
    p.add_argument("--mode", choices=("auto", "classic", "partitioned"), default="auto")
    p.add_argument("--details", help="write the per-record spreadsheet CSV here")

    p = sub.add_parser("simulate", help="Monte Carlo test success study")
    _add_common(p)
    p.add_argument("--test", choices=(simulate.TEST_CLASSIC, simulate.TEST_PARTITIONED),
                   default=simulate.TEST_CLASSIC)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--n-grid", required=True,
                   help="comma-separated sample sizes, e.g. 500,1000,2000")
    p.add_argument("--bias-grid", help="comma-separated target mean errors")
    p.add_argument("--pool-s", help="comma-separated resampling pool (safe stratum)")
    p.add_argument("--pool-u", help="comma-separated resampling pool (unsafe stratum)")
    p.add_argument("--audit", action="store_true",
                   help="report worst-case pass rate per n (user risk audit)")

    p = sub.add_parser("cost", help="cost parameters from a campaign")
    _add_common(p, campaign=True)
    return parser


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(args, report, **context) -> None:
    """Write a report, followed by the command's context fields, to --out or stdout."""
    payload = {**io_mod.report_to_dict(report), **context}
    _write_or_print(io_mod.emit_report(payload, args.format), args.out)


def _load(args) -> io_mod.Config:
    seed = [] if args.seed is None else [f"seed={args.seed}"]
    return io_mod.load_config_with_overrides(args.config, args.overrides + seed)


def _classifier(config: io_mod.Config) -> ClassifierSpec:
    if config.classifier is None:
        raise io_mod.ConfigError("classifier.kind is not configured")
    return config.classifier


def _cost_params(records: list[DopRecord], config: io_mod.Config):
    """Cost breakdown of the campaign's labels; an unlabeled campaign is classified first."""
    combined = config.scheme == cost_mod.SCHEME_COMBINED
    if combined and _classifier(config).kind != KIND_COMBINED:
        raise io_mod.ConfigError("costs.scheme=combined needs classifier.kind=combined")
    reclass_flags = None
    if any(r.label == UNLABELED for r in records):
        if config.classifier is None:
            raise io_mod.CampaignError(
                "campaign has unlabeled records and no classifier is configured"
            )
        records, reclass_flags = classify(records, config.classifier)
    elif combined:
        first = _safe_flags(records, config.classifier)
        reclass_flags = {r.dop_id: int(not safe) for r, safe in zip(records, first)}
    return cost_mod.cost_breakdown(records, config.rates, config.scheme, reclass_flags)


def cmd_plan(args) -> list[str]:
    config = _load(args)
    plan = planner.make_plan(config.params, config.partition)
    _emit(args, plan, seed=config.seed)
    return list(plan.notes)


def cmd_optimize(args) -> list[str]:
    config = _load(args)
    records, violations = io_mod.load_campaign(args.campaign, strict=args.strict)
    breakdown = _cost_params(records, config)
    costs = breakdown.cost_params()
    plan = planner.make_plan(config.params, config.partition, costs=costs)
    _emit(
        args,
        plan,
        seed=config.seed,
        scheme=breakdown.scheme,
        total_cost_classic=planner.total_cost(plan.n_e, 1.0, config.partition, costs),
        total_cost_partitioned=planner.total_cost(
            plan.n_rec, plan.q_planned, config.partition, costs
        ),
    )
    return [*violations, *breakdown.warnings, *plan.notes]


def cmd_classify(args) -> list[str]:
    if not args.out:
        raise io_mod.ConfigError("classify needs --out to write the labeled campaign")
    config = _load(args)
    records, violations = io_mod.load_campaign(args.campaign, strict=args.strict)
    labeled, flags = classify(records, _classifier(config))
    io_mod.save_campaign(labeled, args.out)
    n = len(labeled)
    n_s = sum(1 for r in labeled if r.label == SAFE)
    payload = {
        "report": "classification",
        "version": io_mod.VERSION,
        "kind": _classifier(config).kind,
        "n": n,
        "n_s": n_s,
        "n_u": sum(1 for r in labeled if r.label == UNSAFE),
        "p_hat_s": n_s / n if n else 0.0,
        "reclassified": None if flags is None else int(sum(flags.values())),
        "out": str(args.out),
    }
    sys.stdout.write(io_mod.emit_report(payload, args.format))
    return violations


def cmd_sample(args) -> list[str]:
    if not args.out:
        raise io_mod.ConfigError("sample needs --out to write the updated campaign")
    config = _load(args)
    records, violations = io_mod.load_campaign(args.campaign, strict=args.strict)
    safe_ids = [r.dop_id for r in records if r.label == SAFE]
    if not safe_ids:
        raise io_mod.CampaignError("campaign has no safe records to sample from")
    mask = draw_sample(safe_ids, config.partition.q, config.seed)
    chosen = dict(zip(safe_ids, mask))
    updated = [
        relabel(r, r.label, bool(chosen[r.dop_id])) if r.label == SAFE else r
        for r in records
    ]
    io_mod.save_campaign(updated, args.out)
    n_s = len(safe_ids)
    counted = int(mask.sum())
    payload = {
        "report": "sample",
        "version": io_mod.VERSION,
        "seed": config.seed,
        "q": config.partition.q,
        "n_s": n_s,
        "counted": counted,
        "q_effective": counted / n_s,
        "out": str(args.out),
    }
    sys.stdout.write(io_mod.emit_report(payload, args.format))
    return violations


def _details_csv(records: list[DopRecord], report) -> str:
    """Per-record CSV so the aggregation can be redone in a spreadsheet.

    A record is evaluable when its weight is not "0": every record of the
    classic test, else the unsafe and the counted safe records.
    """
    stats = report.stats
    classic = stats.n_s == 0  # every record counted, as in the classic test
    weight_s = f"{1.0 / stats.q_effective:.12g}"
    weights = [
        "1" if classic or r.label == UNSAFE else weight_s if r.sampled else "0"
        for r in records
    ]
    d_i = iter(_differences([r for r, w in zip(records, weights) if w != "0"], stats.m_hat_q))
    buf = _stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dop_id", "d_i", "stratum", "weight"])
    for r, weight in zip(records, weights):
        d = "" if weight == "0" else f"{next(d_i):.12g}"
        writer.writerow([r.dop_id, d, io_mod._LABEL_TO_CSV[r.label], weight])
    return buf.getvalue()


def cmd_evaluate(args) -> list[str]:
    config = _load(args)
    records, violations = io_mod.load_campaign(args.campaign, strict=args.strict)
    labeled = [r for r in records if r.label != UNLABELED]
    if args.mode == "classic":
        mode = "classic"
    elif args.mode == "partitioned":
        mode = "partitioned"
    elif not labeled:
        mode = "classic"
    elif len(labeled) == len(records):
        mode = "partitioned"
    else:
        unl = [r.dop_id for r in records if r.label == UNLABELED]
        raise io_mod.CampaignError(
            f"campaign is partially labeled, records without label: {', '.join(unl)}"
        )
    if mode == "classic":
        report = evaluate_classic(records, config.params)
    else:
        report = evaluate_partitioned(records, config.params, q_planned=config.partition.q)

    _emit(args, report, mode=mode, seed=config.seed, params=config.params)

    details_path = args.details
    if details_path is None and args.out:
        details_path = str(Path(args.out)) + ".details.csv"
    if details_path:
        Path(details_path).write_text(_details_csv(records, report), encoding="utf-8")
    return [*violations, *report.warnings]


def _number_list(text: str, flag: str, integer: bool = False) -> tuple:
    try:
        values = tuple(
            (int if integer else float)(v) for v in text.split(",") if v.strip() != ""
        )
    except ValueError:
        kind = "integer" if integer else "number"
        raise io_mod.ConfigError(f"{flag} must be a comma-separated {kind} list") from None
    if not all(math.isfinite(v) for v in values):
        raise io_mod.ConfigError(f"{flag} values must be finite, got {text!r}")
    return values


def cmd_simulate(args) -> list[str]:
    config = _load(args)
    n_values = _number_list(args.n_grid, "--n-grid", integer=True)
    bias = _number_list(args.bias_grid, "--bias-grid") if args.bias_grid else None
    if args.pool_s or args.pool_u:
        model: simulate.NormalErrors | simulate.ResamplingErrors = simulate.ResamplingErrors(
            pool_s=_number_list(args.pool_s, "--pool-s") if args.pool_s else (),
            pool_u=_number_list(args.pool_u, "--pool-u") if args.pool_u else (),
        )
    else:
        model = simulate.planning_normal_model(config.params.nu, config.partition)
    sim = simulate.SimConfig(
        error_model=model,
        params=config.params,
        partition=config.partition,
        n_values=n_values,
        bias_sweep=bias,
        trials=args.trials,
        test=args.test,
        seed=config.seed,
    )
    if args.audit:
        audit = {"report": "user_risk_audit", "version": io_mod.VERSION,
                 "points": simulate.user_risk_audit(sim)}
        _emit(args, audit, seed=config.seed, trials=args.trials, test=args.test,
              bias_sweep=list(bias or ()))
        return []
    curves = simulate.run_simulation(sim)
    if len(curves) == 1:
        _emit(args, curves[0])
    else:
        _emit(args, {"report": "success_curves", "version": io_mod.VERSION,
                     "curves": [io_mod.report_to_dict(c) for c in curves]})
    return []


def cmd_cost(args) -> list[str]:
    config = _load(args)
    records, violations = io_mod.load_campaign(args.campaign, strict=args.strict)
    breakdown = _cost_params(records, config)
    _emit(args, breakdown)
    return [*violations, *breakdown.warnings]


_COMMANDS = {
    "plan": cmd_plan,
    "optimize": cmd_optimize,
    "classify": cmd_classify,
    "sample": cmd_sample,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "cost": cmd_cost,
}


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
    parser = build_parser()
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else argv))
    try:
        warnings = _COMMANDS[args.command](args)
    except (io_mod.CampaignError, io_mod.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:
        print(f"error: a result is out of range for these settings ({exc})", file=sys.stderr)
        return 1
    sys.stderr.writelines(f"warning: {message}\n" for message in warnings)
    return 0


if __name__ == "__main__":
    sys.exit(main())
