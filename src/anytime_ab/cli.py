"""Command-line interface: analyze logs, size experiments, run studies.

Subcommands:
  analyze   stream an event log through one decision rule
  design    anytime and fixed-horizon sample sizes for a binary metric
  simulate  run a Monte Carlo study described by a JSON config
  report    assemble decision records into a cross-tab
"""

import argparse
import json
import os
import sys

from . import design, simlab
from .bayes import DEFAULT_EPSILON, BfConfig, BhtConfig
from .confseq import DEFAULT_RHO2, ConfSeqParams
from .engine import VALUE_TYPES, DecisionRecord, LogParseError, analyze, crosstab
from .gst import SpendingSchedule
from .simlab import SimStudyConfig
from .simlab.studies import HORIZON_MULTIPLES, STOP_QUALITY_PEEKS

STUDIES = ("type1", "power", "lift-power", "rho2-sweep", "mde-misspec", "stop-quality")


# Every key that _study_config or _cmd_simulate reads, with the type of its
# value; any other key is an error. Null stands for the default where that is None.
CONFIG_TYPES = {
    "alpha": "a number",
    "arm_means": "a pair of numbers",
    "design_mde": "a number or null",
    "effects": "a list of numbers",
    "epsilon": "a number",
    "factors": "a list of numbers",
    "horizon": "an integer or null",
    "horizon_multiples": "a list of numbers",
    "lift_grid": "a list of numbers or null",
    "master_seed": "an integer",
    "method": "a string",
    "methods": "a list of strings",
    "num_peeks": "an integer",
    "odds_threshold": "a number",
    "peek_every": "an integer",
    "prior": "a pair of numbers",
    "replications": "an integer",
    "rho2": "a number",
    "rho2_grid": "a list of numbers",
    "theta0": "a number",
    "truth_prior": "a pair of numbers",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anytime-ab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze an event log")
    p_an.add_argument("--log", required=True)
    p_an.add_argument("--method", required=True)
    p_an.add_argument("--alpha", type=float, default=0.05)
    p_an.add_argument("--rho2", type=float, default=DEFAULT_RHO2)
    p_an.add_argument("--theta0", type=float, default=0.0)
    p_an.add_argument("--snapshot-every", type=int, default=100)
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--experiment-id", default=None)
    p_an.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="threshold of caring for bht")
    p_an.add_argument("--schedule", default=None, help="spending schedule JSON for ldm")
    p_an.add_argument("--dedup", action="store_true", help="first event per unit wins")
    p_an.add_argument("--partial", action="store_true", help="log is still collecting")
    p_an.add_argument("--intersect", action="store_true", help="report running intersections")

    p_de = sub.add_parser("design", help="sample-size calculations")
    p_de.add_argument("--p0", type=float, required=True)
    p_de.add_argument("--mde", type=float, required=True)
    p_de.add_argument("--alpha", type=float, default=0.05)
    p_de.add_argument("--power", type=float, default=0.8)
    p_de.add_argument("--rho2", type=float, default=DEFAULT_RHO2)
    p_de.add_argument("--population-cap", type=int, default=design.DEFAULT_POPULATION_CAP)
    p_de.add_argument("--fixed-horizon", action="store_true", help="include the classical n")

    p_si = sub.add_parser("simulate", help="run a Monte Carlo study")
    p_si.add_argument("--study", required=True, choices=STUDIES)
    p_si.add_argument("--config", required=True)
    p_si.add_argument("--seed", type=int, default=None, help="override the config master seed")
    p_si.add_argument("--out", required=True)

    p_re = sub.add_parser("report", help="assemble reports")
    re_sub = p_re.add_subparsers(dest="report_kind", required=True)
    p_ct = re_sub.add_parser("crosstab", help="2x2 verdict agreement table")
    p_ct.add_argument("--decisions", required=True, help="directory of decision JSON files")
    p_ct.add_argument("--out", required=True)

    return parser


def _cmd_analyze(args) -> int:
    params = ConfSeqParams(args.alpha, args.rho2)
    schedule = None
    if args.schedule is not None:
        with open(args.schedule, "r", encoding="utf-8") as fh:
            schedule = SpendingSchedule.from_json(fh.read())
    record, _ = analyze(
        args.log,
        args.method,
        params,
        out_dir=args.out,
        theta0=args.theta0,
        snapshot_every=args.snapshot_every,
        dedup=args.dedup,
        partial=args.partial,
        experiment_id=args.experiment_id,
        bht_config=BhtConfig(epsilon=args.epsilon),
        schedule=schedule,
        intersect=args.intersect,
    )
    print(json.dumps(record.to_dict(), sort_keys=True))
    return 0


def _cmd_design(args) -> int:
    sigma2 = design.variance_guess_binary(args.p0, args.mde)
    spec = design.DesignSpec(
        theta_h1=args.mde,
        sigma2_guess=sigma2,
        alpha=args.alpha,
        power=args.power,
        population_cap=args.population_cap,
    )
    n_star = design.hypothesized_sample_size(spec, ConfSeqParams(args.alpha, args.rho2))
    out = {
        "p0": args.p0,
        "mde": args.mde,
        "alpha": args.alpha,
        "power": args.power,
        "rho2": args.rho2,
        "sigma2_guess": sigma2,
        "hypothesized_n": n_star,
        "feasible": n_star is not None,
    }
    if args.fixed_horizon:
        per_arm = design.fixed_horizon_sample_size(args.p0, args.mde, args.alpha, args.power)
        out["fixed_horizon_n_per_arm"] = per_arm
        out["fixed_horizon_n_total"] = 2 * per_arm
    print(json.dumps(out, sort_keys=True))
    return 0


def _study_config(conf: dict, method: str, seed: int | None) -> SimStudyConfig:
    alpha = conf.get("alpha", 0.05)
    rho2 = conf.get("rho2", DEFAULT_RHO2)
    if method in ("BHT-uninformed", "BHT-matched"):
        prior = conf.get("prior", [1.0, 1.0])
        params = BhtConfig(prior[0], prior[1], conf.get("epsilon", DEFAULT_EPSILON))
    elif method == "BF-uninformed":
        prior = conf.get("prior", [1.0, 1.0])
        params = BfConfig(prior[0], prior[1], conf.get("odds_threshold", 1.0 / alpha))
    else:
        params = ConfSeqParams(alpha, rho2)
    return SimStudyConfig(
        method=method,
        arm_means=tuple(conf["arm_means"]) if "arm_means" in conf else None,
        truth_prior=tuple(conf["truth_prior"]) if "truth_prior" in conf else None,
        replications=conf.get("replications", 2000),
        horizon=conf.get("horizon"),
        peek_every=conf.get("peek_every", 100),
        master_seed=seed if seed is not None else conf.get("master_seed", 0),
        params=params,
        theta0=conf.get("theta0", 0.0),
        design_mde=conf.get("design_mde"),
        design_alpha=alpha,
    )


def _cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError(f"config must be a JSON object, got {type(conf).__name__}")
    unknown = sorted(set(conf) - set(CONFIG_TYPES))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    wrong = [
        f"{key} must be {CONFIG_TYPES[key]}, got {json.dumps(value)}"
        for key, value in sorted(conf.items())
        if not VALUE_TYPES[CONFIG_TYPES[key]](value)
    ]
    if wrong:
        raise ValueError(f"bad config values: {'; '.join(wrong)}")
    methods_list = conf.get("methods") or [conf["method"]]
    reports = []
    for method in methods_list:
        cfg = _study_config(conf, method, args.seed)
        if args.study == "type1":
            reports.append(simlab.run_type1_study(cfg))
        elif args.study == "power":
            reports.append(simlab.run_power_study(cfg, conf.get("horizon_multiples", HORIZON_MULTIPLES)))
        elif args.study == "lift-power":
            out = simlab.run_lift_power_study(
                cfg,
                conf.get("horizon_multiples", HORIZON_MULTIPLES),
                conf.get("lift_grid"),
            )
            reports.extend(out.values())
        elif args.study == "rho2-sweep":
            reports.extend(simlab.run_rho2_sweep(cfg, conf["rho2_grid"]))
        elif args.study == "mde-misspec":
            for factor in conf.get("factors", [1.0]):
                reports.append(simlab.run_mde_misspec_study(conf["effects"], factor, cfg))
        elif args.study == "stop-quality":
            reports.append(simlab.run_stop_quality_study(cfg, num_peeks=conf.get("num_peeks", STOP_QUALITY_PEEKS)))
    os.makedirs(args.out, exist_ok=True)
    simlab.write_json(reports, os.path.join(args.out, "report.json"))
    simlab.write_csv(reports, os.path.join(args.out, "report.csv"))
    return 0


def _cmd_report_crosstab(args) -> int:
    records = []
    for name in sorted(os.listdir(args.decisions)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(args.decisions, name)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                records.append(DecisionRecord.from_dict(json.load(fh)))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    table = crosstab(records)
    payload = table.to_dict()
    payload["table"] = table.format_table()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(table.format_table())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "design":
            return _cmd_design(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "report":
            return _cmd_report_crosstab(args)
    except (LogParseError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
