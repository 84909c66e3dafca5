"""Command-line front end.

Subcommands map one-to-one onto the optimization engines; every run
prints a human-readable summary to stdout and writes a structured
result file (CSV by default).  Exit codes: 0 on success, 2 when the
target is infeasible, 1 on any error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .config import ConfigError, RunConfig, load_config, show_config, validate
from .driver import (
    SweepAxis,
    breakdown_records,
    compare_rsa,
    result_record,
    run_problem,
    sweep,
)
from .results import emit_results


def _build_parser() -> argparse.ArgumentParser:
    # --config is accepted before and after the subcommand; SUPPRESS keeps
    # a subcommand that was not given one from resetting the top-level value
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", default=argparse.SUPPRESS,
                        help="path to a configuration file")
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--out", help="structured result file path "
                                      "(default: <command>.<format>)")
    common.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    common.add_argument("--target", type=float,
                        help="override the target metric from the config")

    parser = argparse.ArgumentParser(
        prog="coldstack", parents=[config],
        description="Full-stack power modeling and constrained power "
                    "minimization for cryogenic quantum computers.")
    parser.add_argument("--show-config", action="store_true",
                        help="print the resolved configuration and exit")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("optimize-1qb", parents=[common],
                   help="minimize single-gate power")
    sub.add_parser("optimize-nisq", parents=[common], help="minimize circuit power")
    sub.add_parser("optimize-ft", parents=[common],
                   help="minimize fault-tolerant power")
    p = sub.add_parser("sweep", parents=[common],
                       help="optimize over a parameter grid")
    p.add_argument("--sweep", action="append", required=True, metavar="AXIS",
                   help="axis spec key=start:stop:points[:log], the key as "
                        "section.key or the config field name; repeatable")
    p = sub.add_parser("compare-rsa", parents=[common],
                       help="quantum vs classical factoring table")
    p.add_argument("--n", default="512:4096:8:log", metavar="RANGE",
                   help="key sizes as start:stop:points[:log]")
    sub.add_parser("breakdown", parents=[common],
                   help="per-stage power decomposition of the optimum")
    return parser


def _load(args) -> RunConfig:
    path = getattr(args, "config", None)
    cfg = load_config(path) if path else RunConfig()
    if getattr(args, "target", None) is not None:
        cfg = cfg.replace(target_metric=args.target)
    return cfg


def _kind_for(command: str, cfg: RunConfig) -> RunConfig:
    if command == "optimize-1qb":
        return cfg.replace(workload_kind="gate")
    if command == "optimize-nisq":
        return cfg.replace(workload_kind="nisq")
    if (command in ("optimize-ft", "breakdown")
            and cfg.workload_kind not in ("rsa", "rectangular")):
        return cfg.replace(workload_kind="rsa")
    return cfg


def _summarize(cfg: RunConfig, result) -> None:
    if not result.feasible:
        print("INFEASIBLE:", result.diagnostic)
        return
    c = result.control
    print(f"minimum power: {result.power_w:.4e} W")
    print(f"achieved metric: {result.metric_achieved:.9f} "
          f"(target {cfg.target_metric:.9f})")
    parts = []
    if c.t_qb is not None:
        parts.append(f"T_qb = {c.t_qb:.4g} K")
    if c.t_gen is not None:
        parts.append(f"T_gen = {c.t_gen:.4g} K")
    if c.a_total is not None:
        parts.append(f"attenuation = {10*math.log10(c.a_total):.2f} dB "
                     f"({c.a_total:.4g})")
    if c.k is not None:
        parts.append(f"concatenation level = {c.k}")
    if c.m is not None:
        parts.append(f"compression = {c.m}")
    print("operating point:", ", ".join(parts))
    print(f"physical qubits: {result.physical_qubits}")
    print(f"per-qubit power: {result.per_qubit_power_w:.4e} W")
    if result.magnification is not None:
        print(f"power magnification A*T_ext/T_qb: {result.magnification:.4e}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.show_config:
        print(show_config(cfg), end="")
        return 0
    if args.command is None:
        parser.print_help()
        return 1
    out = args.out or f"{args.command}.{args.format}"
    try:
        # the kind may change for the command, and its rules with it
        return _dispatch(args, validate(_kind_for(args.command, cfg)), out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, cfg: RunConfig, out: str) -> int:
    if args.command in ("optimize-1qb", "optimize-nisq", "optimize-ft"):
        result = run_problem(cfg)
        _summarize(cfg, result)
        emit_results([result_record(cfg, result)], out, args.format)
        print(f"results written to {out}")
        return 0 if result.feasible else 2
    if args.command == "sweep":
        axes = [SweepAxis.parse(spec) for spec in args.sweep]
        rows = sweep(cfg, axes)
        emit_results(rows, out, args.format)
        feasible = sum(1 for r in rows if r["feasible"])
        print(f"swept {len(rows)} points ({feasible} feasible); "
              f"results written to {out}")
        return 0 if feasible else 2
    if args.command == "compare-rsa":
        values = SweepAxis.parse(f"rsa_n={args.n}").values()
        n_values = sorted({int(round(v)) for v in values})
        rows = compare_rsa(cfg, n_values)
        emit_results(rows, out, args.format)
        for flag, found, missing in (
                ("quantum_more_efficient", "quantum energy advantage",
                 "no quantum energy advantage"),
                ("quantum_faster", "quantum faster", "quantum not faster")):
            hits = [r["rsa_n"] for r in rows if r[flag]]
            print(f"{found} from n = {min(hits)} within the scanned range" if hits
                  else f"{missing} in the scanned range")
        print(f"results written to {out}")
        return 0 if any(r["feasible"] for r in rows) else 2
    if args.command == "breakdown":
        result = run_problem(cfg)
        _summarize(cfg, result)
        rows = breakdown_records(result)
        if rows:
            print(f"{'T [K]':>10}  {'heat [W]':>12}  {'electric [W]':>12}  source")
        for row in sorted(rows, key=lambda r: (-r["stage_temperature_k"],
                                               r["source"])):
            print(f"{row['stage_temperature_k']:>10.3g}  "
                  f"{row['heat_extracted_w']:>12.3e}  "
                  f"{row['electrical_power_w']:>12.3e}  {row['source']}")
        emit_results(rows, out, args.format)
        print(f"breakdown written to {out}")
        return 0 if result.feasible else 2
    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
