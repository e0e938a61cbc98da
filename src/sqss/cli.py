"""Command-line interface for experiments, sweeps, and exact probabilities.

Exit codes: 0 success, 1 an experiment aborted because a trial raised an
error (the message names the trial and its derived seed), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adversary import UnsupportedAttackError, catalog_ids
from .em_analysis import constrained_search
from .harness import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    config_from_dict,
    load_config,
    monte_carlo,
    stats_to_dict,
    write_report,
)
from .oracle import detection_oracle

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_CONFIG = 2


def _emit(data: dict, path: str | None) -> None:
    blob = json.dumps(data, sort_keys=True, indent=2)
    if path:
        try:
            Path(path).write_text(blob + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output to {path}: {exc}") from exc
    else:
        print(blob)


def _cmd_run(args) -> int:
    if args.format != "json" and not args.output:
        raise ConfigError("csv output requires --output")
    config = load_config(args.config)
    stats, digests = monte_carlo(config)
    if args.output:
        write_report(config, stats, digests, args.format, args.output)
    else:
        _emit(stats_to_dict(config, stats, digests), None)
    return EXIT_OK


def _basic_config(protocol: str, attack: str | None, size: int, trials: int,
                  seed: int) -> ExperimentConfig:
    data = {"protocol": protocol, "trials": trials, "seed": seed, "attack": attack,
            "params": ({"n": size, "m": 2 * size} if protocol.upper() == "A"
                       else {"n": size})}
    return config_from_dict(data)


def _cmd_sweep(args) -> int:
    attacks = (catalog_ids(args.protocol) if args.attacks == "all"
               else args.attacks.split(","))
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for attack in attacks:
        for size in sizes:
            config = _basic_config(args.protocol, attack, size, args.trials, args.seed)
            stats, _ = monte_carlo(config)
            for s in stats.per_check.values():
                rows.append({"attack": attack, "size": size, "check": s.check_id,
                             "compared": s.compared, "rate": s.rate,
                             "abort_fraction": stats.abort_fraction})
    _emit({"protocol": args.protocol.upper(), "rows": rows}, args.output)
    return EXIT_OK


def _cmd_attack_bench(args) -> int:
    rows = []
    for attack in catalog_ids(args.protocol):
        protocol = attack[0].upper()
        oracle = detection_oracle(protocol, attack)
        config = _basic_config(protocol, attack, args.size, args.trials, args.seed)
        stats, _ = monte_carlo(config)
        for check, exact in oracle.items():
            s = stats.check(check)
            rows.append({"attack": attack, "check": check,
                         "oracle": f"{exact.numerator}/{exact.denominator}",
                         "oracle_value": float(exact), "compared": s.compared,
                         "empirical": s.rate,
                         "within_ci": s.ci_low <= float(exact) <= s.ci_high
                                      if s.compared else None})
    _emit({"rows": rows}, args.output)
    return EXIT_OK


def _cmd_tradeoff(args) -> int:
    rows = []
    for eps in (float(e) for e in args.epsilons.split(",")):
        point = constrained_search(args.mode.upper(), eps, probe_dim=args.probe_dim,
                                   restarts=args.restarts, iters=args.iters,
                                   seed=args.seed)
        rows.append({"mode": point.mode, "epsilon": point.epsilon,
                     "probe_dim": point.probe_dim, "info": point.info,
                     "max_error": point.max_error, "restarts": point.restarts,
                     "seed": args.seed, "fallback": point.fallback})
    _emit({"rows": rows}, args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    table = detection_oracle(args.protocol.upper(), args.attack)
    _emit({"attack": args.attack,
           "checks": {check: f"{p.numerator}/{p.denominator}"
                      for check, p in table.items()}}, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqss",
        description="Simulator and security analysis for two circular "
                    "semi-quantum secret-sharing protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment from a JSON config file")
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--output", help="report path (default: print JSON to stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="cross-product of attacks x batch sizes")
    p.add_argument("--protocol", choices=("a", "b", "A", "B"), required=True)
    p.add_argument("--attacks", default="all",
                   help="comma-separated attack ids, or 'all'")
    p.add_argument("--sizes", default="50,100", help="comma-separated n values")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("attack-bench",
                       help="compare the whole catalog against exact probabilities")
    p.add_argument("--protocol", choices=("a", "b", "A", "B"), default=None)
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_attack_bench)

    p = sub.add_parser("tradeoff", help="error-budget vs probe-information sweep")
    p.add_argument("--mode", choices=("a", "b", "A", "B"), required=True)
    p.add_argument("--epsilons", default="0,0.05,0.1,0.25")
    p.add_argument("--probe-dim", type=int, default=2)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("oracle", help="print exact per-check probabilities")
    p.add_argument("--protocol", choices=("a", "b", "A", "B"), required=True)
    p.add_argument("--attack", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnsupportedAttackError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentAborted as exc:
        print(f"experiment aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
