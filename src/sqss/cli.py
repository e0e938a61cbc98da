"""Command-line interface for experiments, sweeps, and exact probabilities.

Exit codes: 0 success, 1 an experiment aborted because a trial raised an
error (the message names the trial and its derived seed), 2 configuration error,
an unwritable ``--output`` included; each prints one line, not a traceback.
Arguments are checked before any work, list options whole: ``sweep`` and
``attack-bench`` build every config and ``tradeoff`` checks every epsilon.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .adversary import UnsupportedAttackError, catalog_ids
from .em_analysis import check_search_args, constrained_search
from .harness import (
    PROTOCOLS,
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    config_from_dict,
    load_config,
    monte_carlo,
    write_json,
    write_report,
)
from .oracle import detection_oracle

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_CONFIG = 2


def _check_output_path(path: str | None) -> None:
    """Reject, before any work runs, an output path that names a directory or
    lies in a missing one."""
    if not path:
        return
    if Path(path).is_dir():
        raise ConfigError(f"cannot write output to {path}: it is a directory")
    if not Path(path).parent.is_dir():
        raise ConfigError(f"cannot write output to {path}: "
                          f"no directory {Path(path).parent}")


def _parse_items(option: str, text: str, parse, kind: str) -> list:
    """The comma-separated items of ``option``, each read by ``parse``; an
    item it cannot read is a config error naming the option and the item."""
    items = []
    for item in text.split(","):
        try:
            items.append(parse(item))
        except ValueError:
            raise ConfigError(f"{option} item {item!r} is not {kind}") from None
    return items


def _cmd_run(args) -> int:
    config = load_config(args.config)
    write_report(config, *monte_carlo(config), args.format, args.output)
    return EXIT_OK


def _basic_config(protocol: str, attack: str | None, size: int, trials: int,
                  seed: int) -> ExperimentConfig:
    params = {"n": size, "m": 2 * size} if protocol == "A" else {"n": size}
    return config_from_dict({"protocol": protocol, "trials": trials, "seed": seed,
                             "attack": attack, "params": params})


def _cmd_sweep(args) -> int:
    attacks = (catalog_ids(args.protocol) if args.attacks == "all"
               else args.attacks.split(","))
    sizes = _parse_items("--sizes", args.sizes, int, "an integer")
    configs = [(attack, size, _basic_config(args.protocol, attack, size, args.trials, args.seed))
               for attack in attacks for size in sizes]
    rows = []
    for attack, size, config in configs:
        stats, _ = monte_carlo(config)
        for s in stats.per_check.values():
            rows.append({"attack": attack, "size": size, "check": s.check_id,
                         "compared": s.compared, "rate": s.rate,
                         "abort_fraction": stats.abort_fraction})
    write_json({"protocol": args.protocol, "rows": rows}, args.output)
    return EXIT_OK


def _cmd_attack_bench(args) -> int:
    configs = {attack: _basic_config(attack[0].upper(), attack, args.size, args.trials,
                                     args.seed)
               for attack in catalog_ids(args.protocol)}
    rows = []
    for attack, config in configs.items():
        oracle = detection_oracle(config.protocol, attack)
        stats, _ = monte_carlo(config)
        for check, exact in oracle.items():
            s = stats.check(check)
            rows.append({"attack": attack, "check": check,
                         "oracle": f"{exact.numerator}/{exact.denominator}",
                         "oracle_value": float(exact), "compared": s.compared,
                         "empirical": s.rate,
                         "within_ci": s.ci_low <= float(exact) <= s.ci_high
                                      if s.compared else None})
    write_json({"rows": rows}, args.output)
    return EXIT_OK


def _cmd_tradeoff(args) -> int:
    epsilons = _parse_items("--epsilons", args.epsilons, float, "a number")
    for eps in epsilons:
        check_search_args(args.mode, eps, args.probe_dim, args.restarts, args.iters, args.seed)
    rows = []
    for eps in epsilons:
        point = constrained_search(args.mode, eps, probe_dim=args.probe_dim,
                                   restarts=args.restarts, iters=args.iters,
                                   seed=args.seed)
        rows.append({"mode": point.mode, "epsilon": point.epsilon,
                     "probe_dim": point.probe_dim, "info": point.info,
                     "max_error": point.max_error, "restarts": point.restarts,
                     "iters": point.iterations, "seed": args.seed,
                     "fallback": point.fallback})
    write_json({"rows": rows}, args.output)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    table = detection_oracle(args.protocol, args.attack)
    write_json({"attack": args.attack,
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
    p.add_argument("--output", help="report path (default: print to stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="cross-product of attacks x batch sizes")
    p.add_argument("--protocol", type=str.upper, choices=PROTOCOLS, required=True)
    p.add_argument("--attacks", default="all",
                   help="comma-separated attack ids, or 'all'")
    p.add_argument("--sizes", default="50,100", help="comma-separated n values")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("attack-bench",
                       help="compare the whole catalog against exact probabilities")
    p.add_argument("--protocol", type=str.upper, choices=PROTOCOLS, default=None)
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_attack_bench)

    p = sub.add_parser("tradeoff", help="error-budget vs probe-information sweep")
    p.add_argument("--mode", type=str.upper, choices=PROTOCOLS, required=True)
    p.add_argument("--epsilons", default="0,0.05,0.1,0.25")
    p.add_argument("--probe-dim", type=int, default=2)
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_tradeoff)

    p = sub.add_parser("oracle", help="print exact per-check probabilities")
    p.add_argument("--protocol", type=str.upper, choices=PROTOCOLS, required=True)
    p.add_argument("--attack", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_path(args.output)
        return args.func(args)
    except (ConfigError, UnsupportedAttackError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ExperimentAborted as exc:
        print(f"experiment aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
