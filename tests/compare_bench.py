"""Time the Monte Carlo of another checkout's package against this one's, per
protocol and attack family, in microseconds per particle.

    python3 tests/compare_bench.py OTHER_CHECKOUT [--blocks N] [--trials T]

Each block runs one fresh interpreter per side, ``OTHER_CHECKOUT/src`` and
then this checkout's ``src`` as ``PYTHONPATH`` (this one first in odd
blocks), with BLAS on one thread.  Each interpreter times one
``harness.monte_carlo`` call of T trials (default 1000) per config, after one
warm-up trial, and divides by the particles those trials send.  The configs
are each protocol under no attack, ``*.mr.eve.3``, ``*.ir.eve.3`` (the
shapes and default thresholds of perfbench's mc-catalog workload) and an
entangle-measure attack by a seeded ``random_pair`` at probe dimension 2
(perfbench's mc-probe shapes, every threshold 1.0).

Each interpreter first times its ``import sqss.cli``, with NumPy already
loaded, and the JSON reports it apart, in seconds, under ``startup_s``.

A side's figure is the minimum over its N blocks (default 10).  The JSON on
stdout gives both sides' figures, this side's over the other's and in how
many blocks this side was lower, beside both checkouts' commits and the
machine.  It measures and gates nothing: per-protocol end-to-end figures
that perfbench does not report.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import compare_kernels
from compare_kernels import SRC

# perfbench/workloads.py's CATALOG_PARAMS and PROBE_PARAMS.
CATALOG_PARAMS = {"A": {"n": 50, "m": 100}, "B": {"n": 50}}
PROBE_PARAMS = {"A": {"n": 99, "m": 100}, "B": {"n": 80}}
PAIR_SEED = 5


def configs(trials: int) -> dict:
    """Each row's ``ExperimentConfig``, seed 7, keyed ``"<p> <family>"``."""
    from sqss import em_analysis, harness   # the package on this interpreter's PYTHONPATH
    from sqss.adversary import AttackSpec

    checks = {mode: harness.PROTOCOLS[mode].checks for mode in ("A", "B")}
    out = {}
    for mode in ("A", "B"):
        p = mode.lower()
        for family, attack in (("honest", None), ("mr", f"{p}.mr.eve.3"),
                               ("ir", f"{p}.ir.eve.3")):
            out[f"{p} {family}"] = harness.config_from_dict({
                "protocol": mode, "trials": trials, "seed": 7, "attack": attack,
                "params": CATALOG_PARAMS[mode]})
        base = harness.config_from_dict({
            "protocol": mode, "trials": trials, "seed": 7,
            "params": {**PROBE_PARAMS[mode], "thresholds": dict.fromkeys(checks[mode], 1.0)}})
        pair = em_analysis.random_pair(mode, 2, np.random.default_rng(PAIR_SEED))
        out[f"{p} em"] = dataclasses.replace(base, attack=AttackSpec(mode, "em", pair=pair))
    return out


def particles(config) -> int:
    """Particles one trial of ``config`` sends around the ring."""
    c = config.protocol_config
    return c.n + c.m if config.protocol == "A" else 3 * c.n


def worker(trials: int) -> None:
    """Print the seconds ``import sqss.cli`` takes, first thing, and then
    the seconds per particle of each row, as JSON."""
    start = time.perf_counter()
    importlib.import_module("sqss.cli")
    startup = {"import sqss.cli": time.perf_counter() - start}
    from sqss import harness

    times = {}
    for name, config in configs(trials).items():
        harness.run_one(config, 0)
        start = time.perf_counter()
        harness.monte_carlo(config)
        times[name] = (time.perf_counter() - start) / (trials * particles(config))
    print(json.dumps({"startup": startup, "per_particle": times}))


def commit(checkout: Path):
    """The checkout's HEAD and whether its tracked files differ from it, or
    None outside a git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True)
    head = git("rev-parse", "--show-toplevel")
    if head.returncode or Path(head.stdout.strip()).resolve() != checkout.resolve():
        return None
    return {"head": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").stdout)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare against")
    parser.add_argument("--blocks", type=int, default=10, help="blocks per side (default 10)")
    parser.add_argument("--trials", type=int, default=1000,
                        help="trials per config and block (default 1000)")
    args = parser.parse_args(argv)
    other = args.other.resolve() / "src"
    if not (other / "sqss").is_dir():
        print(f"no sqss package under {other}", file=sys.stderr)
        return 2
    for name in ("blocks", "trials"):
        if getattr(args, name) < 1:
            print(f"--{name} must be at least 1, got {getattr(args, name)}", file=sys.stderr)
            return 2
    runs = compare_kernels.alternate(
        other, args.blocks, lambda src: compare_kernels.block(src, __file__, str(args.trials)))

    def section(key: str, unit: str) -> dict:
        return compare_kernels.figures(
            {side: [run[key] for run in side_runs] for side, side_runs in runs.items()}, unit)

    print(json.dumps({
        "what": "min over blocks of the seconds per particle of one harness.monte_carlo "
                "call, in microseconds, and of the wall time of a worker's first "
                "import sqss.cli, in seconds, in fresh interpreters alternating the two "
                "sides, BLAS on one thread",
        "other": str(other.parent), "this": str(SRC.parent),
        "commits": {"other": commit(other.parent), "this": commit(SRC.parent)},
        "blocks": args.blocks, "trials_per_block": args.trials, "pair_seed": PAIR_SEED,
        "machine": compare_kernels.machine(),
        "startup_s": section("startup", "s"),
        "us_per_particle": section("per_particle", "us")}, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(int(sys.argv[2]))
    else:
        sys.exit(main(sys.argv[1:]))
