"""Monte Carlo experiment runner, statistics, config ingestion, and reports.

A fixed ExperimentConfig always reproduces the same stream of runs: trial i
executes with the derived seed (master_seed, i), so any subset of trials can
be replayed independently of the rest.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .adversary import AttackSpec, parse_attack_id
from .protocol_a import CHECKS_A, ProtocolAConfig, run_protocol_a
from .protocol_b import CHECKS_B, ProtocolBConfig, run_protocol_b
from .runtime import RunReport


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default z: 95%)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = min(max(center - half, 0.0), p)
    high = max(min(center + half, 1.0), p)
    return (low, high)


class ConfigError(ValueError):
    """A structurally invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: a protocol config, an attack, and a budget."""

    protocol: str
    protocol_config: Union[ProtocolAConfig, ProtocolBConfig]
    attack: Optional[AttackSpec]
    trials: int
    seed: int

    def __post_init__(self):
        if self.protocol not in ("A", "B"):
            raise ConfigError(f"unknown protocol {self.protocol!r}")
        expected = ProtocolAConfig if self.protocol == "A" else ProtocolBConfig
        if not isinstance(self.protocol_config, expected):
            raise ConfigError(f"protocol {self.protocol} needs a {expected.__name__}")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.attack is not None and self.attack.protocol != self.protocol:
            raise ConfigError(f"attack {self.attack.attack_id} does not match "
                              f"protocol {self.protocol}")

    @property
    def attack_id(self) -> str:
        return self.attack.attack_id if self.attack else f"{self.protocol.lower()}.none"

    def describe(self) -> dict:
        cfg = self.protocol_config
        if self.protocol == "A":
            params = {"n": cfg.n, "m": cfg.m, "check_fraction": cfg.check_fraction,
                      "thresholds": dict(cfg.thresholds)}
        else:
            params = {"n": cfg.n, "test_fraction": cfg.test_fraction,
                      "thresholds": dict(cfg.thresholds)}
        return {"protocol": self.protocol, "attack": self.attack_id,
                "trials": self.trials, "seed": self.seed, "params": params}


_A_PARAM_KEYS = {"n", "m", "check_fraction", "thresholds"}
_B_PARAM_KEYS = {"n", "test_fraction", "thresholds"}
_TOP_KEYS = {"protocol", "trials", "seed", "attack", "params"}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed config-file data.

    Unknown keys are errors: silently ignoring a misspelled threshold key
    would change what an experiment measures.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "protocol" not in data:
        raise ConfigError("config needs a protocol")
    protocol = data["protocol"]
    if not isinstance(protocol, str) or protocol.upper() not in ("A", "B"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    protocol = protocol.upper()
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    allowed = _A_PARAM_KEYS if protocol == "A" else _B_PARAM_KEYS
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(f"unknown params keys for protocol {protocol}: {sorted(unknown)}")
    try:
        pconfig = (ProtocolAConfig(**params) if protocol == "A"
                   else ProtocolBConfig(**params))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad protocol params: {exc}") from exc
    attack_id = data.get("attack")
    attack = None
    if attack_id not in (None, "none"):
        try:
            attack = parse_attack_id(str(attack_id))
        except ValueError as exc:
            raise ConfigError(f"bad attack id {attack_id!r}: {exc}") from exc
        if attack.kind == "none":
            attack = None
    return ExperimentConfig(protocol=protocol, protocol_config=pconfig, attack=attack,
                            trials=data.get("trials", 1), seed=data.get("seed", 0))


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


@dataclass(frozen=True)
class CheckStats:
    check_id: str
    compared: int
    mismatches: int
    rate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class DetectionStats:
    """Aggregated results of one experiment."""

    protocol: str
    attack_id: str
    trials: int
    per_check: dict[str, CheckStats]
    abort_fraction: float
    payoff: Optional[dict]

    def check(self, check_id: str) -> CheckStats:
        return self.per_check[check_id]


class ExperimentAborted(RuntimeError):
    """A trial raised an error; carries the trial index and its derived seed,
    so the trial can be replayed alone."""

    def __init__(self, trial: int, seed: tuple[int, int], cause: Exception):
        super().__init__(f"trial {trial} (seed {seed}) failed: "
                         f"{type(cause).__name__}: {cause}")
        self.trial = trial
        self.seed = seed
        self.cause = cause


def trial_seed(config: ExperimentConfig, trial: int) -> tuple[int, int]:
    """The derived seed trial ``trial`` of ``config`` runs with."""
    return _derived_seed(config.seed, trial)


@functools.lru_cache(maxsize=256, typed=True)
def _derived_seed(seed: int, trial: int) -> tuple[int, int]:
    # One tuple per derived seed: a sweep runs trial i under every config,
    # and the reports it keeps then share their seed.
    return (seed, trial)


def run_one(config: ExperimentConfig, trial: int) -> RunReport:
    seed = trial_seed(config, trial)
    if config.protocol == "A":
        return run_protocol_a(config.protocol_config, config.attack, seed)
    return run_protocol_b(config.protocol_config, config.attack, seed)


def monte_carlo(config: ExperimentConfig) -> tuple[DetectionStats, list[str]]:
    """Execute all trials and aggregate exactly; deterministic per config."""
    checks = CHECKS_A if config.protocol == "A" else CHECKS_B
    compared = {c: 0 for c in checks}
    mismatches = {c: 0 for c in checks}
    aborted = 0
    guessed = 0
    correct = 0
    digests = []
    for trial in range(config.trials):
        try:
            report = run_one(config, trial)
        except Exception as exc:
            raise ExperimentAborted(trial, trial_seed(config, trial), exc) from exc
        digests.append(report.transcript_digest)
        for c in report.checks:
            compared[c.check_id] += c.compared
            mismatches[c.check_id] += c.mismatches
        if report.aborted:
            aborted += 1
        elif report.payoff is not None:
            guessed += report.payoff["guessed"]
            correct += report.payoff["correct"]
    per_check = {}
    for c in checks:
        n, k = compared[c], mismatches[c]
        if n > 0:
            low, high = wilson_interval(k, n)
            per_check[c] = CheckStats(c, n, k, k / n, low, high)
        else:
            per_check[c] = CheckStats(c, 0, 0, 0.0, 0.0, 1.0)
    payoff = None
    if config.attack is not None and config.attack.kind not in ("none", "em"):
        payoff = {"surviving_runs": config.trials - aborted,
                  "guessed": guessed, "correct": correct,
                  "fraction": (correct / guessed) if guessed else 0.0}
    stats = DetectionStats(protocol=config.protocol, attack_id=config.attack_id,
                           trials=config.trials, per_check=per_check,
                           abort_fraction=aborted / config.trials, payoff=payoff)
    return stats, digests


# ---------------------------------------------------------------------------
# Reports


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def stats_to_dict(config: ExperimentConfig, stats: DetectionStats,
                  digests: list[str]) -> dict:
    payoff = None
    if stats.payoff is not None:
        payoff = dict(stats.payoff)
        payoff["fraction"] = _sig12(payoff["fraction"])
    return {
        "config": config.describe(),
        "per_check": [
            {"check_id": s.check_id, "compared": s.compared,
             "mismatches": s.mismatches, "rate": _sig12(s.rate),
             "ci_low": _sig12(s.ci_low), "ci_high": _sig12(s.ci_high)}
            for s in stats.per_check.values()
        ],
        "abort_fraction": _sig12(stats.abort_fraction),
        "payoff": payoff,
        "seed": config.seed,
        "digests": digests,
    }


def write_report(config: ExperimentConfig, stats: DetectionStats,
                 digests: list[str], fmt: str, path) -> None:
    """Persist an experiment report; JSON output is byte-stable per config."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}")
    path = Path(path)
    try:
        if fmt == "json":
            blob = json.dumps(stats_to_dict(config, stats, digests),
                              sort_keys=True, indent=2)
            path.write_text(blob + "\n")
        else:
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["check_id", "compared", "mismatches", "rate",
                                 "ci_low", "ci_high"])
                for s in stats.per_check.values():
                    writer.writerow([s.check_id, s.compared, s.mismatches,
                                     _sig12(s.rate), _sig12(s.ci_low), _sig12(s.ci_high)])
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc}") from exc
