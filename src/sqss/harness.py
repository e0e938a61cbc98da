"""Monte Carlo experiment runner, statistics, config ingestion, and reports.

A fixed ExperimentConfig always reproduces the same stream of runs: trial i
executes with the derived seed (master_seed, i), so any subset of trials can
be replayed independently of the rest.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

from . import __version__
from .adversary import AttackSpec, attack_id_of, resolve_attack
from .protocol_a import CHECKS_A, ProtocolAConfig, run_protocol_a
from .protocol_b import CHECKS_B, ProtocolBConfig, run_protocol_b
from .runtime import RunReport, check_int


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


class _Protocol(NamedTuple):
    """What the harness needs of one protocol."""

    config: type                        # its params dataclass
    run: Callable[..., RunReport]       # run(params, attack, seed)
    checks: tuple[str, ...]


# Each protocol's config class, runner and checks.  The runners look up
# their module binding per call, so a tracer that rebinds it sees the call.
PROTOCOLS = {
    "A": _Protocol(ProtocolAConfig, lambda *args: run_protocol_a(*args), CHECKS_A),
    "B": _Protocol(ProtocolBConfig, lambda *args: run_protocol_b(*args), CHECKS_B),
}
_PROTOCOL_OF = {entry.config: name for name, entry in PROTOCOLS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: a protocol config (whose type names the
    protocol), an attack, and a budget."""

    protocol_config: Union[ProtocolAConfig, ProtocolBConfig]
    attack: Optional[AttackSpec]
    trials: int
    seed: int

    def __post_init__(self):
        if type(self.protocol_config) not in _PROTOCOL_OF:
            raise ConfigError(f"not a protocol config: {self.protocol_config!r}")
        try:
            check_int("trials", self.trials, 1)
            check_int("seed", self.seed, 0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.attack is not None and self.attack.protocol != self.protocol:
            raise ConfigError(f"attack {self.attack.attack_id} does not match "
                              f"protocol {self.protocol}")

    @property
    def protocol(self) -> str:
        return _PROTOCOL_OF[type(self.protocol_config)]

    @property
    def attack_id(self) -> str:
        return attack_id_of(self.attack, self.protocol)

    def describe(self) -> dict:
        return {"protocol": self.protocol, "attack": self.attack_id,
                "trials": self.trials, "seed": self.seed,
                "params": dataclasses.asdict(self.protocol_config)}


# No "output" key: a report goes where ``--output`` says.
_TOP_KEYS = {"protocol", "trials", "seed", "attack", "params"}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from parsed config-file data.

    Unknown keys are errors: silently ignoring a misspelled threshold key
    would change what an experiment measures.  The allowed params are the
    fields of the protocol's config class.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "protocol" not in data:
        raise ConfigError("config needs a protocol")
    protocol = data["protocol"]
    if not isinstance(protocol, str) or protocol.upper() not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {protocol!r}")
    protocol = protocol.upper()
    config_class = PROTOCOLS[protocol].config
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    unknown = set(params) - {f.name for f in dataclasses.fields(config_class)}
    if unknown:
        raise ConfigError(f"unknown params keys for protocol {protocol}: {sorted(unknown)}")
    try:
        pconfig = config_class(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad protocol params: {exc}") from exc
    attack_id = data.get("attack")
    try:
        attack = resolve_attack(protocol, attack_id)
    except ValueError as exc:
        raise ConfigError(f"bad attack id {attack_id!r}: {exc}") from exc
    return ExperimentConfig(pconfig, attack, trials=data.get("trials", 1),
                            seed=data.get("seed", 0))


def _unique_keys(pairs) -> dict:
    """A JSON object's members; a repeated key is an error, not a last-wins."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config repeats the key {key!r}")
        data[key] = value
    return data


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError) as exc:
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


@functools.lru_cache(maxsize=256, typed=True)
def trial_seed(seed: int, trial: int) -> tuple[int, int]:
    """The derived seed trial ``trial`` of an experiment seeded ``seed`` runs
    with.  It is one tuple per derived seed: the benchmark's mc ops run trial
    i under every config and keep each report, so the reports share their
    seed.  ``monte_carlo``, and so a sweep, keeps only the digests."""
    return (seed, trial)


def run_one(config: ExperimentConfig, trial: int) -> RunReport:
    return PROTOCOLS[config.protocol].run(config.protocol_config, config.attack,
                                          trial_seed(config.seed, trial))


def monte_carlo(config: ExperimentConfig) -> tuple[DetectionStats, list[str]]:
    """Execute all trials and aggregate exactly; deterministic per config."""
    checks = PROTOCOLS[config.protocol].checks
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
            raise ExperimentAborted(trial, trial_seed(config.seed, trial), exc) from exc
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
    if config.attack is not None and config.attack.pair is None:
        payoff = {"surviving_runs": config.trials - aborted,
                  "guessed": guessed, "correct": correct,
                  "fraction": (correct / guessed) if guessed else 0.0}
    stats = DetectionStats(per_check=per_check, abort_fraction=aborted / config.trials,
                           payoff=payoff)
    return stats, digests


# ---------------------------------------------------------------------------
# Reports


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


# Version of the report layout below.  2: the reports name their schema and
# the sqss version, and the digests hash v2 transcripts (keys and payoff).
REPORT_SCHEMA = 2


def stats_to_dict(config: ExperimentConfig, stats: DetectionStats,
                  digests: list[str]) -> dict:
    payoff = None
    if stats.payoff is not None:
        payoff = dict(stats.payoff)
        payoff["fraction"] = _sig12(payoff["fraction"])
    return {
        "report_schema": REPORT_SCHEMA,
        "sqss_version": __version__,
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


def write_json(data: dict, path=None) -> None:
    """Write ``data`` as sorted JSON indented by 2, with a final newline, to
    ``path`` or, without one, to stdout."""
    _write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as is or, without one, to stdout."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output to {path}: {exc}") from exc


def write_report(config: ExperimentConfig, stats: DetectionStats,
                 digests: list[str], fmt: str, path) -> None:
    """Persist an experiment report as ``fmt`` ("json" or "csv") to ``path``,
    or to stdout when ``path`` is None; output is byte-stable per config."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}")
    data = stats_to_dict(config, stats, digests)
    if fmt == "json":
        write_json(data, path)
        return
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(data["per_check"][0]))
    writer.writeheader()
    writer.writerows(data["per_check"])
    _write_text(path, out.getvalue())
