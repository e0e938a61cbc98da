"""Tests for the Monte Carlo harness: stats, config ingestion, reports."""

import json
from fractions import Fraction

import numpy as np
import pytest

from sqss import harness
from sqss.harness import (
    ConfigError,
    ExperimentAborted,
    ExperimentConfig,
    config_from_dict,
    load_config,
    monte_carlo,
    run_one,
    stats_to_dict,
    wilson_interval,
    write_report,
)
from sqss.adversary import AttackSpec, parse_attack_id
from sqss.em_analysis import random_pair
from sqss.oracle import detection_oracle
from sqss.protocol_a import CHECKS_A, ProtocolAConfig, run_protocol_a
from sqss.protocol_b import CHECKS_B, ProtocolBConfig, run_protocol_b


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    # wider at smaller sample sizes
    narrow = wilson_interval(500, 1000)
    wide = wilson_interval(5, 10)
    assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_interval_contains_point_estimate():
    for k, n in [(0, 7), (3, 7), (7, 7), (1, 1000)]:
        low, high = wilson_interval(k, n)
        assert low <= k / n <= high


def test_config_from_dict_minimal():
    config = config_from_dict({"protocol": "a", "params": {"n": 5, "m": 12}})
    assert config.protocol == "A"
    assert config.trials == 1
    assert config.attack is None
    assert config.attack_id == "a.none"


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": "A", "params": {"n": 5, "m": 12}, "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": "A", "params": {"n": 5, "m": 12, "trials": 3}})
    with pytest.raises(ConfigError):
        # threshold spelled wrong must not be silently dropped
        config_from_dict({"protocol": "B", "params": {"n": 8, "treshold": {}}})


@pytest.mark.parametrize("top", [{"trials": 2.9}, {"trials": True}, {"seed": -1}],
                         ids=["float-trials", "bool-trials", "negative-seed"])
def test_config_from_dict_rejects_inexact_top_level_ints(top):
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": "A", "params": {"n": 5, "m": 12}, **top})


@pytest.mark.parametrize("protocol, checks, params", [
    ("A", CHECKS_A, {"n": 5, "m": 12}),
    ("B", CHECKS_B, {"n": 8}),
], ids=["A", "B"])
@pytest.mark.parametrize("key, value", [("bogus", 0.05), (None, float("nan")),
                                        (None, -0.01), (None, 1.5)],
                         ids=["unknown-key", "nan", "negative", "above-one"])
def test_config_from_dict_rejects_bad_thresholds(protocol, checks, params, key, value):
    thresholds = dict.fromkeys(checks, 0.05)
    thresholds[key or checks[0]] = value
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": protocol,
                          "params": {**params, "thresholds": thresholds}})


@pytest.mark.parametrize("protocol, params, field", [
    ("A", {"n": "3", "m": 12}, "n"),
    ("A", {"n": True, "m": 12}, "n"),
    ("A", {"n": 3.5, "m": 12}, "n"),
    ("A", {"n": 5, "m": 12.0}, "m"),
    ("A", {"n": 5, "m": 12, "check_fraction": True}, "check_fraction"),
    ("A", {"n": 5, "m": 12, "check_fraction": "0.5"}, "check_fraction"),
    ("B", {"n": "3"}, "n"),
    ("B", {"n": True}, "n"),
    ("B", {"n": 3.5}, "n"),
    ("B", {"n": 8, "test_fraction": True}, "test_fraction"),
], ids=["a-str-n", "a-bool-n", "a-float-n", "a-float-m", "a-bool-fraction",
        "a-str-fraction", "b-str-n", "b-bool-n", "b-float-n", "b-bool-fraction"])
def test_config_from_dict_rejects_mistyped_protocol_params(protocol, params, field):
    with pytest.raises(ConfigError, match=f"^bad protocol params: {field} must be "
                                          f"(an integer|a real number), got"):
        config_from_dict({"protocol": protocol, "params": params})


def test_monte_carlo_failure_names_trial_and_seed(monkeypatch):
    config = config_from_dict({"protocol": "A", "trials": 4, "seed": 7,
                               "params": {"n": 6, "m": 14}})
    real_run_one = harness.run_one

    def flaky(cfg, trial):
        if trial == 2:
            raise ZeroDivisionError("division by zero")
        return real_run_one(cfg, trial)

    monkeypatch.setattr(harness, "run_one", flaky)
    with pytest.raises(ExperimentAborted) as info:
        monte_carlo(config)
    exc = info.value
    assert (exc.trial, exc.seed) == (2, (7, 2))
    assert "trial 2 (seed (7, 2))" in str(exc) and "ZeroDivisionError" in str(exc)
    assert isinstance(exc.__cause__, ZeroDivisionError)


def test_config_from_dict_rejects_mismatched_attack():
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": "A", "params": {"n": 5, "m": 12},
                          "attack": "b.mr.bob"})
    with pytest.raises(ConfigError):
        config_from_dict({"protocol": "A", "params": {"n": 5, "m": 12},
                          "attack": "a.garbage"})


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(protocol="A", protocol_config=ProtocolBConfig(n=8),
                         attack=None, trials=5, seed=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(protocol="A",
                         protocol_config=ProtocolAConfig(n=5, m=12),
                         attack=None, trials=0, seed=0)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"protocol": "b", "trials": 3, "seed": 7,
                                "attack": "b.mr.bob", "params": {"n": 10}}))
    config = load_config(path)
    assert config.protocol == "B"
    assert config.trials == 3
    assert config.attack.attack_id == "b.mr.bob"
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_run_one_uses_derived_trial_seeds():
    config = config_from_dict({"protocol": "A", "seed": 4,
                               "params": {"n": 6, "m": 14}})
    r0 = run_one(config, 0)
    r1 = run_one(config, 1)
    assert r0.transcript_digest != r1.transcript_digest
    assert run_one(config, 0).transcript_digest == r0.transcript_digest


def test_monte_carlo_honest_statistics():
    # a batch large enough that no case comes up empty (an empty check is
    # inconclusive and aborts the run)
    config = config_from_dict({"protocol": "A", "trials": 10, "seed": 1,
                               "params": {"n": 16, "m": 40}})
    stats, digests = monte_carlo(config)
    assert len(digests) == 10
    assert stats.abort_fraction == 0.0
    assert stats.payoff is None
    for check in ("case1", "case2", "case3", "case4"):
        s = stats.check(check)
        assert s.mismatches == 0
        assert s.ci_low == 0.0


def test_monte_carlo_is_deterministic():
    config = config_from_dict({"protocol": "B", "trials": 5, "seed": 3,
                               "attack": "b.mr.bob", "params": {"n": 10}})
    first = monte_carlo(config)
    second = monte_carlo(config)
    assert first[1] == second[1]
    assert stats_to_dict(config, *first) == stats_to_dict(config, *second)


def test_monte_carlo_attack_rate_matches_exact_probability():
    config = config_from_dict({"protocol": "B", "trials": 40, "seed": 6,
                               "attack": "b.mr.charlie",
                               "params": {"n": 20, "thresholds": {
                                   "ctrl": 1.0, "test_b": 1.0, "test_c": 1.0}}})
    stats, _ = monte_carlo(config)
    exact = detection_oracle("B", "b.mr.charlie")
    assert exact["ctrl"] == Fraction(1, 4)
    s = stats.check("ctrl")
    assert s.ci_low <= 0.25 <= s.ci_high
    assert stats.payoff["surviving_runs"] == 40


def test_write_report_json_is_byte_stable(tmp_path):
    config = config_from_dict({"protocol": "A", "trials": 4, "seed": 2,
                               "params": {"n": 6, "m": 14}})
    stats, digests = monte_carlo(config)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(config, stats, digests, "json", p1)
    write_report(config, stats, digests, "json", p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["config"]["protocol"] == "A"
    assert len(data["digests"]) == 4


def test_write_report_csv(tmp_path):
    config = config_from_dict({"protocol": "B", "trials": 2,
                               "params": {"n": 8}})
    stats, digests = monte_carlo(config)
    path = tmp_path / "out.csv"
    write_report(config, stats, digests, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("check_id,")
    assert len(lines) == 4  # header + one row per check
    with pytest.raises(ConfigError):
        write_report(config, stats, digests, "xml", tmp_path / "out.xml")


# Transcript digests and payoffs of one trial per attack, pinned from the
# per-particle engine the array engine replaced: the two must make the same
# RNG draws in the same order.  Thresholds of 1.0 let every run score its payoff.
PINNED_RUNS = [
    ("a.none", "9afa32acab3637a57de6e0c54cb5ca59cc05e7037c882e2b26d0c9612b01d3aa", None),
    ("a.ir.bob", "1d1ccef13688fd4f7397ece187103f809f208615685333053a6b046848b4442b",
     {"target": "k_c", "guessed": 6, "correct": 6, "fraction": 1.0}),
    ("a.mr.charlie.1", "2ff0e33cd2c9612299104a358bdf03ed2cb7a0391394cb44ed579091931fef26",
     {"target": "k_b", "guessed": 6, "correct": 6, "fraction": 1.0}),
    ("b.none", "79a0b7a132c07732c6583b76c23a32d733046a3c89036ce501426c7ba6afeadc", None),
    ("b.ir.charlie", "5611610f84a5830b7b1dfee4a79f1c1675b7926ae592e039987f85747ddf84fa",
     {"target": "k_b", "guessed": 8, "correct": 8, "fraction": 1.0}),
    ("b.mr.eve.3", "7c916b333d273951aa1210a9e67f693b678ac959ec9552b13852ea0a63e83da7",
     {"target": "both", "guessed": 16, "correct": 16, "fraction": 1.0}),
    ("a.em", "1bdde2d2e9cfc0bc51dc2ee74dfea93cf5993fd6eae7f11e28048aee4071806d", None),
    ("b.em", "d6b722f36e6aef880e2481c655f87882157da0f693405eb75470cb36c35b2b66", None),
]


@pytest.mark.parametrize("attack_id, digest, payoff", PINNED_RUNS)
def test_pinned_transcripts(attack_id, digest, payoff):
    mode = attack_id[0].upper()
    if attack_id.endswith(".em"):
        spec = AttackSpec(mode, "em", pair=random_pair(mode, 2, np.random.default_rng(5)))
    else:
        spec = None if attack_id.endswith(".none") else parse_attack_id(attack_id)
    if mode == "A":
        config = ProtocolAConfig(n=20, m=45, thresholds=dict.fromkeys(CHECKS_A, 1.0))
        report = run_protocol_a(config, spec, (3, 1))
    else:
        config = ProtocolBConfig(n=16, thresholds=dict.fromkeys(CHECKS_B, 1.0))
        report = run_protocol_b(config, spec, (3, 1))
    assert report.transcript_digest == digest
    assert report.payoff == payoff


@pytest.mark.parametrize("protocol, attack_id, params, reason", [
    ("A", "a.mr.bob.1", {"n": 20, "m": 45}, "check case4 failed"),
    ("B", "b.mr.charlie", {"n": 40}, "check ctrl failed"),
])
def test_aborted_runs_score_no_payoff(protocol, attack_id, params, reason):
    """An aborted run derives no key, so there is nothing to guess."""
    config = config_from_dict({"protocol": protocol, "trials": 5, "seed": 2,
                               "attack": attack_id, "params": params})
    for trial in range(config.trials):
        report = run_one(config, trial)
        assert report.aborted and report.payoff is None
        assert report.abort_reason == reason
