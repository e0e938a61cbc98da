"""Tests for the Monte Carlo harness: stats, config ingestion, reports."""

import json
from fractions import Fraction

import pytest

from sqss.harness import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    load_config,
    monte_carlo,
    run_one,
    stats_to_dict,
    wilson_interval,
    write_report,
)
from sqss.oracle import detection_oracle
from sqss.protocol_a import CHECKS_A, ProtocolAConfig
from sqss.protocol_b import CHECKS_B, ProtocolBConfig


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
