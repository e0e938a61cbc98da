"""Tests for the Monte Carlo harness: stats, config ingestion, reports."""

import json
import re
from fractions import Fraction

import pytest

import sqss
from sqss import harness, protocol_a, protocol_b
from sqss.adversary import resolve_attack
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
from sqss.oracle import detection_oracle
from sqss.protocol_a import CHECKS_A, ProtocolAConfig
from sqss.protocol_b import CHECKS_B, ProtocolBConfig

from pin_transcripts import PINNED_RUNS, pinned_run, v1_digest
from test_adversary import REJECTED_IDS


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
                                          f"(an integer >= \\d+|a real number), got"):
        config_from_dict({"protocol": protocol, "params": params})


@pytest.mark.parametrize("protocol, params, message", [
    ("A", {"n": 2, "m": 12}, "n must be an integer >= 3, got 2"),
    ("A", {"n": 5, "m": 5}, "m must be an integer >= 6, got 5"),
    ("B", {"n": 1}, "n must be an integer >= 2, got 1"),
], ids=["a-n", "a-m", "b-n"])
def test_config_from_dict_rejects_counts_below_their_least(protocol, params, message):
    with pytest.raises(ConfigError, match=f"^bad protocol params: {message}$"):
        config_from_dict({"protocol": protocol, "params": params})


_OPEN_UNIT = r"be in \(0, 1\)"


@pytest.mark.parametrize("protocol, params, field, rule", [
    ("A", {"n": 5, "m": 12, "check_fraction": 1.0}, "check_fraction", _OPEN_UNIT),
    ("A", {"n": 5, "m": 12, "check_fraction": 0.0}, "check_fraction", _OPEN_UNIT),
    ("B", {"n": 8, "test_fraction": 1.0}, "test_fraction", _OPEN_UNIT),
    ("B", {"n": 8, "test_fraction": 0.9}, "test_fraction",
     r"leave a key particle untested, but ceil\(0\.9 \* 8\) tests all 8"),
], ids=["a-every-particle", "a-none", "b-every-particle", "b-ceiling-every-particle"])
def test_config_from_dict_rejects_fractions_outside_the_open_unit_interval(
        protocol, params, field, rule):
    """A fraction of 1.0 tests every key particle, so every run would abort
    with no key; it is a config error like 0.0.  So is a protocol B fraction
    below 1 whose ceiling still tests all n key particles."""
    with pytest.raises(ConfigError, match=rf"^bad protocol params: {field} must {rule}$"):
        config_from_dict({"protocol": protocol, "params": params})


@pytest.mark.parametrize("data, message", [
    ([{"protocol": "A"}], "config root must be an object"),
    ({"params": {"n": 5, "m": 12}}, "config needs a protocol"),
    ({"protocol": "A", "params": [5, 12]}, "params must be an object"),
], ids=["list-root", "no-protocol", "list-params"])
def test_config_from_dict_rejects_a_malformed_layout(data, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(data)


def test_experiment_config_rejects_an_attack_of_the_other_protocol():
    with pytest.raises(ConfigError, match=r"^attack b\.mr\.bob does not match protocol A$"):
        ExperimentConfig(ProtocolAConfig(n=5, m=12), resolve_attack("B", "b.mr.bob"),
                         trials=1, seed=0)


@pytest.mark.parametrize("data", [{"protocol": None},
                                  {"protocol": "c", "params": {"n": 5, "m": 10}}],
                         ids=["null", "unknown-with-a-params"])
def test_config_from_dict_rejects_unknown_protocol_first(data):
    with pytest.raises(ConfigError, match="^unknown protocol"):
        config_from_dict(data)


@pytest.mark.parametrize("attack_id", REJECTED_IDS)
def test_config_from_dict_rejects_non_canonical_attack_ids(attack_id):
    protocol = attack_id[0].upper()
    params = {"n": 5, "m": 12} if protocol == "A" else {"n": 8}
    with pytest.raises(ConfigError, match=re.escape(f"no catalog attack {attack_id!r}")):
        config_from_dict({"protocol": protocol, "attack": attack_id, "params": params})


@pytest.mark.parametrize("protocol, params, attack_id", [
    ("A", {"n": 5, "m": 12}, "b.none"),
    ("B", {"n": 8}, "a.none"),
])
def test_config_from_dict_rejects_the_other_protocols_none(protocol, params, attack_id):
    with pytest.raises(ConfigError, match=f"does not apply to protocol {protocol}"):
        config_from_dict({"protocol": protocol, "attack": attack_id, "params": params})


def test_describe_reads_the_config_fields():
    a = config_from_dict({"protocol": "a", "trials": 2, "seed": 9, "attack": "a.ir.bob",
                          "params": {"n": 5, "m": 12, "check_fraction": 0.25,
                                     "thresholds": {"case1": 0.1, "case2": 0.2,
                                                    "case3": 0.3, "case4": 0.4}}})
    assert a.describe() == {
        "protocol": "A", "attack": "a.ir.bob", "trials": 2, "seed": 9,
        "params": {"n": 5, "m": 12, "check_fraction": 0.25,
                   "thresholds": {"case1": 0.1, "case2": 0.2, "case3": 0.3, "case4": 0.4}}}
    b = config_from_dict({"protocol": "B", "params": {
        "n": 8, "test_fraction": 0.75,
        "thresholds": {"ctrl": 0.0, "test_b": 0.5, "test_c": 1.0}}})
    assert b.describe() == {
        "protocol": "B", "attack": "b.none", "trials": 1, "seed": 0,
        "params": {"n": 8, "test_fraction": 0.75,
                   "thresholds": {"ctrl": 0.0, "test_b": 0.5, "test_c": 1.0}}}


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
    """The protocol is the config's type, so only a non-config can mismatch."""
    assert ExperimentConfig(ProtocolBConfig(n=8), None, 5, 0).protocol == "B"
    with pytest.raises(ConfigError, match="not a protocol config"):
        ExperimentConfig(protocol_config={"n": 8}, attack=None, trials=5, seed=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(protocol_config=ProtocolAConfig(n=5, m=12),
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


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(ConfigError, match=f"cannot read config {path}: 'utf-8' codec"):
        load_config(path)


@pytest.mark.parametrize("text, key", [
    ('{"protocol": "B", "seed": 1, "seed": 1}', "seed"),
    ('{"protocol": "B", "params": {"n": 10, "thresholds": '
     '{"ctrl": 0.1, "test_b": 0.1, "test_c": 0.1, "ctrl": 0.2}}}', "ctrl"),
    ('{"protocol": "B", "params": {"n": 10}, "params": {"n": 10}}', "params"),
])
def test_load_config_rejects_a_repeated_key_at_any_depth(tmp_path, text, key):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"config repeats the key '{key}'"):
        load_config(path)


def test_run_one_uses_derived_trial_seeds():
    config = config_from_dict({"protocol": "A", "seed": 4,
                               "params": {"n": 6, "m": 14}})
    r0 = run_one(config, 0)
    r1 = run_one(config, 1)
    assert r0.transcript_digest != r1.transcript_digest
    assert run_one(config, 0).transcript_digest == r0.transcript_digest


def test_a_check_that_compared_nothing_reports_rate_0_and_the_whole_interval():
    """Trial (1, 0) at n=3, m=4 has no case-1 particle: over the experiment
    case 1 compares nothing, and its row reads rate 0 with the interval [0, 1]."""
    config = config_from_dict({"protocol": "A", "trials": 1, "seed": 1,
                               "params": {"n": 3, "m": 4}})
    rows = stats_to_dict(config, *monte_carlo(config))["per_check"]
    assert rows[0] == {"check_id": "case1", "compared": 0, "mismatches": 0,
                       "rate": 0.0, "ci_low": 0.0, "ci_high": 1.0}


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


def test_json_report_names_its_schema_and_version(tmp_path):
    """Two runs of one config write byte-identical reports that say which
    report layout and which sqss wrote them, and no wall-clock time."""
    config = config_from_dict({"protocol": "B", "trials": 3, "seed": 4,
                               "attack": "b.ir.charlie", "params": {"n": 8}})
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        write_report(config, *monte_carlo(config), "json", path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    data = json.loads(paths[0].read_text())
    assert data["report_schema"] == harness.REPORT_SCHEMA == 2
    assert data["sqss_version"] == sqss.__version__


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



@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unwritable_report_path_is_a_config_error(tmp_path, fmt):
    config = config_from_dict({"protocol": "B", "trials": 1, "params": {"n": 4}})
    path = tmp_path / "missing" / f"out.{fmt}"
    with pytest.raises(ConfigError, match=f"cannot write output to {path}: "):
        write_report(config, *monte_carlo(config), fmt, path)

# Each pinned run's digest in the current (v2) transcript layout, as printed
# by tests/pin_transcripts.py.
PINNED_V2 = {
    "a.none": "53e3b0df9b3ad292d4f7d7ebc6b3d42461fd07f7465617affbeb0b5ce177bbc2",
    "a.ir.bob": "d7a33ecb88490a5d1de625e55e35ca069358eb7311b842cfb811b6c30516a784",
    "a.mr.charlie.1": "fe847267fe0c58120f65ef0706d49c0fb7e94a20a3a01aae938e35fd60b5ce0c",
    "b.none": "ea6302d3c084d04fed1b9b409e0688cead4ddf50ab94add378bbef71153c5f3e",
    "b.ir.charlie": "db7ba68cc3dff6b14ab6d2007a57c0123d06788ce9c78188508ae24b13adbdb9",
    "b.mr.eve.3": "f88a14fae8a7e07d77cd9034fb9c9743baa7df2a6cee464b323ca843d12fb5ae",
    "a.em": "c41ee61a1733ad20165009add27c246239f8b5ad5bed04a55ad61e40db1be4cb",
    "b.em": "846d860853bd3194e1eb4607565018e1e8d8800b380e26704c3c0239f72e78f7",
}


@pytest.mark.parametrize("attack_id, digest, payoff", PINNED_RUNS)
def test_pinned_transcripts(attack_id, digest, payoff):
    """``digest`` is the run's v1 digest, pinned from the per-particle engine
    the array engine replaced: the two must make the same RNG draws in the
    same order.  The v2 digest also covers the keys and the payoff."""
    report, payload = pinned_run(attack_id)
    assert v1_digest(payload) == digest
    assert report.transcript_digest == PINNED_V2[attack_id]
    assert report.payoff == payoff


@pytest.mark.parametrize("attack_id", ["a.ir.bob", "b.ir.charlie"])
@pytest.mark.parametrize("binding", ["score_payoff", "derive_keys"])
def test_digest_covers_keys_and_payoff(monkeypatch, attack_id, binding):
    """A run whose payoff alone, or keys alone, differ hashes differently."""
    module = protocol_a if attack_id.startswith("a.") else protocol_b
    before, _ = pinned_run(attack_id)
    assert before.keys is not None and before.payoff is not None
    real = getattr(module, binding)
    altered = {
        "score_payoff": lambda *args: {**real(*args), "correct": -1},
        "derive_keys": lambda bits_b, bits_c: real(1 - bits_b, bits_c),
    }[binding]
    monkeypatch.setattr(module, binding, altered)
    after, _ = pinned_run(attack_id)
    assert (after.payoff != before.payoff) == (binding == "score_payoff")
    assert (after.keys != before.keys) == (binding == "derive_keys")
    assert after.digest != before.digest


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
