"""Tests for the measure/reflect circular protocol runner."""

import pytest

from sqss.adversary import resolve_attack
from sqss.protocol_a import (
    _ALICE_BASIS,
    _CASE_OF,
    ProtocolAConfig,
    default_thresholds,
    run_protocol_a,
)
from sqss.qstate import Basis, PrepState
from sqss.runtime import xor_keys

# An announcement is 1 for MEASURE, 0 for REFLECT; case k has index k - 1.
MEASURE, REFLECT = 1, 0
CASE1, CASE2, CASE3, CASE4 = range(4)


def test_case_classification_table():
    assert _CASE_OF[MEASURE, MEASURE] == CASE1
    assert _CASE_OF[MEASURE, REFLECT] == CASE2
    assert _CASE_OF[REFLECT, MEASURE] == CASE3
    assert _CASE_OF[REFLECT, REFLECT] == CASE4


def test_final_basis_policy():
    assert _ALICE_BASIS[CASE1, PrepState.MINUS] == Basis.Z
    assert _ALICE_BASIS[CASE3, PrepState.PLUS] == Basis.Z
    assert _ALICE_BASIS[CASE4, PrepState.MINUS] == Basis.X
    assert _ALICE_BASIS[CASE4, PrepState.ZERO] == Basis.Z


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolAConfig(n=10, m=10)
    with pytest.raises(ValueError):
        ProtocolAConfig(n=0, m=5)
    # A key needs n >= 3: a case-1 particle and two in each of cases 2 and 3.
    for n in (1, 2):
        with pytest.raises(ValueError, match=f"n must be an integer >= 3, got {n}"):
            ProtocolAConfig(n=n, m=9)
    with pytest.raises(ValueError):
        ProtocolAConfig(n=5, m=10, check_fraction=0.0)
    # Disclosing every case-2/3 particle leaves no key, so every run would abort.
    with pytest.raises(ValueError, match=r"check_fraction must be in \(0, 1\)"):
        ProtocolAConfig(n=5, m=10, check_fraction=1.0)
    with pytest.raises(ValueError):
        ProtocolAConfig(n=5, m=10, thresholds={"case1": 0.05})


def test_a_run_with_no_undisclosed_key_particle_derives_no_key():
    """At n=3, m=4 a key case can hold a single particle, which its check
    discloses: the run passes every check and still ends without keys, and
    the attack, which targets k_c, scores no payoff."""
    config = ProtocolAConfig(n=3, m=4, thresholds=default_thresholds(1.0))
    report = run_protocol_a(config, resolve_attack("A", "a.mr.bob.1"), 1)
    assert all(c.passed for c in report.checks)
    assert report.abort_reason == "no undisclosed key particles remain"
    assert report.keys is None and report.payoff is None


def test_high_check_fraction_still_derives_keys():
    """A fraction whose ceiling covers a whole case still withholds one
    particle of it, so honest runs keep a key."""
    config = ProtocolAConfig(n=50, m=100, check_fraction=0.99)
    for trial in range(20):
        report = run_protocol_a(config, None, (0, trial))
        assert not report.aborted, report.abort_reason
        # Cases 2 and 3 each withhold exactly one particle: a one-bit key.
        assert len(report.keys.k_b) == 1
        assert report.keys.k_a == xor_keys(report.keys.k_b, report.keys.k_c)


def test_case_counts_partition_batch():
    config = ProtocolAConfig(n=15, m=31)
    report = run_protocol_a(config, None, 3)
    c1 = report.check("case1").compared
    c4 = report.check("case4").compared
    d2 = report.check("case2").compared
    d3 = report.check("case3").compared
    # cases 2 and 3 disclose ceil(half), withholding either the same count or
    # one fewer, so the full batch size is pinned to a 2-wide window
    upper = c1 + c4 + 2 * d2 + 2 * d3
    assert upper - 2 <= config.n + config.m <= upper


def test_run_is_deterministic_in_seed():
    config = ProtocolAConfig(n=10, m=25)
    a = run_protocol_a(config, None, 42)
    b = run_protocol_a(config, None, 42)
    assert a.transcript_digest == b.transcript_digest
    assert a.keys == b.keys
    c = run_protocol_a(config, None, 43)
    assert c.transcript_digest != a.transcript_digest


def test_measure_resend_aborts_on_strict_threshold():
    thresholds = default_thresholds(0.0)
    config = ProtocolAConfig(n=40, m=90, thresholds=thresholds)
    attack = resolve_attack("A", "a.mr.bob.1")
    aborted = sum(run_protocol_a(config, attack, seed).aborted for seed in range(10))
    assert aborted == 10
