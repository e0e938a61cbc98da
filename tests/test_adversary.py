"""Tests for the attack catalog, knowledge tracking, and payoff logic."""

import numpy as np
import pytest

from sqss.adversary import (
    ALLOWED_SOURCES,
    AdversaryKnowledge,
    AttackSpec,
    UnitaryPair,
    UnsupportedAttackError,
    build_attack_plan,
    catalog_ids,
    parse_attack_id,
)
from sqss.protocol_a import ProtocolAConfig, default_thresholds, run_protocol_a
from sqss.protocol_b import ProtocolBConfig, run_protocol_b
from sqss.protocol_b import default_thresholds as default_thresholds_b
from sqss.runtime import Leg, SimulationError


def test_catalog_ids_round_trip():
    ids = catalog_ids()
    assert len(ids) == len(set(ids)) == 23
    for attack_id in ids:
        spec = parse_attack_id(attack_id)
        assert spec.attack_id == attack_id


def test_catalog_split_by_protocol():
    assert all(i.startswith("a.") for i in catalog_ids("A"))
    assert all(i.startswith("b.") for i in catalog_ids("B"))
    assert set(catalog_ids()) == set(catalog_ids("A")) | set(catalog_ids("B"))


def test_invalid_combinations_rejected():
    with pytest.raises(UnsupportedAttackError):
        parse_attack_id("a.ir.bob.1")  # that attack takes no variant
    with pytest.raises(UnsupportedAttackError):
        parse_attack_id("b.mr.bob.1")
    with pytest.raises(UnsupportedAttackError):
        parse_attack_id("a.mr.eve.4")
    with pytest.raises(UnsupportedAttackError):
        parse_attack_id("a.zz.bob")
    with pytest.raises(UnsupportedAttackError):
        AttackSpec("A", "em", pair=None)
    eye = UnitaryPair(first=np.eye(4), second=np.eye(4), probe_dim=2, protocol="A")
    with pytest.raises(UnsupportedAttackError):
        AttackSpec("A", "mr", "bob", 1, pair=eye)  # a pair only configures "em"


NON_CANONICAL_IDS = ["a.none.bob", "b.none.x.3", "a.mr.eve.01", "a.mr.eve. 1",
                     "a.mr.eve.+1"]


@pytest.mark.parametrize("attack_id", NON_CANONICAL_IDS)
def test_non_canonical_ids_rejected(attack_id):
    with pytest.raises(UnsupportedAttackError, match="not canonical"):
        parse_attack_id(attack_id)


def test_unitary_pair_validation_and_legs():
    eye = np.eye(4)
    pair_a = UnitaryPair(first=eye, second=eye, probe_dim=2, protocol="A")
    assert pair_a.legs == (Leg.ALICE_TO_BOB, Leg.CHARLIE_TO_ALICE)
    pair_b = UnitaryPair(first=eye, second=eye, probe_dim=2, protocol="B")
    assert pair_b.legs == (Leg.BOB_TO_CHARLIE, Leg.CHARLIE_TO_ALICE)
    with pytest.raises(ValueError):
        UnitaryPair(first=2 * eye, second=eye, probe_dim=2, protocol="A")
    with pytest.raises(ValueError, match="shape"):
        UnitaryPair(first=eye, second=eye, probe_dim=3, protocol="A")


def test_mismatched_protocol_rejected_by_plan():
    spec = parse_attack_id("a.mr.bob.1")
    with pytest.raises(UnsupportedAttackError):
        build_attack_plan(spec, "B")


def test_none_plan_has_no_interceptors_or_target():
    plan = build_attack_plan(None, "A")
    assert all(plan.interceptor(leg) is None for leg in Leg)
    assert plan.target is None


def test_knowledge_provenance_is_audited(monkeypatch):
    """Every recorded bit must come from something the actor legitimately did."""
    import sqss.protocol_a as pa
    import sqss.protocol_b as pb

    captured = []

    def capture(spec, protocol):
        plan = build_attack_plan(spec, protocol)
        captured.append(plan)
        return plan

    monkeypatch.setattr(pa, "build_attack_plan", capture)
    monkeypatch.setattr(pb, "build_attack_plan", capture)

    for attack_id in catalog_ids():
        spec = parse_attack_id(attack_id)
        if spec.protocol == "A":
            config = ProtocolAConfig(n=10, m=25, thresholds=default_thresholds(1.0))
            report = run_protocol_a(config, spec, 11)
        else:
            config = ProtocolBConfig(n=12, thresholds=default_thresholds_b(1.0))
            report = run_protocol_b(config, spec, 11)
        assert not report.aborted

    assert len(captured) == len(catalog_ids())
    for plan in captured:
        assert plan.knowledge.provenance  # the attack actually learned something
        for source in plan.knowledge.provenance.values():
            assert source in ALLOWED_SOURCES


def test_unaudited_source_is_rejected():
    knowledge = AdversaryKnowledge()
    with pytest.raises(SimulationError):
        knowledge.record(0, 1, "peeked-at-alice")
    assert not knowledge.recorded


def test_eve_leg_mapping():
    for variant, leg in ((1, Leg.ALICE_TO_BOB), (2, Leg.BOB_TO_CHARLIE),
                         (3, Leg.CHARLIE_TO_ALICE)):
        plan = build_attack_plan(parse_attack_id(f"a.mr.eve.{variant}"), "A")
        assert plan.interceptor(leg) is not None
        others = [l for l in Leg if l is not leg]
        assert all(plan.interceptor(l) is None for l in others)


def test_targets_match_actor():
    assert build_attack_plan(parse_attack_id("a.ir.bob"), "A").target == "k_c"
    assert build_attack_plan(parse_attack_id("a.ir.charlie.1"), "A").target == "k_b"
    assert build_attack_plan(parse_attack_id("b.mr.eve.3"), "B").target == "both"


def test_insider_guesses_are_exact_on_surviving_runs():
    cases = [
        ("a.mr.bob.2", "A"), ("a.ir.charlie.2", "A"),
        ("b.mr.charlie", "B"), ("b.ir.bob", "B"),
    ]
    for attack_id, proto in cases:
        spec = parse_attack_id(attack_id)
        if proto == "A":
            config = ProtocolAConfig(n=20, m=45, thresholds=default_thresholds(1.0))
            report = run_protocol_a(config, spec, 13)
        else:
            config = ProtocolBConfig(n=16, thresholds=default_thresholds_b(1.0))
            report = run_protocol_b(config, spec, 13)
        assert not report.aborted
        assert report.payoff["guessed"] > 0
        assert report.payoff["correct"] == report.payoff["guessed"]
