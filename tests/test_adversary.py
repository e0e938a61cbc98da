"""Tests for the attack catalog, knowledge tracking, and payoff logic."""

import re

import numpy as np
import pytest

from sqss.adversary import (
    ALLOWED_SOURCES,
    CATALOG,
    AdversaryKnowledge,
    AttackSpec,
    UnitaryPair,
    UnsupportedAttackError,
    build_attack_plan,
    catalog_ids,
    entangle_measure_interceptors,
    resolve_attack,
)
from sqss.em_analysis import error_profile, random_pair
from sqss.protocol_a import ProtocolAConfig, default_thresholds, run_protocol_a
from sqss.protocol_b import ProtocolBConfig, run_protocol_b
from sqss.protocol_b import default_thresholds as default_thresholds_b
from sqss.qstate import apply_unitary_batch
from sqss.runtime import Leg, ParticleBatch, SimulationError


def test_catalog_ids_round_trip():
    ids = catalog_ids()
    assert len(ids) == len(set(ids)) == 23
    for attack_id in ids:
        spec = resolve_attack(attack_id[0].upper(), attack_id)
        assert spec.attack_id == attack_id


def test_catalog_split_by_protocol():
    assert all(i.startswith("a.") for i in catalog_ids("A"))
    assert all(i.startswith("b.") for i in catalog_ids("B"))
    assert set(catalog_ids()) == set(catalog_ids("A")) | set(catalog_ids("B"))


def test_invalid_combinations_rejected():
    eye = UnitaryPair(first=np.eye(4), second=np.eye(4), protocol="A")
    with pytest.raises(UnsupportedAttackError):
        AttackSpec("A", "em", pair=None)
    with pytest.raises(UnsupportedAttackError):
        AttackSpec("B", "em", pair=eye)  # the pair is protocol A's
    with pytest.raises(UnsupportedAttackError):
        AttackSpec("A", "mr.bob.1", pair=eye)  # a pair only configures "em"
    with pytest.raises(UnsupportedAttackError, match="unknown protocol 'C'"):
        AttackSpec("C", "mr.bob")


# Ids that are not catalog keys, each with what is wrong with it.  Every
# boundary rejects each one: ``resolve_attack`` here, ``config_from_dict``
# in test_harness and ``sqss oracle``/``sweep`` in test_cli.
REJECTED_IDS = {
    "a.ir.bob.1": "variant-on-unvaried",
    "b.mr.bob.1": "variant-on-b-insider",
    "a.mr.eve.4": "fourth-leg",
    "a.zz.bob": "unknown-kind",
    "a.mr.eve.x": "word-variant",
    "b.mr.eve.": "empty-variant",
    "a.mr.eve.1e0": "float-variant",
    "a.none.bob": "none-with-actor",
    "b.none.x.3": "none-with-variant",
    "a.mr.eve.01": "padded-leg",
    "a.mr.eve. 1": "spaced-leg",
    "a.mr.eve.+1": "signed-leg",
}


@pytest.mark.parametrize("attack_id", REJECTED_IDS)
def test_non_canonical_ids_rejected(attack_id):
    """An id is canonical when it is a catalog key; nothing else is read."""
    message = re.escape(f"no catalog attack {attack_id!r}")
    with pytest.raises(UnsupportedAttackError, match=message):
        resolve_attack(attack_id[0].upper(), attack_id)


def test_unitary_pair_validation_and_legs():
    eye = np.eye(4)
    pair_a = UnitaryPair(first=eye, second=eye, protocol="A")
    assert pair_a.legs == (Leg.ALICE_TO_BOB, Leg.CHARLIE_TO_ALICE)
    pair_b = UnitaryPair(first=eye, second=eye, protocol="B")
    assert pair_b.legs == (Leg.BOB_TO_CHARLIE, Leg.CHARLIE_TO_ALICE)
    with pytest.raises(ValueError):
        UnitaryPair(first=2 * eye, second=eye, protocol="A")
    with pytest.raises(ValueError, match="unknown protocol 'C'"):
        UnitaryPair(first=eye, second=eye, protocol="C")
    assert pair_a.probe_dim == 2
    # The probe dimension is half the side: the two sides must be equal,
    # even and not 0 (a 0x0 matrix passes check_unitary).
    for first, second in ((eye, np.eye(6)), (np.eye(0), np.eye(0)), (np.eye(3), np.eye(3))):
        with pytest.raises(ValueError, match="shape"):
            UnitaryPair(first=first, second=second, protocol="A")


@pytest.mark.parametrize("name", ["em.bob", "em.7"], ids=["actor", "variant"])
def test_em_spec_takes_no_actor_or_variant(name):
    eye = UnitaryPair(first=np.eye(4), second=np.eye(4), protocol="A")
    with pytest.raises(UnsupportedAttackError, match="takes no UnitaryPair"):
        AttackSpec("A", name, pair=eye)


@pytest.mark.parametrize("args", [("A", "none"), ("B", "none"), ("A", "none.bob")])
def test_no_attack_is_not_a_spec(args):
    with pytest.raises(UnsupportedAttackError, match="no catalog attack"):
        AttackSpec(*args)


@pytest.mark.parametrize("protocol", ["A", "B"])
def test_resolve_attack_maps_every_spelling_of_no_attack_to_none(protocol):
    for attack_id in (None, "none", f"{protocol.lower()}.none"):
        assert resolve_attack(protocol, attack_id) is None
    catalog = catalog_ids(protocol)[0]
    assert resolve_attack(protocol, catalog) == AttackSpec(protocol, catalog[2:])


@pytest.mark.parametrize("protocol, attack_id", [
    ("A", "b.none"), ("B", "a.none"), ("A", "b.mr.bob"), ("B", "a.ir.bob"),
])
def test_resolve_attack_rejects_the_other_protocols_ids(protocol, attack_id):
    with pytest.raises(UnsupportedAttackError, match=f"does not apply to protocol {protocol}"):
        resolve_attack(protocol, attack_id)


def test_mismatched_protocol_rejected_by_plan():
    spec = resolve_attack("A", "a.mr.bob.1")
    with pytest.raises(UnsupportedAttackError):
        build_attack_plan(spec, "B", 6)


def test_none_plan_has_no_interceptors_or_target():
    plan = build_attack_plan(None, "A", 6)
    assert all(plan.interceptor(leg) is None for leg in Leg)
    assert plan.target is None


def _surviving_knowledge(monkeypatch) -> dict:
    """Each catalog attack's knowledge after one run that passes its checks."""
    import sqss.protocol_a as pa
    import sqss.protocol_b as pb

    captured = []

    def capture(*args):
        plan = build_attack_plan(*args)
        captured.append(plan)
        return plan

    monkeypatch.setattr(pa, "build_attack_plan", capture)
    monkeypatch.setattr(pb, "build_attack_plan", capture)

    for attack_id in catalog_ids():
        spec = resolve_attack(attack_id[0].upper(), attack_id)
        if spec.protocol == "A":
            config = ProtocolAConfig(n=10, m=25, thresholds=default_thresholds(1.0))
            report = run_protocol_a(config, spec, 11)
        else:
            config = ProtocolBConfig(n=12, thresholds=default_thresholds_b(1.0))
            report = run_protocol_b(config, spec, 11)
        assert not report.aborted

    assert len(captured) == len(catalog_ids())
    return {plan.attack_id: plan.knowledge for plan in captured}


def _sources(knowledge) -> set:
    counts = np.bincount(knowledge.source[knowledge.source >= 0],
                         minlength=len(ALLOWED_SOURCES))
    return {ALLOWED_SOURCES[i] for i in np.flatnonzero(counts)}


def test_knowledge_provenance_is_audited(monkeypatch):
    """Every recorded bit must come from something the actor legitimately did."""
    for knowledge in _surviving_knowledge(monkeypatch).values():
        recorded = knowledge.recorded >= 0
        # The attack actually learned something: bits it measured or faked.
        assert recorded.any() or (knowledge.fake_bits >= 0).any()
        # Every recorded bit, and only those, names an allowed source.
        assert np.array_equal(knowledge.source >= 0, recorded)
        assert knowledge.source.max() < len(ALLOWED_SOURCES)


OWN, INTERCEPT, RETAINED = ALLOWED_SOURCES
# attack id -> (sources of its recorded bits, whether it sent fakes).
KNOWLEDGE_SOURCES = {
    "a.mr.bob.1": ({OWN}, False),
    "a.mr.bob.2": ({INTERCEPT}, False),
    "a.mr.charlie.1": ({INTERCEPT}, False),
    "a.mr.charlie.2": ({OWN}, False),
    "a.ir.bob": ({OWN, RETAINED}, True),
    "a.ir.charlie.1": (set(), True),
    "a.ir.charlie.2": (set(), True),
    "a.mr.eve.1": ({INTERCEPT}, False),
    "a.mr.eve.2": ({INTERCEPT}, False),
    "a.mr.eve.3": ({INTERCEPT}, False),
    "a.ir.eve.1": (set(), True),
    "a.ir.eve.2": ({RETAINED}, True),
    "a.ir.eve.3": ({RETAINED}, True),
    "b.mr.bob": ({INTERCEPT}, False),
    "b.mr.charlie": ({OWN}, False),
    "b.ir.bob": ({RETAINED}, True),
    "b.ir.charlie": ({RETAINED}, True),
    "b.mr.eve.1": ({INTERCEPT}, False),
    "b.mr.eve.2": ({INTERCEPT}, False),
    "b.mr.eve.3": ({INTERCEPT}, False),
    "b.ir.eve.1": (set(), True),
    "b.ir.eve.2": ({RETAINED}, True),
    "b.ir.eve.3": ({RETAINED}, True),
}


def test_knowledge_sources_per_attack(monkeypatch):
    """How each attack learns its bits: measure-resend attacks only measure,
    intercept-resend attacks send fakes, and those that keep the genuine
    particles measure them when they guess."""
    found = {attack_id: (_sources(knowledge), bool((knowledge.fake_bits >= 0).any()))
             for attack_id, knowledge in _surviving_knowledge(monkeypatch).items()}
    assert found == KNOWLEDGE_SOURCES


def test_unaudited_source_is_rejected():
    knowledge = AdversaryKnowledge(4)
    with pytest.raises(SimulationError):
        knowledge.record(0, 1, "peeked-at-alice")
    assert (knowledge.recorded == -1).all() and (knowledge.source == -1).all()


def test_eve_leg_mapping():
    for variant, leg in ((1, Leg.ALICE_TO_BOB), (2, Leg.BOB_TO_CHARLIE),
                         (3, Leg.CHARLIE_TO_ALICE)):
        plan = build_attack_plan(resolve_attack("A", f"a.mr.eve.{variant}"), "A", 6)
        assert plan.interceptor(leg) is not None
        others = [l for l in Leg if l is not leg]
        assert all(plan.interceptor(l) is None for l in others)


def test_targets_match_actor():
    assert build_attack_plan(resolve_attack("A", "a.ir.bob"), "A", 6).target == "k_c"
    assert build_attack_plan(resolve_attack("A", "a.ir.charlie.1"), "A", 6).target == "k_b"
    assert build_attack_plan(resolve_attack("B", "b.mr.eve.3"), "B", 6).target == "both"


def test_insider_guesses_are_exact_on_surviving_runs():
    """Every catalog attack, insider or outsider, survives at thresholds 1.0
    and each of its guesses is right.  Each guesses some bits, bar the
    protocol B leg 1 taps, which see no key carrier.  Protocol B's guesses
    are read through Charlie's published order where the attack saw the
    particles before her step."""
    for attack_id in catalog_ids():
        spec = resolve_attack(attack_id[0].upper(), attack_id)
        if spec.protocol == "A":
            config = ProtocolAConfig(n=20, m=45, thresholds=default_thresholds(1.0))
            report = run_protocol_a(config, spec, 13)
        else:
            config = ProtocolBConfig(n=16, thresholds=default_thresholds_b(1.0))
            report = run_protocol_b(config, spec, 13)
        payoff = report.payoff
        blind = attack_id in ("b.mr.eve.1", "b.ir.eve.1")
        assert not report.aborted, attack_id
        assert payoff["target"] == build_attack_plan(spec, spec.protocol, 1).target, attack_id
        assert payoff["correct"] == payoff["guessed"], attack_id
        assert (payoff["guessed"] > 0) != blind, attack_id


def test_protocol_b_attacks_before_charlie_have_no_k_c_source():
    """``AttackPlan.guess_b`` reads an attack with no return-leg tap through
    Charlie's order, at her input's positions: her insertions never reach
    such an attacker, so it has no source for k_c."""
    for attack_id in catalog_ids("B"):
        entry = CATALOG[attack_id]
        if Leg.CHARLIE_TO_ALICE not in entry.legs:
            assert entry.guess.get("k_c") is None, attack_id


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("mode", ["A", "B"])
def test_entangle_measure_legs_look_up_bare_batches_and_multiply_probed_ones(
        monkeypatch, mode, d):
    """On both legs of a pair: a bare batch of every code gets the rows the
    lifted batch times the leg's unitary has, looked up in the pair's
    images; a probed batch is multiplied, and one of another width is
    rejected.  The images are read-only unit rows, built once per pair."""
    rng = np.random.default_rng(40 + d)
    pair = random_pair(mode, d, rng)
    error_profile(pair, mode)
    assert "images" not in vars(pair)   # the analysis never builds them
    legs = entangle_measure_interceptors(pair)
    codes = np.array([0, 1, 2, 3, 3, 2, 1, 0], dtype=np.int8)
    for leg, u, images in zip(pair.legs, (pair.first, pair.second), pair.images):
        assert images.shape == (4, 2 * d) and not images.flags.writeable
        assert np.allclose(np.linalg.norm(images, axis=1), 1.0, atol=1e-12)
        batch = ParticleBatch(codes.copy())
        legs[leg](batch, leg, rng)
        assert batch.probed and batch.states.flags.writeable
        want = apply_unitary_batch(ParticleBatch(codes).amplitudes(d), u)
        assert np.abs(batch.states - want).max() <= 1e-15

    calls = []

    def counted(rows, u):
        calls.append(len(rows))
        return apply_unitary_batch(rows, u)

    monkeypatch.setattr("sqss.adversary.apply_unitary_batch", counted)
    first = pair.images
    for leg, u in zip(pair.legs, (pair.first, pair.second)):
        rows = rng.normal(size=(5, 2 * d)) + 1j * rng.normal(size=(5, 2 * d))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        batch = ParticleBatch(rows.copy())
        legs[leg](batch, leg, rng)
        assert np.array_equal(batch.states, rows @ u.T)
        legs[leg](ParticleBatch(codes.copy()), leg, rng)
        with pytest.raises(ValueError, match=f"probe dimension {d + 1}, expected {d}"):
            legs[leg](ParticleBatch(np.zeros((2, 2 * d + 2), dtype=complex)), leg, rng)
    assert calls == [5, 5]   # the probed batches only; bare ones are looked up
    assert pair.images is first
