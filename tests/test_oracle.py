"""Tests for the exact rational-arithmetic detection oracle."""

from fractions import Fraction

import pytest

from sqss import oracle
from sqss.adversary import UnsupportedAttackError, catalog_ids
from sqss.oracle import detection_oracle
from sqss.protocol_a import CHECKS_A
from sqss.protocol_b import CHECKS_B
from sqss.qstate import Basis, PrepState

from reference_oracle import measurement_distribution

Q = Fraction
ZERO, QUARTER, HALF = Q(0), Q(1, 4), Q(1, 2)

# Exact per-check probabilities of every catalog attack, in catalog order and
# in the protocol's check order (A: case1..case4; B: ctrl, test_b, test_c).
PINNED = {
    "a.mr.bob.1": (ZERO, ZERO, ZERO, QUARTER),
    "a.mr.bob.2": (ZERO, ZERO, ZERO, QUARTER),
    "a.mr.charlie.1": (ZERO, ZERO, ZERO, QUARTER),
    "a.mr.charlie.2": (ZERO, ZERO, ZERO, QUARTER),
    "a.ir.bob": (ZERO, ZERO, HALF, HALF),
    "a.ir.charlie.1": (ZERO, ZERO, ZERO, HALF),
    "a.ir.charlie.2": (HALF, HALF, ZERO, ZERO),
    "a.mr.eve.1": (ZERO, ZERO, ZERO, QUARTER),
    "a.mr.eve.2": (ZERO, ZERO, ZERO, QUARTER),
    "a.mr.eve.3": (ZERO, ZERO, ZERO, QUARTER),
    "a.ir.eve.1": (ZERO, ZERO, ZERO, HALF),
    "a.ir.eve.2": (HALF, HALF, ZERO, HALF),
    "a.ir.eve.3": (HALF, HALF, HALF, HALF),
    "b.mr.bob": (QUARTER, ZERO, ZERO),
    "b.mr.charlie": (QUARTER, ZERO, ZERO),
    "b.ir.bob": (HALF, ZERO, HALF),
    "b.ir.charlie": (HALF, HALF, ZERO),
    "b.mr.eve.1": (QUARTER, ZERO, ZERO),
    "b.mr.eve.2": (QUARTER, ZERO, ZERO),
    "b.mr.eve.3": (QUARTER, ZERO, ZERO),
    "b.ir.eve.1": (HALF, ZERO, ZERO),
    "b.ir.eve.2": (HALF, HALF, ZERO),
    "b.ir.eve.3": (HALF, HALF, HALF),
}


@pytest.mark.parametrize("attack_id", PINNED)
def test_catalog_probabilities_are_pinned(attack_id):
    protocol = attack_id[0].upper()
    checks = CHECKS_A if protocol == "A" else CHECKS_B
    assert detection_oracle(protocol, attack_id) == dict(zip(checks, PINNED[attack_id]))
    # Every catalog attack disturbs some check.
    assert max(PINNED[attack_id]) > 0


def test_catalog_order_is_stable():
    # The benchmark's catalog workload runs the ids round-robin in this order.
    assert catalog_ids() == list(PINNED)


def test_single_measurement_distributions_exact():
    assert measurement_distribution(PrepState.ZERO, Basis.Z) == {0: Q(1)}
    assert measurement_distribution(PrepState.MINUS, Basis.X) == {1: Q(1)}
    assert measurement_distribution(PrepState.PLUS, Basis.Z) == {0: Q(1, 2), 1: Q(1, 2)}
    assert measurement_distribution(PrepState.ONE, Basis.X) == {0: Q(1, 2), 1: Q(1, 2)}


def test_honest_probabilities_all_zero():
    assert set(detection_oracle("A", None).values()) == {Q(0)}
    assert set(detection_oracle("B", "b.none").values()) == {Q(0)}


def test_unsupported_requests_rejected():
    with pytest.raises(UnsupportedAttackError):
        detection_oracle("A", "b.mr.bob")
    with pytest.raises(UnsupportedAttackError):
        detection_oracle("A", "a.em")
    with pytest.raises(ValueError):
        detection_oracle("C", "a.mr.bob.1")


def test_program_table_covers_exactly_the_catalog():
    # One catalog feeds both engines: every simulated attack has an exact
    # program, and no other id has one.
    assert set(oracle.PROGRAMS) == set(catalog_ids("A")) | set(catalog_ids("B"))


@pytest.mark.parametrize("attack_id", catalog_ids() + ["a.none", "b.none"])
def test_every_id_returns_its_protocols_checks_in_order(attack_id):
    protocol = attack_id[0].upper()
    checks = CHECKS_A if protocol == "A" else CHECKS_B
    assert list(detection_oracle(protocol, attack_id)) == list(checks)


@pytest.mark.parametrize("protocol, attack_id",
                         [("A", "a.em"), ("B", "b.em")]
                         + [("A", aid) for aid in catalog_ids("B")]
                         + [("B", aid) for aid in catalog_ids("A")])
def test_non_catalog_ids_rejected(protocol, attack_id):
    with pytest.raises(UnsupportedAttackError):
        detection_oracle(protocol, attack_id)


def test_every_call_enumerates_into_a_read_only_result(monkeypatch):
    """A result is shared, so it is read-only, and a shared result saves no
    enumeration: every call enumerates each of its checks again."""
    calls, enumerate_program = [], oracle._mismatch_counts

    def counted(*program):
        calls.append(program)
        return enumerate_program(*program)

    monkeypatch.setattr(oracle, "_mismatch_counts", counted)
    first = detection_oracle("A", "a.ir.bob")
    with pytest.raises(TypeError):
        first["case3"] = Q(7)
    assert detection_oracle("A", "a.ir.bob")["case3"] == HALF
    assert len(calls) == 2 * len(CHECKS_A)


def test_equal_results_are_one_object():
    """Results are kept by the thousand, so equal results are one shared
    mapping: over the catalog and the no-attack ids, two calls give the same
    object exactly when their results are equal, whatever the attack."""
    ids = catalog_ids() + ["a.none", "b.none"]
    results = [detection_oracle(aid[0].upper(), aid) for aid in ids]
    again = [detection_oracle(aid[0].upper(), aid) for aid in ids]
    assert all(a is b for a, b in zip(results, again))
    for a in results:
        for b in results:
            assert (a is b) == (a == b)


def test_results_are_fractions_not_floats():
    for value in detection_oracle("A", "a.mr.bob.1").values():
        assert isinstance(value, Fraction)
