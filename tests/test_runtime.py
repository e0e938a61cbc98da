"""Tests for shared protocol machinery: channel legs, checks, keys."""

import numpy as np
import pytest

from sqss.qstate import BASES, BB84_STATES, CompositeState, lift, measure, measure_qubit
from sqss.runtime import (
    PROBED,
    Leg,
    ParticleBatch,
    ParticleConservationError,
    SimulationError,
    derive_keys,
    evaluate_check,
    transcript_digest,
    transmit,
    xor_keys,
)


def _batch(n=5):
    return ParticleBatch(np.zeros(n, dtype=np.int8))


def test_transmit_identity_without_interceptor():
    rng = np.random.default_rng(0)
    batch = _batch()
    assert transmit(batch, Leg.ALICE_TO_BOB, None, rng) is batch


def test_transmit_empty_batch_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(SimulationError):
        transmit([], Leg.ALICE_TO_BOB, None, rng)


def test_transmit_detects_particle_loss():
    rng = np.random.default_rng(0)

    def dropper(batch, leg, rng):
        return batch[:-1]

    with pytest.raises(ParticleConservationError):
        transmit(_batch(10), Leg.BOB_TO_CHARLIE, dropper, rng)


def test_transmit_accepts_in_place_interceptor():
    rng = np.random.default_rng(0)
    seen = []

    def observer(batch, leg, rng):
        seen.append(leg)
        return None

    batch = _batch(3)
    out = transmit(batch, Leg.CHARLIE_TO_ALICE, observer, rng)
    assert out is batch
    assert seen == [Leg.CHARLIE_TO_ALICE]


def test_xor_keys_truth_table():
    assert xor_keys("0110", "0110") == "0000"
    assert xor_keys("1010", "0110") == "1100"
    assert xor_keys("", "") == ""
    with pytest.raises(ValueError):
        xor_keys("01", "011")


def test_evaluate_check_rates_and_threshold():
    ok = evaluate_check("c", 100, 4, threshold=0.05)
    assert ok.passed and not ok.inconclusive
    assert ok.error_rate == pytest.approx(0.04)
    bad = evaluate_check("c", 100, 6, threshold=0.05)
    assert not bad.passed


def test_empty_check_is_inconclusive_not_passed():
    verdict = evaluate_check("c", 0, 0, threshold=0.05)
    assert verdict.inconclusive
    assert not verdict.passed


def test_derive_keys_truncates_and_xors():
    km = derive_keys([1, 0, 1, 1], [0, 1])
    assert km.k_b == "10"
    assert km.k_c == "01"
    assert km.k_a == "11"
    assert km.k_a == xor_keys(km.k_b, km.k_c)


def test_transcript_digest_is_order_insensitive_and_stable():
    a = transcript_digest({"x": 1, "y": [1, 2]})
    b = transcript_digest({"y": [1, 2], "x": 1})
    assert a == b
    assert a != transcript_digest({"x": 2, "y": [1, 2]})


def test_batch_measure_mixed_layer_matches_one_at_a_time():
    """Bare and probed particles interleaved, measured in a scrambled order:
    the same outcomes, collapsed states and final RNG state as measure /
    measure_qubit on each particle in turn."""
    layout = np.random.default_rng(70)
    n, d = 60, 2
    codes = layout.integers(4, size=n).astype(np.int8)
    probed = layout.random(n) < 0.4
    probes = {}
    for i in np.flatnonzero(probed).tolist():
        amps = layout.normal(size=2 * d) + 1j * layout.normal(size=2 * d)
        probes[i] = CompositeState(amps / np.linalg.norm(amps), d)
    positions = layout.permutation(n)[:45]
    bases = layout.integers(2, size=len(positions)).astype(np.int8)
    for seed in range(4):
        batch = ParticleBatch(np.where(probed, PROBED, codes))
        for i, state in probes.items():
            batch.probe[i] = state
        rng = np.random.default_rng(seed)
        bits = batch.measure(positions, bases, rng)

        ref_rng = np.random.default_rng(seed)
        states = {i: probes.get(i, BB84_STATES[c]) for i, c in enumerate(codes.tolist())}
        want = []
        for pos, b in zip(positions.tolist(), bases.tolist()):
            step = measure_qubit if pos in probes else measure
            bit, states[pos] = step(states[pos], BASES[b], ref_rng)
            want.append(bit)
        assert bits.tolist() == want
        assert rng.random() == ref_rng.random()
        for i, state in states.items():
            if i in probes:
                assert batch.code[i] == PROBED
                assert np.array_equal(batch.probe[i].amps, state.amps)
            else:
                assert BB84_STATES[batch.code[i]] == state


def test_batch_indexing_keeps_columns_aligned():
    batch = ParticleBatch([0, 1, 2, 3])
    batch.probe[2] = lift(BB84_STATES[2], 2)
    picked = batch[np.array([2, 0])]
    assert picked.code.tolist() == [2, 0]
    assert picked.probe[0] is batch.probe[2] and picked.probe[1] is None
    assert len(batch[1:]) == 3
