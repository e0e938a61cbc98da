"""Tests for shared protocol machinery: channel legs, checks, keys."""

import numpy as np
import pytest
from reference_qstate import measure_qubit

from sqss.qstate import BB84_AMPS, Basis, CompositeState, lift, measure
from sqss.runtime import (
    PROBED,
    KeyMaterial,
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
    km = derive_keys(np.array([1, 0, 1, 1], dtype=np.int8), np.array([0, 1], dtype=np.int8))
    assert km.k_b == "10"
    assert km.k_c == "01"
    assert km.k_a == "11"
    assert km.k_a == xor_keys(km.k_b, km.k_c)
    with pytest.raises(ValueError, match="equal length"):
        KeyMaterial(k_b="01", k_c="1")


def test_transcript_digest_is_order_insensitive_and_stable():
    a = transcript_digest({"x": 1, "y": [1, 2]})
    b = transcript_digest({"y": [1, 2], "x": 1})
    assert a == b
    assert a != transcript_digest({"x": 2, "y": [1, 2]})


def _random_amps(size, rng):
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


def test_batch_measure_mixed_layer_matches_one_at_a_time():
    """Bare and probed particles interleaved, measured in a scrambled order:
    the same outcomes, collapsed states and final RNG state as measure on
    each bare particle and the projector reference on each probed one, in
    turn.  Probed rows agree with the reference within 1e-12."""
    layout = np.random.default_rng(70)
    n, d = 60, 2
    codes = layout.integers(4, size=n).astype(np.int8)
    probed = layout.random(n) < 0.4
    # Bare rows hold junk: only the probed rows are read.
    rows = layout.normal(size=(n, 2 * d)) + 0j
    for i in np.flatnonzero(probed).tolist():
        rows[i] = _random_amps(2 * d, layout)
    positions = layout.permutation(n)[:45]
    bases = layout.integers(2, size=len(positions)).astype(np.int8)
    for seed in range(4):
        batch = ParticleBatch(np.where(probed, PROBED, codes), rows.copy())
        rng = np.random.default_rng(seed)
        bits = batch.measure(positions, bases, rng)

        ref_rng = np.random.default_rng(seed)
        states = {i: CompositeState(rows[i], d) if probed[i] else BB84_AMPS[c]
                  for i, c in enumerate(codes.tolist())}
        want = []
        for pos, b in zip(positions.tolist(), bases.tolist()):
            step = measure_qubit if probed[pos] else measure
            bit, states[pos] = step(states[pos], Basis(b), ref_rng)
            want.append(bit)
        assert bits.tolist() == want
        assert rng.random() == ref_rng.random()
        for i, state in states.items():
            if probed[i]:
                assert batch.code[i] == PROBED
                assert np.abs(batch.probe[i] - state.amps).max() < 1e-12
            else:
                assert np.array_equal(BB84_AMPS[batch.code[i]], state)
                assert np.array_equal(batch.probe[i], rows[i])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_amplitudes_lift_bare_rows_and_keep_probed_ones(d):
    rng = np.random.default_rng(80 + d)
    codes = np.array([0, 1, 2, 3, 2, 0], dtype=np.int8)
    assert np.array_equal(ParticleBatch(codes).amplitudes(d),
                          [lift(BB84_AMPS[c], d).amps for c in codes])
    probed = np.array([False, True, False, True, True, False])
    rows = rng.normal(size=(len(codes), 2 * d)) + 0j
    batch = ParticleBatch(np.where(probed, PROBED, codes), rows.copy())
    got = batch.amplitudes(d)
    for i, c in enumerate(codes.tolist()):
        want = rows[i] if probed[i] else lift(BB84_AMPS[c], d).amps
        assert np.array_equal(got[i], want)
    got[:] = 0
    assert np.array_equal(batch.probe, rows)
    with pytest.raises(ValueError, match=f"probe dimension {d}, expected {d + 1}"):
        batch.amplitudes(d + 1)


def test_batch_indexing_keeps_columns_aligned():
    batch = ParticleBatch([0, 1, 2, 3])
    picked = batch[np.array([2, 0])]
    assert picked.code.tolist() == [2, 0] and picked.probe is None
    assert len(batch[1:]) == 3

    rng = np.random.default_rng(90)
    rows = np.zeros((4, 4), dtype=complex)
    rows[2] = lift(BB84_AMPS[2], 2).amps
    rows[3] = _random_amps(4, rng)
    probed = ParticleBatch([0, 1, PROBED, PROBED], rows.copy())
    order = np.array([3, 0, 2, 1])
    picked = probed[order]
    assert picked.code.tolist() == [PROBED, 0, PROBED, 1]
    assert np.array_equal(picked.probe, rows[order])
    assert picked.probe.shape == (4, 4)

    # A side without probes is padded with zero rows, on either side.
    joined = ParticleBatch.concat(probed, ParticleBatch([1, 3]))
    assert joined.code.tolist() == [0, 1, PROBED, PROBED, 1, 3]
    assert np.array_equal(joined.probe, np.concatenate([rows, np.zeros((2, 4))]))
    joined = ParticleBatch.concat(ParticleBatch([1]), probed)
    assert np.array_equal(joined.probe, np.concatenate([np.zeros((1, 4)), rows]))
    assert ParticleBatch.concat(batch, batch).probe is None

    # states() copies both columns.
    copy = probed.states()
    copy.code[2] = 0
    copy.probe[3] = 0
    assert probed.code.tolist() == [0, 1, PROBED, PROBED]
    assert np.array_equal(probed.probe, rows)

    probed.fake([1, 0, 1, 1])
    assert probed.code.tolist() == [1, 0, 1, 1] and probed.probe is None
