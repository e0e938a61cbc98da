"""Tests for shared protocol machinery: channel legs, checks, keys."""

import dataclasses

import numpy as np
import pytest
from reference_qstate import measure_qubit

from sqss import runtime
from sqss.adversary import AttackSpec, resolve_attack
from sqss.em_analysis import random_pair
from sqss.protocol_a import ProtocolAConfig, run_protocol_a
from sqss.protocol_a import default_thresholds as default_thresholds_a
from sqss.protocol_b import ProtocolBConfig, run_protocol_b
from sqss.protocol_b import default_thresholds as default_thresholds_b
from sqss.qstate import BB84_AMPS, Basis, CompositeState, lift, measure
from sqss.runtime import (
    CheckVerdict,
    KeyMaterial,
    Leg,
    ParticleBatch,
    ParticleConservationError,
    RunReport,
    SimulationError,
    circulate,
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
    states = batch.states
    assert transmit(batch, Leg.ALICE_TO_BOB, None, rng) is None
    assert batch.states is states


def test_transmit_empty_batch_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(SimulationError):
        transmit([], Leg.ALICE_TO_BOB, None, rng)


def test_transmit_detects_particle_loss():
    rng = np.random.default_rng(0)

    def dropper(batch, leg, rng):
        batch.states = batch.states[:-1]

    with pytest.raises(ParticleConservationError, match="left 9 particles, expected 10"):
        transmit(_batch(10), Leg.BOB_TO_CHARLIE, dropper, rng)


def test_transmit_accepts_in_place_interceptor():
    rng = np.random.default_rng(0)
    seen = []

    def faker(batch, leg, rng):
        seen.append(leg)
        batch.fake([1, 0, 1])

    batch = _batch(3)
    transmit(batch, Leg.CHARLIE_TO_ALICE, faker, rng)
    assert seen == [Leg.CHARLIE_TO_ALICE]
    assert batch.states.tolist() == [1, 0, 1]


class _RingPlan:
    """A plan whose interceptors log each leg and may change the count."""

    def __init__(self, log, resize=None):
        self.log, self.resize = log, resize

    def interceptor(self, leg):
        def intercept(batch, leg, rng):
            self.log.append(leg.value)
            if leg is self.resize:
                batch.states = batch.states[1:]
        return intercept


def test_circulate_runs_the_legs_and_steps_in_ring_order():
    rng = np.random.default_rng(0)
    log = []

    def step(role):
        def grow(batch, rng):
            log.append(role)
            batch.states = np.concatenate([batch.states, batch.states])
        return grow

    batch = _batch(3)
    assert circulate(batch, _RingPlan(log), (step("bob"), step("charlie")), rng) is None
    assert log == ["alice_to_bob", "bob", "bob_to_charlie", "charlie", "charlie_to_alice"]
    assert len(batch) == 12
    with pytest.raises(ParticleConservationError, match="bob_to_charlie"):
        circulate(_batch(3), _RingPlan([], Leg.BOB_TO_CHARLIE),
                  (step("bob"), step("charlie")), rng)


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


@pytest.mark.parametrize("probed", [False, True], ids=["bare", "probed"])
def test_batch_measure_matches_one_at_a_time(probed):
    """A layer at scrambled positions, in random bases: the same outcomes,
    collapsed states and final RNG state as measure on each bare particle,
    or the projector reference on each probed row, in turn.  Probed rows
    agree with the reference within 1e-12; unmeasured particles are left
    as they were."""
    layout = np.random.default_rng(70)
    n, d = 60, 2
    codes = layout.integers(4, size=n).astype(np.int8)
    rows = np.array([_random_amps(2 * d, layout) for _ in range(n)])
    positions = layout.permutation(n)[:45]
    bases = layout.integers(2, size=45).astype(np.int8)
    for seed in range(4):
        batch = ParticleBatch(rows.copy() if probed else codes)
        assert batch.probed == probed and len(batch) == n
        rng = np.random.default_rng(seed)
        bits = batch.measure(positions, bases, rng)

        ref_rng = np.random.default_rng(seed)
        states = {i: CompositeState(rows[i], d) if probed else BB84_AMPS[c]
                  for i, c in enumerate(codes.tolist())}
        want = []
        for pos, b in zip(positions.tolist(), bases.tolist()):
            step = measure_qubit if probed else measure
            bit, states[pos] = step(states[pos], Basis(b), ref_rng)
            want.append(bit)
        assert bits.tolist() == want
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for i, state in states.items():
            if probed:
                assert np.abs(batch.states[i] - state.amps).max() < 1e-12
            else:
                assert np.array_equal(BB84_AMPS[batch.states[i]], state)
        unmeasured = np.setdiff1d(np.arange(n), positions)
        before = rows if probed else codes
        assert np.array_equal(batch.states[unmeasured], before[unmeasured])


@pytest.mark.parametrize("probed", [False, True], ids=["bare", "probed"])
def test_batch_measure_of_no_positions_draws_nothing(probed):
    rows = np.array([lift(BB84_AMPS[c], 2).amps for c in range(4)])
    before = rows if probed else np.arange(4)
    batch = ParticleBatch(before.copy())
    rng = np.random.default_rng(71)
    state = rng.bit_generator.state
    bits = batch.measure(np.zeros(0, dtype=np.intp), Basis.Z, rng)
    assert bits.shape == (0,)
    assert rng.bit_generator.state == state
    assert np.array_equal(batch.states, before)


@pytest.mark.parametrize("probed", [False, True], ids=["bare", "probed"])
@pytest.mark.parametrize("basis", [Basis.Z, Basis.X], ids=["Z", "X"])
def test_batch_measure_reads_one_basis_for_the_layer(probed, basis):
    """One basis for the whole layer measures as that basis repeated per
    position: the same bits, collapsed states and final RNG state, with
    certain and uncertain outcomes in the layer.  An empty layer draws
    nothing."""
    layout = np.random.default_rng(72)
    n, d = 30, 2
    codes = layout.integers(4, size=n).astype(np.int8)
    states = codes
    if probed:   # half random rows, half lifted BB84 states
        states = ParticleBatch(codes).amplitudes(d)
        states[::2] = [_random_amps(2 * d, layout) for _ in range(0, n, 2)]
    positions = layout.permutation(n)[:20]
    for where in (positions, np.zeros(0, dtype=np.intp)):
        got, want = ParticleBatch(states.copy()), ParticleBatch(states.copy())
        rng, ref_rng = np.random.default_rng(73), np.random.default_rng(73)
        before = rng.bit_generator.state
        bits = got.measure(where, basis, rng)
        want_bits = want.measure(where, np.full(len(where), basis, dtype=np.int8), ref_rng)
        assert bits.dtype == want_bits.dtype and np.array_equal(bits, want_bits)
        assert np.array_equal(got.states, want.states)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_amplitudes_lift_bare_rows_and_keep_probed_ones(d):
    rng = np.random.default_rng(80 + d)
    codes = np.array([0, 1, 2, 3, 2, 0], dtype=np.int8)
    assert np.array_equal(ParticleBatch(codes).amplitudes(d),
                          [lift(BB84_AMPS[c], d).amps for c in codes])
    rows = np.array([_random_amps(2 * d, rng) for _ in codes])
    batch = ParticleBatch(rows)
    assert batch.amplitudes(d) is rows
    with pytest.raises(ValueError, match=f"probe dimension {d}, expected {d + 1}"):
        batch.amplitudes(d + 1)


def test_batch_joins_copies_and_fakes_rows_or_codes():
    batch = ParticleBatch([0, 1, 2, 3])
    assert not batch.probed and batch.states.dtype == np.int8

    # A probed batch is its rows alone: joining and copying carry rows, and
    # its length is their count.
    rng = np.random.default_rng(90)
    rows = np.array([_random_amps(4, rng) for _ in range(5)])
    probed = ParticleBatch(rows.copy())
    assert probed.probed and len(probed) == 5 and probed.states.shape == (5, 4)

    # Beside a probed side, the bare side's particles join as lifted rows,
    # on either side.
    lifted = np.array([lift(BB84_AMPS[c], 2).amps for c in (1, 3)])
    joined = ParticleBatch.concat(probed, ParticleBatch([1, 3]))
    assert joined.probed and len(joined) == 7
    assert np.array_equal(joined.states, np.concatenate([rows, lifted]))
    joined = ParticleBatch.concat(ParticleBatch([1, 3]), probed)
    assert np.array_equal(joined.states, np.concatenate([lifted, rows]))
    joined = ParticleBatch.concat(probed, probed)
    assert len(joined) == 10 and np.array_equal(joined.states, np.concatenate([rows, rows]))
    bare = ParticleBatch.concat(batch, batch)
    assert not bare.probed and bare.states.tolist() == [0, 1, 2, 3] * 2
    wider = ParticleBatch(lift(BB84_AMPS[0], 3).amps[None])
    with pytest.raises(ValueError, match="probe dimension 3, expected 2"):
        ParticleBatch.concat(probed, wider)

    # copy() copies the rows, or the codes.
    copy = probed.copy()
    assert copy.probed and len(copy) == 5
    copy.states[3] = 0
    assert np.array_equal(probed.states, rows)
    copy = batch.copy()
    copy.states[2] = 0
    assert not copy.probed and batch.states.tolist() == [0, 1, 2, 3]

    probed.fake([1, 0, 1, 1, 0])
    assert not probed.probed and probed.states.tolist() == [1, 0, 1, 1, 0]


def _report_cases():
    pair = {mode: random_pair(mode, 2, np.random.default_rng(5)) for mode in "AB"}
    return {
        ("A", "honest"): (ProtocolAConfig(n=20, m=45), None),
        ("A", "aborted"): (ProtocolAConfig(n=20, m=45), resolve_attack("A", "a.mr.bob.1")),
        ("A", "em"): (ProtocolAConfig(n=20, m=45, thresholds=default_thresholds_a(1.0)),
                      AttackSpec("A", "em", pair=pair["A"])),
        ("B", "honest"): (ProtocolBConfig(n=40), None),
        ("B", "aborted"): (ProtocolBConfig(n=40), resolve_attack("B", "b.mr.charlie")),
        ("B", "em"): (ProtocolBConfig(n=16, thresholds=default_thresholds_b(1.0)),
                      AttackSpec("B", "em", pair=pair["B"])),
    }


@pytest.mark.parametrize("protocol", ["A", "B"])
@pytest.mark.parametrize("kind", ["honest", "aborted", "em"])
def test_report_packing_round_trips(monkeypatch, protocol, kind):
    """A report's checks, keys and digest, rebuilt from its packed bytes, are
    what the runner put in its transcript; ``__dict__`` rebuilds an equal
    report, and the repr names the seven constructor fields in order."""
    config, attack = _report_cases()[(protocol, kind)]
    run = {"A": run_protocol_a, "B": run_protocol_b}[protocol]
    payloads = []
    real = runtime.transcript_digest
    monkeypatch.setattr(runtime, "transcript_digest", lambda p: payloads.append(p) or real(p))
    report = run(config, attack, (3, 1))
    (payload,) = payloads
    assert report.aborted == (kind == "aborted")
    assert [[c.check_id, c.compared, c.mismatches] for c in report.checks] == payload["checks"]
    assert report.checks == tuple(
        evaluate_check(c.check_id, c.compared, c.mismatches, config.thresholds[c.check_id])
        for c in report.checks)
    assert report.keys == (None if payload["keys"] is None else KeyMaterial(*payload["keys"]))
    assert report.digest == real(payload)
    assert report.transcript_digest == real(payload).hex()
    rebuilt = RunReport(**report.__dict__)
    assert rebuilt == report and rebuilt.__dict__ == report.__dict__
    assert hash(rebuilt) == hash(report)
    fields = ("protocol", "seed", "checks", "abort_reason", "keys", "payoff", "digest")
    assert repr(report) == f"RunReport({', '.join(f'{n}={getattr(report, n)!r}' for n in fields)})"
    assert repr(rebuilt) == repr(report)
    with pytest.raises(KeyError):
        report.check("nope")


def test_report_rebuilds_with_a_replaced_verdict():
    """A verdict built by position, with a truthy non-bool ``passed``, packs
    as a bool and survives the ``__dict__`` rebuild."""
    report = RunReport("A", (1, 2), [evaluate_check("case1", 8, 0, 0.05)], None,
                       KeyMaterial("0110", "1100"), None, bytes(range(32)))
    bad = CheckVerdict("case1", 10, 1, 0.1, True)
    changed = RunReport(**{**report.__dict__, "checks": (bad,)})
    assert changed.checks == (CheckVerdict("case1", 10, 1, True, True),)
    assert changed.keys == report.keys and changed.digest == report.digest
    assert changed != report
    with pytest.raises(dataclasses.FrozenInstanceError):
        changed.seed = (1, 3)


@pytest.mark.parametrize("checks, keys", [
    ([CheckVerdict("c", 1 << 32, 0, True)], None),
    ([CheckVerdict("c", 4, -1, True)], None),
    ([], KeyMaterial("012", "110")),
    ([], KeyMaterial("ab", "11")),
])
def test_report_packing_rejects_what_does_not_fit(checks, keys):
    with pytest.raises(ValueError):
        RunReport("A", 0, checks, None, keys, None, bytes(32))
    with pytest.raises(ValueError, match="digest must be 32 bytes"):
        RunReport("A", 0, [], None, None, None, bytes(31))


def test_report_packs_the_largest_counts_and_empty_keys():
    top = (1 << 32) - 1
    report = RunReport("B", 0, [CheckVerdict("c", top, top, False, True)], None,
                       KeyMaterial("", ""), None, bytes(32))
    assert report.checks == (CheckVerdict("c", top, top, False, True),)
    assert report.keys == KeyMaterial("", "") and report.digest == bytes(32)
