"""Tests for the quantum state primitives."""

import numpy as np
import pytest

from sqss.qstate import (
    BASES,
    BB84,
    BB84_STATES,
    Basis,
    CompositeState,
    DensityMatrix,
    PrepState,
    PureState,
    _collapse,
    _draw,
    apply_unitary,
    apply_unitary_batch,
    basis_of,
    branch_probability,
    check_unitary,
    expected_outcome,
    lift,
    measure,
    measure_codes,
    measure_qubit,
    prepare,
    probe_density,
    trace_distance,
    zstate,
)

RT2 = 1.0 / np.sqrt(2.0)


def test_prepare_canonical_vectors():
    assert prepare(PrepState.ZERO).vector() == pytest.approx([1, 0])
    assert prepare(PrepState.ONE).vector() == pytest.approx([0, 1])
    assert prepare(PrepState.PLUS).vector() == pytest.approx([RT2, RT2])
    assert prepare(PrepState.MINUS).vector() == pytest.approx([RT2, -RT2])


def test_basis_classification():
    assert basis_of(PrepState.ZERO) is Basis.Z
    assert basis_of(PrepState.ONE) is Basis.Z
    assert basis_of(PrepState.PLUS) is Basis.X
    assert basis_of(PrepState.MINUS) is Basis.X
    assert expected_outcome(PrepState.PLUS) == 0
    assert expected_outcome(PrepState.MINUS) == 1


def test_normalization_enforced():
    with pytest.raises(ValueError):
        PureState(1.0, 1.0)


def test_eigenstate_measurement_is_deterministic():
    rng = np.random.default_rng(0)
    for _ in range(50):
        bit, collapsed = measure(prepare(PrepState.ONE), Basis.Z, rng)
        assert bit == 1
        assert collapsed.vector() == pytest.approx([0, 1])


def test_repeated_measurement_same_basis_stable():
    rng = np.random.default_rng(1)
    for s in PrepState:
        for basis in Basis:
            state = prepare(s)
            bit, state = measure(state, basis, rng)
            for _ in range(5):
                bit2, state = measure(state, basis, rng)
                assert bit2 == bit


def test_born_rule_statistics_plus_in_z():
    rng = np.random.default_rng(2)
    n = 100_000
    zeros = sum(measure(prepare(PrepState.PLUS), Basis.Z, rng)[0] == 0
                for _ in range(n))
    sigma = np.sqrt(0.25 * n)
    assert abs(zeros - n / 2) < 4 * sigma


def test_x_outcome_encoding():
    rng = np.random.default_rng(3)
    bit, collapsed = measure(prepare(PrepState.PLUS), Basis.X, rng)
    assert bit == 0
    assert collapsed.vector() == pytest.approx([RT2, RT2])
    bit, _ = measure(prepare(PrepState.MINUS), Basis.X, rng)
    assert bit == 1


def test_unitary_round_trip_on_random_states():
    rng = np.random.default_rng(4)
    d = 3
    for _ in range(20):
        z = rng.normal(size=(2 * d, 2 * d)) + 1j * rng.normal(size=(2 * d, 2 * d))
        q, r = np.linalg.qr(z)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        amps = rng.normal(size=2 * d) + 1j * rng.normal(size=2 * d)
        state = CompositeState(amps / np.linalg.norm(amps), d)
        back = apply_unitary(apply_unitary(state, u), u.conj().T)
        assert np.abs(back.amps - state.amps).max() < 1e-9


def test_non_unitary_rejected_with_magnitude():
    with pytest.raises(ValueError, match="unitary"):
        check_unitary(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_cnot_on_plus_entangles_probe():
    state = lift(prepare(PrepState.PLUS), 2)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    out = apply_unitary(state, cnot)
    assert out.amps == pytest.approx([RT2, 0, 0, RT2])


def test_measure_qubit_collapse_branches():
    # (|0>|e0> + |1>|e1>)/sqrt(2)
    state = CompositeState(np.array([RT2, 0, 0, RT2]), 2)
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(50):
        bit, collapsed = measure_qubit(state, Basis.Z, rng)
        seen.add(bit)
        expected = np.zeros(4)
        expected[bit * 2 + bit] = 1.0
        assert collapsed.amps == pytest.approx(expected)
    assert seen == {0, 1}


def test_measure_qubit_product_state_deterministic():
    state = lift(prepare(PrepState.ONE), 3)
    rng = np.random.default_rng(6)
    bit, collapsed = measure_qubit(state, Basis.Z, rng)
    assert bit == 1
    assert collapsed.amps == pytest.approx(state.amps)


def test_probe_density_partial_trace():
    state = CompositeState(np.array([RT2, 0, 0, RT2]), 2)
    rho = probe_density(state)
    assert rho.entries == pytest.approx(np.eye(2) / 2)
    conditioned = probe_density(state, condition=(Basis.Z, 1))
    assert conditioned.entries == pytest.approx(np.outer([0, 1], [0, 1]))


def test_probe_density_zero_branch_rejected():
    state = CompositeState(np.array([1.0, 0, 0, 0]), 2)
    with pytest.raises(ValueError, match="branch"):
        probe_density(state, condition=(Basis.Z, 1))


def test_trace_distance_properties():
    e0 = DensityMatrix(np.outer([1, 0], [1, 0]))
    e1 = DensityMatrix(np.outer([0, 1], [0, 1]))
    mixed = DensityMatrix(np.eye(2) / 2)
    assert trace_distance(e0, e0) == pytest.approx(0.0)
    assert trace_distance(e0, e1) == pytest.approx(1.0)
    assert trace_distance(e0, mixed) == pytest.approx(0.5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        mats = []
        for _ in range(3):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = a @ a.conj().T
            mats.append(DensityMatrix(h / np.trace(h).real))
        x, y, z = mats
        assert trace_distance(x, y) == pytest.approx(trace_distance(y, x))
        assert trace_distance(x, z) <= trace_distance(x, y) + trace_distance(y, z) + 1e-12


def test_zstate_helper():
    assert zstate(0).vector() == pytest.approx([1, 0])
    assert zstate(1).vector() == pytest.approx([0, 1])


def _random_unitary(m, rng):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_amps(size, rng):
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_unitary_matches_per_state_apply(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(10):
        u = _random_unitary(2 * d, rng)
        states = [PureState(*_random_amps(2, rng)) if rng.random() < 0.5
                  else CompositeState(_random_amps(2 * d, rng), d) for _ in range(12)]
        out = apply_unitary_batch(states, u, d)
        assert len(out) == len(states)
        for s, got in zip(states, out):
            want = apply_unitary(lift(s, d) if isinstance(s, PureState) else s, u)
            assert isinstance(got, CompositeState) and got.dim_probe == d
            assert not got.amps.flags.writeable
            assert np.abs(got.amps - want.amps).max() < 1e-12


def test_batch_unitary_rejects_one_unnormalized_row():
    # Stretches the |1>|e0> direction; only the |1> qubit has weight there.
    u = np.diag([1.0, 1.5])
    assert len(apply_unitary_batch([zstate(0), zstate(0)], u, 1)) == 2
    with pytest.raises(ValueError, match="not normalized"):
        apply_unitary_batch([zstate(0), zstate(1), zstate(0)], u, 1)


def test_batch_unitary_rejects_a_mismatched_probe():
    with pytest.raises(ValueError, match="probe dimension"):
        apply_unitary_batch([lift(zstate(0), 3)], np.eye(4), 2)


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
def test_measure_qubit_matches_branch_probability_and_collapse(basis):
    rng = np.random.default_rng(50)
    projectors = {Basis.Z: (zstate(0).vector(), zstate(1).vector()),
                  Basis.X: (prepare(PrepState.PLUS).vector(),
                            prepare(PrepState.MINUS).vector())}
    for seed in range(40):
        d = 1 + seed % 3
        state = CompositeState(_random_amps(2 * d, rng), d)
        ref_rng = np.random.default_rng(seed)
        want_bit = _draw(branch_probability(state, basis, 0), ref_rng)
        want = _collapse(state, basis, want_bit)
        meas_rng = np.random.default_rng(seed)
        bit, got = measure_qubit(state, basis, meas_rng)
        assert bit == want_bit
        assert np.array_equal(got.amps, want.amps)
        assert meas_rng.random() == ref_rng.random()
        # Independent reference: (|b><b| (x) I) psi, renormalized.
        b = projectors[basis][bit]
        proj = np.kron(np.outer(b, b.conj()), np.eye(d)) @ state.amps
        assert np.abs(got.amps - proj / np.linalg.norm(proj)).max() < 1e-12


def test_measure_codes_matches_measure_draw_for_draw():
    """Every code x basis, in a shuffled layer: the same outcomes, collapsed
    states and final RNG state as calling measure on each qubit in turn."""
    layout = np.random.default_rng(60)
    codes = layout.integers(len(BB84), size=400).astype(np.int8)
    bases = layout.integers(len(BASES), size=400).astype(np.int8)
    assert {(c, b) for c, b in zip(codes.tolist(), bases.tolist())} == {
        (c, b) for c in range(4) for b in range(2)}
    for seed in range(5):
        ref_rng = np.random.default_rng(seed)
        want = [measure(BB84_STATES[c], BASES[b], ref_rng)
                for c, b in zip(codes.tolist(), bases.tolist())]
        rng = np.random.default_rng(seed)
        bits, collapsed = measure_codes(codes, bases, rng)
        assert bits.tolist() == [bit for bit, _ in want]
        assert [BB84_STATES[c] for c in collapsed.tolist()] == [state for _, state in want]
        assert rng.random() == ref_rng.random()


def test_measure_codes_draws_nothing_for_certain_outcomes():
    rng = np.random.default_rng(61)
    state = rng.bit_generator.state
    bits, collapsed = measure_codes(np.array([0, 1, 2, 3], dtype=np.int8),
                                    np.array([0, 0, 1, 1], dtype=np.int8), rng)
    assert bits.tolist() == [0, 1, 0, 1] and collapsed.tolist() == [0, 1, 2, 3]
    assert rng.bit_generator.state == state
