"""Tests for the quantum state primitives."""

import numpy as np
import pytest
from reference_qstate import apply_unitary, branch_probability, draw
from reference_qstate import measure_qubit as reference_measure_qubit

from sqss.adversary import UnitaryPair
from sqss.protocol_a import _ALICE_BASIS
from sqss.qstate import (
    _COLLAPSED_CODE,
    BASIS_OF_CODE,
    BB84_AMPS,
    EXPECTED_OF_CODE,
    MIN_BRANCH_PROB,
    Basis,
    CompositeState,
    DensityMatrix,
    PrepState,
    _draw_bits,
    apply_unitary_batch,
    bb84_rows,
    check_density_matrices,
    check_unitary,
    lift,
    measure,
    measure_codes,
    measure_qubit,
    prepare,
    trace_distance,
    zstate,
)
from sqss.runtime import ParticleBatch

RT2 = 1.0 / np.sqrt(2.0)


def test_prepare_canonical_vectors():
    assert prepare(PrepState.ZERO) == pytest.approx([1, 0])
    assert prepare(PrepState.ONE) == pytest.approx([0, 1])
    assert prepare(PrepState.PLUS) == pytest.approx([RT2, RT2])
    assert prepare(PrepState.MINUS) == pytest.approx([RT2, -RT2])
    for code, s in enumerate(PrepState):
        assert s == code
        assert np.array_equal(prepare(s), BB84_AMPS[code])
        assert not prepare(s).flags.writeable
    for bad in (-1, 4, "+"):
        with pytest.raises(ValueError):
            prepare(bad)


def test_basis_classification():
    assert BASIS_OF_CODE[PrepState.ZERO] == Basis.Z
    assert BASIS_OF_CODE[PrepState.ONE] == Basis.Z
    assert BASIS_OF_CODE[PrepState.PLUS] == Basis.X
    assert BASIS_OF_CODE[PrepState.MINUS] == Basis.X
    assert EXPECTED_OF_CODE[PrepState.PLUS] == 0
    assert EXPECTED_OF_CODE[PrepState.MINUS] == 1
    # The literal tables against the amplitudes: each code's state is an
    # eigenvector of exactly one basis, that basis and the eigenvector's
    # index are its basis and expected bit, and measuring that outcome in
    # that basis collapses onto the code itself.
    eigenvectors = {Basis.Z: np.eye(2), Basis.X: np.array([[1, 1], [1, -1]]) * RT2}
    for code, amps in enumerate(BB84_AMPS):
        [(basis, bit)] = [(b, k) for b, vecs in eigenvectors.items()
                          for k, vec in enumerate(vecs)
                          if abs(abs(np.vdot(vec, amps)) - 1.0) < 1e-12]
        assert BASIS_OF_CODE[code] == basis
        assert EXPECTED_OF_CODE[code] == bit
        assert _COLLAPSED_CODE[basis, bit] == code
    # Alice measures cases 1-3 in Z and case 4 in the preparation basis.
    assert np.array_equal(_ALICE_BASIS[3], BASIS_OF_CODE)
    assert (_ALICE_BASIS[:3] == Basis.Z).all()


def test_normalization_enforced():
    for d in (1, 2):
        with pytest.raises(ValueError, match="not normalized"):
            lift(np.array([1.0, 1.0]), d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bb84_rows_are_the_lifted_states(d):
    """Row i is BB84 code i lifted beside the probe's |e0>, bit for bit; the
    table cannot be written, and each d has one."""
    rows = bb84_rows(d)
    assert rows.shape == (len(PrepState), 2 * d)
    for code, row in enumerate(rows):
        assert np.array_equal(row, lift(BB84_AMPS[code], d).amps)
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0
    assert bb84_rows(d) is rows


def test_born_rule_statistics_plus_in_z():
    """100 000 |+> measured in Z as one layer give 0 half the time, within
    4 sigma; the layer's first 1 000 bits are the draws of 1 000 scalar
    ``measure`` calls from the same seed."""
    n = 100_000
    bits, _ = measure_codes(np.full(n, PrepState.PLUS, np.int8), Basis.Z,
                            np.random.default_rng(2))
    rng = np.random.default_rng(2)
    assert ([measure(prepare(PrepState.PLUS), Basis.Z, rng)[0] for _ in range(1000)]
            == bits[:1000].tolist())
    zeros = n - np.count_nonzero(bits)
    sigma = np.sqrt(0.25 * n)
    assert abs(zeros - n / 2) < 4 * sigma


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


def _eye_with(n, value, scale=1.0):
    """``scale`` times the n x n identity, with ``value`` at row 1, last column."""
    m = scale * np.eye(n, dtype=complex)
    m[1, -1] = value
    return m


NON_FINITE_INPUTS = {
    "check_unitary": lambda v: check_unitary(_eye_with(4, v)),
    "check_unitary-stack": lambda v: check_unitary(np.stack([np.eye(4), _eye_with(4, v)])),
    "UnitaryPair": lambda v: UnitaryPair(_eye_with(4, v), np.eye(4), "A"),
    "DensityMatrix": lambda v: DensityMatrix(_eye_with(2, v, 0.5)),
    "check_density_matrices": lambda v: check_density_matrices(
        np.stack([np.eye(2) / 2, _eye_with(2, v, 0.5)])),
    "CompositeState": lambda v: CompositeState(_eye_with(4, v)[1], 2),
    "apply_unitary_batch": lambda v: apply_unitary_batch(_eye_with(4, v)[:2], np.eye(4)),
    "measure": lambda v: measure(_eye_with(2, v)[1], Basis.Z, np.random.default_rng(0)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)],
                         ids=["nan", "inf", "-inf", "imag-inf"])
@pytest.mark.parametrize("validator", NON_FINITE_INPUTS)
def test_non_finite_entries_are_rejected(validator, value):
    # Rejected before any arithmetic: a RuntimeWarning would fail the test.
    with pytest.raises(ValueError, match="has a non-finite entry"):
        NON_FINITE_INPUTS[validator](value)


MALFORMED_INPUTS = {
    "non-square-unitary": (lambda: check_unitary(np.ones((2, 3))),
                           r"unitary must be square, got shape \(2, 3\)"),
    "short-composite": (lambda: CompositeState(np.array([1.0, 0.0, 0.0]), 2),
                        r"expected 4 amplitudes, got \(3,\)"),
    "long-qubit": (lambda: measure(np.array([1.0, 0.0, 0.0]), Basis.Z, np.random.default_rng(0)),
                   r"expected 2 amplitudes, got \(3,\)"),
    "unnormalized-qubit": (lambda: measure(np.array([2.0, 0.0]), Basis.X,
                                           np.random.default_rng(0)),
                           r"not normalized: \|amp\|\^2 = 4\.0"),
    "non-square-density": (lambda: DensityMatrix(np.ones((2, 3)) / 2),
                           r"density matrix must be square, got \(2, 3\)"),
    "non-hermitian": (lambda: DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]])),
                      "density matrix is not Hermitian"),
    "trace-2": (lambda: DensityMatrix(np.eye(2)), "density matrix trace is"),
    "negative-eigenvalue": (lambda: DensityMatrix(np.diag([1.5, -0.5])),
                            "density matrix has negative eigenvalue -5.000e-01"),
    "trace-distance-dims": (lambda: trace_distance(DensityMatrix(np.eye(2) / 2),
                                                   DensityMatrix(np.eye(4) / 4)),
                            "dimension mismatch: 2 vs 4"),
}


@pytest.mark.parametrize("case", MALFORMED_INPUTS)
def test_malformed_inputs_are_rejected(case):
    build, message = MALFORMED_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        build()


# One matrix per DensityMatrix fault, each rejected by one of its four checks.
DENSITY_FAULTS = {
    "nan": _eye_with(2, np.nan, 0.5),
    "non-hermitian": np.array([[0.5, 0.5], [0.0, 0.5]]),
    "trace-2": np.eye(2),
    "negative-eigenvalue": np.diag([1.5, -0.5]),
}


def _message(check, arg) -> str:
    with pytest.raises(ValueError) as raised:
        check(arg)
    return str(raised.value)


def _random_densities(shape, rng):
    """Seeded random 2 x 2 density matrices, a stack of ``shape``."""
    a = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    h = a @ a.conj().swapaxes(-1, -2)
    return h / np.trace(h, axis1=-2, axis2=-1).real[..., None, None]


@pytest.mark.parametrize("fault", DENSITY_FAULTS)
def test_stacked_density_check_finds_a_fault_in_the_last_matrix(fault):
    """A fault in the last matrix of a (3, 2, 2, 2) stack of valid density
    matrices raises what ``DensityMatrix`` raises for that matrix alone."""
    mats = _random_densities((3, 2), np.random.default_rng(41))
    check_density_matrices(mats)
    mats[-1, -1] = DENSITY_FAULTS[fault]
    assert (_message(check_density_matrices, mats)
            == _message(DensityMatrix, DENSITY_FAULTS[fault]))


@pytest.mark.parametrize("fault", [None, *DENSITY_FAULTS])
def test_a_stack_of_one_checks_as_a_density_matrix(fault):
    """``check_density_matrices`` on a stack of one accepts what
    ``DensityMatrix`` accepts and raises what it raises."""
    if fault is None:
        mat = _random_densities((), np.random.default_rng(42))
        check_density_matrices(mat[None])
        assert np.array_equal(DensityMatrix(mat).entries, mat)
    else:
        mat = DENSITY_FAULTS[fault]
        assert _message(check_density_matrices, mat[None]) == _message(DensityMatrix, mat)


def test_stacked_check_unitary_finds_a_non_unitary_last_member():
    """``check_unitary`` on a (3, 4, 4) stack of seeded unitaries whose last
    member is not unitary raises what it raises for that member alone, as
    does a ``UnitaryPair`` whose second unitary it is; a stack of one
    checks as its member."""
    rng = np.random.default_rng(43)
    stack = np.linalg.qr(rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)))[0]
    check_unitary(stack)
    bad = np.diag([1.0, 1.0, 1.0, 2.0])
    stack[-1] = bad
    expected = _message(check_unitary, bad)
    assert expected.startswith("matrix is not unitary")
    assert _message(check_unitary, stack) == _message(check_unitary, stack[-1:]) == expected
    assert _message(lambda u: UnitaryPair(np.eye(4), u, "A"), bad) == expected


def test_cnot_on_plus_entangles_probe():
    state = lift(prepare(PrepState.PLUS), 2)
    cnot = np.eye(4)[[0, 1, 3, 2]]
    out = apply_unitary(state, cnot)
    assert out.amps == pytest.approx([RT2, 0, 0, RT2])


def test_measure_qubit_collapse_branches():
    # (|0>|e0> + |1>|e1>)/sqrt(2), fifty copies measured as one layer.
    row = np.array([RT2, 0, 0, RT2], dtype=complex)
    rows = np.tile(row, (50, 1))
    rng = np.random.default_rng(5)
    bits, collapsed = measure_qubit(rows, np.zeros(50, np.int8), rng)
    assert set(bits.tolist()) == {0, 1}
    assert collapsed.shape == rows.shape and np.array_equal(rows[0], row)
    for bit, got in zip(bits.tolist(), collapsed):
        expected = np.zeros(4)
        expected[bit * 2 + bit] = 1.0
        assert got == pytest.approx(expected)


def test_measure_qubit_product_state_deterministic():
    """Product states measured in their own basis: certain outcomes, rows
    unchanged, and no draw."""
    d = 3
    rows = np.array([lift(prepare(s), d).amps for s in PrepState])
    bases = BASIS_OF_CODE.copy()
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    bits, collapsed = measure_qubit(rows, bases, rng)
    assert bits.tolist() == EXPECTED_OF_CODE.tolist()
    assert np.abs(collapsed - rows).max() < 1e-15
    assert rng.bit_generator.state == state


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
    assert zstate(0) == pytest.approx([1, 0])
    assert zstate(1) == pytest.approx([0, 1])


def _random_unitary(m, rng):
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_amps(size, rng):
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return amps / np.linalg.norm(amps)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batch_unitary_matches_per_state_apply(d):
    """Rows of lifted bare qubits and of joint states: each output row is
    ``apply_unitary`` of its input row."""
    rng = np.random.default_rng(40 + d)
    for _ in range(10):
        u = _random_unitary(2 * d, rng)
        bare = rng.random(12) < 0.5
        qubits = [_random_amps(2, rng) for _ in range(12)]
        rows = np.array([lift(v, d).amps if b else _random_amps(2 * d, rng)
                         for v, b in zip(qubits, bare)])
        before = rows.copy()
        out = apply_unitary_batch(rows, u)
        assert out.shape == rows.shape and np.array_equal(rows, before)
        for v, b, row, got in zip(qubits, bare, rows, out):
            want = apply_unitary(lift(v, d) if b else CompositeState(row, d), u)
            assert np.abs(got - want.amps).max() < 1e-12


def test_batch_unitary_rejects_one_unnormalized_row():
    # Stretches the |1>|e0> direction; only the |1> qubit has weight there.
    u = np.diag([1.0, 1.5])
    assert len(apply_unitary_batch(np.array([zstate(0), zstate(0)]), u)) == 2
    with pytest.raises(ValueError, match="not normalized"):
        apply_unitary_batch(np.array([zstate(0), zstate(1), zstate(0)]), u)


def test_batch_unitary_rejects_a_mismatched_probe():
    rows = lift(zstate(0), 3).amps[None]
    with pytest.raises(ValueError):
        apply_unitary_batch(rows, np.eye(4))
    with pytest.raises(ValueError, match="probe dimension 3, expected 2"):
        ParticleBatch(rows.copy()).amplitudes(2)


def _row_with_p0(p0, basis, d):
    """A joint row whose qubit, measured in ``basis``, gives 0 with
    probability ``p0``: probe |e_0> beside outcome 0 and |e_{d-1}> beside
    outcome 1, so that no normalization rounds the weights."""
    zero, one = np.zeros(d), np.zeros(d)
    zero[0], one[-1] = np.sqrt(p0), np.sqrt(1.0 - p0)
    if basis == Basis.Z:
        return np.concatenate([zero, one])
    return np.concatenate([zero + one, zero - one]) / np.sqrt(2.0)


# P(0) at the edges of the draw: certain, and just inside or outside the
# MIN_BRANCH_PROB margin at either end.  Near 1 the margins are wider than
# a few ulps of 1, which rounding in building and reading a row can reach.
EDGE_P0 = (0.0, 1.0, MIN_BRANCH_PROB / 3, 3 * MIN_BRANCH_PROB,
           1.0 - 2.0 ** -52, 1.0 - 5 * MIN_BRANCH_PROB)


@pytest.mark.parametrize("basis", [Basis.Z, Basis.X, None],
                         ids=["Basis.Z", "Basis.X", "mixed"])
def test_measure_qubit_matches_branch_probability_and_collapse(basis):
    """A stack of rows against the projector reference on each row in turn:
    under a shared seed the same outcomes, amplitudes within 1e-12 and the
    same RNG state after; the input rows are left as they were.  Each stack
    holds, in a shuffled order, a row with every P(0) of ``EDGE_P0``.  A
    mixed stack (``basis`` None) measures each row in a random basis, so X
    rows are mixed beside Z rows that are not."""
    rng = np.random.default_rng(50)
    for d in (1, 2, 3):
        n_rows = 15 + len(EDGE_P0)
        bases = (np.full(n_rows, basis, dtype=np.int8) if basis is not None
                 else rng.integers(2, size=n_rows).astype(np.int8))
        rows = np.array([_random_amps(2 * d, rng) for _ in range(15)]
                        + [_row_with_p0(p0, b, d) for p0, b in zip(EDGE_P0, bases[15:])])
        order = rng.permutation(len(rows))
        rows, bases = rows[order], bases[order]
        p0s = np.concatenate([np.full(15, 0.5), EDGE_P0])[order]
        states = [CompositeState(row, d) for row in rows]
        for seed in range(4):
            ref_rng = np.random.default_rng(seed)
            want = [reference_measure_qubit(state, b, ref_rng)
                    for state, b in zip(states, bases)]
            meas_rng = np.random.default_rng(seed)
            bits, got = measure_qubit(rows, bases, meas_rng)
            assert np.array_equal(rows, [state.amps for state in states])
            assert bits.tolist() == [bit for bit, _ in want]
            assert got.shape == rows.shape
            assert np.abs(got - [state.amps for _, state in want]).max() < 1e-12
            assert meas_rng.bit_generator.state == ref_rng.bit_generator.state
            # A certain outcome: P(0) = 0 gives 1, P(0) = 1 gives 0.
            assert bits[p0s == 0.0].tolist() == [1] and bits[p0s == 1.0].tolist() == [0]
        if basis is None:
            assert 0 < np.count_nonzero(bases) < n_rows
        # The two branch weights are a probability distribution.
        for state, b in zip(states, bases):
            weights = [branch_probability(state, b, bit) for bit in (0, 1)]
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_measure_codes_matches_measure_draw_for_draw():
    """Every code x basis, in a shuffled layer: the same outcomes, collapsed
    states and final RNG state as calling measure on each qubit in turn."""
    layout = np.random.default_rng(60)
    codes = layout.integers(len(PrepState), size=400).astype(np.int8)
    bases = layout.integers(len(Basis), size=400).astype(np.int8)
    assert {(c, b) for c, b in zip(codes.tolist(), bases.tolist())} == {
        (c, b) for c in range(4) for b in range(2)}
    for seed in range(5):
        ref_rng = np.random.default_rng(seed)
        want = [measure(BB84_AMPS[c], Basis(b), ref_rng)
                for c, b in zip(codes.tolist(), bases.tolist())]
        rng = np.random.default_rng(seed)
        bits, collapsed = measure_codes(codes, bases, rng)
        assert bits.tolist() == [bit for bit, _ in want]
        assert np.array_equal(BB84_AMPS[collapsed], [state for _, state in want])
        assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("p0", [
    [0.0, 1e-16, MIN_BRANCH_PROB, 0.5, 1.0 - 1e-16, 1.0, 0.25, 1.0 - MIN_BRANCH_PROB],
    [0.5, 0.25, 0.75],
    [0.0, 1.0],
], ids=["mixed", "none-certain", "all-certain"])
def test_draw_bits_draws_as_draw_does(p0):
    """A layer's bits, int8, and its final RNG state are those of the
    reference ``draw`` on each P(0) in turn, at and around both ``MIN_BRANCH_PROB``
    thresholds."""
    p0 = np.array(p0)
    ref_rng, rng = np.random.default_rng(62), np.random.default_rng(62)
    want = [draw(p, ref_rng) for p in p0.tolist()]
    bits = _draw_bits(p0, rng)
    assert bits.dtype == np.int8 and bits.tolist() == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_measure_codes_draws_nothing_for_certain_outcomes():
    rng = np.random.default_rng(61)
    state = rng.bit_generator.state
    bits, collapsed = measure_codes(np.array([0, 1, 2, 3], dtype=np.int8),
                                    np.array([0, 0, 1, 1], dtype=np.int8), rng)
    assert bits.tolist() == [0, 1, 0, 1] and collapsed.tolist() == [0, 1, 2, 3]
    assert rng.bit_generator.state == state
