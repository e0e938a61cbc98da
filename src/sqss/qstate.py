"""Exact complex-amplitude state math for one qubit and qubit-plus-probe systems.

Amplitudes are double-precision complex numbers.  Tolerances below are fixed
constants: every protocol state is exactly representable, so they only absorb
floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

UNITARY_ATOL = 1e-10
DENSITY_ATOL = 1e-10
MIN_BRANCH_PROB = 1e-15

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class Basis(Enum):
    Z = "Z"
    X = "X"


class PrepState(Enum):
    ZERO = "0"
    ONE = "1"
    PLUS = "+"
    MINUS = "-"


def basis_of(s: PrepState) -> Basis:
    """Preparation basis of one of the four protocol states."""
    return Basis.Z if s in (PrepState.ZERO, PrepState.ONE) else Basis.X


def expected_outcome(s: PrepState) -> int:
    """Measurement outcome bit an undisturbed state yields in its own basis.

    X-basis outcomes use the global convention 0 = plus, 1 = minus.
    """
    return 0 if s in (PrepState.ZERO, PrepState.PLUS) else 1


@dataclass(frozen=True)
class PureState:
    """Single-qubit state (amp0, amp1) in the computational basis."""

    amp0: complex
    amp1: complex

    def __post_init__(self):
        norm_sq = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |amp|^2 = {norm_sq!r}")

    def vector(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)


_PREP_AMPS = {
    PrepState.ZERO: (1.0 + 0j, 0.0 + 0j),
    PrepState.ONE: (0.0 + 0j, 1.0 + 0j),
    PrepState.PLUS: (_INV_SQRT2 + 0j, _INV_SQRT2 + 0j),
    PrepState.MINUS: (_INV_SQRT2 + 0j, -_INV_SQRT2 + 0j),
}


def prepare(s: PrepState) -> PureState:
    """Canonical amplitude vector for one of the four protocol states."""
    a0, a1 = _PREP_AMPS[s]
    return PureState(a0, a1)


def zstate(bit: int) -> PureState:
    return prepare(PrepState.ONE if bit else PrepState.ZERO)


def xstate(bit: int) -> PureState:
    return prepare(PrepState.MINUS if bit else PrepState.PLUS)


def basis_state(basis: Basis, bit: int) -> PureState:
    return zstate(bit) if basis is Basis.Z else xstate(bit)


def _weight(v: np.ndarray) -> float:
    """Squared norm of a complex vector."""
    return float(np.vdot(v, v).real)


def _draw(p0: float, rng: np.random.Generator) -> int:
    """Draw a bit with P(0) = p0, never selecting a branch below MIN_BRANCH_PROB."""
    if p0 < MIN_BRANCH_PROB:
        return 1
    if 1.0 - p0 < MIN_BRANCH_PROB:
        return 0
    return 0 if rng.random() < p0 else 1


def _bare_p0(state: PureState, basis: Basis) -> float:
    """Probability of outcome 0 when a bare qubit is measured in ``basis``."""
    v = state.vector()
    if basis is Basis.Z:
        return abs(v[0]) ** 2
    return abs((v[0] + v[1]) * _INV_SQRT2) ** 2


def measure(state: PureState, basis: Basis, rng: np.random.Generator) -> tuple[int, PureState]:
    """Born-rule measurement with collapse onto the outcome's basis state."""
    outcome = _draw(_bare_p0(state, basis), rng)
    return outcome, basis_state(basis, outcome)


# Layers of bare protocol states as arrays.  A particle's state is its BB84
# code, the index of its PrepState (0: |0>, 1: |1>, 2: |+>, 3: |->); a basis
# is 0 for Z and 1 for X.
BB84 = tuple(PrepState)
BASES = (Basis.Z, Basis.X)
BASIS_OF_CODE = np.array([BASES.index(basis_of(s)) for s in BB84], dtype=np.int8)
EXPECTED_OF_CODE = np.array([expected_outcome(s) for s in BB84], dtype=np.int8)
BB84_STATES = tuple(prepare(s) for s in BB84)
BB84_VALUE = np.array([s.value for s in BB84])
# P(0) per (code, basis) from measure's own formula, so the draws compare
# against the same floats; the outcome where _draw's thresholds make it
# certain, else -1; and the code each (basis, outcome) collapses onto.
_CODE_P0 = np.array([[_bare_p0(s, b) for b in BASES] for s in BB84_STATES])
_CODE_CERTAIN = np.where(_CODE_P0 < MIN_BRANCH_PROB, 1,
                         np.where(1.0 - _CODE_P0 < MIN_BRANCH_PROB, 0, -1)).astype(np.int8)
_COLLAPSED_CODE = np.array([[BB84_STATES.index(basis_state(b, bit)) for bit in (0, 1)]
                            for b in BASES], dtype=np.int8)


def measure_codes(codes: np.ndarray, bases: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``measure`` on a layer of bare qubits given by BB84 codes, in order.

    Qubits whose outcome is certain draw nothing; the others share one
    ``rng.random(k)`` call, which yields the k numbers k ``_draw`` calls would.
    Returns the outcome bits and the collapsed codes.
    """
    bits = _CODE_CERTAIN[codes, bases]
    uncertain = bits < 0
    k = int(np.count_nonzero(uncertain))
    if k:
        bits[uncertain] = rng.random(k) >= _CODE_P0[codes[uncertain], bases[uncertain]]
    return bits, _COLLAPSED_CODE[bases, bits]


@dataclass(frozen=True)
class CompositeState:
    """Joint state of the traveling qubit and a d-dimensional probe.

    Amplitudes are indexed (qubit_bit, probe_index): entry ``bit * d + j``.
    """

    amps: np.ndarray
    dim_probe: int

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.shape != (2 * self.dim_probe,):
            raise ValueError(f"expected {2 * self.dim_probe} amplitudes, got {amps.shape}")
        norm_sq = _weight(amps)
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"composite state not normalized: |amp|^2 = {norm_sq!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _checked(cls, amps: np.ndarray, dim_probe: int) -> CompositeState:
        """Wrap read-only amplitudes whose shape and norm the caller has checked."""
        state = object.__new__(cls)
        object.__setattr__(state, "amps", amps)
        object.__setattr__(state, "dim_probe", dim_probe)
        return state

    def qubit_block(self, bit: int) -> np.ndarray:
        d = self.dim_probe
        return self.amps[bit * d:(bit + 1) * d]


def lift(state: PureState, dim_probe: int) -> CompositeState:
    """Tensor a bare qubit with the probe's initial state |e_0>."""
    amps = np.zeros(2 * dim_probe, dtype=complex)
    amps[0] = state.amp0
    amps[dim_probe] = state.amp1
    return CompositeState(amps, dim_probe)


def check_unitary(u: np.ndarray) -> None:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    resid = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))
    if resid > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary: ||u^H u - I|| = {resid:.3e}")


def apply_unitary(state: CompositeState, u: np.ndarray) -> CompositeState:
    """Left-multiply the amplitude vector by a unitary on qubit (x) probe."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2 * state.dim_probe, 2 * state.dim_probe):
        raise ValueError(
            f"unitary shape {u.shape} does not match state dimension {2 * state.dim_probe}")
    check_unitary(u)
    return CompositeState(u @ state.amps, state.dim_probe)


def apply_unitary_batch(states: list, u: np.ndarray,
                        dim_probe: int) -> list[CompositeState]:
    """``apply_unitary(lift(s, dim_probe), u)`` for every bare qubit ``s`` and
    ``apply_unitary(s, u)`` for every composite one, as one matrix product.

    ``u`` is trusted to be unitary (callers validate it once, up front); each
    output row is still checked to be normalized.
    """
    d = dim_probe
    rows = np.zeros((len(states), 2 * d), dtype=complex)
    for i, s in enumerate(states):
        if isinstance(s, PureState):
            rows[i, 0] = s.amp0
            rows[i, d] = s.amp1
        elif s.dim_probe == d:
            rows[i] = s.amps
        else:
            raise ValueError(f"state has probe dimension {s.dim_probe}, expected {d}")
    out = rows @ np.asarray(u, dtype=complex).T
    norm_sq = np.einsum("ij,ij->i", out.conj(), out).real
    bad = np.flatnonzero(np.abs(norm_sq - 1.0) > 1e-9)
    if bad.size:
        raise ValueError(f"composite state not normalized: "
                         f"|amp|^2 = {float(norm_sq[bad[0]])!r}")
    out.setflags(write=False)
    return [CompositeState._checked(row, d) for row in out]


def _branch(state: CompositeState, basis: Basis, bit: int) -> np.ndarray:
    """Unnormalized probe vector that travels with qubit outcome ``bit``."""
    if basis is Basis.Z:
        return state.qubit_block(bit)
    # |+> (bit 0) or |-> (bit 1) branch.
    sign = -1.0 if bit else 1.0
    return (state.qubit_block(0) + sign * state.qubit_block(1)) * _INV_SQRT2


def branch_probability(state: CompositeState, basis: Basis, bit: int) -> float:
    return _weight(_branch(state, basis, bit))


def _project(probe: np.ndarray, weight: float, basis: Basis, bit: int,
             d: int) -> CompositeState:
    """The joint state after the qubit is found in (basis, bit), given that
    branch's probe vector and its weight."""
    probe = probe / math.sqrt(weight)
    amps = np.zeros(2 * d, dtype=complex)
    if basis is Basis.Z:
        amps[bit * d:(bit + 1) * d] = probe
    else:
        amps[0:d] = _INV_SQRT2 * probe
        amps[d:2 * d] = (-_INV_SQRT2 if bit else _INV_SQRT2) * probe
    return CompositeState(amps, d)


def _collapse(state: CompositeState, basis: Basis, bit: int) -> CompositeState:
    probe = _branch(state, basis, bit)
    return _project(probe, _weight(probe), basis, bit, state.dim_probe)


def measure_qubit(state: CompositeState, basis: Basis,
                  rng: np.random.Generator) -> tuple[int, CompositeState]:
    """Measure the qubit factor, projecting and renormalizing the joint state."""
    probe = _branch(state, basis, 0)
    p0 = _weight(probe)
    outcome = _draw(p0, rng)
    if outcome == 0:
        return 0, _project(probe, p0, basis, 0, state.dim_probe)
    probe = _branch(state, basis, 1)
    return 1, _project(probe, _weight(probe), basis, 1, state.dim_probe)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix (Hermitian, unit trace, positive semidefinite)."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if np.linalg.norm(m - m.conj().T) > DENSITY_ATOL:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > DENSITY_ATOL:
            raise ValueError(f"density matrix trace is {tr!r}, expected 1")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -DENSITY_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of (a - b)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.sum(np.abs(eigs)))
