"""Exact complex-amplitude state math for one qubit and qubit-plus-probe systems.

Amplitudes are double-precision complex numbers.  Tolerances below are fixed
constants: every protocol state is exactly representable, so they only absorb
floating-point rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

UNITARY_ATOL = 1e-10
DENSITY_ATOL = 1e-10
MIN_BRANCH_PROB = 1e-15

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class Basis(IntEnum):
    """A measurement basis; its value is the basis index, 0 for Z, 1 for X."""

    Z = 0
    X = 1


class PrepState(IntEnum):
    """One of the four BB84 states; its value is the state's BB84 code, the
    code a particle is stored as (0: |0>, 1: |1>, 2: |+>, 3: |->)."""

    ZERO = 0
    ONE = 1
    PLUS = 2
    MINUS = 3


# Amplitudes (amp0, amp1) of each BB84 code's state, row i for code i;
# read-only.
BB84_AMPS = np.array([[1.0, 0.0], [0.0, 1.0],
                      [_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex)
BB84_AMPS.setflags(write=False)


def prepare(s: PrepState) -> np.ndarray:
    """Canonical (read-only) amplitude vector for one of the four protocol
    states; ``s`` is a ``PrepState`` or its code, and any other value raises."""
    return BB84_AMPS[PrepState(s)]


def zstate(bit: int) -> np.ndarray:
    return prepare(PrepState.ONE if bit else PrepState.ZERO)


def _bare_p0(v: np.ndarray, basis: Basis) -> float:
    """Probability of outcome 0 when a bare qubit is measured in ``basis``."""
    if basis == Basis.Z:
        return abs(v[0]) ** 2
    return abs((v[0] + v[1]) * _INV_SQRT2) ** 2


def measure(state: np.ndarray, basis: Basis,
            rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Born-rule measurement with collapse onto the outcome's basis state: a
    layer of one, drawn by ``_draw_bits``.  ``state`` is checked as a
    ``CompositeState`` with a one-dimensional probe, which draws nothing."""
    CompositeState(state, 1)
    outcome = int(_draw_bits(np.array([_bare_p0(state, basis)]), rng)[0])
    return outcome, prepare(_COLLAPSED_CODE[basis, outcome])


# Layers of bare protocol states as arrays: a particle is its BB84 code
# (a PrepState's value) and a basis its index (a Basis's value).
# |0> and |1> are Z states, |+> and |-> X states; an undisturbed state
# measured in its own basis gives 0 for |0> and |+>, 1 for |1> and |->.
BASIS_OF_CODE = np.array([0, 0, 1, 1], dtype=np.int8)
EXPECTED_OF_CODE = np.array([0, 1, 0, 1], dtype=np.int8)
# Each code's symbol in a transcript, one byte per state.
BB84_SYMBOL = np.frombuffer(b"01+-", dtype="S1")
# P(0) per (code, basis) from measure's own formula, so the draws compare
# against the same floats, and the code each (basis, outcome) collapses onto.
_CODE_P0 = np.array([[_bare_p0(v, b) for b in Basis] for v in BB84_AMPS])
_COLLAPSED_CODE = np.array([[0, 1], [2, 3]], dtype=np.int8)  # Z: |0>, |1>; X: |+>, |->


def _draw_bits(p0: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Outcome bits (int8) drawn at P(0) = ``p0``, never selecting a branch
    below ``MIN_BRANCH_PROB``: an outcome that threshold makes certain draws
    nothing, and the rest share one ``rng.random(k)`` call in order, outcome 0
    below P(0)."""
    one = p0 < MIN_BRANCH_PROB
    uncertain = ~(one | (1.0 - p0 < MIN_BRANCH_PROB))
    if uncertain.all():   # as in a generic probed layer: no masks to apply
        return (rng.random(len(p0)) >= p0).astype(np.int8)
    bits = one.astype(np.int8)
    bits[uncertain] = rng.random(int(np.count_nonzero(uncertain))) >= p0[uncertain]
    return bits


def measure_codes(codes: np.ndarray, bases,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``measure`` on a layer of bare qubits given by BB84 codes, in order, in
    ``bases`` (one basis index per code, or one for the layer); returns the
    outcome bits and the collapsed codes."""
    bits = _draw_bits(_CODE_P0[codes, bases], rng)
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
        _check_finite("composite state", amps)
        _check_normalized(amps.reshape(1, -1))
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)


def lift(state: np.ndarray, dim_probe: int) -> CompositeState:
    """Tensor a bare qubit's amplitudes with the probe's initial state |e_0>."""
    amps = np.zeros(2 * dim_probe, dtype=complex)
    amps[[0, dim_probe]] = state
    return CompositeState(amps, dim_probe)


@functools.cache
def bb84_rows(d: int) -> np.ndarray:
    """Row i is BB84 code i's state with a d-dimensional probe in |e0>, laid
    out as a ``CompositeState``'s amplitudes: a read-only ``(4, 2d)`` array,
    one per d."""
    rows = np.stack([lift(amps, d).amps for amps in BB84_AMPS])
    rows.setflags(write=False)
    return rows


def _check_finite(what: str, a: np.ndarray) -> None:
    """Reject NaN and infinite entries, before any arithmetic could warn
    about them or let them through a tolerance check."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")


def check_unitary(u: np.ndarray) -> None:
    """Reject ``u`` unless it is a unitary or a stack ``(..., m, m)`` of them."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    _check_finite("unitary", u)
    resid = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]),
                           axis=(-2, -1)).max(initial=0.0)
    if not resid <= UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary: ||u^H u - I|| = {resid:.3e}")


def _weights(v: np.ndarray) -> np.ndarray:
    """Squared norm of each row."""
    return np.einsum("ij,ij->i", v.conj(), v).real


def _check_normalized(rows: np.ndarray) -> None:
    """Reject a joint row whose squared norm is not 1 within rounding."""
    norm_sq = _weights(rows)
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= 1e-9))
    if bad.size:
        raise ValueError(f"composite state not normalized: "
                         f"|amp|^2 = {float(norm_sq[bad[0]])!r}")


def apply_unitary_batch(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Left-multiply every row of an ``(N, 2d)`` array of joint amplitudes by
    a unitary on qubit (x) probe, as one matrix product.

    ``u`` is trusted to be unitary (callers validate it once, up front); the
    rows must be finite, and each output row is still checked to be
    normalized.
    """
    _check_finite("composite state", rows)
    out = rows @ np.asarray(u, dtype=complex).T
    _check_normalized(out)
    return out


@functools.cache
def _hadamard_rows(d: int) -> np.ndarray:
    """The unscaled Hadamard on the qubit of ``(k, 2d)`` rows, as a right
    factor: ``row @ it`` has blocks ``(b0 + b1, b0 - b1)`` where ``row`` has
    ``(b0, b1)``; read-only."""
    h = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(d)).astype(complex)
    h.setflags(write=False)
    return h


def _x_frame(rows: np.ndarray, is_x: np.ndarray) -> np.ndarray:
    """``rows`` with the blocks of each row ``is_x`` marks mixed into
    ``((b0 + b1)/sqrt2, (b0 - b1)/sqrt2)``: the probe vectors beside |+> and
    |-> from those beside |0> and |1>, and back, as the map is its own
    inverse."""
    return np.where(is_x, (rows @ _hadamard_rows(rows.shape[1] // 2)) * _INV_SQRT2, rows)


def measure_qubit(rows: np.ndarray, bases, rng: np.random.Generator,
                  collapse: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Measure the qubit of each joint qubit-probe row in order, in
    ``bases`` (0 = Z, 1 = X): one basis index per row, or one for the layer.

    ``rows`` has shape ``(k, 2d)``, each row laid out as a
    ``CompositeState``'s amplitudes and trusted to be normalized.  The draws
    are those of a projective measurement of each qubit in turn: a certain
    outcome draws nothing, and the rest share one ``rng.random`` call in row
    order.  Returns the bits and the projected, renormalized rows; ``rows``
    is left as it was.  With ``collapse`` False the measurement is a
    read-out: the same draws give the same bits, and the rows are None, as
    no post-measurement row is built.

    X rows are mixed into their outcome frame first, so that in every row
    block b is the probe vector that travels with outcome b; the collapsed
    X rows are mixed back.
    """
    k, d = len(rows), rows.shape[1] // 2
    is_x = np.reshape(bases, (-1, 1)) == Basis.X.value
    mixed = is_x.any()
    if mixed:
        rows = _x_frame(rows, is_x)
    # Block b of row i is entry 2i + b; both weights of every row in one pass.
    blocks = rows.reshape(2 * k, d)
    weights = _weights(blocks)
    p0 = weights[::2]
    bits = _draw_bits(p0, rng)
    if not collapse:
        return bits, None
    kept = np.arange(0, 2 * k, 2) + bits   # the drawn block of each row
    # One divisor per amplitude: a flat division costs less than a broadcast one.
    branch = blocks.take(kept, axis=0).reshape(-1) / np.repeat(np.sqrt(weights[kept]), d)
    out = np.zeros_like(blocks)
    out[kept] = branch.reshape(k, d)
    out = out.reshape(k, 2 * d)
    return bits, (_x_frame(out, is_x) if mixed else out)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix (Hermitian, unit trace, positive semidefinite)."""

    entries: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        check_density_matrices(m[None])
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "dim", m.shape[0])


def check_density_matrices(mats: np.ndarray) -> None:
    """Reject a stack ``(..., m, m)`` unless each matrix is a density matrix:
    ``DensityMatrix``'s checks, in its order and with its messages."""
    mats = np.asarray(mats, dtype=complex)
    _check_finite("density matrix", mats)
    r = mats - mats.conj().swapaxes(-1, -2)   # norm: np.linalg.norm's formula, no wrapper
    if not (np.sqrt(np.add.reduce((r.conj() * r).real, axis=(-2, -1))) <= DENSITY_ATOL).all():
        raise ValueError("density matrix is not Hermitian")
    tr = mats.trace(axis1=-2, axis2=-1)
    off = ~(np.abs(tr - 1.0) <= DENSITY_ATOL)
    if off.any():
        raise ValueError(f"density matrix trace is {tr[off][0]!r}, expected 1")
    low = np.linalg.eigvalsh(mats).min(initial=np.inf)
    if not low >= -DENSITY_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of (a - b)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    eigs = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.sum(np.abs(eigs)))
