"""A reference for the package's qubit-probe kernels, written from the definitions.

A measurement of the qubit of a joint state psi in basis ``basis`` finds the
outcome state |b> with weight ||(|b><b| (x) I) psi||^2 and leaves that
projection, renormalized; a unitary on qubit (x) probe multiplies the whole
joint vector.  Nothing here reads ``sqss.qstate``'s block slicing, so the
kernel tests compare the package's row kernels against an independent
computation.  States are ``CompositeState``s, the package's single-state API.
"""

import numpy as np

from sqss.qstate import MIN_BRANCH_PROB, Basis, CompositeState, check_unitary

# Row b of each basis is its outcome-b state: |0>, |1> and |+>, |->.
OUTCOME_STATES = {Basis.Z: np.eye(2), Basis.X: np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)}


def _projected(state: CompositeState, basis: Basis, bit: int) -> np.ndarray:
    """(|b><b| (x) I) psi for the outcome-``bit`` state |b> of ``basis``."""
    b = OUTCOME_STATES[Basis(basis)][bit]
    projector = np.kron(np.outer(b, b.conj()), np.eye(state.dim_probe))
    return projector @ state.amps


def apply_unitary(state: CompositeState, u: np.ndarray) -> CompositeState:
    """Left-multiply the amplitude vector by a unitary on qubit (x) probe."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2 * state.dim_probe, 2 * state.dim_probe):
        raise ValueError(
            f"unitary shape {u.shape} does not match state dimension {2 * state.dim_probe}")
    check_unitary(u)
    return CompositeState(u @ state.amps, state.dim_probe)


def branch_probability(state: CompositeState, basis: Basis, bit: int) -> float:
    """Born weight of finding the qubit in (basis, bit)."""
    v = _projected(state, basis, bit)
    return float(np.vdot(v, v).real)


def collapse(state: CompositeState, basis: Basis, bit: int) -> CompositeState:
    """The joint state after the qubit is found in (basis, bit)."""
    v = _projected(state, basis, bit)
    return CompositeState(v / np.linalg.norm(v), state.dim_probe)


def draw(p0: float, rng: np.random.Generator) -> int:
    """A bit with P(0) = ``p0``.  A branch of weight below ``MIN_BRANCH_PROB``
    is never drawn, and a draw is made only when both branches are possible:
    one ``rng.random()``, outcome 0 below P(0)."""
    if p0 < MIN_BRANCH_PROB:
        return 1
    if 1.0 - p0 < MIN_BRANCH_PROB:
        return 0
    return 0 if rng.random() < p0 else 1


def measure_qubit(state: CompositeState, basis: Basis,
                  rng: np.random.Generator) -> tuple[int, CompositeState]:
    """Draw an outcome by the Born rule (``draw``) and collapse onto it."""
    bit = draw(branch_probability(state, basis, 0), rng)
    return bit, collapse(state, basis, bit)
