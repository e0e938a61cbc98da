"""Numerical analysis of entangle-measure attacks.

Everything here is exact linear algebra over the branch decomposition of the
attack unitaries: expected check error rates, the attacker's probe
distinguishability conditioned on key bits, residuals of the zero-error
structure the security argument forces on the unitaries, and a constrained
search over the error-vs-information tradeoff.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg  # noqa: F401 -- unused, but perfbench's import_times reads it (ROADMAP 1, 11)

from .adversary import UnitaryPair
from .protocol_a import CHECKS_A
from .protocol_b import CHECKS_B
from .qstate import (
    BB84_AMPS,
    DensityMatrix,
    PrepState,
    bb84_rows,
    check_unitary,
    prepare,
    trace_distance,
)
from .runtime import check_int, check_real, shared_tuple

BRANCH_SKIP_PROB = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _blocks(vec: np.ndarray) -> np.ndarray:
    """The probe blocks of a joint vector: row x travels with qubit |x>."""
    return vec.reshape(2, -1)


def _sq_norm(vec: np.ndarray) -> float:
    return float(np.sum(np.abs(vec) ** 2))


def _probe_outer(vec: np.ndarray) -> np.ndarray:
    """Partial trace over the qubit of |vec><vec| (vec may be unnormalized)."""
    b0, b1 = _blocks(vec)
    return np.outer(b0, b0.conj()) + np.outer(b1, b1.conj())


def _phase_free_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between vectors minimized over a global phase.

    Computed as the norm of the difference at the optimal phase rather than
    via inner products, which would square the achievable precision."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def _measured_branches(first: np.ndarray, second: np.ndarray) -> tuple[dict, dict]:
    """Mode A's table ``(branches, reflected)`` of the unitaries ``first`` and
    ``second``, each ``(2d, 2d)``.  ``branches[(s, x)]`` is ``(eps, phi)``:
    the probe branch eps that travels with a measured |x> after ``first`` acts
    on preparation s (the initial probe state is |e0>), and phi, ``second``
    applied to |x> (x) eps, which is eps copied into block x beside a zero
    block; ordered by s, then x.  ``reflected[s]`` is ``second`` applied to
    the whole state ``first`` left, as when both classical parties reflect."""
    branches, reflected = {}, {}
    for s, row in zip(PrepState, bb84_rows(len(first) // 2)):
        psi = first @ row
        reflected[s] = second @ psi
        for x in (0, 1):
            eps = _blocks(psi)[x]
            embedded = np.zeros_like(psi)
            _blocks(embedded)[x] = eps
            branches[(s, x)] = (eps, second @ embedded)
    return branches, reflected


def _chain_states_b(first: np.ndarray, second: np.ndarray) -> tuple[dict, dict]:
    """Mode B's state table: the joint state of each preparation after the
    full chain ``second @ first`` (all four preparations), and after the
    return unitary alone (the two Z preparations)."""
    u_both = second @ first
    rows = bb84_rows(len(first) // 2)
    return ({s: u_both @ row for s, row in zip(PrepState, rows)},
            {s: second @ row for s, row in zip(PrepState, rows[:2])})


def _z_blocks(states: dict) -> tuple[list, list]:
    """For each Z preparation |r>, in order: the probe block of its state in
    ``states`` that travels with |r>, and the block moved onto |1-r>."""
    blocks = [_blocks(states[s]) for s in (PrepState.ZERO, PrepState.ONE)]
    return [b[r] for r, b in enumerate(blocks)], [b[1 - r] for r, b in enumerate(blocks)]


class FloatMap(Mapping):
    """A read-only mapping that reads as the dict of floats it packs: the same
    repr, order and ``==``, and the same values, bit for bit and of the same
    types.  It keeps float64 bytes beside one layout, the names and the value
    types, shared by every map that has the same."""

    __slots__ = ("_layout", "_packed")

    def __init__(self, items: dict):
        self._layout = shared_tuple((tuple(items), tuple(map(type, items.values()))))
        self._packed = struct.pack(f"<{len(items)}d", *items.values())

    def _dict(self) -> dict:
        names, kinds = self._layout
        values = struct.unpack(f"<{len(names)}d", self._packed)
        return dict(zip(names, (kind(v) for kind, v in zip(kinds, values))))

    def __getitem__(self, name):
        return self._dict()[name]

    def __iter__(self):
        return iter(self._layout[0])

    def __len__(self) -> int:
        return len(self._layout[0])

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass(frozen=True, slots=True)
class ErrorProfile:
    """Expected per-check error rates an attack pair induces (exact, no sampling)."""

    mode: str
    rates: FloatMap

    @property
    def max_rate(self) -> float:
        return max(self.rates.values())


def _table(pair: UnitaryPair, mode: Optional[str]) -> tuple[str, "_Mode", tuple]:
    """The mode (the pair's protocol, which ``mode`` may only repeat), its
    analysis, and the table of ``pair`` that every reader of that mode reads."""
    mode = mode or pair.protocol
    if mode != pair.protocol:
        raise ValueError(f"pair is for protocol {pair.protocol}, not {mode}")
    analysis = _MODES[mode]
    return mode, analysis, analysis.table(pair.first, pair.second)


def error_profile(pair: UnitaryPair, mode: Optional[str] = None) -> ErrorProfile:
    mode, analysis, table = _table(pair, mode)
    return ErrorProfile(mode=mode, rates=FloatMap(analysis.profile(table)))


def _prep_basis_error(finals: dict) -> float:
    """Mean probability that a preparation-basis measurement of the qubit in
    ``finals[s]`` (the final joint state of preparation ``s``, for each of
    ``PrepState``) does not return the prepared state."""
    total = 0.0
    for s, psi in finals.items():
        sv = prepare(s)
        b0, b1 = _blocks(psi)
        kept = sv[0].conjugate() * b0 + sv[1].conjugate() * b1
        total += 1.0 - _sq_norm(kept)
    return total / len(PrepState)


def _rates_a(table: tuple[dict, dict]) -> dict:
    branches, reflected = table
    # Cases 1-3 share the same physical chain: some classical party holds a
    # Z result x, the return unitary acts on |x> and its probe branch, and a
    # mismatch means Alice's Z outcome flips away from x.  Averaged over the
    # four uniform preparations and the Born-rule branch.
    measured = sum(_sq_norm(_blocks(phi)[1 - x])
                   for (_, x), (_, phi) in branches.items()) / len(PrepState)
    # Case 4: both parties reflect, the return unitary acts on the full
    # superposition, and Alice measures in the preparation basis.
    return dict(zip(CHECKS_A, (measured, measured, measured, _prep_basis_error(reflected))))


def _rates_b(table: tuple[dict, dict]) -> dict:
    full, ret = table
    return dict(zip(CHECKS_B, (_prep_basis_error(full),
                               sum(_sq_norm(b) for b in _z_blocks(full)[1]) / 2.0,
                               sum(_sq_norm(b) for b in _z_blocks(ret)[1]) / 2.0)))


def _density(mat: np.ndarray) -> DensityMatrix:
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(mat / np.trace(mat).real)


def probe_distinguishability(pair: UnitaryPair, mode: Optional[str] = None) -> float:
    """Maximum trace distance between the attacker's final probe states
    conditioned on the two values of a key bit."""
    _, analysis, table = _table(pair, mode)
    return _info(analysis.ensembles(table))


def _info(ensembles: tuple) -> float:
    """The largest trace distance within one of ``ensembles``; 0 with none."""
    return max((trace_distance(*rhos) for rhos in ensembles), default=0.0)


def _ensembles_a(table: tuple[dict, dict]) -> tuple:
    """Mode A's key-bit ensemble, the probe given x = 0 and given x = 1, or
    none if either weighs under ``BRANCH_SKIP_PROB``.  Conditioning on Bob's
    result (Case 2 key bits) and on Charlie's (Case 3) produces the same
    ensemble: either way the return unitary sees |x> and the probe's x branch."""
    branches = table[0]
    weights, rhos = [], []
    for x in (0, 1):
        weights.append(sum(_sq_norm(branches[(s, x)][0]) / len(PrepState) for s in PrepState))
        rhos.append(sum(_probe_outer(branches[(s, x)][1]) / len(PrepState) for s in PrepState))
    if any(w < BRANCH_SKIP_PROB for w in weights):
        return ()
    return ((_density(rhos[0]), _density(rhos[1])),)


def _ensembles_b(table: tuple[dict, dict]) -> tuple:
    """Mode B's ensembles, the probe given each Z preparation after both legs
    and after the return leg alone."""
    return tuple(tuple(_density(_probe_outer(states[s])) for s in (PrepState.ZERO, PrepState.ONE))
                 for states in table)


@dataclass(frozen=True, slots=True)
class TheoremVerdict:
    """Result of checking the zero-error security structure on one pair."""

    mode: str
    max_error: float
    zero_error: bool
    distinguishability: Optional[float]
    residuals: FloatMap
    holds: Optional[bool]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


_NO_RESIDUALS = FloatMap({})   # every verdict with a nonzero error shares it

# Tolerances of theorem_check: a check error rate up to ERR_TOL counts as
# zero; the information and every residual must then be within their own.
ERR_TOL = 1e-12
INFO_TOL = 1e-8
RESIDUAL_TOL = 1e-8


def theorem_check(pair: UnitaryPair, mode: Optional[str] = None) -> TheoremVerdict:
    """If the pair induces no check error (within ERR_TOL), verify that the
    probe carries no key information and that the structural identities the
    zero-error condition forces all hold within tolerance."""
    # The mode's table is built once and every check reads it.
    mode, analysis, table = _table(pair, mode)
    max_error = max(analysis.profile(table).values())
    zero_error = max_error <= ERR_TOL
    if not zero_error:
        return TheoremVerdict(mode=mode, max_error=max_error, zero_error=False,
                              distinguishability=None, residuals=_NO_RESIDUALS, holds=None)
    info = _info(analysis.ensembles(table))
    residuals = analysis.residuals(table)
    holds = info <= INFO_TOL and max(residuals.values()) <= RESIDUAL_TOL
    return TheoremVerdict(mode=mode, max_error=max_error, zero_error=True,
                          distinguishability=info, residuals=FloatMap(residuals), holds=holds)


def _residuals_a(table: tuple[dict, dict]) -> dict:
    branches, _ = table
    # f[(s, x)] is the final probe component that travels with |x>; the rest
    # of phi is amplitude the second unitary moved onto the other qubit state.
    f = {}
    leakage = 0.0
    for (s, x), (_, phi) in branches.items():
        b = _blocks(phi)
        f[(s, x)] = b[x]
        leakage = max(leakage, float(np.linalg.norm(b[1 - x])))
    Z0, Z1, P, M = PrepState.ZERO, PrepState.ONE, PrepState.PLUS, PrepState.MINUS
    nrm = np.linalg.norm
    return {
        "final_qubit_leakage": leakage,
        # The first unitary's probe branches (eps), before the second acts.
        "cross_branch_initial": max(nrm(branches[(Z0, 1)][0]), nrm(branches[(Z1, 0)][0])),
        "cross_branch_final": max(nrm(f[(Z0, 1)]), nrm(f[(Z1, 0)])),
        "plus_branch_match": nrm(f[(P, 0)] - f[(P, 1)]),
        "minus_branch_antimatch": nrm(f[(M, 0)] + f[(M, 1)]),
        "plus_vs_zero_scaling": nrm(f[(P, 0)] - f[(Z0, 0)] * _INV_SQRT2),
        "plus_vs_one_scaling": nrm(f[(P, 1)] - f[(Z1, 1)] * _INV_SQRT2),
        "minus_vs_zero_scaling": nrm(f[(M, 0)] - f[(Z0, 0)] * _INV_SQRT2),
        "minus_vs_one_scaling": nrm(f[(M, 1)] + f[(Z1, 1)] * _INV_SQRT2),
    }


def _residuals_b(table: tuple[dict, dict]) -> dict:
    full, ret = table
    # Probe vectors traveling with each Z state after the full chain.
    h, h_moved = _z_blocks(full)
    h_bar = (h[0] + h[1]) / 2.0
    # X-prepared control particles must factorize against the same probe.
    ctrl_resid = max(float(np.linalg.norm(full[s] - np.outer(prepare(s), h_bar).ravel()))
                     for s in (PrepState.PLUS, PrepState.MINUS))
    # Return-leg-only particles: the probe must not depend on the carried bit.
    g, g_moved = _z_blocks(ret)
    return {
        "sift_qubit_leakage": max(float(np.linalg.norm(b)) for b in h_moved),
        "probe_state_match": float(np.linalg.norm(h[0] - h[1])),
        "ctrl_factorization": ctrl_resid,
        "return_leg_leakage": max(float(np.linalg.norm(b)) for b in g_moved),
        "return_leg_probe_match": _phase_free_dist(g[0], g[1]),
    }


# ---------------------------------------------------------------------------
# Derivatives for the tradeoff search.  A gradient G of f with respect to a
# matrix or vector M means df = Re tr(G^dagger dM).


def _moved(rows: np.ndarray) -> np.ndarray:
    """Each row ``rows[..., x, :]`` with its block x zeroed: half the
    gradient of the squared norm of what a Z mismatch reads."""
    out = rows.reshape(rows.shape[:-1] + (2, -1)).copy()
    out[..., [0, 1], [0, 1], :] = 0.0
    return out.reshape(rows.shape)


def _prep_error_grad(finals: np.ndarray) -> np.ndarray:
    """The gradient of ``_prep_basis_error`` with respect to each final
    state, one row per ``PrepState``: -(|s> (x) kept_s) / 2."""
    kept = np.einsum("sq,sqi->si", BB84_AMPS.conj(), finals.reshape(4, 2, -1))
    return -np.einsum("sq,si->sqi", BB84_AMPS, kept).reshape(finals.shape) / 2.0


def _distance_grad(states: np.ndarray, rho0: DensityMatrix, rho1: DensityMatrix):
    """The trace distance of rho0 and rho1, where rho_x is the ``_density``
    of the sum of the ``_probe_outer`` of the rows ``states[..., x, :]``
    (times any constant), and its gradient with respect to each row.  It is
    tr(S (rho0 - rho1)) / 2 for S = sign(rho0 - rho1), and a zero eigenvalue
    has sign 0, the mean of its one-sided derivatives."""
    rhos = [rho0.entries, rho1.entries]
    eigs, vecs = np.linalg.eigh(rhos[0] - rhos[1])
    sign = (vecs * np.sign(eigs)) @ vecs.conj().T
    traces = np.sum(np.abs(states) ** 2, axis=-1).reshape(-1, 2).sum(axis=0)  # each sum's trace
    grads = [side * (sign - np.trace(sign @ rho).real * np.eye(len(sign))) / trace
             for side, trace, rho in zip((1.0, -1.0), traces, rhos)]
    blocks = states.reshape(states.shape[:-1] + (2, -1))
    return (0.5 * float(np.sum(np.abs(eigs))),
            np.einsum("...xbj,xij->...xbi", blocks, np.array(grads)).reshape(states.shape))


def _unitary_grads(first, second, grads, pre, rows, mask=1.0) -> np.ndarray:
    """Each term's gradients ``(t, 2, 2d, 2d)`` with respect to ``first``
    and ``second``, from ``grads[t, k]``, its gradient with respect to the
    table vector second @ pre[k]: pre[k] is mask[k] * (first @ rows[k]), or
    does not depend on ``first`` where rows[k] is zero."""
    back = (grads @ second.conj()) * mask
    return np.stack([np.einsum("tki,kj->tij", back, rows.conj()),
                     np.einsum("tki,kj->tij", grads, pre.conj())], axis=1)


def _derivative_a(first: np.ndarray, second: np.ndarray, table: tuple, ensembles: tuple):
    """Mode A's gradients with respect to the two unitaries, of each rate in
    ``_rates_a`` order and of the information, with the information's value,
    from their table and ensembles."""
    branches, reflected = table
    d = len(first) // 2
    phi = np.array([p for _, p in branches.values()]).reshape(4, 2, 2 * d)
    # Per term (the measured rate, case 4, the information), the gradient
    # with respect to each phi, in (s, x) order, then each reflected state.
    grads = np.zeros((3, 12, 2 * d), dtype=complex)
    grads[0, :8] = _moved(phi).reshape(8, -1) / 2.0
    grads[1, 8:] = _prep_error_grad(np.array(list(reflected.values())))
    info = 0.0
    if ensembles:
        info, grad = _distance_grad(phi, *ensembles[0])
        grads[2, :8] = grad.reshape(8, -1)
    # Each phi's input is psi = first @ row, masked to block x; each
    # reflected state's is psi.
    psi = np.array([e for e, _ in branches.values()]).reshape(4, 2 * d)
    mask = np.concatenate([np.tile(np.repeat(np.eye(2), d, axis=1), (4, 1)), np.ones_like(psi)])
    rows = bb84_rows(d)
    unitary = _unitary_grads(first, second, grads, mask * np.concatenate([psi.repeat(2, 0), psi]),
                             np.concatenate([rows.repeat(2, 0), rows]), mask)
    return unitary[[0, 0, 0, 1]], [info], unitary[2:]


def _derivative_b(first: np.ndarray, second: np.ndarray, table: tuple, ensembles: tuple):
    """Mode B's gradients, as ``_derivative_a`` gives them, for
    ``_rates_b`` and for each of ``_ensembles_b``."""
    full, ret = (np.array(list(states.values())) for states in table)
    rows = bb84_rows(len(first) // 2)
    # Per term (three rates, two ensembles), the gradient with respect to
    # each full-chain state, then each return-leg state.
    grads = np.zeros((5, 6, len(first)), dtype=complex)
    grads[0, :4] = _prep_error_grad(full)
    grads[1, :2] = _moved(full[:2])
    grads[2, 4:] = _moved(ret)
    infos = []
    for (term, at, states), rhos in zip(((3, 0, full), (4, 4, ret)), ensembles):
        info, grads[term, at:at + 2] = _distance_grad(states[:2], *rhos)
        infos.append(info)
    unitary = _unitary_grads(first, second, grads, np.concatenate([rows @ first.T, rows[:2]]),
                             np.concatenate([rows, np.zeros_like(ret)]))
    return unitary[:3], infos, unitary[3:]


@dataclass(frozen=True)
class _Mode:
    """One mode's analysis: ``table(first, second)`` builds what every reader
    reads; ``profile``, ``ensembles`` and ``residuals`` map a table onto the
    check error rates, the key-bit ensembles (whose ``_info`` is the probe
    distinguishability) and the zero-error residuals; ``derivative(first,
    second, table, ensembles)`` gives the gradients of the rates and of the
    information with respect to the two unitaries."""

    table: Callable[[np.ndarray, np.ndarray], tuple]
    profile: Callable[[tuple], dict]
    ensembles: Callable[[tuple], tuple]
    residuals: Callable[[tuple], dict]
    derivative: Callable[[np.ndarray, np.ndarray, tuple, tuple], tuple]


_MODES = {"A": _Mode(_measured_branches, _rates_a, _ensembles_a, _residuals_a, _derivative_a),
          "B": _Mode(_chain_states_b, _rates_b, _ensembles_b, _residuals_b, _derivative_b)}


# ---------------------------------------------------------------------------
# Unitary parameterization and constructions


def params_dim(probe_dim: int) -> int:
    return (2 * probe_dim) ** 2


@functools.cache
def _basis(probe_dim: int) -> np.ndarray:
    """Row k is the flattened Hermitian matrix of parameter k alone, a
    read-only ``(npar, (2d)^2)`` array: the diagonal, then the real and
    imaginary parts of the upper triangle, row by row."""
    m = 2 * probe_dim
    rows, cols = np.triu_indices(m, 1)
    upper, lower, k = rows * m + cols, cols * m + rows, np.arange(m, m * m, 2)
    basis = np.zeros((m * m, m * m), dtype=complex)
    basis[np.arange(m), np.arange(m) * (m + 1)] = 1.0
    basis[k, upper] = basis[k, lower] = 1.0
    basis[k + 1, upper], basis[k + 1, lower] = 1j, -1j
    basis.setflags(write=False)
    return basis


def _exponentials(params: np.ndarray, probe_dim: int) -> tuple:
    """The unitaries exp(iH) of the Hermitian matrices H of the rows of
    ``params``, shape ``(n, (2d)^2)``, with lam and W of the one batched
    ``eigh`` H = W diag(lam) W^dagger, exp(iH) = W diag(exp(i lam)) W^dagger."""
    m = 2 * probe_dim
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != m * m:
        raise ValueError(f"expected rows of {m * m} parameters, got shape {params.shape}")
    lam, w = np.linalg.eigh((params @ _basis(probe_dim)).reshape(-1, m, m))
    return (w * np.exp(1j * lam)[:, None, :]) @ w.conj().swapaxes(-1, -2), lam, w


def unitaries_from_params(params: np.ndarray, probe_dim: int) -> np.ndarray:
    """Stacked ``unitary_from_params``: row ``r`` of ``params``, shape
    ``(n, (2d)^2)``, maps onto ``out[r]``, in U(2d)."""
    return _exponentials(params, probe_dim)[0]


def _params_gradient(lam, w, grads, probe_dim) -> np.ndarray:
    """Chain ``grads[t, r]``, term t's gradient with respect to U = exp(iH)
    of parameter row r, to that row, from ``_exponentials``' H = W diag(lam)
    W^dagger: dU = W (Phi o W^dagger i dH W) W^dagger for Phi_jl =
    exp(i(lam_j + lam_l)/2) sinc((lam_j - lam_l)/2), finite at equal lam."""
    phi = (np.exp(0.5j * (lam[:, :, None] + lam[:, None, :]))
           * np.sinc((lam[:, :, None] - lam[:, None, :]) / (2 * np.pi)))
    w_h = w.conj().swapaxes(-1, -2)
    mat = w @ (phi.conj() * (w_h @ grads @ w)) @ w_h
    return (1j * (mat.reshape(mat.shape[:-2] + (-1,)).conj() @ _basis(probe_dim).T)).real


def unitary_from_params(params: np.ndarray, probe_dim: int) -> np.ndarray:
    """Map a real vector onto U(2d) via the exponential of i times a Hermitian
    matrix assembled from the vector: row 0 of ``unitaries_from_params``."""
    return unitaries_from_params(np.reshape(params, (1, -1)), probe_dim)[0]


def params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Inverse of unitary_from_params up to branch choice of the logarithm."""
    u = np.asarray(u, dtype=complex)
    check_unitary(u)
    w, v = np.linalg.eig(u)
    herm = v @ np.diag(np.angle(w)) @ np.linalg.inv(v)
    herm = (herm + herm.conj().T) / 2.0
    m = u.shape[0]
    upper = herm[np.triu_indices(m, 1)]
    out = np.empty(m * m)
    out[:m] = herm.diagonal().real
    out[m::2], out[m + 1::2] = upper.real, upper.imag
    return out


def identity_pair(mode: str, probe_dim: int) -> UnitaryPair:
    eye = np.eye(2 * probe_dim)
    return UnitaryPair(first=eye, second=eye, protocol=mode)


def bit_copy_pair(mode: str, probe_dim: int) -> UnitaryPair:
    """The canonical maximally informative attack at error 1/4: the first
    unitary copies the transit Z bit into the probe, the second does nothing.
    Its copy swaps probe levels 0 and 1, so it needs both."""
    check_int("probe_dim", probe_dim, 2)
    m = 2 * probe_dim
    u = np.eye(m)
    # flip probe levels 0 and 1 when the qubit is 1
    i0, i1 = probe_dim + 0, probe_dim + 1
    u[[i0, i1]] = u[[i1, i0]]
    return UnitaryPair(first=u, second=np.eye(m), protocol=mode)


def probe_only_pair(mode: str, v: np.ndarray, w: np.ndarray,
                    phase_first: float = 0.0, phase_second: float = 0.0) -> UnitaryPair:
    """Zero-error family member: unitaries acting on the probe alone, times
    global phases."""
    eye = np.eye(2)
    return UnitaryPair(first=np.exp(1j * phase_first) * np.kron(eye, v),
                       second=np.exp(1j * phase_second) * np.kron(eye, w), protocol=mode)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pair(mode: str, probe_dim: int, rng: np.random.Generator) -> UnitaryPair:
    m = 2 * probe_dim
    return UnitaryPair(first=random_unitary(m, rng), second=random_unitary(m, rng), protocol=mode)


def random_zero_error_pair(mode: str, probe_dim: int,
                           rng: np.random.Generator) -> UnitaryPair:
    return probe_only_pair(mode, random_unitary(probe_dim, rng),
                           random_unitary(probe_dim, rng),
                           phase_first=float(rng.uniform(0, 2 * np.pi)),
                           phase_second=float(rng.uniform(0, 2 * np.pi)))


# ---------------------------------------------------------------------------
# Tradeoff search


@dataclass(frozen=True)
class TradeoffPoint:
    """Best feasible (error budget, probe information) point found by search."""

    mode: str
    epsilon: float
    info: float
    max_error: float
    probe_dim: int
    params: tuple
    restarts: int
    iterations: int
    fallback: bool


FEASIBILITY_TOL = 1e-9


def _max_grad(values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """The gradient of ``max(values)`` from each value's gradient: over the
    values that tie for the max, (max + min) / 2 in each coordinate, the mean
    of the one-sided derivatives."""
    tied = grads[values == values.max()]
    return (tied.max(axis=0) + tied.min(axis=0)) / 2.0


def _objective(info: float, err: float, epsilon: float) -> tuple[float, float, float]:
    """The search's penalized objective at information ``info`` and max error
    ``err``, gain - lam * max(err - epsilon, 0), with the gain's derivative
    in ``info`` and lam.  A stiff lam keeps the ascent from trading a sliver
    of feasibility violation for information.  Near a zero-error pair that
    carries none, information grows like c * sqrt(error), so at epsilon = 0
    info - lam * error would still peak a sliver off the zero-error set, at
    c^2 / (4 lam).  There the gain is info squared, which falls below the
    penalty off that set for any c^2 < lam."""
    if epsilon < 1e-6:
        gain, slope, lam = info * info, 2.0 * info, 1e7
    else:
        gain, slope, lam = info, 1.0, 1e3
    return gain - lam * max(err - epsilon, 0.0), slope, lam


def _evaluate(analysis: _Mode, theta: np.ndarray, probe_dim: int, epsilon: float) -> tuple:
    """The objective at theta, its information and its max error, read from
    one build of the mode's table as in ``theorem_check``, then all that the
    gradient at theta reads: the rates, ensembles, ``_exponentials`` and table."""
    unitaries, *eigh = _exponentials(theta.reshape(2, -1), probe_dim)
    table = analysis.table(*unitaries)
    rates, ensembles = analysis.profile(table), analysis.ensembles(table)
    info, err = _info(ensembles), max(rates.values())
    return _objective(info, err, epsilon)[0], info, err, (rates, ensembles, unitaries, eigh, table)


def _objective_gradient(analysis: _Mode, theta: np.ndarray, probe_dim: int,
                        epsilon: float, point: tuple) -> np.ndarray:
    """The exact gradient at theta of ``_objective``, from ``point``, what
    ``_evaluate`` read there.  Where maxima tie (of the rates, of the penalty
    and zero, or of mode B's two ensembles), each coordinate takes the mean
    of its one-sided derivatives, the limit a central difference takes."""
    _, info, err, (rates, ensembles, unitaries, eigh, table) = point
    rates = np.array(list(rates.values()))
    rate_grads, infos, info_grads = analysis.derivative(*unitaries, table, ensembles)
    grads = _params_gradient(*eigh, np.concatenate([rate_grads, info_grads]),
                             probe_dim).reshape(-1, theta.size)
    _, slope, lam = _objective(info, err, epsilon)
    penalty = _max_grad(np.append(rates - epsilon, 0.0),
                        np.vstack([grads[:len(rates)], np.zeros(theta.size)]))
    return slope * _max_grad(np.array(infos), grads[len(rates):]) - lam * penalty


def check_search_args(mode: str, epsilon: float, probe_dim: int, restarts: int,
                      iters: int, seed: int) -> None:
    """Reject ``constrained_search`` arguments before any evaluation runs."""
    if not isinstance(mode, str) or mode not in _MODES:
        raise ValueError(f"mode must be 'A' or 'B', got {mode!r}")
    check_real("epsilon", epsilon)
    for name, value, least in (("restarts", restarts, 1), ("iters", iters, 1),
                               ("seed", seed, 0)):
        check_int(name, value, least)
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError("epsilon must be in [0, 0.5]")
    check_int("probe_dim", probe_dim, 2)  # for the bit-copy start
    if probe_dim > 8:  # the gradient's basis has (2d)^4 entries, 1 MB at d = 8
        raise ValueError(f"probe_dim must be <= 8, got {probe_dim}")


@functools.cache
def _bit_copy_start(probe_dim: int) -> np.ndarray:
    """``bit_copy_pair``'s parameters, the same in both modes, in one read-only row."""
    pair = bit_copy_pair("A", probe_dim)
    theta = np.concatenate([params_from_unitary(pair.first), params_from_unitary(pair.second)])
    theta.setflags(write=False)
    return theta


def constrained_search(mode: str, epsilon: float, probe_dim: int = 2,
                       restarts: int = 6, iters: int = 40, seed: int = 0) -> TradeoffPoint:
    """Maximize probe distinguishability subject to every check error staying
    within the budget, by restarted gradient ascent on a penalized
    objective.  Deliberately simple: used for inequalities with slack only.
    """
    check_search_args(mode, epsilon, probe_dim, restarts, iters, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE)))
    npar = params_dim(probe_dim)
    analysis = _MODES[mode]

    # Rank feasible points by the penalized objective, not raw information:
    # within the feasibility tolerance the information of a near-identity
    # perturbation scales like sqrt(error), so picking the max-info feasible
    # iterate would reward tolerance abuse rather than genuine tradeoffs.
    best = {"info": 0.0, "err": 0.0, "obj": 0.0,
            "theta": np.zeros(2 * npar), "fallback": True}

    def consider(theta, obj, info, err, _):
        if err <= epsilon + FEASIBILITY_TOL and obj > best["obj"]:
            best.update(info=info, err=err, obj=obj, theta=theta.copy(),
                        fallback=False)

    fixed = [np.zeros(2 * npar), _bit_copy_start(probe_dim)]

    for start in range(restarts):
        # A random start is drawn as its restart begins, so a huge restart
        # count allocates nothing up front.
        theta = fixed[start] if start < len(fixed) else rng.normal(scale=0.5, size=2 * npar)
        point = _evaluate(analysis, theta, probe_dim, epsilon)
        consider(theta, *point)
        step = 0.25
        for _ in range(iters):
            grad = _objective_gradient(analysis, theta, probe_dim, epsilon, point)
            gnorm = np.linalg.norm(grad)
            if gnorm < 1e-12:
                break
            direction = grad / gnorm
            improved = False
            trial_step = step
            while trial_step > 1e-7:
                cand = theta + trial_step * direction
                trial = _evaluate(analysis, cand, probe_dim, epsilon)
                if trial[0] > point[0]:
                    theta, point = cand, trial
                    consider(theta, *point)
                    step = min(trial_step * 2.0, 0.5)
                    improved = True
                    break
                trial_step /= 2.0
            if not improved:
                break

    p1, p2 = best["theta"][:npar], best["theta"][npar:]
    return TradeoffPoint(mode=mode, epsilon=epsilon, info=best["info"],
                         max_error=best["err"], probe_dim=probe_dim,
                         params=(tuple(p1), tuple(p2)), restarts=restarts,
                         iterations=iters, fallback=best["fallback"])
