"""Numerical analysis of entangle-measure attacks.

Everything here is exact linear algebra over the branch decomposition of the
attack unitaries: expected check error rates, the attacker's probe
distinguishability conditioned on key bits, residuals of the zero-error
structure the security argument forces on the unitaries, and a constrained
search over the error-vs-information tradeoff.

Each mode reads one table, ``(pre, post)``, two arrays of joint qubit-probe
vectors.  Tables are stacks, one row per pair of unitaries on axis 0, and
every reader returns one value per row; the public readers read a stack of
one.  A mode declares its vectors' journey (``_Mode.journey``): vector k is
``pre[k] = mask[k] * (first @ inputs[k]) + fixed[k]`` before the second
unitary and ``post[k] = second @ pre[k]`` after it, and block x of a vector
(d entries) travels with qubit |x>.  Every rate, ensemble, residual and
gradient is read from slices of these arrays that the mode declares.
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
from .qstate import BB84_AMPS, PrepState, bb84_rows, check_density_matrices, check_unitary
from .runtime import check_int, check_real, shared_tuple

BRANCH_SKIP_PROB = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_OFF_BLOCKS = 1.0 - np.eye(2)[:, :, None]   # [x, b] is 1 where block b does not travel with |x>


def _blocks(vecs: np.ndarray) -> np.ndarray:
    """The probe blocks of joint vectors ``(..., 2d)``, as ``(..., 2, d)``."""
    return vecs.reshape(vecs.shape[:-1] + (2, -1))


def _moved(vecs: np.ndarray) -> np.ndarray:
    """Each of ``vecs``, ``(..., 2n, 2d)`` in (x = 0, 1) pairs, with its
    block x zeroed: what a Z measurement that should give x reads as a mismatch."""
    blocks = vecs.reshape(vecs.shape[:-2] + (-1, 2, 2, vecs.shape[-1] // 2))
    return (blocks * _OFF_BLOCKS).reshape(vecs.shape)


def _probe_outer(vecs: np.ndarray) -> np.ndarray:
    """Partial trace over the qubit of |v><v| for each (maybe unnormalized)
    vector v of ``vecs``, ``(..., 2d)`` onto ``(..., d, d)``."""
    blocks = _blocks(vecs)
    return np.einsum("...qi,...qj->...ij", blocks, blocks.conj())


def _kept(finals: np.ndarray) -> np.ndarray:
    """Entry [..., s]: (<s| (x) 1) finals[..., s], the probe left with the
    prepared state s by ``finals[..., s]``, one final joint state per ``PrepState``."""
    return np.einsum("sq,...sqi->...si", BB84_AMPS.conj(), _blocks(finals))


class FloatMap(Mapping):
    """A read-only mapping that reads as the dict of floats it packs: the same
    repr, order, ``==`` and values, bit for bit.  It keeps float64 bytes
    beside its names, one tuple shared by every map with the same."""

    __slots__ = ("_names", "_packed")

    def __init__(self, items: dict):
        self._names = shared_tuple(tuple(items))
        self._packed = struct.pack(f"<{len(items)}d", *items.values())

    def _dict(self) -> dict:
        return dict(zip(self._names, struct.unpack(f"<{len(self._names)}d", self._packed)))

    def __getitem__(self, name):
        return self._dict()[name]

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

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
    analysis, and the stack-of-one table of ``pair`` that every reader reads."""
    mode = mode or pair.protocol
    if mode != pair.protocol:
        raise ValueError(f"pair is for protocol {pair.protocol}, not {mode}")
    analysis = _MODES[mode]
    return mode, analysis, analysis.table(pair.first[None], pair.second[None])


def _first_row(values: dict) -> dict:
    """Row 0 of each of a reader's ``(R,)`` arrays, as Python floats."""
    return {name: value.item(0) for name, value in values.items()}


def error_profile(pair: UnitaryPair, mode: Optional[str] = None) -> ErrorProfile:
    mode, analysis, table = _table(pair, mode)
    return ErrorProfile(mode=mode, rates=FloatMap(_first_row(analysis.profile(table))))


def _prep_basis_error(finals: np.ndarray) -> np.ndarray:
    """Per row, the mean probability that a preparation-basis measurement of
    the qubit in ``finals[r, s]`` (the final joint state of preparation s)
    does not return the prepared state."""
    return (1.0 - (np.abs(_kept(finals)) ** 2).sum(axis=-1)).sum(axis=-1) / len(PrepState)


def _densities(mats: np.ndarray) -> np.ndarray:
    """``mats`` made Hermitian with unit trace, validated in one stacked check."""
    mats = (mats + mats.conj().swapaxes(-1, -2)) / 2.0
    mats = mats / mats.trace(axis1=-2, axis2=-1).real[..., None, None]
    check_density_matrices(mats)
    return mats


def probe_distinguishability(pair: UnitaryPair, mode: Optional[str] = None) -> float:
    """Maximum trace distance between the attacker's final probe states
    conditioned on the two values of a key bit."""
    _, analysis, table = _table(pair, mode)
    return float(_info(analysis.ensembles(table))[0][0])


def _info(rhos: np.ndarray) -> tuple:
    """Per row, the largest trace distance within one of the ensembles
    ``rhos``; then each one's distance and the eigenpairs of its rho0 - rho1."""
    eigs, vecs = np.linalg.eigh(rhos[:, :, 0] - rhos[:, :, 1])
    dists = 0.5 * np.abs(eigs).sum(axis=-1)
    return dists.max(axis=1), dists, eigs, vecs


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
    max_error = max([rate.item(0) for rate in analysis.profile(table).values()])
    zero_error = max_error <= ERR_TOL
    if not zero_error:
        return TheoremVerdict(mode=mode, max_error=max_error, zero_error=False,
                              distinguishability=None, residuals=_NO_RESIDUALS, holds=None)
    info = float(_info(analysis.ensembles(table))[0][0])
    residuals = _first_row(analysis.residuals(table))
    holds = info <= INFO_TOL and max(residuals.values()) <= RESIDUAL_TOL
    return TheoremVerdict(mode=mode, max_error=max_error, zero_error=True,
                          distinguishability=info, residuals=FloatMap(residuals), holds=holds)


def _norms(vecs: np.ndarray) -> np.ndarray:
    # np.linalg.norm(vecs, axis=-1)'s own formula, the same floats, without its wrapper.
    return np.sqrt(np.add.reduce((vecs.conj() * vecs).real, axis=-1))


_RESIDUALS_A = ("final_qubit_leakage", "cross_branch_initial", "cross_branch_final",
                "plus_branch_match", "minus_branch_antimatch", "plus_vs_zero_scaling",
                "plus_vs_one_scaling", "minus_vs_zero_scaling", "minus_vs_one_scaling")
_Z0, _Z1, _P, _M = PrepState
# Each identity from plus_branch_match on, f[s, x] - c f[t, y]: rows s, x, t, y; each c.
_IDENTITIES_A = np.array([(_P, 0, _P, 1), (_M, 0, _M, 1), (_P, 0, _Z0, 0),
                          (_P, 1, _Z1, 1), (_M, 0, _Z0, 0), (_M, 1, _Z1, 1)]).T
_IDENTITY_SCALES_A = np.array([1.0, -1.0, _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2])[:, None]


def _residuals_a(table: tuple) -> dict:
    # eps[r, s, x] is the first unitary's probe branch with |x>, before the
    # second acts.  Block b of phi[r, s, x] is blocks[r, s, x, b]: the final
    # probe f[r, s, x] where b = x, else amplitude the second unitary moved
    # onto the other qubit state.
    eps, blocks = _blocks(table[0][:, 8:]), table[1][:, :8].reshape(len(table[1]), 4, 2, 2, -1)
    s, x, t, y = _IDENTITIES_A
    # One norm per vector, in _RESIDUALS_A order: each moved block, the cross
    # branches before and after the second unitary, then each identity.
    norms = _norms(np.concatenate([
        blocks[:, :, [0, 1], [1, 0]].reshape(len(blocks), 8, -1), eps[:, [_Z0, _Z1], [1, 0]],
        blocks[:, [_Z0, _Z1], [1, 0], [1, 0]],
        blocks[:, s, x, x] - _IDENTITY_SCALES_A * blocks[:, t, y, y]], axis=1))
    return dict(zip(_RESIDUALS_A, (norms[:, :8].max(axis=1), norms[:, 8:10].max(axis=1),
                                   norms[:, 10:12].max(axis=1), *norms[:, 12:].T)))


def _residuals_b(table: tuple) -> dict:
    post = table[1]
    # Probe vectors traveling with each Z state after the full chain (h), and
    # after the return leg alone (g): block x of each (x = 0, 1) pair's |x>.
    h, _, g = _blocks(post.reshape(len(post), 3, 2, -1))[:, :, [0, 1], [0, 1]].swapaxes(0, 1)
    # X-prepared control particles must factorize against the same probe.
    h_bar = (h[:, 0] + h[:, 1]) / 2.0
    ctrl = post[:, 2:4] - (BB84_AMPS[2:, :, None] * h_bar[:, None, None]).reshape(len(post), 2, -1)
    moved = _moved(post)
    worst = _norms(np.stack([moved[:, :2], ctrl, moved[:, 4:]], axis=1)).max(axis=2)
    overlap = (g[:, 1].conj() * g[:, 0]).sum(axis=-1)
    phase = np.divide(overlap, np.abs(overlap), out=np.ones_like(overlap), where=overlap != 0)
    return {
        "sift_qubit_leakage": worst[:, 0],
        "probe_state_match": _norms(h[:, 0] - h[:, 1]),
        "ctrl_factorization": worst[:, 1],
        # Return-leg-only particles: the probe must not depend on the carried bit.
        "return_leg_leakage": worst[:, 2],
        # The norm of the difference at the optimal global phase, not via
        # inner products, which would square the achievable precision.
        "return_leg_probe_match": _norms(g[:, 0] - phase[:, None] * g[:, 1]),
    }


# ---------------------------------------------------------------------------
# Derivatives for the tradeoff search.  A gradient G of f with respect to a
# matrix or vector M means df = Re tr(G^dagger dM).  Every array here has one
# row per pair of unitaries, on axis 0.


def _prep_error_grad(finals: np.ndarray) -> np.ndarray:
    """The gradient of ``_prep_basis_error`` with respect to each final
    state, one per ``PrepState``: -(|s> (x) kept_s) / 2."""
    return -np.einsum("sq,...si->...sqi", BB84_AMPS, _kept(finals)).reshape(finals.shape) / 2.0


def _distance_grad(states: np.ndarray, rhos: np.ndarray, eigs: np.ndarray, vecs: np.ndarray):
    """Per row and ensemble, the gradient with respect to each of the (s, x)
    pairs of vectors ``states[r, e]`` of the trace distance tr(S (rho0 -
    rho1)) / 2, S = sign(rho0 - rho1) from the eigenpairs given, where rho_x
    is ``rhos[r, e, x]``, the ``_densities`` of the sum over s of the
    ``_probe_outer`` of x's.  A zero eigenvalue has sign 0, the mean of its
    one-sided derivatives."""
    sign = (vecs * np.sign(eigs)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    # An ensemble that _Mode.ensembles skips has S = 0 and may have a zero trace.
    traces = (np.abs(states) ** 2).sum(axis=-1).sum(axis=2)
    overlaps = (sign[:, :, None] @ rhos).trace(axis1=-2, axis2=-1).real[..., None, None]
    grads = (np.array([[[1.0]], [[-1.0]]]) * (sign[:, :, None] - overlaps * np.eye(sign.shape[-1]))
             / np.maximum(traces, np.finfo(float).tiny)[..., None, None])
    return np.einsum("re...xbj,rexij->re...xbi", _blocks(states), grads)


@functools.cache
def _journey_a(probe_dim: int) -> tuple:
    """Mode A's vectors: each branch phi[s, x] in (s, x) order, the second
    unitary applied to block x alone of psi[s], preparation s after the
    first, as a Z measurement with result x leaves it; then each reflected
    state, the second unitary applied to all of psi[s]."""
    journey = (bb84_rows(probe_dim)[[0, 0, 1, 1, 2, 2, 3, 3, 0, 1, 2, 3]],
               np.repeat(np.vstack([np.tile(np.eye(2), (4, 1)), np.ones((4, 2))]), probe_dim, 1))
    for part in journey:
        part.setflags(write=False)
    return (*journey, None)


@functools.cache
def _journey_b(probe_dim: int) -> tuple:
    """Mode B's vectors: each preparation after both legs, then each Z
    preparation after the return leg alone."""
    rows = bb84_rows(probe_dim)
    journey = (np.concatenate([rows, 0 * rows[:2]]), np.concatenate([0 * rows, rows[:2]]))
    for part in journey:
        part.setflags(write=False)
    return journey[0], None, journey[1]


@dataclass(frozen=True)
class _Mode:
    """One mode's analysis, declared as data.  ``journey(d)`` gives its K
    vectors (module docstring) as read-only ``(inputs, mask, fixed)``, each
    ``(K, 2d)``; a None ``fixed`` is all zeros, a None mask all ones (each
    vector a preparation carried by unitaries, of weight 1).  A term ``(kind,
    vectors, preparations)`` is a mean over preparations of the Z mismatch of
    a slice of (x = 0, 1) pairs (``"moved"``) or of ``_prep_basis_error``
    (``"prep"``).  ``checks`` gives each check's term in protocol order, the
    last T the T terms in order.  Each row of ``ensemble_vectors`` (read-only)
    indexes (s, x) pairs whose probes, summed over s, are one key-bit ensemble."""

    journey: Callable[[int], tuple]
    terms: tuple
    checks: tuple
    ensemble_vectors: np.ndarray
    residuals: Callable[[tuple], dict]

    def table(self, first: np.ndarray, second: np.ndarray) -> tuple:
        """``(pre, post)``, each ``(R, K, 2d)``, of unitaries ``(R, 2d, 2d)``."""
        inputs, mask, fixed = self.journey(first.shape[-1] // 2)
        pre = inputs @ first.swapaxes(-1, -2)
        if mask is not None:
            pre *= mask
        if fixed is not None:
            pre += fixed
        return pre, pre @ second.swapaxes(-1, -2)

    def profile(self, table: tuple) -> dict:
        """Each check's rate, an ``(R,)`` array, in the protocol's order."""
        post = table[1]
        moved = np.abs(_moved(post)) ** 2   # every "moved" term's mismatches
        values = [_prep_basis_error(post[:, vectors]) if kind == "prep"
                  else moved[:, vectors].sum(axis=(1, 2)) / preps
                  for kind, vectors, preps in self.terms]
        return {check: values[term] for check, term in self.checks}

    def ensembles(self, table: tuple) -> np.ndarray:
        """``(R, E, 2, d, d)``, ``rhos[r, e, x]`` the probe given x, I/d for
        both where either x weighs under ``BRANCH_SKIP_PROB``."""
        vecs = table[1][:, self.ensemble_vectors]   # (s, x) pairs
        vecs = vecs.reshape(vecs.shape[:2] + (-1, 2, vecs.shape[-1]))
        sums = _probe_outer(vecs).sum(axis=2)
        if self.journey(vecs.shape[-1] // 2)[1] is not None:   # else every x weighs 1
            weights = sums.trace(axis1=-2, axis2=-1).real / vecs.shape[2]   # each x's, mean over s
            if weights.min() < BRANCH_SKIP_PROB:
                sums = np.where((weights.min(axis=-1) >= BRANCH_SKIP_PROB)[..., None, None, None],
                                sums, np.eye(sums.shape[-1]))
        return _densities(sums)

    def derivative(self, first, second, table: tuple, rhos: np.ndarray, eigs, vecs) -> np.ndarray:
        """Each term's gradient, then each ensemble's information's, with
        respect to the two unitaries, ``(R, T + E, 2, 2d, 2d)``."""
        pre, post = table
        inputs, mask, _ = self.journey(first.shape[-1] // 2)
        terms = len(self.terms)
        grads = np.zeros((len(post), terms + len(self.ensemble_vectors), *post.shape[1:]),
                         dtype=complex)   # with respect to each vector of post
        moved = _moved(post)
        for t, (kind, vectors, preps) in enumerate(self.terms):
            grads[:, t, vectors] = (_prep_error_grad(post[:, vectors]) if kind == "prep"
                                    else moved[:, vectors] * (2 / preps))
        states = post[:, self.ensemble_vectors]
        infos = _distance_grad(states.reshape(states.shape[:2] + (-1, 2, states.shape[-1])),
                               rhos, eigs, vecs)
        for e, vectors in enumerate(self.ensemble_vectors):
            grads[:, terms + e, vectors] = infos[:, e].reshape(len(post), -1, post.shape[-1])
        back = grads @ second.conj()[:, None]
        if mask is not None:
            back *= mask
        return np.stack([np.einsum("rtki,kj->rtij", back, inputs.conj()),
                         np.einsum("rtki,rkj->rtij", grads, pre.conj())], axis=2)


_MODES = {
    # Cases 1-3: some classical party holds a Z result x, the return unitary
    # acts on |x> and its probe branch, and Alice's Z outcome may flip from
    # x.  Case 4: both reflect, and Alice measures in the preparation basis.
    # Bob's result (Case 2 key bits) and Charlie's (Case 3) give one ensemble.
    "A": _Mode(_journey_a, terms=(("moved", slice(0, 8), 4), ("prep", slice(8, 12), 4)),
               checks=tuple(zip(CHECKS_A, (0, 0, 0, 1))),
               ensemble_vectors=np.broadcast_to(np.arange(8), (1, 8)),
               residuals=_residuals_a),
    # The ensembles: the probe given each Z preparation after both legs, and
    # after the return leg alone.
    "B": _Mode(_journey_b, terms=(("prep", slice(0, 4), 4), ("moved", slice(0, 2), 2),
                                  ("moved", slice(4, 6), 2)),
               checks=tuple(zip(CHECKS_B, (0, 1, 2))),
               ensemble_vectors=np.broadcast_to([[0, 1], [4, 5]], (2, 2)),
               residuals=_residuals_b),
}


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


def _params_gradient(lam, w, grads, probe_dim) -> np.ndarray:
    """Chain ``grads[..., r, :, :]``, a gradient with respect to U = exp(iH)
    of parameter row r, to that row, from ``_exponentials``' H = W diag(lam)
    W^dagger, ``lam[..., r, :]`` and ``w[..., r, :, :]`` broadcast against
    ``grads``: dU = W (Phi o W^dagger i dH W) W^dagger for Phi_jl =
    exp(i(lam_j + lam_l)/2) sinc((lam_j - lam_l)/2), finite at equal lam."""
    phi = (np.exp(0.5j * (lam[..., :, None] + lam[..., None, :]))
           * np.sinc((lam[..., :, None] - lam[..., None, :]) / (2 * np.pi)))
    w_h = w.conj().swapaxes(-1, -2)
    mat = w @ (phi.conj() * (w_h @ grads @ w)) @ w_h
    return (1j * (mat.reshape(mat.shape[:-2] + (-1,)).conj() @ _basis(probe_dim).T)).real


def unitary_from_params(params: np.ndarray, probe_dim: int) -> np.ndarray:
    """Map a real vector onto U(2d) via the exponential of i times a Hermitian
    matrix assembled from the vector: row 0 of ``_exponentials``' stack."""
    return _exponentials(np.reshape(params, (1, -1)), probe_dim)[0][0]


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


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pair(mode: str, probe_dim: int, rng: np.random.Generator) -> UnitaryPair:
    m = 2 * probe_dim
    return UnitaryPair(first=random_unitary(m, rng), second=random_unitary(m, rng), protocol=mode)


def random_zero_error_pair(mode: str, probe_dim: int,
                           rng: np.random.Generator) -> UnitaryPair:
    """Zero-error family member: random probe-only unitaries times global phases."""
    v, w = random_unitary(probe_dim, rng), random_unitary(probe_dim, rng)
    first, second = (np.exp(1j * float(rng.uniform(0, 2 * np.pi))) * np.kron(np.eye(2), u)
                     for u in (v, w))
    return UnitaryPair(first=first, second=second, protocol=mode)


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

_BLOCK = 8   # restarts climbing in lockstep: the CLI's 6 fit, and rounds keep this size


def _max_grad(values: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Per row, the gradient of the max of ``values[r]`` from each value's
    gradient ``grads[r]``: over the values that tie for the max, (max + min)
    / 2 in each coordinate, the mean of the one-sided derivatives."""
    tied = (values == values.max(axis=1, keepdims=True))[..., None]
    return (np.where(tied, grads, -np.inf).max(axis=1)
            + np.where(tied, grads, np.inf).min(axis=1)) / 2.0


def _objective(info, err, epsilon: float) -> tuple:
    """The search's penalized objective at information ``info`` and max error
    ``err``, each per row, gain - lam * max(err - budget, 0), with the gain's
    derivative in ``info``, lam and the budget.  A stiff lam keeps
    the ascent from trading a sliver of feasibility violation for
    information.  Near a zero-error pair that carries none, information
    grows like c * sqrt(error), so at epsilon = 0 info - lam * error would
    still peak a sliver off the zero-error set, at c^2 / (4 lam).  There the
    gain is info squared, which falls below the penalty off that set for any
    c^2 < lam, and the budget is epsilon.  Elsewhere it is epsilon +
    ``FEASIBILITY_TOL``, as the search's feasibility test: a point the search
    counts feasible has no penalty."""
    if epsilon < 1e-6:
        gain, slope, lam, budget = info * info, 2.0 * info, 1e7, epsilon
    else:
        gain, slope, lam, budget = info, 1.0, 1e3, epsilon + FEASIBILITY_TOL
    return gain - lam * np.maximum(err - budget, 0.0), slope, lam, budget


def _evaluate(analysis: _Mode, thetas: np.ndarray, probe_dim: int, epsilon: float) -> tuple:
    """At each row of ``thetas``, ``(R, 2 npar)``, from one build of the mode's
    table, as in ``theorem_check``: the objective, information and max error,
    then all that the gradient there reads.  Each entry has a row per theta."""
    m = 2 * probe_dim
    unitaries, lam, w = _exponentials(thetas.reshape(-1, m * m), probe_dim)
    first, second = unitaries[0::2], unitaries[1::2]
    table = analysis.table(first, second)
    rates = np.stack(list(analysis.profile(table).values()), axis=1)
    rhos = analysis.ensembles(table)
    (info, dists, eigs, vecs), err = _info(rhos), rates.max(axis=1)
    return (_objective(info, err, epsilon)[0], info, err, rates, dists, rhos, eigs, vecs,
            first, second, lam.reshape(-1, 2, m), w.reshape(-1, 2, m, m), *table)


def _objective_gradient(analysis: _Mode, probe_dim: int, epsilon: float,
                        point: tuple) -> np.ndarray:
    """The exact gradient of ``_objective`` at each row of ``point``, what
    ``_evaluate`` read there.  Where maxima tie (of the rates, of the penalty
    and zero, or of mode B's two ensembles), each coordinate takes the mean
    of its one-sided derivatives, the limit a central difference takes."""
    _, info, err, rates, dists, rhos, eigs, vecs, first, second, lam, w, *table = point
    grads = _params_gradient(lam[:, None], w[:, None],
                             analysis.derivative(first, second, table, rhos, eigs, vecs),
                             probe_dim).reshape(len(info), -1, 2 * params_dim(probe_dim))
    _, slope, weight, budget = _objective(info, err, epsilon)
    # The last T checks' rates are the T terms' (_Mode), and the max over terms is the max over
    # checks, which share their term's rate and gradient.  The penalty's floor, zero, has none.
    terms = len(analysis.terms)
    penalty = _max_grad(np.concatenate([rates[:, -terms:] - budget, np.zeros((len(info), 1))], 1),
                        np.concatenate([grads[:, :terms], np.zeros_like(grads[:, :1])], 1))
    return np.reshape(slope, (-1, 1)) * _max_grad(dists, grads[:, terms:]) - weight * penalty


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


def _climb(analysis: _Mode, thetas: np.ndarray, probe_dim: int, epsilon: float,
           iters: int) -> list:
    """Climb from each row of ``thetas``, in place and in lockstep, by a
    restart's rules; return each row's best feasible objective (0 with none)
    and that point's information, max error and theta."""
    best = [np.zeros(len(thetas)) for _ in range(3)] + [np.zeros_like(thetas)]

    def consider(rows, obj, info, err):
        # Rank feasible points by the penalized objective, not raw information:
        # near the identity, information scales like sqrt(error), so the
        # max-info feasible iterate would reward tolerance abuse.
        better = (err <= epsilon + FEASIBILITY_TOL) & (obj > best[0][rows])
        for kept, value in zip(best, (obj, info, err, thetas[rows])):
            kept[rows[better]] = value[better]

    rows, step = np.arange(len(thetas)), np.full(len(thetas), 0.25)
    pieces = [(_evaluate(analysis, thetas, probe_dim, epsilon), rows >= 0)]
    consider(rows, *pieces[0][0][:3])
    for _ in range(iters):
        # The rows that moved, read from the line-search rounds, not evaluated again.
        point = pieces[0][0] if len(pieces) == 1 and pieces[0][1].all() else tuple(
            np.concatenate(parts) for parts in zip(*([e[kept] for e in p] for p, kept in pieces)))
        grads = _objective_gradient(analysis, probe_dim, epsilon, point)
        gnorm = _norms(grads)
        climbing = gnorm >= 1e-12
        rows, obj, direction = rows[climbing], point[0][climbing], grads[climbing]
        direction, trial_step = direction / gnorm[climbing, None], step[rows]
        searching, pieces, moved = np.flatnonzero(trial_step > 1e-7), [], []
        while len(searching):
            cand = thetas[rows[searching]] + trial_step[searching, None] * direction[searching]
            trial = _evaluate(analysis, cand, probe_dim, epsilon)
            gained = trial[0] > obj[searching]
            done = searching[gained]
            thetas[rows[done]] = cand[gained]
            step[rows[done]] = np.minimum(trial_step[done] * 2.0, 0.5)
            consider(rows[done], *(entry[gained] for entry in trial[:3]))
            pieces.append((trial, gained))
            moved.extend(rows[done])
            searching = searching[~gained]
            trial_step[searching] /= 2.0
            searching = searching[trial_step[searching] > 1e-7]
        rows = np.array(moved, dtype=int)
        if not len(rows):
            break
    return best


def constrained_search(mode: str, epsilon: float, probe_dim: int = 2,
                       restarts: int = 6, iters: int = 40, seed: int = 0) -> TradeoffPoint:
    """Maximize probe distinguishability subject to every check error staying
    within the budget, by restarted gradient ascent on a penalized
    objective.  Deliberately simple: used for inequalities with slack only.
    Restarts climb in lockstep, ``_BLOCK`` at a time.  A restart stops when
    its gradient norm is below 1e-12 or its line search halves the step to
    1e-7 without a gain; an accepted step doubles, up to 0.5.  The first
    restart with the largest best feasible objective gives the point."""
    check_search_args(mode, epsilon, probe_dim, restarts, iters, seed)
    npar, analysis = params_dim(probe_dim), _MODES[mode]
    fixed = [np.zeros(2 * npar), _bit_copy_start(probe_dim)]
    rng, best_obj, best = None, 0.0, None
    for begin in range(0, restarts, _BLOCK):
        starts = fixed[begin:restarts]
        drawn = min(_BLOCK, restarts - begin) - len(starts)
        # A block's random starts are one draw as it begins (the numbers of one
        # draw per restart), so a huge restart count allocates nothing up front
        # and two restarts build no Generator.
        if drawn:
            rng = rng or np.random.default_rng(np.random.SeedSequence((seed, 0xE)))
            starts = [*starts, *rng.normal(scale=0.5, size=(drawn, 2 * npar))]
        objs, *points = _climb(analysis, np.array(starts), probe_dim, epsilon, iters)
        row = int(np.argmax(objs))
        if objs[row] > best_obj:
            best_obj, best = objs[row], [entry[row] for entry in points]
    info, err, theta = best or (0.0, 0.0, np.zeros(2 * npar))
    return TradeoffPoint(mode=mode, epsilon=epsilon, info=float(info), max_error=float(err),
                         probe_dim=probe_dim, params=(tuple(theta[:npar]), tuple(theta[npar:])),
                         restarts=restarts, iterations=iters, fallback=best is None)
