"""Numerical analysis of entangle-measure attacks.

Everything here is exact linear algebra over the branch decomposition of the
attack unitaries: expected check error rates, the attacker's probe
distinguishability conditioned on key bits, residuals of the zero-error
structure the security argument forces on the unitaries, and a constrained
search over the error-vs-information tradeoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import expm

from .adversary import UnitaryPair
from .qstate import (
    DensityMatrix,
    PrepState,
    check_unitary,
    lift,
    prepare,
    trace_distance,
)
from .runtime import check_int, check_real

PREPS = (PrepState.ZERO, PrepState.ONE, PrepState.PLUS, PrepState.MINUS)
Z_PREPS = (PrepState.ZERO, PrepState.ONE)

BRANCH_SKIP_PROB = 1e-12

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _embed(qubit_vec: np.ndarray, probe_vec: np.ndarray) -> np.ndarray:
    return np.kron(qubit_vec, probe_vec)


def _prep_probe_vec(s: PrepState, d: int) -> np.ndarray:
    return lift(prepare(s), d).amps.copy()


def _blocks(vec: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    return vec[:d], vec[d:]


def _probe_outer(vec: np.ndarray, d: int) -> np.ndarray:
    """Partial trace over the qubit of |vec><vec| (vec may be unnormalized)."""
    b0, b1 = _blocks(vec, d)
    return np.outer(b0, b0.conj()) + np.outer(b1, b1.conj())


def _phase_free_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between vectors minimized over a global phase.

    Computed as the norm of the difference at the optimal phase rather than
    via inner products, which would square the achievable precision."""
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def _measured_branches(pair: UnitaryPair) -> dict:
    """Mode A's branch table.  ``(s, x) -> (eps, phi)``: the probe branch eps
    that travels with a measured |x> after the first unitary acts on
    preparation s (the initial probe state is |e0>), and phi, the second
    unitary applied to |x> (x) eps.  Ordered by s, then x."""
    d = pair.probe_dim
    out = {}
    for s in PREPS:
        psi = pair.first @ _prep_probe_vec(s, d)
        for x in (0, 1):
            eps = _blocks(psi, d)[x]
            qubit = np.zeros(2, dtype=complex)
            qubit[x] = 1.0
            out[(s, x)] = (eps, pair.second @ _embed(qubit, eps))
    return out


def _chain_states_b(pair: UnitaryPair) -> tuple[dict, dict]:
    """Mode B's state table: the joint state of each preparation after the
    full chain ``second @ first`` (all four preparations), and after the
    return unitary alone (the two Z preparations)."""
    d = pair.probe_dim
    u_both = pair.second @ pair.first
    return ({s: u_both @ _prep_probe_vec(s, d) for s in PREPS},
            {s: pair.second @ _prep_probe_vec(s, d) for s in Z_PREPS})


@dataclass(frozen=True)
class ErrorProfile:
    """Expected per-check error rates an attack pair induces (exact, no sampling)."""

    mode: str
    rates: dict

    @property
    def max_rate(self) -> float:
        return max(self.rates.values())


def _mode_of(pair: UnitaryPair, mode: Optional[str]) -> str:
    mode = mode or pair.protocol
    if mode != pair.protocol:
        raise ValueError(f"pair is for protocol {pair.protocol}, not {mode}")
    return mode


def error_profile(pair: UnitaryPair, mode: Optional[str] = None) -> ErrorProfile:
    if _mode_of(pair, mode) == "A":
        return _error_profile_a(pair, _measured_branches(pair))
    return _error_profile_b(pair, _chain_states_b(pair))


def _measured_chain_error(branches: dict, d: int) -> float:
    """P(Alice's Z outcome differs from the classical party's measured bit),
    averaged over the four uniform preparations and the Born-rule branch."""
    total = 0.0
    for (_, x), (_, phi) in branches.items():
        wrong = _blocks(phi, d)[1 - x]
        total += float(np.sum(np.abs(wrong) ** 2))
    return total / len(PREPS)


def _prep_basis_error(finals: dict, d: int) -> float:
    """Mean probability that a preparation-basis measurement of the qubit in
    ``finals[s]`` (the final joint state of preparation ``s``, for each of
    ``PREPS``) does not return the prepared state."""
    total = 0.0
    for s, psi in finals.items():
        sv = prepare(s)
        b0, b1 = _blocks(psi, d)
        kept = sv[0].conjugate() * b0 + sv[1].conjugate() * b1
        total += 1.0 - float(np.sum(np.abs(kept) ** 2))
    return total / len(PREPS)


def _error_profile_a(pair: UnitaryPair, branches: dict) -> ErrorProfile:
    d = pair.probe_dim
    # Cases 1-3 share the same physical chain: some classical party holds a
    # Z result x, the return unitary acts on |x> and its probe branch, and a
    # mismatch means Alice's Z outcome flips away from x.
    measured = _measured_chain_error(branches, d)
    # Case 4: both parties reflect, the return unitary acts on the full
    # superposition, and Alice measures in the preparation basis.
    case4 = _prep_basis_error(
        {s: pair.second @ (pair.first @ _prep_probe_vec(s, d)) for s in PREPS}, d)
    return ErrorProfile(mode="A", rates={
        "case1": measured, "case2": measured, "case3": measured, "case4": case4,
    })


def _error_profile_b(pair: UnitaryPair, states: tuple[dict, dict]) -> ErrorProfile:
    d = pair.probe_dim
    full, ret = states
    ctrl = _prep_basis_error(full, d)
    test_b = 0.0
    for r, s in enumerate(Z_PREPS):
        test_b += float(np.sum(np.abs(_blocks(full[s], d)[1 - r]) ** 2))
    test_b /= 2.0
    test_c = 0.0
    for q, s in enumerate(Z_PREPS):
        test_c += float(np.sum(np.abs(_blocks(ret[s], d)[1 - q]) ** 2))
    test_c /= 2.0
    return ErrorProfile(mode="B", rates={"ctrl": ctrl, "test_b": test_b, "test_c": test_c})


def _density(mat: np.ndarray) -> DensityMatrix:
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(mat / np.trace(mat).real)


def probe_distinguishability(pair: UnitaryPair, mode: Optional[str] = None) -> float:
    """Maximum trace distance between the attacker's final probe states
    conditioned on the two values of a key bit."""
    if _mode_of(pair, mode) == "A":
        return _distinguishability_a(pair, _measured_branches(pair))
    return _distinguishability_b(pair, _chain_states_b(pair))


def _distinguishability_a(pair: UnitaryPair, branches: dict) -> float:
    # Conditioning on Bob's result (Case 2 key bits) and on Charlie's (Case 3)
    # produces the same ensemble: either way the return unitary sees |x> and
    # the x branch of the probe.
    d = pair.probe_dim
    rhos = []
    for x in (0, 1):
        acc = np.zeros((d, d), dtype=complex)
        weight = 0.0
        for s in PREPS:
            eps, phi = branches[(s, x)]
            acc += _probe_outer(phi, d) / len(PREPS)
            weight += float(np.sum(np.abs(eps) ** 2)) / len(PREPS)
        rhos.append((weight, acc))
    if any(w < BRANCH_SKIP_PROB for w, _ in rhos):
        return 0.0
    return trace_distance(_density(rhos[0][1]), _density(rhos[1][1]))


def _distinguishability_b(pair: UnitaryPair, states: tuple[dict, dict]) -> float:
    d = pair.probe_dim
    dists = []
    for vecs in states:
        rhos = []
        for s in Z_PREPS:
            rhos.append(_density(_probe_outer(vecs[s], d)))
        dists.append(trace_distance(rhos[0], rhos[1]))
    return max(dists)


@dataclass(frozen=True)
class TheoremVerdict:
    """Result of checking the zero-error security structure on one pair."""

    mode: str
    max_error: float
    zero_error: bool
    distinguishability: Optional[float]
    residuals: dict
    holds: Optional[bool]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0


# Tolerances of theorem_check: a check error rate up to ERR_TOL counts as
# zero; the information and every residual must then be within their own.
ERR_TOL = 1e-12
INFO_TOL = 1e-8
RESIDUAL_TOL = 1e-8


def theorem_check(pair: UnitaryPair, mode: Optional[str] = None) -> TheoremVerdict:
    """If the pair induces no check error (within ERR_TOL), verify that the
    probe carries no key information and that the structural identities the
    zero-error condition forces all hold within tolerance."""
    mode = _mode_of(pair, mode)
    # The mode's table is built once and every check reads it.
    if mode == "A":
        table = _measured_branches(pair)
        profile_of, info_of, residuals_of = (
            _error_profile_a, _distinguishability_a, _residuals_a)
    else:
        table = _chain_states_b(pair)
        profile_of, info_of, residuals_of = (
            _error_profile_b, _distinguishability_b, _residuals_b)
    profile = profile_of(pair, table)
    zero_error = profile.max_rate <= ERR_TOL
    if not zero_error:
        return TheoremVerdict(mode=mode, max_error=profile.max_rate, zero_error=False,
                              distinguishability=None, residuals={}, holds=None)
    info = info_of(pair, table)
    residuals = residuals_of(pair, table)
    holds = info <= INFO_TOL and max(residuals.values()) <= RESIDUAL_TOL
    return TheoremVerdict(mode=mode, max_error=profile.max_rate, zero_error=True,
                          distinguishability=info, residuals=residuals, holds=holds)


def _residuals_a(pair: UnitaryPair, branches: dict) -> dict:
    d = pair.probe_dim
    # f[(s, x)] is the final probe component that travels with |x>; the rest
    # of phi is amplitude the second unitary moved onto the other qubit state.
    f = {}
    leakage = 0.0
    for (s, x), (_, phi) in branches.items():
        b = _blocks(phi, d)
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


def _residuals_b(pair: UnitaryPair, states: tuple[dict, dict]) -> dict:
    d = pair.probe_dim
    full, ret = states
    # Probe vectors traveling with each Z state after the full chain.
    h = []
    leak = 0.0
    for r, s in enumerate(Z_PREPS):
        blocks = _blocks(full[s], d)
        h.append(blocks[r])
        leak = max(leak, float(np.linalg.norm(blocks[1 - r])))
    h_bar = (h[0] + h[1]) / 2.0
    # X-prepared control particles must factorize against the same probe.
    ctrl_resid = 0.0
    for s in (PrepState.PLUS, PrepState.MINUS):
        target = _embed(prepare(s), h_bar)
        ctrl_resid = max(ctrl_resid, float(np.linalg.norm(full[s] - target)))
    # Return-leg-only particles: the probe must not depend on the carried bit.
    g = []
    g_leak = 0.0
    for q, s in enumerate(Z_PREPS):
        blocks = _blocks(ret[s], d)
        g.append(blocks[q])
        g_leak = max(g_leak, float(np.linalg.norm(blocks[1 - q])))
    return {
        "sift_qubit_leakage": leak,
        "probe_state_match": float(np.linalg.norm(h[0] - h[1])),
        "ctrl_factorization": ctrl_resid,
        "return_leg_leakage": g_leak,
        "return_leg_probe_match": _phase_free_dist(g[0], g[1]),
    }


# ---------------------------------------------------------------------------
# Unitary parameterization and constructions


def params_dim(probe_dim: int) -> int:
    return (2 * probe_dim) ** 2


def unitaries_from_params(params: np.ndarray, probe_dim: int) -> np.ndarray:
    """Stacked ``unitary_from_params``: row ``r`` of ``params``, shape
    ``(n, (2d)^2)``, maps onto ``out[r]`` in U(2d), all in one ``expm`` call.
    The Hermitian matrix takes its diagonal from the first 2d entries of a row
    and the real and imaginary parts of its upper triangle, row by row, from
    the rest."""
    m = 2 * probe_dim
    params = np.asarray(params, dtype=float)
    if params.ndim != 2 or params.shape[1] != m * m:
        raise ValueError(f"expected rows of {m * m} parameters, got shape {params.shape}")
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, 1)
    re, im = params[:, m::2], params[:, m + 1::2]
    herm = np.zeros((len(params), m, m), dtype=complex)
    herm[:, diag, diag] = params[:, :m]
    herm[:, rows, cols] = re + 1j * im
    herm[:, cols, rows] = re - 1j * im
    return expm(1j * herm)


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
    out = np.empty(m * m)
    out[:m] = herm.diagonal().real
    k = m
    for i in range(m):
        for j in range(i + 1, m):
            out[k] = herm[i, j].real
            out[k + 1] = herm[i, j].imag
            k += 2
    return out


def pair_from_params(mode: str, probe_dim: int, params_first: np.ndarray,
                     params_second: np.ndarray) -> UnitaryPair:
    return UnitaryPair(first=unitary_from_params(params_first, probe_dim),
                       second=unitary_from_params(params_second, probe_dim),
                       probe_dim=probe_dim, protocol=mode)


def identity_pair(mode: str, probe_dim: int) -> UnitaryPair:
    eye = np.eye(2 * probe_dim)
    return UnitaryPair(first=eye, second=eye, probe_dim=probe_dim, protocol=mode)


def _check_probe_dim(probe_dim: int) -> None:
    """The bit-copy attack swaps probe levels 0 and 1, so it needs both."""
    check_int("probe_dim", probe_dim)
    if probe_dim < 2:
        raise ValueError(f"probe_dim must be at least 2, got {probe_dim}")


def bit_copy_pair(mode: str, probe_dim: int) -> UnitaryPair:
    """The canonical maximally informative attack at error 1/4: the first
    unitary copies the transit Z bit into the probe, the second does nothing.
    It needs two probe levels."""
    _check_probe_dim(probe_dim)
    m = 2 * probe_dim
    u = np.eye(m)
    # flip probe levels 0 and 1 when the qubit is 1
    i0, i1 = probe_dim + 0, probe_dim + 1
    u[[i0, i1]] = u[[i1, i0]]
    return UnitaryPair(first=u, second=np.eye(m), probe_dim=probe_dim, protocol=mode)


def probe_only_pair(mode: str, probe_dim: int, v: np.ndarray, w: np.ndarray,
                    phase_first: float = 0.0, phase_second: float = 0.0) -> UnitaryPair:
    """Zero-error family member: unitaries acting on the probe alone, times
    global phases."""
    eye = np.eye(2)
    return UnitaryPair(first=np.exp(1j * phase_first) * np.kron(eye, v),
                       second=np.exp(1j * phase_second) * np.kron(eye, w),
                       probe_dim=probe_dim, protocol=mode)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pair(mode: str, probe_dim: int, rng: np.random.Generator) -> UnitaryPair:
    m = 2 * probe_dim
    return UnitaryPair(first=random_unitary(m, rng), second=random_unitary(m, rng),
                       probe_dim=probe_dim, protocol=mode)


def random_zero_error_pair(mode: str, probe_dim: int,
                           rng: np.random.Generator) -> UnitaryPair:
    return probe_only_pair(mode, probe_dim,
                           random_unitary(probe_dim, rng),
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


def check_search_args(epsilon: float, probe_dim: int, restarts: int, iters: int,
                      seed: int) -> None:
    """Reject ``constrained_search`` arguments before any evaluation runs."""
    check_real("epsilon", epsilon)
    for name, value in (("restarts", restarts), ("iters", iters), ("seed", seed)):
        check_int(name, value)
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError("epsilon must be in [0, 0.5]")
    if restarts < 1 or iters < 1:
        raise ValueError("budgets must be positive")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    _check_probe_dim(probe_dim)  # for the bit-copy start


def _search_objective(mode: str, epsilon: float):
    """The search's objective as a function of a pair.  It returns the
    penalized objective, the information and the max error, and builds the
    mode's table once for both, as ``theorem_check`` does."""
    # A stiff penalty keeps the ascent from trading a sliver of feasibility
    # violation for information; near epsilon = 0 it must dominate the
    # O(sqrt(error)) growth of distinguishability around the identity.
    lam = 1e7 if epsilon < 1e-6 else 1e3
    if mode == "A":
        table_of, profile_of, info_of = (
            _measured_branches, _error_profile_a, _distinguishability_a)
    else:
        table_of, profile_of, info_of = (
            _chain_states_b, _error_profile_b, _distinguishability_b)

    def objective(pair: UnitaryPair) -> tuple[float, float, float]:
        table = table_of(pair)
        err = profile_of(pair, table).max_rate
        info = info_of(pair, table)
        return info - lam * max(err - epsilon, 0.0), info, err

    return objective


def _stencil_pairs(mode: str, probe_dim: int, theta: np.ndarray, h: float):
    """The central-difference stencil around ``theta``: for each parameter k in
    order, the pairs at ``theta + h e_k`` and ``theta - h e_k``.

    A stencil point moves one parameter of one unitary, so each half's
    unperturbed unitary (row 0) and its perturbed ones come from one stacked
    call, and each pair takes the other half's row 0.  Row 0 is bit for bit
    the half ``theta ± 0.0`` would give, as long as theta holds no -0.0: the
    search's starts hold none, and its steps cannot make one.
    """
    npar = params_dim(probe_dim)
    bumps = h * np.eye(npar)
    stacks = []
    for part in (theta[:npar], theta[npar:]):
        rows = np.empty((2 * npar + 1, npar))
        rows[0] = part
        rows[1::2] = part + bumps
        rows[2::2] = part - bumps
        stacks.append(unitaries_from_params(rows, probe_dim))
    first, second = stacks

    def pair(u1, u2):
        return UnitaryPair(first=u1, second=u2, probe_dim=probe_dim, protocol=mode)

    for k in range(npar):
        yield pair(first[2 * k + 1], second[0]), pair(first[2 * k + 2], second[0])
    for k in range(npar):
        yield pair(first[0], second[2 * k + 1]), pair(first[0], second[2 * k + 2])


def constrained_search(mode: str, epsilon: float, probe_dim: int = 2,
                       restarts: int = 6, iters: int = 40, seed: int = 0) -> TradeoffPoint:
    """Maximize probe distinguishability subject to every check error staying
    within the budget, by restarted finite-difference ascent on a penalized
    objective.  Deliberately simple: used for inequalities with slack only.
    """
    check_search_args(epsilon, probe_dim, restarts, iters, seed)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE)))
    npar = params_dim(probe_dim)
    objective = _search_objective(mode, epsilon)

    def evaluate(theta) -> tuple[float, float, float]:
        """The penalized objective, the information and the max error at theta."""
        return objective(pair_from_params(mode, probe_dim, theta[:npar], theta[npar:]))

    # Rank feasible points by the penalized objective, not raw information:
    # within the feasibility tolerance the information of a near-identity
    # perturbation scales like sqrt(error), so picking the max-info feasible
    # iterate would reward tolerance abuse rather than genuine tradeoffs.
    best = {"info": 0.0, "err": 0.0, "obj": 0.0,
            "theta": np.zeros(2 * npar), "fallback": True}

    def consider(theta, obj, info, err):
        if err <= epsilon + FEASIBILITY_TOL and obj > best["obj"]:
            best.update(info=info, err=err, obj=obj, theta=theta.copy(),
                        fallback=False)

    bc = bit_copy_pair(mode, probe_dim)
    starts = [np.zeros(2 * npar),
              np.concatenate([params_from_unitary(bc.first), params_from_unitary(bc.second)])]
    while len(starts) < restarts:
        starts.append(rng.normal(scale=0.5, size=2 * npar))

    h = 1e-5
    for theta in starts[:restarts]:
        theta = theta.astype(float).copy()
        f, info, err = evaluate(theta)
        consider(theta, f, info, err)
        step = 0.25
        for _ in range(iters):
            grad = np.array([(objective(plus)[0] - objective(minus)[0]) / (2 * h)
                             for plus, minus in _stencil_pairs(mode, probe_dim, theta, h)])
            gnorm = np.linalg.norm(grad)
            if gnorm < 1e-12:
                break
            direction = grad / gnorm
            improved = False
            trial_step = step
            while trial_step > 1e-7:
                cand = theta + trial_step * direction
                fc, info, err = evaluate(cand)
                if fc > f:
                    theta, f = cand, fc
                    consider(theta, f, info, err)
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
