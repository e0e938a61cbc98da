"""A reference for ``em_analysis``'s readers: the dict tables they replaced.

Each mode's table here is a pair of dicts keyed by ``PrepState`` (and by
``(s, x)`` in mode A), built one matrix-vector product at a time, and every
rate, ensemble and residual is read from it in a Python loop.  This is how
``em_analysis`` read its tables before they became arrays.  ``evaluate``
gives a pair's rates, information and ``theorem_check`` outcome from these
readers, so a test can hold the array readers to them.
"""

from __future__ import annotations

import numpy as np

from sqss.em_analysis import BRANCH_SKIP_PROB, ERR_TOL, INFO_TOL, RESIDUAL_TOL
from sqss.protocol_a import CHECKS_A
from sqss.protocol_b import CHECKS_B
from sqss.qstate import DensityMatrix, PrepState, bb84_rows, prepare, trace_distance

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
Z0, Z1, P, M = PrepState


def _blocks(vec):
    """The probe blocks of a joint vector: row x travels with qubit |x>."""
    return vec.reshape(2, -1)


def _sq_norm(vec) -> float:
    return float(np.sum(np.abs(vec) ** 2))


def _probe_outer(vec):
    """Partial trace over the qubit of |vec><vec| (vec may be unnormalized)."""
    b0, b1 = _blocks(vec)
    return np.outer(b0, b0.conj()) + np.outer(b1, b1.conj())


def _phase_free_dist(a, b) -> float:
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def _density(mat) -> DensityMatrix:
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(mat / np.trace(mat).real)


def measured_branches(first, second):
    """Mode A's ``(branches, reflected)``: ``branches[(s, x)]`` is ``(eps,
    phi)``, the probe branch eps that travels with a measured |x> after
    ``first`` acts on preparation s, and ``second`` applied to |x> (x) eps;
    ``reflected[s]`` is ``second`` applied to all ``first`` left."""
    branches, reflected = {}, {}
    for s, row in zip(PrepState, bb84_rows(len(first) // 2)):
        psi = first @ row
        reflected[s] = second @ psi
        for x in (0, 1):
            eps = _blocks(psi)[x]
            branches[(s, x)] = (eps, second @ np.kron(np.eye(2)[x], eps))
    return branches, reflected


def chain_states_b(first, second):
    """Mode B's ``(full, ret)``: each preparation after ``second @ first``,
    and each Z preparation after ``second`` alone."""
    u_both = second @ first
    rows = bb84_rows(len(first) // 2)
    return ({s: u_both @ row for s, row in zip(PrepState, rows)},
            {s: second @ row for s, row in zip(PrepState, rows[:2])})


def _z_blocks(states):
    """For each Z preparation |r>: its probe block that travels with |r>, and
    the block moved onto |1-r>."""
    blocks = [_blocks(states[s]) for s in (Z0, Z1)]
    return [b[r] for r, b in enumerate(blocks)], [b[1 - r] for r, b in enumerate(blocks)]


def _prep_basis_error(finals) -> float:
    total = 0.0
    for s, psi in finals.items():
        sv = prepare(s)
        b0, b1 = _blocks(psi)
        total += 1.0 - _sq_norm(sv[0].conjugate() * b0 + sv[1].conjugate() * b1)
    return total / len(PrepState)


def rates_a(table) -> dict:
    branches, reflected = table
    measured = sum(_sq_norm(_blocks(phi)[1 - x])
                   for (_, x), (_, phi) in branches.items()) / len(PrepState)
    return dict(zip(CHECKS_A, (measured, measured, measured, _prep_basis_error(reflected))))


def rates_b(table) -> dict:
    full, ret = table
    return dict(zip(CHECKS_B, (_prep_basis_error(full),
                               sum(_sq_norm(b) for b in _z_blocks(full)[1]) / 2.0,
                               sum(_sq_norm(b) for b in _z_blocks(ret)[1]) / 2.0)))


def ensembles_a(table) -> tuple:
    branches = table[0]
    weights, rhos = [], []
    for x in (0, 1):
        weights.append(sum(_sq_norm(branches[(s, x)][0]) / len(PrepState) for s in PrepState))
        rhos.append(sum(_probe_outer(branches[(s, x)][1]) / len(PrepState) for s in PrepState))
    if any(w < BRANCH_SKIP_PROB for w in weights):
        return ()
    return ((_density(rhos[0]), _density(rhos[1])),)


def ensembles_b(table) -> tuple:
    return tuple(tuple(_density(_probe_outer(states[s])) for s in (Z0, Z1)) for states in table)


def residuals_a(table) -> dict:
    branches, _ = table
    f, leakage = {}, 0.0
    for (s, x), (_, phi) in branches.items():
        b = _blocks(phi)
        f[(s, x)] = b[x]
        leakage = max(leakage, float(np.linalg.norm(b[1 - x])))
    nrm = np.linalg.norm
    return {
        "final_qubit_leakage": leakage,
        "cross_branch_initial": max(nrm(branches[(Z0, 1)][0]), nrm(branches[(Z1, 0)][0])),
        "cross_branch_final": max(nrm(f[(Z0, 1)]), nrm(f[(Z1, 0)])),
        "plus_branch_match": nrm(f[(P, 0)] - f[(P, 1)]),
        "minus_branch_antimatch": nrm(f[(M, 0)] + f[(M, 1)]),
        "plus_vs_zero_scaling": nrm(f[(P, 0)] - f[(Z0, 0)] * _INV_SQRT2),
        "plus_vs_one_scaling": nrm(f[(P, 1)] - f[(Z1, 1)] * _INV_SQRT2),
        "minus_vs_zero_scaling": nrm(f[(M, 0)] - f[(Z0, 0)] * _INV_SQRT2),
        "minus_vs_one_scaling": nrm(f[(M, 1)] + f[(Z1, 1)] * _INV_SQRT2),
    }


def residuals_b(table) -> dict:
    full, ret = table
    h, h_moved = _z_blocks(full)
    h_bar = (h[0] + h[1]) / 2.0
    ctrl_resid = max(float(np.linalg.norm(full[s] - np.outer(prepare(s), h_bar).ravel()))
                     for s in (P, M))
    g, g_moved = _z_blocks(ret)
    return {
        "sift_qubit_leakage": max(float(np.linalg.norm(b)) for b in h_moved),
        "probe_state_match": float(np.linalg.norm(h[0] - h[1])),
        "ctrl_factorization": ctrl_resid,
        "return_leg_leakage": max(float(np.linalg.norm(b)) for b in g_moved),
        "return_leg_probe_match": _phase_free_dist(g[0], g[1]),
    }


MODES = {"A": (measured_branches, rates_a, ensembles_a, residuals_a),
         "B": (chain_states_b, rates_b, ensembles_b, residuals_b)}


def evaluate(pair) -> tuple:
    """``(rates, info, zero_error, residuals, holds)`` of ``pair`` from the
    dict readers of its mode, with ``theorem_check``'s tolerances; the
    residuals and ``holds`` are None for a pair with an error."""
    table_of, rates_of, ensembles_of, residuals_of = MODES[pair.protocol]
    table = table_of(pair.first, pair.second)
    rates = rates_of(table)
    info = max((trace_distance(*rhos) for rhos in ensembles_of(table)), default=0.0)
    zero_error = max(rates.values()) <= ERR_TOL
    if not zero_error:
        return rates, info, False, None, None
    residuals = residuals_of(table)
    holds = info <= INFO_TOL and max(residuals.values()) <= RESIDUAL_TOL
    return rates, info, True, residuals, holds
