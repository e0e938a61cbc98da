"""A reference enumerator for the oracle: ``Fraction`` weights on ``PrepState`` particles.

This is the oracle's branch enumeration as it was before it moved to integer
dyadic weights: every branch carries its probability as a ``Fraction`` and
every particle is a ``PrepState``.  It offers the names the oracle's engine
does (steps, final bases, mismatch predicates, preparation distributions and
``mismatch_probability``), so a test can build one step program on each
module and compare the two results exactly.  It also holds the exact
single-particle measurement distributions the enumeration is built from.
"""

from fractions import Fraction
from typing import Optional

from sqss.qstate import Basis, PrepState

HALF = Fraction(1, 2)

# The state each (basis, outcome) collapses onto; X outcomes are 0 = plus,
# 1 = minus.
_Z_STATE = {0: PrepState.ZERO, 1: PrepState.ONE}
_X_STATE = {0: PrepState.PLUS, 1: PrepState.MINUS}


def basis_of(s: PrepState) -> Basis:
    """Preparation basis of one of the four protocol states."""
    return Basis.Z if s in _Z_STATE.values() else Basis.X


def expected_outcome(s: PrepState) -> int:
    """Outcome an undisturbed state yields in its own basis."""
    return 0 if s in (PrepState.ZERO, PrepState.PLUS) else 1


def measurement_distribution(state: PrepState, basis: Basis) -> dict[int, Fraction]:
    """Exact outcome distribution for measuring one of the four states."""
    if basis_of(state) == basis:
        return {expected_outcome(state): Fraction(1)}
    return {0: HALF, 1: HALF}


def collapsed_state(basis: Basis, outcome: int) -> PrepState:
    return (_Z_STATE if basis == Basis.Z else _X_STATE)[outcome]


def chained_measurement_distribution(prep: PrepState, bases) -> dict[int, Fraction]:
    """Distribution of the final outcome after measuring in each basis in turn
    (each measurement collapses the state)."""
    dist = {prep: Fraction(1)}
    final: dict[int, Fraction] = {}
    for i, basis in enumerate(bases):
        nxt: dict[PrepState, Fraction] = {}
        for state, p in dist.items():
            for outcome, q in measurement_distribution(state, basis).items():
                if i == len(bases) - 1:
                    final[outcome] = final.get(outcome, Fraction(0)) + p * q
                else:
                    c = collapsed_state(basis, outcome)
                    nxt[c] = nxt.get(c, Fraction(0)) + p * q
        dist = nxt
    return final

UNIFORM = [(s, Fraction(1, 4)) for s in PrepState]
UNIFORM_Z = [(PrepState.ZERO, HALF), (PrepState.ONE, HALF)]


def measure_z(key: str):
    """Someone measures the particle in Z, recording the bit under key."""
    def step(state, env):
        return [(collapsed_state(Basis.Z, b), {**env, key: b}, p)
                for b, p in measurement_distribution(state, Basis.Z).items()]
    return step


def substitute_fake(key: Optional[str] = None, source: Optional[str] = None):
    """Replace the particle with a Z-basis fake: either a fresh uniform bit
    recorded under key, or the bit previously recorded under source."""
    def step(state, env):
        if source is not None:
            return [(collapsed_state(Basis.Z, env[source]), env, Fraction(1))]
        return [(collapsed_state(Basis.Z, b), {**env, key: b}, HALF)
                for b in (0, 1)]
    return step


def coin(key: str):
    """A uniform bit recorded off to the side (does not touch the particle)."""
    def step(state, env):
        return [(state, {**env, key: b}, HALF) for b in (0, 1)]
    return step


def _enumerate(initial: PrepState, steps) -> list:
    branches = [(initial, {}, Fraction(1))]
    for step in steps:
        branches = [(s2, e2, p * q)
                    for s, e, p in branches
                    for s2, e2, q in step(s, e)]
    return branches


def mismatch_probability(steps, final_basis, mismatch, preps) -> Fraction:
    """Expected mismatch over ``preps`` (a list of (state, weight)) x steps x
    final measurement."""
    total = Fraction(0)
    for prep, w in preps:
        for state, env, p in _enumerate(prep, steps):
            basis = final_basis(prep)
            for a, q in measurement_distribution(state, basis).items():
                if mismatch(prep, env, a):
                    total += w * p * q
    return total


def z_basis(_prep):
    return Basis.Z


def prep_basis(prep):
    return basis_of(prep)


def vs_prep(prep, _env, a):
    return a != expected_outcome(prep)


def vs(key):
    return lambda _prep, env, a: a != env[key]


def triple(b_key, c_key):
    return lambda _prep, env, a: not (a == env[b_key] == env[c_key])
