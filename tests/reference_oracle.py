"""A reference enumerator for the oracle: ``Fraction`` weights on ``PrepState`` particles.

This is the oracle's branch enumeration as it was before it moved to integer
dyadic weights: every branch carries its probability as a ``Fraction`` and
every particle is a ``PrepState``.  It offers the names the oracle's engine
does (steps, final bases, mismatch predicates, preparation distributions and
``mismatch_probability``), so a test can build one step program on each
module and compare the two results exactly.
"""

from fractions import Fraction
from typing import Optional

from sqss.oracle import collapsed_state, measurement_distribution
from sqss.qstate import Basis, PrepState, basis_of, expected_outcome

HALF = Fraction(1, 2)

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
