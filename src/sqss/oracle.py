"""Exact per-particle detection probabilities for catalog attacks.

Every value is computed by exhaustively enumerating the finite branch tree of
a single particle's journey (preparation x attacker measurement branches x
final measurement branches).  Every branch weight is a power of 1/2, so a
branch carries its number of halvings k, a check sums the integers
``2**(depth - k)`` over its mismatching leaves, and only the total becomes a
``Fraction``: figures like 1/4 come out exact rather than floating-point
approximate.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from types import MappingProxyType
from typing import Callable, Optional

from .adversary import resolve_attack
from .protocol_a import CHECKS_A
from .protocol_b import CHECKS_B
from .qstate import BASIS_OF_CODE, EXPECTED_OF_CODE

# ---------------------------------------------------------------------------
# Branch-tree enumeration machinery.
#
# A particle is its BB84 code (a qstate.PrepState's value; a basis is 0 for
# Z, 1 for X, and a Z-basis state's code is its bit).  A branch is
# (code, env, k): env carries recorded bits (the attacker's measurement
# records, fake-state bits, honest parties' results) so mismatch predicates
# can correlate them exactly, and the branch has weight 2**-k.  A step expands one (code, env) into
# successors (code, env, halvings added).

_BASIS = BASIS_OF_CODE.tolist()
_EXPECTED = EXPECTED_OF_CODE.tolist()

# Uniform preparation distributions as (codes, halvings of each code's
# weight): over the four states, or over the two Z states.
UNIFORM = ((0, 1, 2, 3), 2)
UNIFORM_Z = ((0, 1), 1)

Step = Callable[[int, dict], tuple]


def measure_z(key: str) -> Step:
    """Someone measures the particle in Z, recording the bit under key."""
    def step(code, env):
        if _BASIS[code] == 0:
            bit = _EXPECTED[code]
            return ((bit, {**env, key: bit}, 0),)
        return ((0, {**env, key: 0}, 1), (1, {**env, key: 1}, 1))
    return step


def substitute_fake(key: Optional[str] = None, source: Optional[str] = None) -> Step:
    """Replace the particle with a Z-basis fake: either a fresh uniform bit
    recorded under key, or the bit previously recorded under source."""
    if source is not None:
        return lambda code, env: ((env[source], env, 0),)
    return lambda code, env: ((0, {**env, key: 0}, 1), (1, {**env, key: 1}, 1))


def coin(key: str) -> Step:
    """A uniform bit recorded off to the side (does not touch the particle)."""
    return lambda code, env: ((code, {**env, key: 0}, 1), (code, {**env, key: 1}, 1))


# A check's final measurement basis and its mismatch predicate; prep is the
# prepared code and a the outcome of Alice's final measurement.

def z_basis(_prep):
    return 0


def prep_basis(prep):
    return _BASIS[prep]


def vs_prep(prep, _env, a):
    return a != _EXPECTED[prep]


def vs(key):
    return lambda _prep, env, a: a != env[key]


def triple(b_key, c_key):
    return lambda _prep, env, a: not (a == env[b_key] == env[c_key])


def _mismatch_counts(steps, final_basis, mismatch, preps) -> tuple[int, int]:
    """``(total, depth)`` in lowest terms: the exact probability that the
    final measurement, in ``final_basis(prep)``, gives an outcome
    ``mismatch(prep, env, outcome)`` flags, over ``preps`` x ``steps`` x that
    measurement, is ``total / 2**depth``."""
    codes, k0 = preps
    # At most one halving per step and one for the final measurement.
    depth = k0 + len(steps) + 1
    total = 0
    for prep in codes:
        branches = [(prep, {}, k0)]
        for step in steps:
            branches = [(c, e, k + dk) for code, env, k in branches for c, e, dk in step(code, env)]
        basis = final_basis(prep)
        for code, env, k in branches:
            if _BASIS[code] == basis:
                if mismatch(prep, env, _EXPECTED[code]):
                    total += 1 << (depth - k)
            else:  # the other basis: each outcome takes one more halving
                total += (mismatch(prep, env, 0) + mismatch(prep, env, 1)) << (depth - k - 1)
    shift = (total & -total).bit_length() - 1 if total else depth   # to lowest terms
    return total >> shift, depth - shift


def mismatch_probability(steps, final_basis, mismatch, preps) -> Fraction:
    """``_mismatch_counts``' probability as a ``Fraction``."""
    total, depth = _mismatch_counts(steps, final_basis, mismatch, preps)
    return Fraction(total, 1 << depth)


# ---------------------------------------------------------------------------
# Per-check programs (steps, final_basis, mismatch, preps) of every catalog
# attack, built once and keyed by attack id.  The steps describe the journey
# through the three legs, attacker interference included, of the particles a
# check inspects.  Written by hand, not read from ``adversary.CATALOG``, so
# the Monte Carlo acceptance tests compare two independent engines.

_MB, _MC, _ME = measure_z("b"), measure_z("c"), measure_z("e")
_FAKE_X = substitute_fake(key="x")


def _a(case1, case2, case3, case4, bob="b", charlie="c"):
    """First protocol: Alice checks cases 1-3 in Z against the bits Bob and
    Charlie announce (recorded under ``bob`` and ``charlie``), and case 4 in
    her preparation basis against her preparation."""
    return dict(zip(CHECKS_A, ((case1, z_basis, triple(bob, charlie), UNIFORM),
                               (case2, z_basis, vs(bob), UNIFORM),
                               (case3, z_basis, vs(charlie), UNIFORM),
                               (case4, prep_basis, vs_prep, UNIFORM))))


def _a_eve(tap, leg):
    """An outsider's tap on leg 1, 2 or 3: before Bob's measurement at the end
    of leg 1, before Charlie's at the end of leg 2, or after both."""
    def journey(bob, charlie):
        steps = [bob, charlie]
        steps.insert(leg - 1, tap)
        return [s for s in steps if s is not None]
    return _a(journey(_MB, _MC), journey(_MB, None), journey(None, _MC), journey(None, None))


def _b(ctrl, test_b=((), vs_prep), test_c=((), vs_prep)):
    """Second protocol: Alice checks her CTRL particles in their preparation
    basis; test_b/test_c are (steps, mismatch) of the Z key carriers from Bob
    and Charlie, compared with the bit their originator reveals."""
    return dict(zip(CHECKS_B, ((ctrl, prep_basis, vs_prep, UNIFORM),
                               (test_b[0], z_basis, test_b[1], UNIFORM_Z),
                               (test_c[0], z_basis, test_c[1], UNIFORM_Z))))


PROGRAMS = {
    # Bob measures everything on arrival and fabricates his announcement.
    "a.mr.bob.1": _a([_MB, _MC], [_MB], [_MB, _MC], [_MB]),
    # Honest choices, plus a Z measurement of the whole return leg.
    "a.mr.bob.2": _a([_MB, _MC, _ME], [_MB, _ME], [_MC, _ME], [_ME]),
    # Charlie Z-measures the first leg, reflects everything later, and
    # reports her first-leg records where asked.
    "a.mr.charlie.1": _a([_ME, _MB], [_ME, _MB], [_ME], [_ME], charlie="e"),
    # Charlie measures everything she relays and fabricates her announcement.
    "a.mr.charlie.2": _a([_MB, _MC], [_MB, _MC], [_MC], [_MC]),
    # Bob swaps the return leg for fakes; at his MEASURE positions the fake
    # carries his result, elsewhere a fresh uniform Z state.
    "a.ir.bob": _a([_MB, _MC, substitute_fake(source="b")],
                   [_MB, substitute_fake(source="b")], [_MC, _FAKE_X], [_FAKE_X]),
    # Charlie feeds Bob fakes and then behaves honestly toward them.
    "a.ir.charlie.1": _a([_FAKE_X, _MB, _MC], [_FAKE_X, _MB], [_FAKE_X, _MC], [_FAKE_X]),
    # Charlie swaps the genuine particles back in for her own step, so the
    # particle reaching Alice never saw Bob; Bob's reports came from fakes.
    "a.ir.charlie.2": _a([coin("x"), _MC], [coin("x")], [_MC], [], bob="x"),
    **{f"a.{kind}.eve.{leg}": _a_eve(tap, leg)
       for kind, tap in (("mr", _ME), ("ir", substitute_fake(key="e"))) for leg in (1, 2, 3)},
    # A measure-resend insider measures the CTRL particles; Charlie also
    # measures Bob's key carriers, which pass through her.
    "b.mr.bob": _b([_ME]),
    "b.mr.charlie": _b([_ME], test_b=([_ME], vs_prep)),
    # Return leg swapped for fakes; the attacker reveals the fake's bit, so
    # only checks against other parties' true preparations can fire.
    "b.ir.bob": _b([_FAKE_X], test_b=([_FAKE_X], vs("x")), test_c=([_FAKE_X], vs_prep)),
    "b.ir.charlie": _b([_FAKE_X], test_b=([_FAKE_X], vs_prep), test_c=([_FAKE_X], vs("x"))),
    # Leg 1 carries only CTRL particles; Bob's key carriers join on leg 2 and
    # Charlie's on leg 3, so a tap there touches those too.
    **{f"b.{kind}.eve.{leg}": _b([tap], *[([tap], vs_prep)] * (leg - 1))
       for kind, tap in (("mr", _ME), ("ir", _FAKE_X)) for leg in (1, 2, 3)},
}


def detection_oracle(protocol: str, attack_id: Optional[str]) -> Mapping[str, Fraction]:
    """Exact per-check mismatch probabilities for a catalog attack, or zeros
    for no attack (see ``resolve_attack``).  Every call enumerates, and equal
    results are one shared read-only mapping (``_result``).

    Entangle-measure attacks are continuous-parameter and handled by the
    numeric analysis module instead.
    """
    spec = resolve_attack(protocol, attack_id)
    if spec is None:
        checks = CHECKS_A if protocol == "A" else CHECKS_B
        return _result(checks, ((0, 0),) * len(checks))
    program = PROGRAMS[spec.attack_id]
    return _result(tuple(program), tuple(_mismatch_counts(*p) for p in program.values()))


@cache
def _result(checks: tuple, counts: tuple) -> Mapping[str, Fraction]:
    """The read-only mapping of each check onto ``total / 2**depth`` for its
    ``(total, depth)`` in ``counts``.  The catalog gives few distinct
    results, so callers that keep results by the thousand keep each once."""
    return MappingProxyType({check: Fraction(total, 1 << depth)
                             for check, (total, depth) in zip(checks, counts)})
