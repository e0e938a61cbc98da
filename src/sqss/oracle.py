"""Exact per-particle detection probabilities for catalog attacks.

Every value is computed by exhaustively enumerating the finite branch tree of
a single particle's journey (uniform preparation x attacker measurement
branches x final measurement branches) in exact rational arithmetic, so
figures like 1/4 come out exact rather than floating-point approximate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .adversary import AttackSpec, UnsupportedAttackError, resolve_attack
from .protocol_a import CHECKS_A
from .protocol_b import CHECKS_B
from .qstate import Basis, PrepState, basis_of, expected_outcome

PREPS = (PrepState.ZERO, PrepState.ONE, PrepState.PLUS, PrepState.MINUS)

HALF = Fraction(1, 2)

_Z_STATE = {0: PrepState.ZERO, 1: PrepState.ONE}
_X_STATE = {0: PrepState.PLUS, 1: PrepState.MINUS}


def measurement_distribution(state: PrepState, basis: Basis) -> dict[int, Fraction]:
    """Exact outcome distribution for measuring one of the four states."""
    if basis_of(state) is basis:
        return {expected_outcome(state): Fraction(1)}
    return {0: HALF, 1: HALF}


def collapsed_state(basis: Basis, outcome: int) -> PrepState:
    return (_Z_STATE if basis is Basis.Z else _X_STATE)[outcome]


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


# ---------------------------------------------------------------------------
# Branch-tree enumeration machinery.
#
# A particle's journey is a list of steps, each expanding one (state, env)
# branch into weighted successors.  env carries recorded bits (the attacker's
# measurement records, fake-state bits, honest parties' results) so mismatch
# predicates can correlate them exactly.

Step = Callable[[PrepState, dict], list]


def measure_z(key: str) -> Step:
    """Someone measures the particle in Z, recording the bit under key."""
    def step(state, env):
        return [(collapsed_state(Basis.Z, b), {**env, key: b}, p)
                for b, p in measurement_distribution(state, Basis.Z).items()]
    return step


def substitute_fake(key: Optional[str] = None, source: Optional[str] = None) -> Step:
    """Replace the particle with a Z-basis fake: either a fresh uniform bit
    recorded under key, or the bit previously recorded under source."""
    def step(state, env):
        if source is not None:
            return [(collapsed_state(Basis.Z, env[source]), env, Fraction(1))]
        return [(collapsed_state(Basis.Z, b), {**env, key: b}, HALF)
                for b in (0, 1)]
    return step


def coin(key: str) -> Step:
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


def _mismatch_probability(steps, final_basis_fn, mismatch, initial_dist=None) -> Fraction:
    """Expected mismatch over preparation (uniform over PREPS unless
    ``initial_dist`` says otherwise) x steps x final measurement."""
    total = Fraction(0)
    for prep, w in initial_dist or _uniform_preps():
        for state, env, p in _enumerate(prep, steps):
            basis = final_basis_fn(prep)
            for a, q in measurement_distribution(state, basis).items():
                if mismatch(prep, env, a):
                    total += w * p * q
    return total


def _uniform_preps():
    return [(s, Fraction(1, 4)) for s in PREPS]


def _uniform_z():
    return [(PrepState.ZERO, HALF), (PrepState.ONE, HALF)]


def _z_basis(_prep):
    return Basis.Z


def _prep_basis(prep):
    return basis_of(prep)


def _vs_prep(prep, _env, a):
    return a != expected_outcome(prep)


def _vs(key):
    return lambda _prep, env, a: a != env[key]


def _triple(b_key, c_key):
    return lambda _prep, env, a: not (a == env[b_key] == env[c_key])


# ---------------------------------------------------------------------------
# First protocol: per-case step programs for each catalog attack.
#
# Each case entry is (steps, final_basis_fn, mismatch_fn).  The steps describe
# the particle's journey through the three legs for particles that end up in
# that announced-choice case, including any attacker interference.

def _a_cases(attack: AttackSpec) -> dict:
    m, f, c = measure_z, substitute_fake, coin
    kind, actor, var = attack.kind, attack.actor, attack.variant
    if kind == "mr" and actor == "bob" and var == 1:
        # Bob measures everything on arrival and fabricates his announcement.
        return {
            "case1": ([m("b"), m("c")], _z_basis, _triple("b", "c")),
            "case2": ([m("b")], _z_basis, _vs("b")),
            "case3": ([m("b"), m("c")], _z_basis, _vs("c")),
            "case4": ([m("b")], _prep_basis, _vs_prep),
        }
    if kind == "mr" and actor == "bob" and var == 2:
        # Honest choices, plus a Z measurement of the whole return leg.
        return {
            "case1": ([m("b"), m("c"), m("e")], _z_basis, _triple("b", "c")),
            "case2": ([m("b"), m("e")], _z_basis, _vs("b")),
            "case3": ([m("c"), m("e")], _z_basis, _vs("c")),
            "case4": ([m("e")], _prep_basis, _vs_prep),
        }
    if kind == "mr" and actor == "charlie" and var == 1:
        # Charlie Z-measures the first leg, reflects everything later, and
        # reports her first-leg records where asked.
        return {
            "case1": ([m("e"), m("b")], _z_basis, _triple("b", "e")),
            "case2": ([m("e"), m("b")], _z_basis, _vs("b")),
            "case3": ([m("e")], _z_basis, _vs("e")),
            "case4": ([m("e")], _prep_basis, _vs_prep),
        }
    if kind == "mr" and actor == "charlie" and var == 2:
        # Charlie measures everything she relays and fabricates her announcement.
        return {
            "case1": ([m("b"), m("c")], _z_basis, _triple("b", "c")),
            "case2": ([m("b"), m("c")], _z_basis, _vs("b")),
            "case3": ([m("c")], _z_basis, _vs("c")),
            "case4": ([m("c")], _prep_basis, _vs_prep),
        }
    if kind == "ir" and actor == "bob":
        # Bob swaps the return leg for fakes; at his MEASURE positions the
        # fake carries his result, elsewhere a fresh uniform Z state.
        return {
            "case1": ([m("b"), m("c"), f(source="b")], _z_basis, _triple("b", "c")),
            "case2": ([m("b"), f(source="b")], _z_basis, _vs("b")),
            "case3": ([m("c"), f(key="x")], _z_basis, _vs("c")),
            "case4": ([f(key="x")], _prep_basis, _vs_prep),
        }
    if kind == "ir" and actor == "charlie" and var == 1:
        # Charlie feeds Bob fakes and then behaves honestly toward them.
        return {
            "case1": ([f(key="x"), m("b"), m("c")], _z_basis, _triple("b", "c")),
            "case2": ([f(key="x"), m("b")], _z_basis, _vs("b")),
            "case3": ([f(key="x"), m("c")], _z_basis, _vs("c")),
            "case4": ([f(key="x")], _prep_basis, _vs_prep),
        }
    if kind == "ir" and actor == "charlie" and var == 2:
        # Charlie swaps the genuine particles back in for her own step, so the
        # particle reaching Alice never saw Bob; Bob's reports came from fakes.
        return {
            "case1": ([c("x"), m("c")], _z_basis, _triple("x", "c")),
            "case2": ([c("x")], _z_basis, _vs("x")),
            "case3": ([m("c")], _z_basis, _vs("c")),
            "case4": ([], _prep_basis, _vs_prep),
        }
    if actor == "eve":
        where = var - 1  # leg index the outsider taps
        def journey(parties):
            # parties: which honest measurements happen, as (slot, step) with
            # slot 0 = Bob at the end of leg 1 and slot 1 = Charlie at the end
            # of leg 2; the outsider's tap on leg k precedes slot k's party.
            tap = m("e") if kind == "mr" else f(key="e")
            steps = []
            for leg in range(3):
                if leg == where:
                    steps.append(tap)
                steps.extend(s for slot, s in parties if slot == leg)
            return steps
        bob_m, charlie_m = (0, m("b")), (1, m("c"))
        return {
            "case1": (journey([bob_m, charlie_m]), _z_basis, _triple("b", "c")),
            "case2": (journey([bob_m]), _z_basis, _vs("b")),
            "case3": (journey([charlie_m]), _z_basis, _vs("c")),
            "case4": (journey([]), _prep_basis, _vs_prep),
        }
    raise UnsupportedAttackError(f"no oracle program for {attack.attack_id}")


# ---------------------------------------------------------------------------
# Second protocol: per-check programs keyed by the particle class the check
# inspects (CTRL from Alice, Z key carriers from each classical party).

def _b_checks(attack: AttackSpec) -> dict:
    m, f = measure_z, substitute_fake
    kind, actor, var = attack.kind, attack.actor, attack.variant
    honest = ([], _vs("r"))

    def programs(ctrl_steps, test_b=honest, test_c=honest):
        return {
            "ctrl": (ctrl_steps, _prep_basis, _vs_prep),
            "test_b": (test_b[0], _z_basis, _wrap_reveal(test_b[1]), _uniform_z()),
            "test_c": (test_c[0], _z_basis, _wrap_reveal(test_c[1]), _uniform_z()),
        }

    if kind == "mr" and actor == "bob":
        return programs([m("e")], test_b=honest, test_c=honest)
    if kind == "mr" and actor == "charlie":
        return programs([m("e")], test_b=([m("e")], _vs("r")), test_c=honest)
    if kind == "ir" and actor == "bob":
        # Return leg swapped for fakes; Bob reveals his fake's bit, so only
        # checks against other parties' true preparations can fire.
        return programs([f(key="x")],
                        test_b=([f(key="x")], _vs("x")),
                        test_c=([f(key="x")], _vs("r")))
    if kind == "ir" and actor == "charlie":
        return programs([f(key="x")],
                        test_b=([f(key="x")], _vs("r")),
                        test_c=([f(key="x")], _vs("x")))
    if actor == "eve":
        tap = m("e") if kind == "mr" else f(key="x")
        touched = ([tap], _vs("r"))
        # Leg 1 carries only CTRL particles; key carriers join on legs 2 and 3.
        if var == 1:
            return programs([tap])
        if var == 2:
            return programs([tap], test_b=touched)
        return programs([tap], test_b=touched, test_c=touched)
    raise UnsupportedAttackError(f"no oracle program for {attack.attack_id}")


def _wrap_reveal(base_mismatch):
    # Z key carriers compare Alice's outcome to the revealed bit; "r" is the
    # originator's true preparation, recorded before any steps run.
    def mismatch(prep, env, a):
        env = {**env, "r": expected_outcome(prep)}
        return base_mismatch(prep, env, a)
    return mismatch


# Each protocol's checks and the per-check programs of a catalog attack.
_PROGRAMS = {"A": (CHECKS_A, _a_cases), "B": (CHECKS_B, _b_checks)}


def detection_oracle(protocol: str, attack_id: Optional[str]) -> dict[str, Fraction]:
    """Exact per-check mismatch probabilities for a catalog attack, or zeros
    for no attack (see ``resolve_attack``).

    Entangle-measure attacks are continuous-parameter and handled by the
    numeric analysis module instead.
    """
    spec = resolve_attack(protocol, attack_id)
    checks, programs = _PROGRAMS[protocol]
    if spec is None:
        return {check: Fraction(0) for check in checks}
    return {check: _mismatch_probability(*program)
            for check, program in programs(spec).items()}
