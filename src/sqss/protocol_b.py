"""End-to-end execution of the second circular protocol (no classical measurement).

Alice's N CTRL particles circulate; Bob and Charlie each insert N fresh Z-basis
particles and reorder, publishing the orders only after Alice confirms receipt.
Alice measures CTRL particles in their preparation basis and SIFT particles in
Z; the CTRL check plus two TEST checks gate key derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional, Union

import numpy as np

from .adversary import AttackSpec, build_attack_plan
from .qstate import (
    Basis,
    CompositeState,
    PrepState,
    PureState,
    basis_of,
    expected_outcome,
    measure,
    measure_qubit,
    prepare,
)
from .runtime import (
    CheckVerdict,
    KeyMaterial,
    Leg,
    RunReport,
    abort_reason,
    check_int,
    check_real,
    check_thresholds,
    derive_keys,
    evaluate_check,
    score_payoff,
    transcript_digest,
    transmit,
)

CHECKS_B = ("ctrl", "test_b", "test_c")

DEFAULT_THRESHOLD = 0.05


def default_thresholds(value: float = DEFAULT_THRESHOLD) -> dict[str, float]:
    return {check: value for check in CHECKS_B}


@dataclass
class TaggedParticle:
    """A particle in flight: its quantum state plus originator bookkeeping.

    The tag/origin fields are ground truth for tests and adversaries that
    physically hold the particle; Alice only learns positions from the
    published order announcements.
    """

    state: Union[PureState, CompositeState]
    tag: str                        # "CTRL" | "SIFT_B" | "SIFT_C" | "FAKE"
    origin: Optional[int]


@dataclass(frozen=True)
class ProtocolBConfig:
    n: int
    test_fraction: float = 0.5
    thresholds: dict[str, float] = field(default_factory=default_thresholds)

    def __post_init__(self):
        check_int("n", self.n)
        check_real("test_fraction", self.test_fraction)
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        check_thresholds(self.thresholds, CHECKS_B)


def resolve_orders(bob_pub, charlie_pub, n: int) -> Optional[dict[int, tuple[str, int]]]:
    """Compose the two published orders into final position -> (tag, origin).

    Returns None when either announcement is malformed (wrong size or not a
    bijection over the expected tags).
    """
    if len(bob_pub) != 2 * n or len(charlie_pub) != 3 * n:
        return None
    if not _is_valid_order(bob_pub, n_incoming=n, n_sift=n):
        return None
    if not _is_valid_order(charlie_pub, n_incoming=2 * n, n_sift=n):
        return None
    resolved = {}
    for pos, (what, j) in enumerate(charlie_pub):
        if what == "sift":
            resolved[pos] = ("SIFT_C", j)
        else:
            inner_what, inner_j = bob_pub[j]
            resolved[pos] = (("SIFT_B", inner_j) if inner_what == "sift"
                            else ("CTRL", inner_j))
    return resolved


def _is_valid_order(pub, n_incoming: int, n_sift: int) -> bool:
    incoming = set()
    sift = set()
    for entry in pub:
        if len(entry) != 2:
            return False
        what, j = entry
        if what == "incoming":
            incoming.add(j)
        elif what == "sift":
            sift.add(j)
        else:
            return False
    return incoming == set(range(n_incoming)) and sift == set(range(n_sift))


def _measure_particle(p: TaggedParticle, basis: Basis, rng) -> int:
    if isinstance(p.state, CompositeState):
        bit, collapsed = measure_qubit(p.state, basis, rng)
    else:
        bit, collapsed = measure(p.state, basis, rng)
    p.state = collapsed
    return bit


def _abort_report(config, plan, seed, reason, checks=()) -> RunReport:
    digest = transcript_digest({"protocol": "B", "seed": seed,
                                "attack": plan.spec.attack_id, "abort": reason})
    return RunReport(protocol="B", seed=seed, checks=tuple(checks), aborted=True,
                     abort_reason=reason, keys=None, payoff=None,
                     transcript_digest=digest)


def run_protocol_b(config: ProtocolBConfig, attack: Optional[AttackSpec],
                   seed: int) -> RunReport:
    """Execute one full run and return its report (pure in (config, attack, seed))."""
    plan = build_attack_plan(attack, "B")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = config.n

    preps = [list(PrepState)[int(i)] for i in rng.integers(4, size=n)]
    batch = [TaggedParticle(state=prepare(s), tag="CTRL", origin=i)
             for i, s in enumerate(preps)]

    bob = plan.party("bob", n)
    charlie = plan.party("charlie", n)

    batch = transmit(batch, Leg.ALICE_TO_BOB, plan.interceptor(Leg.ALICE_TO_BOB), rng)
    batch = bob.process(batch, rng)
    batch = transmit(batch, Leg.BOB_TO_CHARLIE, plan.interceptor(Leg.BOB_TO_CHARLIE), rng)
    batch = charlie.process(batch, rng)
    batch = transmit(batch, Leg.CHARLIE_TO_ALICE, plan.interceptor(Leg.CHARLIE_TO_ALICE), rng)

    bob_pub = bob.published_order()
    charlie_pub = charlie.published_order()

    resolved = resolve_orders(bob_pub, charlie_pub, n)
    if resolved is None or len(batch) != 3 * n:
        return _abort_report(config, plan, seed, "malformed announcement")

    # Alice measures: CTRL in its preparation basis, SIFT particles in Z.
    outcomes: dict[int, int] = {}
    for pos in range(3 * n):
        tag, origin = resolved[pos]
        basis = basis_of(preps[origin]) if tag == "CTRL" else Basis.Z
        outcomes[pos] = _measure_particle(batch[pos], basis, rng)

    positions = {"CTRL": [], "SIFT_B": [], "SIFT_C": []}
    for pos in range(3 * n):
        tag, origin = resolved[pos]
        positions[tag].append((pos, origin))

    checks: list[CheckVerdict] = []
    mism_ctrl = sum(1 for pos, origin in positions["CTRL"]
                    if outcomes[pos] != expected_outcome(preps[origin]))
    checks.append(evaluate_check("ctrl", n, mism_ctrl, config.thresholds["ctrl"]))

    test_counts = math.ceil(config.test_fraction * n)

    def run_test(tag: str, party, check_id: str):
        members = positions[tag]
        chosen = set(int(i) for i in rng.choice(len(members), size=test_counts,
                                                replace=False))
        tested = [members[i] for i in sorted(chosen)]
        untested = [members[i] for i in range(len(members)) if i not in chosen]
        mism = sum(1 for pos, origin in tested
                   if outcomes[pos] != party.reveal_prepared(pos, origin))
        checks.append(evaluate_check(check_id, len(tested), mism,
                                     config.thresholds[check_id]))
        return untested

    untested_b = run_test("SIFT_B", bob, "test_b")
    untested_c = run_test("SIFT_C", charlie, "test_c")

    reason = abort_reason(checks)
    aborted = reason is not None

    keys: Optional[KeyMaterial] = None
    if not aborted:
        if not untested_b or not untested_c:
            aborted = True
            reason = "no untested key particles remain"
        else:
            bits_b = [outcomes[pos] for pos, _ in sorted(untested_b, key=lambda t: t[1])]
            bits_c = [outcomes[pos] for pos, _ in sorted(untested_c, key=lambda t: t[1])]
            keys = derive_keys(bits_b, bits_c)

    context = SimpleNamespace(bob_pub=bob_pub, charlie_pub=charlie_pub,
                              resolved=resolved,
                              untested_b=[origin for _, origin in untested_b],
                              untested_c=[origin for _, origin in untested_c])
    payoff = _score_payoff(plan, context, bob, charlie, rng)

    digest = transcript_digest({
        "protocol": "B",
        "seed": seed,
        "attack": plan.spec.attack_id,
        "prepared": [s.value for s in preps],
        "bob_pub": bob_pub,
        "charlie_pub": charlie_pub,
        "outcomes": [outcomes[pos] for pos in range(3 * n)],
        "checks": [[c.check_id, c.compared, c.mismatches] for c in checks],
        "aborted": aborted,
    })

    return RunReport(protocol="B", seed=seed, checks=tuple(checks), aborted=aborted,
                     abort_reason=reason, keys=keys, payoff=payoff,
                     transcript_digest=digest)


def _score_payoff(plan, context, bob, charlie, rng) -> Optional[dict]:
    """Score the adversary's guesses against the honest parties' prepared bits."""
    if plan.target is None:
        return None
    guesses = plan.guess_b(context, rng)
    return score_payoff(plan.target, [
        (guesses[key][origin], party.prepared_bits[origin])
        for key, party, untested in (("k_b", bob, context.untested_b),
                                     ("k_c", charlie, context.untested_c))
        for origin in untested if origin in guesses[key]])
