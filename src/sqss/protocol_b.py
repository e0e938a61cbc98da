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
from typing import Optional

import numpy as np

from .adversary import AttackSpec, build_attack_plan
from .qstate import (
    BASIS_OF_CODE,
    BB84_VALUE,
    EXPECTED_OF_CODE,
    measure_qubit,  # noqa: F401 -- a module binding for call-site tracing (perfbench)
)
from .runtime import (
    CTRL,
    TAGS,
    CheckVerdict,
    KeyMaterial,
    Leg,
    ParticleBatch,
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


def _by_origin(outcomes: np.ndarray, positions: np.ndarray, origins: np.ndarray,
               n: int) -> list[int]:
    """The outcomes at ``positions`` in the order of their particles' origins."""
    by_origin = np.full(n, -1, dtype=np.int8)
    by_origin[origins[positions]] = outcomes[positions]
    return by_origin[by_origin >= 0].tolist()


def _abort_report(config, plan, seed, reason, checks=()) -> RunReport:
    digest = transcript_digest({"protocol": "B", "seed": seed,
                                "attack": plan.spec.attack_id, "abort": reason})
    return RunReport(protocol="B", seed=seed, checks=checks, aborted=True,
                     abort_reason=reason, keys=None, payoff=None,
                     digest=digest)


def run_protocol_b(config: ProtocolBConfig, attack: Optional[AttackSpec],
                   seed: int) -> RunReport:
    """Execute one full run and return its report (pure in (config, attack, seed))."""
    plan = build_attack_plan(attack, "B")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = config.n

    preps = rng.integers(4, size=n)
    batch = ParticleBatch(preps, tag=np.full(n, CTRL, dtype=np.int8), origin=np.arange(n))

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
    tags = np.fromiter((TAGS.index(tag) for tag, _ in resolved.values()),
                       dtype=np.int8, count=3 * n)
    origins = np.fromiter((origin for _, origin in resolved.values()),
                          dtype=np.intp, count=3 * n)

    # Alice measures: CTRL in its preparation basis, SIFT particles in Z.
    ctrl = np.flatnonzero(tags == CTRL)
    bases = np.zeros(3 * n, dtype=np.int8)
    bases[ctrl] = BASIS_OF_CODE[preps[origins[ctrl]]]
    outcomes = batch.measure(np.arange(3 * n), bases, rng)

    mism_ctrl = np.count_nonzero(outcomes[ctrl] != EXPECTED_OF_CODE[preps[origins[ctrl]]])
    checks: list[CheckVerdict] = [
        evaluate_check("ctrl", n, int(mism_ctrl), config.thresholds["ctrl"])]

    test_counts = math.ceil(config.test_fraction * n)

    def run_test(tag: str, party, check_id: str) -> np.ndarray:
        members = np.flatnonzero(tags == TAGS.index(tag))
        chosen = np.zeros(len(members), dtype=bool)
        chosen[rng.choice(len(members), size=test_counts, replace=False)] = True
        tested = members[chosen]
        mism = np.count_nonzero(outcomes[tested]
                                != party.reveal_prepared(tested, origins[tested]))
        checks.append(evaluate_check(check_id, len(tested), int(mism),
                                     config.thresholds[check_id]))
        return members[~chosen]

    untested_b = run_test("SIFT_B", bob, "test_b")
    untested_c = run_test("SIFT_C", charlie, "test_c")

    reason = abort_reason(checks)
    aborted = reason is not None

    keys: Optional[KeyMaterial] = None
    if not aborted:
        if not len(untested_b) or not len(untested_c):
            aborted = True
            reason = "no untested key particles remain"
        else:
            keys = derive_keys(_by_origin(outcomes, untested_b, origins, n),
                               _by_origin(outcomes, untested_c, origins, n))

    payoff = None
    if not aborted and plan.target is not None:
        # The attacker guesses the untested SIFT bits each party prepared.
        origins_b, origins_c = origins[untested_b], origins[untested_c]
        context = SimpleNamespace(bob_pub=bob_pub, tags=tags, origins=origins, n=n)
        guesses = plan.guess_b(context, rng)
        payoff = score_payoff(
            plan.target,
            np.concatenate([guesses["k_b"][origins_b], guesses["k_c"][origins_c]]),
            np.concatenate([bob.prepared_bits[origins_b], charlie.prepared_bits[origins_c]]))

    digest = transcript_digest({
        "protocol": "B",
        "seed": seed,
        "attack": plan.spec.attack_id,
        "prepared": BB84_VALUE[preps].tolist(),
        "bob_pub": bob_pub,
        "charlie_pub": charlie_pub,
        "outcomes": outcomes.tolist(),
        "checks": [[c.check_id, c.compared, c.mismatches] for c in checks],
        "aborted": aborted,
    })

    return RunReport(protocol="B", seed=seed, checks=checks, aborted=aborted,
                     abort_reason=reason, keys=keys, payoff=payoff,
                     digest=digest)
