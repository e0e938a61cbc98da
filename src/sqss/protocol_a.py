"""End-to-end execution of the first circular protocol (classical parties measure).

Alice prepares N+M particles; Bob and Charlie each MEASURE a random N-subset
and REFLECT the rest; the four announced-choice cases determine Alice's final
measurement basis; four security checks gate key derivation K_A = K_B XOR K_C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .adversary import AttackSpec, build_attack_plan
from .qstate import (
    BASES,
    BB84,
    BB84_VALUE,
    EXPECTED_OF_CODE,
    Basis,
    PrepState,
    basis_of,
    measure_qubit,  # noqa: F401 -- a module binding for call-site tracing (perfbench)
)
from .runtime import (
    CheckVerdict,
    Choice,
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

CHECKS_A = ("case1", "case2", "case3", "case4")

DEFAULT_THRESHOLD = 0.05


def default_thresholds(value: float = DEFAULT_THRESHOLD) -> dict[str, float]:
    return {check: value for check in CHECKS_A}


class CaseLabel(Enum):
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3
    CASE4 = 4


_CASES = {
    (Choice.MEASURE, Choice.MEASURE): CaseLabel.CASE1,
    (Choice.MEASURE, Choice.REFLECT): CaseLabel.CASE2,
    (Choice.REFLECT, Choice.MEASURE): CaseLabel.CASE3,
    (Choice.REFLECT, Choice.REFLECT): CaseLabel.CASE4,
}


def classify_case(bob: Choice, charlie: Choice) -> CaseLabel:
    """Map announced (Bob, Charlie) choices onto the four protocol cases."""
    return _CASES[(bob, charlie)]


def alice_basis(case: CaseLabel, prepared: PrepState) -> Basis:
    """Cases 1-3 are measured in Z; case 4 in the particle's preparation basis."""
    if case is CaseLabel.CASE4:
        return basis_of(prepared)
    return Basis.Z


# The same two rules as arrays: an announcement is True for MEASURE, a case
# is its index in CaseLabel, a basis its index in BASES.
_CHOICES = (Choice.REFLECT, Choice.MEASURE)
_CASE_OF = np.array([[list(CaseLabel).index(classify_case(b, c)) for c in _CHOICES]
                     for b in _CHOICES], dtype=np.intp)
_ALICE_BASIS = np.array([[BASES.index(alice_basis(case, s)) for s in BB84]
                         for case in CaseLabel], dtype=np.int8)
_CHOICE_VALUE = np.array([c.value for c in _CHOICES])
_BASIS_VALUE = np.array([b.value for b in BASES])


@dataclass(frozen=True)
class ProtocolAConfig:
    n: int
    m: int
    check_fraction: float = 0.5
    thresholds: dict[str, float] = field(default_factory=default_thresholds)

    def __post_init__(self):
        check_int("n", self.n)
        check_int("m", self.m)
        check_real("check_fraction", self.check_fraction)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.m <= self.n:
            raise ValueError("m must exceed n")
        if not 0.0 < self.check_fraction <= 1.0:
            raise ValueError("check_fraction must be in (0, 1]")
        check_thresholds(self.thresholds, CHECKS_A)

    @property
    def total(self) -> int:
        return self.n + self.m


def _disclose(members: np.ndarray, fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Split a case's positions into a disclosed random share and the rest."""
    k = math.ceil(fraction * len(members))
    chosen = np.zeros(len(members), dtype=bool)
    if k:
        chosen[rng.choice(len(members), size=k, replace=False)] = True
    return members[chosen], members[~chosen]


def run_protocol_a(config: ProtocolAConfig, attack: Optional[AttackSpec],
                   seed: int) -> RunReport:
    """Execute one full run and return its report (pure in (config, attack, seed))."""
    plan = build_attack_plan(attack, "A")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    preps = rng.integers(4, size=config.total)
    batch = ParticleBatch(preps)

    bob = plan.party("bob", config.n)
    charlie = plan.party("charlie", config.n)

    batch = transmit(batch, Leg.ALICE_TO_BOB, plan.interceptor(Leg.ALICE_TO_BOB), rng)
    bob.act(batch, rng)
    batch = transmit(batch, Leg.BOB_TO_CHARLIE, plan.interceptor(Leg.BOB_TO_CHARLIE), rng)
    charlie.act(batch, rng)
    batch = transmit(batch, Leg.CHARLIE_TO_ALICE, plan.interceptor(Leg.CHARLIE_TO_ALICE), rng)

    bob.announce(batch, rng)
    charlie.announce(batch, rng)
    announced_b = batch.announced["bob"].astype(np.intp)
    announced_c = batch.announced["charlie"].astype(np.intp)
    case = _CASE_OF[announced_b, announced_c]

    # Alice measures case by case, each case in position order.
    c1, c2, c3, c4 = members = [np.flatnonzero(case == i) for i in range(len(CaseLabel))]
    basis = _ALICE_BASIS[case, preps]
    order = np.concatenate(members)
    alice = np.empty(len(batch), dtype=np.int8)
    alice[order] = batch.measure(order, basis[order], rng)

    disclosed2, withheld2 = _disclose(c2, config.check_fraction, rng)
    disclosed3, withheld3 = _disclose(c3, config.check_fraction, rng)

    def check(check_id, positions, mismatched) -> CheckVerdict:
        return evaluate_check(check_id, len(positions), int(np.count_nonzero(mismatched)),
                              config.thresholds[check_id])

    checks = [
        check("case1", c1, (alice[c1] != bob.reported_results(batch, c1))
              | (alice[c1] != charlie.reported_results(batch, c1))),
        check("case2", disclosed2,
              alice[disclosed2] != bob.reported_results(batch, disclosed2)),
        check("case3", disclosed3,
              alice[disclosed3] != charlie.reported_results(batch, disclosed3)),
        check("case4", c4, alice[c4] != EXPECTED_OF_CODE[preps[c4]]),
    ]

    reason = abort_reason(checks)
    aborted = reason is not None

    keys: Optional[KeyMaterial] = None
    if not aborted:
        if not len(withheld2) or not len(withheld3):
            aborted = True
            reason = "no undisclosed key particles remain"
        else:
            keys = derive_keys(alice[withheld2].tolist(), alice[withheld3].tolist())

    payoff = None
    if not aborted and plan.target is not None:
        # The attacker guesses the key-case bits; the truth is what the
        # party holding each share measured.
        context = SimpleNamespace(k_b_positions=withheld2, k_c_positions=withheld3)
        truths = np.concatenate([batch.result["bob"][withheld2],
                                 batch.result["charlie"][withheld3]])
        payoff = score_payoff(plan.target, plan.guess_a(context, rng), truths)

    digest = transcript_digest({
        "protocol": "A",
        "seed": seed,
        "attack": plan.spec.attack_id,
        "prepared": BB84_VALUE[preps].tolist(),
        "announced": [list(pair) for pair in zip(_CHOICE_VALUE[announced_b].tolist(),
                                                 _CHOICE_VALUE[announced_c].tolist())],
        "alice": [list(pair) for pair in zip(_BASIS_VALUE[basis].tolist(), alice.tolist())],
        "checks": [[c.check_id, c.compared, c.mismatches] for c in checks],
        "aborted": aborted,
    })

    return RunReport(protocol="A", seed=seed, checks=checks, aborted=aborted,
                     abort_reason=reason, keys=keys, payoff=payoff,
                     digest=digest)
