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
    Basis,
    CompositeState,
    PrepState,
    basis_of,
    expected_outcome,
    measure,
    measure_qubit,
    prepare,
)
from .runtime import (
    CheckVerdict,
    Choice,
    KeyMaterial,
    Leg,
    ParticleRecord,
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


def classify_case(bob: Choice, charlie: Choice) -> CaseLabel:
    """Map announced (Bob, Charlie) choices onto the four protocol cases."""
    table = {
        (Choice.MEASURE, Choice.MEASURE): CaseLabel.CASE1,
        (Choice.MEASURE, Choice.REFLECT): CaseLabel.CASE2,
        (Choice.REFLECT, Choice.MEASURE): CaseLabel.CASE3,
        (Choice.REFLECT, Choice.REFLECT): CaseLabel.CASE4,
    }
    return table[(bob, charlie)]


def alice_basis(case: CaseLabel, prepared: PrepState) -> Basis:
    """Cases 1-3 are measured in Z; case 4 in the particle's preparation basis."""
    if case is CaseLabel.CASE4:
        return basis_of(prepared)
    return Basis.Z


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


def _alice_measure(record: ParticleRecord, basis: Basis, rng) -> int:
    if isinstance(record.in_flight, CompositeState):
        bit, collapsed = measure_qubit(record.in_flight, basis, rng)
    else:
        bit, collapsed = measure(record.in_flight, basis, rng)
    record.in_flight = collapsed
    record.alice_final = (basis, bit)
    return bit


def _disclose(indices: list[int], fraction: float, rng) -> tuple[list[int], list[int]]:
    k = math.ceil(fraction * len(indices))
    chosen = set(int(i) for i in rng.choice(len(indices), size=k, replace=False)) if k else set()
    disclosed = [idx for pos, idx in enumerate(indices) if pos in chosen]
    withheld = [idx for pos, idx in enumerate(indices) if pos not in chosen]
    return disclosed, withheld


def run_protocol_a(config: ProtocolAConfig, attack: Optional[AttackSpec],
                   seed: int) -> RunReport:
    """Execute one full run and return its report (pure in (config, attack, seed))."""
    plan = build_attack_plan(attack, "A")
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    preps = [list(PrepState)[int(i)] for i in rng.integers(4, size=config.total)]
    records = [ParticleRecord(index=i, prepared=s, in_flight=prepare(s))
               for i, s in enumerate(preps)]

    bob = plan.party("bob", config.n)
    charlie = plan.party("charlie", config.n)

    records = transmit(records, Leg.ALICE_TO_BOB, plan.interceptor(Leg.ALICE_TO_BOB), rng)
    bob.act(records, rng)
    records = transmit(records, Leg.BOB_TO_CHARLIE, plan.interceptor(Leg.BOB_TO_CHARLIE), rng)
    charlie.act(records, rng)
    records = transmit(records, Leg.CHARLIE_TO_ALICE, plan.interceptor(Leg.CHARLIE_TO_ALICE), rng)

    bob.announce(records, rng)
    charlie.announce(records, rng)

    by_case: dict[CaseLabel, list[ParticleRecord]] = {c: [] for c in CaseLabel}
    for r in records:
        by_case[classify_case(r.announced_bob_choice, r.announced_charlie_choice)].append(r)

    for case, members in by_case.items():
        for r in members:
            _alice_measure(r, alice_basis(case, r.prepared), rng)

    disclosed2, withheld2 = _disclose([r.index for r in by_case[CaseLabel.CASE2]],
                                      config.check_fraction, rng)
    disclosed3, withheld3 = _disclose([r.index for r in by_case[CaseLabel.CASE3]],
                                      config.check_fraction, rng)
    by_index = {r.index: r for r in records}

    checks: list[CheckVerdict] = []
    c1 = by_case[CaseLabel.CASE1]
    mism1 = sum(1 for r in c1
                if not (r.alice_final[1] == bob.reported_result(r) == charlie.reported_result(r)))
    checks.append(evaluate_check("case1", len(c1), mism1, config.thresholds["case1"]))

    mism2 = sum(1 for idx in disclosed2
                if by_index[idx].alice_final[1] != bob.reported_result(by_index[idx]))
    checks.append(evaluate_check("case2", len(disclosed2), mism2, config.thresholds["case2"]))

    mism3 = sum(1 for idx in disclosed3
                if by_index[idx].alice_final[1] != charlie.reported_result(by_index[idx]))
    checks.append(evaluate_check("case3", len(disclosed3), mism3, config.thresholds["case3"]))

    c4 = by_case[CaseLabel.CASE4]
    mism4 = sum(1 for r in c4 if r.alice_final[1] != expected_outcome(r.prepared))
    checks.append(evaluate_check("case4", len(c4), mism4, config.thresholds["case4"]))

    reason = abort_reason(checks)
    aborted = reason is not None

    keys: Optional[KeyMaterial] = None
    if not aborted:
        if not withheld2 or not withheld3:
            aborted = True
            reason = "no undisclosed key particles remain"
        else:
            keys = derive_keys([by_index[i].alice_final[1] for i in withheld2],
                               [by_index[i].alice_final[1] for i in withheld3])

    context = SimpleNamespace(k_b_positions=withheld2, k_c_positions=withheld3,
                              records=records)
    payoff = _score_payoff(plan, context, by_index, rng)

    digest = transcript_digest({
        "protocol": "A",
        "seed": seed,
        "attack": plan.spec.attack_id,
        "prepared": [s.value for s in preps],
        "announced": [[r.announced_bob_choice.value, r.announced_charlie_choice.value]
                      for r in records],
        "alice": [[r.alice_final[0].value, r.alice_final[1]] for r in records],
        "checks": [[c.check_id, c.compared, c.mismatches] for c in checks],
        "aborted": aborted,
    })

    return RunReport(protocol="A", seed=seed, checks=tuple(checks), aborted=aborted,
                     abort_reason=reason, keys=keys, payoff=payoff,
                     transcript_digest=digest)


def _score_payoff(plan, context, by_index, rng) -> Optional[dict]:
    """Fraction of the targeted party's key-case bits the adversary guesses right."""
    if plan.target is None:
        return None
    scored = []
    for idx, bit in plan.guess_a(context, rng).items():
        record = by_index[idx]
        truth = (record.bob_result if idx in context.k_b_positions
                 else record.charlie_result)
        if truth is not None:
            scored.append((bit, truth))
    return score_payoff(plan.target, scored)
