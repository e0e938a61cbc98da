"""End-to-end execution of the first circular protocol (classical parties measure).

Alice prepares N+M particles; Bob and Charlie each MEASURE a random N-subset
and REFLECT the rest; the four announced-choice cases determine Alice's final
measurement basis; four security checks gate key derivation K_A = K_B XOR K_C.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import runtime
from .adversary import AttackSpec, build_attack_plan
from .qstate import (
    EXPECTED_OF_CODE,
    measure_qubit,  # noqa: F401 -- a module binding for call-site tracing (perfbench)
)
from .runtime import (
    BIT_SYMBOL,
    CheckVerdict,
    KeyMaterial,
    ParticleBatch,
    RunReport,
    abort_reason,
    check_int,
    check_real,
    check_thresholds,
    circulate,
    derive_keys,
    disclose,
    evaluate_check,
    finish_run,
    score_payoff,
    symbol_string,
)

CHECKS_A = ("case1", "case2", "case3", "case4")

default_thresholds = functools.partial(runtime.default_thresholds, CHECKS_A)


# An announcement is 1 for MEASURE and 0 for REFLECT, and a case is its
# index: case 1 is (MEASURE, MEASURE), case 2 (MEASURE, REFLECT), case 3
# (REFLECT, MEASURE) and case 4 (REFLECT, REFLECT), by (Bob, Charlie).
_CASE_OF = np.array([[3, 2], [1, 0]], dtype=np.intp)
# Alice's basis per (case, BB84 code): Z in cases 1-3; in case 4, the
# particle's preparation basis (qstate.BASIS_OF_CODE).
_ALICE_BASIS = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]],
                        dtype=np.int8)
# Transcript symbols: an announcement's initial and a basis.
_CHOICE_SYMBOL = np.frombuffer(b"RM", dtype="S1")
_BASIS_SYMBOL = np.frombuffer(b"ZX", dtype="S1")


@dataclass(frozen=True)
class ProtocolAConfig:
    n: int
    m: int
    check_fraction: float = 0.5
    thresholds: dict[str, float] = field(default_factory=default_thresholds)

    def __post_init__(self):
        # A key needs a case-1 particle and two in each of cases 2 and 3 (see
        # ``runtime.disclose``), and Bob measures n = |case 1| + |case 2| particles.
        check_int("n", self.n, 3)
        check_int("m", self.m, self.n + 1)
        check_real("check_fraction", self.check_fraction)
        if not 0.0 < self.check_fraction < 1.0:
            raise ValueError("check_fraction must be in (0, 1)")
        check_thresholds(self.thresholds, CHECKS_A)

    @property
    def total(self) -> int:
        return self.n + self.m


def run_protocol_a(config: ProtocolAConfig, attack: Optional[AttackSpec],
                   seed: int) -> RunReport:
    """Execute one full run and return its report (pure in (config, attack, seed))."""
    plan = build_attack_plan(attack, "A", config.total)
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    preps = rng.integers(4, size=config.total)
    batch = ParticleBatch(preps)

    bob = plan.party("bob", config.n)
    charlie = plan.party("charlie", config.n)

    circulate(batch, plan, (bob.act, charlie.act), rng)

    bob.announce(rng)
    charlie.announce(rng)
    announced_b = bob.announced.astype(np.intp)
    announced_c = charlie.announced.astype(np.intp)
    case = _CASE_OF[announced_b, announced_c]

    # Alice measures case by case, each case in position order; nothing
    # reads the batch after, so her measurement is a read-out.
    c1, c2, c3, c4 = members = [np.flatnonzero(case == i) for i in range(4)]
    basis = _ALICE_BASIS[case, preps]
    order = np.concatenate(members)
    alice = np.empty(len(batch), dtype=np.int8)
    alice[order] = batch.measure(order, basis[order], rng, collapse=False)

    disclosed2, withheld2 = disclose(c2, config.check_fraction, rng)
    disclosed3, withheld3 = disclose(c3, config.check_fraction, rng)

    def check(check_id, positions, mismatched) -> CheckVerdict:
        return evaluate_check(check_id, len(positions), int(np.count_nonzero(mismatched)),
                              config.thresholds[check_id])

    checks = [
        check("case1", c1, (alice[c1] != bob.reported_results(c1))
              | (alice[c1] != charlie.reported_results(c1))),
        check("case2", disclosed2, alice[disclosed2] != bob.reported_results(disclosed2)),
        check("case3", disclosed3,
              alice[disclosed3] != charlie.reported_results(disclosed3)),
        check("case4", c4, alice[c4] != EXPECTED_OF_CODE[preps[c4]]),
    ]

    reason = abort_reason(checks)

    keys: Optional[KeyMaterial] = None
    if reason is None:
        if not len(withheld2) or not len(withheld3):
            reason = "no undisclosed key particles remain"
        else:
            keys = derive_keys(alice[withheld2], alice[withheld3])

    payoff = None
    if reason is None and plan.target is not None:
        # The attacker guesses the key-case bits; the truth is what the
        # party holding each share measured.
        truths = np.concatenate([bob.result[withheld2], charlie.result[withheld3]])
        payoff = score_payoff(plan.target, plan.guess_a(withheld2, withheld3, rng), truths)

    return finish_run("A", seed, plan.attack_id, preps, checks, reason, keys, payoff,
                      announced=[symbol_string(_CHOICE_SYMBOL, announced_b),
                                 symbol_string(_CHOICE_SYMBOL, announced_c)],
                      alice=[symbol_string(_BASIS_SYMBOL, basis),
                             symbol_string(BIT_SYMBOL, alice)])
