"""End-to-end execution of the second circular protocol (no classical measurement).

Alice's N CTRL particles circulate; Bob and Charlie each insert N fresh Z-basis
particles and reorder, publishing the orders only after Alice confirms receipt.
Alice measures CTRL particles in their preparation basis and SIFT particles in
Z; the CTRL check plus two TEST checks gate key derivation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import runtime
from .adversary import AttackSpec, build_attack_plan
from .qstate import (
    BASIS_OF_CODE,
    EXPECTED_OF_CODE,
    measure_qubit,  # noqa: F401 -- a module binding for call-site tracing (perfbench)
)
from .runtime import (
    BIT_SYMBOL,
    CTRL,
    SIFT_B,
    SIFT_C,
    CheckVerdict,
    KeyMaterial,
    ParticleBatch,
    RunReport,
    abort_reason,
    abort_run,
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

CHECKS_B = ("ctrl", "test_b", "test_c")

default_thresholds = functools.partial(runtime.default_thresholds, CHECKS_B)


@dataclass(frozen=True)
class ProtocolBConfig:
    n: int
    test_fraction: float = 0.5
    thresholds: dict[str, float] = field(default_factory=default_thresholds)

    def __post_init__(self):
        check_int("n", self.n, 2)
        check_real("test_fraction", self.test_fraction)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        # Each party's n key carriers lose ceil(test_fraction * n) to the test
        # (``runtime.disclose``'s cap never binds).
        if math.ceil(self.test_fraction * self.n) >= self.n:
            raise ValueError(f"test_fraction must leave a key particle untested, but "
                             f"ceil({self.test_fraction!r} * {self.n}) tests all {self.n}")
        check_thresholds(self.thresholds, CHECKS_B)


def resolve_orders(bob_order, charlie_order, n: int
                   ) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Compose the two published orders into the class (``CTRL``,
    ``SIFT_B`` or ``SIFT_C``) and the origin (index within its class) of
    the particle at each final position.

    Returns None when either order is malformed: not an integer array that
    permutes range(2n) for Bob or range(3n) for Charlie.
    """
    if not (_is_permutation(bob_order, 2 * n) and _is_permutation(charlie_order, 3 * n)):
        return None
    # Number the particles CTRL 0..n-1, SIFT_B n..2n-1, SIFT_C 2n..3n-1:
    # Bob's order numbers his outputs so already, and Charlie's insertions
    # follow them.
    combined = np.concatenate([bob_order, np.arange(2 * n, 3 * n)])[charlie_order]
    return np.divmod(combined, n)


def _is_permutation(order, size: int) -> bool:
    return (isinstance(order, np.ndarray) and order.dtype.kind in "iu"
            and order.shape == (size,) and np.array_equal(np.sort(order), np.arange(size)))


def _by_origin(outcomes: np.ndarray, positions: np.ndarray, origins: np.ndarray) -> np.ndarray:
    """The outcomes at ``positions`` in the order of their particles' origins,
    which are distinct within a class."""
    return outcomes[positions[np.argsort(origins[positions])]]


def run_protocol_b(config: ProtocolBConfig, attack: Optional[AttackSpec],
                   seed: int) -> RunReport:
    """Execute one full run and return its report (pure in (config, attack, seed))."""
    plan = build_attack_plan(attack, "B", 3 * config.n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = config.n

    preps = rng.integers(4, size=n)
    batch = ParticleBatch(preps)

    bob = plan.party("bob", n)
    charlie = plan.party("charlie", n)

    circulate(batch, plan, (bob.process, charlie.process), rng)

    bob_order = bob.published_order()
    charlie_order = charlie.published_order()

    resolved = resolve_orders(bob_order, charlie_order, n)
    if resolved is None or len(batch) != 3 * n:
        return abort_run("B", seed, plan.attack_id, "malformed announcement")
    classes, origins = resolved

    # Alice measures: CTRL in its preparation basis, SIFT particles in Z.
    ctrl = np.flatnonzero(classes == CTRL)
    bases = np.zeros(3 * n, dtype=np.int8)
    bases[ctrl] = BASIS_OF_CODE[preps[origins[ctrl]]]
    outcomes = batch.measure(np.arange(3 * n), bases, rng)

    mism_ctrl = np.count_nonzero(outcomes[ctrl] != EXPECTED_OF_CODE[preps[origins[ctrl]]])
    checks: list[CheckVerdict] = [
        evaluate_check("ctrl", n, int(mism_ctrl), config.thresholds["ctrl"])]

    def run_test(cls: int, party, check_id: str) -> np.ndarray:
        tested, untested = disclose(np.flatnonzero(classes == cls), config.test_fraction, rng)
        mism = np.count_nonzero(outcomes[tested]
                                != party.reveal_prepared(tested, origins[tested]))
        checks.append(evaluate_check(check_id, len(tested), int(mism),
                                     config.thresholds[check_id]))
        return untested

    untested_b = run_test(SIFT_B, bob, "test_b")
    untested_c = run_test(SIFT_C, charlie, "test_c")

    reason = abort_reason(checks)

    keys: Optional[KeyMaterial] = None
    if reason is None:
        # The config leaves each party's untested carriers non-empty.
        keys = derive_keys(_by_origin(outcomes, untested_b, origins),
                           _by_origin(outcomes, untested_c, origins))

    payoff = None
    if reason is None and plan.target is not None:
        # The attacker guesses the untested SIFT bits each party prepared.
        origins_b, origins_c = origins[untested_b], origins[untested_c]
        guess_b, guess_c = plan.guess_b(bob_order, classes, origins, rng)
        payoff = score_payoff(
            plan.target, np.concatenate([guess_b[origins_b], guess_c[origins_c]]),
            np.concatenate([bob.prepared_bits[origins_b], charlie.prepared_bits[origins_c]]))

    return finish_run("B", seed, plan.attack_id, preps, checks, reason, keys, payoff,
                      bob_pub=bob_order.tolist(), charlie_pub=charlie_order.tolist(),
                      outcomes=symbol_string(BIT_SYMBOL, outcomes))
