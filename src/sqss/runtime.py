"""Shared protocol machinery: particle records, channel legs, checks, keys."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .qstate import Basis, CompositeState, PrepState, PureState


class Leg(Enum):
    ALICE_TO_BOB = "alice_to_bob"
    BOB_TO_CHARLIE = "bob_to_charlie"
    CHARLIE_TO_ALICE = "charlie_to_alice"


LEG_ORDER = (Leg.ALICE_TO_BOB, Leg.BOB_TO_CHARLIE, Leg.CHARLIE_TO_ALICE)


class Choice(Enum):
    MEASURE = "MEASURE"
    REFLECT = "REFLECT"


class SimulationError(RuntimeError):
    pass


class ParticleConservationError(SimulationError):
    """An interceptor changed the number of particles in flight."""


@dataclass
class ParticleRecord:
    """One particle's life across a circular run of the first protocol."""

    index: int
    prepared: PrepState
    in_flight: Union[PureState, CompositeState]
    bob_choice: Optional[Choice] = None
    charlie_choice: Optional[Choice] = None
    bob_result: Optional[int] = None
    charlie_result: Optional[int] = None
    announced_bob_choice: Optional[Choice] = None
    announced_charlie_choice: Optional[Choice] = None
    alice_final: Optional[tuple[Basis, int]] = None


# An interceptor acts on the whole batch for one leg and must conserve it.
Interceptor = Callable[[list, Leg, np.random.Generator], list]


def transmit(batch: list, leg: Leg, interceptor: Optional[Interceptor],
             rng: np.random.Generator) -> list:
    """Pass a batch through one channel leg, applying the leg's interceptor."""
    if not batch:
        raise SimulationError("cannot transmit an empty batch")
    if interceptor is None:
        return batch
    n_before = len(batch)
    out = interceptor(batch, leg, rng)
    if out is None:
        out = batch
    if len(out) != n_before:
        raise ParticleConservationError(
            f"interceptor on {leg.value} returned {len(out)} particles, expected {n_before}")
    return out


@dataclass(frozen=True)
class CheckVerdict:
    """Outcome of one security check."""

    check_id: str
    compared: int
    mismatches: int
    error_rate: float
    passed: bool
    inconclusive: bool = False


def evaluate_check(check_id: str, compared: int, mismatches: int,
                   threshold: float) -> CheckVerdict:
    """A check with nothing to compare is inconclusive, never silently passed."""
    if compared == 0:
        return CheckVerdict(check_id, 0, 0, 0.0, passed=False, inconclusive=True)
    rate = mismatches / compared
    return CheckVerdict(check_id, compared, mismatches, rate, passed=rate <= threshold)


def check_thresholds(thresholds, checks) -> None:
    """Thresholds must name exactly ``checks``, each a rate in [0, 1]."""
    if not isinstance(thresholds, dict) or set(thresholds) != set(checks):
        raise ValueError(f"thresholds must have exactly the keys {list(checks)}, "
                         f"got {thresholds!r}")
    for check, value in thresholds.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0.0 <= value <= 1.0):
            raise ValueError(f"threshold for {check} must be in [0, 1], got {value!r}")


def abort_reason(checks) -> Optional[str]:
    """Why the first failing or inconclusive check aborts a run, else None."""
    for c in checks:
        if c.inconclusive:
            return f"inconclusive check {c.check_id}"
        if not c.passed:
            return f"check {c.check_id} failed ({c.error_rate:.4f})"
    return None


def score_payoff(target: str, guesses_and_truths) -> dict:
    """How many of an attack's scored guesses match the true bits."""
    scored = 0
    correct = 0
    for guess, truth in guesses_and_truths:
        scored += 1
        correct += int(guess == truth)
    return {
        "target": target,
        "guessed": scored,
        "correct": correct,
        "fraction": (correct / scored) if scored else 0.0,
    }


@dataclass(frozen=True)
class KeyMaterial:
    """Equal-length shared key strings with k_a = k_b XOR k_c."""

    k_a: str
    k_b: str
    k_c: str

    def __post_init__(self):
        if not (len(self.k_a) == len(self.k_b) == len(self.k_c)):
            raise ValueError("key strings must have equal length")
        if self.k_a != xor_keys(self.k_b, self.k_c):
            raise ValueError("k_a must equal k_b XOR k_c")


def xor_keys(k_b: str, k_c: str) -> str:
    """Bitwise XOR of two equal-length bit strings."""
    if len(k_b) != len(k_c):
        raise ValueError(f"key length mismatch: {len(k_b)} vs {len(k_c)}")
    return "".join("1" if a != b else "0" for a, b in zip(k_b, k_c))


def bits_to_str(bits) -> str:
    return "".join(str(int(b)) for b in bits)


def derive_keys(bits_b, bits_c) -> KeyMaterial:
    """Truncate the longer string (trailing bits dropped) and XOR."""
    k_b = bits_to_str(bits_b)
    k_c = bits_to_str(bits_c)
    n = min(len(k_b), len(k_c))
    k_b, k_c = k_b[:n], k_c[:n]
    return KeyMaterial(k_a=xor_keys(k_b, k_c), k_b=k_b, k_c=k_c)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one protocol execution."""

    protocol: str
    seed: int
    checks: tuple[CheckVerdict, ...]
    aborted: bool
    abort_reason: Optional[str]
    keys: Optional[KeyMaterial]
    payoff: Optional[dict]
    transcript_digest: str

    def check(self, check_id: str) -> CheckVerdict:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)


def transcript_digest(payload: dict) -> str:
    """Stable digest of a run transcript (used for determinism checks)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
