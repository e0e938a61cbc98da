"""Shared protocol machinery: particle batches, channel legs, checks, keys."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .qstate import BASES, measure_codes, measure_qubit


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


# Code of a particle whose joint qubit-probe state is held in ``probe``.
PROBED = -1
# Protocol B tags, by code.
TAGS = ("CTRL", "SIFT_B", "SIFT_C", "FAKE")
CTRL, SIFT_B, SIFT_C, FAKE = range(len(TAGS))


class ParticleBatch:
    """Particles in flight as parallel arrays; entry ``i`` is position ``i``.

    ``code`` holds each bare particle's state as a BB84 code (see
    ``qstate.BB84``).  A particle with a probe attached has code ``PROBED``
    and its joint qubit-probe ``CompositeState`` in ``probe``, which is used
    nowhere else.  Protocol A runs fill the per-role ``measured``,
    ``result`` (-1 where not measured) and ``announced`` (True for MEASURE)
    columns; protocol B batches carry each particle's ``tag`` and ``origin``
    (-1 for a fake), the ground truth the published orders describe.
    """

    __slots__ = ("code", "probe", "tag", "origin", "measured", "result", "announced")

    def __init__(self, code, probe=None, tag=None, origin=None):
        self.code = np.array(code, dtype=np.int8)
        self.probe = np.empty(len(self.code), dtype=object) if probe is None else probe
        self.tag = tag
        self.origin = origin
        self.measured: dict[str, np.ndarray] = {}
        self.result: dict[str, np.ndarray] = {}
        self.announced: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, index) -> ParticleBatch:
        """The particles at ``index`` (a slice, mask or position array), in
        its order: their states, tags and origins."""
        return ParticleBatch(self.code[index], self.probe[index],
                             None if self.tag is None else self.tag[index],
                             None if self.origin is None else self.origin[index])

    @staticmethod
    def concat(first: ParticleBatch, second: ParticleBatch) -> ParticleBatch:
        """``first`` followed by ``second`` (quantum state, tag and origin)."""
        return ParticleBatch(np.concatenate([first.code, second.code]),
                             np.concatenate([first.probe, second.probe]),
                             np.concatenate([first.tag, second.tag]),
                             np.concatenate([first.origin, second.origin]))

    def states(self) -> ParticleBatch:
        """A copy of the particles' quantum states alone."""
        return ParticleBatch(self.code, self.probe.copy())

    def fake(self, bits) -> None:
        """Replace every particle by a fresh |bit> Z-basis state marked as a fake."""
        self.code = np.array(bits, dtype=np.int8)
        self.probe = np.empty(len(self.code), dtype=object)
        if self.tag is not None:
            self.tag = np.full(len(self.code), FAKE, dtype=np.int8)
            self.origin = np.full(len(self.code), -1)

    def measure(self, positions, bases, rng: np.random.Generator) -> np.ndarray:
        """Measure the particles at ``positions``, in that order, in ``bases``
        (0 = Z, 1 = X; one per position, or one for all) and collapse them.

        Runs of bare particles go through ``measure_codes`` and each probed
        particle through ``measure_qubit``, in position order, so the RNG
        draws are those of measuring the particles one at a time.
        """
        positions = np.asarray(positions)
        bases = np.broadcast_to(np.asarray(bases, dtype=np.int8), positions.shape)
        codes = self.code[positions]
        bits = np.empty(len(positions), dtype=np.int8)
        start = 0
        for k in [*np.flatnonzero(codes == PROBED).tolist(), len(positions)]:
            if k > start:
                run = slice(start, k)
                bits[run], self.code[positions[run]] = measure_codes(codes[run], bases[run], rng)
            if k < len(positions):
                pos = positions[k]
                bits[k], self.probe[pos] = measure_qubit(self.probe[pos], BASES[bases[k]], rng)
            start = k + 1
        return bits


# An interceptor acts on the whole batch for one leg and must conserve it.
Interceptor = Callable[[ParticleBatch, Leg, np.random.Generator], Optional[ParticleBatch]]


def transmit(batch: ParticleBatch, leg: Leg, interceptor: Optional[Interceptor],
             rng: np.random.Generator) -> ParticleBatch:
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


@dataclass(frozen=True, slots=True)
class CheckVerdict:
    """Outcome of one security check."""

    check_id: str
    compared: int
    mismatches: int
    passed: bool
    inconclusive: bool = False

    @property
    def error_rate(self) -> float:
        """Mismatches per compared particle; 0.0 when inconclusive."""
        return self.mismatches / self.compared if self.compared else 0.0


@functools.lru_cache(maxsize=4096)
def evaluate_check(check_id: str, compared: int, mismatches: int,
                   threshold: float) -> CheckVerdict:
    """A check with nothing to compare is inconclusive, never silently passed.

    Verdicts are immutable, so equal ones are shared between reports.
    """
    if compared == 0:
        return CheckVerdict(check_id, 0, 0, passed=False, inconclusive=True)
    return CheckVerdict(check_id, compared, mismatches,
                        passed=mismatches / compared <= threshold)


def _is_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def check_int(name: str, value) -> None:
    """A count parameter must be a genuine int: no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def check_thresholds(thresholds, checks) -> None:
    """Thresholds must name exactly ``checks``, each a rate in [0, 1]."""
    if not isinstance(thresholds, dict) or set(thresholds) != set(checks):
        raise ValueError(f"thresholds must have exactly the keys {list(checks)}, "
                         f"got {thresholds!r}")
    for check, value in thresholds.items():
        if not _is_real(value) or not 0.0 <= value <= 1.0:
            raise ValueError(f"threshold for {check} must be in [0, 1], got {value!r}")


def abort_reason(checks) -> Optional[str]:
    """Why the first failing or inconclusive check aborts a run, else None.

    The text names the check only; its rate is on the verdict.
    """
    for c in checks:
        if c.inconclusive or not c.passed:
            return _abort_text(c.check_id, c.inconclusive)
    return None


@functools.cache
def _abort_text(check_id: str, inconclusive: bool) -> str:
    return f"inconclusive check {check_id}" if inconclusive else f"check {check_id} failed"


def score_payoff(target: str, guesses: np.ndarray, truths: np.ndarray) -> dict:
    """How many of an attack's guesses match the true bits; -1 in either
    array marks a position that is not scored."""
    known = (guesses >= 0) & (truths >= 0)
    scored = int(np.count_nonzero(known))
    correct = int(np.count_nonzero(guesses[known] == truths[known]))
    return {
        "target": target,
        "guessed": scored,
        "correct": correct,
        "fraction": (correct / scored) if scored else 0.0,
    }


@dataclass(frozen=True, slots=True)
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


class _FieldView:
    """A read-only ``__dict__`` (field name -> value) for a slotted
    dataclass, so ``cls(**{**obj.__dict__, ...})`` keeps working."""

    __slots__ = ()

    @property
    def __dict__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# Check tuples already held by reports, so that equal ones are shared.
_CHECK_TUPLES: dict[tuple, tuple] = {}
_CHECK_TUPLES_MAX = 1 << 14


def _shared_checks(checks: tuple) -> tuple:
    if len(_CHECK_TUPLES) >= _CHECK_TUPLES_MAX:
        _CHECK_TUPLES.clear()
    return _CHECK_TUPLES.setdefault(checks, checks)


@dataclass(frozen=True, slots=True)
class RunReport(_FieldView):
    """Outcome of one protocol execution.

    ``payoff`` is None when the run aborted: no key was derived, so there is
    nothing to guess.  ``digest`` is the raw SHA-256 of the transcript and
    ``transcript_digest`` its hex form.  Reports are often kept by the
    thousand, so they are small: equal check tuples are shared, as are the
    verdicts in them.
    """

    protocol: str
    seed: int
    checks: tuple[CheckVerdict, ...]
    aborted: bool
    abort_reason: Optional[str]
    keys: Optional[KeyMaterial]
    payoff: Optional[dict]
    digest: bytes

    def __post_init__(self):
        object.__setattr__(self, "checks", _shared_checks(tuple(self.checks)))

    @property
    def transcript_digest(self) -> str:
        return self.digest.hex()

    def check(self, check_id: str) -> CheckVerdict:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)


def transcript_digest(payload: dict) -> bytes:
    """Stable SHA-256 of a run transcript (used for determinism checks)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).digest()
