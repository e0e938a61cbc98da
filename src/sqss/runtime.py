"""Shared protocol machinery: particle batches, channel legs, checks, keys."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .qstate import BB84_SYMBOL, bb84_rows, measure_codes, measure_qubit


class Leg(Enum):
    ALICE_TO_BOB = "alice_to_bob"
    BOB_TO_CHARLIE = "bob_to_charlie"
    CHARLIE_TO_ALICE = "charlie_to_alice"


LEG_ORDER = (Leg.ALICE_TO_BOB, Leg.BOB_TO_CHARLIE, Leg.CHARLIE_TO_ALICE)


class SimulationError(RuntimeError):
    pass


class ParticleConservationError(SimulationError):
    """An interceptor changed the number of particles in flight."""


class ParticleBatch:
    """Particles in flight as one array, ``states``; entry ``i`` is position ``i``.

    A batch is bare or probed as a whole.  A bare batch's ``states`` is an
    int8 array of BB84 codes: a ``qstate.PrepState`` is its code, so
    ``PrepState.PLUS`` is 2 and ``qstate.BB84_AMPS[code]`` its amplitudes.
    Once an entangle-measure leg writes them, ``states`` is an ``(N, 2d)``
    complex array holding every particle's joint qubit-probe amplitudes,
    entry ``x * d + j`` for qubit |x> and probe |j>.  What parties and
    attackers did to the particles is kept by those parties and attackers,
    not here.
    """

    __slots__ = ("states",)

    def __init__(self, states):
        states = np.asarray(states)
        self.states = states if states.ndim == 2 else states.astype(np.int8)

    @property
    def probed(self) -> bool:
        return self.states.ndim == 2

    def __len__(self) -> int:
        return len(self.states)

    @staticmethod
    def concat(first: ParticleBatch, second: ParticleBatch) -> ParticleBatch:
        """``first`` followed by ``second``; if either side is probed, both
        join as rows, a bare particle's probe in |e_0>."""
        if not (first.probed or second.probed):
            return ParticleBatch(np.concatenate([first.states, second.states]))
        d = (first if first.probed else second).states.shape[1] // 2
        return ParticleBatch(np.concatenate([first.amplitudes(d), second.amplitudes(d)]))

    def copy(self) -> ParticleBatch:
        """A batch of copies of the particles' states."""
        return ParticleBatch(self.states.copy())

    def fake(self, bits) -> None:
        """Replace every particle by a fresh |bit> Z-basis state."""
        self.states = np.array(bits, dtype=np.int8)

    def amplitudes(self, dim_probe: int) -> np.ndarray:
        """Every particle's joint qubit-probe amplitudes as an ``(N, 2d)``
        array, ``d = dim_probe``: a probed batch's own rows (not a copy), or
        a bare batch's states with the probe in |e_0>."""
        d = dim_probe
        if not self.probed:
            return bb84_rows(d)[self.states]
        if self.states.shape[1] != 2 * d:
            raise ValueError(f"batch has probe dimension {self.states.shape[1] // 2}, "
                             f"expected {d}")
        return self.states

    def measure(self, positions, bases, rng: np.random.Generator,
                collapse: bool = True) -> np.ndarray:
        """Measure the distinct particles at ``positions``, in that order, in
        ``bases`` (basis indices, 0 = Z and 1 = X, as a ``qstate.Basis`` is;
        one per position, or one for all) and collapse them.

        The layer is one pass with one draw: the outcomes that are not
        certain share one ``rng.random`` call in position order, so the
        draws are those of measuring the particles one at a time.  A bare
        batch's layer goes through ``measure_codes``, a probed batch's
        through one ``measure_qubit`` call on its rows.  With ``collapse``
        False, for a measurement nothing reads the batch after, the layer
        is a read-out: it returns the same bits from the same draws and
        writes nothing to ``states``.
        """
        if self.probed:
            bits, states = measure_qubit(self.states[positions], bases, rng, collapse)
        else:
            bits, states = measure_codes(self.states[positions], bases, rng)
        if collapse:
            self.states[positions] = states
        return bits


def random_subset(total: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """A mask of ``size`` positions out of ``total``, drawn uniformly."""
    chosen = np.zeros(total, dtype=bool)
    chosen[rng.choice(total, size=size, replace=False)] = True
    return chosen


def disclose(members: np.ndarray, fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Split a check's positions into a disclosed random share and the rest.

    The share is ``ceil(fraction * len)`` positions, but a set of two or
    more keeps at least one back for the key; for a fraction up to 1/2 the
    cap never binds.
    """
    size = min(math.ceil(fraction * len(members)), max(len(members) - 1, 1))
    chosen = random_subset(len(members), size, rng)
    return members[chosen], members[~chosen]


def transmit(batch: ParticleBatch, leg: Leg, interceptor, rng: np.random.Generator) -> None:
    """Pass a batch through one channel leg.  The leg's interceptor, if any,
    is ``interceptor(batch, leg, rng)``: it changes the batch in place and
    must keep its length."""
    if not batch:
        raise SimulationError("cannot transmit an empty batch")
    if interceptor is not None:
        n_before = len(batch)
        interceptor(batch, leg, rng)
        if len(batch) != n_before:
            raise ParticleConservationError(
                f"interceptor on {leg.value} left {len(batch)} particles, expected {n_before}")


def circulate(batch: ParticleBatch, plan, steps, rng: np.random.Generator) -> None:
    """Send ``batch`` once around the ring: every leg of ``LEG_ORDER`` through
    ``plan.interceptor(leg)``, with Bob's and Charlie's ``steps`` after the
    first and second legs.  A step is ``step(batch, rng)`` and changes the
    batch in place."""
    for leg, step in zip(LEG_ORDER, (*steps, None)):
        transmit(batch, leg, plan.interceptor(leg), rng)
        if step is not None:
            step(batch, rng)


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


def evaluate_check(check_id: str, compared: int, mismatches: int,
                   threshold: float) -> CheckVerdict:
    """A check with nothing to compare is inconclusive, never silently passed."""
    if compared == 0:
        return CheckVerdict(check_id, 0, 0, passed=False, inconclusive=True)
    return CheckVerdict(check_id, compared, mismatches,
                        passed=mismatches / compared <= threshold)


def _is_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float))


def check_int(name: str, value, least: int) -> None:
    """A count must be a genuine int (no bool, float or string) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value) -> None:
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")


DEFAULT_THRESHOLD = 0.05


def default_thresholds(checks, value: float = DEFAULT_THRESHOLD) -> dict[str, float]:
    """The same threshold for each of ``checks``."""
    return {check: value for check in checks}


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
    """Equal-length shared key strings k_b and k_c; k_a is their XOR."""

    k_b: str
    k_c: str

    def __post_init__(self):
        if len(self.k_b) != len(self.k_c):
            raise ValueError("key strings must have equal length")

    @property
    def k_a(self) -> str:
        return xor_keys(self.k_b, self.k_c)


def xor_keys(k_b: str, k_c: str) -> str:
    """Bitwise XOR of two equal-length bit strings."""
    if len(k_b) != len(k_c):
        raise ValueError(f"key length mismatch: {len(k_b)} vs {len(k_c)}")
    return "".join("1" if a != b else "0" for a, b in zip(k_b, k_c))


def derive_keys(bits_b: np.ndarray, bits_c: np.ndarray) -> KeyMaterial:
    """The key shares of two int8 bit arrays, the longer truncated to the
    shorter's length (trailing bits dropped)."""
    n = min(len(bits_b), len(bits_c))
    return KeyMaterial(k_b=symbol_string(BIT_SYMBOL, bits_b[:n]),
                       k_c=symbol_string(BIT_SYMBOL, bits_c[:n]))


# A report packs, in this order: the 32-byte digest; a key field (0 without
# keys, else 1 + the key length); per check its compared and mismatches
# counts and its flags (1: passed, 2: inconclusive); and the bits of k_b then
# k_c, eight to a byte.  Counts and the key field are unsigned 32-bit.
_DIGEST_SIZE = 32
_KEY_FIELD = struct.Struct("<I")
_VERDICT = struct.Struct("<IIB")
_FIELD_MAX = (1 << 32) - 1
_PASSED, _INCONCLUSIVE = 1, 2


def _field(what: str, value: int) -> int:
    if not 0 <= value <= _FIELD_MAX:
        raise ValueError(f"{what} {value!r} does not fit a report's 32-bit field")
    return value


@functools.lru_cache(maxsize=64)
def shared_tuple(items: tuple) -> tuple:
    """One tuple per sequence of items (check ids, say), shared by every
    object that keeps one equal to it."""
    return items


def _pack(checks: tuple, keys: Optional[KeyMaterial], digest: bytes) -> bytes:
    if len(digest) != _DIGEST_SIZE:
        raise ValueError(f"digest must be {_DIGEST_SIZE} bytes, got {len(digest)}")
    parts = [digest, _KEY_FIELD.pack(
        0 if keys is None else _field("key length + 1", len(keys.k_b) + 1))]
    for c in checks:
        parts.append(_VERDICT.pack(_field("compared", c.compared),
                                   _field("mismatches", c.mismatches),
                                   _PASSED * bool(c.passed) | _INCONCLUSIVE * bool(c.inconclusive)))
    if keys is not None:
        bits = np.frombuffer((keys.k_b + keys.k_c).encode(), dtype=np.uint8) - ord("0")
        if np.any(bits > 1):
            raise ValueError(f"keys must be bit strings, got {keys!r}")
        parts.append(np.packbits(bits).tobytes())
    return b"".join(parts)


class _ReportView:
    """A report's ``__dict__`` maps its constructor's arguments to their
    values, so ``RunReport(**{**report.__dict__, ...})`` builds a changed
    copy.  (A slotted dataclass cannot define ``__dict__`` itself.)"""

    __slots__ = ()

    @property
    def __dict__(self) -> dict:
        return {name: getattr(self, name) for name in
                ("protocol", "seed", "checks", "abort_reason", "keys", "payoff", "digest")}


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RunReport(_ReportView):
    """Outcome of one protocol execution.

    ``payoff`` is None when the run aborted: no key was derived, so there is
    nothing to guess.  ``digest`` is the raw SHA-256 of the transcript and
    ``transcript_digest`` its hex form.  The benchmark's mc ops keep reports
    by the thousand, so they are small: the digest, the check counts, flags
    and key bits are packed into one ``bytes`` beside a shared tuple of
    check ids, and ``checks``, ``keys`` and ``digest`` are rebuilt from it
    on access.  A count that does not fit its field raises ``ValueError``.
    """

    protocol: str
    seed: int
    abort_reason: Optional[str]
    payoff: Optional[dict]
    _check_ids: tuple[str, ...]
    _packed: bytes

    def __init__(self, protocol: str, seed, checks, abort_reason: Optional[str],
                 keys: Optional[KeyMaterial], payoff: Optional[dict], digest: bytes):
        checks = tuple(checks)
        for name, value in (("protocol", protocol), ("seed", seed),
                            ("abort_reason", abort_reason), ("payoff", payoff),
                            ("_check_ids", shared_tuple(tuple(c.check_id for c in checks))),
                            ("_packed", _pack(checks, keys, digest))):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"RunReport({', '.join(f'{k}={v!r}' for k, v in self.__dict__.items())})"

    def _keys_at(self) -> int:
        return _DIGEST_SIZE + _KEY_FIELD.size + _VERDICT.size * len(self._check_ids)

    @property
    def digest(self) -> bytes:
        return self._packed[:_DIGEST_SIZE]

    @property
    def checks(self) -> tuple[CheckVerdict, ...]:
        verdicts = self._packed[_DIGEST_SIZE + _KEY_FIELD.size:self._keys_at()]
        return tuple(CheckVerdict(check_id, compared, mismatches, bool(flags & _PASSED),
                                  bool(flags & _INCONCLUSIVE))
                     for check_id, (compared, mismatches, flags)
                     in zip(self._check_ids, _VERDICT.iter_unpack(verdicts)))

    @property
    def keys(self) -> Optional[KeyMaterial]:
        (field,) = _KEY_FIELD.unpack_from(self._packed, _DIGEST_SIZE)
        if not field:
            return None
        n = field - 1
        bits = np.unpackbits(np.frombuffer(self._packed, dtype=np.uint8,
                                           offset=self._keys_at()), count=2 * n)
        return KeyMaterial(k_b=symbol_string(BIT_SYMBOL, bits[:n]),
                           k_c=symbol_string(BIT_SYMBOL, bits[n:]))

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def transcript_digest(self) -> str:
        return self.digest.hex()

    def check(self, check_id: str) -> CheckVerdict:
        for c in self.checks:
            if c.check_id == check_id:
                return c
        raise KeyError(check_id)


# Version of the transcript layout; it is in every payload.
TRANSCRIPT_SCHEMA = 2
# A bit's symbol in a transcript.
BIT_SYMBOL = np.array(["0", "1"], dtype="S1")


def symbol_string(table: np.ndarray, codes: np.ndarray) -> str:
    """``codes`` spelled as one string, code ``i`` as the byte ``table[i]``
    (an ``"S1"`` array): the compact form transcripts record layers in."""
    return table[codes].tobytes().decode()


def transcript_digest(payload: dict) -> bytes:
    """Stable SHA-256 of a run transcript (used for determinism checks).

    ``payload`` is plain JSON data: strings, numbers, lists and dicts only.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).digest()


def finish_run(protocol: str, seed, attack_id: str, preps: np.ndarray, checks,
               reason: Optional[str], keys: Optional[KeyMaterial], payoff: Optional[dict],
               **layers) -> RunReport:
    """The report of a run that reached its checks, with the digest of its
    transcript: the fields every protocol records, beside the protocol's
    own ``layers`` (plain JSON data), so that it covers every preparation,
    announcement and measurement, the checks, the keys and the payoff."""
    digest = transcript_digest({
        "schema": TRANSCRIPT_SCHEMA, "protocol": protocol, "seed": seed, "attack": attack_id,
        "prepared": symbol_string(BB84_SYMBOL, preps),
        "checks": [[c.check_id, c.compared, c.mismatches] for c in checks],
        "aborted": reason is not None,
        "keys": None if keys is None else [keys.k_b, keys.k_c],
        "payoff": payoff, **layers})
    return RunReport(protocol, seed, checks, reason, keys, payoff, digest)


def abort_run(protocol: str, seed, attack_id: str, reason: str) -> RunReport:
    """The report of a run stopped before its checks; its transcript
    records only why."""
    digest = transcript_digest({"schema": TRANSCRIPT_SCHEMA, "protocol": protocol,
                                "seed": seed, "attack": attack_id, "abort": reason})
    return RunReport(protocol, seed, (), reason, None, None, digest)
