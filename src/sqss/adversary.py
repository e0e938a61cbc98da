"""Catalog of adversarial strategies for both circular protocols.

Every attack is one ``CATALOG`` entry: a combination of channel-leg
interceptors and dishonest-party behavior overrides, with the adversary's
acquired knowledge tracked explicitly so that attack payoff can be scored
against the honest parties' actual bits.

Attack identifiers are stable strings used in configs and on the CLI:

    a.mr.bob.1     a.mr.bob.2     a.mr.charlie.1   a.mr.charlie.2
    a.ir.bob       a.ir.charlie.1 a.ir.charlie.2
    a.mr.eve.<leg> a.ir.eve.<leg>           (leg in 1..3)
    b.mr.bob       b.mr.charlie   b.ir.bob         b.ir.charlie
    b.mr.eve.<leg> b.ir.eve.<leg>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .qstate import BASES, BB84_STATES, Basis, apply_unitary_batch, check_unitary
from .runtime import (
    FAKE,
    LEG_ORDER,
    PROBED,
    SIFT_B,
    SIFT_C,
    TAGS,
    Leg,
    ParticleBatch,
    SimulationError,
)

_Z = BASES.index(Basis.Z)  # measurement bases are indices into qstate.BASES


class UnsupportedAttackError(ValueError):
    """The requested actor/variant/protocol pairing is not in the catalog."""


@dataclass(frozen=True)
class UnitaryPair:
    """Two joint qubit-probe unitaries applied on an outbound and a return leg.

    Protocol A pairs act on legs (alice_to_bob, charlie_to_alice); protocol B
    pairs act on legs (bob_to_charlie, charlie_to_alice).
    """

    first: np.ndarray
    second: np.ndarray
    probe_dim: int
    protocol: str  # "A" | "B"

    def __post_init__(self):
        for name, u in (("first", self.first), ("second", self.second)):
            u = np.asarray(u, dtype=complex)
            if u.shape != (2 * self.probe_dim, 2 * self.probe_dim):
                raise ValueError(f"{name} unitary has shape {u.shape}, "
                                 f"expected {(2 * self.probe_dim,) * 2}")
            check_unitary(u)
            u = u.copy()
            u.setflags(write=False)
            object.__setattr__(self, name, u)
        if self.protocol not in ("A", "B"):
            raise ValueError(f"unknown protocol {self.protocol!r}")

    @property
    def legs(self) -> tuple[Leg, Leg]:
        if self.protocol == "A":
            return (Leg.ALICE_TO_BOB, Leg.CHARLIE_TO_ALICE)
        return (Leg.BOB_TO_CHARLIE, Leg.CHARLIE_TO_ALICE)


@dataclass(frozen=True)
class AttackSpec:
    """One entry of the attack catalog (or an entangle-measure parameterization)."""

    protocol: str                       # "A" | "B"
    kind: str                           # "none" | "mr" | "ir" | "em"
    actor: Optional[str] = None         # "bob" | "charlie" | "eve"
    variant: Optional[int] = None
    pair: Optional[UnitaryPair] = None

    def __post_init__(self):
        if self.protocol not in ("A", "B"):
            raise UnsupportedAttackError(f"unknown protocol {self.protocol!r}")
        attack_id = self.attack_id
        if attack_id == f"{self.protocol.lower()}.em":
            if self.pair is None or self.pair.protocol != self.protocol:
                raise UnsupportedAttackError("entangle-measure spec needs a matching UnitaryPair")
            if self.actor not in (None, "bob", "charlie", "eve"):
                raise UnsupportedAttackError(f"bad actor {self.actor!r}")
        elif self.pair is not None:
            raise UnsupportedAttackError(f"{attack_id} takes no UnitaryPair")
        elif attack_id not in CATALOG and attack_id != f"{self.protocol.lower()}.none":
            raise UnsupportedAttackError(f"no catalog attack {attack_id!r}")

    @property
    def attack_id(self) -> str:
        if self.kind in ("none", "em"):
            return f"{self.protocol.lower()}.{self.kind}"
        parts = [self.protocol.lower(), self.kind, str(self.actor)]
        if self.variant is not None:
            parts.append(str(self.variant))
        return ".".join(parts)


def parse_attack_id(attack_id: str) -> AttackSpec:
    parts = attack_id.split(".")
    if len(parts) < 2 or parts[0] not in ("a", "b"):
        raise UnsupportedAttackError(f"malformed attack id {attack_id!r}")
    protocol = parts[0].upper()
    if parts[1] == "none" and len(parts) == 2:
        return AttackSpec(protocol, "none")
    if len(parts) not in (3, 4):
        raise UnsupportedAttackError(f"malformed attack id {attack_id!r}")
    kind, actor = parts[1], parts[2]
    variant = int(parts[3]) if len(parts) == 4 else None
    return AttackSpec(protocol, kind, actor, variant)


def catalog_ids(protocol: Optional[str] = None) -> list[str]:
    """All measure-resend / intercept-resend attack ids, optionally per protocol."""
    return [aid for aid in CATALOG if protocol is None or aid[0] == protocol.lower()]




# Sources an adversary may legitimately learn bits from.  Anything outside
# this set would mean the attack peeked at another party's private state.
ALLOWED_SOURCES = frozenset({"own-measurement", "intercept-measurement",
                             "own-fake", "retained-measurement"})


def _written(column: Optional[np.ndarray], positions, values) -> np.ndarray:
    """``column`` with ``values`` at ``positions``; a new column reaches the
    last position and reads -1 (unknown) everywhere else."""
    positions = np.asarray(positions)
    if column is None:
        column = np.full(int(positions.max(initial=-1)) + 1, -1, dtype=np.int8)
    column[positions] = values
    return column


def _read(column: Optional[np.ndarray], positions: np.ndarray) -> np.ndarray:
    if column is None:
        return np.full(len(positions), -1, dtype=np.int8)
    return column[positions]


@dataclass
class AdversaryKnowledge:
    """Bits and particles an attacker has legitimately acquired during one run.

    Bits are kept per batch position, -1 where the attacker has none.
    """

    recorded: Optional[np.ndarray] = None      # bit it measured
    fake_bits: Optional[np.ndarray] = None     # bit of the fake it sent
    retained: Optional[ParticleBatch] = None   # genuine particles kept back
    provenance: dict = field(default_factory=dict)  # position -> source tag

    def record(self, positions, bits, source: str) -> None:
        if source not in ALLOWED_SOURCES:
            raise SimulationError(f"bits at positions {positions} have unaudited "
                                  f"source {source!r}")
        self.recorded = _written(self.recorded, positions, bits)
        self.provenance.update(dict.fromkeys(np.asarray(positions).tolist(), source))

    def note_fake(self, positions, bits) -> None:
        self.fake_bits = _written(self.fake_bits, positions, bits)
        self.provenance = {**dict.fromkeys(np.asarray(positions).tolist(), "own-fake"),
                           **self.provenance}

    def keep(self, batch: ParticleBatch) -> None:
        self.retained = batch.states()

    def guess_bits(self, source: str, positions: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """The attacker's bits at ``positions`` from a catalog guess source.

        "recorded" are bits it measured, "fake" the bits of fakes it sent, and
        "retained" Z measurements of the genuine particles it kept back, made
        now in position order.
        """
        if source == "recorded":
            return _read(self.recorded, positions)
        if source == "fake":
            return _read(self.fake_bits, positions)
        if self.retained is None:
            return _read(None, positions)
        bits = self.retained.measure(positions, _Z, rng)
        self.record(positions, bits, "retained-measurement")
        return bits


# ---------------------------------------------------------------------------
# Protocol A parties


def _random_subset(total: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """A mask of ``size`` positions out of ``total``, drawn uniformly."""
    chosen = np.zeros(total, dtype=bool)
    chosen[rng.choice(total, size=size, replace=False)] = True
    return chosen


def _measure_step(batch: ParticleBatch, role: str, measured: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Z-measure the particles ``measured`` marks and note ``role``'s choices
    and results (-1 where it reflected) on the batch."""
    result = np.full(len(batch), -1, dtype=np.int8)
    positions = np.flatnonzero(measured)
    result[positions] = batch.measure(positions, _Z, rng)
    batch.measured[role] = measured
    batch.result[role] = result
    return result


class _Insider:
    """Mixin for a dishonest party: the honest party's constructor plus the
    adversary knowledge it shares with the attack's interceptors."""

    def __init__(self, role: str, size: int, knowledge: AdversaryKnowledge):
        super().__init__(role, size)
        self.knowledge = knowledge


class HonestPartyA:
    """Classical party for protocol A: MEASURE a random N-subset, REFLECT the rest."""

    def __init__(self, role: str, n_measure: int):
        self.role = role
        self.n_measure = n_measure

    def act(self, batch: ParticleBatch, rng):
        _measure_step(batch, self.role, _random_subset(len(batch), self.n_measure, rng), rng)

    def announce(self, batch: ParticleBatch, rng):
        batch.announced[self.role] = batch.measured[self.role]

    def reported_results(self, batch: ParticleBatch, positions: np.ndarray) -> np.ndarray:
        return batch.result[self.role][positions]


class MeasureAllPartyA(_Insider, HonestPartyA):
    """Measure-resend insider: Z-measure every particle at its own step, then
    fabricate a MEASURE/REFLECT announcement of the honest sizes."""

    def act(self, batch, rng):
        bits = _measure_step(batch, self.role, np.ones(len(batch), dtype=bool), rng)
        self.knowledge.record(np.arange(len(batch)), bits, "own-measurement")

    def announce(self, batch, rng):
        batch.announced[self.role] = _random_subset(len(batch), self.n_measure, rng)


class ReflectAllPartyA(MeasureAllPartyA):
    """Charlie's first measure-resend variant: Z-measure in transit before Bob
    (done by an interceptor), REFLECT everything at her own step, fabricate the
    announcement, and report the transit bits when asked for results."""

    def act(self, batch, rng):
        _measure_step(batch, self.role, np.zeros(len(batch), dtype=bool), rng)

    def reported_results(self, batch, positions):
        return self.knowledge.recorded[positions]


class SwapBackPartyA(_Insider, HonestPartyA):
    """Charlie's second intercept-resend choice: run her step on the retained
    genuine particles instead of the ones arriving from Bob."""

    def act(self, batch, rng):
        # Bob's outgoing particles stay in her hand; the genuine ones go on.
        genuine, self.knowledge.retained = self.knowledge.retained, batch.states()
        batch.code, batch.probe = genuine.code, genuine.probe
        super().act(batch, rng)


# ---------------------------------------------------------------------------
# Interceptors


def measure_all_interceptor(knowledge: AdversaryKnowledge):
    def intercept(batch, leg, rng):
        positions = np.arange(len(batch))
        knowledge.record(positions, batch.measure(positions, _Z, rng),
                         "intercept-measurement")
        return batch
    return intercept


def replace_with_fakes_interceptor(knowledge: AdversaryKnowledge,
                                   informed_bits=None):
    """Retain the genuine batch and substitute fresh Z-basis fakes.

    ``informed_bits(batch)`` may supply known bits, -1 elsewhere (the
    intercept-resend attacker reuses its own measurement results there);
    elsewhere the fake is a uniformly random Z state.
    """
    def intercept(batch, leg, rng):
        bits = (np.full(len(batch), -1, dtype=np.int8) if informed_bits is None
                else informed_bits(batch))
        unknown = bits < 0
        k = int(np.count_nonzero(unknown))
        if k:
            bits[unknown] = rng.integers(2, size=k)
        knowledge.keep(batch)
        batch.fake(bits)
        knowledge.note_fake(np.arange(len(batch)), bits)
        return batch
    return intercept


def _bob_measured_bits(batch):
    """Bob's results, -1 where he reflected."""
    return batch.result["bob"].copy()


def entangle_measure_interceptors(pair: UnitaryPair) -> dict:
    """Apply the pair's first unitary on its outbound leg and the second on the
    return leg; each particle carries its own probe, initially |e0>."""
    def make(u):
        def intercept(batch, leg, rng):
            states = [BB84_STATES[c] if c != PROBED else p
                      for c, p in zip(batch.code.tolist(), batch.probe)]
            batch.probe = np.empty(len(batch), dtype=object)
            batch.probe[:] = apply_unitary_batch(states, u, pair.probe_dim)
            batch.code[:] = PROBED
            return batch
        return intercept

    first_leg, second_leg = pair.legs
    return {first_leg: make(pair.first), second_leg: make(pair.second)}


# ---------------------------------------------------------------------------
# Protocol B parties


class HonestPartyB:
    """Protocol B classical party: insert n fresh Z-basis particles and apply a
    uniformly random shuffle; the order is withheld until publication."""

    SIFT_TAG = {"bob": SIFT_B, "charlie": SIFT_C}

    def __init__(self, role: str, n: int):
        self.role = role
        self.n = n
        self.prepared_bits = np.zeros(0, dtype=np.int8)
        self._order = (0, np.zeros(0, dtype=np.intp))  # (incoming count, shuffle)

    def fresh_particles(self, rng) -> ParticleBatch:
        """n fresh |bit> particles; a Z-basis state's BB84 code is its bit."""
        self.prepared_bits = rng.integers(2, size=self.n).astype(np.int8)
        return ParticleBatch(self.prepared_bits,
                             tag=np.full(self.n, self.SIFT_TAG[self.role], dtype=np.int8),
                             origin=np.arange(self.n))

    def _shuffle(self, n_incoming: int, total: int, rng) -> np.ndarray:
        """Draw the secret order of ``total`` particles, ``n_incoming`` of
        them received and the rest inserted."""
        perm = rng.permutation(total)
        self._order = (n_incoming, perm)
        return perm

    def process(self, incoming, rng):
        combined = ParticleBatch.concat(incoming, self.fresh_particles(rng))
        return combined[self._shuffle(len(incoming), len(combined), rng)]

    def published_order(self):
        n_in, perm = self._order
        return [("incoming", i) if i < n_in else ("sift", i - n_in) for i in perm.tolist()]

    def reveal_prepared(self, final_positions: np.ndarray, origins: np.ndarray) -> np.ndarray:
        return self.prepared_bits[origins]


class MeasureResendPartyB(_Insider, HonestPartyB):
    """Protocol B Charlie measure-resend: Z-measure every incoming particle,
    resend the found states, then run the honest step."""

    def process(self, incoming, rng):
        positions = np.arange(len(incoming))
        self.knowledge.record(positions, incoming.measure(positions, _Z, rng),
                              "own-measurement")
        return super().process(incoming, rng)


class InterceptResendPartyB(_Insider, HonestPartyB):
    """Protocol B Charlie intercept-resend: keep the incoming batch, send a full
    complement of fresh Z-basis fakes under a fabricated order, and lie about
    her own TEST particles using the fake bits."""

    def process(self, incoming, rng):
        self.knowledge.keep(incoming)
        self.prepared_bits = rng.integers(2, size=self.n).astype(np.int8)
        total = len(incoming) + self.n
        bits = rng.integers(2, size=total)
        fakes = ParticleBatch(bits, tag=np.full(total, FAKE, dtype=np.int8),
                              origin=np.full(total, -1))
        self.knowledge.note_fake(np.arange(total), bits)
        self._shuffle(len(incoming), total, rng)
        return fakes

    def reveal_prepared(self, final_positions, origins):
        return self.knowledge.fake_bits[final_positions]


class LyingRevealPartyB(_Insider, HonestPartyB):
    """Protocol B Bob intercept-resend: the honest insertion step, but TEST
    reveals quote the fake bits substituted on the return leg."""

    def reveal_prepared(self, final_positions, origins):
        fake = _read(self.knowledge.fake_bits, final_positions)
        return np.where(fake >= 0, fake, super().reveal_prepared(final_positions, origins))


# ---------------------------------------------------------------------------
# The catalog


@dataclass(frozen=True)
class CatalogEntry:
    """How the simulator realizes one catalog attack.

    ``legs`` maps a channel leg to the interceptor factory placed on it,
    ``parties`` maps a role to the party class that replaces the honest one,
    and ``guess`` maps each targeted key ("k_b", "k_c") to the source of the
    attacker's guesses (see ``AdversaryKnowledge.guess_bit``), or to None
    when the attack learns nothing about it.
    """

    legs: dict = field(default_factory=dict)
    parties: dict = field(default_factory=dict)
    guess: dict = field(default_factory=dict)

    @property
    def target(self) -> Optional[str]:
        """Which key string the attack is after: k_b, k_c, or both (Eve)."""
        if not self.guess:
            return None
        return "both" if len(self.guess) == 2 else next(iter(self.guess))


A2B, B2C, C2A = LEG_ORDER
_MEASURE, _FAKES = measure_all_interceptor, replace_with_fakes_interceptor
# Protocol A fakes that repeat Bob's own result where he measured.
_BOB_INFORMED_FAKES = partial(replace_with_fakes_interceptor, informed_bits=_bob_measured_bits)
_BOTH_RECORDED = {"k_b": "recorded", "k_c": "recorded"}
_BOTH_RETAINED = {"k_b": "retained", "k_c": "retained"}
_NOTHING = {"k_b": None, "k_c": None}

# In order: the CLI, the benchmark and the oracle tests iterate over it.
CATALOG: dict[str, CatalogEntry] = {
    # Protocol A.  Insiders after the other party's key-case bits.
    "a.mr.bob.1": CatalogEntry(parties={"bob": MeasureAllPartyA},
                               guess={"k_c": "recorded"}),
    "a.mr.bob.2": CatalogEntry(legs={C2A: _MEASURE}, guess={"k_c": "recorded"}),
    "a.mr.charlie.1": CatalogEntry(legs={A2B: _MEASURE},
                                   parties={"charlie": ReflectAllPartyA},
                                   guess={"k_b": "recorded"}),
    "a.mr.charlie.2": CatalogEntry(parties={"charlie": MeasureAllPartyA},
                                   guess={"k_b": "recorded"}),
    # Retained particles at Case 3 positions are Charlie's collapsed states.
    "a.ir.bob": CatalogEntry(legs={C2A: _BOB_INFORMED_FAKES}, guess={"k_c": "retained"}),
    # Bob measured Charlie's fakes, so his bits equal the fake bits.
    "a.ir.charlie.1": CatalogEntry(legs={A2B: _FAKES}, guess={"k_b": "fake"}),
    "a.ir.charlie.2": CatalogEntry(legs={A2B: _FAKES},
                                   parties={"charlie": SwapBackPartyA},
                                   guess={"k_b": "fake"}),
    # Protocol A outsider on leg 1, 2 or 3.
    "a.mr.eve.1": CatalogEntry(legs={A2B: _MEASURE}, guess=_BOTH_RECORDED),
    "a.mr.eve.2": CatalogEntry(legs={B2C: _MEASURE}, guess=_BOTH_RECORDED),
    "a.mr.eve.3": CatalogEntry(legs={C2A: _MEASURE}, guess=_BOTH_RECORDED),
    "a.ir.eve.1": CatalogEntry(legs={A2B: _FAKES}, guess={"k_b": "fake", "k_c": "fake"}),
    # Bob acted on the genuine particle, Charlie on the fake.
    "a.ir.eve.2": CatalogEntry(legs={B2C: _FAKES},
                               guess={"k_b": "retained", "k_c": "fake"}),
    "a.ir.eve.3": CatalogEntry(legs={C2A: _FAKES}, guess=_BOTH_RETAINED),
    # Protocol B insiders.
    "b.mr.bob": CatalogEntry(legs={C2A: _MEASURE}, guess={"k_c": "recorded"}),
    "b.mr.charlie": CatalogEntry(parties={"charlie": MeasureResendPartyB},
                                 guess={"k_b": "recorded"}),
    "b.ir.bob": CatalogEntry(legs={C2A: _FAKES}, parties={"bob": LyingRevealPartyB},
                             guess={"k_c": "retained"}),
    "b.ir.charlie": CatalogEntry(parties={"charlie": InterceptResendPartyB},
                                 guess={"k_b": "retained"}),
    # Protocol B outsider.  Leg 1 carries only CTRL particles, leg 2 adds
    # Bob's key carriers, leg 3 Charlie's.
    "b.mr.eve.1": CatalogEntry(legs={A2B: _MEASURE}, guess=_NOTHING),
    "b.mr.eve.2": CatalogEntry(legs={B2C: _MEASURE}, guess={"k_b": "recorded", "k_c": None}),
    "b.mr.eve.3": CatalogEntry(legs={C2A: _MEASURE}, guess=_BOTH_RECORDED),
    "b.ir.eve.1": CatalogEntry(legs={A2B: _FAKES}, guess=_NOTHING),
    "b.ir.eve.2": CatalogEntry(legs={B2C: _FAKES}, guess={"k_b": "retained", "k_c": None}),
    "b.ir.eve.3": CatalogEntry(legs={C2A: _FAKES}, guess=_BOTH_RETAINED),
}

_NO_ATTACK = CatalogEntry()
# The key strings by index, and the key each protocol B tag carries (-1: none).
_KEYS = ("k_b", "k_c")
_KEY_OF_TAG = np.full(len(TAGS), -1, dtype=np.int8)
_KEY_OF_TAG[[SIFT_B, SIFT_C]] = [_KEYS.index("k_b"), _KEYS.index("k_c")]


# ---------------------------------------------------------------------------
# Attack plans


class AttackPlan:
    """Everything a protocol run needs to realize one AttackSpec."""

    def __init__(self, spec: AttackSpec):
        self.spec = spec
        self.knowledge = AdversaryKnowledge()
        self.entry = CATALOG.get(spec.attack_id, _NO_ATTACK)
        if spec.pair is not None:
            self.interceptors = entangle_measure_interceptors(spec.pair)
        else:
            self.interceptors = {leg: make(self.knowledge)
                                 for leg, make in self.entry.legs.items()}

    def party(self, role: str, size: int):
        """The party playing ``role``: the entry's override, else the honest one."""
        override = self.entry.parties.get(role)
        if override is not None:
            return override(role, size, self.knowledge)
        return (HonestPartyA if self.spec.protocol == "A" else HonestPartyB)(role, size)

    def interceptor(self, leg: Leg):
        return self.interceptors.get(leg)

    @property
    def target(self) -> Optional[str]:
        """Which key string the attack is after: k_b, k_c, or both (Eve)."""
        return self.entry.target

    # -- key guessing -------------------------------------------------------

    def _guesses(self, positions: np.ndarray, keys: np.ndarray, rng) -> np.ndarray:
        """The attacker's bit for each carrier (its position and the index
        of the key it carries), -1 where it has none.  Carriers whose keys
        share a guess source are guessed together, in carrier order."""
        bits = np.full(len(positions), -1, dtype=np.int8)
        by_source: dict[str, list[int]] = {}
        for key, source in self.entry.guess.items():
            if source is not None:
                by_source.setdefault(source, []).append(_KEYS.index(key))
        for source, key_ids in by_source.items():
            mine = np.isin(keys, key_ids)
            bits[mine] = self.knowledge.guess_bits(source, positions[mine], rng)
        return bits

    def guess_a(self, context, rng: np.random.Generator) -> np.ndarray:
        """Best guess of the targeted key-case bits, from knowledge alone.

        ``context`` carries the key-relevant particle positions per case
        (``k_b_positions`` for Case 2, ``k_c_positions`` for Case 3); the
        guesses follow them in that order, -1 where there is none.
        """
        positions = np.concatenate([context.k_b_positions, context.k_c_positions])
        keys = np.repeat([0, 1], [len(context.k_b_positions), len(context.k_c_positions)])
        return self._guesses(positions, keys, rng)

    def guess_b(self, context, rng: np.random.Generator) -> dict:
        """Guess the targeted parties' prepared SIFT bits.

        Returns ``{"k_b": bits, "k_c": bits}``, each indexed by origin (-1
        where there is no guess); ``context`` carries Bob's published order,
        the resolved final ``tags`` and ``origins`` and the batch size ``n``.
        """
        if C2A in self.entry.legs:
            # Seen on the return leg: positions are Alice's final ones.
            positions = np.arange(len(context.tags))
            keys = _KEY_OF_TAG[context.tags]
            origins = context.origins
        else:
            # Seen before Charlie's step: positions follow Bob's published order.
            sift = [(q, j) for q, (what, j) in enumerate(context.bob_pub) if what == "sift"]
            positions, origins = np.array(sift, dtype=np.intp).reshape(-1, 2).T
            keys = np.zeros(len(positions), dtype=np.int8)
        bits = self._guesses(positions, keys, rng)
        out = {}
        for k, key in enumerate(_KEYS):
            out[key] = np.full(context.n, -1, dtype=np.int8)
            mine = keys == k
            out[key][origins[mine]] = bits[mine]
        return out


def build_attack_plan(spec: Optional[AttackSpec], protocol: str) -> AttackPlan:
    if spec is None:
        spec = AttackSpec(protocol, "none")
    if spec.protocol != protocol:
        raise UnsupportedAttackError(
            f"attack {spec.attack_id} targets protocol {spec.protocol}, not {protocol}")
    return AttackPlan(spec)
