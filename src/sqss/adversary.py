"""Catalog of adversarial strategies for both circular protocols.

Every attack is one ``CATALOG`` entry: channel-leg interceptors, which alone
touch particles in flight (bar protocol B's intercept-resend Charlie, whose
fakes are her insertion step), and party overrides of what a party
announces, reports or reveals.  Knowledge is tracked explicitly, to score
payoffs against the honest parties' bits: an insider's tap at the end of its
own incoming leg records "own-measurement", any other "intercept-measurement".

Attack ids, as configs and the CLI write them, are the ``CATALOG`` keys and
``<p>.none`` for no attack; ``resolve_attack`` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .qstate import Basis, apply_unitary_batch, bb84_rows, check_unitary
from .runtime import LEG_ORDER, Leg, ParticleBatch, SimulationError, random_subset


class UnsupportedAttackError(ValueError):
    """The requested attack is not in the catalog or not for this protocol."""


@dataclass(frozen=True)
class UnitaryPair:
    """Two joint qubit-probe unitaries applied on an outbound and a return leg.

    Protocol A pairs act on legs (alice_to_bob, charlie_to_alice); protocol B
    pairs act on legs (bob_to_charlie, charlie_to_alice).  Both unitaries act
    on qubit (x) probe, so they share one shape ``(2d, 2d)`` with d >= 1.
    """

    first: np.ndarray
    second: np.ndarray
    protocol: str  # "A" | "B"

    def __post_init__(self):
        first, second = (np.array(u, dtype=complex) for u in (self.first, self.second))
        if first.shape != second.shape or first.ndim != 2 or len(first) % 2 or not len(first):
            raise ValueError(f"unitaries of shape {first.shape} and {second.shape}: "
                             f"expected one shape (2d, 2d) with d >= 1")
        check_unitary(np.stack([first, second]))
        for name, u in (("first", first), ("second", second)):
            u.setflags(write=False)
            object.__setattr__(self, name, u)
        if self.protocol not in ("A", "B"):
            raise ValueError(f"unknown protocol {self.protocol!r}")

    @property
    def probe_dim(self) -> int:
        return len(self.first) // 2

    @property
    def legs(self) -> tuple[Leg, Leg]:
        if self.protocol == "A":
            return (Leg.ALICE_TO_BOB, Leg.CHARLIE_TO_ALICE)
        return (Leg.BOB_TO_CHARLIE, Leg.CHARLIE_TO_ALICE)

    @cached_property
    def images(self) -> tuple[np.ndarray, np.ndarray]:
        """What ``first`` and ``second`` make of the four BB84 states with the
        probe in |e0>: read-only ``(4, 2d)`` arrays, row i for code i, built
        on first use.  The unitaries are read-only, so they cannot go stale."""
        images = tuple(apply_unitary_batch(bb84_rows(self.probe_dim), u)
                       for u in (self.first, self.second))
        for rows in images:
            rows.setflags(write=False)
        return images


@dataclass(frozen=True)
class AttackSpec:
    """A catalog attack or an entangle-measure pair; no attack is None.

    ``name`` is the attack's id after its ``"<p>."`` prefix, such as
    ``"mr.eve.1"``, or ``"em"`` for an entangle-measure ``pair``.
    """

    protocol: str                       # "A" | "B"
    name: str
    pair: Optional[UnitaryPair] = None

    def __post_init__(self):
        if self.protocol not in ("A", "B"):
            raise UnsupportedAttackError(f"unknown protocol {self.protocol!r}")
        if self.name == "em":
            if self.pair is None or self.pair.protocol != self.protocol:
                raise UnsupportedAttackError("entangle-measure spec needs a matching UnitaryPair")
        elif self.pair is not None:
            raise UnsupportedAttackError(f"{self.attack_id} takes no UnitaryPair")
        elif self.attack_id not in CATALOG:
            raise UnsupportedAttackError(f"no catalog attack {self.attack_id!r}")

    @property
    def attack_id(self) -> str:
        return f"{self.protocol.lower()}.{self.name}"


def attack_id_of(spec: Optional[AttackSpec], protocol: str) -> str:
    """The id a run of ``protocol`` under ``spec`` records, ``<p>.none`` if None."""
    return f"{protocol.lower()}.none" if spec is None else spec.attack_id


def resolve_attack(protocol: str, attack_id: Optional[str]) -> Optional[AttackSpec]:
    """The attack ``attack_id`` names against ``protocol``, None for no attack
    (no id, ``"none"`` or ``"<p>.none"``); any other id must be a ``CATALOG``
    key.  An id of the other protocol is an error, ``"<q>.none"`` included."""
    if protocol not in ("A", "B"):
        raise UnsupportedAttackError(f"unknown protocol {protocol!r}")
    if attack_id in (None, "none", attack_id_of(None, protocol)):
        return None
    if (isinstance(attack_id, str) and attack_id.startswith(("a.", "b."))
            and attack_id[0] != protocol.lower()):
        raise UnsupportedAttackError(f"attack {attack_id} does not apply to protocol {protocol}")
    if not isinstance(attack_id, str) or attack_id not in CATALOG:
        raise UnsupportedAttackError(f"no catalog attack {attack_id!r}")
    return AttackSpec(protocol, attack_id[2:])


def catalog_ids(protocol: Optional[str] = None) -> list[str]:
    """All measure-resend / intercept-resend attack ids, optionally per protocol."""
    return [aid for aid in CATALOG if protocol is None or aid[0] == protocol.lower()]


# Sources an adversary may legitimately learn bits from, in the order that
# ``AdversaryKnowledge.source`` indexes.  Anything else would mean the attack
# peeked at another party's private state.
ALLOWED_SOURCES = ("own-measurement", "intercept-measurement", "retained-measurement")


class AdversaryKnowledge:
    """Bits and particles an attacker has legitimately acquired during one run.

    Bits are kept per batch position in int8 columns as long as the run's
    largest batch, -1 where the attacker has none: ``recorded`` holds bits
    it measured, ``source`` the index in ``ALLOWED_SOURCES`` of how it
    learned each, and ``fake_bits`` the bits of the fakes it sent.
    """

    def __init__(self, size: int):
        self.recorded = np.full(size, -1, dtype=np.int8)
        self.source = np.full(size, -1, dtype=np.int8)
        self.fake_bits = np.full(size, -1, dtype=np.int8)
        self.retained: Optional[ParticleBatch] = None   # genuine particles kept back

    def record(self, positions, bits, source: str) -> None:
        if source not in ALLOWED_SOURCES:
            raise SimulationError(f"bits at positions {positions} have unaudited "
                                  f"source {source!r}")
        self.recorded[positions] = bits
        self.source[positions] = ALLOWED_SOURCES.index(source)

    def keep(self, batch: ParticleBatch) -> None:
        self.retained = batch.copy()

    def guess_bits(self, source: str, positions: np.ndarray,
                   rng: np.random.Generator) -> np.ndarray:
        """The attacker's bits at ``positions`` from a catalog guess source.

        "recorded" are bits it measured, "fake" the bits of fakes it sent, and
        "retained" Z measurements of the genuine particles it kept back, made
        now in position order as a read-out: nothing reads them after.
        """
        if source == "recorded":
            return self.recorded[positions]
        if source == "fake":
            return self.fake_bits[positions]
        bits = self.retained.measure(positions, Basis.Z, rng, collapse=False)
        self.record(positions, bits, "retained-measurement")
        return bits


# ---------------------------------------------------------------------------
# Protocol A parties


class _Insider:
    """Mixin for a dishonest party: the honest party's constructor plus the
    adversary knowledge it shares with the attack's interceptors."""

    def __init__(self, role: str, size: int, knowledge: AdversaryKnowledge):
        super().__init__(role, size)
        self.knowledge = knowledge


class HonestPartyA:
    """Classical party for protocol A: MEASURE a random N-subset, REFLECT the rest.

    After its step the party holds its choices ``measured``, its ``result``
    per position (-1 where it reflected) and, once it announces,
    ``announced`` (True for MEASURE).
    """

    def __init__(self, role: str, n_measure: int):
        self.role = role
        self.n_measure = n_measure
        self.measured = self.announced = np.zeros(0, dtype=bool)
        self.result = np.zeros(0, dtype=np.int8)

    def act(self, batch: ParticleBatch, rng):
        """Z-measure a random ``n_measure``-subset, in position order."""
        self.measured = random_subset(len(batch), self.n_measure, rng)
        positions = np.flatnonzero(self.measured)
        self.result = np.full(len(batch), -1, dtype=np.int8)
        self.result[positions] = batch.measure(positions, Basis.Z, rng)

    def announce(self, rng):
        self.announced = self.measured

    def reported_results(self, positions: np.ndarray) -> np.ndarray:
        return self.result[positions]


class RecordingPartyA(_Insider, HonestPartyA):
    """Bob's intercept-resend step: the honest one, with every result also
    kept as his own measurement, which his return-leg fakes repeat."""

    def act(self, batch, rng):
        super().act(batch, rng)
        positions = np.flatnonzero(self.measured)
        self.knowledge.record(positions, self.result[positions], "own-measurement")


class ReflectAllPartyA(_Insider, HonestPartyA):
    """Measure-resend insider's step, after its leg tap Z-measured every
    particle: REFLECT everything, fabricate a MEASURE/REFLECT announcement
    of the honest sizes, and report the tapped bits when asked for results."""

    def act(self, batch, rng):
        self.measured = np.zeros(len(batch), dtype=bool)
        self.result = np.full(len(batch), -1, dtype=np.int8)

    def announce(self, rng):
        self.announced = random_subset(len(self.measured), self.n_measure, rng)

    def reported_results(self, positions):
        return self.knowledge.recorded[positions]


# ---------------------------------------------------------------------------
# Interceptors


def measure_all_interceptor(knowledge: AdversaryKnowledge,
                            source: str = "intercept-measurement"):
    """Z-measure every particle; record the bits as ``source`` (see ``CatalogEntry``)."""
    def intercept(batch, leg, rng):
        positions = np.arange(len(batch))
        knowledge.record(positions, batch.measure(positions, Basis.Z, rng), source)
    return intercept


def replace_with_fakes_interceptor(knowledge: AdversaryKnowledge):
    """Retain the genuine batch and substitute fresh Z-basis fakes.

    A fake repeats the bit the attacker recorded at its position, if any
    (protocol A's intercept-resend Bob reuses his own results); elsewhere it
    is a uniformly random Z state.
    """
    def intercept(batch, leg, rng):
        bits = knowledge.recorded[:len(batch)].copy()
        unknown = bits < 0
        k = int(np.count_nonzero(unknown))
        if k:
            bits[unknown] = rng.integers(2, size=k)
        knowledge.keep(batch)
        batch.fake(bits)
        knowledge.fake_bits[:len(batch)] = bits
    return intercept


def swap_back_interceptor(knowledge: AdversaryKnowledge):
    """Send on the genuine particles an earlier leg's fakes replaced, and
    keep back the ones arriving instead."""
    def intercept(batch, leg, rng):
        batch.states, knowledge.retained = knowledge.retained.states, batch.copy()
    return intercept


def entangle_measure_interceptors(pair: UnitaryPair) -> dict:
    """Apply the pair's first unitary on its outbound leg and the second on the
    return leg; each particle carries its own probe, initially |e0>.  A bare
    batch's rows are looked up in the pair's ``images``, a probed batch's
    rows are multiplied."""
    def make(which):
        u = (pair.first, pair.second)[which]

        def intercept(batch, leg, rng):
            if batch.probed:
                batch.states = apply_unitary_batch(batch.amplitudes(pair.probe_dim), u)
            else:
                batch.states = pair.images[which][batch.states]
        return intercept

    return {leg: make(which) for which, leg in enumerate(pair.legs)}


# ---------------------------------------------------------------------------
# Protocol B parties


class HonestPartyB:
    """Protocol B classical party: insert n fresh Z-basis particles and apply a
    uniformly random shuffle; the order is withheld until publication.

    The order is a permutation array: output position q carries combined
    particle ``order[q]``, where the received particles come first and the
    inserted ones follow.
    """

    def __init__(self, role: str, n: int):
        self.role = role
        self.n = n
        self.prepared_bits = np.zeros(0, dtype=np.int8)
        self.order = np.zeros(0, dtype=np.intp)

    def fresh_particles(self, rng) -> ParticleBatch:
        """n fresh |bit> particles; a Z-basis state's BB84 code is its bit."""
        self.prepared_bits = rng.integers(2, size=self.n).astype(np.int8)
        return ParticleBatch(self.prepared_bits)

    def process(self, batch, rng):
        combined = ParticleBatch.concat(batch, self.fresh_particles(rng))
        self.order = rng.permutation(len(combined))
        batch.states = combined.states[self.order]

    def published_order(self) -> np.ndarray:
        return self.order

    def reveal_prepared(self, final_positions: np.ndarray, origins: np.ndarray) -> np.ndarray:
        return self.prepared_bits[origins]


class LyingRevealPartyB(_Insider, HonestPartyB):
    """Protocol B Bob intercept-resend: the honest insertion step, but TEST
    reveals quote the fake bits substituted on the return leg."""

    def reveal_prepared(self, final_positions, origins):
        fake = self.knowledge.fake_bits[final_positions]
        return np.where(fake >= 0, fake, super().reveal_prepared(final_positions, origins))


class InterceptResendPartyB(LyingRevealPartyB):
    """Protocol B Charlie intercept-resend: keep the incoming batch, send a full
    complement of fresh Z-basis fakes under a fabricated order, and lie about
    her own TEST particles using the fake bits.  Her fakes are her insertion
    step, so no leg carries them."""

    def process(self, batch, rng):
        self.knowledge.keep(batch)
        total = len(batch) + len(self.fresh_particles(rng))
        bits = rng.integers(2, size=total)
        self.knowledge.fake_bits[:total] = bits
        self.order = rng.permutation(total)
        batch.fake(bits)


# ---------------------------------------------------------------------------
# The catalog


@dataclass(frozen=True)
class CatalogEntry:
    """How the simulator realizes one catalog attack.

    ``legs`` maps a channel leg to the interceptor factory placed on it,
    which alone touches particles in flight; a tap at the end of an
    insider's own incoming leg records "own-measurement", any other tap
    "intercept-measurement".  ``parties`` maps a role to the party class
    that replaces the honest one in what it announces, reports or reveals.
    ``guess`` maps each targeted key ("k_b", "k_c") to the source of the
    attacker's guesses (see ``AdversaryKnowledge.guess_bits``), or to None
    when the attack learns nothing about it.

    Knowledge positions are those of the batch on the leg the attacker acts
    on, and a guess reads them at each untested key carrier's position on
    that leg.  In protocol B they change from leg to leg, as parties insert
    and reorder particles, and no entry records on two legs.  An entry with
    no return-leg tap is read through Charlie's published order, and has
    no k_c source: her insertions never reach it.
    """

    legs: dict = field(default_factory=dict)
    parties: dict = field(default_factory=dict)
    guess: dict = field(default_factory=dict)


A2B, B2C, C2A = LEG_ORDER
_MEASURE, _FAKES = measure_all_interceptor, replace_with_fakes_interceptor
_OWN_MEASURE = partial(measure_all_interceptor, source="own-measurement")
_BOTH_RECORDED = {"k_b": "recorded", "k_c": "recorded"}
_BOTH_RETAINED = {"k_b": "retained", "k_c": "retained"}
_NOTHING = {"k_b": None, "k_c": None}

# In order: the CLI, the benchmark and the oracle tests iterate over it.
CATALOG: dict[str, CatalogEntry] = {
    # Protocol A.  Insiders after the other party's key-case bits.
    "a.mr.bob.1": CatalogEntry(legs={A2B: _OWN_MEASURE},
                               parties={"bob": ReflectAllPartyA},
                               guess={"k_c": "recorded"}),
    "a.mr.bob.2": CatalogEntry(legs={C2A: _MEASURE}, guess={"k_c": "recorded"}),
    "a.mr.charlie.1": CatalogEntry(legs={A2B: _MEASURE},
                                   parties={"charlie": ReflectAllPartyA},
                                   guess={"k_b": "recorded"}),
    "a.mr.charlie.2": CatalogEntry(legs={B2C: _OWN_MEASURE},
                                   parties={"charlie": ReflectAllPartyA},
                                   guess={"k_b": "recorded"}),
    # Retained particles at Case 3 positions are Charlie's collapsed states.
    # Bob's return-leg fakes repeat his own result where he measured.
    "a.ir.bob": CatalogEntry(legs={C2A: _FAKES}, parties={"bob": RecordingPartyA},
                             guess={"k_c": "retained"}),
    # Bob measured Charlie's fakes, so his bits equal the fake bits.
    "a.ir.charlie.1": CatalogEntry(legs={A2B: _FAKES}, guess={"k_b": "fake"}),
    # Charlie then swaps the genuine particles back in before her step.
    "a.ir.charlie.2": CatalogEntry(legs={A2B: _FAKES, B2C: swap_back_interceptor},
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
    "b.mr.charlie": CatalogEntry(legs={B2C: _OWN_MEASURE}, guess={"k_b": "recorded"}),
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


# ---------------------------------------------------------------------------
# Attack plans


class AttackPlan:
    """Everything a run of ``protocol`` needs to realize ``spec``, None for
    no attack; ``attack_id`` is the id its transcript records and ``size``
    the length of its knowledge columns."""

    def __init__(self, spec: Optional[AttackSpec], protocol: str, size: int):
        self.protocol = protocol
        self.attack_id = attack_id_of(spec, protocol)
        self.knowledge = AdversaryKnowledge(size)
        self.entry = CATALOG.get(self.attack_id, _NO_ATTACK)
        if spec is not None and spec.pair is not None:
            self.interceptors = entangle_measure_interceptors(spec.pair)
        else:
            self.interceptors = {leg: make(self.knowledge)
                                 for leg, make in self.entry.legs.items()}

    def party(self, role: str, size: int):
        """The party playing ``role``: the entry's override, else the honest one."""
        override = self.entry.parties.get(role)
        if override is not None:
            return override(role, size, self.knowledge)
        return (HonestPartyA if self.protocol == "A" else HonestPartyB)(role, size)

    def interceptor(self, leg: Leg):
        return self.interceptors.get(leg)

    @property
    def target(self) -> Optional[str]:
        """Which key string the attack is after: k_b, k_c, or both (Eve)."""
        guess = self.entry.guess
        if not guess:
            return None
        if len(guess) == 2:
            return "both"
        return next(iter(guess))

    # -- key guessing -------------------------------------------------------

    def guess_a(self, k_b_positions: np.ndarray, k_c_positions: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
        """The attacker's bits for the untested key carriers, given by their
        knowledge positions: k_b's carriers, then k_c's, each read from the
        entry's source for that key (``AdversaryKnowledge.guess_bits``), -1
        where the entry has none."""
        guesses = []
        for key, positions in (("k_b", k_b_positions), ("k_c", k_c_positions)):
            source = self.entry.guess.get(key)
            guesses.append(np.full(len(positions), -1, dtype=np.int8) if source is None
                           else self.knowledge.guess_bits(source, positions, rng))
        return np.concatenate(guesses)

    def guess_b(self, k_b_positions: np.ndarray, k_c_positions: np.ndarray,
                charlie_order: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """``guess_a`` for the untested key carriers at their final positions.
        An attack with no return-leg tap saw the particles before Charlie's
        step, so their positions are mapped through her published order to
        her input's, where it recorded."""
        if C2A not in self.entry.legs:
            k_b_positions = charlie_order[k_b_positions]
            k_c_positions = charlie_order[k_c_positions]
        return self.guess_a(k_b_positions, k_c_positions, rng)


def build_attack_plan(spec: Optional[AttackSpec], protocol: str, size: int) -> AttackPlan:
    """The plan for a run of ``protocol`` whose largest batch holds ``size``
    particles."""
    if spec is not None and spec.protocol != protocol:
        raise UnsupportedAttackError(
            f"attack {spec.attack_id} targets protocol {spec.protocol}, not {protocol}")
    return AttackPlan(spec, protocol, size)
