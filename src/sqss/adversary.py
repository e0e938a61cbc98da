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

from .qstate import (
    Basis,
    CompositeState,
    PureState,
    check_unitary,
    lift,
    measure,
    measure_qubit,
    zstate,
)
from .runtime import Choice, Leg, LEG_ORDER, SimulationError


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


@dataclass
class AdversaryKnowledge:
    """Bits and particles an attacker has legitimately acquired during one run."""

    recorded: dict = field(default_factory=dict)    # position -> bit
    fake_bits: dict = field(default_factory=dict)   # position -> bit of the fake sent
    retained: dict = field(default_factory=dict)    # position -> genuine state kept back
    provenance: dict = field(default_factory=dict)  # position -> source tag

    def record(self, pos: int, bit: int, source: str) -> None:
        if source not in ALLOWED_SOURCES:
            raise SimulationError(f"bit at position {pos} has unaudited source {source!r}")
        self.recorded[pos] = bit
        self.provenance[pos] = source

    def note_fake(self, pos: int, bit: int) -> None:
        self.fake_bits[pos] = bit
        self.provenance.setdefault(pos, "own-fake")

    def keep(self, pos: int, state) -> None:
        self.retained[pos] = state

    def measure_retained(self, pos: int, rng: np.random.Generator) -> int:
        state = self.retained[pos]
        if isinstance(state, CompositeState):
            bit, _ = measure_qubit(state, Basis.Z, rng)
        else:
            bit, _ = measure(state, Basis.Z, rng)
        self.record(pos, bit, "retained-measurement")
        return bit

    def guess_bit(self, source: str, pos: int, rng: np.random.Generator) -> Optional[int]:
        """The attacker's bit for ``pos`` from a catalog guess source, or None.

        "recorded" is a bit it measured, "fake" the bit of a fake it sent, and
        "retained" a Z measurement of the genuine particle it kept back.
        """
        if source == "recorded":
            return self.recorded.get(pos)
        if source == "fake":
            return self.fake_bits.get(pos)
        return self.measure_retained(pos, rng) if pos in self.retained else None


# ---------------------------------------------------------------------------
# Protocol A parties


def _get_choice(record, role):
    return record.bob_choice if role == "bob" else record.charlie_choice


def _set_choice(record, role, choice):
    if role == "bob":
        record.bob_choice = choice
    else:
        record.charlie_choice = choice


def _get_result(record, role):
    return record.bob_result if role == "bob" else record.charlie_result


def _set_result(record, role, bit):
    if role == "bob":
        record.bob_result = bit
    else:
        record.charlie_result = bit


def _set_announced(record, role, choice):
    if role == "bob":
        record.announced_bob_choice = choice
    else:
        record.announced_charlie_choice = choice


def _measure_in_flight(record, basis, rng):
    if isinstance(record.in_flight, CompositeState):
        bit, collapsed = measure_qubit(record.in_flight, basis, rng)
    else:
        bit, collapsed = measure(record.in_flight, basis, rng)
    record.in_flight = collapsed
    return bit


def _random_subset(total: int, size: int, rng: np.random.Generator) -> set[int]:
    return set(int(i) for i in rng.choice(total, size=size, replace=False))


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

    def act(self, records, rng):
        chosen = _random_subset(len(records), self.n_measure, rng)
        for r in records:
            if r.index in chosen:
                _set_choice(r, self.role, Choice.MEASURE)
                _set_result(r, self.role, _measure_in_flight(r, Basis.Z, rng))
            else:
                _set_choice(r, self.role, Choice.REFLECT)

    def announce(self, records, rng):
        for r in records:
            _set_announced(r, self.role, _get_choice(r, self.role))

    def reported_result(self, record) -> int:
        return _get_result(record, self.role)


class MeasureAllPartyA(_Insider, HonestPartyA):
    """Measure-resend insider: Z-measure every particle at its own step, then
    fabricate a MEASURE/REFLECT announcement of the honest sizes."""

    def act(self, records, rng):
        for r in records:
            _set_choice(r, self.role, Choice.MEASURE)
            bit = _measure_in_flight(r, Basis.Z, rng)
            _set_result(r, self.role, bit)
            self.knowledge.record(r.index, bit, "own-measurement")

    def announce(self, records, rng):
        fake_measure = _random_subset(len(records), self.n_measure, rng)
        for r in records:
            _set_announced(r, self.role, Choice.MEASURE if r.index in fake_measure
                           else Choice.REFLECT)


class ReflectAllPartyA(MeasureAllPartyA):
    """Charlie's first measure-resend variant: Z-measure in transit before Bob
    (done by an interceptor), REFLECT everything at her own step, fabricate the
    announcement, and report the transit bits when asked for results."""

    def act(self, records, rng):
        for r in records:
            _set_choice(r, self.role, Choice.REFLECT)

    def reported_result(self, record) -> int:
        return self.knowledge.recorded[record.index]


class SwapBackPartyA(_Insider, HonestPartyA):
    """Charlie's second intercept-resend choice: run her step on the retained
    genuine particles instead of the ones arriving from Bob."""

    def act(self, records, rng):
        for r in records:
            # Bob's outgoing particle stays in her hand; the genuine one goes on.
            genuine = self.knowledge.retained.pop(r.index)
            self.knowledge.keep(r.index, r.in_flight)
            r.in_flight = genuine
        super().act(records, rng)


# ---------------------------------------------------------------------------
# Interceptors


def measure_all_interceptor(knowledge: AdversaryKnowledge):
    def intercept(batch, leg, rng):
        for pos, p in enumerate(batch):
            if hasattr(p, "in_flight"):
                bit = _measure_in_flight(p, Basis.Z, rng)
                knowledge.record(p.index, bit, "intercept-measurement")
            else:
                bit = _z_collapse_particle(p, rng)
                knowledge.record(pos, bit, "intercept-measurement")
        return batch
    return intercept


def _z_collapse_particle(particle, rng):
    """Z-measure a protocol B particle in flight."""
    if isinstance(particle.state, CompositeState):
        bit, collapsed = measure_qubit(particle.state, Basis.Z, rng)
    else:
        bit, collapsed = measure(particle.state, Basis.Z, rng)
    particle.state = collapsed
    return bit


def replace_with_fakes_interceptor(knowledge: AdversaryKnowledge,
                                   informed_bit=None):
    """Retain the genuine batch and substitute fresh Z-basis fakes.

    ``informed_bit(item, pos)`` may supply a known bit for a position (the
    intercept-resend attacker reuses its own measurement results there);
    elsewhere the fake is a uniformly random Z state.
    """
    def intercept(batch, leg, rng):
        for pos, p in enumerate(batch):
            is_record = hasattr(p, "in_flight")
            key = p.index if is_record else pos
            bit = informed_bit(p, pos) if informed_bit is not None else None
            if bit is None:
                bit = int(rng.integers(2))
            if is_record:
                knowledge.keep(key, p.in_flight)
                p.in_flight = zstate(bit)
            else:
                knowledge.keep(key, p.state)
                p.state = zstate(bit)
                p.tag = "FAKE"
                p.origin = None
            knowledge.note_fake(key, bit)
        return batch
    return intercept


def _bob_measured_bit(record, pos):
    return record.bob_result if record.bob_choice is Choice.MEASURE else None


def entangle_measure_interceptors(pair: UnitaryPair) -> dict:
    """Apply the pair's first unitary on its outbound leg and the second on the
    return leg; each particle carries its own probe, initially |e0>."""
    d = pair.probe_dim

    def attach_and_apply(state, u):
        if isinstance(state, PureState):
            state = lift(state, d)
        return CompositeState(u @ state.amps, state.dim_probe)

    def make(u):
        def intercept(batch, leg, rng):
            for p in batch:
                if hasattr(p, "in_flight"):
                    p.in_flight = attach_and_apply(p.in_flight, u)
                else:
                    p.state = attach_and_apply(p.state, u)
            return batch
        return intercept

    first_leg, second_leg = pair.legs
    return {first_leg: make(pair.first), second_leg: make(pair.second)}


# ---------------------------------------------------------------------------
# Protocol B parties


class HonestPartyB:
    """Protocol B classical party: insert n fresh Z-basis particles and apply a
    uniformly random shuffle; the order is withheld until publication."""

    SIFT_TAG = {"bob": "SIFT_B", "charlie": "SIFT_C"}

    def __init__(self, role: str, n: int):
        self.role = role
        self.n = n
        self.prepared_bits: list[int] = []
        self.order: list[tuple[str, int]] = []

    def fresh_particles(self, rng):
        from .protocol_b import TaggedParticle
        self.prepared_bits = [int(b) for b in rng.integers(2, size=self.n)]
        tag = self.SIFT_TAG[self.role]
        return [TaggedParticle(state=zstate(b), tag=tag, origin=j)
                for j, b in enumerate(self.prepared_bits)]

    def process(self, incoming, rng):
        combined = list(incoming) + self.fresh_particles(rng)
        n_in = len(incoming)
        perm = [int(i) for i in rng.permutation(len(combined))]
        outgoing = [combined[i] for i in perm]
        self.order = [("incoming", i) if i < n_in else ("sift", i - n_in) for i in perm]
        return outgoing

    def published_order(self):
        return list(self.order)

    def reveal_prepared(self, final_pos: int, origin: int) -> int:
        return self.prepared_bits[origin]


class MeasureResendPartyB(_Insider, HonestPartyB):
    """Protocol B Charlie measure-resend: Z-measure every incoming particle,
    resend the found states, then run the honest step."""

    def process(self, incoming, rng):
        for pos, p in enumerate(incoming):
            bit = _z_collapse_particle(p, rng)
            self.knowledge.record(pos, bit, "own-measurement")
        return super().process(incoming, rng)


class InterceptResendPartyB(_Insider, HonestPartyB):
    """Protocol B Charlie intercept-resend: keep the incoming batch, send a full
    complement of fresh Z-basis fakes under a fabricated order, and lie about
    her own TEST particles using the fake bits."""

    def process(self, incoming, rng):
        from .protocol_b import TaggedParticle
        n_in = len(incoming)
        for pos, p in enumerate(incoming):
            self.knowledge.keep(pos, p.state)
        self.prepared_bits = [int(b) for b in rng.integers(2, size=self.n)]
        total = n_in + self.n
        fakes = []
        for pos in range(total):
            bit = int(rng.integers(2))
            self.knowledge.note_fake(pos, bit)
            fakes.append(TaggedParticle(state=zstate(bit), tag="FAKE", origin=None))
        perm = [int(i) for i in rng.permutation(total)]
        self.order = [("incoming", i) if i < n_in else ("sift", i - n_in) for i in perm]
        return fakes

    def reveal_prepared(self, final_pos: int, origin: int) -> int:
        return self.knowledge.fake_bits[final_pos]


class LyingRevealPartyB(_Insider, HonestPartyB):
    """Protocol B Bob intercept-resend: the honest insertion step, but TEST
    reveals quote the fake bits substituted on the return leg."""

    def reveal_prepared(self, final_pos: int, origin: int) -> int:
        if final_pos in self.knowledge.fake_bits:
            return self.knowledge.fake_bits[final_pos]
        return super().reveal_prepared(final_pos, origin)


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
_BOB_INFORMED_FAKES = partial(replace_with_fakes_interceptor, informed_bit=_bob_measured_bit)
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
_SIFT_KEY = {"SIFT_B": "k_b", "SIFT_C": "k_c"}


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

    def _guesses(self, carriers, rng):
        """(key, label, bit) for each (position, key, label) carrier whose key
        the entry has a guess source for, in carrier order."""
        for pos, key, label in carriers:
            source = self.entry.guess.get(key)
            if source is not None:
                bit = self.knowledge.guess_bit(source, pos, rng)
                if bit is not None:
                    yield key, label, bit

    def guess_a(self, context, rng: np.random.Generator) -> dict[int, int]:
        """Best guess of the targeted key-case bits, from knowledge alone.

        ``context`` carries the key-relevant particle indices per case
        (``k_b_positions`` for Case 2, ``k_c_positions`` for Case 3).
        """
        carriers = ([(idx, "k_b", idx) for idx in context.k_b_positions]
                    + [(idx, "k_c", idx) for idx in context.k_c_positions])
        return {idx: bit for _, idx, bit in self._guesses(carriers, rng)}

    def guess_b(self, context, rng: np.random.Generator) -> dict:
        """Guess the targeted parties' prepared SIFT bits.

        Returns ``{"k_b": {origin: bit}, "k_c": {origin: bit}}``; ``context``
        carries both published orders and the resolved final positions.
        """
        if C2A in self.entry.legs:
            # Seen on the return leg: positions are Alice's final ones.
            carriers = [(pos, _SIFT_KEY.get(tag), origin)
                        for pos, (tag, origin) in context.resolved.items()]
        else:
            # Seen before Charlie's step: positions follow Bob's published order.
            carriers = [(q, "k_b", j) for q, (what, j) in enumerate(context.bob_pub)
                        if what == "sift"]
        out = {"k_b": {}, "k_c": {}}
        for key, origin, bit in self._guesses(carriers, rng):
            out[key][origin] = bit
        return out


def build_attack_plan(spec: Optional[AttackSpec], protocol: str) -> AttackPlan:
    if spec is None:
        spec = AttackSpec(protocol, "none")
    if spec.protocol != protocol:
        raise UnsupportedAttackError(
            f"attack {spec.attack_id} targets protocol {spec.protocol}, not {protocol}")
    return AttackPlan(spec)
