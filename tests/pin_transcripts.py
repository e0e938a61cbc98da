"""Re-pin the transcript digests that ``test_pinned_transcripts`` checks.

    PYTHONPATH=src python3 tests/pin_transcripts.py

The v1 digests below were pinned from the per-particle engine, whose
transcripts listed every particle.  Each pinned run is executed once with its
``runtime.transcript_digest`` binding wrapped to capture the payload.  The
payload is converted back to the v1 layout and hashed: a match shows that the
run made the same preparations, announcements, measurements and checks, so
no RNG draw moved.  The script then prints each run's digest in the current
layout, as the entries of ``test_harness.PINNED_V2``.  It exits 1 if a v1
digest or a payoff does not match.

Then come comment lines, one per ``<p>.none`` and per catalog id: the
sha256 over the transcript digests of 50 seeded trials at the pinned runs'
configs.  Each digest covers the run's payoff, so these lines show that no
attack moved a draw or a guess.  Last come comment lines, one per protocol
and probe dimension 1-3: the sha256 over the transcript digests of 40
seeded entangle-measure trials.  Their probe rows carry floats whose last
bits depend on the BLAS build, so they are compared between two checkouts
on one machine, as those of ``pin_tradeoff.py`` are, and not pinned in a
test.
``python3 tests/compare_pins.py <other checkout>`` runs this script and the
other pin scripts against both packages and prints every line that differs.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from sqss import protocol_a, protocol_b, runtime
from sqss.adversary import AttackSpec, catalog_ids, resolve_attack
from sqss.em_analysis import random_pair
from sqss.runtime import RunReport, transcript_digest

# (attack id, v1 transcript digest, payoff) of trial seed (3, 1) per attack.
# Thresholds of 1.0 let every run score its payoff.
PINNED_RUNS = [
    ("a.none", "9afa32acab3637a57de6e0c54cb5ca59cc05e7037c882e2b26d0c9612b01d3aa", None),
    ("a.ir.bob", "1d1ccef13688fd4f7397ece187103f809f208615685333053a6b046848b4442b",
     {"target": "k_c", "guessed": 6, "correct": 6, "fraction": 1.0}),
    ("a.mr.charlie.1", "2ff0e33cd2c9612299104a358bdf03ed2cb7a0391394cb44ed579091931fef26",
     {"target": "k_b", "guessed": 6, "correct": 6, "fraction": 1.0}),
    ("b.none", "79a0b7a132c07732c6583b76c23a32d733046a3c89036ce501426c7ba6afeadc", None),
    ("b.ir.charlie", "5611610f84a5830b7b1dfee4a79f1c1675b7926ae592e039987f85747ddf84fa",
     {"target": "k_b", "guessed": 8, "correct": 8, "fraction": 1.0}),
    ("b.mr.eve.3", "7c916b333d273951aa1210a9e67f693b678ac959ec9552b13852ea0a63e83da7",
     {"target": "both", "guessed": 16, "correct": 16, "fraction": 1.0}),
    ("a.em", "1bdde2d2e9cfc0bc51dc2ee74dfea93cf5993fd6eae7f11e28048aee4071806d", None),
    ("b.em", "d6b722f36e6aef880e2481c655f87882157da0f693405eb75470cb36c35b2b66", None),
]


# Trials per attack id in the catalog lines, and per protocol and probe
# dimension in the entangle-measure lines.
CATALOG_TRIALS = 50
EM_TRIALS = 40


def _em_spec(mode: str, probe_dim: int) -> AttackSpec:
    return AttackSpec(mode, "em",
                      pair=random_pair(mode, probe_dim, np.random.default_rng(5)))


def _runner(mode: str):
    """The pinned runs' config of ``mode`` and its run function."""
    if mode == "A":
        return (protocol_a.ProtocolAConfig(
            n=20, m=45, thresholds=protocol_a.default_thresholds(1.0)),
            protocol_a.run_protocol_a)
    return (protocol_b.ProtocolBConfig(n=16, thresholds=protocol_b.default_thresholds(1.0)),
            protocol_b.run_protocol_b)


def pinned_run(attack_id: str) -> tuple[RunReport, dict]:
    """Run one pinned trial; return its report and its transcript payload."""
    mode = attack_id[0].upper()
    spec = _em_spec(mode, 2) if attack_id.endswith(".em") else resolve_attack(mode, attack_id)
    config, run = _runner(mode)
    payloads = []
    encode = runtime.transcript_digest

    def capture(payload):
        payloads.append(payload)
        return encode(payload)

    runtime.transcript_digest = capture
    try:
        report = run(config, spec, (3, 1))
    finally:
        runtime.transcript_digest = encode
    (payload,) = payloads
    return report, payload


_CHOICES = {"M": "MEASURE", "R": "REFLECT"}


def _v1_order(order: list, n_incoming: int) -> list:
    return [["incoming", i] if i < n_incoming else ["sift", i - n_incoming] for i in order]


def v1_payload(payload: dict) -> dict:
    """A transcript payload in the v1 layout: one list entry per particle, and
    no schema, keys or payoff."""
    v1 = {key: payload[key] for key in ("protocol", "seed", "attack", "checks", "aborted")}
    v1["prepared"] = list(payload["prepared"])
    if payload["protocol"] == "A":
        bob, charlie = payload["announced"]
        v1["announced"] = [[_CHOICES[b], _CHOICES[c]] for b, c in zip(bob, charlie)]
        bases, bits = payload["alice"]
        v1["alice"] = [[basis, int(bit)] for basis, bit in zip(bases, bits)]
    else:
        n = len(payload["prepared"])
        v1["bob_pub"] = _v1_order(payload["bob_pub"], n)
        v1["charlie_pub"] = _v1_order(payload["charlie_pub"], 2 * n)
        v1["outcomes"] = [int(bit) for bit in payload["outcomes"]]
    return v1


def v1_digest(payload: dict) -> str:
    return transcript_digest(v1_payload(payload)).hex()


def trials_digest(mode: str, spec, trials: int) -> str:
    """The sha256 over the transcript digests of trials (3, 0), (3, 1), ...
    of ``spec`` against ``mode``."""
    config, run = _runner(mode)
    sha = hashlib.sha256()
    for trial in range(trials):
        sha.update(run(config, spec, (3, trial)).transcript_digest.encode())
    return sha.hexdigest()


def main() -> int:
    status = 0
    for attack_id, digest, payoff in PINNED_RUNS:
        report, payload = pinned_run(attack_id)
        if v1_digest(payload) != digest or report.payoff != payoff:
            print(f"{attack_id}: the v1 digest or the payoff changed", file=sys.stderr)
            status = 1
        print(f'    "{attack_id}": "{report.transcript_digest}",')
    for mode in ("A", "B"):
        for attack_id in (f"{mode.lower()}.none", *catalog_ids(mode)):
            print(f"    # {attack_id}, {CATALOG_TRIALS} trials: "
                  f"{trials_digest(mode, resolve_attack(mode, attack_id), CATALOG_TRIALS)}")
    for mode in ("A", "B"):
        for probe_dim in (1, 2, 3):
            print(f"    # {mode.lower()}.em d={probe_dim}, {EM_TRIALS} trials: "
                  f"{trials_digest(mode, _em_spec(mode, probe_dim), EM_TRIALS)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
