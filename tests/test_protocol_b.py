"""Tests for the insert-and-reorder circular protocol runner."""

import numpy as np
import pytest

from sqss import runtime
from sqss.adversary import HonestPartyB, resolve_attack
from sqss.protocol_b import (
    CTRL,
    SIFT_B,
    SIFT_C,
    ProtocolBConfig,
    default_thresholds,
    resolve_orders,
    run_protocol_b,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolBConfig(n=1)
    with pytest.raises(ValueError):
        ProtocolBConfig(n=5, test_fraction=1.0)
    with pytest.raises(ValueError):
        ProtocolBConfig(n=5, thresholds={"ctrl": 0.05})


def test_resolve_orders_small_instance():
    # Bob (n=2): output q carries combined particle bob[q]; 0-1 are received
    # CTRL particles, 2-3 his insertions.  Charlie: 0-3 are Bob's outputs,
    # 4-5 her insertions.
    bob = np.array([3, 0, 2, 1])
    charlie = np.array([5, 0, 4, 3, 1, 2])
    classes, origins = resolve_orders(bob, charlie, 2)
    assert classes.tolist() == [SIFT_C, SIFT_B, SIFT_C, CTRL, CTRL, SIFT_B]
    assert origins.tolist() == [1, 1, 0, 1, 0, 0]


def test_resolve_orders_rejects_malformed():
    bob, charlie = [1, 0], [1, 2, 0]
    assert resolve_orders(np.array(bob), np.array(charlie), 1) is not None
    for bad_bob, bad_charlie in [
        (bob, [1, 2]),                     # Charlie's order too short
        ([1, 0, 2], charlie),              # Bob's order too long
        ([1, 1], charlie),                 # duplicate entry
        (bob, [1, 2, 2]),
        (bob, [1, 3, 0]),                  # out of range
        ([-1, 0], charlie),
        ([1.0, 0.0], charlie),             # not integers
        ([[1, 0]], charlie),               # not one-dimensional
        ([("sift", 0), ("incoming", 0)], charlie),
    ]:
        assert resolve_orders(np.array(bad_bob), np.array(bad_charlie), 1) is None
    assert resolve_orders(bob, np.array(charlie), 1) is None  # a list, not an array


def test_resolved_classes_balanced_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        bob, charlie = rng.permutation(2 * n), rng.permutation(3 * n)
        classes, origins = resolve_orders(bob, charlie, n)
        for cls in (CTRL, SIFT_B, SIFT_C):
            assert sorted(origins[classes == cls].tolist()) == list(range(n))
        # Final position p: Charlie's insertion, else whatever Bob put there.
        for p, c in enumerate(charlie.tolist()):
            want = ((SIFT_C, c - 2 * n) if c >= 2 * n
                    else (SIFT_B, bob[c] - n) if bob[c] >= n else (CTRL, bob[c]))
            assert (classes[p], origins[p]) == want


def _tamper(monkeypatch, method: str, role: str, change) -> None:
    """Make the honest ``role`` party pass its ``method`` result through
    ``change``.  A ``process`` step changes its batch in place, so there
    ``change`` maps the batch's states after the step."""
    honest = getattr(HonestPartyB, method)

    def tampered(self, *args):
        out = honest(self, *args)
        if self.role != role:
            return out
        if method != "process":
            return change(out)
        batch = args[0]
        batch.states = change(batch.states)
    monkeypatch.setattr(HonestPartyB, method, tampered)


def _assert_malformed_aborts(seed: int) -> None:
    # Thresholds of 1.0: only the malformed announcement can stop the run
    # before the attack's payoff is scored.
    config = ProtocolBConfig(n=8, thresholds=default_thresholds(1.0))
    attack = resolve_attack("B", "b.mr.eve.3")
    first, again = (run_protocol_b(config, attack, seed) for _ in range(2))
    assert first.aborted and first.abort_reason == "malformed announcement"
    assert first.payoff is None and first.keys is None
    assert first.digest == again.digest


@pytest.mark.parametrize("role, change", [
    ("bob", lambda order: order[:-1]),
    ("charlie", lambda order: np.concatenate([order, [len(order)]])),
    ("charlie", lambda order: np.where(order == 0, 1, order)),
    ("bob", lambda order: order.astype(float)),
], ids=["bob-short", "charlie-long", "charlie-duplicate", "bob-float"])
def test_malformed_order_aborts_the_run(monkeypatch, role, change):
    _tamper(monkeypatch, "published_order", role, change)
    _assert_malformed_aborts(seed=3)


def test_wrong_particle_count_aborts_the_run(monkeypatch):
    _tamper(monkeypatch, "process", "charlie", lambda states: states[1:])
    _assert_malformed_aborts(seed=3)


def test_transcript_records_the_published_orders(monkeypatch):
    orders, payloads = [], []
    honest = HonestPartyB.published_order
    monkeypatch.setattr(HonestPartyB, "published_order",
                        lambda self: orders.append(honest(self)) or orders[-1])
    encode = runtime.transcript_digest
    monkeypatch.setattr(runtime, "transcript_digest",
                        lambda payload: payloads.append(payload) or encode(payload))
    run_protocol_b(ProtocolBConfig(n=8), None, 4)
    (payload,) = payloads
    bob, charlie = orders
    assert payload["schema"] == 2
    assert payload["bob_pub"] == bob.tolist()
    assert payload["charlie_pub"] == charlie.tolist()


def test_ctrl_check_compares_every_ctrl_particle():
    config = ProtocolBConfig(n=24)
    report = run_protocol_b(config, None, 7)
    assert report.check("ctrl").compared == 24
    assert report.check("test_b").compared == 12
    assert report.check("test_c").compared == 12
    assert len(report.keys.k_b) == 12


def test_run_is_deterministic_in_seed():
    config = ProtocolBConfig(n=10)
    a = run_protocol_b(config, None, 9)
    b = run_protocol_b(config, None, 9)
    assert a.transcript_digest == b.transcript_digest
    assert a.transcript_digest != run_protocol_b(config, None, 10).transcript_digest


def test_measure_resend_aborts_on_strict_threshold():
    config = ProtocolBConfig(n=40, thresholds=default_thresholds(0.0))
    attack = resolve_attack("B", "b.mr.charlie")
    aborted = sum(run_protocol_b(config, attack, seed).aborted for seed in range(10))
    assert aborted == 10
