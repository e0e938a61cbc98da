"""Tests for the two-unitary probe attack analysis and tradeoff search."""

import numpy as np
import pytest
from scipy.linalg import block_diag

from sqss import em_analysis
from sqss.adversary import UnitaryPair
from sqss.em_analysis import (
    bit_copy_pair,
    constrained_search,
    error_profile,
    identity_pair,
    pair_from_params,
    params_dim,
    params_from_unitary,
    probe_distinguishability,
    probe_only_pair,
    random_pair,
    random_unitary,
    random_zero_error_pair,
    theorem_check,
    unitary_from_params,
)
from sqss.oracle import detection_oracle
from sqss.qstate import PrepState


def test_branch_decompose_identity():
    branches = em_analysis._measured_branches(identity_pair("A", 2))
    z0 = branches[(PrepState.ZERO, 0)][0]
    assert np.allclose(z0, [1, 0])
    assert np.allclose(branches[(PrepState.ZERO, 1)][0], 0)
    plus0 = branches[(PrepState.PLUS, 0)][0]
    assert np.linalg.norm(plus0) == pytest.approx(1 / np.sqrt(2))


def test_identity_pair_induces_no_error_or_information():
    for mode in ("A", "B"):
        pair = identity_pair(mode, 2)
        assert error_profile(pair).max_rate <= 1e-12
        assert probe_distinguishability(pair) <= 1e-8


def test_bit_copy_pair_quarter_error_full_information():
    for mode in ("A", "B"):
        pair = bit_copy_pair(mode, 2)
        profile = error_profile(pair)
        if mode == "A":
            # copying the transit Z bit is invisible to Z-basis checks but
            # scrambles reflected X-basis particles half the time
            assert profile.rates["case1"] == pytest.approx(0.0, abs=1e-12)
            assert profile.rates["case4"] == pytest.approx(0.25)
        else:
            assert profile.rates["ctrl"] == pytest.approx(0.25)
            assert profile.rates["test_b"] == pytest.approx(0.0, abs=1e-12)
        assert probe_distinguishability(pair) == pytest.approx(1.0)


def test_probe_only_pair_is_invisible_to_every_check():
    rng = np.random.default_rng(5)
    for mode in ("A", "B"):
        pair = probe_only_pair(mode, 2, random_unitary(2, rng),
                               random_unitary(2, rng), 0.3, 1.1)
        assert error_profile(pair).max_rate <= 1e-12
        assert probe_distinguishability(pair) <= 1e-8


def test_theorem_check_verdicts():
    ident = theorem_check(identity_pair("A", 2))
    assert ident.zero_error and ident.holds
    assert ident.max_residual <= 1e-8

    noisy = theorem_check(bit_copy_pair("A", 2))
    assert not noisy.zero_error
    assert noisy.holds is None
    assert noisy.max_error == pytest.approx(0.25)


def test_theorem_check_decomposes_the_first_unitary_once(monkeypatch):
    """Each mode builds its table once per theorem_check and every check
    reads it: the branch table in mode A, the chain states in mode B."""
    rng = np.random.default_rng(19)
    for mode, table_fn in (("A", "_measured_branches"), ("B", "_chain_states_b")):
        pair = random_zero_error_pair(mode, 2, rng)
        calls = []
        build = getattr(em_analysis, table_fn)

        def counting(*args, build=build, calls=calls):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(em_analysis, table_fn, counting)
        verdict = theorem_check(pair)
        assert verdict.zero_error and verdict.holds
        assert len(calls) == 1
        # Sharing the table changes no value.
        assert verdict.max_error == error_profile(pair).max_rate
        assert verdict.distinguishability == probe_distinguishability(pair)


def test_zero_error_family_satisfies_structure_mode_a():
    rng = np.random.default_rng(17)
    for _ in range(25):
        pair = random_zero_error_pair("A", 2, rng)
        verdict = theorem_check(pair)
        assert verdict.zero_error
        assert verdict.holds
        assert verdict.distinguishability <= 1e-8


def test_random_pairs_are_generically_detectable():
    rng = np.random.default_rng(23)
    for mode in ("A", "B"):
        for _ in range(10):
            pair = random_pair(mode, 2, rng)
            assert error_profile(pair).max_rate > 1e-6


def test_params_unitary_round_trip():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        u = random_unitary(2 * d, rng)
        params = params_from_unitary(u)
        assert params.shape == (params_dim(d),)
        back = unitary_from_params(params, d)
        assert np.allclose(back, u, atol=1e-10)


def test_pair_from_params_builds_valid_pair():
    npar = params_dim(2)
    pair = pair_from_params("B", 2, np.zeros(npar), np.zeros(npar))
    assert isinstance(pair, UnitaryPair)
    assert error_profile(pair).max_rate <= 1e-12


def test_search_rejects_bad_budgets():
    with pytest.raises(ValueError):
        constrained_search("A", -0.1)
    with pytest.raises(ValueError):
        constrained_search("A", 0.6)
    with pytest.raises(ValueError):
        constrained_search("A", 0.1, restarts=0)


def test_search_zero_budget_mode_a_finds_nothing():
    point = constrained_search("A", 0.0, restarts=2, iters=5, seed=0)
    assert point.max_error <= 1e-9
    assert point.info <= 1e-6


def test_search_quarter_budget_reaches_full_information():
    for mode in ("A", "B"):
        point = constrained_search(mode, 0.25, restarts=2, iters=5, seed=0)
        assert point.max_error <= 0.25 + 1e-9
        assert point.info == pytest.approx(1.0, abs=1e-6)
        assert not point.fallback


def test_insert_reorder_checks_blind_to_undone_controlled_rotation():
    """A controlled probe rotation applied on the middle leg and undone on the
    return leg passes every check of the insert-and-reorder protocol exactly,
    yet the probe retains a near-perfect record of the middle party's key bit.
    This is a genuine structural weakness of checks that never measure the
    middle party's inserted particles in the conjugate basis."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    u_h = block_diag(np.eye(2), flip)
    u_g = u_h.conj().T
    pair = UnitaryPair(first=u_g, second=u_h, probe_dim=2, protocol="B")
    assert error_profile(pair).max_rate <= 1e-12
    verdict = theorem_check(pair)
    assert verdict.zero_error
    assert verdict.distinguishability == pytest.approx(1.0)
    assert not verdict.holds


def test_bit_copy_needs_two_probe_levels():
    for probe_dim in (0, 1, 2.0):
        with pytest.raises(ValueError, match="probe_dim"):
            bit_copy_pair("A", probe_dim)
    with pytest.raises(ValueError, match="probe_dim must be at least 2"):
        constrained_search("B", 0.1, probe_dim=1, restarts=1, iters=1)


@pytest.mark.parametrize("mode, attack_id", [("A", "a.mr.eve.1"), ("B", "b.mr.eve.2")])
def test_bit_copy_pair_matches_the_oracle_outsider_measure_resend(mode, attack_id):
    """Copying the Z bit into a probe on the pair's first leg is Eve's
    measure-resend attack on that leg: the closed-form error rates equal the
    exact oracle's."""
    rates = error_profile(bit_copy_pair(mode, 2), mode).rates
    exact = detection_oracle(mode, attack_id)
    assert rates.keys() == exact.keys()
    for check, p in exact.items():
        assert rates[check] == pytest.approx(float(p), abs=1e-12)
