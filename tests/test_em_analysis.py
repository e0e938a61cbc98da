"""Tests for the two-unitary probe attack analysis and tradeoff search."""

import dataclasses
import re

import numpy as np
import pytest
import reference_em_tables
import reference_search
import scipy.linalg
from pin_tradeoff import pairs as pin_pairs

from sqss import em_analysis
from sqss.adversary import UnitaryPair
from sqss.em_analysis import (
    FloatMap,
    TheoremVerdict,
    bit_copy_pair,
    constrained_search,
    error_profile,
    identity_pair,
    params_dim,
    probe_distinguishability,
    random_zero_error_pair,
    theorem_check,
    unitary_from_params,
)
from sqss.oracle import detection_oracle
from sqss.protocol_a import CHECKS_A
from sqss.protocol_b import CHECKS_B
from sqss.qstate import BB84_AMPS, PrepState, bb84_rows, check_unitary


@pytest.mark.parametrize("d", [1, 2, 3])
def test_branch_embedding_is_the_kronecker_product(d):
    """Each mode's table follows its journey.  On the ``tests/pin_tradeoff.py``
    pair set (seeded random and zero-error pairs, the identity and, from
    d = 2, the bit copy), built as one stack per mode, compared with ``==``:
    in mode A each branch phi[s, x] equals the second unitary applied to
    ``np.kron(|x>, eps)``, and psi and the reflected states equal the first
    unitary applied to each preparation and the second to that.  In mode B
    the return-leg states are the second unitary applied to the Z
    preparations, and the full chain is within 1e-15 of ``second @ first``
    applied to each preparation.  The identity's table of one has a vector
    per branch and reflected state in mode A, and leaves every preparation
    as it was in both modes."""
    rows = bb84_rows(d)
    for mode in ("A", "B"):
        pairs = pin_pairs(mode, d)
        firsts, seconds = (np.array([getattr(pair, leg) for pair in pairs])
                           for leg in ("first", "second"))
        pre, post = em_analysis._MODES[mode].table(firsts, seconds)
        for first, second, pre_row, post_row in zip(firsts, seconds, pre, post):
            if mode == "A":
                psi, phi, reflected = pre_row[8:], post_row[:8].reshape(4, 2, 2 * d), post_row[8:]
                assert np.array_equal(psi, rows @ first.T)
                assert np.array_equal(reflected, psi @ second.T)
                kron = np.array([[np.kron(BB84_AMPS[x], eps)
                                  for x, eps in enumerate(row.reshape(2, d))] for row in psi])
                assert np.array_equal(phi, kron @ second.T)
            else:
                assert np.array_equal(post_row[4:], rows[:2] @ second.T)
                assert np.abs(post_row[:4] - rows @ (second @ first).T).max() <= 1e-15
        identity = identity_pair(mode, d)
        pre, post = em_analysis._MODES[mode].table(identity.first[None], identity.second[None])
        assert pre.shape == post.shape == (1, 12 if mode == "A" else 6, 2 * d)
        assert np.array_equal(post[0, 8:] if mode == "A" else post[0, :4], rows)


def test_theorem_check_verdicts():
    """In both modes the identity disturbs no check, carries no information
    and satisfies every structural identity; the bit copy carries full
    information at error 1/4, so it has no structural verdict."""
    for mode in ("A", "B"):
        ident = identity_pair(mode, 2)
        assert error_profile(ident).max_rate <= 1e-12
        assert probe_distinguishability(ident) <= 1e-8
        verdict = theorem_check(ident)
        assert verdict.zero_error and verdict.holds
        assert verdict.max_residual <= 1e-8

        copy = bit_copy_pair(mode, 2)
        assert probe_distinguishability(copy) == pytest.approx(1.0)
        noisy = theorem_check(copy)
        assert not noisy.zero_error
        assert noisy.holds is None
        assert noisy.max_error == pytest.approx(0.25)


def _record_tables(monkeypatch):
    """Patch ``_Mode.table`` so that each build logs its mode's entry and
    the ``(first, second)`` it is given; returns the log."""
    table, calls = em_analysis._Mode.table, []

    def recording(self, first, second):
        calls.append((self, first, second))
        return table(self, first, second)

    monkeypatch.setattr(em_analysis._Mode, "table", recording)
    return calls


def test_theorem_check_decomposes_the_first_unitary_once(monkeypatch):
    """Each mode builds its table once per theorem_check and every check
    reads it."""
    rng = np.random.default_rng(19)
    calls = _record_tables(monkeypatch)
    for mode in ("A", "B"):
        pair = random_zero_error_pair(mode, 2, rng)
        calls.clear()
        verdict = theorem_check(pair)
        assert verdict.zero_error and verdict.holds
        assert len(calls) == 1 and calls[0][0] is em_analysis._MODES[mode]
        assert all(np.array_equal(u, [v]) for u, v in zip(calls[0][1:], (pair.first, pair.second)))
        # Sharing the table changes no value.
        assert verdict.max_error == error_profile(pair).max_rate
        assert verdict.distinguishability == probe_distinguishability(pair)


def test_each_reader_and_evaluation_validates_its_ensembles_in_one_check(monkeypatch):
    """A public reader of the information, and each stacked evaluation of
    the search, validates all the key-bit density matrices it builds, its
    whole ``(R, E, 2, d, d)`` ensemble stack, in one
    ``check_density_matrices`` call; ``error_profile`` reads none.  A fault
    in the last matrix of a stack is rejected."""
    checked, check = [], em_analysis.check_density_matrices

    def recording(mats):
        checked.append(mats.shape)
        check(mats)

    monkeypatch.setattr(em_analysis, "check_density_matrices", recording)
    rng = np.random.default_rng(29)
    for mode, kinds in (("A", 1), ("B", 2)):
        for read, shapes in ((error_profile, []), (probe_distinguishability, [(1, kinds, 2, 3, 3)]),
                             (theorem_check, [(1, kinds, 2, 3, 3)])):
            checked.clear()
            read(random_zero_error_pair(mode, 3, rng))
            assert checked == shapes
        checked.clear()
        thetas = rng.normal(size=(5, 2 * params_dim(2)))
        em_analysis._evaluate(em_analysis._MODES[mode], thetas, 2, 0.1)
        assert checked == [(5, kinds, 2, 2, 2)]
    mats = np.tile(np.eye(2) / 2, (2, 2, 2, 1, 1))
    mats[-1, -1, -1] = np.diag([1.5, -0.5])
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
        em_analysis._densities(mats)


def test_profiles_and_verdicts_are_slotted_and_frozen():
    """Results are kept by the thousand, so they carry no ``__dict__``."""
    pair = random_zero_error_pair("A", 2, np.random.default_rng(43))
    for result in (error_profile(pair), theorem_check(pair)):
        assert not hasattr(result, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.mode = "B"


def _dict_results(pair):
    """The dict-backed repr of ``error_profile(pair)`` and the verdict
    ``theorem_check(pair)`` stands for with its residuals a dict, read from
    the mode's table."""
    analysis = em_analysis._MODES[pair.protocol]
    table = analysis.table(pair.first[None], pair.second[None])
    rates = em_analysis._first_row(analysis.profile(table))
    profile = f"ErrorProfile(mode={pair.protocol!r}, rates={rates!r})"
    max_error = max(rates.values())
    if not max_error <= em_analysis.ERR_TOL:
        return profile, TheoremVerdict(pair.protocol, max_error, False, None, {}, None)
    info = float(em_analysis._info(analysis.ensembles(table))[0][0])
    residuals = em_analysis._first_row(analysis.residuals(table))
    holds = info <= em_analysis.INFO_TOL and max(residuals.values()) <= em_analysis.RESIDUAL_TOL
    return profile, TheoremVerdict(pair.protocol, max_error, True, info, residuals, holds)


def _bits(items) -> list:
    return [(name, type(value), np.float64(value).tobytes()) for name, value in items]


@pytest.mark.parametrize("mode", ["A", "B"])
def test_packed_results_read_as_the_dicts_they_pack(mode):
    """On the ``tests/pin_tradeoff.py`` pair set, profiles and verdicts read
    as their dict-backed layout: the same reprs, rates and residuals equal
    to the readers' dicts (``==`` both ways, and ``dict()`` of them bit for
    bit), every value a Python ``float``, and read-only.  All profiles of
    the mode share one names tuple and all zero-error verdicts another, and
    every verdict with an error shares one empty residuals object.  Equality
    is by value, as a dict's: 0.0 equals -0.0, whose sign the bytes keep."""
    analysis = em_analysis._MODES[mode]
    layouts, empties = {"rates": set(), "residuals": set()}, set()
    for d in (1, 2, 3):
        for pair in pin_pairs(mode, d):
            profile, verdict = error_profile(pair), theorem_check(pair)
            profile_repr, reference = _dict_results(pair)
            assert repr(profile) == profile_repr
            assert repr(verdict) == repr(reference) and verdict == reference
            table = analysis.table(pair.first[None], pair.second[None])
            rates = em_analysis._first_row(analysis.profile(table))
            assert profile.rates == rates and rates == profile.rates
            assert _bits(dict(profile.rates).items()) == _bits(rates.items())
            assert verdict.residuals == reference.residuals
            assert _bits(dict(verdict.residuals).items()) == _bits(reference.residuals.items())
            for value in (*rates.values(), *reference.residuals.values(), verdict.max_error,
                          *profile.rates.values(), *verdict.residuals.values()):
                assert type(value) is float
            for packed in (profile.rates, verdict.residuals):
                with pytest.raises(TypeError):
                    packed["case1"] = 0.0
            layouts["rates"].add(id(profile.rates._names))
            if verdict.zero_error:
                layouts["residuals"].add(id(verdict.residuals._names))
            else:
                empties.add(id(verdict.residuals))
    assert {name: len(ids) for name, ids in layouts.items()} == {"rates": 1, "residuals": 1}
    assert len(empties) == 1
    signed = FloatMap({"probe_state_match": -0.0})
    assert signed == FloatMap({"probe_state_match": 0.0}) == {"probe_state_match": 0.0}
    assert _bits(signed.items()) == _bits({"probe_state_match": -0.0}.items())
    assert (dataclasses.replace(verdict, residuals=signed)
            == dataclasses.replace(verdict, residuals={"probe_state_match": 0.0}))


@pytest.mark.parametrize("mode", ["A", "B"])
def test_array_readers_match_the_dict_reference(mode):
    """On the ``tests/pin_tradeoff.py`` pair set, d = 1-3, every rate, the
    information and every residual read from the array tables are within
    1e-12 of the dict tables' in ``tests/reference_em_tables.py``, and
    ``theorem_check`` finds the same ``zero_error`` and ``holds``.  So is
    every row of one stacked table of each dimension's whole pair set, with
    ``theorem_check``'s tolerances applied row by row."""
    def close(got, expected):
        return got.keys() == expected.keys() and all(
            abs(got[name] - value) <= 1e-12 for name, value in expected.items())

    analysis = em_analysis._MODES[mode]
    for d in (1, 2, 3):
        pairs = pin_pairs(mode, d)
        table = analysis.table(np.array([p.first for p in pairs]),
                               np.array([p.second for p in pairs]))
        stacked = (analysis.profile(table), em_analysis._info(analysis.ensembles(table))[0],
                   analysis.residuals(table))
        assert all(len(v) == len(pairs) for v in (*stacked[0].values(), stacked[1],
                                                 *stacked[2].values()))
        for r, pair in enumerate(pairs):
            rates, info, zero_error, residuals, holds = reference_em_tables.evaluate(pair)
            verdict = theorem_check(pair)
            assert close(error_profile(pair).rates, rates)
            assert abs(probe_distinguishability(pair) - info) <= 1e-12
            assert (verdict.zero_error, verdict.holds) == (zero_error, holds)
            assert close(verdict.residuals, residuals or {})
            row_rates, row_residuals = ({name: v[r] for name, v in values.items()}
                                        for values in (stacked[0], stacked[2]))
            assert close(row_rates, rates) and abs(stacked[1][r] - info) <= 1e-12
            assert (max(row_rates.values()) <= em_analysis.ERR_TOL) == zero_error
            if zero_error:
                assert close(row_residuals, residuals)
                assert (stacked[1][r] <= em_analysis.INFO_TOL
                        and max(row_residuals.values()) <= em_analysis.RESIDUAL_TOL) == holds


@pytest.mark.parametrize("reader", [error_profile, probe_distinguishability, theorem_check])
def test_readers_reject_a_mode_other_than_the_pairs_protocol(reader):
    with pytest.raises(ValueError, match="^pair is for protocol A, not B$"):
        reader(identity_pair("A", 2), "B")


def test_mode_a_information_skips_a_branch_the_qubit_never_takes():
    """At d = 2 the basis permutation 0 -> 2, 2 -> 3, 3 -> 0 (1 fixed) sends
    every preparation's qubit to |1>: the x = 0 probe branch has no weight,
    so mode A's information skips it and reads 0 rather than the trace
    distance of an empty branch, and the information's gradient there is 0
    (its zero trace is not divided by)."""
    first = np.eye(4)[:, [2, 1, 3, 0]]   # column j is the image of basis state j
    pair = UnitaryPair(first=first, second=np.eye(4), protocol="A")
    analysis = em_analysis._MODES["A"]
    table = analysis.table(first[None], np.eye(4)[None])
    assert not np.any(table[0][0, 8:].reshape(4, 2, 2)[:, 0])
    assert probe_distinguishability(pair) == 0.0
    rhos = analysis.ensembles(table)
    _, _, eigs, vecs = em_analysis._info(rhos)
    grads = analysis.derivative(first[None], np.eye(4)[None], table, rhos, eigs, vecs)
    assert not np.any(grads[:, len(analysis.terms):])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mode_declarations_are_well_formed(d):
    """Each mode's checks are its protocol's, in order, every term is read
    by some check, and the last T checks read the T terms in order.  A
    ``"prep"`` term spans one vector per preparation, and each ``"moved"``
    term spans whole (x = 0, 1) pairs, as each row of the read-only
    ``ensemble_vectors`` indexes them.  Every index lies inside the mode's
    journey, whose arrays are read-only."""
    for mode, checks in (("A", CHECKS_A), ("B", CHECKS_B)):
        analysis = em_analysis._MODES[mode]
        terms = len(analysis.terms)
        assert tuple(check for check, _ in analysis.checks) == checks
        assert {term for _, term in analysis.checks} == set(range(terms))
        assert tuple(term for _, term in analysis.checks[-terms:]) == tuple(range(terms))
        inputs, mask, fixed = analysis.journey(d)
        for part in (inputs, mask, fixed):
            assert part is None or (part.shape == (len(inputs), 2 * d)
                                    and not part.flags.writeable)
        paired = []
        for kind, vectors, preparations in analysis.terms:
            assert kind in ("moved", "prep")
            assert vectors.step is None and 0 <= vectors.start < vectors.stop <= len(inputs)
            if kind == "prep":
                assert vectors.stop - vectors.start == preparations == len(PrepState)
            else:
                paired.append(vectors)
        assert all(vectors.start % 2 == vectors.stop % 2 == 0 for vectors in paired)
        ensembles = analysis.ensemble_vectors
        assert ensembles.ndim == 2 and not ensembles.flags.writeable
        assert 0 <= ensembles.min() and ensembles.max() < len(inputs)
        assert not np.any(ensembles[:, ::2] % 2) and np.array_equal(ensembles[:, 1::2],
                                                                   ensembles[:, ::2] + 1)


def test_insert_reorder_checks_blind_to_undone_controlled_rotation():
    """A controlled probe rotation applied on the middle leg and undone on the
    return leg passes every check of the insert-and-reorder protocol exactly,
    yet the probe retains a near-perfect record of the middle party's key bit.
    This is a genuine structural weakness of checks that never measure the
    middle party's inserted particles in the conjugate basis."""
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    zero = np.zeros((2, 2))
    u_h = np.block([[np.eye(2), zero], [zero, flip]])
    assert np.array_equal(u_h, np.eye(4)[[0, 1, 3, 2]])
    u_g = u_h.conj().T
    pair = UnitaryPair(first=u_g, second=u_h, protocol="B")
    assert error_profile(pair).max_rate <= 1e-12
    verdict = theorem_check(pair)
    assert verdict.zero_error
    assert verdict.distinguishability == pytest.approx(1.0)
    assert not verdict.holds


def test_bit_copy_needs_two_probe_levels():
    for probe_dim in (0, 1, 2.0):
        with pytest.raises(ValueError, match="probe_dim"):
            bit_copy_pair("A", probe_dim)
    with pytest.raises(ValueError, match="probe_dim must be an integer >= 2, got 1"):
        constrained_search("B", 0.1, probe_dim=1, restarts=1, iters=1)


@pytest.mark.parametrize("mode, attack_id", [("A", "a.mr.eve.1"), ("B", "b.mr.eve.2"),
                                            ("A", "a.mr.eve.3"), ("B", "b.mr.eve.3")])
def test_bit_copy_pair_matches_the_oracle_outsider_measure_resend(mode, attack_id):
    """Copying the Z bit into a probe on one leg of the pair is Eve's
    measure-resend attack on that leg: the closed-form error rates equal the
    exact oracle's.  Eve's variant is the leg she taps, and leg 3 is the
    pair's return leg in both modes; a copy there alone is the pair
    (identity, bit copy).  ``a.mr.eve.2`` and ``b.mr.eve.1`` tap a leg that
    the mode's pair never acts on, so they have no case here."""
    copy = bit_copy_pair(mode, 2)
    if attack_id.endswith(".3"):
        copy = UnitaryPair(first=np.eye(4), second=copy.first, protocol=mode)
    rates = error_profile(copy, mode).rates
    exact = detection_oracle(mode, attack_id)
    assert rates.keys() == exact.keys()
    for check, p in exact.items():
        assert rates[check] == pytest.approx(float(p), abs=1e-12)


def test_stacked_unitaries_equal_unitary_from_params_row_by_row():
    """``unitary_from_params`` is row 0 of the stacked ``_exponentials``, so
    a stack row and the single build of that row are the same matrix, bit
    for bit."""
    rng = np.random.default_rng(29)
    for d in (1, 2, 3):
        rows = rng.normal(scale=0.7, size=(5, params_dim(d)))
        stack = em_analysis._exponentials(rows, d)[0]
        assert stack.shape == (5, 2 * d, 2 * d)
        for row, u in zip(rows, stack):
            assert np.array_equal(u, unitary_from_params(row, d))
    with pytest.raises(ValueError, match="rows of 16 parameters"):
        em_analysis._exponentials(np.zeros(16), 2)


def _expm_reference(row, d):
    """``scipy.linalg.expm`` of i times the Hermitian matrix of ``row``: its
    diagonal from the first 2d entries, then the real and imaginary parts of
    its upper triangle, row by row."""
    m = 2 * d
    herm = np.diag(row[:m]).astype(complex)
    herm[np.triu_indices(m, 1)] = row[m::2] + 1j * row[m + 1::2]
    return scipy.linalg.expm(1j * (herm + np.triu(herm, 1).conj().T))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_eigh_exponential_equals_scipy_expm(d):
    """``_exponentials`` takes exp(iH) from one ``eigh`` of the
    stack; it equals ``scipy.linalg.expm``, the path it replaced, within
    1e-12 on seeded stacks at parameter norms 0 to 20 and on a degenerate
    spectrum, H a multiple of the identity.  Zero parameters give the
    identity exactly."""
    rng = np.random.default_rng((47, d))
    npar, m = params_dim(d), 2 * d
    scalar = np.zeros(npar)
    scalar[:m] = 1.7
    for norm in (0.0, 0.5, 5.0, 20.0):
        rows = rng.normal(size=(4, npar))
        rows *= norm / np.linalg.norm(rows, axis=1, keepdims=True)
        rows = np.vstack([rows, scalar])
        for row, u in zip(rows, em_analysis._exponentials(rows, d)[0]):
            assert np.abs(u - _expm_reference(row, d)).max() <= 1e-12
    zero = em_analysis._exponentials(np.zeros((2, npar)), d)[0]
    assert np.array_equal(zero, np.broadcast_to(np.eye(m), (2, m, m)))


def _record_search(monkeypatch):
    """Log, in order, each decomposition the search makes, a stacked
    ``_exponentials`` call (``("stack", rows)``), each table build
    (``("eval", (first, second))``) and each read of a table's rates or
    ensembles (``("profile",)``, ``("ensembles",)``)."""
    events = []
    build, table = em_analysis._exponentials, em_analysis._Mode.table

    def stacking(params, probe_dim):
        events.append(("stack", np.array(params)))
        return build(params, probe_dim)

    def evaluating(self, first, second):
        events.append(("eval", (first, second)))
        return table(self, first, second)

    def reading(name, reader):
        def read(self, table):
            events.append((name,))
            return reader(self, table)
        return read

    monkeypatch.setattr(em_analysis, "_exponentials", stacking)
    monkeypatch.setattr(em_analysis._Mode, "table", evaluating)
    for name in ("profile", "ensembles"):
        reader = getattr(em_analysis._Mode, name)
        monkeypatch.setattr(em_analysis._Mode, name, reading(name, reader))
    return events


def _public_objective(mode, theta, d, eps):
    """The search's penalized objective at theta read along the public path,
    ``unitary_from_params`` -> ``UnitaryPair`` -> ``error_profile`` and
    ``probe_distinguishability``, and the pair's max error."""
    npar = params_dim(d)
    pair = UnitaryPair(unitary_from_params(theta[:npar], d),
                       unitary_from_params(theta[npar:], d), mode)
    err = error_profile(pair).max_rate
    return em_analysis._objective(probe_distinguishability(pair), err, eps)[0], err


def _gradients(analysis, thetas, d, eps):
    """The search's exact gradient at each row of ``thetas``, from one
    stacked evaluation."""
    point = em_analysis._evaluate(analysis, thetas, d, eps)
    return em_analysis._objective_gradient(analysis, d, eps, point)


@pytest.mark.parametrize("mode", ["A", "B"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_gradient_equals_central_differences_of_the_public_path(mode, d):
    """On seeded generic theta, where no two distinct rates (nor mode B's two
    ensembles) tie and the penalty is clearly on or off, each row of the
    search's stacked exact gradient equals central differences of the public
    path within 1e-6 relative, at both penalty weights.  At theta = 0, the
    stack's last row, it is below the search's 1e-12 stop, so the identity
    start takes no step."""
    analysis = em_analysis._MODES[mode]
    npar, h = params_dim(d), 1e-5
    rng = np.random.default_rng((43, ord(mode), d))
    thetas = np.array([rng.normal(scale=scale, size=2 * npar) for scale in (0.05, 0.6)]
                      + [np.zeros(2 * npar)])
    first, second = em_analysis._exponentials(thetas[:2].reshape(-1, npar), d)[0].reshape(
        2, 2, 2 * d, 2 * d).swapaxes(0, 1)
    table = analysis.table(first, second)
    _, dists, _, _ = em_analysis._info(analysis.ensembles(table))
    for r, infos in enumerate(dists):
        assert all(np.diff(sorted(set(v[r] for v in analysis.profile(table).values()))) > 1e-4)
        # A one-level probe carries no information in any ensemble.
        assert all(np.diff(sorted(infos)) > 1e-4) if d > 1 else not any(infos)
    penalty_on = set()
    for eps in (0.0, 0.1):
        grads = _gradients(analysis, thetas, d, eps)
        assert grads.shape == thetas.shape
        for theta, grad in zip(thetas[:2], grads):
            _, err = _public_objective(mode, theta, d, eps)
            assert abs(err - eps) > 1e-4
            penalty_on.add(err > eps)
            central = np.array([(_public_objective(mode, theta + bump, d, eps)[0]
                                 - _public_objective(mode, theta - bump, d, eps)[0]) / (2 * h)
                                for bump in h * np.eye(2 * npar)])
            assert np.linalg.norm(grad - central) <= 1e-6 * np.linalg.norm(central)
        assert np.linalg.norm(grads[2]) < 1e-12
    assert penalty_on == {False, True}


@pytest.mark.parametrize("mode", ["A", "B"])
def test_bit_copy_start_carries_no_penalty_at_a_quarter_budget(mode):
    """The bit copy's max error is 0.25 plus rounding, which the search
    counts feasible at epsilon = 0.25, so its penalty there is off: its
    objective is its information, and its objective and gradient are those
    at epsilon = 0.5.  Below 1e-6 the budget is epsilon itself, with no
    tolerance."""
    analysis = em_analysis._MODES[mode]
    theta = np.array(em_analysis._bit_copy_start(2))[None]
    quarter, half = (em_analysis._evaluate(analysis, theta, 2, eps) for eps in (0.25, 0.5))
    assert abs(quarter[2][0] - 0.25) <= em_analysis.FEASIBILITY_TOL
    assert quarter[0][0] == quarter[1][0] == half[0][0]
    assert np.array_equal(_gradients(analysis, theta, 2, 0.25), _gradients(analysis, theta, 2, 0.5))
    assert em_analysis._objective(0.0, 1e-10, 0.0)[0] == -1e7 * 1e-10


@pytest.mark.parametrize("mode", ["A", "B"])
def test_search_steps_along_the_exact_gradient(monkeypatch, mode):
    """Each row's first line-search point is theta + 0.25 g/|g|, bit for
    bit, for the exact gradient g at theta, at both penalty weights.  Three
    starts climb in lockstep, so one stacked gradient covers the identity,
    the bit copy and a seeded random theta.  The identity's is below the
    1e-12 stop, so that start takes no step, and the first line-search round
    evaluates the other two rows."""
    npar = params_dim(2)
    events = []
    gradient, build = em_analysis._objective_gradient, em_analysis._exponentials

    def stepping(*args):
        grads = gradient(*args)
        events.append(("grad", grads))
        return grads

    def stacking(params, probe_dim):
        events.append(("stack", np.array(params)))
        return build(params, probe_dim)

    monkeypatch.setattr(em_analysis, "_objective_gradient", stepping)
    monkeypatch.setattr(em_analysis, "_exponentials", stacking)
    for eps in (0.0, 0.1):
        events.clear()
        constrained_search(mode, eps, restarts=3, iters=1, seed=31)
        assert [event[0] for event in events[:3]] == ["stack", "grad", "stack"]
        assert [event[0] for event in events].count("grad") == 1
        (_, starts), (_, grads), (_, first_round) = events[:3]
        starts = starts.reshape(3, 2 * npar)
        assert not np.any(starts[0]) and np.linalg.norm(grads[0]) < 1e-12
        assert grads.shape == (3, 2 * npar) and first_round.shape == (4, npar)
        norms = np.linalg.norm(grads, axis=1)[1:, None]
        assert np.array_equal(first_round.reshape(2, -1), starts[1:] + 0.25 * (grads[1:] / norms))


def test_search_builds_one_table_per_evaluation(monkeypatch):
    """Each stacked evaluation of the search makes one decomposition, a
    ``_exponentials`` call of two rows per theta, builds its mode's table of
    those thetas once, reads the rates and the ensembles from it once, and
    decomposes each row's ensemble differences in one ``eigh``.  Each
    stacked gradient reads what the evaluations at its thetas read: it makes
    no decomposition at all, builds no table, and reads no rates or
    ensembles.  The search calls no public builder or reader, and it builds
    its parameter basis, its bit-copy start and each mode's journey once
    per probe dimension.  With ``iters=1`` the two starts share one
    gradient."""
    npar = params_dim(2)
    cached = (em_analysis._basis, em_analysis._bit_copy_start,
              *(analysis.journey for analysis in em_analysis._MODES.values()))
    for cache in cached:
        cache.cache_clear()
    for mode in ("A", "B"):
        expected = constrained_search(mode, 0.1, restarts=2, iters=1)
        calls = {name: [] for name in ("unitary_from_params", "error_profile",
                                       "probe_distinguishability", "_evaluate")}
        for name, log in calls.items():
            def counting(*args, fn=getattr(em_analysis, name), log=log):
                log.append(args)
                return fn(*args)

            monkeypatch.setattr(em_analysis, name, counting)
        events = _record_search(monkeypatch)
        gradient, eigh = em_analysis._objective_gradient, np.linalg.eigh

        def stepping(*args):
            events.append(("grad",))
            grad = gradient(*args)
            events.append(("grad end",))
            return grad

        def decomposing(a):
            events.append(("eigh", a.shape))
            return eigh(a)

        monkeypatch.setattr(em_analysis, "_objective_gradient", stepping)
        monkeypatch.setattr(np.linalg, "eigh", decomposing)
        point = constrained_search(mode, 0.1, restarts=2, iters=1)
        monkeypatch.undo()
        assert point == expected
        assert [event[0] for event in events].count("grad") == 1
        inside = events[events.index(("grad",)) + 1:events.index(("grad end",))]
        assert inside == []
        outside = [event for event in events if event[0] not in ("grad", "grad end")]
        evaluations = calls.pop("_evaluate")
        assert [event[0] for event in outside] == (
            ["stack", "eigh", "eval", "profile", "ensembles", "eigh"] * len(evaluations))
        for i, (_, thetas, *_) in enumerate(evaluations):
            stack, unitaries, table, ensembles = (outside[6 * i + k] for k in (0, 1, 2, 5))
            rows = len(thetas)
            assert stack[1].shape == (2 * rows, npar) and unitaries[1] == (2 * rows, 4, 4)
            assert all(len(u) == rows for u in table[1])
            assert ensembles[1] == (rows, 1 if mode == "A" else 2, 2, 2)
        assert len(evaluations[0][1]) == 2 and len(evaluations) >= 2
        assert calls == {"unitary_from_params": [], "error_profile": [],
                         "probe_distinguishability": []}
    constrained_search("A", 0.1, probe_dim=3, restarts=2, iters=1)
    # Dimensions 2 and 3 for the basis, the start and mode A; 2 for mode B.
    assert [cache.cache_info().misses for cache in cached] == [2, 2, 2, 1]


def test_search_draws_each_random_start_as_its_restart_begins(monkeypatch):
    """A block's random starts are drawn when the block begins, so a huge
    restart count allocates nothing up front: with the first table build
    raising, a search at ``restarts=10**9`` raises it having made at most
    one draw, of at most ``_BLOCK - 2`` starts (the first block's other two
    are the identity and the bit copy).  A search of two restarts draws
    nothing, and builds no Generator."""
    class Built(Exception):
        pass

    draws, seeded = [], []
    default_rng = np.random.default_rng

    class Counting:
        def __init__(self, *args):
            seeded.append(args)
            self.rng = default_rng(*args)

        def normal(self, *args, **kwargs):
            draws.append(kwargs["size"])
            assert len(draws) <= 1, "the search drew its random starts up front"
            return self.rng.normal(*args, **kwargs)

    def build(self, first, second):
        raise Built

    monkeypatch.setattr(em_analysis.np.random, "default_rng", Counting)
    for mode in ("A", "B"):
        constrained_search(mode, 0.1, restarts=2, iters=1)
    assert seeded == [] and draws == []
    monkeypatch.setattr(em_analysis._Mode, "table", build)
    for mode in ("A", "B"):
        with pytest.raises(Built):
            constrained_search(mode, 0.1, restarts=10**9)
        assert len(draws) == 1 and draws.pop()[0] <= em_analysis._BLOCK - 2


def _never_build(monkeypatch):
    """Make every unitary, basis, start or table build fail."""
    def never(*args, **kwargs):
        raise AssertionError("the search built a unitary before checking its args")

    for name in ("_exponentials", "_basis", "_bit_copy_start"):
        monkeypatch.setattr(em_analysis, name, never)
    monkeypatch.setattr(em_analysis._Mode, "table", never)


@pytest.mark.parametrize("bad, message", [
    ({"iters": 2.5}, "iters must be an integer"),
    ({"restarts": True, "iters": True}, "restarts must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"epsilon": "0.1"}, "epsilon must be a real number"),
    ({"epsilon": -0.1}, "epsilon must be in [0, 0.5]"),
    ({"epsilon": 0.6}, "epsilon must be in [0, 0.5]"),
    ({"restarts": 0}, "restarts must be an integer >= 1, got 0"),
    ({"probe_dim": 9}, "probe_dim must be <= 8, got 9"),
    ({"probe_dim": 64}, "probe_dim must be <= 8, got 64"),
], ids=["float-iters", "bool-budgets", "float-seed", "negative-seed", "str-epsilon",
        "negative-epsilon", "epsilon-above-half", "zero-restarts", "probe-dim-9",
        "probe-dim-64"])
def test_search_rejects_mistyped_args_before_evaluating(monkeypatch, bad, message):
    """In either mode, the search rejects a mistyped or out-of-range argument
    by name before it builds any unitary or table, with the very message
    that its argument check, ``check_search_args``, raises."""
    _never_build(monkeypatch)
    args = {"epsilon": 0.1, "probe_dim": 2, "restarts": 1, "iters": 1, "seed": 0, **bad}
    for mode in ("A", "B"):
        with pytest.raises(ValueError, match=re.escape(message)) as expected:
            em_analysis.check_search_args(mode, **args)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            constrained_search(mode, **args)


def test_search_takes_probe_dims_up_to_eight():
    """8 is the largest probe dimension the search takes, and a search there
    runs: from the bit copy it reaches full information at error 1/4."""
    point = constrained_search("A", 0.25, probe_dim=8, restarts=2, iters=1)
    assert point.probe_dim == 8 and not point.fallback and point.info == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["C", "a", pytest.param(["A"], id="list")])
def test_search_rejects_an_unknown_mode_up_front(monkeypatch, mode):
    """A mode other than "A" or "B" is rejected by name before any unitary
    or table is built, by the search and by its argument check alike."""
    _never_build(monkeypatch)
    message = re.escape(f"mode must be 'A' or 'B', got {mode!r}")
    with pytest.raises(ValueError, match=message):
        constrained_search(mode, 0.1, restarts=1, iters=1)
    with pytest.raises(ValueError, match=message):
        em_analysis.check_search_args(mode, 0.1, 2, 1, 1, 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_stacked_unitary_passes_check_unitary(d):
    """The search evaluates the unitaries of ``_exponentials`` without
    checking them, so every row must pass ``check_unitary``: here on seeded
    (2·npar + 1)-row stacks (a centre row, then each parameter bumped up and
    down) and two-row point stacks, at parameter norms from 0 to 20, about as
    far as 40 line-search steps of at most 0.5 can carry a start."""
    rng = np.random.default_rng(41)
    npar = params_dim(d)
    bumps = 1e-5 * np.eye(npar)
    for norm in (0.0, 0.5, 5.0, 20.0):
        part = rng.normal(size=npar)
        part *= norm / np.linalg.norm(part)
        points = rng.normal(size=(2, npar))
        points *= norm / np.linalg.norm(points, axis=1, keepdims=True)
        for stack in (np.vstack([part, part + bumps, part - bumps]), points):
            unitaries = em_analysis._exponentials(stack, d)[0]
            assert unitaries.shape == (len(stack), 2 * d, 2 * d)
            for u in unitaries:
                check_unitary(u)


_BUDGETS = [(1, 1), (2, 1), (3, 6), (em_analysis._BLOCK + 3, 4)]


@pytest.mark.parametrize("mode", ["A", "B"])
def test_lockstep_search_matches_the_sequential_reference(mode):
    """On a seeded grid (epsilon 0, 0.05, 0.1 and 0.25; restarts and iters
    (1, 1), (2, 1), (3, 6) and ``_BLOCK`` + 3 restarts, which cross a block
    boundary, at 4 iters; all at d = 2, and (3, 6) at d = 3 too; the search
    takes no d = 1), the lockstep search finds the point that
    ``tests/reference_search.py``, one restart at a time on stack-of-one
    kernels, finds: the same fallback flag, and info and max_error within
    1e-12."""
    cases = [(eps, d, restarts, iters) for eps in (0.0, 0.05, 0.1, 0.25)
             for d, restarts, iters in [(2, *budget) for budget in _BUDGETS] + [(3, 3, 6)]]
    found = set()
    for eps, d, restarts, iters in cases:
        got = constrained_search(mode, eps, probe_dim=d, restarts=restarts, iters=iters, seed=3)
        want = reference_search.constrained_search(mode, eps, probe_dim=d, restarts=restarts,
                                                   iters=iters, seed=3)
        assert got.fallback == want.fallback, (eps, d, restarts, iters)
        assert abs(got.info - want.info) <= 1e-12, (eps, d, restarts, iters)
        assert abs(got.max_error - want.max_error) <= 1e-12, (eps, d, restarts, iters)
        found.add(got.fallback)
    assert found == {False, True}
