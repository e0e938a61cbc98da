"""Properties of the closed-form attack analysis over random unitary pairs.

Pairs are drawn as ``random_pair(mode, d, default_rng(seed))`` for probe
dimensions 1-3, under the fixed profile in ``conftest.py``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sqss.adversary import UnitaryPair
from sqss.em_analysis import (
    error_profile,
    params_dim,
    params_from_unitary,
    probe_distinguishability,
    random_pair,
    random_unitary,
    unitary_from_params,
)

TOL = 1e-12

modes = st.sampled_from(("A", "B"))
dims = st.sampled_from((1, 2, 3))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
phases = st.floats(min_value=0.0, max_value=2 * np.pi)


def _pair(mode, d, seed):
    return random_pair(mode, d, np.random.default_rng(seed))


def _values(pair):
    """Every check error rate and the probe distinguishability, by name."""
    out = dict(error_profile(pair).rates)
    out["distinguishability"] = probe_distinguishability(pair)
    return out


@given(modes, dims, seeds)
def test_rates_and_distinguishability_are_probabilities(mode, d, seed):
    for name, value in _values(_pair(mode, d, seed)).items():
        assert -TOL <= value <= 1.0 + TOL, name


@given(modes, dims, seeds, phases, phases)
def test_global_phases_and_a_final_probe_unitary_change_nothing(mode, d, seed,
                                                                phase_first,
                                                                phase_second):
    """The zero-error family's freedom: a global phase on either unitary, and
    a unitary W on the probe alone after the last one, (I (x) W) @ second."""
    pair = _pair(mode, d, seed)
    w = random_unitary(d, np.random.default_rng((seed, 1)))
    moved = UnitaryPair(first=np.exp(1j * phase_first) * pair.first,
                        second=np.exp(1j * phase_second)
                        * (np.kron(np.eye(2), w) @ pair.second), protocol=mode)
    before, after = _values(pair), _values(moved)
    for name, value in before.items():
        assert abs(after[name] - value) <= TOL, name


@given(modes, dims, seeds)
def test_params_round_trip_gives_back_the_unitary(mode, d, seed):
    # Only this direction is a property: params_from_unitary picks one branch
    # of the logarithm, so params -> unitary -> params need not return them.
    pair = _pair(mode, d, seed)
    for u in (pair.first, pair.second):
        params = params_from_unitary(u)
        assert params.shape == (params_dim(d),)
        back = unitary_from_params(params, d)
        assert np.max(np.abs(back - u)) <= 1e-9
