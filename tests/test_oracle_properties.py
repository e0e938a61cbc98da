"""The oracle's integer-weight engine against the ``Fraction`` reference.

A random step program is up to five steps, each a Z measurement, a fake
substitution (a fresh bit, or the bit of an earlier record) or a side coin,
recording under a few keys; then a final measurement in Z or in the
preparation basis, a mismatch predicate over the preparation or the records,
and a uniform preparation over the four states or the two Z states.  Both
engines build the same program from one description, under the fixed
profile in ``conftest.py``.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from sqss import oracle
import reference_oracle

KEYS = ("b", "c", "e")


@st.composite
def programs(draw):
    steps, recorded = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(("measure_z", "substitute_fake", "coin")))
        if kind == "substitute_fake" and recorded and draw(st.booleans()):
            steps.append((kind, {"source": draw(st.sampled_from(recorded))}))
            continue
        key = draw(st.sampled_from(KEYS))
        steps.append((kind, {"key": key}))
        recorded.append(key)
    mismatches = ([("vs_prep",)] + [("vs", k) for k in recorded]
                  + [("triple", b, c) for b in recorded for c in recorded])
    return (steps, draw(st.sampled_from(("z_basis", "prep_basis"))),
            draw(st.sampled_from(mismatches)), draw(st.sampled_from(("UNIFORM", "UNIFORM_Z"))))


def build(engine, program):
    """The arguments of ``engine.mismatch_probability`` for ``program``."""
    steps, final_basis, (check, *keys), preps = program
    mismatch = getattr(engine, check)
    return ([getattr(engine, kind)(**args) for kind, args in steps],
            getattr(engine, final_basis), mismatch(*keys) if keys else mismatch,
            getattr(engine, preps))


@given(programs())
def test_integer_engine_equals_the_fraction_reference(program):
    expected = reference_oracle.mismatch_probability(*build(reference_oracle, program))
    got = oracle.mismatch_probability(*build(oracle, program))
    assert isinstance(got, Fraction)
    assert got == expected
