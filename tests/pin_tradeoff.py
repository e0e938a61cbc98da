"""Print digests of a fixed set of searches and of pair evaluations.

    PYTHONPATH=src python3 tests/pin_tradeoff.py

Each search line is one ``constrained_search`` call, the sha256 of
``repr`` of its ``TradeoffPoint``, and the ``repr`` of the point's info,
max_error and fallback, so that a moved line shows how far it moved; the
``all`` line is the sha256 of the
``repr`` of all the points in order.  Each ``pairs`` line, one per mode and
probe dimension 1-3, is the sha256 of the ``repr`` of ``error_profile``
(with and without the mode), ``probe_distinguishability`` and
``theorem_check`` on a fixed set of pairs: 16 seeded random pairs, 16 seeded
zero-error pairs, the identity pair and, from dimension 2, the bit-copy pair.
The ``default`` lines come next, one search per mode at the ``sqss tradeoff``
default budget (restarts 6, iters 40) and epsilon 0.1, and the ``block``
lines next: one search per mode whose 11 restarts cross the search's block
of 8 restarts that climb in lockstep, and one at probe dimension 3.  Each
``kernels`` line, one per mode and probe dimension 2-3, is the sha256 of
the float64 bytes of the search's two kernels on one seeded 8-row theta
stack whose first rows are the zero and bit-copy starts, where maxima tie:
``_evaluate``'s objective, information, max error and rates, then
``_objective_gradient`` at that point, at epsilon 0 and then 0.1.  Lines
are only ever appended, so the earlier ones stay comparable with a checkout
that prints fewer.
A change that should leave the analysis bit for bit as it was must print the
same digests as its parent on the same machine.  The float bits depend on the
BLAS and LAPACK builds, so the digests are compared between two checkouts on
one machine and are not pinned in a test:
``python3 tests/compare_pins.py <other checkout>`` prints every line that
differs.
"""

from __future__ import annotations

import hashlib

import numpy as np

from sqss import em_analysis
from sqss.em_analysis import (
    bit_copy_pair,
    constrained_search,
    error_profile,
    identity_pair,
    probe_distinguishability,
    random_pair,
    random_zero_error_pair,
    theorem_check,
)

# (mode, epsilon, restarts, iters, seed) at probe dimension 2.
SEARCHES = ([(mode, eps, 2, 1, 0) for mode in ("A", "B") for eps in (0.0, 0.05, 0.1, 0.25)]
            + [("A", 0.1, 3, 6, 1), ("B", 0.0, 3, 6, 1), ("B", 0.1, 3, 6, 1)])
# (mode, epsilon, restarts, iters) at the CLI default budget, printed last.
DEFAULT_SEARCHES = (("A", 0.1, 6, 40), ("B", 0.1, 6, 40))
# (mode, epsilon, probe_dim, restarts, iters), printed after the default lines.
BLOCK_SEARCHES = (("A", 0.1, 2, 11, 6), ("B", 0.1, 2, 11, 6), ("A", 0.1, 3, 3, 6))
PAIRS_PER_KIND = 16
KERNEL_ROWS = 8


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pairs(mode: str, d: int) -> list:
    rng = np.random.default_rng((7, ord(mode), d))
    out = [random_pair(mode, d, rng) for _ in range(PAIRS_PER_KIND)]
    out += [random_zero_error_pair(mode, d, rng) for _ in range(PAIRS_PER_KIND)]
    out.append(identity_pair(mode, d))
    if d >= 2:
        out.append(bit_copy_pair(mode, d))
    return out


def summary(point) -> str:
    """The digest of ``point`` and what a reader compares when it moves."""
    return (f"{sha256(repr(point))} info={point.info!r} max_error={point.max_error!r} "
            f"fallback={point.fallback!r}")


def kernel_bytes(mode: str, d: int) -> bytes:
    """The float64 bytes of both search kernels on the seeded theta stack."""
    analysis = em_analysis._MODES[mode]
    rng, width = np.random.default_rng((11, ord(mode), d)), 2 * em_analysis.params_dim(d)
    thetas = np.vstack([np.zeros(width), em_analysis._bit_copy_start(d),
                        rng.normal(scale=0.5, size=(KERNEL_ROWS - 2, width))])
    out = b""
    for eps in (0.0, 0.1):
        point = em_analysis._evaluate(analysis, thetas, d, eps)
        grads = em_analysis._objective_gradient(analysis, d, eps, point)
        out += b"".join(np.asarray(x, dtype=np.float64).tobytes() for x in (*point[:4], grads))
    return out


def main() -> None:
    points = []
    for mode, eps, restarts, iters, seed in SEARCHES:
        point = constrained_search(mode, eps, restarts=restarts, iters=iters, seed=seed)
        points.append(point)
        print(f"{mode} eps={eps} restarts={restarts} iters={iters} seed={seed}: "
              f"{summary(point)}")
    print(f"all: {sha256(repr(points))}")
    for mode in ("A", "B"):
        for d in (1, 2, 3):
            evaluations = [(error_profile(p), error_profile(p, mode),
                            probe_distinguishability(p), theorem_check(p))
                           for p in pairs(mode, d)]
            print(f"pairs {mode} d={d}: {sha256(repr(evaluations))}")
    for mode, eps, restarts, iters in DEFAULT_SEARCHES:
        point = constrained_search(mode, eps, restarts=restarts, iters=iters)
        print(f"default {mode} eps={eps} restarts={restarts} iters={iters}: "
              f"{summary(point)}")
    for mode, eps, d, restarts, iters in BLOCK_SEARCHES:
        point = constrained_search(mode, eps, probe_dim=d, restarts=restarts, iters=iters)
        print(f"block {mode} eps={eps} d={d} restarts={restarts} iters={iters}: "
              f"{summary(point)}")
    for mode in ("A", "B"):
        for d in (2, 3):
            print(f"kernels {mode} d={d}: {hashlib.sha256(kernel_bytes(mode, d)).hexdigest()}")


if __name__ == "__main__":
    main()
