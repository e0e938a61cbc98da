"""Print a digest of the tradeoff points of a fixed set of searches.

    PYTHONPATH=src python3 tests/pin_tradeoff.py

Each line is one ``constrained_search`` call and the sha256 of ``repr`` of
its ``TradeoffPoint``; the last line is the sha256 of the ``repr`` of all the
points in order.  A change that should leave the search bit for bit as it
was must print the same digests as its parent on the same machine.  The
float bits depend on the BLAS and LAPACK builds, so the digests are compared
between two checkouts on one machine and are not pinned in a test.
"""

from __future__ import annotations

import hashlib

from sqss.em_analysis import constrained_search

# (mode, epsilon, restarts, iters, seed) at probe dimension 2.
SEARCHES = ([(mode, eps, 2, 1, 0) for mode in ("A", "B") for eps in (0.0, 0.05, 0.1, 0.25)]
            + [("A", 0.1, 3, 6, 1), ("B", 0.0, 3, 6, 1), ("B", 0.1, 3, 6, 1)])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    points = []
    for mode, eps, restarts, iters, seed in SEARCHES:
        point = constrained_search(mode, eps, restarts=restarts, iters=iters, seed=seed)
        points.append(point)
        print(f"{mode} eps={eps} restarts={restarts} iters={iters} seed={seed}: "
              f"{sha256(repr(point))}")
    print(f"all: {sha256(repr(points))}")


if __name__ == "__main__":
    main()
