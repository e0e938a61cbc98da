"""Time the analysis kernels of another checkout's package against this one's.

    python3 tests/compare_kernels.py OTHER_CHECKOUT [--blocks N]

Each block runs one fresh interpreter per side, ``OTHER_CHECKOUT/src`` and
then this checkout's ``src`` as ``PYTHONPATH`` (this one first in odd
blocks), with BLAS on one thread.  Each interpreter times, per call, the
mean of ``CALLS`` calls of every kernel after one warm-up call:

- each public reader (``error_profile``, ``probe_distinguishability``,
  ``theorem_check``) on a stack of one, on a seeded zero-error and a seeded
  random pair of each mode at probe dimension 2;
- one 8-row ``_evaluate`` and one ``_objective_gradient`` at its point, per
  mode, on a seeded theta stack at epsilon 0.1;
- the shape of perfbench's analysis pair-set op: the three readers, with
  the mode, on a random and a zero-error pair of each mode.

A side's figure is the minimum over its N blocks (default 30).  The JSON on
stdout gives both sides' figures in microseconds, this side's over the
other's, and in how many blocks this side was lower.  It measures and gates
nothing: the analysis layer's before and after, beside perfbench's
end-to-end figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
CALLS = 10
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def kernels() -> dict:
    """Each kernel as a call with no arguments, on seeded inputs, d = 2."""
    from sqss import em_analysis as em   # the package on this interpreter's PYTHONPATH

    rng = np.random.default_rng(41)
    pairs = {(mode, kind): make(mode, 2, rng) for mode in ("A", "B")
             for kind, make in (("zero", em.random_zero_error_pair), ("random", em.random_pair))}
    out = {}
    for (mode, kind), pair in pairs.items():
        for read in (em.error_profile, em.probe_distinguishability, em.theorem_check):
            out[f"{read.__name__} {mode} {kind}"] = lambda read=read, pair=pair: read(pair)
    thetas = rng.normal(scale=0.5, size=(8, 2 * em.params_dim(2)))
    for mode in ("A", "B"):
        analysis = em._MODES[mode]
        point = em._evaluate(analysis, thetas, 2, 0.1)
        out[f"evaluate {mode} 8 rows"] = lambda a=analysis: em._evaluate(a, thetas, 2, 0.1)
        out[f"gradient {mode} 8 rows"] = (
            lambda a=analysis, p=point: em._objective_gradient(a, 2, 0.1, p))

    def pair_set():
        return tuple((em.error_profile(p, p.protocol), em.probe_distinguishability(p, p.protocol),
                      em.theorem_check(p, p.protocol))
                     for p in (pairs["A", "random"], pairs["A", "zero"],
                               pairs["B", "random"], pairs["B", "zero"]))

    out["pair-set op"] = pair_set
    return out


def worker() -> None:
    """Print the mean seconds per call of each kernel, as JSON."""
    times = {}
    for name, call in kernels().items():
        call()
        start = time.perf_counter()
        for _ in range(CALLS):
            call()
        times[name] = (time.perf_counter() - start) / CALLS
    print(json.dumps(times))


def block(src: Path) -> dict:
    """One fresh interpreter's times with ``src`` as the package."""
    done = subprocess.run([sys.executable, __file__, "--worker"], capture_output=True, text=True,
                          check=True, env={**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)})
    return json.loads(done.stdout)


def compare(other: Path, blocks: int) -> dict:
    runs = {"other": [], "this": []}
    for i in range(blocks):
        for side in (("this", "other") if i % 2 == 0 else ("other", "this")):
            runs[side].append(block(SRC if side == "this" else other))
    result = {}
    for name in runs["this"][0]:
        other_us, this_us = (1e6 * min(run[name] for run in runs[side])
                             for side in ("other", "this"))
        lower = sum(t[name] < o[name] for t, o in zip(runs["this"], runs["other"]))
        result[name] = {"other_us": round(other_us, 2), "this_us": round(this_us, 2),
                        "this_over_other": round(this_us / other_us, 4),
                        "this_lower_in_blocks": f"{lower}/{blocks}"}
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the checkout to compare against")
    parser.add_argument("--blocks", type=int, default=30, help="blocks per side (default 30)")
    args = parser.parse_args(argv)
    other = args.other.resolve() / "src"
    if not (other / "sqss").is_dir():
        print(f"no sqss package under {other}", file=sys.stderr)
        return 2
    if args.blocks < 1:
        print(f"--blocks must be at least 1, got {args.blocks}", file=sys.stderr)
        return 2
    print(json.dumps({
        "what": "min over blocks of the mean seconds per call, in fresh interpreters "
                "alternating the two sides, BLAS on one thread",
        "other": str(other.parent), "this": str(SRC.parent), "blocks": args.blocks,
        "calls_per_block": CALLS,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "kernels": compare(other, args.blocks)}, indent=1))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main(sys.argv[1:]))
