"""Run the pin scripts against another checkout's package and this one's, and
print every line that differs.

    python3 tests/compare_pins.py OTHER_CHECKOUT

Each of this checkout's ``pin_transcripts.py``, ``pin_tradeoff.py`` and
``pin_cli.py`` runs twice, in a fresh interpreter: with ``OTHER_CHECKOUT/src``
as ``PYTHONPATH``, then with this checkout's ``src``.  Their outputs are
compared line by line; a differing line is printed as ``<script>:<line>``
with both sides, and so are the exit codes when either side's is nonzero.
Each script ends with one summary line, and a last line gives both
checkouts' ``src/sqss`` line counts and their difference.  The script exits
1 if a line differs or a pin script fails on either side, else 0.

The pins' float bits depend on the BLAS and LAPACK builds, so both sides run
on one machine, here.  A change that should move no RNG draw, analysis float
or CLI byte must leave every line as it was in its parent.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
SCRIPTS = ("pin_transcripts.py", "pin_tradeoff.py", "pin_cli.py")


def run(script: str, src: Path) -> tuple[int, list[str]]:
    """The script's exit code and stdout lines with ``src`` as the package."""
    done = subprocess.run([sys.executable, str(TESTS / script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    if done.returncode:
        sys.stderr.write(f"{script} with {src} exited {done.returncode}:\n{done.stderr}")
    return done.returncode, done.stdout.splitlines()


def compare(script: str, other: Path) -> bool:
    """Print the lines of ``script`` that differ; True if none does and the
    script exits 0 on both sides."""
    theirs_code, theirs = run(script, other)
    ours_code, ours = run(script, SRC)
    failed = theirs_code or ours_code
    if failed:
        print(f"{script}: exit code: other {theirs_code}, this {ours_code}")
    differing = 0
    for i, (a, b) in enumerate(itertools.zip_longest(theirs, ours), start=1):
        if a != b:
            differing += 1
            print(f"{script}:{i}: other {a if a is not None else '(no line)'}")
            print(f"{script}:{i}: this  {b if b is not None else '(no line)'}")
    print(f"{script}: {len(ours)} lines, {differing} differ")
    return not failed and not differing


def package_lines(src: Path) -> int:
    """The line count of ``src/sqss``'s modules, as ``wc -l`` gives it."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "sqss").glob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tests/compare_pins.py OTHER_CHECKOUT", file=sys.stderr)
        return 2
    other = Path(argv[0]).resolve() / "src"
    if not (other / "sqss").is_dir():
        print(f"no sqss package under {other}", file=sys.stderr)
        return 2
    results = [compare(script, other) for script in SCRIPTS]
    theirs, ours = package_lines(other), package_lines(SRC)
    print(f"src/sqss: other {theirs} lines, this {ours} lines, net {ours - theirs:+d}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
