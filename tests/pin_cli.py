"""Print the sha256 of each ``sqss`` subcommand's output at fixed small arguments.

    PYTHONPATH=src python3 tests/pin_cli.py

Each line is one ``cli.main`` call, made in this process: its name, its exit
code and the sha256 of the bytes it wrote, to stdout or to its ``--output``
file.  ``run`` covers an A and a B config, each as JSON, as CSV on stdout and
as CSV with ``--output``; ``sweep`` covers both protocols; ``attack-bench``,
``oracle`` and ``tradeoff`` (restarts 2, iters 2) follow.
A change that should leave every CLI output as it was must print the same
lines as its parent: ``python3 tests/compare_pins.py <parent checkout>`` runs
this script against both packages and prints every line that differs.  The
tradeoff lines depend on the BLAS and LAPACK builds, so the two checkouts are
compared on one machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from sqss import cli

CONFIGS = {
    "a": {"protocol": "A", "trials": 4, "seed": 3, "attack": "a.ir.bob",
          "params": {"n": 6, "m": 14}},
    "b": {"protocol": "B", "trials": 4, "seed": 3, "attack": "b.mr.eve.3",
          "params": {"n": 8}},
}


def commands(config_paths: dict, out: Path):
    """Each call's name and arguments, in order; ``out`` is the output path."""
    for p, path in config_paths.items():
        run = ["run", "--config", str(path)]
        yield f"run {p} json", run
        yield f"run {p} csv", run + ["--format", "csv"]
        yield f"run {p} csv --output", run + ["--format", "csv", "--output", str(out)]
    for p in config_paths:
        yield f"sweep {p}", ["sweep", "--protocol", p, "--sizes", "6,10", "--trials", "3",
                             "--seed", "1"]
    yield "attack-bench", ["attack-bench", "--size", "6", "--trials", "3", "--seed", "2"]
    yield "oracle a", ["oracle", "--protocol", "a", "--attack", "a.ir.eve.2"]
    yield "oracle b", ["oracle", "--protocol", "b", "--attack", "b.mr.eve.2"]
    for p in config_paths:
        yield f"tradeoff {p}", ["tradeoff", "--mode", p, "--epsilons", "0,0.1,0.25",
                                "--restarts", "2", "--iters", "2"]


def written(args: list[str], out: Path) -> tuple[int, bytes]:
    """The exit code of ``sqss args`` and the bytes it wrote: the file ``out``
    if it is the ``--output``, else its stdout."""
    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    if str(out) in args:
        return code, out.read_bytes() if out.exists() else b""
    return code, stdout.getvalue().encode()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config_paths = {p: Path(tmp) / f"{p}.json" for p in CONFIGS}
        for p, path in config_paths.items():
            path.write_text(json.dumps(CONFIGS[p]))
        out = Path(tmp) / "out"
        for name, args in commands(config_paths, out):
            code, data = written(args, out)
            print(f"{name}: exit {code} {hashlib.sha256(data).hexdigest()}")


if __name__ == "__main__":
    main()
