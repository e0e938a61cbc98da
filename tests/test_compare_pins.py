"""Tests for ``compare_pins.py``, the pin comparison between two checkouts."""

import compare_pins

SCRIPT = "pin_probe.py"


def _checkout(tmp_path, body):
    """A throwaway tests directory holding one pin script, ``body``."""
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / SCRIPT).write_text(body)
    return tests


def test_compare_fails_a_script_that_exits_nonzero_on_both_sides(tmp_path, monkeypatch,
                                                                   capsys):
    """The same nonzero exit code on both sides is a failure, not a match."""
    monkeypatch.setattr(compare_pins, "TESTS", _checkout(tmp_path, "import sys\nsys.exit(1)\n"))
    assert not compare_pins.compare(SCRIPT, compare_pins.SRC)
    out = capsys.readouterr().out
    assert f"{SCRIPT}: exit code: other 1, this 1" in out
    assert f"{SCRIPT}: 0 lines, 0 differ" in out


def test_main_reports_the_net_package_line_count(tmp_path, monkeypatch, capsys):
    """A script that prints the same lines on both sides passes, and the
    last line counts both checkouts' package lines."""
    monkeypatch.setattr(compare_pins, "TESTS", _checkout(tmp_path, "print('pinned')\n"))
    monkeypatch.setattr(compare_pins, "SCRIPTS", (SCRIPT,))
    assert compare_pins.main([str(compare_pins.SRC.parent)]) == 0
    lines = capsys.readouterr().out.splitlines()
    count = sum(len(path.read_text().splitlines())
                for path in (compare_pins.SRC / "sqss").glob("*.py"))
    assert lines == [f"{SCRIPT}: 1 lines, 0 differ",
                     f"src/sqss: other {count} lines, this {count} lines, net +0"]
