"""Smoke test for ``compare_bench.py``, the per-protocol Monte Carlo timer."""

import json

import pytest

import compare_bench


def test_one_block_of_this_checkout_against_itself(capsys):
    """One block of one trial per side: the start-up section and every
    protocol x family row report both sides' figures and the blocks this
    side was lower in, and the rows their ratio; a path with no package
    and a count under one exit 2 before any run."""
    this = str(compare_bench.SRC.parent)
    assert compare_bench.main([this, "--blocks", "1", "--trials", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["blocks"] == 1 and report["this"] == report["other"]
    assert report["commits"]["this"] == report["commits"]["other"]
    startup = report["startup_s"]["import sqss.cli"]
    assert startup["other_s"] > 0 and startup["this_s"] > 0
    assert startup["this_lower_in_blocks"] in ("0/1", "1/1")
    rows = report["us_per_particle"]
    assert sorted(rows) == sorted(f"{p} {family}" for p in "ab"
                                  for family in ("honest", "mr", "ir", "em"))
    for figures in rows.values():
        assert figures["other_us"] > 0 and figures["this_us"] > 0
        assert figures["this_over_other"] == pytest.approx(figures["this_us"] / figures["other_us"],
                                                          rel=1e-3)
        assert figures["this_lower_in_blocks"] in ("0/1", "1/1")
    assert compare_bench.main([str(compare_bench.SRC), "--blocks", "1"]) == 2
    assert compare_bench.main([this, "--blocks", "0"]) == 2
    assert compare_bench.main([this, "--trials", "0"]) == 2
