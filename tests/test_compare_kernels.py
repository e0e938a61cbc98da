"""Smoke test for ``compare_kernels.py``, the analysis kernel timer."""

import json

import pytest

import compare_kernels


def test_one_block_of_this_checkout_against_itself(capsys):
    """One block per side: every kernel reports both sides' figures, their
    ratio and the blocks this side was lower in; a path with no package
    and a block count under one exit 2 before any run."""
    assert compare_kernels.main([str(compare_kernels.SRC.parent), "--blocks", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["blocks"] == 1 and report["this"] == report["other"]
    kernels = report["kernels"]
    assert len(kernels) == 12 + 4 + 1 and "pair-set op" in kernels
    for figures in kernels.values():
        assert figures["other_us"] > 0 and figures["this_us"] > 0
        assert figures["this_over_other"] == pytest.approx(figures["this_us"] / figures["other_us"],
                                                          rel=1e-3)
        assert figures["this_lower_in_blocks"] in ("0/1", "1/1")
    assert compare_kernels.main([str(compare_kernels.TESTS), "--blocks", "1"]) == 2
    assert compare_kernels.main([str(compare_kernels.SRC.parent), "--blocks", "0"]) == 2
