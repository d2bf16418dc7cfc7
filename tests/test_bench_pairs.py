"""The pair rule's arithmetic in ``tools/bench_pairs.py``, on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_odd_count_claim_holds():
    summary = bench_pairs.summarize([10, 12, 11, 13, 9], [13, 15, 14, 16, 12])
    assert summary["ratios"][0] == pytest.approx(1.3)
    assert (summary["parent_median"], summary["change_median"]) == (11, 14)
    assert (summary["parent_q1"], summary["parent_q3"]) == (10, 12)
    assert (summary["spread"], summary["gap"], summary["wins"]) == (2, 3, 5)
    assert summary["holds"]


def test_even_count_interpolates_and_fails():
    summary = bench_pairs.summarize([1, 2, 3, 4], [3, 4, 5, 3])
    assert (summary["parent_median"], summary["change_median"]) == (2.5, 3.5)
    assert (summary["parent_q1"], summary["parent_q3"]) == (1.75, 3.25)
    # 3 wins of 4 is under 9 in 10, and a gap of 1 is inside the spread.
    assert (summary["wins"], summary["gap"], summary["spread"]) == (3, 1.0, 1.5)
    assert not summary["holds"]


def test_a_tie_is_not_a_win():
    parent = [10.0] * 10
    one_tie = bench_pairs.summarize(parent, [11.0] * 9 + [10.0])
    assert (one_tie["wins"], one_tie["spread"], one_tie["gap"]) == (9, 0, 1)
    assert one_tie["holds"]
    two_ties = bench_pairs.summarize(parent, [11.0] * 8 + [10.0] * 2)
    assert two_ties["wins"] == 8 and not two_ties["holds"]
    # A median gap equal to the spread is not wider than it.
    level = bench_pairs.summarize([10, 12, 11, 13, 9], [12, 14, 13, 15, 11])
    assert level["gap"] == level["spread"] == 2 and not level["holds"]


def test_needs_two_aligned_pairs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0])
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0])
