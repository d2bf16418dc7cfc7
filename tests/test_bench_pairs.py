"""The pair rule's arithmetic in ``tools/bench_pairs.py``, on fixed numbers,
and every claim record committed under ``claims/``, recomputed."""

import importlib.util
import json
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


# -- committed claim records ---------------------------------------------------

_CLAIMS = sorted((_PATH.parents[1] / "claims").glob("*.json"))


def _record(parent, change):
    summary = bench_pairs.summarize(parent, change)
    return {
        "first": [("parent", "change")[index % 2] for index in range(len(parent))],
        "parent_values": parent,
        "change_values": change,
        "summary": summary,
        "holds": summary["holds"],
    }


def test_claims_are_committed():
    assert _CLAIMS


@pytest.mark.parametrize("path", _CLAIMS, ids=lambda path: path.name)
def test_committed_claim_recomputes(path):
    record = json.loads(path.read_text())
    assert bench_pairs.check_record(record) == []
    assert record["parent"]["src_sha256"] != record["change"]["src_sha256"]


def test_check_record_catches_a_corrupted_raw_value():
    record = _record([10.0, 12.0, 11.0, 13.0, 9.0], [13.0, 15.0, 14.0, 16.0, 12.0])
    assert bench_pairs.check_record(record) == []
    record["change_values"][2] = 11.5
    problems = bench_pairs.check_record(record)
    assert any(problem.startswith("change_median") for problem in problems)
    record["change_values"][2] = "14"
    assert bench_pairs.check_record(record)


def test_check_record_catches_an_edited_summary():
    record = _record([10.0, 12.0, 11.0, 13.0, 9.0], [13.0, 15.0, 14.0, 16.0, 12.0])
    record["summary"]["parent_q3"] = 11.5
    assert bench_pairs.check_record(record) == [
        "parent_q3: stored 11.5, recomputed 12.0"
    ]


def test_check_record_catches_an_unsupported_verdict():
    # 8 wins in 10: the numbers do not support a claim.
    record = _record([10.0] * 10, [11.0] * 8 + [10.0] * 2)
    assert not record["holds"]
    record["holds"] = True
    assert bench_pairs.check_record(record) == [
        "holds: stored True, the pairs give False"
    ]
    record["summary"]["holds"] = True
    assert len(bench_pairs.check_record(record)) == 2
