"""Pin every cell of the paper tables at their default sizes.

``expected.json`` holds each cell of ``run_table3()``, ``run_table4()`` and
``run_figure1()`` (time, speedup, F1 / accuracy and cache hit per row or
point) as the float's ``repr``, so the comparison is exact: a change to the
simulator that moves any reproduced number, however little, fails here.
Regenerate the file only for a change that means to move the tables::

    PYTHONPATH=src python tests/experiments/test_expected.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.fusion_models import run_figure1
from repro.experiments.fusion_selectivity import run_table4
from repro.experiments.refinement_strategies import run_table3

EXPECTED = Path(__file__).with_name("expected.json")


def compute_cells() -> dict[str, dict[str, dict[str, str]]]:
    """Every default-size table cell, keyed by table / row, as float reprs."""
    table3 = run_table3()
    table4 = run_table4()
    figure1 = run_figure1()
    return {
        "table3": {
            name: {
                "time_s": repr(result.mean_item_seconds),
                "speedup": repr(table3.speedup(name)),
                "f1": repr(result.f1),
                "cache_hit": repr(result.filter_cache_hit),
            }
            for name, result in table3.results.items()
        },
        "table4": {
            f"{order}@{selectivity!r}": {
                "sequential_s": repr(cell.sequential_s),
                "fused_s": repr(cell.fused_s),
                "gain_pct": repr(cell.gain_pct),
                "sequential_accuracy": repr(cell.sequential_accuracy),
                "fused_accuracy": repr(cell.fused_accuracy),
            }
            for (order, selectivity), cell in table4.cells.items()
        },
        "figure1": {
            f"{model}/{order}": {
                "sequential_s": repr(point.sequential_s),
                "fused_s": repr(point.fused_s),
                "speedup": repr(point.speedup),
                "sequential_accuracy": repr(point.sequential_accuracy),
                "fused_accuracy": repr(point.fused_accuracy),
            }
            for (model, order), point in figure1.points.items()
        },
    }


def test_paper_tables_match_pinned_cells():
    expected = json.loads(EXPECTED.read_text())
    assert compute_cells() == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_expected.py --write")
    EXPECTED.write_text(json.dumps(compute_cells(), indent=2) + "\n")
