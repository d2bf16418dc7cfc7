"""``tools/claims_trajectory.py`` over the claim records committed under ``claims/``."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "claims_trajectory.py"
_SPEC = importlib.util.spec_from_file_location("claims_trajectory", _PATH)
claims_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(claims_trajectory)

_CLAIMS = _PATH.parents[1] / "claims"


def test_every_committed_record_has_its_row_in_commit_order():
    records = [json.loads(path.read_text()) for path in sorted(_CLAIMS.glob("*.json"))]
    table = claims_trajectory.trajectory(_CLAIMS)
    assert sum(map(len, table.values())) == len(records)
    for record in records:
        rows = table[record["workload"], record["seed"]]
        assert {
            "parent": record["parent"]["commit"],
            "median_ratio": record["summary"]["median_ratio"],
            "wins": record["summary"]["wins"],
            "pairs": record["summary"]["pairs"],
            "holds": record["holds"],
        } in rows
    order = claims_trajectory.commit_order(_CLAIMS)
    for seed in (7, 11):
        parents = [row["parent"][:7] for row in table["hol_mixed", seed]]
        if order:  # git log: oldest parent first
            assert parents == ["c644751", "3743941", "f04f660"]
        else:  # the file names' order
            assert parents == ["3743941", "c644751", "f04f660"]


def test_output_is_labelled_as_context(capsys):
    assert claims_trajectory.main([str(_CLAIMS)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "Claim records in commit order: context for a new claim, not claims."
    )
    assert "hol_mixed seed 7" in out and "hol_mixed seed 11" in out


def test_outside_a_checkout_the_file_names_order(tmp_path):
    for name in ("f04f660-w-seed7.json", "3743941-w-seed7.json"):
        source = json.loads((_CLAIMS / "3743941-hol_mixed-seed7.json").read_text())
        source["workload"], source["parent"]["commit"] = "w", None
        (tmp_path / name).write_text(json.dumps(source))
    assert claims_trajectory.commit_order(tmp_path) == []
    table = claims_trajectory.trajectory(tmp_path)
    assert [row["parent"] for row in table["w", 7]] == ["3743941", "f04f660"]
