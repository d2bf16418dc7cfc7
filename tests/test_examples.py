"""Smoke tests: every shipped example runs end to end.

Examples are user-facing documentation; a broken one is a bug.  Each main()
is executed in-process with stdout captured, and every ``examples/*.py``
script also runs as a user would start it, in a fresh interpreter.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(autouse=True)
def _examples_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(EXAMPLES_DIR))
    yield
    for name in list(sys.modules):
        if name in {
            "quickstart",
            "enoxaparin_qa",
            "sentiment_fusion",
            "spear_dl_demo",
            "meta_optimization",
            "clinical_audit",
            "semantic_query",
        }:
            del sys.modules[name]


def _run(name: str, capsys) -> str:
    module = importlib.import_module(name)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run("quickstart", capsys)
        assert "verdict:" in out
        assert "prompt provenance" in out
        assert "v0 CREATE" in out

    def test_enoxaparin_qa(self, capsys):
        out = _run("enoxaparin_qa", capsys)
        assert "final answer:" in out
        assert "evidence score:" in out
        assert "replay verification: OK" in out

    def test_spear_dl_demo(self, capsys):
        out = _run("spear_dl_demo", capsys)
        assert "parsed 2 views, 1 pipelines" in out
        assert "answer_1:" in out
        assert "prompt drift" in out

    def test_meta_optimization(self, capsys):
        out = _run("meta_optimization", capsys)
        assert "refiner statistics" in out
        assert "f_add_criteria" in out
        assert "planned refiners" in out
        # The harmful refiner must be identified and skipped by the plan.
        assert "'f_strip_guidance'" in out.split("skipped:")[1]

    def test_semantic_query(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["semantic_query.py", "0.2"])
        out = _run("semantic_query", capsys)
        assert "FUSED[map_filter]" in out
        assert "plan: FILTER" in out  # filter->map stays sequential at 20%

    def test_clinical_audit(self, capsys):
        out = _run("clinical_audit", capsys)
        assert "audited 25 patients" in out
        assert "persisted to JSON" in out
        assert "last item's timeline:" in out


class TestSentimentFusion:
    def test_sentiment_fusion(self, capsys, monkeypatch):
        # Run at a small selectivity where both planner decisions are clear.
        monkeypatch.setattr(sys, "argv", ["sentiment_fusion.py", "0.1"])
        out = _run("sentiment_fusion", capsys)
        assert "map_filter: planner says fuse=True" in out
        assert "filter_map: planner says fuse=False" in out


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES_DIR.glob("*.py")), ids=lambda path: path.stem
)
def test_script_runs_as_main(script, tmp_path):
    """``python examples/<name>.py`` exits 0, in a temp working directory."""
    src = str(EXAMPLES_DIR.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout
    assert list(tmp_path.iterdir()) == []
