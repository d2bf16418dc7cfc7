"""Only the server and the owner check know about threads.

Runtime objects belong to the thread that first runs them
(``repro.obs.ledger.claim_run``), so no module under ``src/repro`` takes a
lock of its own: ``threading`` is imported by the serving dispatcher,
whose one condition guards what its threads share, and by the owner
check. A lock reappearing anywhere else fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = {"repro/serve/server.py", "repro/obs/ledger.py"}


def _imports_threading(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "threading" for name in names):
            return True
    return False


def test_threading_is_imported_only_by_the_server_and_the_owner_check():
    importers = {
        path.relative_to(SRC).as_posix()
        for path in sorted((SRC / "repro").rglob("*.py"))
        if _imports_threading(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers <= ALLOWED, sorted(importers - ALLOWED)
