"""Every public package imports first, in a fresh interpreter.

``repro/__init__.py`` imports nothing, so no package's import relies on
another having been imported before it: an import cycle between
subpackages fails here rather than only when a user happens to import
the wrong module first.
"""

import os
import subprocess
import sys
from pathlib import Path

PACKAGES = (
    "repro.core",
    "repro.llm",
    "repro.obs",
    "repro.runtime",
    "repro.serve",
    "repro.analysis",
    "repro.dl",
    "repro.optimizer",
    "repro.api",
    "repro.cli",
)


def test_each_package_imports_first_in_a_fresh_interpreter():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    # One interpreter per package, all started before any is awaited.
    procs = {
        name: subprocess.Popen(
            [sys.executable, "-c", f"import {name}"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name in PACKAGES
    }
    failures = {}
    for name, proc in procs.items():
        _, stderr = proc.communicate(timeout=60)
        if proc.returncode != 0:
            failures[name] = stderr.strip().splitlines()[-1:]
    assert failures == {}
