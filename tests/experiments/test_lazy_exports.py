"""The package's exports load lazily, so ``python -m`` runs warning-clean."""

import subprocess
import sys

import pytest

SUBMODULES = (
    "fusion_models",
    "fusion_selectivity",
    "refinement_strategies",
    "variance",
)


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        check=False,
    )


def test_importing_the_package_loads_no_submodule():
    probe = _run(
        "import sys, repro.experiments\n"
        f"names = ['repro.experiments.' + m for m in {SUBMODULES!r}]\n"
        "print([name for name in names if name in sys.modules])"
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "[]"


def test_exports_resolve_on_first_use():
    import repro.experiments as experiments
    from repro.experiments import Table3Result, run_table3
    from repro.experiments.refinement_strategies import run_table3 as direct

    assert run_table3 is direct
    assert Table3Result.__name__ == "Table3Result"
    for name in experiments.__all__:
        assert getattr(experiments, name).__name__ == name


def test_unknown_names_still_raise():
    import repro.experiments as experiments

    with pytest.raises(AttributeError, match="run_table5"):
        experiments.run_table5
