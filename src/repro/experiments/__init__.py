"""Experiment harnesses regenerating the paper's tables and figures.

The exports load on first use: importing the package must not import the
submodules, or ``python -m repro.experiments.<module>`` would find its own
module already in ``sys.modules`` before running it as ``__main__``.
"""

from importlib import import_module

_EXPORTS = {
    "Figure1Result": "fusion_models",
    "run_figure1": "fusion_models",
    "Table4Result": "fusion_selectivity",
    "run_table4": "fusion_selectivity",
    "Table3Result": "refinement_strategies",
    "run_table3": "refinement_strategies",
    "VarianceResult": "variance",
    "run_variance": "variance",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
