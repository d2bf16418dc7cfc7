"""The per-key-set SPEAR153 taint walk, kept as a test oracle.

This is the walk ``repro.analysis.costs._dependent_step_counts``
replaced: one pass over the steps per refined key set.
``test_taint_differential.py`` checks the one-pass bitmask count against
it for every key set.  It lives under ``tests/`` only and nothing in
``src/`` imports it.
"""

from __future__ import annotations

from repro.analysis.dataflow import OpNode


def reference_dependent_steps(steps: list[OpNode], keys: frozenset[str]) -> int:
    """How many of ``steps`` re-run when a refiner rewrites ``keys``.

    Taint runs from the top: any step touching a tainted prompt key
    re-runs, and re-running steps taint every context slot and prompt
    key they write.
    """
    tainted_prompts = set(keys)
    tainted_context: set[str] = set()
    rerun = 0
    for node in steps:
        if (
            tainted_prompts.isdisjoint(node.prompt_reads)
            and tainted_prompts.isdisjoint(node.prompt_writes)
            and tainted_context.isdisjoint(node.context_reads)
        ):
            continue
        rerun += 1
        tainted_prompts.update(node.prompt_writes)
        tainted_context.update(node.context_writes)
    return rerun
