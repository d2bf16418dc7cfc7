"""Refinement modes: manual, assisted, and automatic (paper §4.1).

The three modes govern how the REF operator is applied — who selects and
executes the refinement function ``f``:

- **manual**: the developer writes the refinement text explicitly;
- **assisted**: the developer states intent (a hint); an LLM call rewrites
  the prompt to honour it;
- **auto**: the system supplies only a high-level objective (or reacts to
  runtime signals) and the LLM derives the refinement.

Each helper returns a ready-to-compose operator; the LLM-backed modes pay
for their rewrite call through the normal generation path, so their cost
shows up in latency accounting exactly like the paper's.
"""

from __future__ import annotations

from typing import Callable

from repro.core.algebra import Condition, Operator
from repro.core.entry import (
    PROMPT_BLOCK_END,
    PROMPT_BLOCK_START,
    RefAction,
    RefinementMode,
)
from repro.core.operators import CHECK, REF
from repro.core.state import ExecutionState
from repro.errors import RefinementError

__all__ = [
    "manual_refinement",
    "assisted_refinement",
    "auto_refinement",
    "adaptive_hint",
    "refine_on_low_confidence",
    "build_rewrite_prompt",
]


def build_rewrite_prompt(
    original: str | None,
    *,
    hint: str | None = None,
    objective: str | None = None,
) -> str:
    """Compose the meta-prompt that asks the model to rewrite a prompt.

    The structured blocks (``<<<PROMPT>>> ... <<<END>>>``, ``Refinement
    hint:``, ``Objective:``) are what the simulated model's rewrite task
    parses; a real backend would simply read them as instructions.
    """
    parts = ["Improve the prompt below so it better accomplishes the task."]
    if original is not None:
        parts.append(f"{PROMPT_BLOCK_START}\n{original}\n{PROMPT_BLOCK_END}")
    if hint is not None:
        parts.append(f"Refinement hint: {hint}")
    if objective is not None:
        parts.append(f"Objective: {objective}")
    parts.append("Return only the rewritten prompt.")
    return "\n".join(parts)


def manual_refinement(key: str, addition: str) -> REF:
    """MANUAL mode: the user appends explicit refinement text.

    E.g. ``manual_refinement("qa_prompt", "Focus on dosage and timing of
    Enoxaparin.")`` — the paper's EXPAND pattern with full user control.
    """
    return REF(
        RefAction.APPEND,
        addition,
        key=key,
        mode=RefinementMode.MANUAL,
        function_name="f_manual_append",
    )


def _rewrite_with_model(
    key: str,
    *,
    hint: str | None,
    objective: str | None,
    function_name: str,
) -> Callable[[ExecutionState, str], str]:
    def _rewrite(state: ExecutionState, current: str) -> str:
        if state.model is None:
            raise RefinementError(
                f"{function_name} requires a model for the rewrite call"
            )
        meta_prompt = build_rewrite_prompt(current, hint=hint, objective=objective)
        # The rewrite call goes through the normal generation path, so its
        # latency and tokens are charged like any other LLM invocation —
        # but it must not pollute the task prefix cache (a rewrite prompt
        # shares no prefix with task prompts, and real deployments route
        # optimizer traffic separately).
        result = state.model.generate(meta_prompt, use_cache=False)
        if not result.text.strip():
            raise RefinementError(f"{function_name} produced an empty prompt")
        return result.text

    _rewrite.__name__ = function_name
    return _rewrite


def assisted_refinement(key: str, hint: str) -> REF:
    """ASSISTED mode: user intent + LLM rewrite (paper §4.1).

    E.g. ``assisted_refinement("qa_prompt", "focus on PE risk")`` issues
    ``REF[UPDATE, f := LLM("Rewrite to highlight PE-related justification")]``.
    """
    return REF(
        RefAction.UPDATE,
        _rewrite_with_model(
            key, hint=hint, objective=None, function_name="f_assisted_rewrite"
        ),
        key=key,
        mode=RefinementMode.ASSISTED,
        function_name="f_assisted_rewrite",
    )


def auto_refinement(key: str, objective: str) -> REF:
    """AUTO mode: high-level objective only; the system derives criteria."""
    return REF(
        RefAction.UPDATE,
        _rewrite_with_model(
            key, hint=None, objective=objective, function_name="f_auto_refine"
        ),
        key=key,
        mode=RefinementMode.AUTO,
        function_name="f_auto_refine",
    )


def adaptive_hint(key: str, hint_text: str) -> REF:
    """AUTO-mode per-item hint injection.

    Appends a short ``Hint: ...`` clause — the lightweight runtime
    adaptation auto mode applies when signals predict a risky item.  The
    appended delta keeps the full original as a cacheable prefix.
    """
    return REF(
        RefAction.APPEND,
        f"Hint: {hint_text}",
        key=key,
        mode=RefinementMode.AUTO,
        function_name="f_add_hint",
    )


def refine_on_low_confidence(
    key: str,
    threshold: float = 0.7,
    *,
    refinement: Operator | None = None,
) -> CHECK:
    """The paper's signature pattern: ``CHECK[M["confidence"] < t] → REF``.

    Default refinement appends a reasoning hint (Table 1's
    ``f_add_reasoning_hint``); pass any operator to customize.
    """
    if refinement is None:
        refinement = REF(
            RefAction.APPEND,
            "Explain your reasoning step by step before answering.",
            key=key,
            mode=RefinementMode.AUTO,
            function_name="f_add_reasoning_hint",
        )
    return CHECK(Condition.metadata_below("confidence", threshold), refinement)
