"""The eager router and engine, kept as test oracles.

Before generation built features on demand, every GEN call analysed the
whole rendered prompt once (``SimulatedLLM.prepare``) and handed that
record to :func:`reference_route` and to the handlers.  Only the router's
``has_sentiment_terms`` test and clinical QA ever read it.
``test_task_features.py`` checks ``route_task`` and ``TaskEngine.run``
against this path.  It lives under ``tests/`` only and nothing in
``src/`` imports it.
"""

from __future__ import annotations

from unittest import mock

from repro.llm import tasks
from repro.llm.features import PromptFeatures, extract_features
from repro.llm.tasks import SECTION_MARKER, TaskEngine, TaskOutput

_REWRITE_MARKERS = (
    "improve the prompt",
    "rewrite the prompt",
    "refine the prompt",
    "write a prompt",
    "refine the following prompt",
)


def reference_route(prompt: str, features: PromptFeatures) -> str:
    """Classify the prompt into a task kind, reading the eager record."""
    lowered = prompt.lower()
    if SECTION_MARKER.lower() in lowered:
        return "sections"
    if any(marker in lowered for marker in _REWRITE_MARKERS):
        return "rewrite"
    if "enoxaparin" in lowered or "medication history" in lowered:
        return "qa"
    wants_summary = any(
        verb in lowered for verb in ("summarize", "summarise", "clean up", "clean the")
    )
    wants_filter = (
        features.has_sentiment_terms
        or "filter" in lowered
        or "select" in lowered
        or "classify" in lowered
    )
    if wants_summary and wants_filter:
        return "fused"
    if wants_summary:
        return "summarize"
    if wants_filter:
        return "classify"
    return "freeform"


class EagerEngine(TaskEngine):
    """A task engine that analyses every prompt whole, once per call.

    The record routes the call and is the one QA reads, as when
    ``prepare`` built it; sections recurse through this ``run`` too.
    """

    def run(self, prompt: str) -> TaskOutput:
        features = extract_features(prompt)
        handler = self._HANDLERS[reference_route(prompt, features)]
        if handler is TaskEngine._run_qa:
            with mock.patch.object(tasks, "prompt_features", lambda _: features):
                return handler(self, prompt)
        return handler(self, prompt)
