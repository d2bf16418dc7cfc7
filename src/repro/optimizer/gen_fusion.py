"""GEN fusion: combining adjacent generations into one call (paper §5).

"When GENs share context, such as generating multiple sections from the
same view, they can be fused into a single prompt to reduce token
duplication and improve coherence.  However, when GEN logic is applied
independently across inputs, fusion may degrade accuracy...  SPEAR
selectively applies GEN fusion based on prompt dependencies and reuse
potential."

Two pieces implement that here:

- :class:`FusedGen` — the fused operator: renders several prompts, factors
  out their longest common prefix (the shared view scaffold) so it is sent
  once, makes a single model call, and splits the sectioned output back
  into each GEN's context label;
- :func:`fuse_gens` — the selective rewrite: adjacent GENs in a pipeline
  are fused only when their prompt entries derive from the *same view*
  (the dependency signal the paper names); independent GENs are left
  sequential.
"""

from __future__ import annotations

from repro.core.algebra import GenCall, Operator, Steps
from repro.core.operators import GEN
from repro.core.pipeline import Pipeline
from repro.core.state import ExecutionState
from repro.errors import FusionError, OperatorError
from repro.llm.tasks import SECTION_MARKER
from repro.runtime.events import EventKind

__all__ = ["FusedGen", "fuse_gens", "shared_prefix"]


def shared_prefix(texts: list[str]) -> str:
    """The longest common line-prefix of ``texts`` (whole lines only)."""
    if not texts:
        return ""
    split = [text.splitlines() for text in texts]
    prefix_lines = []
    for lines in zip(*split):
        first = lines[0]
        if all(line == first for line in lines[1:]):
            prefix_lines.append(first)
        else:
            break
    return "\n".join(prefix_lines)


class FusedGen(Operator):
    """Execute several GENs as one sectioned model call.

    ``specs`` is an ordered list of ``(label, prompt_key)`` pairs.  The
    rendered prompts' shared line-prefix is emitted once; each prompt's
    remainder becomes a ``### Section k`` block.  The model answers every
    section in a single invocation (one overhead, one prefill of the
    shared scaffold), and the output is split back so ``C[label_k]``
    holds exactly what the k-th GEN would have produced.
    """

    def __init__(self, specs: list[tuple[str, str]], *, max_tokens: int | None = None) -> None:
        if len(specs) < 2:
            raise OperatorError("FusedGen needs at least two (label, prompt) pairs")
        self.specs = list(specs)
        self.max_tokens = max_tokens
        labels = ", ".join(label for label, __ in specs)
        self.label = f"FUSED_GEN[{labels}]"

    def _steps(self, state: ExecutionState) -> Steps:
        if state.model is None:
            raise OperatorError("FUSED_GEN requires a model on the execution state")
        rendered = [
            state.render_prompt(prompt_key) for __, prompt_key in self.specs
        ]
        prefix = shared_prefix(rendered)
        sections = []
        for index, text in enumerate(rendered):
            remainder = text[len(prefix):].lstrip("\n") if prefix else text
            sections.append(f"{SECTION_MARKER} {index + 1}:\n{remainder}")
        combined = "\n".join(([prefix] if prefix else []) + sections)

        result = yield GenCall(state.model, combined, self.max_tokens)
        parts = result.extras.get("sections")
        if parts is None or len(parts) != len(self.specs):
            raise FusionError(
                f"fused generation returned {0 if parts is None else len(parts)} "
                f"sections for {len(self.specs)} prompts"
            )

        for (label, __), text in zip(self.specs, parts):
            state.context.put(label, text, producer=self.label)
        state.context.put(
            f"{self.specs[0][0]}__result", result, producer=self.label
        )
        state.metadata.update(
            {
                "confidence": result.confidence,
                "latency": result.latency.total,
                "prompt_tokens": result.prompt_tokens,
                "cached_tokens": result.cached_tokens,
                "output_tokens": result.output_tokens,
                "cache_hit_rate": result.cache_hit_rate,
            }
        )
        state.metadata.increment("gen_calls")
        state.events.emit(
            EventKind.GENERATE,
            self.label,
            at=state.clock.now,
            fused=len(self.specs),
            shared_prefix_chars=len(prefix),
            latency=result.latency.total,
        )
        return state


def fuse_gens(pipeline: Pipeline, state: ExecutionState) -> Pipeline:
    """Selectively fuse adjacent same-view GENs in ``pipeline``.

    Two consecutive GENs fuse when both prompt keys exist in ``state``'s
    prompt store and record the same originating view — the "share
    context" dependency signal of §5.  Everything else is preserved
    verbatim, so independent GENs keep their retry/evaluation granularity.
    """
    rewritten: list[Operator] = []
    pending: list[GEN] = []

    def flush() -> None:
        if len(pending) >= 2:
            rewritten.append(
                FusedGen([(gen.label_key, gen.prompt_key) for gen in pending])
            )
        else:
            rewritten.extend(pending)
        pending.clear()

    def view_of(gen: GEN) -> str | None:
        entry = state.prompts.get(gen.prompt_key)
        return entry.view if entry is not None else None

    for operator in pipeline:
        if isinstance(operator, GEN) and not operator.extra and view_of(operator):
            if pending and view_of(pending[-1]) != view_of(operator):
                flush()
            pending.append(operator)
        else:
            flush()
            rewritten.append(operator)
    flush()
    return Pipeline(rewritten, name=pipeline.name)
