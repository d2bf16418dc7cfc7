"""Span-tree reconstruction from the structured event log.

Every operator application brackets its work with ``OPERATOR_START`` /
``OPERATOR_END`` events (see :meth:`repro.core.algebra.Operator.apply`),
so the flat event log already *is* a trace — this module rebuilds the
nesting.  A :class:`Span` is one operator application with its wall time
on the virtual clock, the generation calls and token counts that happened
inside it (inclusive of children), and its child spans.

The builder is streaming (one ``add`` per event), so the live collector
and the offline ``spear trace`` CLI share the same code path.  Malformed
logs degrade gracefully:

- an END with no matching open START is ignored;
- an END whose operator matches an *outer* open span closes the inner
  spans above it first (marked incomplete);
- spans still open when the log ends are closed at the last timestamp
  seen and marked incomplete (truncated logs).
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass, field
from typing import Iterator

from repro.runtime.events import Event, EventKind, EventLog

#: bound once: an enum attribute read is a metaclass lookup.
_START, _END = EventKind.OPERATOR_START, EventKind.OPERATOR_END
_GENERATE = EventKind.GENERATE

__all__ = [
    "Span",
    "SpanBuilder",
    "build_span_tree",
    "iter_spans",
    "top_slowest",
    "render_span_tree",
]



@dataclass
class Span:
    """One operator application reconstructed from START/END events."""

    operator: str
    start: float
    end: float | None = None
    depth: int = 0
    complete: bool = True
    children: list["Span"] = field(default_factory=list)
    #: inclusive accounting: a parent's numbers include its children's.
    gen_calls: int = 0
    prompt_tokens: int = 0
    cached_tokens: int = 0
    output_tokens: int = 0
    gen_latency: float = 0.0
    events: int = 0

    @property
    def wall(self) -> float:
        """Wall time on the virtual clock (0 for an unclosed span)."""
        if self.end is None:
            return 0.0
        return max(self.end - self.start, 0.0)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of prompt tokens inside this span served from cache."""
        if self.prompt_tokens == 0:
            return 0.0
        return self.cached_tokens / self.prompt_tokens

    def to_dict(self) -> dict:
        """Serialize the span (and its subtree) for the JSON report."""
        return {
            "operator": self.operator,
            "start": self.start,
            "end": self.end,
            "wall": self.wall,
            "complete": self.complete,
            "gen_calls": self.gen_calls,
            "prompt_tokens": self.prompt_tokens,
            "cached_tokens": self.cached_tokens,
            "output_tokens": self.output_tokens,
            "gen_latency": self.gen_latency,
            "events": self.events,
            "children": [child.to_dict() for child in self.children],
        }


class SpanBuilder:
    """Streaming reconstruction: feed events, read the finished forest."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._last_at: float = 0.0

    def add(self, event: Event) -> None:
        """Incorporate one event."""
        at = event.at
        if at > self._last_at:
            self._last_at = at
        kind = event.kind
        stack = self._stack
        if kind is _START:
            span = Span(operator=event.operator, start=at, depth=len(stack))
            if stack:
                stack[-1].children.append(span)
            else:
                self.roots.append(span)
            stack.append(span)
            return
        if kind is _END:
            if stack and stack[-1].operator == event.operator:
                stack.pop().end = at  # the balanced case
                return
            if not any(span.operator == event.operator for span in stack):
                return  # unbalanced: END with no open START
            # Close any inner spans the log never ended (interleaving /
            # truncation), then the matching span itself.
            while stack:
                span = stack.pop()
                span.end = at
                if span.operator == event.operator:
                    break
                span.complete = False
            return
        # Semantic event: attribute to every open span (inclusive rollup).
        for span in stack:
            span.events += 1
        if kind is _GENERATE:
            payload = event.payload
            prompt = int(payload.get("prompt_tokens", 0) or 0)
            cached = int(payload.get("cached_tokens", 0) or 0)
            output = int(payload.get("output_tokens", 0) or 0)
            latency = float(payload.get("latency", 0.0) or 0.0)
            for span in stack:
                span.gen_calls += 1
                span.prompt_tokens += prompt
                span.cached_tokens += cached
                span.output_tokens += output
                span.gen_latency += latency

    def finish(self) -> list[Span]:
        """Close still-open spans at the last seen timestamp; return roots.

        Destructive: the builder stops tracking the open spans, so later
        ``add`` calls would start a fresh forest.  For a mid-run view
        that leaves the live stack intact, use :meth:`slowest`.
        """
        while self._stack:
            span = self._stack.pop()
            span.end = self._last_at
            span.complete = False
        return self.roots

    def slowest(self, k: int = 5) -> list[Span]:
        """The ``k`` slowest spans so far, the live builder untouched.

        Ranks as ``top_slowest(self.finish(), k)`` would, but copies only
        the winners (without children); an open one is closed at the last
        seen timestamp and marked incomplete in its copy alone, so a
        mid-run report never disturbs the events that follow.
        """
        last = self._last_at

        def wall(span: Span) -> float:
            return max((last if span.end is None else span.end) - span.start, 0.0)

        picked = []
        for span in heapq.nsmallest(k, iter_spans(self.roots), key=lambda s: -wall(s)):
            copy = dataclasses.replace(span, children=[])
            if copy.end is None:
                copy.end, copy.complete = last, False
            picked.append(copy)
        return picked


def build_span_tree(log: EventLog) -> list[Span]:
    """Reconstruct the span forest of a whole (possibly truncated) log."""
    builder = SpanBuilder()
    for event in log:
        builder.add(event)
    return builder.finish()


def iter_spans(roots: list[Span]) -> Iterator[Span]:
    """Depth-first iteration over a span forest."""
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        yield span
        stack.extend(reversed(span.children))


def top_slowest(roots: list[Span], k: int = 5) -> list[Span]:
    """The ``k`` spans with the largest wall time, slowest first."""
    return sorted(iter_spans(roots), key=lambda span: -span.wall)[:k]


def render_span_tree(roots: list[Span]) -> str:
    """Render a span forest as an indented, annotated text tree."""
    lines: list[str] = []
    for span in iter_spans(roots):
        indent = "  " * span.depth
        marker = "" if span.complete else "  [incomplete]"
        tokens = ""
        if span.gen_calls:
            tokens = (
                f"  gen={span.gen_calls}"
                f" tokens={span.prompt_tokens}p/{span.cached_tokens}c/"
                f"{span.output_tokens}o"
            )
        lines.append(
            f"{span.start:8.2f}s  {indent}{span.operator}"
            f"  ({span.wall:.2f}s){tokens}{marker}"
        )
    return "\n".join(lines)
