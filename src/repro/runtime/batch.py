"""Batch execution: map a pipeline over a dataset of items.

The paper's workloads are per-item pipelines over a corpus (summarize +
filter every tweet; QA every patient).  :class:`BatchRunner` runs a
pipeline once per item on a forked state — shared prompt store, model and
caches (so prefix reuse across items behaves like real batched serving),
but isolated context/metadata per item — and aggregates outputs, signals,
and latency.

This module is the *sequential* engine: items run one at a time on the
state's single clock, so batch elapsed is the sum of item latencies.  The
concurrent engine with GEN micro-batching lives in
:mod:`repro.runtime.parallel` and shares :class:`ItemResult` /
:class:`BatchResult` with this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.runtime.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    # repro.core.state imports repro.runtime.clock; module-level imports of
    # core here would be circular.
    from repro.core.pipeline import Pipeline
    from repro.core.state import ExecutionState

__all__ = [
    "ItemResult",
    "BatchResult",
    "BatchRunner",
    "bind_item",
    "cache_delta",
    "collect_item_result",
    "emit_batch_event",
]


def cache_delta(cache: Any, before: "Mapping[str, float] | None") -> dict[str, float]:
    """Result-cache activity since ``before`` (a ``cache.snapshot()``).

    The ``.cache`` of every runner's result: hits / misses /
    invalidations / saved_seconds deltas, or ``{}`` without a cache.
    """
    if cache is None or before is None:
        return {}
    after = cache.snapshot()
    return {
        key: after[key] - before[key]
        for key in ("hits", "misses", "invalidations", "saved_seconds")
    }


def bind_item(state: "ExecutionState", item: Any) -> None:
    """The default item binder shared by every batch-shaped runner.

    A mapping item is spread into the context key by key; any other
    non-None item lands under ``C["item"]``; None binds nothing.  Pass
    an explicit ``bind`` callback for anything richer (the Table-3
    benchmarks bind ``tweet.text`` under ``C["tweet"]``, for example).
    """
    if item is None:
        return
    if isinstance(item, Mapping):
        for key, value in item.items():
            state.context.put(str(key), value, producer="bind")
    else:
        state.context.put("item", item, producer="bind")


@dataclass(frozen=True)
class ItemResult:
    """Outcome of one item's pipeline run."""

    item: Any
    context: dict[str, Any]
    metadata: dict[str, Any]
    elapsed: float
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        """True when the item's run completed without error."""
        return self.error is None


@dataclass
class BatchResult:
    """Aggregated outcome of a batch run."""

    items: list[ItemResult] = field(default_factory=list)
    elapsed: float = 0.0
    #: worker lanes the batch ran on (1 for the sequential runner).
    workers: int = 1
    #: result-cache activity during this batch (hits/misses/invalidations/
    #: saved_seconds deltas); empty when no cache was attached.  Part of
    #: the shared result protocol (``.output()`` / ``.report`` / ``.cache``).
    cache: dict[str, float] = field(default_factory=dict)

    def outputs(self, label: str) -> list[Any]:
        """Per-item values of C[label] (None where missing or failed)."""
        return [result.context.get(label) for result in self.items]

    def output(self, label: str) -> list[Any]:
        """Shared result protocol: per-item values of ``C[label]``.

        The batch-shaped counterpart of :meth:`RunResult.output` — a
        server dispatching to any runner reads outputs the same way.
        """
        return self.outputs(label)

    @property
    def report(self) -> dict[str, Any]:
        """Shared result protocol: one JSON-ready summary of the run."""
        return {
            "runner": "batch",
            "items": len(self.items),
            "failures": len(self.failures()),
            "workers": self.workers,
            "elapsed": self.elapsed,
            "throughput": self.throughput,
            "cache": dict(self.cache),
        }

    def signals(self, name: str) -> list[Any]:
        """Per-item values of M[name] (None where missing)."""
        return [result.metadata.get(name) for result in self.items]

    def failures(self) -> list[ItemResult]:
        """Items whose run raised."""
        return [result for result in self.items if not result.ok]

    @property
    def mean_item_seconds(self) -> float:
        """Mean simulated seconds per item."""
        if not self.items:
            return 0.0
        return self.elapsed / len(self.items)

    @property
    def throughput(self) -> float:
        """Items per simulated second (0 for an empty or instant batch)."""
        if self.elapsed <= 0.0:
            return 0.0
        return len(self.items) / self.elapsed


def collect_item_result(
    item: Any,
    item_state: "ExecutionState",
    elapsed: float,
    error: Exception | None,
) -> ItemResult:
    """Snapshot one item's forked state into an :class:`ItemResult`.

    Shared by the sequential and parallel runners so both report items
    identically (``*__result`` carrier keys are dropped from the context).
    """
    return ItemResult(
        item=item,
        context={
            key: item_state.context[key]
            for key in item_state.context.keys()
            if not key.endswith("__result")
        },
        metadata=item_state.metadata.as_dict(),
        elapsed=elapsed,
        error=error,
    )


def emit_batch_event(
    state: "ExecutionState",
    batch: BatchResult,
    *,
    mode: str,
    runner: str,
    extra: dict[str, Any] | None = None,
) -> None:
    """Record a ``BATCH`` summary event for the whole run.

    The observability layer rolls these into batch metrics, and
    ``spear stats`` renders them as the batch-runs table.
    """
    payload: dict[str, Any] = {
        "mode": mode,
        "items": len(batch.items),
        "failures": len(batch.failures()),
        "workers": batch.workers,
        "elapsed": batch.elapsed,
        "throughput": batch.throughput,
    }
    if extra:
        payload.update(extra)
    state.events.record(
        EventKind.BATCH, runner, at=state.clock.now, payload=payload
    )


class BatchRunner:
    """Runs a pipeline per item over a shared base state.

    Args:
        base_state: the state carrying the model, sources, agents, views,
            and shared prompt store.  Per item, context/metadata are
            forked so items cannot observe each other's data, while P and
            the model's caches stay shared — matching the paper's batched
            execution with prefix reuse.
        bind: called with (item_state, item) before the pipeline, to place
            the item into the context (e.g. ``state.C["tweet"] = item.text``);
            defaults to :func:`bind_item` (mappings spread into C, other
            items land under ``C["item"]``).
        on_error: ``"raise"`` (default) propagates the first exception;
            ``"collect"`` records it in the ItemResult and continues.
    """

    def __init__(
        self,
        base_state: "ExecutionState",
        *,
        bind: "Callable[[ExecutionState, Any], None] | None" = None,
        on_error: str = "raise",
    ) -> None:
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect': {on_error!r}")
        self.base_state = base_state
        self.bind = bind if bind is not None else bind_item
        self.on_error = on_error

    def run(
        self,
        pipeline: "Pipeline",
        items: "Iterable[Any] | Sequence[Any] | None" = None,
    ) -> BatchResult:
        """Execute ``pipeline`` once per item; returns the aggregate."""
        if items is None:
            items = []
        batch = BatchResult()
        clock = self.base_state.clock
        cache = self.base_state.result_cache
        cache_before = cache.snapshot() if cache is not None else None
        batch_start = clock.now
        for item in items:
            item_state = self.base_state.fork()
            item_start = clock.now
            error: Exception | None = None
            try:
                # bind runs inside the error policy: a failing bind is an
                # item failure like any other, not a batch abort under
                # on_error="collect".
                self.bind(item_state, item)
                item_state = pipeline.apply(item_state)
            except Exception as exc:  # noqa: BLE001 - collected by policy
                if self.on_error == "raise":
                    raise
                error = exc
            batch.items.append(
                collect_item_result(
                    item, item_state, clock.now - item_start, error
                )
            )
        batch.elapsed = clock.now - batch_start
        batch.cache = cache_delta(cache, cache_before)
        emit_batch_event(
            self.base_state, batch, mode="sequential", runner="BatchRunner"
        )
        return batch
