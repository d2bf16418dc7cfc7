"""Unified runner configuration: one options object for all runners.

:class:`RuntimeOptions` holds the service knobs of the
:class:`~repro.runtime.executor.Executor`,
:class:`~repro.runtime.parallel.ParallelBatchRunner` and
:class:`~repro.runtime.incremental.RefinementLoop` — the model backend,
view registry, virtual clock, observability collector, metrics registry,
operator-level result cache, and the resilience runtime.  Each runner
takes it once, as ``options=`` at construction; there are no per-knob
keywords and no per-call overrides.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.views import ViewRegistry
    from repro.obs.collector import ObsCollector
    from repro.obs.metrics import MetricsRegistry
    from repro.resilience.runtime import ResilienceRuntime
    from repro.runtime.clock import VirtualClock
    from repro.runtime.result_cache import ResultCache
    from repro.runtime.scheduler import SchedulerConfig

__all__ = ["RuntimeOptions"]


@dataclass
class RuntimeOptions:
    """Shared runtime services for Executor / ParallelBatchRunner / RefinementLoop.

    Every field is optional; a runner uses its usual default for any field
    left as None.  One options object can be shared by several runners —
    it is read, never mutated, by the runners.
    """

    #: the LLM backend (usually a :class:`~repro.llm.model.SimulatedLLM`).
    model: Any = None
    #: the view registry shared by built states.
    views: "ViewRegistry | None" = None
    #: the virtual clock; defaults to the model's clock when it has one.
    clock: "VirtualClock | None" = None
    #: observability collector subscribed to every built state's log.
    collector: "ObsCollector | None" = None
    #: metrics registry for runner-level instrumentation (lanes, batches).
    metrics: "MetricsRegistry | None" = None
    #: operator-level result cache shared by built states.
    result_cache: "ResultCache | None" = None
    #: resilience runtime (retries / breakers / fallback) attached to
    #: every built state; forked lane states share the same object.
    resilience: "ResilienceRuntime | None" = None
    #: run the static checker before executing; error diagnostics raise
    #: :class:`~repro.errors.SpearValidationError` *before* the first
    #: model call.  Off by default: clean-path runs stay byte-identical.
    strict: bool = False
    #: directory for the persistent run ledger; each top-level run
    #: (Executor / ParallelBatchRunner / RefinementLoop) persists a
    #: ``<ledger_dir>/<run_id>/`` directory with manifest, events,
    #: report, attribution, and time series.  None (default) disables
    #: the ledger entirely — the clean path writes nothing.
    ledger_dir: Any = None
    #: simulated seconds between time-series watermark samples written
    #: to the ledger's ``series.jsonl``.
    series_interval: float = 1.0
    #: the parallel runner's continuous GEN engine: ``None`` runs it
    #: with the default :class:`~repro.runtime.scheduler.SchedulerConfig`
    #: and a config tunes it (``SchedulerConfig(max_batch=1)`` gives
    #: every call its own step).  The sequential Executor has no engine —
    #: it calls the model directly — and accepts only ``None``.  Any
    #: other value raises :class:`TypeError`.  The config's
    #: ``prefix_group_blocks`` / ``prefix_dedup`` knobs control
    #: prefix-aware admission: grouping shared-trunk requests into the
    #: same step and charging each step's shared trunk prefill once
    #: instead of once per request.
    scheduler: "SchedulerConfig | None" = None
    #: default priority class for the parallel runner's generation calls
    #: — a :class:`~repro.runtime.scheduler.PriorityClass`, its string
    #: name, or a callable ``item -> priority`` resolved per item.
    priority: Any = None
    #: admission deadline in virtual seconds from each call's arrival;
    #: the parallel runner's engine orders equal-priority work by
    #: earliest deadline.  It may also be a callable ``item -> float |
    #: None``.  ``priority`` and ``deadline_s`` no-op on the Executor,
    #: which has no engine (``spear check`` flags this as SPEAR145).
    deadline_s: Any = None

    def replace(self, **overrides: Any) -> "RuntimeOptions":
        """A copy with ``overrides`` applied (None fields stay inherited)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        unknown = set(overrides) - set(values)
        if unknown:
            raise TypeError(f"unknown RuntimeOptions fields: {sorted(unknown)}")
        values.update(overrides)
        return RuntimeOptions(**values)
