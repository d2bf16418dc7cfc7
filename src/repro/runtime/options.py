"""Unified runner configuration: one options object for all runners.

:class:`RuntimeOptions` consolidates the service knobs that used to be
scattered (with varying names) across the :class:`~repro.runtime.executor.Executor`,
:class:`~repro.runtime.parallel.ParallelBatchRunner`, and
:class:`~repro.runtime.incremental.RefinementLoop` constructors — the
model backend, view registry, virtual clock, observability collector,
metrics registry, operator-level result cache, and the resilience
runtime.  All three runners accept ``options=``; their legacy per-knob
keyword arguments — deprecated since the options object landed — now
raise a clean :class:`TypeError` naming the ``options=`` replacement.

Passing both ``options=`` and a legacy keyword for the same knob is an
error (there is no sensible precedence between them).
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
    #: the parallel runner's continuous GEN engine.  ``None`` or ``True``
    #: runs it with the default
    #: :class:`~repro.runtime.scheduler.SchedulerConfig`, a config tunes
    #: it, and ``False`` is rejected: the runner has no direct path
    #: (``SchedulerConfig(max_batch=1)`` is its no-coalescing setting).
    #: The sequential Executor has no engine — it calls the model
    #: directly — and raises :class:`TypeError` for ``True`` or a
    #: config.  The config's ``prefix_group_blocks`` /
    #: ``prefix_dedup`` knobs control prefix-aware admission: grouping
    #: shared-trunk requests into the same step and charging each step's
    #: shared trunk prefill once instead of once per request.
    scheduler: Any = None
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


def resolve_legacy_kwargs(
    owner: str,
    options: RuntimeOptions | None,
    legacy: dict[str, Any],
) -> RuntimeOptions:
    """Reject the removed per-knob kwargs in favour of :class:`RuntimeOptions`.

    ``legacy`` maps field name → value-as-passed (None meaning "not
    passed").  The per-knob keywords were deprecated when the options
    object landed and have now completed their migration: any non-None
    legacy value raises a :class:`TypeError` that names the exact
    ``options=RuntimeOptions(...)`` replacement.
    """
    used = {name: value for name, value in legacy.items() if value is not None}
    if options is not None:
        if used:
            raise TypeError(
                f"{owner}: pass either options= or the legacy keyword(s) "
                f"{sorted(used)}, not both"
            )
        return options
    if used:
        names = ", ".join(f"{name}=" for name in sorted(used))
        replacement = ", ".join(f"{name}=..." for name in sorted(used))
        raise TypeError(
            f"{owner}({names}) was removed; pass "
            f"options=RuntimeOptions({replacement}) instead"
        )
    return RuntimeOptions()
