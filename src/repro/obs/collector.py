"""The live collector: event stream in, metrics + spans out.

:class:`ObsCollector` is the glue of the observability layer.  It hangs
off :meth:`EventLog.subscribe` — so metrics accrue during execution with
zero changes to operator code — and optionally off the model layer's
generation listener and cache snapshots for the numbers that never reach
the event log (cache occupancy, eviction counts, model totals).

The same collector replays exported JSONL logs offline (``spear stats`` /
``spear trace``), so live serving and post-hoc analysis agree by
construction.

Metric catalog (see docs/observability.md for semantics):

=============================================  =========  ==============
name                                           type       labels
=============================================  =========  ==============
spear_events_total                             counter    kind
spear_operator_invocations_total               counter    operator
spear_operator_errors_total                    counter    operator
spear_operator_wall_seconds                    histogram  operator
spear_gen_calls_total                          counter    prompt
spear_gen_latency_seconds                      histogram  prompt
spear_prompt_tokens_total                      counter    prompt
spear_cached_tokens_total                      counter    prompt
spear_output_tokens_total                      counter    prompt
spear_plans_total                              counter    —
spear_plan_refiners_chosen_total               counter    —
spear_plan_refiners_skipped_total              counter    —
spear_shadow_phases_total                      counter    phase
spear_batch_runs_total                         counter    mode
spear_batch_items_total                        counter    mode
spear_batch_failures_total                     counter    mode
spear_batch_elapsed_seconds                    histogram  mode
spear_batch_throughput                         gauge      mode
spear_batch_workers                            gauge      mode
spear_gen_queue_depth                          gauge      model
spear_microbatch_flushes_total                 counter    model
spear_microbatch_size                          histogram  model
spear_microbatch_wall_seconds                  histogram  model
spear_sched_queue_depth                        gauge      model
spear_sched_steps_total                        counter    —
spear_sched_step_size                          histogram  —
spear_sched_step_tokens                        histogram  —
spear_sched_preemptions_total                  counter    —
spear_sched_forced_total                       counter    —
spear_sched_wait_seconds                       histogram  class
spear_prefix_dedup_tokens_total                counter    —
spear_prefix_step_dedup_tokens                 histogram  —
spear_prefix_groups_per_step                   histogram  —
spear_prefix_last_step_dedup_tokens            gauge      —
spear_prefix_cache_nodes                       gauge      model
spear_prefix_cache_leaves                      gauge      model
spear_prefix_cache_pinned_blocks               gauge      model
spear_lane_elapsed_seconds                     histogram  —
spear_model_gen_calls_total                    counter    model
spear_model_gen_latency_seconds                histogram  model
spear_model_prompt_tokens_total                counter    model
spear_model_cached_tokens_total                counter    model
spear_model_output_tokens_total                counter    model
spear_model_calls                              gauge      model
spear_model_latency_seconds_total              gauge      model
spear_kv_cache_blocks                          gauge      model
spear_kv_cache_hit_rate                        gauge      model
spear_kv_cache_evictions_total                 gauge      model
spear_result_cache_hits_total                  counter    operator
spear_result_cache_saved_seconds_total         counter    operator
spear_result_cache_entries                     gauge      —
spear_result_cache_hit_rate                    gauge      —
spear_result_cache_invalidations_total         gauge      —
spear_result_cache_evictions_total             gauge      —
spear_faults_injected_total                    counter    kind
spear_model_failures_total                     counter    model
spear_retries_total                            counter    model
spear_retry_attempts                           histogram  model
spear_retry_backoff_seconds                    histogram  model
spear_breaker_state                            gauge      model
spear_breaker_transitions_total                counter    model
spear_degraded_runs_total                      counter    target
spear_serve_requests_total                     counter    tenant, status
spear_serve_latency_seconds                    histogram  tenant
spear_serve_queue_wait_seconds                 histogram  tenant
spear_serve_shed_total                         counter    tenant
spear_serve_queue_depth                        gauge      tenant
=============================================  =========  ==============

Operator labels are *kinds* (``GEN``, ``CHECK``, …) rather than full
labels like ``GEN["answer"]`` — full labels live on spans; metric
cardinality stays bounded.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.obs.spans import Span, SpanBuilder
from repro.runtime.events import Event, EventKind, EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.model import GenerationResult

__all__ = ["ObsCollector", "operator_kind"]

#: numeric encoding of breaker states for the ``spear_breaker_state`` gauge.
_BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}

#: slots per hot label: the kind's event counter plus up to five instruments.
_HOT_SLOTS = 6
#: the hot kinds, bound once: an enum attribute read is a metaclass lookup.
_START, _END = EventKind.OPERATOR_START, EventKind.OPERATOR_END
_GENERATE, _CACHE_HIT = EventKind.GENERATE, EventKind.CACHE_HIT
#: GENERATE's token counters: (slot, payload field, metric name).
_TOKEN_SIGNALS = (
    (3, "prompt_tokens", "spear_prompt_tokens_total"),
    (4, "cached_tokens", "spear_cached_tokens_total"),
    (5, "output_tokens", "spear_output_tokens_total"),
)


def operator_kind(label: str) -> str:
    """Collapse an operator label to its kind: ``GEN["answer"]`` → ``GEN``."""
    bracket = label.find("[")
    return label[:bracket] if bracket > 0 else label


class ObsCollector:
    """Subscribes to event logs / models and accrues metrics and spans."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.spans = SpanBuilder()
        self._open_starts: dict[str, list[float]] = {}
        # Keyed by the object: a collected object's id() gets reused.
        self._subscribed: weakref.WeakSet[EventLog] = weakref.WeakSet()
        self._attached_models: weakref.WeakSet[Any] = weakref.WeakSet()
        self._attached_result_caches: weakref.WeakSet[Any] = weakref.WeakSet()
        #: (metric name, *label values) -> instrument; registries never
        #: drop instruments, and each metric has fixed label names.
        self._instruments: dict[tuple[str, ...], Any] = {}
        #: per hot kind, operator label (prompt key for GENERATE) ->
        #: instrument slots, shared per (kind, operator kind or prompt
        #: key) through ``_hot_groups``; see :meth:`on_event`.
        self._hot_groups: dict[tuple[EventKind, str], list[Any]] = {}
        self._hot_start: dict[str, list[Any]] = {}
        self._hot_end: dict[str, list[Any]] = {}
        self._hot_generate: dict[str, list[Any]] = {}
        self._hot_cache_hit: dict[str, list[Any]] = {}
        #: model label -> the model listener's instruments.
        self._hot_model: dict[str, tuple[Any, ...]] = {}

    # -- wiring -------------------------------------------------------------

    def subscribe_to(self, log: EventLog) -> None:
        """Attach to ``log`` so every future event updates the metrics."""
        if log in self._subscribed:
            return
        self._subscribed.add(log)
        log.subscribe(self.on_event)

    def unsubscribe_from(self, log: EventLog) -> None:
        """Detach from ``log``."""
        if log.unsubscribe(self.on_event):
            self._subscribed.discard(log)

    def replay(self, log: EventLog) -> None:
        """Feed an already-recorded log through the collector (offline path)."""
        for event in log:
            self.on_event(event)

    def attach_model(self, model: Any, name: str | None = None) -> None:
        """Instrument a :class:`SimulatedLLM`-shaped model.

        Registers pull gauges over the model's aggregate accounting and
        its kv cache snapshots; if the model supports generation
        listeners, per-call latency/token histograms accrue there too
        (useful for direct ``model.generate`` callers that bypass GEN).

        Idempotent per model instance: attaching the same model again is
        a no-op, so two executors sharing one collector + model do not
        double-count ``spear_model_*`` metrics.
        """
        if model in self._attached_models:
            return
        self._attached_models.add(model)
        label = name or getattr(
            getattr(model, "profile", None), "name", type(model).__name__
        )
        gauges = self.registry
        gauges.gauge(
            "spear_model_calls", "Generation calls served by the model.",
            model=label,
        ).set_function(lambda: float(model.calls))
        gauges.gauge(
            "spear_model_latency_seconds_total",
            "Total simulated generation latency.", model=label,
        ).set_function(lambda: float(model.total_latency))
        kv = getattr(model, "kv_cache", None)
        if kv is not None:
            gauges.gauge(
                "spear_kv_cache_blocks", "Blocks resident in the prefix cache.",
                model=label,
            ).set_function(lambda: float(len(kv)))
            gauges.gauge(
                "spear_kv_cache_hit_rate",
                "Token-level prefix-cache hit rate.", model=label,
            ).set_function(lambda: kv.stats.hit_rate)
            gauges.gauge(
                "spear_kv_cache_evictions_total",
                "Blocks evicted from the prefix cache.", model=label,
            ).set_function(lambda: float(kv.stats.evictions))
            gauges.gauge(
                "spear_prefix_cache_nodes",
                "Token-block nodes resident in the radix prefix tree.",
                model=label,
            ).set_function(lambda: float(kv.snapshot()["nodes"]))
            gauges.gauge(
                "spear_prefix_cache_leaves",
                "Leaf nodes of the radix prefix tree (the eviction frontier).",
                model=label,
            ).set_function(lambda: float(kv.snapshot()["leaves"]))
            gauges.gauge(
                "spear_prefix_cache_pinned_blocks",
                "Radix nodes pinned against eviction by the scheduler.",
                model=label,
            ).set_function(lambda: float(kv.snapshot()["pinned_blocks"]))
        if hasattr(model, "add_listener"):
            model.add_listener(
                lambda result: self.on_generation(result, model=label)
            )

    def attach_result_cache(self, cache: Any) -> None:
        """Register pull gauges over an operator-level result cache.

        Complements the event-driven ``spear_result_cache_hits_total``
        counter (from CACHE_HIT events) with the cache's own aggregate
        accounting: occupancy, lifetime hit rate, invalidation and
        eviction counts.  Idempotent per cache instance.
        """
        if cache in self._attached_result_caches:
            return
        self._attached_result_caches.add(cache)
        # The gauges read the cache's own fields (through a read-only view
        # to its cache) rather than building a snapshot dict per read.
        source = getattr(cache, "_inner", cache)
        gauges = self.registry
        gauges.gauge(
            "spear_result_cache_entries",
            "Entries resident in the operator result cache.",
        ).set_function(lambda: float(len(source)))
        gauges.gauge(
            "spear_result_cache_hit_rate",
            "Lifetime hit rate of the operator result cache.",
        ).set_function(lambda: source.hit_rate)
        gauges.gauge(
            "spear_result_cache_invalidations_total",
            "Entries invalidated by prompt refinements.",
        ).set_function(lambda: float(source.invalidations))
        gauges.gauge(
            "spear_result_cache_evictions_total",
            "Entries evicted by the result cache's LRU policy.",
        ).set_function(lambda: float(source.evictions))

    # -- instruments ----------------------------------------------------------

    def _metric(
        self, type_: str, name: str, help_text: str, buckets: Any = None, **labels: str
    ) -> Any:
        """The registry's ``type_`` instrument ``name{labels}``, resolved once."""
        key = (name, *labels.values())
        instrument = self._instruments.get(key)
        if instrument is None:
            options = {"buckets": buckets} if buckets else {}
            make = getattr(self.registry, type_)
            instrument = make(name, help_text, **options, **labels)
            self._instruments[key] = instrument
        return instrument

    # -- event handling -----------------------------------------------------

    def _slots(self, kind: EventKind, label: str) -> list[Any]:
        """The slot list for a label not seen before: every operator label
        of one operator kind shares one (their instruments are labelled by
        the kind), and each prompt key has its own."""
        key = (kind, label if kind is _GENERATE else operator_kind(label))
        slots = self._hot_groups.get(key)
        if slots is None:
            slots = self._hot_groups[key] = [None] * _HOT_SLOTS
        return slots

    def _fill(self, entry: list[Any], slot: int, *args: Any, **labels: Any) -> Any:
        """Resolve ``entry[slot]`` through :meth:`_metric` on its first use."""
        instrument = entry[slot] = self._metric(*args, **labels)
        return instrument

    def on_event(self, event: Event) -> None:
        """The :meth:`EventLog.subscribe` callback.

        The four hot kinds (operator start/end, generation, result-cache
        hit) keep their instruments in a table per kind, from operator
        label (prompt key for generation) to a slot list (see
        :meth:`_slots`).  A slot is filled through :meth:`_metric` the
        first time it is used, so every instrument is registered exactly
        when the generic path would register it.  Every other kind takes
        the generic path.
        """
        self.spans.add(event)
        kind = event.kind
        if kind is _START:
            table, label = self._hot_start, event.operator
        elif kind is _END:
            table, label = self._hot_end, event.operator
        elif kind is _GENERATE:
            payload = event.payload
            table, label = self._hot_generate, str(payload.get("prompt_key", "?"))
        elif kind is _CACHE_HIT:
            table, label = self._hot_cache_hit, event.operator
        else:
            self._metric(
                "counter", "spear_events_total", "Events observed, by kind.",
                kind=kind.value,
            ).inc()
            self._on_rare_event(event)
            return
        hot = table.get(label)
        if hot is None:
            hot = table[label] = self._slots(kind, label)
        (hot[0] or self._fill(
            hot, 0, "counter", "spear_events_total", "Events observed, by kind.",
            kind=kind.value,
        )).inc()
        if kind is _START:
            (hot[1] or self._fill(
                hot, 1, "counter", "spear_operator_invocations_total",
                "Operator applications started.", operator=operator_kind(label),
            )).inc()
            starts = self._open_starts.get(label)
            if starts is None:
                self._open_starts[label] = [event.at]
            else:
                starts.append(event.at)
        elif kind is _END:
            starts = self._open_starts.get(label)
            if starts:
                (hot[1] or self._fill(
                    hot, 1, "histogram", "spear_operator_wall_seconds",
                    "Wall time per operator application (virtual clock).",
                    buckets=LATENCY_BUCKETS, operator=operator_kind(label),
                )).observe(max(event.at - starts.pop(), 0.0))
        elif kind is _GENERATE:
            (hot[1] or self._fill(
                hot, 1, "counter", "spear_gen_calls_total", "GEN operator calls.",
                prompt=label,
            )).inc()
            (hot[2] or self._fill(
                hot, 2, "histogram", "spear_gen_latency_seconds",
                "Simulated latency per generation call.",
                buckets=LATENCY_BUCKETS, prompt=label,
            )).observe(float(payload.get("latency", 0.0) or 0.0))
            for slot, signal, metric in _TOKEN_SIGNALS:
                value = payload.get(signal)
                if value is not None:
                    (hot[slot] or self._fill(
                        hot, slot, "counter", metric,
                        f"Sum of {signal} across GEN calls.", prompt=label,
                    )).inc(float(value))
        else:  # CACHE_HIT
            (hot[1] or self._fill(
                hot, 1, "counter", "spear_result_cache_hits_total",
                "Operator applications served from the result cache.",
                operator=operator_kind(label),
            )).inc()
            (hot[2] or self._fill(
                hot, 2, "counter", "spear_result_cache_saved_seconds_total",
                "Simulated seconds saved by result-cache hits.",
                operator=operator_kind(label),
            )).inc(float(event.payload.get("saved_seconds", 0.0) or 0.0))

    def _on_rare_event(self, event: Event) -> None:
        """The generic path: every kind but the four hot ones."""
        kind = event.kind
        if kind is EventKind.ERROR:
            self._metric(
                "counter", "spear_operator_errors_total", "Operator errors.",
                operator=operator_kind(event.operator),
            ).inc()
        elif kind is EventKind.FAULT:
            model = str(event.payload.get("model", "?"))
            self._metric(
                "counter", "spear_model_failures_total",
                "Generation attempts that failed, by model.", model=model,
            ).inc()
            if event.payload.get("injected"):
                self._metric(
                    "counter", "spear_faults_injected_total",
                    "Injected faults observed, by fault kind.",
                    kind=str(event.payload.get("kind", "?")),
                ).inc()
        elif kind is EventKind.RETRY:
            model = str(event.payload.get("model", "?"))
            self._metric(
                "counter", "spear_retries_total",
                "Retries performed by resilience policies.", model=model,
            ).inc()
            self._metric(
                "histogram", "spear_retry_attempts",
                "Retry ordinal per retried call (1 = first retry).",
                buckets=(1.0, 2.0, 3.0, 5.0, 8.0),
                model=model,
            ).observe(float(event.payload.get("attempt", 1) or 1))
            self._metric(
                "histogram", "spear_retry_backoff_seconds",
                "Backoff delay charged before each retry.",
                buckets=LATENCY_BUCKETS,
                model=model,
            ).observe(float(event.payload.get("delay", 0.0) or 0.0))
        elif kind is EventKind.BREAKER:
            model = str(event.payload.get("model", "?"))
            state_name = str(event.payload.get("state", "?"))
            self._metric(
                "gauge", "spear_breaker_state",
                "Circuit-breaker state (0 closed, 1 half-open, 2 open).",
                model=model,
            ).set(_BREAKER_STATE_VALUES.get(state_name, -1.0))
            if event.payload.get("action") in ("tripped", "closed"):
                self._metric(
                    "counter", "spear_breaker_transitions_total",
                    "Circuit-breaker state transitions.", model=model,
                ).inc()
        elif kind is EventKind.FALLBACK:
            self._metric(
                "counter", "spear_degraded_runs_total",
                "Generations served by a degraded fallback target.",
                target=str(event.payload.get("target", "?")),
            ).inc()
        elif kind is EventKind.PLAN:
            self._metric(
                "counter", "spear_plans_total", "Refinement plans produced."
            ).inc()
            self._metric(
                "counter", "spear_plan_refiners_chosen_total",
                "Refiners chosen across all plans.",
            ).inc(len(event.payload.get("chosen", ()) or ()))
            self._metric(
                "counter", "spear_plan_refiners_skipped_total",
                "Refiners skipped across all plans.",
            ).inc(len(event.payload.get("skipped", ()) or ()))
        elif kind is EventKind.SHADOW:
            self._metric(
                "counter", "spear_shadow_phases_total",
                "Shadow execution phase markers.",
                phase=str(event.payload.get("phase", "?")),
            ).inc()
        elif kind is EventKind.BATCH:
            mode = str(event.payload.get("mode", "?"))
            self._metric(
                "counter", "spear_batch_runs_total", "Batch runs completed, by mode.",
                mode=mode,
            ).inc()
            self._metric(
                "counter", "spear_batch_items_total", "Items processed by batch runs.",
                mode=mode,
            ).inc(float(event.payload.get("items", 0) or 0))
            self._metric(
                "counter", "spear_batch_failures_total",
                "Item failures collected by batch runs.", mode=mode,
            ).inc(float(event.payload.get("failures", 0) or 0))
            self._metric(
                "histogram", "spear_batch_elapsed_seconds",
                "Simulated elapsed time per batch run.",
                buckets=LATENCY_BUCKETS,
                mode=mode,
            ).observe(float(event.payload.get("elapsed", 0.0) or 0.0))
            self._metric(
                "gauge", "spear_batch_throughput",
                "Items per simulated second of the last batch run.",
                mode=mode,
            ).set(float(event.payload.get("throughput", 0.0) or 0.0))
            self._metric(
                "gauge", "spear_batch_workers",
                "Lanes used by the last batch run.", mode=mode,
            ).set(float(event.payload.get("workers", 1) or 1))
        elif kind is EventKind.SCHED:
            # One event per continuous-batching engine step (folded into
            # the base log after the run); this is the sole source of the
            # spear_sched_* counters/histograms — the engine itself only
            # sets gauges, so sharing one registry never double-counts.
            payload = event.payload
            self._metric(
                "counter", "spear_sched_steps_total",
                "Continuous-batching engine steps executed.",
            ).inc()
            self._metric(
                "histogram", "spear_sched_step_size",
                "Generation calls admitted per engine step.",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(float(payload.get("size", 0) or 0))
            self._metric(
                "histogram", "spear_sched_step_tokens",
                "Prompt tokens admitted per engine step.",
                buckets=(64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0),
            ).observe(float(payload.get("tokens", 0) or 0))
            self._metric(
                "counter", "spear_sched_preemptions_total",
                "Admissions that jumped ahead of an older, "
                "lower-priority queued call.",
            ).inc(float(payload.get("preemptions", 0) or 0))
            self._metric(
                "counter", "spear_sched_forced_total",
                "Admissions forced by the timeout watermark.",
            ).inc(float(payload.get("forced", 0) or 0))
            dedup = float(payload.get("dedup_tokens", 0) or 0)
            self._metric(
                "counter", "spear_prefix_dedup_tokens_total",
                "Trunk tokens prefilled once per step instead of once "
                "per request (intra-step prefix dedup).",
            ).inc(dedup)
            self._metric(
                "histogram", "spear_prefix_step_dedup_tokens",
                "Deduplicated trunk tokens per engine step.",
                buckets=(0.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0),
            ).observe(dedup)
            self._metric(
                "gauge", "spear_prefix_last_step_dedup_tokens",
                "Deduplicated trunk tokens of the most recent engine step.",
            ).set(dedup)
            if payload.get("prefix_groups") is not None:
                self._metric(
                    "histogram", "spear_prefix_groups_per_step",
                    "Distinct shared-trunk groups per engine step.",
                    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
                ).observe(float(payload.get("prefix_groups", 0) or 0))
            waits = payload.get("waits", ()) or ()
            classes = payload.get("classes", ()) or ()
            for wait, priority in zip(waits, classes):
                self._metric(
                    "histogram", "spear_sched_wait_seconds",
                    "Queue wait per admitted call, by priority class.",
                    buckets=LATENCY_BUCKETS,
                    **{"class": str(priority)},
                ).observe(float(wait))
        elif kind is EventKind.SERVE:
            # One event per serving-layer request outcome, recorded on
            # the server's own event log (never on tenant session logs,
            # which must stay byte-identical to standalone runs).
            payload = event.payload
            tenant = str(payload.get("tenant", "?"))
            status = str(payload.get("status", "?"))
            self._metric(
                "counter", "spear_serve_requests_total",
                "Serving requests completed, by tenant and outcome.",
                tenant=tenant, status=status,
            ).inc()
            if status == "shed":
                self._metric(
                    "counter", "spear_serve_shed_total",
                    "Requests shed by admission control, by tenant.",
                    tenant=tenant,
                ).inc()
            else:
                self._metric(
                    "histogram", "spear_serve_latency_seconds",
                    "Simulated execution time per served request.",
                    buckets=LATENCY_BUCKETS,
                    tenant=tenant,
                ).observe(float(payload.get("elapsed", 0.0) or 0.0))
                self._metric(
                    "histogram", "spear_serve_queue_wait_seconds",
                    "Wall-clock admission-to-start wait per request.",
                    buckets=LATENCY_BUCKETS,
                    tenant=tenant,
                ).observe(float(payload.get("queue_wait", 0.0) or 0.0))
            if payload.get("queue_depth") is not None:
                self._metric(
                    "gauge", "spear_serve_queue_depth",
                    "Tenant queue depth after this request's admission "
                    "decision.",
                    tenant=tenant,
                ).set(float(payload.get("queue_depth", 0) or 0))

    def on_generation(self, result: "GenerationResult", model: str = "?") -> None:
        """Model-layer listener: every ``generate`` call, however reached.

        These land in a separate ``spear_model_*`` metric family from the
        event-derived ``spear_gen_*`` metrics — a GEN operator call shows
        up in both layers (that is the point: the two layers cross-check
        each other), and callers that bypass the operator layer entirely
        (benchmarks, batch harnesses) still show up here.
        """
        hot = self._hot_model.get(model)
        if hot is None:
            hot = self._hot_model[model] = self._model_instruments(model)
        calls, latency, prompt_tokens, cached_tokens, output_tokens = hot
        calls.inc()
        latency.observe(result.latency.total)
        prompt_tokens.inc(float(result.prompt_tokens))
        cached_tokens.inc(float(result.cached_tokens))
        output_tokens.inc(float(result.output_tokens))

    def _model_instruments(self, model: str) -> tuple[Any, ...]:
        return (
            self._metric(
                "counter", "spear_model_gen_calls_total",
                "Generation calls observed at the model layer.", model=model,
            ),
            self._metric(
                "histogram", "spear_model_gen_latency_seconds",
                "Simulated latency per model-layer generation call.",
                buckets=LATENCY_BUCKETS,
                model=model,
            ),
            *(
                self._metric(
                    "counter", metric, "Model-layer token totals.", model=model
                )
                for metric in (
                    "spear_model_prompt_tokens_total",
                    "spear_model_cached_tokens_total",
                    "spear_model_output_tokens_total",
                )
            ),
        )

    # -- read side ----------------------------------------------------------

    def span_roots(self) -> list[Span]:
        """The span forest seen so far (open spans left untouched)."""
        return self.spans.roots
