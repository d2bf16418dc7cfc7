"""Tests for the live collector, the run report, and the offline path."""

from repro.core import CHECK, Condition, GEN, REF, RefAction
from repro.obs import ObsCollector, build_report, build_run_report, operator_kind
from repro.obs.report import Pricing
from repro.runtime.events import EventKind, EventLog
from repro.runtime.tracing import export_events, import_events


def _run_pipeline(state, tweet_corpus, collector=None):
    if collector is not None:
        collector.subscribe_to(state.events)
        collector.attach_model(state.model)
    state.prompts.create(
        "qa", f"Summarize the tweet.\nTweet:\n{tweet_corpus[0].text}"
    )
    pipeline = (
        GEN("answer", prompt="qa")
        >> CHECK(
            Condition.metadata_below("confidence", 2.0),
            REF(RefAction.APPEND, "Be brief.", key="qa"),
        )
        >> GEN("answer", prompt="qa")
    )
    return pipeline.apply(state)


class TestOperatorKind:
    def test_strips_bracket_suffix(self):
        assert operator_kind('GEN["answer"]') == "GEN"
        assert operator_kind("Pipeline[audit]") == "Pipeline"
        assert operator_kind("CHECK") == "CHECK"


class TestLiveCollection:
    def test_metrics_accrue_during_execution(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        registry = collector.registry

        assert registry.sum_counter("spear_gen_calls_total") == 2
        assert registry.get("spear_operator_invocations_total", operator="GEN").value == 2
        assert registry.get("spear_operator_invocations_total", operator="CHECK").value == 1
        assert registry.sum_counter("spear_prompt_tokens_total") > 0
        # Event counter covers lifecycle + semantic events.
        assert registry.sum_counter("spear_events_total") == len(state.events)

    def test_model_layer_cross_checks_event_layer(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        registry = collector.registry
        # Both GEN calls went through the model, so the two independent
        # layers (event-derived vs. model listener) must agree.
        assert registry.sum_counter("spear_model_gen_calls_total") == 2
        assert registry.sum_counter(
            "spear_model_prompt_tokens_total"
        ) == registry.sum_counter("spear_prompt_tokens_total")

    def test_cache_gauges_pull_from_model(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        model_label = state.model.profile.name
        gauge = collector.registry.get("spear_kv_cache_blocks", model=model_label)
        assert gauge is not None
        assert gauge.value == float(len(state.model.kv_cache))

    def test_subscribe_is_idempotent(self, state, tweet_corpus):
        collector = ObsCollector()
        collector.subscribe_to(state.events)
        collector.subscribe_to(state.events)  # second call is a no-op
        state.events.emit(EventKind.CHECK, "A")
        assert collector.registry.sum_counter("spear_events_total") == 1

    def test_attach_model_is_idempotent(self, state, tweet_corpus):
        collector = ObsCollector()
        collector.attach_model(state.model)
        collector.attach_model(state.model)  # second call is a no-op
        _run_pipeline(state, tweet_corpus)
        # One listener registered → model-layer calls counted once.
        assert collector.registry.sum_counter("spear_model_gen_calls_total") == 2


class TestRunReport:
    def test_report_sections_populated(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        report = build_report(collector, top_k=3)

        assert report.operators["GEN"]["invocations"] == 2
        assert report.operators["GEN"]["wall_seconds"]["count"] == 2
        assert report.generation["qa"]["calls"] == 2
        assert 0.0 < report.generation["qa"]["cache_hit_ratio"] <= 1.0
        assert report.generation["qa"]["cost_usd"] > 0
        assert report.totals["gen_calls"] == 2
        assert report.totals["model_gen_calls"] == 2
        assert len(report.slowest_spans) <= 3
        assert report.slowest_spans[0]["wall"] >= report.slowest_spans[-1]["wall"]
        model_label = state.model.profile.name
        assert "kv_cache_hit_rate" in report.cache[model_label]

    def test_mid_run_report_leaves_live_spans_intact(self):
        # Generating a report between events (live scrape) must not close
        # the open span stack: later ENDs still pair up and children stay
        # children.
        collector = ObsCollector()
        log = EventLog()
        collector.subscribe_to(log)
        log.emit(EventKind.OPERATOR_START, "OUTER", at=0.0)
        log.emit(EventKind.OPERATOR_START, "INNER", at=1.0)

        mid = build_report(collector)
        # The snapshot sees the open spans, closed and marked incomplete.
        assert any(not span["complete"] for span in mid.slowest_spans)

        log.emit(EventKind.OPERATOR_END, "INNER", at=2.0)
        log.emit(EventKind.OPERATOR_END, "OUTER", at=3.0)
        final = build_report(collector)
        roots = collector.span_roots()
        assert len(roots) == 1
        outer = roots[0]
        assert outer.complete and outer.end == 3.0
        assert len(outer.children) == 1
        assert outer.children[0].complete and outer.children[0].end == 2.0
        assert all(span["complete"] for span in final.slowest_spans)

    def test_pricing_flows_into_costs(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        free = build_report(
            collector, pricing=Pricing(0.0, 0.0, 0.0)
        )
        assert free.totals["cost_usd"] == 0.0

    def test_pricing_cost_math(self):
        pricing = Pricing(
            prompt_usd_per_1m=1.0, cached_usd_per_1m=0.1, output_usd_per_1m=2.0
        )
        # 1M uncached prompt tokens -> $1; cached subset billed at discount.
        assert pricing.cost(1_000_000, 0, 0) == 1.0
        assert pricing.cost(1_000_000, 1_000_000, 0) == 0.1
        assert pricing.cost(0, 0, 500_000) == 1.0


class TestResultCacheMetrics:
    """CACHE_HIT events and attached caches feed spear_result_cache_*."""

    @staticmethod
    def _cached_run(collector):
        from repro.core import Pipeline
        from repro.data import make_tweet_corpus
        from repro.llm.model import SimulatedLLM
        from repro.runtime.executor import Executor
        from repro.runtime.options import RuntimeOptions
        from repro.runtime.result_cache import ResultCache

        llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
        corpus = make_tweet_corpus(2, seed=7)
        llm.bind_tweets(corpus)
        cache = ResultCache()
        executor = Executor(
            options=RuntimeOptions(
                model=llm,
                clock=llm.clock,
                collector=collector,
                result_cache=cache,
            )
        )
        state = executor.new_state()
        state.prompts.create(
            "qa", f"Summarize the tweet.\nTweet:\n{corpus[0].text}"
        )
        pipeline = Pipeline([GEN("answer", prompt="qa")])
        executor.run(pipeline, state=state)
        executor.run(pipeline, state=state)  # the hit
        return cache, state

    def test_hit_counters_accrue_from_events(self):
        collector = ObsCollector()
        cache, _state = self._cached_run(collector)
        registry = collector.registry
        hit_counter = registry.get(
            "spear_result_cache_hits_total", operator="GEN"
        )
        assert hit_counter is not None and hit_counter.value == 1
        assert (
            registry.sum_counter("spear_result_cache_saved_seconds_total") > 0
        )

    def test_pull_gauges_read_cache_snapshot(self):
        collector = ObsCollector()
        cache, state = self._cached_run(collector)
        registry = collector.registry
        assert registry.get("spear_result_cache_entries").value == float(
            len(cache)
        )
        assert registry.get(
            "spear_result_cache_hit_rate"
        ).value == cache.hit_rate
        REF(RefAction.APPEND, "Be brief.", key="qa").apply(state)
        assert registry.get(
            "spear_result_cache_invalidations_total"
        ).value == 1.0

    def test_report_result_cache_section(self):
        collector = ObsCollector()
        cache, _state = self._cached_run(collector)
        report = build_report(collector)
        section = report.result_cache
        assert section["by_operator"]["GEN"]["hits"] == 1
        assert section["by_operator"]["GEN"]["saved_seconds"] > 0
        assert section["entries"] == float(len(cache))
        assert section["hit_rate"] == cache.hit_rate
        assert report.totals["result_cache_hits"] == 1
        assert report.totals["result_cache_saved_seconds"] > 0
        assert report.to_dict()["result_cache"] == section

    def test_attach_result_cache_idempotent(self):
        from repro.runtime.result_cache import ResultCache

        collector = ObsCollector()
        cache = ResultCache()
        collector.attach_result_cache(cache)
        collector.attach_result_cache(cache)  # no duplicate-gauge error
        assert collector.registry.get(
            "spear_result_cache_entries"
        ).value == 0.0

    def test_reports_without_cache_have_empty_section(self, state, tweet_corpus):
        collector = ObsCollector()
        _run_pipeline(state, tweet_corpus, collector)
        report = build_report(collector)
        assert report.result_cache == {}
        assert report.totals["result_cache_hits"] == 0


class TestOfflineReplay:
    def test_exported_trace_reproduces_live_report(
        self, state, tweet_corpus, tmp_path
    ):
        live = ObsCollector()
        state = _run_pipeline(state, tweet_corpus, live)
        live_report = build_report(live)

        path = export_events(state.events, tmp_path / "run.jsonl")
        offline_report = build_run_report(import_events(path))

        # Event-derived sections agree exactly; model/cache sections need
        # the live model and are absent offline.
        assert offline_report.operators == live_report.operators
        assert offline_report.generation == live_report.generation
        assert offline_report.slowest_spans == live_report.slowest_spans
        assert offline_report.totals["gen_calls"] == live_report.totals["gen_calls"]
        assert (
            offline_report.totals["prompt_tokens"]
            == live_report.totals["prompt_tokens"]
        )
        assert offline_report.model == {}

    def test_replay_of_empty_log_yields_empty_report(self):
        report = build_run_report(EventLog())
        assert report.operators == {}
        assert report.generation == {}
        assert report.totals["events"] == 0


#: every kind ``ObsCollector.on_event`` turns into metrics.
_HANDLED_KINDS = {
    EventKind.OPERATOR_START, EventKind.OPERATOR_END, EventKind.GENERATE,
    EventKind.CACHE_HIT, EventKind.ERROR, EventKind.FAULT, EventKind.RETRY,
    EventKind.BREAKER, EventKind.FALLBACK, EventKind.PLAN, EventKind.SHADOW,
    EventKind.BATCH, EventKind.SCHED, EventKind.SERVE,
}


def _emit_remaining_kinds(log):
    """What resilience, planning, batch, scheduler and serve runs emit:
    three rounds over two label values, so instruments are re-used."""
    for model, tenant in (("m1", "t1"), ("m2", "t2"), ("m1", "t1")):
        log.emit(EventKind.ERROR, 'GEN["a"]', at=1.0, error="X", message="x")
        log.record(EventKind.FAULT, "GEN", at=1.0, payload={
            "model": model, "injected": True, "kind": "timeout"})
        log.emit(EventKind.RETRY, "GEN", at=1.5, model=model, attempt=2,
                 delay=0.25)
        log.emit(EventKind.BREAKER, "GEN", at=2.0, model=model,
                 state="open", action="tripped")
        log.emit(EventKind.FALLBACK, "GEN", at=2.0, target=model)
        log.emit(EventKind.PLAN, "PLAN", at=2.0, chosen=["r1", "r2"],
                 skipped=["r3"])
        log.emit(EventKind.SHADOW, "SHADOW", at=2.0, phase="start")
        log.emit(EventKind.BATCH, "BatchRunner", at=3.0, mode="parallel",
                 items=4, failures=1, elapsed=2.5, throughput=1.6, workers=2)
        log.emit(EventKind.SCHED, "scheduler", at=3.0, size=3, tokens=900,
                 preemptions=1, forced=0, dedup_tokens=64, prefix_groups=2,
                 waits=[0.1, 0.4], classes=["bulk", "interactive"])
        log.emit(EventKind.SERVE, "server", at=4.0, tenant=tenant,
                 status="ok", elapsed=1.2, queue_wait=0.01, queue_depth=1)
        log.emit(EventKind.SERVE, "server", at=4.0, tenant=tenant,
                 status="shed")


def _registry_state(registry):
    """Every family, label set and value, comparable with ``==``."""
    from repro.obs.metrics import Histogram

    rows = []
    for name, kind, help_text, samples in registry.collect():
        for labels, instrument in samples:
            if isinstance(instrument, Histogram):
                value = (tuple(instrument.bucket_counts), instrument.count,
                         instrument.sum, instrument.min, instrument.max)
            else:
                value = instrument.value
            rows.append((name, kind, help_text, sorted(labels.items()), value))
    return rows


class _NoMemo(dict):
    """An instrument cache that forgets: every lookup goes to the registry."""

    def __setitem__(self, key, value):
        pass


def _uncached(registry=None):
    collector = ObsCollector(registry)
    collector._instruments = _NoMemo()
    return collector


def _metric_only_fold(collector, event):
    """The hot kinds as the generic path folds them: every instrument
    through ``_metric``, nothing resolved ahead; the oracle for the slot
    tables of :meth:`ObsCollector.on_event`."""
    from repro.obs.metrics import LATENCY_BUCKETS

    kind = event.kind
    if kind not in (
        EventKind.OPERATOR_START, EventKind.OPERATOR_END,
        EventKind.GENERATE, EventKind.CACHE_HIT,
    ):
        collector.on_event(event)
        return
    metric = collector._metric
    collector.spans.add(event)
    metric("counter", "spear_events_total", "Events observed, by kind.",
           kind=kind.value).inc()
    if kind is EventKind.OPERATOR_START:
        metric("counter", "spear_operator_invocations_total",
               "Operator applications started.",
               operator=operator_kind(event.operator)).inc()
        collector._open_starts.setdefault(event.operator, []).append(event.at)
    elif kind is EventKind.OPERATOR_END:
        starts = collector._open_starts.get(event.operator)
        if starts:
            metric("histogram", "spear_operator_wall_seconds",
                   "Wall time per operator application (virtual clock).",
                   buckets=LATENCY_BUCKETS,
                   operator=operator_kind(event.operator),
                   ).observe(max(event.at - starts.pop(), 0.0))
    elif kind is EventKind.GENERATE:
        prompt = str(event.payload.get("prompt_key", "?"))
        metric("counter", "spear_gen_calls_total", "GEN operator calls.",
               prompt=prompt).inc()
        metric("histogram", "spear_gen_latency_seconds",
               "Simulated latency per generation call.",
               buckets=LATENCY_BUCKETS, prompt=prompt,
               ).observe(float(event.payload.get("latency", 0.0) or 0.0))
        for signal in ("prompt_tokens", "cached_tokens", "output_tokens"):
            value = event.payload.get(signal)
            if value is not None:
                metric("counter", f"spear_{signal}_total",
                       f"Sum of {signal} across GEN calls.",
                       prompt=prompt).inc(float(value))
    else:
        op = operator_kind(event.operator)
        metric("counter", "spear_result_cache_hits_total",
               "Operator applications served from the result cache.",
               operator=op).inc()
        metric("counter", "spear_result_cache_saved_seconds_total",
               "Simulated seconds saved by result-cache hits.",
               operator=op,
               ).inc(float(event.payload.get("saved_seconds", 0.0) or 0.0))


def _emit_unbalanced(log):
    """START/END brackets a well-formed run never emits, and hot events
    with fields missing."""
    log.emit(EventKind.OPERATOR_END, 'ORPHAN["x"]', at=5.0)
    log.emit(EventKind.OPERATOR_START, "OUTER", at=5.0)
    log.emit(EventKind.OPERATOR_START, 'GEN["inner"]', at=5.5)
    log.emit(EventKind.GENERATE, 'GEN["inner"]', at=6.0, prompt_key="qa",
             latency=0.5, prompt_tokens=7)
    log.emit(EventKind.GENERATE, 'GEN["inner"]', at=6.0)
    log.emit(EventKind.OPERATOR_END, "OUTER", at=6.5)
    log.emit(EventKind.OPERATOR_END, 'GEN["inner"]', at=7.0)
    log.emit(EventKind.OPERATOR_END, 'GEN["inner"]', at=7.5)
    log.emit(EventKind.CACHE_HIT, 'GEN["hit"]', at=8.0)
    log.emit(EventKind.OPERATOR_START, 'OTHER["y"]', at=8.5)
    log.emit(EventKind.OPERATOR_END, 'OTHER["y"]', at=8.75)
    log.emit(EventKind.OPERATOR_START, 'GEN["open"]', at=9.0)
    log.emit(EventKind.OPERATOR_START, 'GEN["open"]', at=9.5)
    log.emit(EventKind.OPERATOR_END, 'GEN["open"]', at=9.0)


class TestInstrumentCache:
    """The per-collector instrument cache never changes what is recorded."""

    @staticmethod
    def _run(*collectors, late=None):
        """A cached run through ``collectors``; ``late`` joins halfway."""
        log = EventLog()
        for collector in collectors:
            collector.subscribe_to(log)
        _cache, state = TestResultCacheMetrics._cached_run(None)
        half = len(state.events) // 2
        log.extend(state.events.all()[:half])
        if late is not None:
            late.subscribe_to(log)
        log.extend(state.events.all()[half:])
        REF(RefAction.APPEND, "Be brief.", key="qa").apply(state)
        log.extend(state.events.all()[-3:])
        _emit_remaining_kinds(log)
        return log, half

    def test_live_registry_equals_replay_and_uncached_oracle(self):
        live = ObsCollector()
        log, _half = self._run(live)
        assert _HANDLED_KINDS <= {event.kind for event in log}
        replayed = ObsCollector()
        replayed.replay(log)
        oracle = _uncached()
        oracle.replay(log)
        assert _registry_state(live.registry) == _registry_state(
            replayed.registry
        )
        assert _registry_state(live.registry) == _registry_state(
            oracle.registry
        )

    def test_hot_kind_slots_equal_a_metric_only_fold(self):
        log, _half = self._run()
        _emit_unbalanced(log)
        live = ObsCollector()
        live.replay(log)
        oracle = ObsCollector()
        for event in log:
            _metric_only_fold(oracle, event)
        assert _registry_state(live.registry) == _registry_state(
            oracle.registry
        )
        assert [span.to_dict() for span in live.spans.finish()] == [
            span.to_dict() for span in oracle.spans.finish()
        ]
        assert live._open_starts == oracle._open_starts

    def test_series_row_equals_dumps_of_the_dict_row(self):
        """Rows re-round only changed values; the bytes must not move."""
        import math

        from repro.obs.ledger import _dumps
        from repro.obs.metrics import Counter, Gauge, MetricsRegistry
        from repro.obs.timeseries import SeriesRecorder, _sample_name

        registry = MetricsRegistry()
        ticks = registry.counter("ticks_total", kind="a")
        level = registry.gauge("level")
        pulled = [math.inf, math.nan, -math.inf, 1e-7, 0.1234567, -0.0, 5.0]
        current = {}
        registry.gauge("pulled").set_function(lambda: current["pulled"])

        def dict_row(at, trigger):
            metrics = {}
            for name, _kind, _help, samples in registry.collect():
                for labels, instrument in samples:
                    if isinstance(instrument, (Counter, Gauge)):
                        metrics[_sample_name(name, labels)] = round(
                            float(instrument.value), 6
                        )
            return {"at": round(at, 6), "trigger": trigger, "metrics": metrics}

        pairs = []
        recorder = SeriesRecorder(registry, sink=lambda row: pairs.append(
            (_dumps(row), _dumps(dict_row(row["at"], row["trigger"])))
        ))
        for step, (inc, value) in enumerate(
            [(1, 0.0), (0, -0.0), (0.25, 2.0000004), (0, 2.0000004), (1, 0.0),
             (0, 1e300), (0, -(2.0**60))]
        ):
            ticks.inc(inc)
            level.set(value)
            current["pulled"] = pulled[step]
            if step == 3:
                registry.counter("late_total").inc()
            recorder.sample(float(step), "manual")
        assert len(pairs) == 7
        for written, expected in pairs:
            assert written == expected
        assert "-0.0" in pairs[1][0] and "Infinity" in pairs[0][0]

    def test_two_collectors_sharing_one_registry(self):
        first = ObsCollector()
        second = ObsCollector(first.registry)
        log, half = self._run(first, late=second)
        events = log.all()

        oracle_first = _uncached()
        oracle_second = _uncached(oracle_first.registry)
        for index, event in enumerate(events):
            oracle_first.on_event(event)
            if index >= half:
                oracle_second.on_event(event)
        assert _registry_state(first.registry) == _registry_state(
            oracle_first.registry
        )
        assert first.registry.sum_counter("spear_events_total") == (
            2 * len(events) - half
        )


class TestRecycledObjects:
    """Wiring is keyed by the object, so a recycled ``id()`` is never
    mistaken for an already-wired log."""

    def test_fifty_short_lived_logs_all_count(self):
        collector = ObsCollector()
        for _ in range(50):
            log = EventLog()
            collector.subscribe_to(log)
            log.emit(EventKind.CHECK, "A")
            del log
        assert collector.registry.sum_counter("spear_events_total") == 50

    def test_unsubscribe_then_resubscribe(self):
        collector = ObsCollector()
        log = EventLog()
        collector.subscribe_to(log)
        collector.unsubscribe_from(log)
        log.emit(EventKind.CHECK, "A")
        collector.subscribe_to(log)
        log.emit(EventKind.CHECK, "B")
        assert collector.registry.sum_counter("spear_events_total") == 1
