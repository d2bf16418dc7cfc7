"""Tests for the parallel batch runner and its determinism guarantees."""

import pytest

from repro.core import GEN, Pipeline
from repro.core.algebra import FunctionOperator
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.obs import ObsCollector
from repro.obs.metrics import MetricsRegistry
from repro.runtime.batch import BatchRunner
from repro.runtime.events import EventKind
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.scheduler import SchedulerConfig
from tests.runtime import table3_workload as table3

PROMPT = (
    "Select the tweet only if its sentiment is negative. "
    "Respond with yes or no.\nTweet:\n{tweet}"
)
MAP_PROMPT = (
    "Summarize and clean up the tweet in at most 30 words.\nTweet:\n{tweet}"
)


def _bind_tweet(state, tweet):
    state.context.put("tweet", tweet.text, producer="bind")


def _build_state(n_items=20, seed=7, prefix_cache=True):
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=prefix_cache)
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("filter", PROMPT)
    state.prompts.create("map", MAP_PROMPT)
    return state, list(corpus)


def _pipeline():
    return Pipeline([GEN("summary", prompt="map"), GEN("verdict", prompt="filter")])


def _texts(batch):
    return [
        (r.context.get("summary"), r.context.get("verdict")) for r in batch.items
    ]


class TestParallelBatchRunner:
    def test_outputs_identical_to_sequential(self):
        state_seq, items = _build_state()
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(_pipeline(), items=items)

        for workers in (1, 3, 8):
            state_par, items_par = _build_state()
            parallel = ParallelBatchRunner(
                state_par, bind=_bind_tweet, workers=workers
            ).run(_pipeline(), items=items_par)
            assert _texts(parallel) == _texts(sequential)
            assert [r.item.uid for r in parallel.items] == [
                r.item.uid for r in sequential.items
            ]

    def test_simulated_speedup_at_16_workers(self):
        state_seq, items = _build_state(n_items=48)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(_pipeline(), items=items)

        state_par, items_par = _build_state(n_items=48)
        parallel = ParallelBatchRunner(
            state_par, bind=_bind_tweet, workers=16
        ).run(_pipeline(), items=items_par)

        assert _texts(parallel) == _texts(sequential)
        assert sequential.elapsed / parallel.elapsed >= 4.0
        assert parallel.throughput > sequential.throughput

    @pytest.mark.parametrize("n_items, min_speedup", [(24, 3.0), (48, 4.0)])
    def test_table3_scaffold_speedup_at_16_workers(self, n_items, min_speedup):
        """The scaffolded Table-3 workload: outputs equal sequential at 1, 4
        and 16 workers, and prefix-aware admission at 16 beats the bound
        on a warm prefix cache."""
        sequential_state, sequential = table3.sequential(n_items)
        assert sequential_state.model.kv_cache.snapshot()["hit_rate"] >= 0.5
        for workers in (1, 4, 16):
            state, items = table3.build_state(n_items)
            parallel = ParallelBatchRunner(
                state, bind=table3.bind, workers=workers
            ).run(table3.pipeline(), items=items)
            assert table3.outputs(parallel) == table3.outputs(sequential)
        assert sequential.elapsed / parallel.elapsed > min_speedup

    def test_workers_capped_by_item_count(self):
        state, items = _build_state(n_items=3)
        batch = ParallelBatchRunner(state, bind=_bind_tweet, workers=16).run(
            _pipeline(), items=items
        )
        assert batch.workers == 3
        assert len(batch.items) == 3

    def test_microbatching_coalesces_calls(self):
        state, items = _build_state(n_items=12)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=4)
        runner.run(_pipeline(), items=items)
        stats = runner.last_batcher.snapshot()
        assert stats["largest_batch"] == 4
        assert stats["batched_calls"] == 24  # 12 items x 2 GEN calls
        assert stats["open_lanes"] == 0
        assert stats["pending"] == 0

    def test_microbatch_disabled_still_parallel(self):
        state_seq, items = _build_state(n_items=16)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(_pipeline(), items=items)

        state, items_par = _build_state(n_items=16)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=8,
            options=RuntimeOptions(scheduler=SchedulerConfig(max_batch=1)),
        )
        batch = runner.run(_pipeline(), items=items_par)
        assert _texts(batch) == _texts(sequential)
        # Lane overlap alone still beats sequential...
        assert batch.elapsed < sequential.elapsed
        # ...and every engine step held exactly one request.
        assert runner.last_batcher.snapshot()["largest_batch"] == 1

    def test_base_clock_advanced_to_batch_end(self):
        state, items = _build_state(n_items=8)
        start = state.clock.now
        batch = ParallelBatchRunner(state, bind=_bind_tweet, workers=4).run(
            _pipeline(), items=items
        )
        assert state.clock.now == pytest.approx(start + batch.elapsed)

    def test_base_state_context_untouched(self):
        state, items = _build_state(n_items=6)
        ParallelBatchRunner(state, bind=_bind_tweet, workers=3).run(
            _pipeline(), items=items
        )
        assert "tweet" not in state.context
        assert "verdict" not in state.context

    def test_lane_spans_and_batch_event_in_base_log(self):
        state, items = _build_state(n_items=6)
        ParallelBatchRunner(state, bind=_bind_tweet, workers=3).run(
            _pipeline(), items=items
        )
        lane_starts = [
            e for e in state.events.of_kind(EventKind.OPERATOR_START)
            if e.operator.startswith("LANE[")
        ]
        lane_ends = [
            e for e in state.events.of_kind(EventKind.OPERATOR_END)
            if e.operator.startswith("LANE[")
        ]
        assert len(lane_starts) == 3
        assert len(lane_ends) == 3
        batch_events = state.events.of_kind(EventKind.BATCH)
        assert len(batch_events) == 1
        payload = batch_events[0].payload
        assert payload["mode"] == "parallel"
        assert payload["items"] == 6
        assert payload["workers"] == 3
        assert payload["gen_batches"] >= 1

    def test_span_tree_stays_well_formed(self):
        state, items = _build_state(n_items=6)
        ParallelBatchRunner(state, bind=_bind_tweet, workers=3).run(
            _pipeline(), items=items
        )
        collector = ObsCollector()
        collector.replay(state.events)
        roots = collector.spans.finish()
        lanes = [root for root in roots if root.operator.startswith("LANE[")]
        assert len(lanes) == 3
        for lane in lanes:
            assert lane.complete
            assert lane.children  # the per-item GEN spans nest inside

    def test_on_error_raise(self):
        state, items = _build_state(n_items=8)

        def boom(item_state):
            raise RuntimeError("kaput")

        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=4)
        with pytest.raises(RuntimeError, match="kaput"):
            runner.run(Pipeline([FunctionOperator(boom, "BOOM")]), items=items)

    def test_on_error_collect(self):
        state, items = _build_state(n_items=9)

        def bind_or_boom(item_state, tweet):
            if tweet.uid.endswith("2"):
                raise ValueError(f"bad item {tweet.uid}")
            _bind_tweet(item_state, tweet)

        batch = ParallelBatchRunner(
            state, bind=bind_or_boom, workers=3, on_error="collect"
        ).run(_pipeline(), items=items)
        assert len(batch.items) == 9
        failed = batch.failures()
        assert failed and all(
            isinstance(r.error, ValueError) for r in failed
        )
        assert all(r.ok for r in batch.items if r not in failed)

    def test_invalid_arguments(self):
        state, _ = _build_state(n_items=1)
        with pytest.raises(ValueError):
            ParallelBatchRunner(state, bind=_bind_tweet, on_error="ignore")
        with pytest.raises(ValueError):
            ParallelBatchRunner(state, bind=_bind_tweet, workers=0)

    def test_scheduler_false_rejected(self):
        state, _ = _build_state(n_items=1)
        with pytest.raises(TypeError, match="SchedulerConfig or None"):
            ParallelBatchRunner(
                state,
                bind=_bind_tweet,
                options=RuntimeOptions(scheduler=False),
            )

    def test_empty_items(self):
        state, _ = _build_state(n_items=1)
        batch = ParallelBatchRunner(state, bind=_bind_tweet).run(_pipeline(), items=[])
        assert batch.items == []
        assert batch.workers == 0
        assert batch.throughput == 0.0

    def test_metrics_instrumented(self):
        registry = MetricsRegistry()
        state, items = _build_state(n_items=8)
        ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=4,
            options=RuntimeOptions(metrics=registry),
        ).run(_pipeline(), items=items)
        assert registry.sum_counter("spear_microbatch_flushes_total") >= 1
        size_hist = registry.get(
            "spear_microbatch_size", model="qwen2.5-7b-instruct"
        )
        assert size_hist is not None and size_hist.max == 4
        lane_hist = registry.get("spear_lane_elapsed_seconds")
        assert lane_hist is not None and lane_hist.count == 4


class TestParallelStress:
    def test_stress_no_lost_events_or_counter_races(self):
        """>=200 items across >=8 workers: everything the sequential run
        counts, the parallel run counts too."""
        n = 200
        state_seq, items = _build_state(n_items=n, seed=11)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            _pipeline(), items=items
        )

        state_par, items_par = _build_state(n_items=n, seed=11)
        seen = []
        state_par.model.add_listener(lambda result: seen.append(result))
        parallel = ParallelBatchRunner(
            state_par, bind=_bind_tweet, workers=8
        ).run(_pipeline(), items=items_par)

        # Per-item outputs identical, in item order.
        assert _texts(parallel) == _texts(sequential)

        # Model counters equal the sequential run's (no lost increments).
        seq_model = state_seq.model.snapshot()
        par_model = state_par.model.snapshot()
        for key in (
            "calls",
            "total_prompt_tokens",
            "total_cached_tokens",
            "total_output_tokens",
        ):
            assert par_model[key] == seq_model[key], key

        # No listener drops: one notification per generation call.
        assert len(seen) == par_model["calls"]
        assert state_par.model.listener_errors == []

        # No lost or duplicated events: same number of GENERATE events,
        # and the merged log's sequence numbers are strictly increasing.
        seq_gen = state_seq.events.of_kind(EventKind.GENERATE)
        par_gen = state_par.events.of_kind(EventKind.GENERATE)
        assert len(par_gen) == len(seq_gen) == 2 * n
        seqs = [e.seq for e in state_par.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

        # Cache stats survived the concurrency (shared prefix still hits).
        assert par_model["overall_cache_hit_rate"] == pytest.approx(
            seq_model["overall_cache_hit_rate"]
        )
        assert parallel.elapsed < sequential.elapsed

    def test_stress_result_cache_stays_bit_identical(self):
        """The Table-3 workload with the operator result cache enabled:
        parallel lanes sharing one cache stay bit-identical to the
        sequential baseline, on the cold batch and on a fully-cached
        re-run."""
        from repro.runtime.result_cache import ResultCache

        n = 120
        # The prefix cache is off in both arms: with it on, GEN declines
        # result-caching (latency would depend on hidden cache warmth).
        state_seq, items = _build_state(n_items=n, seed=11, prefix_cache=False)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            _pipeline(), items=items
        )

        state_par, items_par = _build_state(
            n_items=n, seed=11, prefix_cache=False
        )
        cache = ResultCache(capacity=8192)
        state_par.result_cache = cache
        cache.subscribe_to(state_par.events, state_par.prompts)
        runner = ParallelBatchRunner(state_par, bind=_bind_tweet, workers=8)

        cold = runner.run(_pipeline(), items=items_par)
        assert _texts(cold) == _texts(sequential)

        # Second pass over the same items: everything is memoized, the
        # outputs stay identical, and the batch is dramatically faster.
        warm = runner.run(_pipeline(), items=items_par)
        assert _texts(warm) == _texts(sequential)
        assert cache.hits >= 2 * n
        assert warm.elapsed < cold.elapsed / 10

        # The BATCH summary event accounts the cache activity.
        batch_events = state_par.events.of_kind(EventKind.BATCH)
        payload = batch_events[-1].payload
        assert payload["result_cache_hits"] == 2 * n
        assert payload["result_cache_saved_seconds"] > 0

    def test_stress_cached_lanes_see_refinement_invalidation(self):
        """A refinement between parallel batches invalidates exactly the
        refined prompt's entries; the next batch re-runs only that stage."""
        from repro.core import REF, RefAction
        from repro.runtime.result_cache import ResultCache

        n = 40
        state, items = _build_state(n_items=n, seed=11, prefix_cache=False)
        cache = ResultCache(capacity=8192)
        state.result_cache = cache
        cache.subscribe_to(state.events, state.prompts)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=8)
        runner.run(_pipeline(), items=items)

        REF(RefAction.APPEND, "Focus on school.", key="filter").apply(state)
        assert cache.invalidations == n  # every verdict entry, nothing else

        hits_before = cache.hits
        misses_before = cache.misses
        second = runner.run(_pipeline(), items=items)
        # Map entries hit; every refined-filter entry re-executes.
        assert cache.hits - hits_before == n
        assert cache.misses - misses_before == n

        # And the re-run output matches a fresh sequential run on an
        # identically refined state.
        state_seq, items_seq = _build_state(
            n_items=n, seed=11, prefix_cache=False
        )
        REF(RefAction.APPEND, "Focus on school.", key="filter").apply(state_seq)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            _pipeline(), items=items_seq
        )
        assert _texts(second) == _texts(sequential)
