"""Tests for the continuous-batching GEN scheduler.

Covers the engine in isolation (policy, watermark, token budget, lane
lifecycle), the runner integration (byte-identity to sequential,
deterministic step composition, priority/deadline policy), the hypothesis
property suite over randomized pipelines, the mixed-priority stress run,
the starvation regression for lanes that die before their first submit,
and the step-error regression (a lookup or task that raises inside a step
fails only its own request).  The engine runs on one thread: ``submit``
never waits, ``finish`` forces steps, and every case here drives it
directly or through the runner's lane generators.
"""

import contextlib
import io
import random
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as spear_main
from repro.core import GEN, RETRY, Condition, Pipeline
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.errors import ModelError, TransientModelError
from repro.llm.model import SimulatedLLM
from repro.llm.radix_cache import RadixPrefixCache
from repro.obs import ObsCollector
from repro.obs.ledger import Ledger
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import parallel as parallel_module
from repro.runtime.batch import BatchRunner
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventKind
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.scheduler import (
    GenScheduler,
    PriorityClass,
    SchedulerConfig,
    resolve_priority_class,
)
from tests.runtime import table3_workload as table3
from tests.runtime.reference_dedup import shared_prefix_tokens

FILTER_PROMPT = (
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
    state.prompts.create("filter", FILTER_PROMPT)
    state.prompts.create("map", MAP_PROMPT)
    return state, list(corpus)


def _pipeline():
    return Pipeline(
        [GEN("summary", prompt="map"), GEN("verdict", prompt="filter")]
    )


def _texts(batch):
    return [
        (r.context.get("summary"), r.context.get("verdict"))
        for r in batch.items
    ]


def _fail_task_on(llm, marker):
    """Make ``llm.execute_task`` raise for every prompt containing ``marker``."""
    original = llm.execute_task

    def execute_task(prompt, **kwargs):
        if marker in prompt:
            raise ValueError(f"task failed on {marker!r}")
        return original(prompt, **kwargs)

    llm.execute_task = execute_task


def _run_mixed_priority(state, items, bind, pipeline):
    """Every 4th item interactive with a 2 s deadline, the rest bulk."""
    runner = ParallelBatchRunner(
        state,
        bind=bind,
        workers=8,
        options=RuntimeOptions(
            scheduler=SchedulerConfig(max_batch=4, watermark_s=1e9),
            priority=lambda item: "interactive"
            if int(item.uid[-1]) % 4 == 0
            else "bulk",
            deadline_s=lambda item: 2.0
            if int(item.uid[-1]) % 4 == 0
            else None,
        ),
    )
    return runner, runner.run(pipeline, items=items)


def _step_trace(engine):
    """The composition-relevant view of a step trace, for equality checks."""
    return [
        (
            record.index,
            record.forced,
            record.preemptions,
            tuple(
                (m.lane_id, m.priority, m.arrival, m.start, m.completion)
                for m in record.members
            ),
        )
        for record in engine.steps
    ]


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch=0)
        with pytest.raises(ValueError):
            SchedulerConfig(max_batch_tokens=0)
        with pytest.raises(ValueError):
            SchedulerConfig(watermark_s=-1.0)

    def test_resolve_priority_class(self):
        assert resolve_priority_class(None) is PriorityClass.NORMAL
        assert resolve_priority_class("bulk") is PriorityClass.BULK
        assert resolve_priority_class("INTERACTIVE") is PriorityClass.INTERACTIVE
        assert (
            resolve_priority_class(PriorityClass.BULK) is PriorityClass.BULK
        )
        with pytest.raises(ValueError):
            resolve_priority_class("urgent")
        assert PriorityClass.INTERACTIVE.rank < PriorityClass.NORMAL.rank
        assert PriorityClass.NORMAL.rank < PriorityClass.BULK.rank


class TestEngineUnit:
    def _model(self, n=8, seed=7):
        llm = SimulatedLLM("qwen2.5-7b-instruct")
        llm.bind_tweets(make_tweet_corpus(n, seed=seed))
        return llm

    def test_lane_lifecycle_errors(self):
        engine = GenScheduler(self._model())
        clock = VirtualClock()
        engine.open_lane(0, clock)
        with pytest.raises(ValueError):
            engine.open_lane(0, clock)
        with pytest.raises(RuntimeError):
            engine.configure_lane(1, priority="bulk")
        with pytest.raises(RuntimeError):
            engine.submit(1, "hello")
        engine.close_lane(0)
        with pytest.raises(RuntimeError):
            engine.submit(0, "hello")

    def test_single_lane_matches_direct_model(self):
        """One lane with a free pipe degenerates to the direct call path:
        same text, same latency, same clock advance."""
        direct = self._model()
        prompt = "Summarize the tweet.\nTweet:\nthe trains are late again"
        direct_result = direct.generate(prompt)

        scheduled = self._model()
        engine = GenScheduler(scheduled)
        proxy = engine.open_lane(0, scheduled.clock)
        sched_result = proxy.generate(prompt)
        engine.close_lane(0)

        assert sched_result.text == direct_result.text
        assert sched_result.latency.total == pytest.approx(
            direct_result.latency.total
        )
        assert scheduled.clock.now == pytest.approx(direct.clock.now)

    def test_single_lane_passthrough_matches_direct_generate(self):
        """A lane on its own clock reports the direct call's text, token
        count and latency, and its clock lands where the model's would."""
        prompt = (
            "Select the tweet only if its sentiment is negative. "
            "Respond with yes or no.\nTweet:\nthis day was awful and I hate it"
        )
        direct = self._model(n=10, seed=3)
        expected = direct.generate(prompt)

        engine = GenScheduler(self._model(n=10, seed=3))
        clock = VirtualClock()
        result = engine.open_lane(0, clock).generate(prompt)
        engine.close_lane(0)

        assert result.text == expected.text
        assert result.prompt_tokens == expected.prompt_tokens
        assert result.latency.total == pytest.approx(expected.latency.total)
        assert clock.now == pytest.approx(direct.clock.now)

    def test_lane_must_be_open(self):
        engine = GenScheduler(self._model())
        with pytest.raises(RuntimeError):
            engine.submit(0, "hello")

    def test_duplicate_lane_rejected(self):
        engine = GenScheduler(self._model())
        engine.open_lane(0, VirtualClock())
        with pytest.raises(ValueError):
            engine.open_lane(0, VirtualClock())

    def test_submit_never_waits_and_finish_forces_steps(self):
        """``submit`` parks a call while a peer lane is still running;
        ``finish`` (the opaque, synchronous path) forces a step of one."""
        engine = GenScheduler(self._model())
        engine.open_lane(0, VirtualClock())
        engine.open_lane(1, VirtualClock())
        request = engine.submit(0, "Summarize the tweet.\nTweet:\nso tired")
        assert not request.done and engine.flushes == 0
        assert engine.finish(request).text
        assert request.done and engine.flushes == 1
        assert engine.snapshot()["pending"] == 0

    def test_closing_idle_lane_releases_pending_peer(self):
        """Starvation regression: a lane that dies between open_lane and
        its first submit must not leave peers parked forever."""
        engine = GenScheduler(self._model())
        engine.open_lane(0, VirtualClock())
        engine.open_lane(1, VirtualClock())
        request = engine.submit(
            0, "Summarize the tweet.\nTweet:\nso tired of delays"
        )
        assert not request.done
        # Lane 1 "raises before its first submit": all it can do is
        # close.  That must release lane 0 as a step of one.
        engine.close_lane(1)
        assert request.done
        assert engine.finish(request).text

    def test_prepare_error_delivered_to_caller_only(self):
        """An invalid prompt fails only the lane that submitted it; the
        queue drains and a peer lane in the same quiescence completes."""
        engine = GenScheduler(self._model())
        for lane_id in range(2):
            engine.open_lane(lane_id, VirtualClock())
        bad = engine.submit(0, "")
        good = engine.submit(1, "Summarize the tweet.\nTweet:\nso tired of delays")
        # The quiescent prepare phase failed lane 0's call in place; lane
        # 1 stays queued until lane 0 is parked again or closes.
        assert bad.done and not good.done
        with pytest.raises(ModelError):
            engine.finish(bad)
        engine.close_lane(0)
        assert good.done and engine.finish(good).text
        engine.close_lane(1)
        assert engine.snapshot()["pending"] == 0
        assert engine.batched_calls == 1

    def test_lane_model_delegates_attributes(self):
        model = self._model()
        lane = GenScheduler(model).open_lane(0, VirtualClock())
        assert lane.profile is model.profile
        assert lane.kv_cache is model.kv_cache
        assert lane.tokenizer is model.tokenizer

    def test_token_budget_splits_steps(self):
        state, items = _build_state(n_items=12)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=12,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(max_batch_tokens=120)
            ),
        )
        runner.run(Pipeline([GEN("summary", prompt="map")]), items=items)
        engine = runner.last_batcher
        assert engine.flushes > 1  # the budget split the quiescence set
        for record in engine.steps:
            # Within budget, except a protected singleton admission.
            assert record.tokens <= 120 or record.size == 1

    def test_watermark_zero_forces_arrival_order(self):
        """watermark_s=0 forces every pending request: admission becomes
        pure arrival order regardless of priority class."""
        state, items = _build_state(n_items=8)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=4,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(watermark_s=0.0),
                priority=lambda item: "interactive"
                if item.uid.endswith("1")
                else "bulk",
            ),
        )
        runner.run(_pipeline(), items=items)
        engine = runner.last_batcher
        assert engine.forced == engine.batched_calls
        for record in engine.steps:
            arrivals = [m.arrival for m in record.members]
            assert arrivals == sorted(arrivals)

    def test_snapshot_keys_superset_of_barrier(self):
        state, items = _build_state(n_items=6)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=3)
        runner.run(_pipeline(), items=items)
        snapshot = runner.last_batcher.snapshot()
        for key in (
            "flushes",
            "batched_calls",
            "largest_batch",
            "mean_batch_size",
            "total_batch_wall",
            "open_lanes",
            "pending",
            "steps",
            "preemptions",
            "forced",
            "mean_wait",
        ):
            assert key in snapshot, key
        assert snapshot["open_lanes"] == 0
        assert snapshot["pending"] == 0


class TestRunnerIntegration:
    def test_outputs_identical_to_sequential(self):
        state_seq, items = _build_state()
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            _pipeline(), items=items
        )
        for workers in (1, 3, 8):
            state_par, items_par = _build_state()
            parallel = ParallelBatchRunner(
                state_par, bind=_bind_tweet, workers=workers
            ).run(_pipeline(), items=items_par)
            assert _texts(parallel) == _texts(sequential)

    def test_step_composition_deterministic(self):
        """Two same-seed runs form byte-identical step traces — batch
        composition is a function of the workload, not thread timing."""
        traces = []
        for _ in range(2):
            state, items = _build_state(n_items=24, seed=13)
            runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=8)
            runner.run(_pipeline(), items=items)
            traces.append(_step_trace(runner.last_batcher))
        assert traces[0] == traces[1]
        assert traces[0]  # a real trace, not two empty lists

    def test_interactive_waits_less_than_bulk(self):
        """Mixed workload: interactive items admit ahead of bulk, so their
        queue waits are strictly better in aggregate."""
        state, items = _build_state(n_items=32, seed=9)
        runner, _ = _run_mixed_priority(state, items, _bind_tweet, _pipeline())
        engine = runner.last_batcher
        stats = engine.wait_stats()
        assert set(stats) == {"interactive", "bulk"}
        assert stats["interactive"]["p50"] <= stats["bulk"]["p50"]
        assert stats["interactive"]["mean"] < stats["bulk"]["mean"]
        # The policy actually reordered work at least once.
        assert engine.preemptions > 0

    def test_interactive_waits_less_than_bulk_on_table3(self):
        _, sequential = table3.sequential(48)
        state, items = table3.build_state(48)
        runner, batch = _run_mixed_priority(
            state, items, table3.bind, table3.pipeline()
        )
        assert table3.outputs(batch) == table3.outputs(sequential)
        stats = runner.last_batcher.wait_stats()
        assert stats["interactive"]["p50"] <= stats["bulk"]["p50"]

    @pytest.mark.parametrize("budget", [1024, 320])
    def test_token_budget_caps_table3_steps(self, budget):
        """At 16 workers no step of more than one member exceeds the
        token budget, and outputs stay those of the sequential run."""
        _, sequential = table3.sequential(48)
        state, items = table3.build_state(48)
        runner = ParallelBatchRunner(
            state,
            bind=table3.bind,
            workers=16,
            options=RuntimeOptions(scheduler=SchedulerConfig(max_batch_tokens=budget)),
        )
        batch = runner.run(table3.pipeline(), items=items)
        assert table3.outputs(batch) == table3.outputs(sequential)
        assert not [
            record
            for record in runner.last_batcher.steps
            if record.tokens > budget and record.size > 1
        ]

    def test_same_seed_ledgers_diff_to_zero(self, tmp_path):
        """Two same-seed ledgered 16-worker runs pass ``spear diff --gate``."""
        run_dirs = []
        for rep in range(2):
            root = tmp_path / f"runs_{rep}"
            state, items = table3.build_state(48)
            ParallelBatchRunner(
                state,
                bind=table3.bind,
                workers=16,
                options=RuntimeOptions(ledger_dir=root),
            ).run(table3.pipeline(), items=items)
            run_dirs.append(Ledger(root).latest().path)
        with contextlib.redirect_stdout(io.StringIO()):
            code = spear_main(["diff", str(run_dirs[0]), str(run_dirs[1]), "--gate"])
        assert code == 0

    def test_no_deadline_inversions_among_admitted(self):
        """Within each step's policy-ordered (non-forced) suffix, the
        admission order respects (priority rank, deadline) — an admitted
        item never sorts behind a worse-ranked peer in its own step."""
        state, items = _build_state(n_items=32, seed=9)
        rank = {"interactive": 0, "normal": 1, "bulk": 2}
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=8,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(max_batch=4, watermark_s=1e9),
                priority=lambda item: ("interactive", "normal", "bulk")[
                    int(item.uid[-1]) % 3
                ],
                deadline_s=lambda item: float(1 + int(item.uid[-1]) % 5),
            ),
        )
        runner.run(_pipeline(), items=items)
        for record in runner.last_batcher.steps:
            suffix = record.members[record.forced :]
            keys = [
                (
                    rank[m.priority],
                    m.deadline if m.deadline is not None else float("inf"),
                )
                for m in suffix
            ]
            assert keys == sorted(keys), record

    def test_sched_events_and_batch_payload(self):
        state, items = _build_state(n_items=8)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=4)
        runner.run(_pipeline(), items=items)
        sched_events = state.events.of_kind(EventKind.SCHED)
        assert len(sched_events) == runner.last_batcher.flushes
        payload = sched_events[0].payload
        for key in (
            "step", "size", "tokens", "forced", "preemptions",
            "queue_depth", "wall", "lanes", "classes", "waits",
        ):
            assert key in payload, key
        assert len(payload["lanes"]) == payload["size"]
        batch_payload = state.events.of_kind(EventKind.BATCH)[0].payload
        assert batch_payload["sched_steps"] == runner.last_batcher.flushes
        assert "sched_mean_wait" in batch_payload

    def test_collector_derives_sched_metrics(self):
        state, items = _build_state(n_items=8)
        runner = ParallelBatchRunner(state, bind=_bind_tweet, workers=4)
        runner.run(_pipeline(), items=items)
        collector = ObsCollector()
        collector.replay(state.events)
        registry = collector.registry
        assert registry.sum_counter("spear_sched_steps_total") >= 1
        size_hist = registry.get("spear_sched_step_size")
        assert size_hist is not None and size_hist.max == 4
        wait_hist = registry.get(
            "spear_sched_wait_seconds", **{"class": "normal"}
        )
        assert wait_hist is not None and wait_hist.count == 16


LONG_MAP_PROMPT = (
    "You are a careful social media analyst working for a city transit "
    "agency. Read the rider tweet below and produce a faithful, neutral "
    "summary in at most 30 words. Do not speculate beyond the text, do "
    "not add hashtags, and keep the rider's key complaint intact. If the "
    "tweet names a line, a station, or a time, preserve them exactly.\n"
    "Tweet:\n{tweet}"
)


def _pairwise(prompts, triples, block_size):
    """Each member's largest shared prefix with an earlier one, capped at
    its cached tokens: the dedup definition."""
    return [
        min(
            max(
                (
                    shared_prefix_tokens(tokens, earlier, block_size)
                    for earlier in prompts[:index]
                ),
                default=0,
            ),
            triples[index][1],
        )
        for index, tokens in enumerate(prompts)
    ]


def _engine_step(kv, prompts, *, raises=(), uncached=()):
    """One engine step's back half over ``prompts`` on ``kv``.

    Pins every member, runs the engine's lookups and tasks (member ``i``'s
    task raises when ``i`` is in ``raises``; it does no lookup when in
    ``uncached``) and unpins.  Returns the indexes of the members that
    ran, their triples and their dedup tokens.
    """

    def execute_task(prompt, max_tokens=None):
        if int(prompt) in raises:
            raise ValueError(f"task {prompt} failed")
        return "", 1, None

    model = SimpleNamespace(
        kv_cache=kv, enable_prefix_cache=True, execute_task=execute_task
    )
    engine = GenScheduler(model)
    requests = [
        SimpleNamespace(
            lane_id=index,
            prompt=str(index),
            tokens=tokens,
            max_tokens=None,
            use_cache=False if index in uncached else None,
            error=None,
            done=False,
        )
        for index, tokens in enumerate(prompts)
    ]
    for request in requests:
        request.handle = kv.pin(request.tokens)
    try:
        ran, triples, _, dedup = engine._execute(requests)
    finally:
        for request in requests:
            kv.unpin(request.handle)
    return [request.lane_id for request in ran], triples, dedup


class TestPrefixAware:
    """Prefix-aware admission: trunk grouping, dedup pricing, pinning."""

    def _run(self, n_items=12, workers=6, seed=7, config=None):
        llm = SimulatedLLM("qwen2.5-7b-instruct")
        corpus = make_tweet_corpus(n_items, seed=seed)
        llm.bind_tweets(corpus)
        state = ExecutionState(model=llm, clock=llm.clock)
        state.prompts.create("map", LONG_MAP_PROMPT)
        runner = ParallelBatchRunner(
            state,
            bind=_bind_tweet,
            workers=workers,
            options=RuntimeOptions(scheduler=config),
        )
        batch = runner.run(
            Pipeline([GEN("summary", prompt="map")]), items=list(corpus)
        )
        return state, runner, batch

    def test_shared_trunk_charged_once_per_step(self):
        state, runner, _ = self._run()
        engine = runner.last_batcher
        assert engine.dedup_tokens_total > 0
        snapshot = engine.snapshot()
        assert snapshot["dedup_tokens"] == engine.dedup_tokens_total
        assert snapshot["mean_step_dedup_tokens"] > 0
        block = state.model.kv_cache.block_size
        for record in engine.steps:
            assert record.dedup_tokens == sum(
                m.dedup_tokens for m in record.members
            )
            for member in record.members:
                # Only cached, block-aligned trunk tokens are deduped.
                assert member.dedup_tokens % block == 0
                assert member.dedup_tokens <= member.prompt_tokens
            if len(record.members) > 1:
                # One shared trunk: every member but the first dedups.
                assert record.prefix_groups == 1
                assert (
                    sum(1 for m in record.members if m.dedup_tokens > 0)
                    == len(record.members) - 1
                )

    def test_dedup_saves_wall_time_outputs_unchanged(self):
        state_on, runner_on, batch_on = self._run()
        state_off, runner_off, batch_off = self._run(
            config=SchedulerConfig(prefix_group_blocks=0, prefix_dedup=False)
        )
        texts = lambda b: [r.context.get("summary") for r in b.items]
        assert texts(batch_on) == texts(batch_off)
        assert runner_off.last_batcher.dedup_tokens_total == 0
        assert all(r.prefix_groups == 0 for r in runner_off.last_batcher.steps)
        # The shared trunk was actually priced once, not once per member.
        assert state_on.clock.now < state_off.clock.now

    def test_pins_released_after_run(self):
        state, runner, _ = self._run()
        snapshot = state.model.kv_cache.snapshot()
        assert snapshot["pinned_blocks"] == 0
        assert snapshot["blocks"] > 0

    def test_prefix_composition_deterministic(self):
        traces = []
        for _ in range(2):
            _, runner, _ = self._run(n_items=24, seed=13, workers=8)
            engine = runner.last_batcher
            traces.append(
                [
                    (
                        record.index,
                        record.dedup_tokens,
                        record.prefix_groups,
                        tuple(m.lane_id for m in record.members),
                        tuple(m.dedup_tokens for m in record.members),
                    )
                    for record in engine.steps
                ]
            )
        assert traces[0] == traces[1]
        assert traces[0]

    def test_trunk_key_and_grouping_unit(self):
        from types import SimpleNamespace

        llm = SimulatedLLM("qwen2.5-7b-instruct")
        engine = GenScheduler(
            llm, config=SchedulerConfig(prefix_group_blocks=1)
        )
        block = llm.kv_cache.block_size

        def req(tokens, lane, rank=1):
            request = SimpleNamespace(
                tokens=tokens, lane_id=lane, priority_rank=rank
            )
            request.trunk = engine._trunk_key(request)  # as ``_prepare`` sets it
            return request

        trunk_a = list(range(block))
        trunk_b = list(range(1000, 1000 + block))
        r1 = req(trunk_a + [1], lane=0)
        r2 = req(trunk_b + [2], lane=1)
        r3 = req(trunk_a + [3], lane=2)
        # Same trunk, same priority -> same key; grouping pulls r3 next
        # to r1 while group order follows first appearance.
        assert engine._trunk_key(r1) == engine._trunk_key(r3)
        assert engine._trunk_key(r1) != engine._trunk_key(r2)
        assert engine._group_by_trunk([r1, r2, r3]) == [r1, r3, r2]
        # Priority rank is part of the key: bulk never rides an
        # interactive trunk group.
        r4 = req(trunk_a + [4], lane=3, rank=2)
        assert engine._trunk_key(r1) != engine._trunk_key(r4)
        # Short prompts stay singletons keyed by lane.
        short = req(trunk_a[: block - 1], lane=5)
        assert engine._trunk_key(short) == ("solo", 5)

    def test_dedup_capped_by_cached_tokens(self):
        llm = SimulatedLLM("qwen2.5-7b-instruct")
        block = llm.kv_cache.block_size
        trunk = list(range(3 * block))
        members = [trunk + [1], trunk + [2]]
        # One trunk block resident and pinned, the rest re-created and
        # evicted by each lookup: the second member shares 3 blocks but
        # only 1 survived to its lookup, so dedup must not exceed what the
        # cache actually served.
        kv = RadixPrefixCache(block_size=block, capacity_blocks=1)
        kv.insert(trunk[:block])
        assert _engine_step(kv, members)[2] == [0, block]
        # With ample cache the full trunk dedups.
        kv = RadixPrefixCache(block_size=block)
        assert _engine_step(kv, members)[2] == [0, 3 * block]

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 16]),
        st.lists(
            st.lists(st.integers(min_value=0, max_value=3), max_size=24),
            min_size=1,
            max_size=3,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # trunk
                st.integers(min_value=0, max_value=24),  # trunk cut
                st.lists(st.integers(min_value=0, max_value=3), max_size=8),
                st.integers(min_value=0, max_value=3),  # warm-up cut, in blocks
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_dedup_equals_pairwise_oracle(self, block_size, trunks, members):
        """The tree's step marks give the pairwise shared-prefix maximum
        with any earlier member, capped at the member's cached tokens."""
        kv = RadixPrefixCache(block_size=block_size)
        prompts = []
        for trunk, cut, suffix, warm in members:
            # Shared and diverging trunks, repeats of one prompt, and
            # prompts shorter than a block all come out of this shape.
            tokens = trunks[trunk % len(trunks)][:cut] + suffix
            kv.insert(tokens[: warm * block_size])  # cached before the step
            prompts.append(tokens)
        ran, triples, dedup = _engine_step(kv, prompts)
        assert ran == list(range(len(prompts)))
        assert dedup == _pairwise(prompts, triples, block_size)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=1, max_value=12),
        st.lists(st.lists(st.integers(0, 1), max_size=9), max_size=4),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 1), max_size=9),
                st.booleans(),  # the member's task raises after its lookup
                st.booleans(),  # the member does no lookup (use_cache=False)
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_dedup_with_pins_equals_pairwise_oracle(
        self, block_size, capacity, warm, members
    ):
        """Pinned trunks, inserts that evict inside the step, members that
        raise and members without a lookup: the marks give the block
        trie's depths over the members that ran."""
        kv = RadixPrefixCache(block_size=block_size, capacity_blocks=capacity)
        for tokens in warm:
            kv.insert(tokens)
        prompts = [tokens for tokens, _, _ in members]
        ran, triples, dedup = _engine_step(
            kv,
            prompts,
            raises={i for i, (_, raises, _) in enumerate(members) if raises},
            uncached={i for i, (_, _, uncached) in enumerate(members) if uncached},
        )
        assert dedup == _pairwise([prompts[i] for i in ran], triples, block_size)
        assert kv.pinned_blocks == 0

    @pytest.mark.parametrize("shared", [0, 1, 2, 7, 29, 30])
    def test_dedup_walks_into_an_unexpanded_tail(self, shared):
        """A bulk member's unique blocks are one run until a later member
        sharing ``shared`` of them walks in and splits it; depths equal
        the pairwise oracle."""
        block = 4
        bulk = list(range(1000, 1000 + 30 * block))
        later = bulk[: shared * block] + [7] * (3 * block)
        members = [bulk, later, list(bulk), bulk[: (shared + 1) * block]]
        kv = RadixPrefixCache(block_size=block, capacity_blocks=4 * 30)
        kv.insert(bulk[: 2 * block])
        ran, triples, dedup = _engine_step(kv, members)
        expected = _pairwise(members, triples, block)
        assert expected[1] == min(shared * block, triples[1][1])
        assert dedup == expected
        kv = RadixPrefixCache(block_size=block, capacity_blocks=4 * 30)
        assert _engine_step(kv, members[:2])[2] == expected[:2]

    def test_a_later_pin_splits_an_earlier_members_pinned_run(self):
        """Member 0 pins a four-block run; member 1's pin ends inside it
        and splits it.  Dedup equals the pairwise oracle and every pin is
        released exactly."""
        block = 2
        kv = RadixPrefixCache(block_size=block, capacity_blocks=6)
        run = list(range(4 * block))
        kv.insert(run)
        members = [run + [50, 51], run[: 2 * block] + [60, 61, 62, 63], run]
        handles = [kv.pin(tokens) for tokens in members]
        assert kv.pinned_blocks == 4
        for handle in handles:
            kv.unpin(handle)
        ran, triples, dedup = _engine_step(kv, members)
        assert dedup == _pairwise(members, triples, block) == [0, 2 * block, 4 * block]
        assert kv.pinned_blocks == 0
        assert kv.match_prefix(run) == 4 * block

    def test_a_member_without_a_lookup_counts_for_later_members(self):
        """A ``use_cache=False`` member is served nothing and dedups
        nothing, but the members after it share its resident trunk."""
        block = 2
        kv = RadixPrefixCache(block_size=block)
        trunk = list(range(3 * block))
        kv.insert(trunk)
        members = [trunk + [9, 9], trunk + [8, 8], list(range(50, 54))]
        ran, triples, dedup = _engine_step(kv, members, uncached={0})
        assert triples[0][1] == 0
        assert dedup == _pairwise(members, triples, block) == [0, 3 * block, 0]
        # Its lookup skipped, its own suffix stays out of the cache.
        assert kv.match_prefix(members[0]) == 3 * block

    def test_engine_dedup_under_mid_step_eviction_and_a_raising_task(self):
        """Every step's dedup, on the engine's own pins, equals the
        pairwise oracle while inserts evict inside the step and one
        member's task raises."""
        state, items = table3.build_state(
            32, kv_cache=RadixPrefixCache(capacity_blocks=20)
        )
        _fail_task_on(state.model, items[9].text)
        calls = []
        execute = GenScheduler._execute

        def recording_execute(engine, requests):
            kv = engine.model.kv_cache
            before, pinned = kv.stats.evictions, kv.pinned_blocks
            ran, triples, outputs, dedup = execute(engine, requests)
            calls.append(
                (
                    kv.stats.evictions - before,
                    len(requests) - len(ran),
                    pinned,
                    [request.tokens for request in ran],
                    triples,
                    dedup,
                )
            )
            return ran, triples, outputs, dedup

        runner = ParallelBatchRunner(
            state, bind=table3.bind, workers=8, on_error="collect"
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GenScheduler, "_execute", recording_execute)
            batch = runner.run(table3.pipeline(), items=items)
        assert len(batch.failures()) == 1
        assert any(call[0] for call in calls)  # evicted inside a step
        assert any(call[1] for call in calls)  # the raising member
        assert any(call[2] for call in calls)  # trunks pinned
        block = state.model.kv_cache.block_size
        for _, _, _, tokens, triples, dedup in calls:
            assert dedup == _pairwise(tokens, triples, block)

    def test_sched_events_carry_prefix_payload(self):
        state, runner, _ = self._run(n_items=8, workers=4)
        sched_events = state.events.of_kind(EventKind.SCHED)
        assert sched_events
        for event in sched_events:
            assert "dedup_tokens" in event.payload
            assert "prefix_groups" in event.payload
        assert sum(e.payload["dedup_tokens"] for e in sched_events) == (
            runner.last_batcher.dedup_tokens_total
        )

    def test_collector_derives_prefix_metrics(self):
        state, runner, _ = self._run(n_items=8, workers=4)
        collector = ObsCollector()
        collector.attach_model(state.model)
        collector.replay(state.events)
        registry = collector.registry
        assert registry.sum_counter("spear_prefix_dedup_tokens_total") == (
            runner.last_batcher.dedup_tokens_total
        )
        hist = registry.get("spear_prefix_step_dedup_tokens")
        assert hist is not None and hist.count == len(
            runner.last_batcher.steps
        )
        groups = registry.get("spear_prefix_groups_per_step")
        assert groups is not None and groups.max >= 1
        kv = state.model.kv_cache.snapshot()
        model_label = {"model": state.model.profile.name}
        for gauge, key in (
            ("spear_prefix_cache_nodes", "nodes"),
            ("spear_prefix_cache_leaves", "leaves"),
            ("spear_prefix_cache_pinned_blocks", "pinned_blocks"),
        ):
            metric = registry.get(gauge, **model_label)
            assert metric is not None, gauge
            assert metric.value == kv[key], gauge


def _resume_orders():
    """Lane order, its reverse and three seeded shuffles."""
    yield sorted
    yield lambda lane_ids: sorted(lane_ids, reverse=True)
    for rng in map(random.Random, (1, 2, 3)):
        yield lambda lane_ids, rng=rng: rng.sample(sorted(lane_ids), len(lane_ids))


class TestLaneOrder:
    @pytest.mark.parametrize(
        "max_tokens, watermark, mixed, fault_rate",
        [(None, 1e9, False, 0.3), (80, 0.0, True, 0.3), (400, 5.0, False, 0.0)],
        ids=["faults", "mixed-faults", "no-faults"],
    )
    def test_resume_order_changes_nothing(
        self, monkeypatch, max_tokens, watermark, mixed, fault_rate
    ):
        """Any resume order gives sequential outputs and lane order's clocks,
        counters and step trace.  Twin items on neighbouring lanes, equal
        arrivals and a fault plan make admission and fault attempts lean on
        the lane-id tie-breaks."""

        def run(runner_type, **kwargs):
            state, tweets = _build_state(n_items=6, seed=5)
            state.model.fault_plan = FaultPlan(
                9, default=FaultSpec(transient_rate=fault_rate)
            )
            runner = runner_type(state, bind=_bind_tweet, on_error="collect", **kwargs)
            batch = runner.run(_pipeline(), items=[t for t in tweets for _ in "ab"])
            engine = getattr(runner, "last_batcher", None)
            return (_texts(batch), [repr(r.error) for r in batch.items]), (
                [r.elapsed for r in batch.items],
                batch.elapsed,
                state.model.snapshot(),
                engine and (engine.snapshot(), engine.steps),
            )

        sequential = run(BatchRunner)[0]
        config = SchedulerConfig(max_batch_tokens=max_tokens, watermark_s=watermark)
        ranks = ("interactive", "bulk") if mixed else ("normal", "normal")
        options = RuntimeOptions(
            scheduler=config, priority=lambda item: ranks[int(item.uid[-1]) % 2]
        )
        runs = []
        for order in _resume_orders():
            monkeypatch.setattr(parallel_module, "_resume_order", order)
            outputs, observed = run(ParallelBatchRunner, workers=4, options=options)
            assert outputs == sequential
            runs.append(observed)
        assert all(run == runs[0] for run in runs[1:])
        assert any(error != "None" for error in sequential[1]) == (fault_rate > 0)


class TestSchedulerStress:
    def test_stress_mixed_priorities(self):
        """200 items, mixed priority classes, 8 lanes: no lost events,
        no dropped listeners, no deadline inversions among admitted
        items, outputs byte-identical to sequential, no thread started."""
        n = 200
        state_seq, items = _build_state(n_items=n, seed=11)
        sequential = BatchRunner(state_seq, bind=_bind_tweet).run(
            _pipeline(), items=items
        )

        state_par, items_par = _build_state(n_items=n, seed=11)
        seen = []
        state_par.model.add_listener(
            lambda result: seen.append((result, threading.current_thread()))
        )
        rank = {"interactive": 0, "normal": 1, "bulk": 2}

        def priority_of(item):
            return ("interactive", "normal", "bulk")[int(item.uid[-1]) % 3]

        runner = ParallelBatchRunner(
            state_par,
            bind=_bind_tweet,
            workers=8,
            options=RuntimeOptions(
                scheduler=SchedulerConfig(max_batch=4, watermark_s=1e9),
                priority=priority_of,
                deadline_s=lambda item: float(1 + int(item.uid[-1]) % 7),
            ),
        )
        parallel = runner.run(_pipeline(), items=items_par)

        # Outputs byte-identical, in item order.
        assert _texts(parallel) == _texts(sequential)

        # Model counters match sequential: no lost increments.
        seq_model = state_seq.model.snapshot()
        par_model = state_par.model.snapshot()
        for key in (
            "calls",
            "total_prompt_tokens",
            "total_cached_tokens",
            "total_output_tokens",
        ):
            assert par_model[key] == seq_model[key], key

        # No dropped listeners: one notification per generation call.
        assert len(seen) == par_model["calls"]
        assert state_par.model.listener_errors == []

        # Every lane ran on the driver thread: one thread saw every call.
        assert {thread for _, thread in seen} == {threading.current_thread()}

        # No lost events in the folded log.
        seq_gen = state_seq.events.of_kind(EventKind.GENERATE)
        par_gen = state_par.events.of_kind(EventKind.GENERATE)
        assert len(par_gen) == len(seq_gen) == 2 * n
        seqs = [e.seq for e in state_par.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

        # Engine accounting is conserved and drained.
        engine = runner.last_batcher
        assert engine.batched_calls == 2 * n
        snapshot = engine.snapshot()
        assert snapshot["open_lanes"] == 0 and snapshot["pending"] == 0

        # No deadline inversions among admitted items: each step's
        # policy-ordered suffix is sorted by (rank, deadline).
        for record in engine.steps:
            suffix = record.members[record.forced :]
            keys = [
                (
                    rank[m.priority],
                    m.deadline if m.deadline is not None else float("inf"),
                )
                for m in suffix
            ]
            assert keys == sorted(keys)


class TestStarvationRegression:
    def test_lane_raising_before_first_submit_releases_peers(self):
        """Runner-level regression: an item whose bind raises on a lane's
        first item must not starve peers parked in the admission set (a
        regression raises the runner's stall error instead of hanging)."""
        state, items = _build_state(n_items=8)

        def bind_or_boom(item_state, tweet):
            if int(tweet.uid[-1]) % 2 == 1:  # every odd lane's first item
                raise ValueError(f"bad item {tweet.uid}")
            _bind_tweet(item_state, tweet)

        runner = ParallelBatchRunner(
            state, bind=bind_or_boom, workers=8, on_error="collect"
        )
        batch = runner.run(_pipeline(), items=items)
        assert len(batch.items) == 8
        assert len(batch.failures()) == 4
        assert all(r.ok for r in batch.items if r not in batch.failures())


class TestStepErrorRegression:
    """A lookup or task that raises inside an engine step fails its own
    request only: the error reaches that lane, every peer in the step
    completes, the queue drains, and the batch never hangs."""

    def test_collect_mode_finishes_with_the_one_error(self):
        state_seq, items = _build_state(n_items=8)
        marker = items[5].text
        assert [marker in item.text for item in items].count(True) == 1
        _fail_task_on(state_seq.model, marker)
        sequential = BatchRunner(
            state_seq, bind=_bind_tweet, on_error="collect"
        ).run(_pipeline(), items=items)

        state_par, items_par = _build_state(n_items=8)
        _fail_task_on(state_par.model, marker)
        runner = ParallelBatchRunner(
            state_par, bind=_bind_tweet, workers=4, on_error="collect"
        )
        batch = runner.run(_pipeline(), items=items_par)
        assert [i for i, r in enumerate(batch.items) if not r.ok] == [5]
        assert isinstance(batch.items[5].error, ValueError)
        assert _texts(batch) == _texts(sequential)
        assert runner.last_batcher.snapshot()["pending"] == 0

    def test_raise_mode_finishes_and_raises_the_task_error(self):
        state, items = _build_state(n_items=8)
        _fail_task_on(state.model, items[5].text)
        runner = ParallelBatchRunner(
            state, bind=_bind_tweet, workers=4, on_error="raise"
        )
        with pytest.raises(ValueError, match="task failed"):
            runner.run(_pipeline(), items=items)
        assert runner.last_batcher.snapshot()["pending"] == 0

    def test_lookup_error_delivered_to_its_lane_only(self):
        llm = SimulatedLLM("qwen2.5-7b-instruct")
        llm.bind_tweets(make_tweet_corpus(8, seed=7))
        prompts = [
            "Summarize the tweet.\nTweet:\nso tired of delays",
            "Summarize the tweet.\nTweet:\nthe trains are late again",
        ]
        poisoned = llm.prepare(prompts[1])
        lookup = llm.kv_cache.lookup_and_insert

        def lookup_or_boom(tokens, *args):
            if list(tokens) == poisoned:
                raise RuntimeError("kv lookup failed")
            return lookup(tokens, *args)

        llm.kv_cache.lookup_and_insert = lookup_or_boom
        engine = GenScheduler(llm)
        for lane_id in range(2):
            engine.open_lane(lane_id, VirtualClock())
        requests = [engine.submit(i, prompts[i]) for i in range(2)]
        assert engine.finish(requests[0]).text
        with pytest.raises(RuntimeError, match="kv lookup failed"):
            engine.finish(requests[1])
        for lane_id in range(2):
            engine.close_lane(lane_id)
        assert engine.snapshot()["pending"] == 0
        [step] = engine.steps
        assert [member.lane_id for member in step.members] == [0]


class TestExecutorIntegration:
    """The sequential Executor has no GEN engine: scheduling knobs are
    rejected (``scheduler``) or no-ops (``priority`` / ``deadline_s``)."""

    @staticmethod
    def _run(options, pipeline=None, llm=None):
        from repro.runtime.executor import Executor

        if llm is None:
            llm = SimulatedLLM("qwen2.5-7b-instruct")
            llm.bind_tweets(make_tweet_corpus(4, seed=3))
        executor = Executor(options=options.replace(model=llm))
        state = executor.new_state(
            context={"tweet": "the trains are late again, awful"}
        )
        state.prompts.create("map", MAP_PROMPT)
        if pipeline is None:
            pipeline = Pipeline([GEN("summary", prompt="map")])
        return executor.run(pipeline, state=state)

    def test_single_lane_executor_byte_identical(self):
        plain = self._run(RuntimeOptions())
        policy = self._run(RuntimeOptions(priority="interactive", deadline_s=5.0))
        assert policy.output("summary") == plain.output("summary")
        assert policy.elapsed == plain.elapsed
        assert [e.kind for e in policy.events] == [e.kind for e in plain.events]
        assert EventKind.SCHED not in [e.kind for e in policy.events]

    def test_policy_knobs_reported_as_spear145_under_strict(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        result = self._run(RuntimeOptions(strict=True, deadline_s=5.0, metrics=metrics))
        assert result.output("summary")
        counter = metrics.counter(
            "spear_check_diagnostics_total",
            "Diagnostics emitted by strict-mode static checks.",
            code="SPEAR145",
            severity="warning",
        )
        assert counter.value == 1

    @pytest.mark.parametrize(
        "scheduler", [True, SchedulerConfig(max_batch=4)], ids=["true", "config"]
    )
    def test_scheduler_option_rejected(self, scheduler):
        from repro.runtime.executor import Executor

        with pytest.raises(TypeError, match="ParallelBatchRunner"):
            Executor(options=RuntimeOptions(scheduler=scheduler))
        with pytest.raises(TypeError, match="priority"):
            Executor().run(Pipeline([]), priority="bulk")

    def test_single_lane_retry_after_step_error(self):
        """A caught model error leaves nothing stale behind: the retry
        runs normally and answers as a clean run does."""
        llm = SimulatedLLM("qwen2.5-7b-instruct")
        llm.bind_tweets(make_tweet_corpus(4, seed=3))
        execute_task = llm.execute_task
        calls = []

        def first_call_fails(prompt, **kwargs):
            calls.append(prompt)
            if len(calls) == 1:
                raise TransientModelError("engine hiccup")
            return execute_task(prompt, **kwargs)

        llm.execute_task = first_call_fails
        retry = RETRY(
            GEN("summary", prompt="map"),
            Condition.of(lambda state: False, "never"),
            policy=RetryPolicy(max_attempts=2, jitter=0.0),
        )
        flaky = self._run(RuntimeOptions(), Pipeline([retry]), llm=llm)
        plain = self._run(RuntimeOptions())
        assert len(calls) == 2
        assert flaky.output("summary") == plain.output("summary")
