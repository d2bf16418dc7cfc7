"""The resumable-operator contract inside ParallelBatchRunner lanes.

Lanes are generators over :meth:`Operator.steps` on the driver thread: a
``GenCall`` on the lane's model parks the lane on the engine, a call on
any other model is answered on the spot, and opaque code that calls
``state.model.generate`` itself forces engine steps until its own call
completes.  Each case compares a 16-lane batch with the sequential
``Executor.run(items=)``.
"""

import pytest

from repro.core import GEN, REF, FunctionOperator, Operator, Pipeline, RefAction
from repro.core.refinement import assisted_refinement
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.resilience import (
    FallbackChain,
    FaultPlan,
    FaultSpec,
    ModelFallback,
    ResilienceRuntime,
    RetryPolicy,
)
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner

MAP_PROMPT = (
    "Summarize and clean up the tweet in at most 30 words.\nTweet:\n{tweet}"
)
LANES = 16


def _state(n_items=40, *, fault_plan=None, resilient=False):
    llm = SimulatedLLM("qwen2.5-7b-instruct", fault_plan=fault_plan)
    corpus = make_tweet_corpus(n_items, seed=7)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("map", MAP_PROMPT)
    state.prompts.create("draft", MAP_PROMPT)
    if resilient:
        state.resilience = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0),
            fallback=FallbackChain((ModelFallback("gpt-4o-mini"),)),
        )
    return state, [{"tweet": tweet.text} for tweet in corpus]


def _sequential(pipeline, state, items):
    options = RuntimeOptions(model=state.model, clock=state.clock)
    return Executor(options=options).run(pipeline, items=items, state=state)


def _outputs(batch, *keys):
    return [
        (result.error, *(result.context.get(key) for key in keys))
        for result in batch.items
    ]


def _trace(engine):
    return [
        (
            record.t_now,
            tuple((m.lane_id, m.arrival, m.completion) for m in record.members),
        )
        for record in engine.steps
    ]


def _opaque_call(state):
    """Glue code that calls the model itself, outside any yield point."""
    before = state.clock.now
    result = state.model.generate(state.render_prompt("map"))
    state.context.put("opaque", result.text, producer="opaque")
    state.context.put(
        "opaque_charge", (state.clock.now - before, result.latency.total)
    )


class TestOpaqueModelCalls:
    def _pipeline(self):
        return Pipeline(
            [
                FunctionOperator(_opaque_call, label="FN[opaque]"),
                # Reset, then rewrite through the model: an LLM refiner.
                REF(RefAction.UPDATE, MAP_PROMPT, key="draft"),
                assisted_refinement("draft", "keep it short"),
                GEN("summary", prompt="draft"),
            ]
        )

    def _parallel(self):
        state, items = _state()
        runner = ParallelBatchRunner(state, workers=LANES)
        return runner.run(self._pipeline(), items=items), runner.last_batcher

    def test_outputs_byte_identical_to_sequential(self):
        state, items = _state()
        sequential = _sequential(self._pipeline(), state, items)
        parallel, _ = self._parallel()
        keys = ("opaque", "draft", "summary")
        assert _outputs(parallel, *keys) == _outputs(sequential, *keys)
        assert all(result.ok for result in parallel.items)

    def test_opaque_calls_charge_the_lane_clock(self):
        parallel, engine = self._parallel()
        for result in parallel.items:
            charged, latency = result.context["opaque_charge"]
            assert latency > 0 and charged >= latency - 1e-9
        # Both the FunctionOperator's and the refiner's calls ran as steps.
        assert engine.batched_calls == 3 * len(parallel.items)

    def test_step_trace_repeats_exactly(self):
        _, first = self._parallel()
        _, second = self._parallel()
        assert _trace(first) == _trace(second)
        assert len(first.steps) > 0


class TestPlainOperators:
    def test_run_only_subclass_runs_unchanged_in_lanes(self):
        class Shout(Operator):
            """A user operator that knows nothing about steps()."""

            label = "SHOUT"

            def _run(self, state):
                state.context.put(
                    "loud", state.context["summary"].upper(), producer=self.label
                )
                return state

        pipeline = Pipeline([GEN("summary", prompt="map"), Shout()])
        state, items = _state()
        sequential = _sequential(pipeline, state, items)
        state, items = _state()
        parallel = ParallelBatchRunner(state, workers=LANES).run(
            pipeline, items=items
        )
        assert _outputs(parallel, "summary", "loud") == _outputs(
            sequential, "summary", "loud"
        )
        # START and END per item.
        assert len(state.events.for_operator("SHOUT")) == 2 * len(items)


class TestResilienceFallbackInLanes:
    def test_fallback_backend_answered_directly(self):
        pipeline = Pipeline([GEN("summary", prompt="map")])
        faults = FaultSpec(transient_rate=0.5)
        state, items = _state(fault_plan=FaultPlan(3, default=faults), resilient=True)
        sequential = _sequential(pipeline, state, items)
        state, items = _state(fault_plan=FaultPlan(3, default=faults), resilient=True)
        runner = ParallelBatchRunner(state, workers=LANES, on_error="collect")
        parallel = runner.run(pipeline, items=items)
        engine = runner.last_batcher
        assert _outputs(parallel, "summary") == _outputs(sequential, "summary")
        fallback = state.resilience._fallback_models["gpt-4o-mini"]
        degraded = sum(1 for r in parallel.items if r.metadata.get("degraded"))
        assert 0 < degraded < len(parallel.items)
        # The fallback tier's calls never reached the engine: it ran only
        # the primary's successful calls, the fallback model the rest.
        assert fallback.snapshot()["calls"] == degraded
        assert engine.batched_calls == len(parallel.items) - degraded
        assert all(
            m.prompt_tokens > 0 for record in engine.steps for m in record.members
        )


class TestRaiseModeDeterminism:
    def test_same_item_error_on_every_run(self):
        """Item 5 fails after its second GEN, item 6 at bind; both start
        in the same round on neighbouring lanes.  Lanes resume in lane
        order and stop only at an item boundary, so item 5 is always
        under way when item 6 fails, and its error (the lower index) is
        raised on every run, never item 6's."""

        def bind(state, item):
            if item["index"] == 6:
                raise ValueError("bind failed on item 6")
            state.context.put("tweet", item["tweet"], producer="bind")

        def fail_after_second_gen(state):
            if state.context["index"] == 5:
                raise ValueError("glue failed on item 5")

        pipeline = Pipeline(
            [
                GEN("summary", prompt="map"),
                GEN("again", prompt="map"),
                FunctionOperator(fail_after_second_gen, label="FN[fail]"),
            ]
        )
        messages = []
        for _ in range(5):
            state, items = _state(n_items=16)
            items = [dict(item, index=i) for i, item in enumerate(items)]

            def bind_with_index(item_state, item):
                item_state.context.put("index", item["index"], producer="bind")
                bind(item_state, item)

            runner = ParallelBatchRunner(
                state, bind=bind_with_index, workers=4, on_error="raise"
            )
            with pytest.raises(ValueError) as raised:
                runner.run(pipeline, items=items)
            messages.append(str(raised.value))
            assert runner.last_batcher.snapshot()["pending"] == 0
        assert messages == ["glue failed on item 5"] * 5
