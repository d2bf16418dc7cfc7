"""Strict mode: the checker as an execution gate on both runners."""

import pytest

from repro.core import CHECK, GEN, REF, RET, Condition, Pipeline, RefAction
from repro.core.state import ExecutionState
from repro.errors import SpearValidationError
from repro.llm.model import SimulatedLLM
from repro.obs.metrics import MetricsRegistry
from repro.runtime import Executor, ParallelBatchRunner, RuntimeOptions


def invalid_pipeline() -> Pipeline:
    return Pipeline([GEN("answer", prompt="ghost")])


def clean_pipeline() -> Pipeline:
    return Pipeline(
        [
            REF(RefAction.CREATE, "Summarize the material.", key="qa"),
            GEN("answer", prompt="qa"),
            CHECK(
                Condition.metadata_below("confidence", 0.99),
                then=REF(
                    RefAction.APPEND, "Answer in one sentence.", key="qa"
                ),
            ),
            GEN("revised", prompt="qa"),
        ]
    )


class TestExecutorStrict:
    def test_aborts_before_the_first_model_call(self):
        model = SimulatedLLM("qwen2.5-7b-instruct")
        executor = Executor(
            options=RuntimeOptions(model=model, strict=True)
        )
        with pytest.raises(SpearValidationError) as excinfo:
            executor.run(invalid_pipeline())
        assert model.calls == 0
        assert "SPEAR101" in excinfo.value.codes
        assert excinfo.value.diagnostics

    def test_items_fan_out_is_gated(self):
        model = SimulatedLLM("qwen2.5-7b-instruct")
        executor = Executor(
            options=RuntimeOptions(model=model, strict=True)
        )
        with pytest.raises(SpearValidationError) as excinfo:
            executor.run(invalid_pipeline(), items=[{"x": 1}])
        assert model.calls == 0
        assert "SPEAR101" in excinfo.value.codes

    def test_items_open_context_suppresses_bind_time_slots(self):
        model = SimulatedLLM("qwen2.5-7b-instruct")
        executor = Executor(
            options=RuntimeOptions(model=model, strict=True)
        )
        pipeline = Pipeline(
            [
                REF(RefAction.CREATE, "Describe: {item}", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        batch = executor.run(pipeline, items=["alpha", "beta"])
        assert len(batch.items) == 2
        assert not batch.failures()

    def test_non_strict_default_does_not_gate(self):
        model = SimulatedLLM("qwen2.5-7b-instruct")
        executor = Executor(options=RuntimeOptions(model=model))
        # Without strict mode the bad read surfaces at apply time instead.
        with pytest.raises(Exception) as excinfo:
            executor.run(invalid_pipeline())
        assert not isinstance(excinfo.value, SpearValidationError)

    def test_clean_path_identical_with_and_without_strict(self):
        results = {}
        for strict in (False, True):
            model = SimulatedLLM("qwen2.5-7b-instruct")
            executor = Executor(
                options=RuntimeOptions(model=model, strict=strict)
            )
            results[strict] = executor.run(clean_pipeline())
        relaxed, gated = results[False], results[True]
        assert dict(relaxed.context) == dict(gated.context)
        assert dict(relaxed.metadata) == dict(gated.metadata)
        assert relaxed.elapsed == gated.elapsed
        assert [e.kind for e in relaxed.events] == [
            e.kind for e in gated.events
        ]

    def test_strict_does_not_warm_the_view_cache(self):
        from repro.core import VIEW, ViewRegistry

        views = ViewRegistry()
        views.define("base", "Summarize the material.")
        model = SimulatedLLM("qwen2.5-7b-instruct")
        executor = Executor(
            options=RuntimeOptions(model=model, views=views, strict=True)
        )
        pipeline = Pipeline(
            [VIEW("base", key="qa"), GEN("answer", prompt="qa")]
        )
        assert executor.run(pipeline).output("answer")

    def test_diagnostics_metric_emitted(self):
        registry = MetricsRegistry()
        model = SimulatedLLM("qwen2.5-7b-instruct")
        executor = Executor(
            options=RuntimeOptions(
                model=model, metrics=registry, strict=True
            )
        )
        with pytest.raises(SpearValidationError):
            executor.run(invalid_pipeline())
        counter = registry.counter(
            "spear_check_diagnostics_total",
            code="SPEAR101",
            severity="error",
        )
        assert counter.value >= 1

    def test_warnings_do_not_block_execution(self):
        registry = MetricsRegistry()
        model = SimulatedLLM("qwen2.5-7b-instruct")
        executor = Executor(
            options=RuntimeOptions(
                model=model, metrics=registry, strict=True
            )
        )
        # Dead write is a warning (SPEAR112): the run must still happen.
        pipeline = Pipeline(
            [
                RET("a", into="slot"),
                RET("b", into="slot"),
                REF(RefAction.CREATE, "Use {slot}.", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        state = executor.new_state()
        state.register_source("a", lambda s, q: "first")
        state.register_source("b", lambda s, q: "second")
        result = executor.run(pipeline, state=state)
        assert result.output("answer")
        counter = registry.counter(
            "spear_check_diagnostics_total",
            code="SPEAR112",
            severity="warning",
        )
        assert counter.value >= 1


class TestParallelStrict:
    def make_runner(self, *, strict: bool) -> ParallelBatchRunner:
        model = SimulatedLLM("qwen2.5-7b-instruct")
        state = ExecutionState(model=model)

        def bind(lane_state: ExecutionState, item: str) -> None:
            lane_state.context.put("item", item)

        runner = ParallelBatchRunner(
            state,
            bind=bind,
            workers=2,
            options=RuntimeOptions(strict=strict),
        )
        runner._model = model
        return runner

    def test_aborts_before_any_lane_starts(self):
        runner = self.make_runner(strict=True)
        with pytest.raises(SpearValidationError) as excinfo:
            runner.run(invalid_pipeline(), items=["x", "y"])
        assert runner._model.calls == 0
        assert "SPEAR101" in excinfo.value.codes

    def test_open_context_suppresses_bind_time_slots(self):
        # {item} is only bound per-lane by the bind callback; strict mode
        # must not reject it as read-before-write.
        runner = self.make_runner(strict=True)
        pipeline = Pipeline(
            [
                REF(RefAction.CREATE, "Describe: {item}", key="qa"),
                GEN("answer", prompt="qa"),
            ]
        )
        batch = runner.run(pipeline, items=["alpha", "beta"])
        assert len(batch.items) == 2
        assert not batch.failures()
