"""Unified runner API: one constructor and one ``run`` form per runner.

Every runner is configured once, through ``options=RuntimeOptions(...)``,
and runs with keyword arguments only: ``Executor.run(pipeline, *,
items=, state=, context=)``, ``ParallelBatchRunner.run(pipeline, *,
items=)`` and ``RefinementLoop.run(*, state=)``.  Every result obeys the
shared protocol: ``.output(label)``, ``.report``, ``.cache``.  The
serving layer dispatches to any of them without caring which.
"""

import warnings

import pytest

from repro.core import GEN, REF, Pipeline, RefAction
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.llm.model import SimulatedLLM
from repro.obs.metrics import MetricsRegistry
from repro.runtime.batch import BatchRunner, bind_item
from repro.runtime.executor import Executor
from repro.runtime.incremental import RefinementLoop
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.result_cache import ResultCache

PROMPT = "Summarize the tweet in at most 30 words.\nTweet:\n{tweet}"


def _llm(n_items=4, seed=7, prefix_cache=True):
    # prefix_cache=False keeps GEN pure so the result cache can memoize.
    llm = SimulatedLLM(
        "qwen2.5-7b-instruct", enable_prefix_cache=prefix_cache
    )
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    return llm, list(corpus)


def _items(corpus):
    return [{"tweet": tweet.text} for tweet in corpus]


def _state(llm, **kwargs):
    state = ExecutionState(model=llm, clock=llm.clock, **kwargs)
    state.prompts.create("map", PROMPT)
    return state


def _pipeline():
    return Pipeline([GEN("summary", prompt="map")])


class TestBindItem:
    def test_mapping_spreads_into_context(self):
        llm, _ = _llm()
        state = ExecutionState(model=llm, clock=llm.clock)
        bind_item(state, {"tweet": "hello", "lang": "en"})
        assert state.context["tweet"] == "hello"
        assert state.context["lang"] == "en"

    def test_scalar_lands_under_item(self):
        llm, _ = _llm()
        state = ExecutionState(model=llm, clock=llm.clock)
        bind_item(state, "hello")
        assert state.context["item"] == "hello"

    def test_none_binds_nothing(self):
        llm, _ = _llm()
        state = ExecutionState(model=llm, clock=llm.clock)
        bind_item(state, None)
        assert list(state.context.keys()) == []


class TestExecutorUnifiedRun:
    def test_items_fan_out_returns_batch_result(self):
        llm, corpus = _llm()
        executor = Executor(options=RuntimeOptions(model=llm, clock=llm.clock))
        batch = executor.run(
            _pipeline(), items=_items(corpus), state=_state(llm)
        )
        assert len(batch.items) == len(corpus)
        assert all(batch.output("summary"))

    def test_items_with_base_state_shares_prompts(self):
        llm, corpus = _llm()
        executor = Executor(options=RuntimeOptions(model=llm, clock=llm.clock))
        base = _state(llm)
        batch = executor.run(_pipeline(), items=_items(corpus), state=base)
        # Items forked from the base: its own context stays untouched.
        assert "summary" not in list(base.context.keys())
        assert not batch.failures()

class TestSharedResultProtocol:
    def test_run_result_protocol(self):
        llm, corpus = _llm()
        executor = Executor(options=RuntimeOptions(model=llm, clock=llm.clock))
        state = _state(llm)
        state.context.put("tweet", corpus[0].text, producer="test")
        result = executor.run(_pipeline(), state=state)
        assert result.output("summary")
        report = result.report
        assert report["runner"] == "run"
        assert report["elapsed"] == result.elapsed
        assert isinstance(result.cache, dict)

    def test_batch_result_protocol_sequential(self):
        llm, corpus = _llm()
        batch = BatchRunner(_state(llm)).run(_pipeline(), items=_items(corpus))
        assert batch.output("summary") == batch.outputs("summary")
        report = batch.report
        assert report["runner"] == "batch"
        assert report["items"] == len(corpus)
        assert report["throughput"] == batch.throughput

    def test_batch_result_protocol_parallel(self):
        llm, corpus = _llm()
        runner = ParallelBatchRunner(_state(llm), workers=2)
        batch = runner.run(_pipeline(), items=_items(corpus))
        assert all(batch.output("summary"))
        assert batch.report["workers"] == 2

    def test_batch_cache_delta_in_protocol(self):
        llm, corpus = _llm(prefix_cache=False)
        state = _state(llm)
        cache = ResultCache()
        state.result_cache = cache
        cache.subscribe_to(state.events, state.prompts)
        runner = BatchRunner(state)
        runner.run(_pipeline(), items=_items(corpus))
        warm = runner.run(_pipeline(), items=_items(corpus))
        assert warm.cache["hits"] >= 1
        assert warm.report["cache"]["hits"] == warm.cache["hits"]

    def test_loop_report_protocol(self):
        llm, corpus = _llm()
        state = _state(llm)
        state.context.put("tweet", corpus[0].text, producer="test")
        loop = RefinementLoop(
            pipeline=_pipeline(),
            refiners=[REF(RefAction.APPEND, "Shorter.", key="map")],
            options=RuntimeOptions(
                model=llm, clock=llm.clock, result_cache=ResultCache()
            ),
        )
        report = loop.run(state=state)
        assert report.output("summary")
        assert report.report["runner"] == "loop"
        assert set(report.cache) == {
            "hits", "misses", "invalidations", "saved_seconds"
        }


class TestRefinementLoopUnifiedRun:
    def _loop(self, llm):
        return RefinementLoop(
            pipeline=_pipeline(),
            refiners=[],
            options=RuntimeOptions(model=llm, clock=llm.clock),
        )

    def _state(self, llm, corpus):
        state = _state(llm)
        state.context.put("tweet", corpus[0].text, producer="test")
        return state

    def test_legacy_positional_state_warns(self):
        llm, corpus = _llm()
        loop = self._loop(llm)
        state = self._state(llm, corpus)
        with pytest.raises(TypeError, match="positional"):
            loop.run(state)
        assert llm.calls == 0

    def test_state_keyword_does_not_warn(self):
        llm, corpus = _llm()
        loop = self._loop(llm)
        state = self._state(llm, corpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = loop.run(state=state)
        assert report.final is not None

    def test_items_raises_clean_typeerror(self):
        llm, corpus = _llm()
        loop = self._loop(llm)
        state = self._state(llm, corpus)
        with pytest.raises(TypeError, match="items"):
            loop.run(items=_items(corpus), state=state)
        assert llm.calls == 0

    def test_state_required(self):
        llm, _ = _llm()
        with pytest.raises(TypeError, match="state"):
            self._loop(llm).run()


class TestParallelRunnerDeprecations:
    def test_positional_items_warn(self):
        llm, corpus = _llm()
        runner = ParallelBatchRunner(_state(llm), workers=2)
        with pytest.raises(TypeError, match="positional"):
            runner.run(_pipeline(), _items(corpus))
        assert llm.calls == 0

    def test_default_binder_used_when_bind_omitted(self):
        llm, corpus = _llm()
        batch = ParallelBatchRunner(_state(llm), workers=2).run(
            _pipeline(), items=_items(corpus)
        )
        assert all(batch.output("summary"))


def _executor(llm, **options):
    return Executor(options=RuntimeOptions(model=llm, clock=llm.clock, **options))


def _loop(llm):
    return RefinementLoop(
        pipeline=_pipeline(), refiners=[], options=RuntimeOptions(model=llm)
    )


def _tweet_state(llm, corpus):
    state = _state(llm)
    state.context.put("tweet", corpus[0].text, producer="test")
    return state


def _form(name, call):
    return pytest.param(call, id=name)


REMOVED_CALL_FORMS = [
    _form("executor-model-kwarg", lambda llm, corpus: Executor(model=llm)),
    _form(
        "parallel-metrics-kwarg",
        lambda llm, corpus: ParallelBatchRunner(
            _state(llm), metrics=MetricsRegistry()
        ),
    ),
    _form(
        "executor-positional-items",
        lambda llm, corpus: _executor(llm).run(_pipeline(), _items(corpus)),
    ),
    _form(
        "parallel-positional-items",
        lambda llm, corpus: ParallelBatchRunner(_state(llm)).run(
            _pipeline(), _items(corpus)
        ),
    ),
    _form(
        "executor-run-options",
        lambda llm, corpus: _executor(llm).run(
            _pipeline(),
            state=_tweet_state(llm, corpus),
            options=RuntimeOptions(model=llm),
        ),
    ),
    _form(
        "parallel-run-options",
        lambda llm, corpus: ParallelBatchRunner(_state(llm)).run(
            _pipeline(), items=_items(corpus), options=RuntimeOptions()
        ),
    ),
    _form(
        "loop-run-options",
        lambda llm, corpus: _loop(llm).run(
            state=_tweet_state(llm, corpus), options=RuntimeOptions(model=llm)
        ),
    ),
    _form(
        "loop-positional-state",
        lambda llm, corpus: _loop(llm).run(_tweet_state(llm, corpus)),
    ),
    _form(
        "loop-items",
        lambda llm, corpus: _loop(llm).run(
            items=_items(corpus), state=_tweet_state(llm, corpus)
        ),
    ),
    _form(
        "loop-pipeline-override",
        lambda llm, corpus: _loop(llm).run(
            Pipeline([GEN("alt", prompt="map")]),
            state=_tweet_state(llm, corpus),
        ),
    ),
    *(
        _form(
            f"executor-scheduler-{value}",
            lambda llm, corpus, value=value: _executor(llm, scheduler=value),
        )
        for value in (True, False, 42)
    ),
    *(
        _form(
            f"parallel-scheduler-{value}",
            lambda llm, corpus, value=value: ParallelBatchRunner(
                _state(llm), options=RuntimeOptions(scheduler=value)
            ).run(_pipeline(), items=_items(corpus)),
        )
        for value in (True, False, 42)
    ),
]


class TestRemovedCallForms:
    """Each runner has one constructor and one ``run`` form: every other
    form, and any ``scheduler`` that is not a config or None, fails with a
    TypeError before any model call."""

    @pytest.mark.parametrize("call", REMOVED_CALL_FORMS)
    def test_rejected(self, call):
        llm, corpus = _llm()
        with pytest.raises(TypeError):
            call(llm, corpus)
        assert llm.calls == 0
