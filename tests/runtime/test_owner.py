"""The one-owner rule: a model and a result cache belong to the thread that
first runs them, and a run from any other thread raises instead of racing.

The model, its radix tier and the result cache take no locks, so a second
thread running them is refused at the start of the run (``claim_run`` in
``repro.obs.ledger``, which every runner passes through once per run).
"""

from __future__ import annotations

import threading

import pytest

from repro.core import GEN, Pipeline
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.errors import SpearError
from repro.llm.model import SimulatedLLM
from repro.runtime.executor import Executor
from repro.runtime.options import RuntimeOptions
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.result_cache import ResultCache
from repro.serve import ServeRequest
from repro.serve.traffic import TrafficConfig, build_demo_server

PROMPT = "Summarize the tweet in at most 30 words.\nTweet:\n{tweet}"
CORPUS = make_tweet_corpus(4, seed=7)


def _model() -> SimulatedLLM:
    model = SimulatedLLM()
    model.bind_tweets(CORPUS)
    return model


def _executor(model, cache=None) -> Executor:
    return Executor(options=RuntimeOptions(model=model, result_cache=cache))


def _run(executor: Executor):
    state = executor.new_state(context={"tweet": CORPUS[0].text})
    state.prompts.create("p", PROMPT)
    return executor.run(Pipeline([GEN("summary", prompt="p")]), state=state)


def _batch(model: SimulatedLLM):
    state = ExecutionState(model=model, clock=model.clock)
    state.prompts.create("p", PROMPT)
    runner = ParallelBatchRunner(
        state,
        bind=lambda lane, tweet: lane.context.put("tweet", tweet.text),
        workers=2,
    )
    return runner.run(Pipeline([GEN("summary", prompt="p")]), items=CORPUS)


def _on_thread(fn):
    """Run ``fn`` on a new thread named ``second``; return what it raised."""
    raised: list[BaseException | None] = [None]

    def target() -> None:
        try:
            fn()
        except BaseException as error:  # noqa: BLE001 - handed back
            raised[0] = error

    thread = threading.Thread(target=target, name="second")
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return raised[0]


class TestOwner:
    def test_owner_thread_runs_again(self):
        model, cache = _model(), ResultCache()
        executor = _executor(model, cache)
        _run(executor)
        assert _run(executor).output("summary")
        _batch(model)

    def test_second_thread_executor_on_a_model_run_here_raises(self):
        model = _model()
        _run(_executor(model))
        error = _on_thread(lambda: _run(_executor(model)))
        assert isinstance(error, SpearError)
        message = str(error)
        assert "SimulatedLLM" in message
        assert repr(threading.current_thread().name) in message
        assert "'second'" in message

    def test_second_thread_batch_on_a_model_run_here_raises(self):
        model = _model()
        _batch(model)
        error = _on_thread(lambda: _batch(model))
        assert isinstance(error, SpearError)
        assert "SimulatedLLM" in str(error)

    def test_second_thread_on_a_result_cache_run_here_raises(self):
        cache = ResultCache()
        _run(_executor(_model(), cache))
        # A fresh model: only the cache is shared with the main thread.
        error = _on_thread(lambda: _run(_executor(_model(), cache)))
        assert isinstance(error, SpearError)
        assert "ResultCache" in str(error)

    def test_objects_first_run_elsewhere_refuse_this_thread(self):
        model = _model()
        assert _on_thread(lambda: _run(_executor(model))) is None
        with pytest.raises(SpearError, match="owned by thread 'second'"):
            _run(_executor(model))

    def test_refused_run_leaves_the_model_untouched(self):
        model = _model()
        _run(_executor(model))
        calls = model.calls
        assert isinstance(_on_thread(lambda: _batch(model)), SpearError)
        assert model.calls == calls


class TestServeOwnership:
    def test_sessions_built_here_run_on_the_dispatcher(self):
        # Sessions are created on the submitting thread and first run (so
        # owned) by the dispatcher; serving is unaffected by the rule.
        server = build_demo_server(TrafficConfig(tenants=2, corpus_size=4))
        requests = [
            ServeRequest(tenant, "summarize", context={"tweet": tweet.text})
            for tweet in server.corpus
            for tenant in server.tenants()
        ]
        futures = [server.submit(request) for request in requests]
        with server:
            assert all(future.result(timeout=60).ok for future in futures)
            more = server.serve(requests)
        assert all(response.ok for response in more)
        session = server.session(server.tenants()[0])
        with pytest.raises(SpearError, match="owned by thread 'spear-serve'"):
            _run(_executor(session.model))
