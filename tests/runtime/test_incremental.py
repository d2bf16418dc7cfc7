"""Tests for the cache-driven incremental refinement loop."""

import pytest

from repro.core import GEN, REF, Condition, FunctionOperator, Pipeline, RefAction
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.experiments.common import (
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.llm.model import SimulatedLLM
from repro.runtime.executor import Executor
from repro.runtime.incremental import RefinementLoop
from repro.runtime.options import RuntimeOptions
from repro.runtime.result_cache import ResultCache

MAP_PROMPT = (
    "Summarize and clean up the tweet in at most 30 words.\nTweet:\n{tweet}"
)
FILTER_PROMPT = (
    "Select the tweet only if its sentiment is negative. "
    "Respond with yes or no.\nTweet:\n{tweet}"
)


def _build_state(seed=7):
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
    corpus = make_tweet_corpus(4, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("map_p", MAP_PROMPT)
    state.prompts.create("filter_p", FILTER_PROMPT)
    state.context.put("tweet", corpus[0].text, producer="test")
    return state


def _pipeline():
    return Pipeline(
        [GEN("summary", prompt="map_p"), GEN("verdict", prompt="filter_p")]
    )


def _loop(state, refiners, **kwargs):
    executor = Executor(
        options=RuntimeOptions(
            model=state.model, clock=state.clock, result_cache=ResultCache()
        )
    )
    return RefinementLoop(executor, _pipeline(), refiners=refiners, **kwargs)


class TestRefinementLoop:
    def test_sequence_of_refiners_runs_len_plus_one_iterations(self):
        state = _build_state()
        refiners = [
            REF(RefAction.APPEND, "Focus on school.", key="filter_p"),
            REF(RefAction.APPEND, "Count homework gripes.", key="filter_p"),
        ]
        report = _loop(state, refiners).run(state=state)

        assert len(report.iterations) == 3
        assert report.final is not None
        first, second, third = report.iterations
        # Cold first run: everything misses; the refiner then kills only
        # the filter entry.
        assert first.cache_hits == 0 and first.cache_misses == 2
        assert first.invalidations == 1
        assert first.refined_key == "filter_p"
        # Later runs: the map stage hits, the refined filter re-runs.
        for iteration in (second, third):
            assert iteration.cache_hits == 1
            assert iteration.cache_misses == 1
        assert third.refined_key is None
        assert second.elapsed < first.elapsed
        assert report.total_saved_seconds > 0
        assert report.cache_hits == 2
        assert report.cache_misses == 4

    def test_callable_refiner_stops_on_none(self):
        state = _build_state()

        def refine(current, iteration):
            if iteration >= 1:
                return None
            return REF(RefAction.APPEND, f"hint {iteration}", key="filter_p")

        report = _loop(state, refine).run(state=state)
        assert len(report.iterations) == 2
        assert report.iterations[0].refined_key == "filter_p"
        assert report.iterations[1].refined_key is None

    def test_stop_condition_halts_before_refining(self):
        state = _build_state()
        refiners = [REF(RefAction.APPEND, "never applied", key="filter_p")]
        report = _loop(
            state, refiners, stop=Condition.metadata_above("gen_calls", 0)
        ).run(state=state)
        # The condition holds after the first run, so no refinement.
        assert len(report.iterations) == 1
        assert report.iterations[0].refined_key is None
        assert state.prompts["filter_p"].version == 0

    def test_max_iterations_caps_callable_loops(self):
        state = _build_state()

        def always(current, iteration):
            return REF(RefAction.APPEND, f"hint {iteration}", key="filter_p")

        report = _loop(state, always, max_iterations=3).run(state=state)
        assert len(report.iterations) == 3

    def test_max_iterations_validation(self):
        state = _build_state()
        with pytest.raises(ValueError):
            _loop(state, [], max_iterations=0)

    def test_loop_without_cache_still_works(self):
        state = _build_state()
        executor = Executor(options=RuntimeOptions(model=state.model, clock=state.clock))
        refiners = [REF(RefAction.APPEND, "Focus.", key="filter_p")]
        report = RefinementLoop(
            executor, _pipeline(), refiners=refiners
        ).run(state=state)
        assert len(report.iterations) == 2
        assert report.cache_hits == 0
        assert report.total_saved_seconds == 0

    def test_to_dict_round_trips_the_report(self):
        state = _build_state()
        refiners = [REF(RefAction.APPEND, "Focus.", key="filter_p")]
        report = _loop(state, refiners).run(state=state)
        payload = report.to_dict()
        assert len(payload["iterations"]) == 2
        assert payload["total_elapsed"] == pytest.approx(report.total_elapsed)
        assert payload["cache_hits"] == report.cache_hits
        assert payload["iterations"][0]["refined_key"] == "filter_p"


ENRICH_INSTRUCTION = (
    "List the key topics and entities the tweet mentions, one per line."
)
DIGEST_INSTRUCTION = (
    "Condense the summary above into a single factual takeaway sentence."
)
#: The focus hints appended to the filter prompt between iterations: the
#: Table-3 "manual refinement" move, repeated.
REFINEMENT_HINTS = (
    "Focus on school-related content such as classes and exams.",
    "Also count complaints about teachers and homework as school-related.",
    "Ignore sarcasm-free positive mentions of school events.",
    "Treat exam-stress venting as negative school content.",
)


def _refine_loop_report(cached: bool, n_items: int = 12, seed: int = 7):
    """Map -> Enrich -> Digest -> Filter per item, five iterations, each
    boundary refining only the filter prompt (prefix cache off)."""
    llm = SimulatedLLM("qwen2.5-7b-instruct", enable_prefix_cache=False)
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    for key, text in (
        ("map_p", SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"),
        ("enrich_p", SCAFFOLD + "\n" + ENRICH_INSTRUCTION + "\nTweet:\n{tweet}"),
        ("digest_p", SCAFFOLD + "\nSummary:\n{summary}\n" + DIGEST_INSTRUCTION),
        ("filter_p", FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}"),
    ):
        state.prompts.create(key, text)
    operators = []
    for index, tweet in enumerate(corpus):

        def bind(item_state, _text=tweet.text):
            item_state.context.put("tweet", _text, producer="bind")
            return item_state

        operators += [
            FunctionOperator(bind, label=f"BIND[{index}]"),
            GEN("summary", prompt="map_p"),
            GEN("keywords", prompt="enrich_p"),
            GEN("takeaway", prompt="digest_p"),
            GEN("verdict", prompt="filter_p", max_tokens=8),
        ]
    executor = Executor(
        options=RuntimeOptions(
            model=llm,
            clock=llm.clock,
            result_cache=ResultCache(capacity=16384) if cached else None,
        )
    )
    refiners = [
        REF("APPEND", hint, key="filter_p", function_name=f"f_focus_{index}")
        for index, hint in enumerate(REFINEMENT_HINTS)
    ]
    loop = RefinementLoop(
        executor, Pipeline(operators), refiners=refiners, max_iterations=5
    )
    return loop.run(state=state)


def _final_outputs(report) -> tuple:
    state = report.final.state
    return (
        {key: repr(state.context[key]) for key in state.context.keys()},
        {key: repr(state.metadata[key]) for key in state.metadata.keys()},
    )


class TestIncrementalSpeedup:
    def test_cache_halves_simulated_time_with_identical_outputs(self):
        """Only the refined filter stage re-runs after each refinement;
        the upstream stages splice their memoized deltas."""
        uncached = _refine_loop_report(cached=False)
        cached = _refine_loop_report(cached=True)
        assert _final_outputs(cached) == _final_outputs(uncached)
        assert uncached.total_elapsed / cached.total_elapsed >= 2.0
