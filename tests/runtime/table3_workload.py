"""The Table-3 Map->Filter workload over the shared scaffold, for gates.

Both GEN stages carry the experiments' ``SCAFFOLD`` prefix, so items
share a long cacheable trunk: the regime the parallel runner, the
prefix-aware scheduler and the radix tier are gated on.
"""

from __future__ import annotations

from repro.core import GEN, Pipeline
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.experiments.common import (
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.llm.model import SimulatedLLM
from repro.runtime.batch import BatchRunner

PROFILE = "qwen2.5-7b-instruct"
MAP_PROMPT = SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"
FILTER_PROMPT = SCAFFOLD + "\n" + FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}"


def build_state(n_items: int, seed: int = 7, **llm_kwargs):
    """A cold model, corpus and prompt store; returns (state, items)."""
    llm = SimulatedLLM(PROFILE, **llm_kwargs)
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("map_p", MAP_PROMPT)
    state.prompts.create("filter_p", FILTER_PROMPT)
    return state, list(corpus)


def bind(state: ExecutionState, tweet) -> None:
    state.context.put("tweet", tweet.text, producer="bind")


def pipeline() -> Pipeline:
    return Pipeline([GEN("summary", prompt="map_p"), GEN("neg", prompt="filter_p")])


def outputs(batch) -> list[tuple]:
    return [
        (result.context.get("summary"), result.context.get("neg"))
        for result in batch.items
    ]


def sequential(n_items: int, seed: int = 7, **llm_kwargs):
    """The sequential reference run; returns (state, batch)."""
    state, items = build_state(n_items, seed, **llm_kwargs)
    return state, BatchRunner(state, bind=bind).run(pipeline(), items=items)
