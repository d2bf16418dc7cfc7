"""Quickstart: prompts as first-class data in five minutes.

Builds the smallest meaningful SPEAR pipeline: create a prompt in the
store P, generate, react to the confidence signal in M with a runtime
refinement, regenerate, and inspect the prompt's provenance.

Run: ``python examples/quickstart.py [TRACE_PATH]``

With a ``TRACE_PATH`` argument the run's event log is exported as JSONL,
ready for offline analysis with ``spear stats`` / ``spear trace``.
"""

import sys
from pathlib import Path

from repro.api import (
    CHECK,
    Condition,
    ExecutionState,
    GEN,
    REF,
    RefAction,
    SimulatedLLM,
)
from repro.core.history import trace
from repro.data import make_tweet_corpus


def main(trace_path: str | Path | None = None) -> None:
    # A seeded corpus grounds the simulated backend: it actually performs
    # the tasks prompts ask for, with accuracy that depends on the prompt.
    corpus = make_tweet_corpus(50, seed=7)
    llm = SimulatedLLM("qwen2.5-7b-instruct")
    llm.bind_tweets(corpus)

    state = ExecutionState(model=llm, clock=llm.clock)
    tweet = corpus[5]
    print(f"tweet: {tweet.text}\n")

    # P: the prompt store. Prompts are structured entries, not strings.
    state.prompts.create(
        "judge",
        "Select the tweet only if its sentiment is negative.\n"
        f"Respond with yes or no.\nTweet:\n{tweet.text}",
    )

    # The pipeline: GEN, then a CHECK over metadata M that refines the
    # prompt and retries when confidence is low.  Operators compose with
    # ``>>`` and each consumes/produces the full (P, C, M) state.
    pipeline = (
        GEN("verdict", prompt="judge")
        >> CHECK(
            Condition.metadata_below("confidence", 0.9),
            REF(
                RefAction.APPEND,
                "Explain your reasoning step by step before answering.",
                key="judge",
                mode="AUTO",
            )
            >> GEN("verdict", prompt="judge"),
        )
    )
    state = pipeline.apply(state)

    # C: outputs; M: signals; P carries full provenance.
    print(f"verdict:    {state.C['verdict']}")
    print(f"confidence: {state.M['confidence']:.2f}")
    print(f"gen calls:  {state.M['gen_calls']}")
    print(f"latency:    {state.clock.now:.2f}s simulated\n")

    print("prompt provenance (the ref_log):")
    for line in trace(state.prompts["judge"]):
        print(f"  {line}")

    if trace_path is not None:
        from repro.runtime.tracing import export_events

        path = export_events(state.events, trace_path)
        print(f"\nevent trace exported to {path}"
              f" — try: spear stats {path}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
