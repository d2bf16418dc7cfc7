"""Meta prompts and cost-based refinement planning (paper §4.4, §5).

A pipeline runs several refiners against the tweet-filter prompt over a
batch of items, collecting outcome confidence into each prompt's ref_log.
The meta layer then mines those histories to rank refiners, flags the one
that consistently hurts, recommends a replacement, and the cost-based
planner packs the best refiners into a token budget for the next run.

Run: ``python examples/meta_optimization.py``
"""

from repro.api import ExecutionState, GEN, REF, RefAction, SimulatedLLM
from repro.core.meta import (
    analyze_refiners,
    evolution_summary,
    recommend_replacement,
    underperforming_refiners,
)
from repro.data import make_tweet_corpus
from repro.experiments.common import build_views, compose_item_prompt
from repro.optimizer.planner import CandidateRefiner, RefinementPlanner

BASE = build_views().expand("filter_stage")

#: Candidate refiners: two that help, one "simplifier" that strips the
#: scaffold and reliably hurts.
REFINERS = {
    "f_add_criteria": (
        "Use these criteria:\n- the sentiment is clearly negative\n"
        "- judge the full text, not individual words"
    ),
    "f_add_example": "Example: 'so stressed about the exam' -> yes",
    "f_strip_guidance": None,  # callable below
}


def _strip_guidance(state, text):
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("-")
    )


def _build_refiner(name):
    if name == "f_strip_guidance":
        return REF(
            RefAction.UPDATE, _strip_guidance, key="filter_prompt",
            function_name=name,
        )
    return REF(
        RefAction.APPEND, REFINERS[name], key="filter_prompt",
        function_name=name,
    )


def main() -> None:
    corpus = make_tweet_corpus(120, seed=7)
    llm = SimulatedLLM("qwen2.5-7b-instruct")
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    state.prompts.create("filter_prompt", BASE)

    # Exploration phase: apply each refiner, then generate over a few
    # items so GEN attaches outcome confidence to the refinement record.
    probe_items = corpus.tweets[:8]
    for name in REFINERS:
        for tweet in probe_items:
            state = _build_refiner(name).apply(state)
            prompt_key = "filter_prompt"
            state.prompts.create(
                "probe",
                compose_item_prompt(state.prompts.text(prompt_key), tweet.text),
                overwrite=True,
            )
            state = GEN("verdict", prompt="probe").apply(state)
            # Attribute the outcome to the refined prompt's latest record.
            state.prompts[prompt_key].ref_log[-1].signals.setdefault(
                "outcome_confidence", state.M["confidence"]
            )
            state.prompts[prompt_key].rollback(0)  # reset for the next probe

    # Meta analysis (§4.4): which refiners consistently improve confidence?
    print("refiner statistics mined from ref_logs:")
    for name, stats in sorted(
        analyze_refiners(state.prompts).items(),
        key=lambda item: -item[1].mean_confidence_delta,
    ):
        if name.startswith("f_rollback") or name == "f_literal":
            continue
        print(
            f"  {name:<18} applications={stats.applications:<3} "
            f"mean confidence delta {stats.mean_confidence_delta:+.3f}"
        )

    flagged = [
        stats.function
        for stats in underperforming_refiners(state.prompts, min_applications=3)
        if stats.function in REFINERS
    ]
    print(f"\nunderperforming: {flagged}")
    for name in flagged:
        replacement = recommend_replacement(state.prompts, name)
        print(f"  suggested replacement for {name}: {replacement}")

    # Cost-based planning (§5): pack the best refiners into a budget.
    candidates = [
        CandidateRefiner(
            name=name,
            build=lambda name=name: _build_refiner(name),
            est_cost_tokens=(
                20 if name != "f_strip_guidance" else 1
            ),
        )
        for name in REFINERS
    ]
    plan = RefinementPlanner().plan(state, candidates, budget_tokens=45)
    print(f"\nplanned refiners under a 45-token budget: "
          f"{[step.refiner.name for step in plan.steps]}")
    print(f"skipped: {list(plan.skipped)}")

    state = plan.apply(state)
    summary = evolution_summary(state.prompts, "filter_prompt")
    print(f"\nfilter_prompt is now at v{summary['versions'] - 1} "
          f"({summary['net_growth_chars']:+d} chars vs v0)")


if __name__ == "__main__":
    main()
