"""SPEAR: Structured Prompt Execution and Adaptive Refinement.

A full reproduction of "Making Prompts First-Class Citizens for Adaptive
LLM Pipelines" (CIDR 2026): the prompt-as-data model, the (P, C, M)
algebra, structured prompt management (views, histories, meta prompts),
the optimizer (fusion, prefix caching, cost-based refinement planning),
the SPEAR-DL declarative language, and the §7 experiments — on a
deterministic simulated LLM serving substrate.

The public surface is :mod:`repro.api`; this package exports only
``__version__``.

Quickstart::

    from repro.api import ExecutionState, GEN, SimulatedLLM

    llm = SimulatedLLM()
    state = ExecutionState(model=llm)
    state.prompts.create(
        "hello", "Summarize the tweet in at most 30 words.\nTweet:\ngreat day"
    )
    state = GEN("answer", prompt="hello").apply(state)
    print(state.C["answer"])
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
