"""SPEAR: Structured Prompt Execution and Adaptive Refinement.

A full reproduction of "Making Prompts First-Class Citizens for Adaptive
LLM Pipelines" (CIDR 2026): the prompt-as-data model, the (P, C, M)
algebra, structured prompt management (views, histories, meta prompts),
the optimizer (fusion, prefix caching, cost-based refinement planning),
the SPEAR-DL declarative language, and the §7 experiments — on a
deterministic simulated LLM serving substrate.

Quickstart::

    from repro import ExecutionState, GEN, SimulatedLLM

    llm = SimulatedLLM()
    state = ExecutionState(model=llm)
    state.prompts.create(
        "hello", "Summarize the tweet in at most 30 words.\nTweet:\ngreat day"
    )
    state = GEN("answer", prompt="hello").apply(state)
    print(state.C["answer"])
"""

from repro.core import (
    CHECK,
    DELEGATE,
    DIFF,
    EXPAND,
    GEN,
    MAP,
    MERGE,
    REF,
    RET,
    RETRY,
    SWITCH,
    VIEW,
    Condition,
    Context,
    ExecutionState,
    Metadata,
    Operator,
    Pipeline,
    PromptEntry,
    PromptStore,
    RefAction,
    RefinementMode,
    ViewRegistry,
    adaptive_hint,
    assisted_refinement,
    auto_refinement,
    manual_refinement,
    refine_on_low_confidence,
)
from repro.errors import SpearError
from repro.llm import (
    BlockPrefixCache,
    GenerationResult,
    ModelProfile,
    RadixPrefixCache,
    SimulatedLLM,
    Tokenizer,
    get_profile,
)
from repro.obs import (
    MetricsRegistry,
    ObsCollector,
    RunReport,
    build_run_report,
    to_prometheus,
)
from repro.resilience import (
    BreakerPolicy,
    FallbackChain,
    FaultPlan,
    FaultSpec,
    ResilienceRuntime,
    RetryPolicy,
)
from repro.runtime import (
    Executor,
    RunResult,
    RuntimeOptions,
    shadow_run,
    verify_replay,
)

__version__ = "0.1.0"

__all__ = [
    "CHECK",
    "DELEGATE",
    "DIFF",
    "EXPAND",
    "GEN",
    "MAP",
    "MERGE",
    "REF",
    "RET",
    "RETRY",
    "SWITCH",
    "VIEW",
    "Condition",
    "Context",
    "ExecutionState",
    "Metadata",
    "Operator",
    "Pipeline",
    "PromptEntry",
    "PromptStore",
    "RefAction",
    "RefinementMode",
    "ViewRegistry",
    "adaptive_hint",
    "assisted_refinement",
    "auto_refinement",
    "manual_refinement",
    "refine_on_low_confidence",
    "BlockPrefixCache",
    "RadixPrefixCache",
    "GenerationResult",
    "ModelProfile",
    "SimulatedLLM",
    "Tokenizer",
    "get_profile",
    "SpearError",
    "BreakerPolicy",
    "FallbackChain",
    "FaultPlan",
    "FaultSpec",
    "ResilienceRuntime",
    "RetryPolicy",
    "Executor",
    "RunResult",
    "RuntimeOptions",
    "shadow_run",
    "verify_replay",
    "MetricsRegistry",
    "ObsCollector",
    "RunReport",
    "build_run_report",
    "to_prometheus",
    "__version__",
]
