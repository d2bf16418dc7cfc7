"""The stable embedding surface: ``import repro.api as spear``.

Everything an embedder needs, re-exported from one module with a curated
``__all__`` — so applications stop importing from deep private paths
(``repro.runtime.parallel``, ``repro.llm.model``, …) that are free to
move between releases.  The facade is the compatibility contract:

- the prompt algebra — :class:`Pipeline`, the core and derived
  operators, :class:`ExecutionState` and its ``(P, C, M)`` stores;
- the runners — :class:`Executor`, :class:`ParallelBatchRunner`,
  :class:`RefinementLoop`, configured via :class:`RuntimeOptions`;
- the serving substrate — :class:`SimulatedLLM`, :class:`ModelProfile`,
  :class:`ResultCache`;
- the serving layer — :class:`SpearServer` with typed
  :class:`ServeRequest` / :class:`ServeResponse` messages,
  :class:`TenantConfig` per-tenant sessions, :class:`SchedulerConfig` /
  :class:`PriorityClass` admission policy, and :class:`ShedPolicy`
  load shedding;
- the resilience layer — :class:`FaultPlan`, :class:`RetryPolicy`,
  :class:`BreakerPolicy`, :class:`CircuitBreaker`,
    :class:`FallbackChain` + targets, :class:`ResilienceRuntime`;
- observability — :class:`ObsCollector`, :class:`MetricsRegistry`,
  :func:`build_run_report`, plus the cross-run layer: the persistent
  :class:`Ledger` / :class:`RunLedger`, :class:`SeriesRecorder` time
  series, and :func:`build_attribution` per-prompt-version costing;
- static analysis — :func:`check_pipeline`, :func:`check_program`,
  :func:`check_state`, :class:`Diagnostic`, :class:`CheckResult`,
  :class:`Severity` (and the strict-mode :class:`SpearValidationError`).

Importing this module (and touching every ``__all__`` name) emits no
DeprecationWarning, and CI imports it under ``-W
error::DeprecationWarning`` to keep it that way.  Each runner is
configured once, with ``options=RuntimeOptions(...)``, and has one
keyword-only ``run`` form.

Quickstart::

    import repro.api as spear

    llm = spear.SimulatedLLM()
    executor = spear.Executor(options=spear.RuntimeOptions(model=llm))
    result = executor.generate_once(
        "hello", "Summarize the tweet in at most 30 words.\\nTweet:\\ngreat day"
    )
    print(result.output("answer"))
"""

from repro.analysis import (
    CheckResult,
    Diagnostic,
    Severity,
    check_pipeline,
    check_program,
    check_state,
)
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
)
from repro.errors import (
    CircuitOpenError,
    MalformedOutputError,
    ModelError,
    RateLimitError,
    SpearError,
    SpearValidationError,
    TransientModelError,
)
from repro.errors import TimeoutError  # noqa: A004 - the taxonomy's name
from repro.llm import (
    GenerationResult,
    ModelProfile,
    SimulatedLLM,
    Tokenizer,
    get_profile,
)
from repro.obs import (
    AttributionReport,
    Ledger,
    LedgerRun,
    MetricsRegistry,
    ObsCollector,
    Pricing,
    RunLedger,
    RunReport,
    SeriesRecorder,
    build_attribution,
    build_run_report,
)
from repro.resilience import (
    BreakerPolicy,
    CircuitBreaker,
    FallbackChain,
    FaultPlan,
    FaultSpec,
    ModelFallback,
    ResilienceRuntime,
    RetryPolicy,
    ShedPolicy,
    StaticFallback,
)
from repro.runtime import (
    BatchRunner,
    Executor,
    ParallelBatchRunner,
    PriorityClass,
    RefinementLoop,
    ResultCache,
    RunResult,
    RuntimeOptions,
    SchedulerConfig,
    VirtualClock,
)
from repro.serve import (
    ServeRequest,
    ServeResponse,
    SpearServer,
    TenantConfig,
)

__all__ = [
    # algebra
    "Pipeline",
    "Operator",
    "Condition",
    "GEN",
    "RET",
    "REF",
    "CHECK",
    "MERGE",
    "DELEGATE",
    "EXPAND",
    "RETRY",
    "MAP",
    "SWITCH",
    "VIEW",
    "DIFF",
    # state
    "ExecutionState",
    "PromptStore",
    "PromptEntry",
    "Context",
    "Metadata",
    "RefAction",
    "RefinementMode",
    "ViewRegistry",
    # runners
    "Executor",
    "BatchRunner",
    "ParallelBatchRunner",
    "RefinementLoop",
    "RuntimeOptions",
    "RunResult",
    "ResultCache",
    "VirtualClock",
    "PriorityClass",
    "SchedulerConfig",
    # serving layer
    "SpearServer",
    "ServeRequest",
    "ServeResponse",
    "TenantConfig",
    "ShedPolicy",
    # serving substrate
    "SimulatedLLM",
    "GenerationResult",
    "ModelProfile",
    "get_profile",
    "Tokenizer",
    # resilience
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "ModelFallback",
    "StaticFallback",
    "FallbackChain",
    "ResilienceRuntime",
    # errors
    "SpearError",
    "SpearValidationError",
    "ModelError",
    "TransientModelError",
    "RateLimitError",
    "TimeoutError",
    "MalformedOutputError",
    "CircuitOpenError",
    # observability
    "ObsCollector",
    "MetricsRegistry",
    "RunReport",
    "build_run_report",
    "Pricing",
    "AttributionReport",
    "build_attribution",
    "Ledger",
    "LedgerRun",
    "RunLedger",
    "SeriesRecorder",
    # static analysis
    "check_pipeline",
    "check_program",
    "check_state",
    "Diagnostic",
    "CheckResult",
    "Severity",
]
