"""Static cost bounds: tokens, simulated seconds, dollars — before any call.

The paper's cost-aware view selection (§5) needs per-operator cost
summaries the optimizer can compare *statically*; strict mode needs them
to reject a pipeline whose ``deadline_s`` is infeasible before burning a
single token.  This module walks a :class:`~repro.analysis.dataflow.
DataflowGraph` and prices every generation site with the optimizer's own
:class:`~repro.optimizer.cost_model.CostModel` and the observability
layer's :class:`~repro.obs.report.Pricing`:

- the **lower bound** sums only unconditional, reachable nodes — work the
  pipeline cannot avoid, each generation charged its cheapest
  statically-known prompt text;
- the **upper bound** sums every reachable node, each generation charged
  its most expensive known text, with RETRY bodies multiplied by
  ``1 + max_retries`` (nested RETRYs compound).

Prompt texts the walker could not track (dynamic refiners, fan-out past
the text limit, opaque operators) are priced at zero prompt tokens and
the affected bounds are marked ``exact=False`` — the lower bound stays
sound, the upper bound is best-effort.

Three analyzers ride on the bounds:

- SPEAR151 — ``deadline_s`` below the lower-bound latency: statically
  infeasible, no scheduler policy can save it;
- SPEAR152 — a RETRY whose condition reads only signals its body never
  writes: the verdict cannot change between attempts, so every permitted
  attempt runs and only ``max_retries`` bounds the token spend;
- SPEAR153 — a cache-defeating refiner: a conditional/repeated REF or
  MAP whose dependent suffix (the optimizer's
  :func:`~repro.optimizer.incremental.dependent_suffix` taint, mirrored
  statically) covers ≥90% of the pipeline, so every refinement
  invalidates essentially everything downstream of the prefix cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.analysis.dataflow import AnalysisEnv, DataflowGraph, OpNode
from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.obs.report import Pricing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.profiles import ModelProfile
    from repro.optimizer.cost_model import CostModel

__all__ = [
    "DEFAULT_OUTPUT_TOKENS",
    "CostBound",
    "OperatorCost",
    "PipelineCostSummary",
    "estimate_costs",
    "check_deadline_feasible",
    "check_unbounded_fanout",
    "check_cache_defeating_refiner",
]

#: assumed decode length when a GEN carries no ``max_tokens`` — mirrors
#: the optimizer's ``repro.optimizer.incremental._DEFAULT_OUTPUT_TOKENS``.
DEFAULT_OUTPUT_TOKENS = 48

#: generation sites — the only nodes that move tokens.
_GEN_KINDS = frozenset({"GEN", "FUSED_GEN"})

#: pure control nodes: excluded from the SPEAR153 step denominator, like
#: the optimizer's flattened-operator view.
_CONTROL_KINDS = frozenset({"CHECK", "SWITCH", "RETRY"})

#: SPEAR153 fires when the dependent suffix covers at least this
#: fraction of the pipeline's (non-control) steps …
_SUFFIX_FRACTION = 0.9
#: … and at least this many steps actually re-run (tiny pipelines where
#: "everything" is two steps are not a caching hazard).
_SUFFIX_MIN_RERUN = 3


@dataclass(frozen=True)
class CostBound:
    """One bound's token/latency/dollar triple."""

    tokens: int = 0
    seconds: float = 0.0
    usd: float = 0.0

    def __add__(self, other: "CostBound") -> "CostBound":
        return CostBound(
            tokens=self.tokens + other.tokens,
            seconds=self.seconds + other.seconds,
            usd=self.usd + other.usd,
        )

    def scaled(self, factor: int) -> "CostBound":
        return CostBound(
            tokens=self.tokens * factor,
            seconds=self.seconds * factor,
            usd=self.usd * factor,
        )


@dataclass(frozen=True)
class OperatorCost:
    """One node's contribution to the pipeline bounds."""

    index: int
    label: str
    kind: str
    lower: CostBound
    upper: CostBound
    #: upper-bound execution count (RETRY attempt multiplier; 0 for
    #: nodes the lower bound excludes is *not* recorded here — this is
    #: the worst case).
    max_runs: int = 1
    #: False when the node's prompt text was not statically known and
    #: its tokens are priced at zero.
    exact: bool = True


@dataclass(frozen=True)
class PipelineCostSummary:
    """Whole-pipeline lower/upper cost bounds with per-node detail."""

    pipeline: str | None
    operators: tuple[OperatorCost, ...] = ()
    lower: CostBound = field(default_factory=CostBound)
    upper: CostBound = field(default_factory=CostBound)
    #: False when any priced node had unknown prompt text.
    exact: bool = True


def _default_model() -> "CostModel":
    from repro.llm.profiles import DEFAULT_PROFILE, get_profile
    from repro.optimizer.cost_model import CostModel

    return CostModel(get_profile(DEFAULT_PROFILE))


def _attempt_multipliers(graph: DataflowGraph) -> dict[int, int]:
    """Worst-case execution count per node index (RETRY bodies compound)."""
    runs: dict[int, int] = {node.index: 1 for node in graph}
    for node in graph:
        if node.kind != "RETRY":
            continue
        body_range = node.data.get("body_range")
        if body_range is None:
            continue
        attempts = 1 + int(node.data.get("max_retries") or 0)
        start, stop = body_range
        for index in range(start, stop):
            runs[index] = runs.get(index, 1) * attempts
    return runs


def _gen_cost(
    node: OpNode, model: "CostModel"
) -> tuple[CostBound, CostBound, bool]:
    """(lower, upper, exact) per single execution of a generation node."""
    output_tokens = getattr(node.operator, "max_tokens", None)
    if output_tokens is None:
        output_tokens = DEFAULT_OUTPUT_TOKENS
    texts = node.data.get("prompt_texts")
    if not texts:
        estimate = model.call("", expected_output_tokens=output_tokens)
        bound = CostBound(
            tokens=estimate.prompt_tokens + estimate.output_tokens,
            seconds=estimate.seconds,
            usd=0.0,
        )
        return bound, bound, False
    estimates = [
        model.call(text, expected_output_tokens=output_tokens)
        for text in texts
    ]
    bounds = [
        CostBound(
            tokens=estimate.prompt_tokens + estimate.output_tokens,
            seconds=estimate.seconds,
            usd=0.0,
        )
        for estimate in estimates
    ]
    lower = min(bounds, key=lambda bound: bound.tokens)
    upper = max(bounds, key=lambda bound: bound.tokens)
    return lower, upper, True


def _priced(bound: CostBound, node: OpNode, pricing: Pricing) -> CostBound:
    output_tokens = getattr(node.operator, "max_tokens", None)
    if output_tokens is None:
        output_tokens = DEFAULT_OUTPUT_TOKENS
    prompt_tokens = max(bound.tokens - output_tokens, 0)
    return CostBound(
        tokens=bound.tokens,
        seconds=bound.seconds,
        usd=pricing.cost(prompt_tokens, 0, min(output_tokens, bound.tokens)),
    )


def estimate_costs(
    graph: DataflowGraph,
    env: AnalysisEnv | None = None,
    *,
    model: "CostModel | None" = None,
    pricing: Pricing | None = None,
) -> PipelineCostSummary:
    """Lower/upper token, latency, and dollar bounds for ``graph``."""
    del env  # reserved: future profile/pricing from the environment
    if model is None:
        model = _default_model()
    if pricing is None:
        pricing = Pricing()
    runs = _attempt_multipliers(graph)
    operators: list[OperatorCost] = []
    total_lower = CostBound()
    total_upper = CostBound()
    exact = True
    for node in graph:
        if node.unreachable or node.kind not in _GEN_KINDS:
            continue
        lower_one, upper_one, node_exact = _gen_cost(node, model)
        lower_one = _priced(lower_one, node, pricing)
        upper_one = _priced(upper_one, node, pricing)
        max_runs = runs.get(node.index, 1)
        # Unavoidable work only: conditional nodes may never run, and a
        # RETRY body is only guaranteed its first attempt.
        lower = CostBound() if node.conditional else lower_one
        upper = upper_one.scaled(max_runs)
        operators.append(
            OperatorCost(
                index=node.index,
                label=node.label,
                kind=node.kind,
                lower=lower,
                upper=upper,
                max_runs=max_runs,
                exact=node_exact,
            )
        )
        total_lower = total_lower + lower
        total_upper = total_upper + upper
        exact = exact and node_exact
    return PipelineCostSummary(
        pipeline=graph.name,
        operators=tuple(operators),
        lower=total_lower,
        upper=total_upper,
        exact=exact,
    )


def _diag(
    code: str,
    message: str,
    graph: DataflowGraph,
    node: OpNode | None = None,
    **data: object,
) -> Diagnostic:
    return make_diagnostic(
        code,
        message,
        operator=node.label if node is not None else None,
        pipeline=graph.name,
        span=node.span if node is not None else None,
        **data,
    )


def check_deadline_feasible(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR151 — ``deadline_s`` below the lower-bound latency."""
    runtime = env.runtime or {}
    deadline = runtime.get("deadline_s")
    if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
        return []
    summary = estimate_costs(graph, env)
    if summary.lower.seconds <= deadline:
        return []
    anchor = next(
        (
            node
            for node in graph
            if node.kind in _GEN_KINDS
            and not node.conditional
            and not node.unreachable
        ),
        None,
    )
    return [
        _diag(
            "SPEAR151",
            f"deadline_s={deadline:g} is statically infeasible: the "
            f"unavoidable generation work alone takes at least "
            f"{summary.lower.seconds:.2f}s "
            f"({summary.lower.tokens} tokens); no scheduler policy can "
            "meet this deadline",
            graph,
            anchor,
            deadline_s=float(deadline),
            lower_seconds=round(summary.lower.seconds, 6),
            lower_tokens=summary.lower.tokens,
        )
    ]


def check_unbounded_fanout(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR152 — RETRY whose verdict can never change between attempts.

    When the retry condition reads only metadata/context slots the body
    never writes, a failing first attempt fails them all: every
    permitted attempt fires and only ``max_retries`` bounds the token
    spend.  Bodies containing opaque operators are skipped (they could
    write anything).
    """
    del env
    findings: list[Diagnostic] = []
    for node in graph:
        if node.kind != "RETRY" or node.unreachable:
            continue
        body_range = node.data.get("body_range")
        if body_range is None:
            continue
        start, stop = body_range
        body = [graph.nodes[index] for index in range(start, stop)]
        if not any(inner.kind in _GEN_KINDS for inner in body):
            continue
        if any(inner.opaque for inner in body):
            continue
        condition_metadata = set(node.metadata_reads)
        condition_context = set(node.context_reads)
        if not condition_metadata and not condition_context:
            continue
        written_metadata = {
            signal for inner in body for signal in inner.metadata_writes
        }
        written_context = {
            slot for inner in body for slot in inner.context_writes
        }
        if condition_metadata & written_metadata:
            continue
        if condition_context & written_context:
            continue
        attempts = 1 + int(node.data.get("max_retries") or 0)
        condition = node.data.get("condition")
        findings.append(
            _diag(
                "SPEAR152",
                f"retry condition {condition!r} reads only signals its "
                f"body never writes, so the verdict cannot change "
                f"between attempts: all {attempts} permitted attempts "
                "will run and only max_retries bounds the token spend",
                graph,
                node,
                condition=condition,
                attempts=attempts,
            )
        )
    return findings


def _dependent_step_counts(
    steps: list[OpNode], key_sets: list[frozenset[str]]
) -> list[int]:
    """Static mirror of the optimizer's ``dependent_suffix`` taint.

    Returns, per entry of ``key_sets``, how many of ``steps`` (the
    pipeline's live non-control steps) are invalidated when a refiner
    rewrites those prompt keys.  Taint runs from the top, exactly like
    incremental re-execution after a refinement: any step touching a
    tainted prompt key re-runs, and re-running steps taint every context
    slot and prompt key they write.

    One forward pass serves every key set: a key or slot carries a
    bitmask with bit ``i`` set when key set ``i`` taints it, and a step
    re-runs for exactly the key sets whose bits reach it.
    """
    prompt_taint: dict[str, int] = {}
    for bit, keys in enumerate(key_sets):
        for key in keys:
            prompt_taint[key] = prompt_taint.get(key, 0) | 1 << bit
    context_taint: dict[str, int] = {}
    reruns: dict[int, int] = {}  # taint mask → steps re-run under it
    for node in steps:
        mask = 0
        for key in node.prompt_reads:
            mask |= prompt_taint.get(key, 0)
        for key in node.prompt_writes:
            mask |= prompt_taint.get(key, 0)
        for slot in node.context_reads:
            mask |= context_taint.get(slot, 0)
        if not mask:
            continue
        reruns[mask] = reruns.get(mask, 0) + 1
        for key in node.prompt_writes:
            prompt_taint[key] = prompt_taint.get(key, 0) | mask
        for slot in node.context_writes:
            context_taint[slot] = context_taint.get(slot, 0) | mask
    counts = [0] * len(key_sets)
    for mask, rerun in reruns.items():
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += rerun
            mask ^= low
    return counts


def check_cache_defeating_refiner(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR153 — a refiner whose dependent suffix swallows the pipeline.

    Only *refinement sites* — conditional or repeated non-CREATE REFs
    and MAPs, the operators adaptive loops re-run — are considered;
    unconditional top-of-pipeline prompt construction is not a caching
    hazard because it runs exactly once.
    """
    del env
    findings: list[Diagnostic] = []
    steps = [
        node
        for node in graph
        if not node.unreachable and node.kind not in _CONTROL_KINDS
    ]
    # Refiners of the same keys taint the same suffix: one taint pass
    # counts it for every distinct key set.
    refiners: list[tuple[OpNode, frozenset[str]]] = []
    for node in graph:
        if node.unreachable or not (node.conditional or node.repeated):
            continue
        if node.kind == "REF":
            if node.data.get("action") == "create":
                continue
        elif node.kind != "MAP":
            continue
        if node.prompt_writes:
            refiners.append((node, frozenset(node.prompt_writes)))
    key_sets = list(dict.fromkeys(keys for __, keys in refiners))
    counts = dict(zip(key_sets, _dependent_step_counts(steps, key_sets)))
    for node, keys in refiners:
        rerun = counts[keys]
        if rerun < _SUFFIX_MIN_RERUN:
            continue
        fraction = rerun / max(len(steps), 1)
        if fraction < _SUFFIX_FRACTION:
            continue
        names = ", ".join(sorted(node.prompt_writes))
        findings.append(
            _diag(
                "SPEAR153",
                f"refining {names!r} invalidates {rerun} of "
                f"{len(steps)} pipeline steps ({fraction:.0%}): every "
                "refinement defeats the prefix cache; refine a narrower "
                "key or move the refiner later",
                graph,
                node,
                keys=tuple(sorted(node.prompt_writes)),
                rerun_steps=rerun,
                total_steps=len(steps),
                fraction=round(fraction, 4),
            )
        )
    return findings
