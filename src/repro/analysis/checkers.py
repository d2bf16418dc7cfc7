"""The analyzer suite: dataflow graph → diagnostics.

Each analyzer is a pure function ``(graph, env) -> list[Diagnostic]``
over one pipeline's :class:`~repro.analysis.dataflow.DataflowGraph`;
:func:`run_analyzers` runs the whole registry.  Analyzers that assert a
*negative* over the whole pipeline ("this slot is never written", "this
write is never read") are skipped when the graph contains an opaque
operator — a :class:`~repro.core.algebra.FunctionOperator` may read or
write anything, so such claims would be unsound.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from repro.analysis.costs import (
    check_cache_defeating_refiner,
    check_deadline_feasible,
    check_unbounded_fanout,
)
from repro.analysis.dataflow import AnalysisEnv, DataflowGraph, OpNode
from repro.analysis.diagnostics import Diagnostic, make_diagnostic
from repro.analysis.interference import (
    check_merge_determinism,
    check_prompt_write_races,
    check_refine_during_serve,
)

__all__ = ["run_analyzers", "ANALYZERS"]


def _diag(
    code: str,
    message: str,
    graph: DataflowGraph,
    node: OpNode | None = None,
    **data: Any,
) -> Diagnostic:
    return make_diagnostic(
        code,
        message,
        operator=node.label if node is not None else None,
        pipeline=graph.name,
        span=node.span if node is not None else None,
        **data,
    )


#: prompt keys read because a later write *appends to* them are created
#: implicitly; only these node kinds genuinely consume a prompt's text.
_PROMPT_READER_KINDS = frozenset({"GEN", "RET", "MERGE", "DIFF", "FUSED_GEN"})


def check_undefined_prompt_refs(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR101 — reading a prompt key no earlier operator creates."""
    findings = []
    for node in graph:
        if node.unreachable:
            continue  # dead branch: the arm itself is SPEAR148
        if node.kind == "MERGE":
            continue  # reported as SPEAR131 with merge-specific context
        for key in node.missing_prompts:
            findings.append(
                _diag(
                    "SPEAR101",
                    f"prompt key {key!r} is read here but never created "
                    "by an earlier operator or the initial prompt store",
                    graph,
                    node,
                    key=key,
                )
            )
    return findings


def check_unbound_template_params(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR102/SPEAR111 — template placeholders with no binding.

    A placeholder whose slot *some later operator* writes is a
    read-before-write (SPEAR111); one no operator ever writes is an
    unbound parameter that will render literally (SPEAR102).
    """
    if graph.has_opaque or env.open_context:
        return []
    findings = []
    for node in graph:
        if node.unreachable:
            continue
        for root in node.unbound_params:
            later = [
                writer
                for writer in graph.context_writers.get(root, [])
                if writer.index > node.index
            ]
            if later:
                findings.append(
                    _diag(
                        "SPEAR111",
                        f"context slot {root!r} is interpolated here but "
                        f"first written later by {later[0].label}",
                        graph,
                        node,
                        slot=root,
                        first_writer=later[0].label,
                    )
                )
            else:
                findings.append(
                    _diag(
                        "SPEAR102",
                        f"template placeholder {{{root}}} is never bound "
                        "by context, view params, or extra= literals; it "
                        "will render literally",
                        graph,
                        node,
                        placeholder=root,
                    )
                )
    return findings


def check_shadowed_template_params(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR103 — a GEN ``extra=`` literal hides a pipeline-written slot."""
    findings = []
    for node in graph:
        if node.kind != "GEN" or node.unreachable:
            continue
        for key in node.data.get("extra", ()):
            writers = [
                writer
                for writer in graph.context_writers.get(key, [])
                if writer.index != node.index
            ]
            if writers or key in graph.initial_context:
                findings.append(
                    _diag(
                        "SPEAR103",
                        f"extra= literal {key!r} shadows the context slot "
                        "of the same name; the literal wins over the "
                        "pipeline's value",
                        graph,
                        node,
                        param=key,
                    )
                )
    return findings


def check_view_resolution(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR104 — VIEW/SELECT_VIEW that cannot expand."""
    findings = []
    for node in graph:
        error = node.data.get("view_error")
        if error is not None:
            findings.append(
                _diag("SPEAR104", error, graph, node, view=node.data.get("view"))
            )
        for candidate, message in node.data.get("view_errors", {}).items():
            findings.append(
                _diag("SPEAR104", message, graph, node, view=candidate)
            )
    return findings


def check_read_before_write(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR111/SPEAR142 — hard context reads of unwritten slots.

    A DELEGATE whose payload slot is produced by its own (or a later)
    delegation is a cycle (SPEAR142); any other unwritten hard read is a
    read-before-write (SPEAR111).
    """
    if graph.has_opaque or env.open_context:
        return []
    findings = []
    for node in graph:
        if node.unreachable:
            continue
        for slot in node.missing_context:
            later = graph.writers_after(node.index, slot)
            delegate_writer = next(
                (writer for writer in later if writer.kind == "DELEGATE"), None
            )
            if node.kind == "DELEGATE" and delegate_writer is not None:
                findings.append(
                    _diag(
                        "SPEAR142",
                        f"delegation payload slot {slot!r} is only produced "
                        f"by {delegate_writer.label}"
                        + (
                            " (this very delegation)"
                            if delegate_writer.index == node.index
                            else " later in the pipeline"
                        )
                        + "; the delegation can never observe its input",
                        graph,
                        node,
                        slot=slot,
                        writer=delegate_writer.label,
                    )
                )
                continue
            strictly_later = [w for w in later if w.index > node.index]
            if strictly_later:
                findings.append(
                    _diag(
                        "SPEAR111",
                        f"context slot {slot!r} is read here but first "
                        f"written later by {strictly_later[0].label}",
                        graph,
                        node,
                        slot=slot,
                        first_writer=strictly_later[0].label,
                    )
                )
            else:
                findings.append(
                    _diag(
                        "SPEAR111",
                        f"context slot {slot!r} is read here but never "
                        "written by any operator or the initial context",
                        graph,
                        node,
                        slot=slot,
                    )
                )
    return findings


def check_dead_writes(graph: DataflowGraph, env: AnalysisEnv) -> list[Diagnostic]:
    """SPEAR112 — context writes unconditionally clobbered before a read."""
    if graph.has_opaque:
        return []
    findings = []
    for index, slot in graph.dead_writes:
        node = graph.nodes[index]
        findings.append(
            _diag(
                "SPEAR112",
                f"the write to context slot {slot!r} is overwritten before "
                "any operator reads it",
                graph,
                node,
                slot=slot,
            )
        )
    return findings


def check_unused_prompts(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR121 — prompt entries the pipeline builds but never consumes."""
    if graph.has_opaque:
        return []
    findings = []
    consumed = {
        key
        for key, readers in graph.prompt_readers.items()
        if any(reader.kind in _PROMPT_READER_KINDS for reader in readers)
    }
    for key, writers in sorted(graph.prompt_writers.items()):
        if key in consumed:
            continue
        live_writers = [w for w in writers if not w.unreachable]
        if not live_writers:
            continue  # only a dead branch builds it; that arm is SPEAR148
        node = live_writers[0]
        findings.append(
            _diag(
                "SPEAR121",
                f"prompt key {key!r} is written but never read by "
                "GEN/RET/MERGE/DIFF",
                graph,
                node,
                key=key,
            )
        )
    return findings


def check_merge_unwritten(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR131 — MERGE over prompt keys that are never written."""
    findings = []
    for node in graph:
        if node.kind != "MERGE" or node.unreachable:
            continue
        for key in node.missing_prompts:
            findings.append(
                _diag(
                    "SPEAR131",
                    f"MERGE reads prompt key {key!r}, which no earlier "
                    "operator or the initial prompt store provides; the "
                    "merge would fail at runtime",
                    graph,
                    node,
                    key=key,
                )
            )
    return findings


def check_unbounded_retry(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR141 — RETRY without a RetryPolicy."""
    findings = []
    for node in graph:
        if node.unreachable:
            continue
        if node.kind == "RETRY" and not node.data.get("has_policy", True):
            findings.append(
                _diag(
                    "SPEAR141",
                    "RETRY has no RetryPolicy: transient model errors are "
                    "not retried and nothing bounds backoff; pass policy= "
                    "or use the DL form (which always attaches one)",
                    graph,
                    node,
                    max_retries=node.data.get("max_retries"),
                )
            )
    return findings


def check_unknown_agents(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR143 — DELEGATE to an unregistered agent."""
    if env.agents is None:
        return []
    known = set(env.agents)
    findings = []
    for node in graph:
        if node.kind != "DELEGATE" or node.unreachable:
            continue
        agent = node.data.get("agent")
        if agent not in known:
            findings.append(
                _diag(
                    "SPEAR143",
                    f"agent {agent!r} is not registered; "
                    f"available agents: {sorted(known)}",
                    graph,
                    node,
                    agent=agent,
                )
            )
    return findings


def check_unknown_sources(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR144 — RET from an unregistered data source."""
    if env.sources is None:
        return []
    known = set(env.sources)
    findings = []
    for node in graph:
        if node.kind != "RET" or node.unreachable:
            continue
        source = node.data.get("source")
        if source not in known:
            findings.append(
                _diag(
                    "SPEAR144",
                    f"data source {source!r} is not registered; "
                    f"available sources: {sorted(known)}",
                    graph,
                    node,
                    source=source,
                )
            )
    return findings


def check_dead_branches(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR148 — branches that can never fire.

    Only *unreachable work* is flagged: a constant-true CHECK guarding a
    then-branch is a common idiom for "run once" (``"x" not in C``) and
    stays silent; a constant-false CHECK with a then-branch (or a
    constant-true one with an else-branch) hides operators that can
    never run.
    """
    findings = []
    for node in graph:
        if node.kind == "CHECK":
            static = node.data.get("static")
            condition = node.data.get("condition")
            if static is False and node.data.get("has_then"):
                findings.append(
                    _diag(
                        "SPEAR148",
                        f"condition {condition!r} is statically false here; "
                        "the then-branch can never fire",
                        graph,
                        node,
                        condition=condition,
                        branch="then",
                    )
                )
            if static is True and node.data.get("has_orelse"):
                findings.append(
                    _diag(
                        "SPEAR148",
                        f"condition {condition!r} is statically true here; "
                        "the else-branch can never fire",
                        graph,
                        node,
                        condition=condition,
                        branch="orelse",
                    )
                )
        elif node.kind == "SWITCH":
            conditions = node.data.get("conditions", [])
            for position, static in enumerate(node.data.get("statics", [])):
                if static is False:
                    findings.append(
                        _diag(
                            "SPEAR148",
                            f"switch case {position} condition "
                            f"{conditions[position]!r} is statically false; "
                            "the case can never fire",
                            graph,
                            node,
                            condition=conditions[position],
                            case=position,
                        )
                    )
    return findings


def check_fusion_safety(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR171/SPEAR172 — cross-validate against the fusion planner.

    Verdicts come from the planner's own
    :func:`~repro.optimizer.fusion.ref_fusion_compatibility`, so the set
    of pairs ``fuse_refs`` coalesces is exactly the SPEAR171 set and the
    planner can never fuse a pair flagged SPEAR172.
    """
    findings = []
    for prev_index, index, verdict in graph.fusion_pairs:
        prev_node = graph.nodes[prev_index]
        node = graph.nodes[index]
        if verdict == "fusable":
            findings.append(
                _diag(
                    "SPEAR171",
                    f"adjacent literal REF[APPEND]s ({prev_node.label} then "
                    f"{node.label}) on one key; fuse_refs will coalesce "
                    "them into a single edit",
                    graph,
                    node,
                    previous=prev_node.label,
                    verdict=verdict,
                )
            )
        else:
            reason = {
                "dynamic": "a refiner is a callable",
                "incompatible-mode": "their refinement modes differ",
                "incompatible-condition": "they record different "
                "triggering conditions",
            }.get(verdict, verdict)
            findings.append(
                _diag(
                    "SPEAR172",
                    f"adjacent REF[APPEND]s ({prev_node.label} then "
                    f"{node.label}) on one key cannot be fused: {reason}; "
                    "the planner will skip them",
                    graph,
                    node,
                    previous=prev_node.label,
                    verdict=verdict,
                )
            )
    return findings


def check_deadline_without_scheduler(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR145 — deadline/priority set on a runner with no GEN engine.

    ``deadline_s`` and ``priority`` only order calls inside the
    continuous :class:`~repro.runtime.scheduler.GenScheduler`, which
    only :class:`~repro.runtime.parallel.ParallelBatchRunner` runs; the
    sequential :class:`~repro.runtime.executor.Executor` calls the model
    directly, so there they silently no-op.  Runs only when the
    environment describes the runtime (``env.runtime``); unknown runtime
    skips it, and a serving pool (``serve`` truthy) uses them to order
    admission.
    """
    runtime = env.runtime
    if runtime is None or runtime.get("serve"):
        return []
    scheduler = runtime.get("scheduler")
    enabled = scheduler is not None and scheduler is not False
    if enabled:
        return []
    configured = [
        name
        for name in ("deadline_s", "priority")
        if runtime.get(name) is not None
    ]
    if not configured:
        return []
    gen = next((node for node in graph if node.kind == "GEN"), None)
    return [
        _diag(
            "SPEAR145",
            f"{' and '.join(configured)} configured on a runner with no GEN "
            "engine; the deadline/priority policy will silently no-op — "
            "run the batch through ParallelBatchRunner or drop the setting",
            graph,
            gen,
            configured=tuple(configured),
        )
    ]


#: mirror of the runtime's placeholder syntax (``repro.core.entry``);
#: dotted names resolve from their root key.
_TEMPLATE_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_.]*)\}")


def _static_text_len(segment: str) -> int:
    """Length of ``segment`` with placeholders removed and edges trimmed."""
    return len(_TEMPLATE_PLACEHOLDER_RE.sub("", segment).strip())


def check_item_first_template(
    graph: DataflowGraph, env: AnalysisEnv
) -> list[Diagnostic]:
    """SPEAR146 — a varying placeholder precedes the template's static text.

    Prefix caching shares the longest common *leading* token run across
    requests, so a GEN template that interpolates per-item content before
    its static instructions diverges at the first varying token and every
    request re-prefills the instructions from scratch.  Instruction-first
    ordering makes the static text the shared trunk instead — same
    tokens, same model output, large prefill savings under the radix
    cache (see ``repro.llm.tasks.POST_ITEM_MARKER``).

    A placeholder is *varying* when its root reads from the item context
    (``node.template_params``); prompt-entry params and ``{base}`` are
    call-static and do not trip the rule.  Only statically-known texts
    are inspected, and only when the static text after the first varying
    placeholder outweighs the static text before it.
    """
    findings = []
    for node in graph:
        if node.kind not in ("GEN", "FUSED_GEN") or node.unreachable:
            continue
        texts = node.data.get("prompt_texts")
        if not texts:
            continue
        varying = set(node.template_params)
        if not varying:
            continue
        for text in texts:
            first = None
            root = ""
            for match in _TEMPLATE_PLACEHOLDER_RE.finditer(text):
                root = match.group(1).split(".", 1)[0]
                if root in varying:
                    first = match
                    break
            if first is None:
                continue
            before = _static_text_len(text[: first.start()])
            after = _static_text_len(text[first.end() :])
            if after <= before:
                continue
            findings.append(
                _diag(
                    "SPEAR146",
                    f"template puts the varying placeholder {{{root}}} before "
                    f"most of its static text ({after} static chars after it "
                    f"vs {before} before): item-first ordering defeats prefix "
                    "caching — move the static instructions ahead of the "
                    "placeholder",
                    graph,
                    node,
                    placeholder=root,
                    static_before=before,
                    static_after=after,
                    fix_hint=(
                        "move the static instruction text before the "
                        f"{{{root}}} placeholder so requests share a common "
                        "prompt trunk"
                    ),
                )
            )
            break  # one finding per GEN is enough; further texts add noise
    return findings


ANALYZERS: tuple[Callable[[DataflowGraph, AnalysisEnv], list[Diagnostic]], ...] = (
    check_undefined_prompt_refs,
    check_unbound_template_params,
    check_shadowed_template_params,
    check_view_resolution,
    check_read_before_write,
    check_dead_writes,
    check_unused_prompts,
    check_merge_unwritten,
    check_unbounded_retry,
    check_unknown_agents,
    check_unknown_sources,
    check_dead_branches,
    check_fusion_safety,
    check_deadline_without_scheduler,
    check_item_first_template,
    # cost bounds (repro.analysis.costs)
    check_deadline_feasible,
    check_unbounded_fanout,
    check_cache_defeating_refiner,
    # lane interference (repro.analysis.interference)
    check_prompt_write_races,
    check_refine_during_serve,
    check_merge_determinism,
)


def run_analyzers(graph: DataflowGraph, env: AnalysisEnv) -> list[Diagnostic]:
    """Run every registered analyzer over one pipeline's graph."""
    findings: list[Diagnostic] = []
    for analyzer in ANALYZERS:
        findings.extend(analyzer(graph, env))
    return findings
