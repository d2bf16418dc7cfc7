"""Entry points: check pipelines, states, and SPEAR-DL programs.

Three front doors, one engine:

- :func:`check_pipeline` — a Python-API :class:`~repro.core.pipeline.Pipeline`
  against an explicitly described environment;
- :func:`check_state` — a pipeline against a live
  :class:`~repro.core.state.ExecutionState` (what strict mode runs);
- :func:`check_program` — SPEAR-DL source or a parsed
  :class:`~repro.dl.ast_nodes.Program`: syntax and compile failures become
  SPEAR001/SPEAR002 diagnostics instead of exceptions, every compiled
  pipeline is checked, and program-level findings (unused views) ride on
  the view definitions' source spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.analysis.checkers import run_analyzers
from repro.analysis.dataflow import AnalysisEnv, DataflowGraph, build_dataflow
from repro.analysis.diagnostics import (
    CheckResult,
    SourceSpan,
    make_diagnostic,
)
from repro.analysis.suppressions import (
    Suppression,
    apply_suppressions,
    suppressions_from_comments,
)
from repro.core.pipeline import Pipeline
from repro.core.state import ExecutionState
from repro.errors import DslCompileError, DslSyntaxError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at call time: repro.dl.compiler stamps SourceSpans
    # from repro.analysis.diagnostics, so a module-level import here
    # would be circular.
    from repro.dl.ast_nodes import Program

__all__ = ["check_pipeline", "check_state", "check_program"]


def _check_graph(graph: DataflowGraph, env: AnalysisEnv) -> CheckResult:
    # Sorted on emission: stable output across runs and dict orders.
    return CheckResult(run_analyzers(graph, env)).sort()


def check_pipeline(
    pipeline: Pipeline,
    *,
    prompts: Mapping[str, Any] | None = None,
    context: Iterable[str] = (),
    views: Any = None,
    sources: Sequence[str] | None = None,
    agents: Sequence[str] | None = None,
    open_context: bool = False,
    prompt_params: Mapping[str, Iterable[str]] | None = None,
    name: str | None = None,
    runtime: Mapping[str, Any] | None = None,
) -> CheckResult:
    """Statically check one pipeline against a described environment.

    ``prompts`` maps initially-present prompt keys to their text (or to
    entry objects with a ``.text``); ``context`` lists initially-bound
    slots.  ``sources``/``agents`` of None mean "unknown" and skip the
    registration checks (SPEAR143/SPEAR144); pass explicit lists — even
    empty ones — to enable them.  ``open_context=True`` declares that a
    harness binds arbitrary context before running (per-item batch
    inputs), suppressing missing-context findings.  ``runtime``
    describes the runner configuration the pipeline will execute under
    (keys like ``scheduler`` / ``deadline_s``), enabling the
    runtime-configuration checks (SPEAR145); None skips them.
    """
    env = AnalysisEnv(
        prompts=prompts or {},
        context=tuple(context),
        views=views,
        sources=sources,
        agents=agents,
        open_context=open_context,
        prompt_params=prompt_params or {},
        runtime=runtime,
    )
    graph = build_dataflow(pipeline, env, name=name)
    return _check_graph(graph, env)


def check_state(
    pipeline: Pipeline,
    state: ExecutionState,
    *,
    name: str | None = None,
    open_context: bool = False,
    runtime: Mapping[str, Any] | None = None,
) -> CheckResult:
    """Check a pipeline against a live execution state.

    Derives the environment from the state itself: present prompt entries
    (with their texts and bound params), bound context slots, the view
    registry *if one was attached* (never forces the lazy registry into
    existence), and the registered sources/agents.
    """
    prompts: dict[str, str] = {}
    prompt_params: dict[str, tuple[str, ...]] = {}
    for key in state.prompts.keys():
        entry = state.prompts[key]
        prompts[key] = entry.text
        prompt_params[key] = tuple(entry.params)
    return check_pipeline(
        pipeline,
        prompts=prompts,
        context=tuple(state.context.keys()),
        views=getattr(state, "_views", None),
        sources=state.sources(),
        agents=state.agents(),
        open_context=open_context,
        prompt_params=prompt_params,
        name=name,
        runtime=runtime,
    )


def _used_views(graphs: Iterable[DataflowGraph], program: "Program") -> set[str]:
    """View names instantiated anywhere, closed over their base chains."""
    used: set[str] = set()
    for graph in graphs:
        for node in graph:
            view = node.data.get("view")
            if view is not None:
                used.add(view)
            used.update(node.data.get("views", ()))
    bases = {view.name: view.base for view in program.views}
    frontier = list(used)
    while frontier:
        base = bases.get(frontier.pop())
        if base is not None and base not in used:
            used.add(base)
            frontier.append(base)
    return used


def check_program(
    program: "Program | str",
    *,
    views: Any = None,
    filename: str | None = None,
    suppressions: "Sequence[Suppression] | None" = None,
) -> CheckResult:
    """Check a SPEAR-DL program (source text or parsed AST).

    Never raises for defects in the program itself: lex/parse failures
    come back as SPEAR001, lowering failures as SPEAR002 — both carrying
    the source span — and a broken program short-circuits (there is
    nothing sound to analyze).  Sources and agents are unknowable from DL
    alone, so SPEAR143/SPEAR144 are skipped here.

    Inline ``# spear: ignore[SPEAR1xx]`` comments suppress matching
    findings on their target line; when checking source text they are
    collected from the parse's own scan, for a pre-parsed AST pass
    ``suppressions``.  Suppressions that silence nothing come back as
    SPEAR199.
    """
    from repro.dl.compiler import compile_program
    from repro.dl.parser import _parse_with_comments

    result = CheckResult()
    if isinstance(program, str):
        try:
            program, comments = _parse_with_comments(program)
        except DslSyntaxError as error:
            result.extend(
                [
                    make_diagnostic(
                        "SPEAR001",
                        str(error),
                        span=SourceSpan(
                            file=filename,
                            line=getattr(error, "line", 0),
                            column=getattr(error, "column", 0),
                        ),
                    )
                ]
            )
            return result
        if suppressions is None:
            suppressions = suppressions_from_comments(comments)
    try:
        compiled = compile_program(program, views=views, filename=filename)
    except DslCompileError as error:
        result.extend(
            [
                make_diagnostic(
                    "SPEAR002",
                    str(error),
                    span=SourceSpan(
                        file=filename,
                        line=getattr(error, "line", 0),
                        column=getattr(error, "column", 0),
                    ),
                )
            ]
        )
        return result

    graphs: list[DataflowGraph] = []
    for pipeline_name, pipeline in sorted(compiled.pipelines.items()):
        env = AnalysisEnv(views=compiled.views)
        graph = build_dataflow(pipeline, env, name=pipeline_name)
        graphs.append(graph)
        result.extend(_check_graph(graph, env))

    used = _used_views(graphs, program)
    for view_def in program.views:
        if view_def.name not in used:
            result.extend(
                [
                    make_diagnostic(
                        "SPEAR122",
                        f"view {view_def.name!r} is defined but never "
                        "instantiated or extended by a used view",
                        span=SourceSpan(
                            file=filename,
                            line=view_def.line,
                            column=view_def.column,
                        ),
                        view=view_def.name,
                    )
                ]
            )
    result.sort()
    if suppressions:
        result = apply_suppressions(result, suppressions, filename=filename)
    return result
