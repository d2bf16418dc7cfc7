"""SPEAR-DL compiler: lower AST programs to views and operator pipelines.

``compile_program`` registers every view definition into a
:class:`~repro.core.views.ViewRegistry` and lowers every pipeline to a
:class:`~repro.core.pipeline.Pipeline` of core operators.  Operator
argument conventions follow the paper's notation; validation errors raise
:class:`~repro.errors.DslCompileError` with the offending position.

Every lowered operator carries a ``span`` attribute (a
:class:`~repro.analysis.diagnostics.SourceSpan`) pointing back at the DL
source term it came from, so static-analysis diagnostics and runtime
errors can report ``file:line:col`` instead of just the op label.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.diagnostics import SourceSpan
from repro.core.algebra import Condition, Operator
from repro.core.derived import DIFF, EXPAND, RETRY, VIEW
from repro.core.entry import RefAction
from repro.core.operators import CHECK, DELEGATE, GEN, MERGE, REF, RET
from repro.core.pipeline import Pipeline
from repro.core.views import ViewRegistry
from repro.dl.ast_nodes import ConditionNode, OpCall, Program, Statement
from repro.dl.parser import parse
from repro.errors import DslCompileError

__all__ = ["CompiledProgram", "compile_program", "compile_source"]


def _condition_from_node(node: ConditionNode) -> Condition:
    if node.kind == "metadata_cmp":
        if node.op == "<":
            return Condition.metadata_below(node.key, float(node.value or 0.0))
        return Condition.metadata_above(node.key, float(node.value or 0.0))
    if node.kind == "context_missing":
        return Condition.missing_context(node.key)
    return Condition.context_contains(node.key)


class CompiledProgram:
    """Views + pipelines produced from one DL compilation unit."""

    def __init__(self, views: ViewRegistry, pipelines: dict[str, Pipeline]) -> None:
        self.views = views
        self.pipelines = pipelines

    def pipeline(self, name: str) -> Pipeline:
        """Look up a compiled pipeline."""
        try:
            return self.pipelines[name]
        except KeyError:
            raise DslCompileError(
                f"no pipeline named {name!r}; available: {sorted(self.pipelines)}"
            ) from None


class _Lowering:
    def __init__(self, views: ViewRegistry, *, filename: str | None = None) -> None:
        self.views = views
        self.filename = filename

    def _span(self, call: OpCall) -> SourceSpan:
        return SourceSpan(file=self.filename, line=call.line, column=call.column)

    def _error(self, call: OpCall, message: str) -> DslCompileError:
        return DslCompileError(
            message,
            line=call.line,
            column=call.column,
            file=self.filename,
        )

    def _fail(self, call: OpCall, message: str) -> DslCompileError:
        return self._error(call, f"{call.name}: {message}")

    def _require_string(self, call: OpCall, index: int, what: str) -> str:
        if len(call.args) <= index or not isinstance(call.args[index], str):
            raise self._fail(call, f"expects a string {what} at position {index}")
        return call.args[index]

    # -- per-operator lowering --------------------------------------------

    def _lowerer(self, call: OpCall) -> Callable[..., Operator]:
        lowerer = _LOWERERS.get(call.name)
        if lowerer is None:
            raise self._error(call, f"unknown operator {call.name!r}")
        return lowerer

    def lower_op(self, call: OpCall) -> Operator:
        operator = self._lowerer(call)(self, call)
        operator.span = self._span(call)
        return operator

    def _lower_ret(self, call: OpCall) -> Operator:
        source = self._require_string(call, 0, "source name")
        allowed = {"query", "prompt", "into"}
        unknown = set(call.kwargs) - allowed
        if unknown:
            raise self._fail(call, f"unknown arguments {sorted(unknown)}")
        return RET(source, **call.kwargs)

    def _lower_gen(self, call: OpCall) -> Operator:
        label = self._require_string(call, 0, "output label")
        prompt = call.kwargs.get("prompt")
        if not isinstance(prompt, str):
            raise self._fail(call, "requires prompt=<prompt key>")
        max_tokens = call.kwargs.get("max_tokens")
        return GEN(label, prompt=prompt, max_tokens=max_tokens)

    def _lower_ref(self, call: OpCall) -> Operator:
        if len(call.args) < 2:
            raise self._fail(call, "expects REF[ACTION, text, key=...]")
        action_name = call.args[0]
        if not isinstance(action_name, str):
            raise self._fail(call, "action must be a name like APPEND")
        try:
            action = RefAction(action_name.upper())
        except ValueError:
            raise self._fail(call, f"unknown action {action_name!r}") from None
        text = call.args[1]
        if not isinstance(text, str):
            raise self._fail(call, "refinement text must be a string")
        key = call.kwargs.get("key")
        if not isinstance(key, str):
            raise self._fail(call, "requires key=<prompt key>")
        mode = call.kwargs.get("mode")
        return REF(action, text, key=key, mode=mode.upper() if mode else None)

    def _lower_expand(self, call: OpCall) -> Operator:
        key = self._require_string(call, 0, "prompt key")
        addition = self._require_string(call, 1, "addition")
        return EXPAND(key, addition, mode=call.kwargs.get("mode"))

    def _lower_check(self, call: OpCall, then: Operator | None = None) -> Operator:
        if len(call.args) != 1 or not isinstance(call.args[0], ConditionNode):
            raise self._fail(call, "expects a single condition, e.g. M[\"confidence\"] < 0.7")
        return CHECK(_condition_from_node(call.args[0]), then=then)

    def _lower_merge(self, call: OpCall) -> Operator:
        key_1 = self._require_string(call, 0, "prompt key")
        key_2 = self._require_string(call, 1, "prompt key")
        return MERGE(
            key_1,
            key_2,
            into=call.kwargs.get("into"),
            strategy=call.kwargs.get("strategy", "concat"),
        )

    def _lower_delegate(self, call: OpCall) -> Operator:
        agent = self._require_string(call, 0, "agent name")
        payload = call.kwargs.get("payload") or (
            call.args[1] if len(call.args) > 1 else None
        )
        if not isinstance(payload, str):
            raise self._fail(call, "requires payload=<context key>")
        into = call.kwargs.get("into")
        if not isinstance(into, str):
            raise self._fail(call, "requires into=<context key>")
        return DELEGATE(agent, payload, into=into)

    def _lower_view(self, call: OpCall) -> Operator:
        name = self._require_string(call, 0, "view name")
        if name not in self.views:
            raise self._fail(call, f"references unknown view {name!r}")
        params = call.kwargs.get("params", {})
        if not isinstance(params, dict):
            raise self._fail(call, "params must be a {key: value} dict")
        return VIEW(name, key=call.kwargs.get("key"), params=params)

    def _lower_select_view(self, call: OpCall) -> Operator:
        from repro.optimizer.select_view_op import SelectView

        candidates = call.kwargs.get("candidates")
        terms = call.kwargs.get("terms")
        key = call.kwargs.get("key")
        if not isinstance(candidates, list) or not all(
            isinstance(name, str) for name in candidates
        ):
            raise self._fail(call, "requires candidates=[\"view\", ...]")
        if not isinstance(terms, list) or not all(
            isinstance(term, str) for term in terms
        ):
            raise self._fail(call, "requires terms=[\"term\", ...]")
        if not isinstance(key, str):
            raise self._fail(call, "requires key=<prompt key>")
        for name in candidates:
            if name not in self.views:
                raise self._fail(call, f"references unknown view {name!r}")
        params = call.kwargs.get("params", {})
        if not isinstance(params, dict):
            raise self._fail(call, "params must be a {key: value} dict")
        return SelectView(candidates, terms, key=key, params=params)

    def _lower_fused_gen(self, call: OpCall) -> Operator:
        from repro.optimizer.gen_fusion import FusedGen

        labels = call.kwargs.get("labels")
        prompts = call.kwargs.get("prompts")
        if (
            not isinstance(labels, list)
            or not isinstance(prompts, list)
            or len(labels) != len(prompts)
            or len(labels) < 2
        ):
            raise self._fail(
                call,
                "requires labels=[...] and prompts=[...] of equal length >= 2",
            )
        return FusedGen(list(zip(labels, prompts)))

    def _lower_retry(self, call: OpCall) -> Operator:
        if len(call.args) != 2:
            raise self._fail(
                call, "expects RETRY[<operator>, <condition>, ...options]"
            )
        inner, condition = call.args
        if not isinstance(inner, OpCall):
            raise self._fail(call, "first argument must be an operator term")
        if not isinstance(condition, ConditionNode):
            raise self._fail(call, "second argument must be a condition")
        refine_call = call.kwargs.get("refine")
        refine = (
            self.lower_op(refine_call)
            if isinstance(refine_call, OpCall)
            else None
        )
        max_retries = call.kwargs.get("max_retries", 2)
        if not isinstance(max_retries, int):
            raise self._fail(call, "max_retries must be an integer")
        # The DSL's retry budget lowers onto a first-class RetryPolicy so
        # DSL retries and runtime-injected fault retries share semantics
        # (error-retry with deterministic backoff included).
        from repro.resilience.policies import RetryPolicy

        return RETRY(
            self.lower_op(inner),
            _condition_from_node(condition),
            refine=refine,
            policy=RetryPolicy(max_attempts=max_retries + 1),
        )

    def _lower_diff(self, call: OpCall) -> Operator:
        key_1 = self._require_string(call, 0, "prompt key")
        key_2 = self._require_string(call, 1, "prompt key")
        return DIFF(key_1, key_2, into=call.kwargs.get("into", "diff"))

    # -- statements -------------------------------------------------------------

    def lower_statement(self, statement: Statement) -> Operator:
        if statement.then is None:
            return self.lower_op(statement.op)
        if self._lowerer(statement.op) is not _Lowering._lower_check:
            raise self._error(statement.op, "'->' is only valid after CHECK")
        operator = self._lower_check(statement.op, then=self.lower_op(statement.then))
        operator.span = self._span(statement.op)
        return operator


#: Operator name -> lowering method, exact names only (``GEN``, not ``gen``).
_LOWERERS: dict[str, Callable[..., Operator]] = {
    name.removeprefix("_lower_").upper(): method
    for name, method in vars(_Lowering).items()
    if name.startswith("_lower_")
}


def compile_program(
    program: Program,
    *,
    views: ViewRegistry | None = None,
    filename: str | None = None,
) -> CompiledProgram:
    """Lower a parsed program into views + pipelines.

    ``filename`` (when known) is stamped into every operator span and
    compile error so reports read ``file:line:col``.

    Without ``views`` the lowering depends on nothing but the program
    and ``filename``, so it is done once per pair and kept with the
    program: each call still returns a fresh registry and fresh
    pipelines, over the same operators.
    """
    registry = views if views is not None else ViewRegistry()
    for view in program.views:
        registry.define(
            view.name,
            view.template,
            params=view.params,
            base=view.base,
            tags=set(view.tags),
        )
    lowered = program._lowerings.get(filename) if views is None else None
    if lowered is None:
        lowering = _Lowering(registry, filename=filename)
        lowered = tuple(
            (
                pipeline_def.name,
                tuple(map(lowering.lower_statement, pipeline_def.statements)),
            )
            for pipeline_def in program.pipelines
        )
        if views is None:
            program._lowerings[filename] = lowered
    pipelines = {name: Pipeline(operators, name=name) for name, operators in lowered}
    return CompiledProgram(registry, pipelines)


def compile_source(
    source: str,
    *,
    views: ViewRegistry | None = None,
    filename: str | None = None,
) -> CompiledProgram:
    """Parse and compile SPEAR-DL source in one step."""
    return compile_program(parse(source), views=views, filename=filename)
