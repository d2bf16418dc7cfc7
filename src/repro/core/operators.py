"""The six core operators of the SPEAR prompt algebra (paper §3.3).

- ``RET[source]``            — retrieve data into C.
- ``GEN[label]``             — invoke the LLM, store result in C[label].
- ``REF[action, f]``         — construct or refine an entry in P.
- ``CHECK[cond, f]``         — conditionally apply a transformation.
- ``MERGE[P_1, P_2]``        — reconcile prompt fragments from branches.
- ``DELEGATE[agent, payload]`` — offload a subtask to an external agent.

Each consumes and produces the ``(P, C, M)`` triple (threaded as an
:class:`~repro.core.state.ExecutionState`), so arbitrary compositions stay
inside the algebra.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Iterable

from repro.core.algebra import Condition, GenCall, Operator, Steps, as_condition
from repro.core.entry import PromptEntry, RefAction, RefinementMode
from repro.core.footprint import ABSENT, Footprint, stable_digest
from repro.core.state import ExecutionState
from repro.errors import OperatorError, RefinementError
from repro.runtime.events import EventKind


def _template_roots(
    names: Iterable[str], shadowed: Collection[str] = ()
) -> tuple[str, ...]:
    """The context roots a template's placeholder ``names`` read.

    Dotted placeholders resolve from their root key; roots bound by the
    operator's literal ``extra`` values (``shadowed``) are part of the
    operator identity instead.  Ordered by first use, de-duplicated.
    GEN/RET footprints and the static dataflow walker share this one
    extraction.
    """
    roots: dict[str, None] = {}
    for name in names:
        root = name.partition(".")[0]
        if root not in shadowed:
            roots[root] = None
    return tuple(roots)


def _context_reads_for_template(
    state: ExecutionState,
    names: Iterable[str],
    *,
    shadowed: Collection[str] = (),
) -> tuple[tuple[str, str], ...]:
    """Fingerprint the context slots a template's placeholder ``names`` read.

    A missing slot fingerprints as :data:`ABSENT` — absence is an input
    too, because an unbound placeholder renders literally.
    """
    context = state.context
    return tuple(
        (root, context.digest(root) if root in context else ABSENT)
        for root in _template_roots(names, shadowed)
    )


#: the digest of the empty ``params`` dict nearly every prompt carries.
_NO_PARAMS = stable_digest({})


__all__ = ["RET", "GEN", "REF", "CHECK", "MERGE", "DELEGATE"]

#: A refinement function: (state, current_text) → new_text.  Plain strings
#: are accepted where the edit is a literal (APPEND/PREPEND/CREATE/REPLACE).
RefineFn = Callable[[ExecutionState, str], str]


class RET(Operator):
    """Retrieve raw input or supporting data into C.

    Supports the paper's two retrieval forms:

    - *structured retrieval*: ``RET["order_lookup", query={...}]`` — the
      registered source receives the structured query;
    - *prompt-based retrieval*: ``RET["med_context", prompt="retrieve_meds"]``
      — the named prompt in P is rendered against C and passed as the
      query, so REF can refine retrieval intent at runtime just like
      generation prompts (§3.3).
    """

    def __init__(
        self,
        source: str,
        *,
        query: Any = None,
        prompt: str | None = None,
        into: str | None = None,
    ) -> None:
        if query is not None and prompt is not None:
            raise OperatorError("RET takes either query= or prompt=, not both")
        self.source = source
        self.query = query
        self.prompt_key = prompt
        self.into = into or source
        self.label = f'RET["{source}"]'

    def footprint(self, state: ExecutionState) -> Footprint | None:
        """Cacheable only for sources registered with ``pure=True``."""
        if not state.is_pure_source(self.source):
            return None
        identity = stable_digest(
            {
                "op": "RET",
                "source": self.source,
                "query": self.query,
                "prompt": self.prompt_key,
                "into": self.into,
            }
        )
        prompt_deps: tuple[tuple[str, int, str, str], ...] = ()
        context_reads: tuple[tuple[str, str], ...] = ()
        if self.prompt_key is not None:
            if self.prompt_key not in state.prompts:
                return None
            entry = state.prompts[self.prompt_key]
            prompt_deps = (
                (
                    self.prompt_key,
                    entry.version,
                    entry.text_digest,
                    stable_digest(entry.params) if entry.params else _NO_PARAMS,
                ),
            )
            context_reads = _context_reads_for_template(state, entry.template.names)
        return Footprint(
            operator=self.label,
            identity=identity,
            model_key=None,
            prompt_deps=prompt_deps,
            context_reads=context_reads,
            context_writes=(self.into,),
        )

    def _run(self, state: ExecutionState) -> ExecutionState:
        source_fn = state.source(self.source)
        query = self.query
        if self.prompt_key is not None:
            query = state.render_prompt(self.prompt_key)
        result = source_fn(state, query)
        state.context.put(self.into, result, producer=self.label)
        state.events.emit(
            EventKind.RETRIEVE,
            self.label,
            at=state.clock.now,
            source=self.source,
            into=self.into,
            prompt_based=self.prompt_key is not None,
        )
        return state


class GEN(Operator):
    """Invoke the LLM on a named prompt; store the output in C[label].

    The prompt entry P[prompt] is rendered against the current context C
    (template placeholders interpolate context values), generation runs on
    ``state.model``, and the structured result lands in:

    - ``C[label]`` — the output text;
    - ``C[label + "__result"]`` — the full GenerationResult;
    - ``M`` — confidence, latency, token and cache signals.

    The outcome confidence is also attached to the prompt's most recent
    ref_log record, which is what cost-based refinement planning mines.
    """

    #: the last footprint, which an application whose inputs all equal its
    #: inputs reuses, digest included, and the digest of the constructor
    #: arguments (which nothing reassigns), made on the first footprint.
    #: Slots, outside the instance dict: a run-time memo is no part of the
    #: operator's structural description.
    __slots__ = ("_footprint", "_identity")

    def __init__(
        self,
        label_key: str,
        *,
        prompt: str,
        extra: dict[str, Any] | None = None,
        max_tokens: int | None = None,
    ) -> None:
        self.label_key = label_key
        self.prompt_key = prompt
        self.extra = dict(extra or {})
        self.max_tokens = max_tokens
        self.label = f'GEN["{label_key}"]'
        self._footprint: Footprint | None = None
        self._identity: str | None = None

    def footprint(self, state: ExecutionState) -> Footprint | None:
        """GEN's inputs: its params, the prompt at its version, the context
        slots the template interpolates, and the model backend.

        Opts out (returns None) when the model keeps a warm prefix cache:
        then latency/cached-token signals depend on kv-cache state that is
        not part of the declared inputs, and replay could diverge from a
        live re-execution.  Disable ``enable_prefix_cache`` to combine the
        tiers deterministically in simulation.  Also opts out for a model
        without a ``result_cache_key``, which names the backend by content.
        """
        model = state.model
        if model is None or self.prompt_key not in state.prompts:
            return None
        if getattr(model, "enable_prefix_cache", False):
            return None
        if getattr(model, "fault_plan", None) is not None:
            # Fault decisions are attempt-indexed: re-running the same call
            # can fail differently, so GEN under injection is not pure.
            return None
        # A backend that cannot name itself by content is not cached: an
        # ``id()`` is reused once its object is freed.
        model_key = getattr(model, "result_cache_key", None)
        if model_key is None:
            return None
        entry = state.prompts[self.prompt_key]
        params = stable_digest(entry.params) if entry.params else _NO_PARAMS
        prompt_deps = (
            (self.prompt_key, entry.version, entry.text_digest, params),
        )
        context_reads = _context_reads_for_template(
            state, entry.template.names, shadowed=self.extra
        )
        last = self._footprint
        if (
            last is not None
            and last.model_key == model_key
            and last.prompt_deps == prompt_deps
            and last.context_reads == context_reads
        ):
            return last
        identity = self._identity
        if identity is None:
            identity = self._identity = stable_digest({
                "op": "GEN", "label": self.label_key, "prompt": self.prompt_key,
                "extra": self.extra, "max_tokens": self.max_tokens,
            })
        footprint = self._footprint = Footprint(
            operator=self.label,
            identity=identity,
            model_key=model_key,
            prompt_deps=prompt_deps,
            context_reads=context_reads,
            context_writes=(self.label_key, f"{self.label_key}__result"),
        )
        return footprint

    def _steps(self, state: ExecutionState) -> Steps:
        if state.model is None:
            raise OperatorError("GEN requires a model on the execution state")
        rendered = state.render_prompt(self.prompt_key, extra=self.extra)
        if state.resilience is not None:
            result = yield from state.resilience.steps(
                state, rendered, max_tokens=self.max_tokens
            )
        else:
            result = yield GenCall(state.model, rendered, self.max_tokens)

        state.context.put(self.label_key, result.text, producer=self.label)
        state.context.put(
            f"{self.label_key}__result", result, producer=self.label
        )
        state.metadata.update(
            {
                "confidence": result.confidence,
                "latency": result.latency.total,
                "prompt_tokens": result.prompt_tokens,
                "cached_tokens": result.cached_tokens,
                "output_tokens": result.output_tokens,
                "cache_hit_rate": result.cache_hit_rate,
                "last_gen": self.label_key,
                "last_prompt_key": self.prompt_key,
            }
        )
        state.metadata.increment("gen_calls")

        # Attach the outcome to the prompt's latest refinement record so
        # the planner can learn which refiners help (paper §5).
        entry = state.prompts[self.prompt_key]
        entry.ref_log[-1].signals.setdefault(
            "outcome_confidence", result.confidence
        )

        state.events.emit(
            EventKind.GENERATE,
            self.label,
            at=state.clock.now,
            prompt_key=self.prompt_key,
            prompt_version=entry.version,
            task=result.task,
            confidence=result.confidence,
            latency=result.latency.total,
            prompt_tokens=result.prompt_tokens,
            cached_tokens=result.cached_tokens,
            output_tokens=result.output_tokens,
        )
        return state


class REF(Operator):
    """Construct or refine an entry in P via a transformation function f.

    ``action`` selects the edit semantics; ``f`` is either a literal string
    or a callable ``(state, current_text) → new_text``.  The refinement is
    recorded in the entry's ref_log together with its mode, triggering
    condition, and the runtime signals current at refinement time.
    """

    def __init__(
        self,
        action: RefAction | str,
        f: RefineFn | str,
        *,
        key: str,
        mode: RefinementMode | str | None = None,
        condition: str | None = None,
        function_name: str | None = None,
    ) -> None:
        self.action = RefAction(action)
        self.f = f
        self.key = key
        self.mode = RefinementMode(mode) if mode is not None else None
        self.condition = condition
        if function_name is not None:
            self.function_name = function_name
        elif isinstance(f, str):
            self.function_name = "f_literal"
        else:
            self.function_name = getattr(f, "__name__", "f_anonymous")
        self.label = f"REF[{self.action.value}, {self.function_name}]"

    def _literal(self, state: ExecutionState, current: str) -> str:
        if isinstance(self.f, str):
            return self.f
        try:
            return self.f(state, current)
        except Exception as error:  # noqa: BLE001 - refiners are user code
            raise RefinementError(
                f"refinement function {self.function_name!r} failed: {error}"
            ) from error

    def _run(self, state: ExecutionState) -> ExecutionState:
        exists = self.key in state.prompts
        current = state.prompts[self.key].text if exists else ""
        produced = self._literal(state, current)

        if self.action is RefAction.CREATE:
            new_text = produced
        elif self.action is RefAction.APPEND:
            new_text = f"{current}\n{produced}" if current else produced
        elif self.action is RefAction.PREPEND:
            new_text = f"{produced}\n{current}" if current else produced
        elif self.action in (RefAction.UPDATE, RefAction.REPLACE):
            new_text = produced
        else:
            raise RefinementError(
                f"REF does not support action {self.action.value}; "
                "use MERGE / rollback helpers instead"
            )

        signals = {
            "confidence": float(state.metadata.get("confidence", 0.0)),
            "latency": float(state.metadata.get("latency", 0.0)),
        }
        if not exists:
            state.prompts.create(
                self.key,
                new_text,
                function=self.function_name,
                mode=self.mode,
            )
        else:
            state.prompts[self.key].record(
                self.action,
                new_text,
                function=self.function_name,
                mode=self.mode,
                condition=self.condition,
                signals=signals,
            )
        state.metadata.increment("refinements")
        state.events.emit(
            EventKind.REFINE,
            self.label,
            at=state.clock.now,
            key=self.key,
            action=self.action.value,
            mode=self.mode.value if self.mode else None,
            condition=self.condition,
            version=state.prompts[self.key].version,
        )
        return state


class CHECK(Operator):
    """Conditionally apply an operator when cond(C, M) holds.

    ``CHECK[cond, f]`` from the paper: ``then`` is typically a REF (refine
    on low confidence) or RET (fetch missing context); an optional
    ``orelse`` runs when the condition is false.  The textual form of the
    condition is propagated into any REF it triggers, so ref_logs record
    *why* a refinement happened.
    """

    def __init__(
        self,
        cond: Condition | Callable[[ExecutionState], bool],
        then: Operator | None = None,
        orelse: Operator | None = None,
    ) -> None:
        self.cond = as_condition(cond)
        self.then = then
        self.orelse = orelse
        self.label = f"CHECK[{self.cond.text}]"
        # Propagate the condition text into triggered REFs for provenance.
        if isinstance(then, REF) and then.condition is None:
            then.condition = self.cond.text

    def _steps(self, state: ExecutionState) -> Steps:
        outcome = self.cond(state)
        state.events.emit(
            EventKind.CHECK,
            self.label,
            at=state.clock.now,
            condition=self.cond.text,
            outcome=outcome,
        )
        state.metadata.increment("checks")
        if outcome and self.then is not None:
            return (yield from self.then.steps(state))
        if not outcome and self.orelse is not None:
            return (yield from self.orelse.steps(state))
        return state


class MERGE(Operator):
    """Reconcile prompt fragments from divergent branches (paper §3.3).

    Strategies:

    - ``"concat"`` — combine both texts (deduplicating shared lines);
    - ``"prefer_first"`` / ``"prefer_second"`` — pick one side;
    - ``"best_confidence"`` — pick the side whose latest ref_log outcome
      confidence is higher (runtime-metadata-driven selection);
    - any callable ``(state, text_1, text_2) → text``.
    """

    _STRATEGIES = ("concat", "prefer_first", "prefer_second", "best_confidence")

    def __init__(
        self,
        key_1: str,
        key_2: str,
        *,
        into: str | None = None,
        strategy: str | Callable[[ExecutionState, str, str], str] = "concat",
    ) -> None:
        if isinstance(strategy, str) and strategy not in self._STRATEGIES:
            raise OperatorError(
                f"unknown MERGE strategy {strategy!r}; "
                f"expected one of {self._STRATEGIES} or a callable"
            )
        self.key_1 = key_1
        self.key_2 = key_2
        self.into = into or key_1
        self.strategy = strategy
        self.label = f"MERGE[{key_1}, {key_2}]"

    @staticmethod
    def _outcome_confidence(entry: PromptEntry) -> float:
        for record in reversed(entry.ref_log):
            value = record.signals.get("outcome_confidence")
            if value is not None:
                return float(value)
        return 0.0

    def _merge_texts(self, state: ExecutionState, text_1: str, text_2: str) -> str:
        if callable(self.strategy):
            return self.strategy(state, text_1, text_2)
        if self.strategy == "prefer_first":
            return text_1
        if self.strategy == "prefer_second":
            return text_2
        if self.strategy == "best_confidence":
            conf_1 = self._outcome_confidence(state.prompts[self.key_1])
            conf_2 = self._outcome_confidence(state.prompts[self.key_2])
            return text_1 if conf_1 >= conf_2 else text_2
        # concat: second text's novel lines appended to the first.
        lines_1 = text_1.splitlines()
        seen = set(lines_1)
        novel = [line for line in text_2.splitlines() if line not in seen]
        return "\n".join(lines_1 + novel)

    def _run(self, state: ExecutionState) -> ExecutionState:
        text_1 = state.prompts[self.key_1].text
        text_2 = state.prompts[self.key_2].text
        merged = self._merge_texts(state, text_1, text_2)
        strategy_name = (
            self.strategy if isinstance(self.strategy, str)
            else getattr(self.strategy, "__name__", "custom")
        )
        if self.into in state.prompts:
            state.prompts[self.into].record(
                RefAction.MERGE,
                merged,
                function=f"f_merge_{strategy_name}",
            )
        else:
            state.prompts.create(
                self.into, merged, function=f"f_merge_{strategy_name}"
            )
        state.events.emit(
            EventKind.MERGE,
            self.label,
            at=state.clock.now,
            into=self.into,
            strategy=strategy_name,
        )
        return state


class DELEGATE(Operator):
    """Offload a subtask to a registered external agent (paper §3.3).

    The payload is a context key (its value is handed to the agent) or a
    callable over the state.  The agent's result is written to
    ``C[into]``; agents may also write additional keys themselves.
    """

    def __init__(
        self,
        agent: str,
        payload: str | Callable[[ExecutionState], Any],
        *,
        into: str,
    ) -> None:
        self.agent_name = agent
        self.payload = payload
        self.into = into
        self.label = f'DELEGATE["{agent}"]'

    def _run(self, state: ExecutionState) -> ExecutionState:
        agent = state.agent(self.agent_name)
        if callable(self.payload):
            payload = self.payload(state)
        else:
            payload = state.context[self.payload]
        result = agent.handle(state, payload)
        state.context.put(self.into, result, producer=self.label)
        state.metadata.increment("delegations")
        state.events.emit(
            EventKind.DELEGATE,
            self.label,
            at=state.clock.now,
            agent=self.agent_name,
            into=self.into,
        )
        return state
