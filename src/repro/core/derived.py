"""Derived operators: reusable patterns over the core algebra (paper Table 2).

Each derived operator is implemented purely in terms of the core six —
they encapsulate common prompt patterns, not new semantics:

- ``EXPAND[key, addition]``  — append content to a prompt (REF).
- ``RETRY[op, cond]``        — refine + re-run while a condition holds
  (GEN + CHECK + REF).
- ``MAP[keys, f]``           — apply a transformation to many prompts (REF).
- ``SWITCH[cond -> action]`` — conditional dispatch (CHECK).
- ``VIEW[name](args)``       — instantiate a named view into P (REF).
- ``DIFF[P_1, P_2]``         — structural/semantic difference of prompts (REF-adjacent introspection).
"""

from __future__ import annotations

import difflib
import hashlib
from typing import Any, Callable, Mapping

from repro.core.algebra import Condition, Operator, Steps, as_condition
from repro.core.entry import RefAction, RefinementMode
from repro.core.operators import REF
from repro.core.state import ExecutionState
from repro.errors import OperatorError, SpearError
from repro.resilience.faults import unit_draw
from repro.runtime.events import EventKind

__all__ = ["EXPAND", "RETRY", "MAP", "SWITCH", "VIEW", "DIFF", "prompt_diff"]


def EXPAND(key: str, addition: str, *, mode: RefinementMode | str | None = None) -> REF:  # noqa: N802
    """Append new content to an existing prompt.

    E.g. ``EXPAND["qa_prompt", "Include PE risk factors."]`` — sugar for
    ``REF[APPEND, literal]``.
    """
    return REF(
        RefAction.APPEND,
        addition,
        key=key,
        mode=RefinementMode(mode) if mode is not None else None,
        function_name="f_expand",
    )


class RETRY(Operator):  # noqa: N801 - paper operator name
    """Retry an operator after refinement while a condition is met.

    ``RETRY[GEN["answer"], M["conf"] < 0.7]``: run ``op`` once; while the
    condition holds and retries remain, apply ``refine`` (if any) and run
    ``op`` again.  The retry count lands in ``M["retries"]``.

    A :class:`~repro.resilience.policies.RetryPolicy` can be passed as
    ``policy=`` instead of a bare ``max_retries``: the retry budget then
    comes from ``policy.max_attempts``, and *errors* raised by ``op`` that
    the policy marks retryable (transient model faults, rate limits,
    timeouts) are caught and retried too, with the policy's exponential
    backoff charged to the virtual clock.  Exhausting the budget re-raises
    the last error.
    """

    def __init__(
        self,
        op: Operator,
        condition: Condition | Callable[[ExecutionState], bool],
        *,
        refine: Operator | None = None,
        max_retries: int | None = None,
        policy: Any = None,
    ) -> None:
        if max_retries is not None and policy is not None:
            raise OperatorError("pass either max_retries or policy, not both")
        if policy is not None:
            max_retries = policy.max_attempts - 1
        elif max_retries is None:
            max_retries = 2
        if max_retries < 0:
            raise OperatorError(f"max_retries must be >= 0: {max_retries}")
        self.op = op
        self.condition = as_condition(condition)
        self.refine = refine
        self.max_retries = max_retries
        self.policy = policy
        self.label = f"RETRY[{op.label}, {self.condition.text}]"

    def _apply_once(self, state: ExecutionState, attempt: int) -> Steps:
        """Apply ``op``; under a policy, absorb one retryable error.

        Returns the new state, or raises when the error is terminal (not
        retryable, or the budget after ``attempt`` is spent).
        """
        try:
            return (yield from self.op.steps(state))
        except SpearError as error:
            if self.policy is None or not (
                self.policy.retryable(error) and attempt < self.max_retries
            ):
                raise
            digest = hashlib.sha256(
                self.label.encode("utf-8")
            ).hexdigest()[:24]
            delay = self.policy.delay_for(
                attempt,
                draw=unit_draw("retry-op", self.label, digest, attempt),
                retry_after=getattr(error, "retry_after", None),
            )
            state.events.emit(
                EventKind.RETRY,
                self.label,
                at=state.clock.now,
                attempt=attempt + 1,
                delay=delay,
                error=type(error).__name__,
            )
            state.clock.advance(delay)
            return None  # signal: retry the attempt

    def _steps(self, state: ExecutionState) -> Steps:
        attempts = 0
        result = yield from self._apply_once(state, attempts)
        while result is None:  # error-retry path (policy only)
            attempts += 1
            state.metadata.increment("retries")
            result = yield from self._apply_once(state, attempts)
        state = result
        while attempts < self.max_retries and self.condition(state):
            attempts += 1
            state.metadata.increment("retries")
            if self.refine is not None:
                state = yield from self.refine.steps(state)
            result = yield from self._apply_once(state, attempts)
            while result is None:
                attempts += 1
                state.metadata.increment("retries")
                result = yield from self._apply_once(state, attempts)
            state = result
        return state


class MAP(Operator):  # noqa: N801 - paper operator name
    """Apply transformation ``f`` to a list of prompt fragments.

    E.g. ``MAP[["intro_note", "followup_note"], f_normalize]`` — one REF
    per key, all recorded in each entry's ref_log.
    """

    def __init__(
        self,
        keys: list[str],
        f: Callable[[ExecutionState, str], str],
        *,
        action: RefAction | str = RefAction.UPDATE,
        mode: RefinementMode | str | None = None,
    ) -> None:
        self.keys = list(keys)
        self.f = f
        self.action = RefAction(action)
        self.mode = RefinementMode(mode) if mode is not None else None
        self.function_name = getattr(f, "__name__", "f_map")
        self.label = f"MAP[{self.keys}, {self.function_name}]"

    def _steps(self, state: ExecutionState) -> Steps:
        for key in self.keys:
            ref = REF(
                self.action,
                self.f,
                key=key,
                mode=self.mode,
                function_name=self.function_name,
            )
            state = yield from ref.steps(state)
        return state


class SWITCH(Operator):  # noqa: N801 - paper operator name
    """Conditionally dispatch to prompt refiners or views.

    ``SWITCH[[(cond, op), ...], default=op]`` applies the first operator
    whose condition holds (CHECK composition).
    """

    def __init__(
        self,
        cases: list[tuple[Condition | Callable[[ExecutionState], bool], Operator]],
        *,
        default: Operator | None = None,
    ) -> None:
        self.cases = [(as_condition(cond), op) for cond, op in cases]
        self.default = default
        labels = ", ".join(cond.text for cond, __ in self.cases)
        self.label = f"SWITCH[{labels}]"

    def _steps(self, state: ExecutionState) -> Steps:
        for cond, op in self.cases:
            if cond(state):
                state.events.emit(
                    EventKind.CHECK,
                    self.label,
                    at=state.clock.now,
                    condition=cond.text,
                    outcome=True,
                )
                return (yield from op.steps(state))
        if self.default is not None:
            return (yield from self.default.steps(state))
        return state


class VIEW(Operator):  # noqa: N801 - paper operator name
    """Instantiate a named view into P (paper Table 2's ``VIEW[name](args)``).

    ``VIEW("discharge_summary", key="qa_prompt", params={...})`` expands
    the view (through the structured prompt cache) and creates/replaces
    ``P[key]`` with the result, recording the view provenance.
    """

    def __init__(
        self,
        name: str,
        *,
        key: str | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> None:
        self.view_name = name
        self.key = key or name
        self.params = dict(params or {})
        self.label = f'VIEW["{name}"]'

    def _run(self, state: ExecutionState) -> ExecutionState:
        entry = state.views.instantiate(self.view_name, self.params)
        if self.key in state.prompts:
            state.prompts[self.key].record(
                RefAction.REPLACE,
                entry.text,
                function=f"f_view_{self.view_name}",
            )
            state.prompts[self.key].view = self.view_name
        else:
            state.prompts[self.key] = entry
        state.events.emit(
            EventKind.VIEW_EXPAND,
            self.label,
            at=state.clock.now,
            view=self.view_name,
            key=self.key,
            params=dict(self.params),
        )
        return state


def prompt_diff(text_1: str, text_2: str) -> dict[str, Any]:
    """Structural difference between two prompt texts.

    Returns the unified diff plus summary statistics (added/removed lines,
    similarity ratio, shared-prefix length in characters — the quantity
    prefix caching cares about).
    """
    lines_1 = text_1.splitlines()
    lines_2 = text_2.splitlines()
    diff_lines = list(
        difflib.unified_diff(lines_1, lines_2, lineterm="", n=1)
    )
    added = sum(
        1 for line in diff_lines if line.startswith("+") and not line.startswith("+++")
    )
    removed = sum(
        1 for line in diff_lines if line.startswith("-") and not line.startswith("---")
    )
    matcher = difflib.SequenceMatcher(a=text_1, b=text_2)
    shared_prefix = 0
    for char_1, char_2 in zip(text_1, text_2):
        if char_1 != char_2:
            break
        shared_prefix += 1
    return {
        "diff": diff_lines,
        "added_lines": added,
        "removed_lines": removed,
        "similarity": round(matcher.ratio(), 4),
        "shared_prefix_chars": shared_prefix,
    }


class DIFF(Operator):  # noqa: N801 - paper operator name
    """Compute the structural difference between two prompt versions.

    ``DIFF["summary_1", "summary_2"]`` writes the diff record into
    ``C[into]`` (default ``"diff"``).  Either key may address a historical
    version with ``key@version`` syntax (e.g. ``"qa_prompt@0"``).
    """

    def __init__(self, key_1: str, key_2: str, *, into: str = "diff") -> None:
        self.key_1 = key_1
        self.key_2 = key_2
        self.into = into
        self.label = f"DIFF[{key_1}, {key_2}]"

    @staticmethod
    def _resolve(state: ExecutionState, spec: str) -> str:
        if "@" in spec:
            key, __, version_text = spec.partition("@")
            return state.prompts[key].text_at(int(version_text))
        return state.prompts[spec].text

    def _run(self, state: ExecutionState) -> ExecutionState:
        record = prompt_diff(
            self._resolve(state, self.key_1),
            self._resolve(state, self.key_2),
        )
        state.context.put(self.into, record, producer=self.label)
        return state
