"""Operator base class: the prompt algebra's composition machinery.

Paper §3.3: "this algebra is *closed under composition* in that each of
its operators consumes and produces the triple (P, C, M)".  Concretely,
every :class:`Operator` implements ``apply(state) → state``; ``a >> b``
builds a :class:`~repro.core.pipeline.Pipeline`, which is itself an
operator — closure under composition.

``steps`` wraps the subclass body with structured event emission
(operator_start / operator_end / error), so every pipeline execution is
fully traceable through the event log (paper §6).  It is a generator
that yields each model call as a :class:`GenCall`; ``apply`` drives it
to completion on the spot (the operator contract is in DESIGN.md §6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, NamedTuple

from repro.core.state import ExecutionState
from repro.errors import SpearError
from repro.runtime.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.footprint import Footprint
    from repro.core.pipeline import Pipeline

__all__ = ["Operator", "Condition", "FunctionOperator", "GenCall", "drive"]

#: a step generator: yields model calls, is sent their results, returns a state.
Steps = Generator["GenCall", Any, Any]


class GenCall(NamedTuple):
    """One model call: ``result = yield GenCall(...)`` in a step generator.

    A driver sends the result back or throws the call's error in at the
    yield, so a loop around the yield catches it like a direct call's.
    """

    model: Any
    prompt: str
    max_tokens: int | None = None
    use_cache: bool | None = None

    def answer(self) -> Any:
        """Make the call directly on this thread."""
        extra = {} if self.use_cache is None else {"use_cache": self.use_cache}
        return self.model.generate(self.prompt, max_tokens=self.max_tokens, **extra)


def drive(steps: Steps) -> Any:
    """Run a step generator to completion, answering every call directly."""
    try:
        call = next(steps)
        while True:
            try:
                result = call.answer()
            except Exception as error:  # noqa: BLE001 - raised at the yield
                call = steps.throw(error)
            else:
                call = steps.send(result)
    except StopIteration as stop:
        return stop.value


class Operator:
    """Base class for all prompt-algebra operators."""

    #: subclasses set a printable label, e.g. ``GEN["answer_0"]``.
    label: str = "OP"

    def _run(self, state: ExecutionState) -> ExecutionState:
        raise NotImplementedError

    def _steps(self, state: ExecutionState) -> Steps:
        """The resumable body; by default the plain :meth:`_run`."""
        return self._run(state)
        yield  # unreachable: makes this a generator

    def footprint(self, state: ExecutionState) -> "Footprint | None":
        """The declared input set of this application, or None.

        Returning a :class:`~repro.core.footprint.Footprint` opts this
        application into the operator-level result cache; ``None`` (the
        default) marks it uncacheable.  Only operators whose effect on
        ``(C, M)`` is a pure function of the declared inputs may opt in.
        """
        return None

    def apply(self, state: ExecutionState) -> ExecutionState:
        """Apply this operator to ``state``, answering every model call here."""
        return drive(self.steps(state))

    def steps(self, state: ExecutionState) -> Steps:
        """This application as a step generator, with event tracing.

        When the state carries a result cache and this application
        declares a footprint, a cache hit replays the memoized ``(C, M)``
        delta, charges :attr:`~repro.runtime.result_cache.ResultCache.hit_cost`
        to the virtual clock, and emits a synthetic ``CACHE_HIT`` event in
        place of the operator's own event stream; a miss executes live
        under a mutation recorder and inserts the delta afterwards.
        """
        cache = getattr(state, "result_cache", None)
        footprint = self.footprint(state) if cache is not None else None
        state.events.emit(
            EventKind.OPERATOR_START, self.label, at=state.clock.now
        )
        if footprint is not None:
            cached = cache.lookup(footprint)
            if cached is not None:
                cached.replay(state)
                state.clock.advance(cache.hit_cost)
                state.events.emit(
                    EventKind.CACHE_HIT,
                    self.label,
                    at=state.clock.now,
                    fingerprint=footprint.digest,
                    saved_seconds=max(cached.elapsed - cache.hit_cost, 0.0),
                    prompt_keys=list(footprint.prompt_keys),
                    prompt_versions=[
                        [dep[0], dep[1]] for dep in footprint.prompt_deps
                    ],
                )
                state.events.emit(
                    EventKind.OPERATOR_END, self.label, at=state.clock.now
                )
                return state
        recording = cache.recorder(state) if footprint is not None else None
        started = state.clock.now
        try:
            result = yield from self._steps(state)
        except SpearError as error:
            state.events.emit(
                EventKind.ERROR,
                self.label,
                at=state.clock.now,
                error=type(error).__name__,
                message=str(error),
            )
            raise
        finally:
            if recording is not None:
                recording.restore()
        if recording is not None and result is state:
            cache.insert(
                footprint,
                recording.delta(footprint, elapsed=state.clock.now - started),
            )
        state.events.emit(EventKind.OPERATOR_END, self.label, at=state.clock.now)
        return result

    def __call__(self, state: ExecutionState) -> ExecutionState:
        return self.apply(state)

    def __rshift__(self, other: "Operator") -> "Pipeline":
        from repro.core.pipeline import Pipeline

        return Pipeline([self]) >> other

    def __repr__(self) -> str:
        return self.label


class FunctionOperator(Operator):
    """Lift an arbitrary ``state → state`` function into the algebra.

    Escape hatch for glue steps (e.g. recording ground truth into C) that
    still want event tracing and ``>>`` composition.
    """

    def __init__(self, fn: Callable[[ExecutionState], ExecutionState | None], label: str | None = None) -> None:
        self._fn = fn
        self.label = label or f"FN[{getattr(fn, '__name__', 'lambda')}]"

    def _run(self, state: ExecutionState) -> ExecutionState:
        result = self._fn(state)
        return result if result is not None else state


class Condition:
    """A named predicate over (C, M), printable for ref_log provenance.

    CHECK records *why* a refinement fired; a bare lambda cannot describe
    itself, so conditions carry a textual form.  Helpers build the common
    shapes from the paper: ``Condition.metadata_below("confidence", 0.7)``
    renders as ``M["confidence"] < 0.7``.
    """

    def __init__(self, fn: Callable[[ExecutionState], bool], text: str) -> None:
        self._fn = fn
        self.text = text

    def __call__(self, state: ExecutionState) -> bool:
        return bool(self._fn(state))

    def __invert__(self) -> "Condition":
        return Condition(lambda state: not self._fn(state), f"not ({self.text})")

    def __and__(self, other: "Condition") -> "Condition":
        return Condition(
            lambda state: self._fn(state) and other(state),
            f"({self.text}) and ({other.text})",
        )

    def __or__(self, other: "Condition") -> "Condition":
        return Condition(
            lambda state: self._fn(state) or other(state),
            f"({self.text}) or ({other.text})",
        )

    def __repr__(self) -> str:
        return f"Condition({self.text})"

    # -- constructors for the paper's common shapes -------------------------

    @staticmethod
    def metadata_below(signal: str, threshold: float) -> "Condition":
        """``M[signal] < threshold`` (missing signal counts as 0)."""
        return Condition(
            lambda state: float(state.metadata.get(signal, 0.0)) < threshold,
            f'M["{signal}"] < {threshold}',
        )

    @staticmethod
    def metadata_above(signal: str, threshold: float) -> "Condition":
        """``M[signal] > threshold`` (missing signal counts as 0)."""
        return Condition(
            lambda state: float(state.metadata.get(signal, 0.0)) > threshold,
            f'M["{signal}"] > {threshold}',
        )

    @staticmethod
    def missing_context(key: str) -> "Condition":
        """``key not in C`` — the Missing Order Retrieval trigger."""
        return Condition(
            lambda state: key not in state.context,
            f'"{key}" not in C',
        )

    @staticmethod
    def context_contains(key: str) -> "Condition":
        """``key in C``."""
        return Condition(
            lambda state: key in state.context,
            f'"{key}" in C',
        )

    @staticmethod
    def of(fn: Callable[[ExecutionState], bool], text: str | None = None) -> "Condition":
        """Wrap an arbitrary predicate (with an optional description)."""
        if isinstance(fn, Condition):
            return fn
        return Condition(fn, text or getattr(fn, "__name__", "custom"))


def as_condition(cond: Any) -> Condition:
    """Coerce a Condition, callable, or bool into a Condition."""
    if isinstance(cond, Condition):
        return cond
    if callable(cond):
        return Condition.of(cond)
    return Condition(lambda state: bool(cond), repr(bool(cond)))
