"""Exception hierarchy for the SPEAR reproduction.

Every error raised by this package derives from :class:`SpearError`, so
callers embedding SPEAR in a larger system can catch one base class.
"""

from __future__ import annotations


class SpearError(Exception):
    """Base class for all SPEAR errors."""


class PromptStoreError(SpearError):
    """Problems with the prompt store P (missing keys, bad versions)."""


class UnknownPromptError(PromptStoreError):
    """A prompt key was requested that does not exist in P."""

    def __init__(self, key: str) -> None:
        super().__init__(f"unknown prompt key: {key!r}")
        self.key = key


class UnknownVersionError(PromptStoreError):
    """A prompt version was requested that the entry never had."""

    def __init__(self, key: str, version: int) -> None:
        super().__init__(f"prompt {key!r} has no version {version}")
        self.key = key
        self.version = version


class ContextError(SpearError):
    """Problems with the runtime context C."""


class UnknownContextKeyError(ContextError):
    """A context key was requested that does not exist in C."""

    def __init__(self, key: str, *, available: "list[str] | None" = None) -> None:
        message = f"unknown context key: {key!r}"
        if available is not None:
            listing = ", ".join(repr(name) for name in sorted(available))
            message += f"; available labels: [{listing}]" if listing else (
                "; the context is empty"
            )
        super().__init__(message)
        self.key = key
        self.available = sorted(available) if available is not None else None


class MetadataError(SpearError):
    """Problems with the metadata store M."""


class OperatorError(SpearError):
    """An operator could not be constructed or applied."""


class ViewError(SpearError):
    """Problems with view definition, lookup, or expansion."""


class UnknownViewError(ViewError):
    """A view name was requested that is not registered."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown view: {name!r}")
        self.name = name


class ViewParameterError(ViewError):
    """A view was instantiated with missing or unexpected parameters."""


class RefinementError(SpearError):
    """A refinement function failed or was mis-specified."""


class DelegationError(SpearError):
    """A DELEGATE target agent is unknown or failed."""


class RetrievalError(SpearError):
    """A RET source is unknown or retrieval failed."""


class ModelError(SpearError):
    """The simulated LLM backend rejected a request."""

    #: whether retrying the same call may succeed.  Resilience policies
    #: consult this instead of hard-coding a type list, so user-defined
    #: error subclasses can opt in.
    retryable: bool = False
    #: True when the error was injected by a :class:`repro.resilience.FaultPlan`
    #: (vs. a genuine backend rejection); lets observability distinguish
    #: simulated chaos from real failures.
    injected: bool = False
    #: which fault channel produced this error (``"transient"``,
    #: ``"rate_limit"``, ``"timeout"``, ``"malformed"``) or None.
    fault_kind: "str | None" = None


class TokenBudgetExceededError(ModelError):
    """A generation request exceeded the configured token budget."""

    def __init__(self, requested: int, budget: int) -> None:
        super().__init__(
            f"request of {requested} tokens exceeds budget of {budget}"
        )
        self.requested = requested
        self.budget = budget


class TransientModelError(ModelError):
    """The backend failed in a way that a retry may fix.

    The base of the retryable taxonomy: network blips, 5xx-style engine
    hiccups, scheduler preemptions.  Deterministic fault injection raises
    these with ``injected=True``.
    """

    retryable = True
    fault_kind = "transient"

    def __init__(
        self,
        message: str = "transient backend failure",
        *,
        injected: bool = False,
        attempt: int | None = None,
    ) -> None:
        super().__init__(message)
        self.injected = injected
        self.attempt = attempt


class RateLimitError(TransientModelError):
    """The backend shed load; retry after ``retry_after`` simulated seconds.

    A server shed carries the ``request_id`` it recorded for the request
    (None for a model-level rate limit).
    """

    fault_kind = "rate_limit"

    def __init__(
        self,
        message: str = "rate limited",
        *,
        retry_after: float = 0.0,
        injected: bool = False,
        attempt: int | None = None,
        request_id: str | None = None,
    ) -> None:
        super().__init__(message, injected=injected, attempt=attempt)
        self.retry_after = retry_after
        self.request_id = request_id


class TimeoutError(TransientModelError, TimeoutError):  # noqa: A001 - paper taxonomy name
    """A call exceeded its (virtual-clock) deadline.

    Also subclasses the builtin ``TimeoutError`` so generic handlers
    written against the standard library still catch it.
    """

    fault_kind = "timeout"

    def __init__(
        self,
        message: str = "generation timed out",
        *,
        elapsed: float = 0.0,
        deadline: float | None = None,
        injected: bool = False,
        attempt: int | None = None,
    ) -> None:
        super().__init__(message, injected=injected, attempt=attempt)
        self.elapsed = elapsed
        self.deadline = deadline


class MalformedOutputError(TransientModelError):
    """The backend returned a truncated or unparseable generation.

    Carries the partial text so degraded consumers can still inspect it;
    retryable because a fresh attempt usually completes.
    """

    fault_kind = "malformed"

    def __init__(
        self,
        message: str = "malformed generation",
        *,
        partial_text: str = "",
        injected: bool = False,
        attempt: int | None = None,
    ) -> None:
        super().__init__(message, injected=injected, attempt=attempt)
        self.partial_text = partial_text


class CircuitOpenError(TransientModelError):
    """A circuit breaker rejected the call before it reached the backend.

    Retryable by design: backoff advances the virtual clock toward the
    breaker's cooldown, after which a half-open probe is admitted.
    """

    fault_kind = "circuit_open"

    def __init__(self, model: str, *, until: float | None = None) -> None:
        suffix = f" (cooldown until t={until:.2f}s)" if until is not None else ""
        super().__init__(f"circuit open for model {model!r}{suffix}")
        self.model = model
        self.until = until


class PlanningError(SpearError):
    """The optimizer could not produce a plan."""


class FusionError(PlanningError):
    """Operator fusion was requested for an unfusable pair."""


class DslError(SpearError):
    """Base class for SPEAR-DL language errors."""


class DslSyntaxError(DslError):
    """SPEAR-DL source failed to lex or parse."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        #: the finding without its position (a diagnostic carries that apart).
        self.message = message
        self.line = line
        self.column = column


class DslCompileError(DslError):
    """SPEAR-DL parsed but referenced unknown operators, views, etc.

    Optionally carries a source position (``line``/``column`` are 0 when
    unknown, ``file`` is None) so tools can report ``file:line:col``.
    With a known line the text reads ``file:line:col: message`` (unknown
    parts elided, a missing file shown as ``<source>``).
    """

    def __init__(
        self,
        message: str,
        *,
        line: int = 0,
        column: int = 0,
        file: "str | None" = None,
    ) -> None:
        where = f"{file or '<source>'}:{line}" if line > 0 else ""
        if where and column > 0:
            where += f":{column}"
        super().__init__(f"{where}: {message}" if where else message)
        #: the finding without its position (a diagnostic carries that apart).
        self.message = message
        self.line = line
        self.column = column
        self.file = file


class SpearValidationError(SpearError):
    """Static validation found errors; execution was refused.

    Raised by strict mode (``RuntimeOptions(strict=True)``) *before* the
    first model call.  Carries the error-severity diagnostics; rendering
    is duck-typed (any object with ``.render()``/``.code``) so this
    module stays independent of :mod:`repro.analysis`.
    """

    def __init__(self, diagnostics: "list | None" = None) -> None:
        self.diagnostics = list(diagnostics or [])
        lines = [
            getattr(diagnostic, "render", lambda: str(diagnostic))()
            for diagnostic in self.diagnostics
        ]
        count = len(self.diagnostics)
        header = (
            f"static validation failed with {count} error(s):"
            if count
            else "static validation failed"
        )
        super().__init__("\n".join([header, *lines]))

    @property
    def codes(self) -> "list[str]":
        """The distinct diagnostic codes present, sorted."""
        return sorted({
            getattr(diagnostic, "code", "") for diagnostic in self.diagnostics
        })


class ReplayError(SpearError):
    """A refinement replay log was inconsistent with the store."""


class ObservabilityError(SpearError):
    """A metric, span, or exporter in repro.obs was misused."""
