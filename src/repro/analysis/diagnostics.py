"""The diagnostic framework: stable codes, severities, source spans.

Every defect the static checker can report has a **stable code**
(``SPEAR101 undefined-prompt-ref``), a default :class:`Severity`, and a
catalog entry — so CI gates, editor integrations, and suppression lists
can match on codes rather than message text.  A :class:`Diagnostic` is a
plain frozen record; :class:`CheckResult` aggregates them with the same
"list the available names" convention the runtime's lookup errors use.

Codes are grouped by decade:

- ``SPEAR0xx`` — the program could not be analyzed (syntax/compile).
- ``SPEAR10x`` — prompt-store references (P).
- ``SPEAR11x`` — context dataflow (C).
- ``SPEAR12x`` — unused definitions.
- ``SPEAR13x`` — MERGE reconciliation.
- ``SPEAR14x`` — control/runtime policies (RETRY, DELEGATE, sources)
  and reachability.
- ``SPEAR15x`` — cost bounds (deadline, token fan-out, cache economics).
- ``SPEAR16x`` — concurrency interference (parallel lanes, serving).
- ``SPEAR17x`` — optimizer interplay (fusion safety).
- ``SPEAR19x`` — meta-diagnostics (suppression hygiene).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

__all__ = [
    "Severity",
    "SourceSpan",
    "Diagnostic",
    "CheckResult",
    "CODE_CATALOG",
]


class Severity(str, Enum):
    """How bad a diagnostic is; errors gate execution under strict mode."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


#: code → (default severity, short name, description).  The codes are a
#: compatibility surface: never renumber; retire by leaving a tombstone.
#:
#: Tombstones — three pre-1.0 codes were re-homed when the cost (15x)
#: and interference (16x) decades landed; match on the new codes:
#:
#: - ``SPEAR151`` check-never-fires   → ``SPEAR148``
#: - ``SPEAR161`` fusable-refs        → ``SPEAR171``
#: - ``SPEAR162`` unsafe-fusion       → ``SPEAR172``
#:
#: ``SPEAR147`` (serve-policy-without-scheduler) is retired without a
#: successor: its entry stays so suppressions naming it still parse.
CODE_CATALOG: dict[str, tuple[Severity, str, str]] = {
    "SPEAR001": (
        Severity.ERROR,
        "syntax-error",
        "SPEAR-DL source failed to lex or parse.",
    ),
    "SPEAR002": (
        Severity.ERROR,
        "compile-error",
        "SPEAR-DL parsed but could not be lowered to operators.",
    ),
    "SPEAR101": (
        Severity.ERROR,
        "undefined-prompt-ref",
        "An operator reads a prompt key that is never created.",
    ),
    "SPEAR102": (
        Severity.WARNING,
        "unbound-template-param",
        "A template placeholder is never bound by context, params, or "
        "extra= literals; it will render literally.",
    ),
    "SPEAR103": (
        Severity.WARNING,
        "shadowed-template-param",
        "A GEN extra= literal shadows a context slot the pipeline writes.",
    ),
    "SPEAR104": (
        Severity.ERROR,
        "view-resolution-error",
        "A VIEW/SELECT_VIEW references an unknown view, misses required "
        "parameters, or hits a cyclic base chain.",
    ),
    "SPEAR111": (
        Severity.ERROR,
        "read-before-write",
        "A context slot is read before any operator (or the initial "
        "context) writes it.",
    ),
    "SPEAR112": (
        Severity.WARNING,
        "dead-write",
        "A context write is unconditionally overwritten before any read.",
    ),
    "SPEAR121": (
        Severity.WARNING,
        "unused-prompt",
        "A prompt entry is created but never read by GEN/RET/MERGE/DIFF.",
    ),
    "SPEAR122": (
        Severity.INFO,
        "unused-view",
        "A view is defined but never instantiated or extended.",
    ),
    "SPEAR131": (
        Severity.ERROR,
        "merge-unwritten-key",
        "MERGE reconciles a prompt key that is never written.",
    ),
    "SPEAR141": (
        Severity.WARNING,
        "unbounded-retry",
        "RETRY has no RetryPolicy: transient model errors are not "
        "retried and no backoff bounds the loop.",
    ),
    "SPEAR142": (
        Severity.ERROR,
        "delegate-cycle",
        "A DELEGATE payload depends on its own (or a later delegation's) "
        "output slot.",
    ),
    "SPEAR143": (
        Severity.ERROR,
        "unknown-agent",
        "DELEGATE targets an agent that is not registered.",
    ),
    "SPEAR144": (
        Severity.ERROR,
        "unknown-source",
        "RET names a retrieval source that is not registered.",
    ),
    "SPEAR145": (
        Severity.WARNING,
        "deadline-without-scheduler",
        "deadline_s (or a non-default priority) is set on a runner with "
        "no GEN engine: the deadline policy silently no-ops.",
    ),
    "SPEAR146": (
        Severity.WARNING,
        "item-first-template",
        "A GEN template places a varying placeholder before the bulk of "
        "its static text: item-first ordering defeats prefix caching "
        "because the shared trunk diverges at the first varying token.",
    ),
    "SPEAR147": (
        Severity.WARNING,
        "serve-policy-without-scheduler",
        "Retired: serving pools have no per-run GEN engine, so request "
        "deadline_s/priority only ever order admission.  Never emitted.",
    ),
    "SPEAR148": (
        Severity.WARNING,
        "check-never-fires",
        "A CHECK/SWITCH branch is statically unreachable (or the "
        "condition is statically constant).",
    ),
    "SPEAR151": (
        Severity.ERROR,
        "deadline-infeasible",
        "deadline_s is below the pipeline's statically-provable "
        "lower-bound latency: the run cannot finish in time even when "
        "every conditional branch is skipped.",
    ),
    "SPEAR152": (
        Severity.WARNING,
        "unbounded-token-fanout",
        "RETRY re-runs a token-spending body but its condition reads "
        "only signals the body never writes: the condition can never "
        "change, every permitted attempt fires, and nothing but "
        "max_retries bounds token fan-out.",
    ),
    "SPEAR153": (
        Severity.WARNING,
        "cache-defeating-refiner",
        "A refinement's dependent suffix covers >=90% of the pipeline: "
        "every refinement invalidates nearly every step, so the "
        "incremental result cache can never pay off.",
    ),
    "SPEAR161": (
        Severity.WARNING,
        "prompt-write-race",
        "Parallel lanes share one prompt store and the pipeline writes "
        "a shared prompt key: cross-item write-write race; pass "
        "isolate_prompts=True or refine a per-item key.",
    ),
    "SPEAR162": (
        Severity.WARNING,
        "refine-during-serve",
        "A served pipeline writes a prompt key in the tenant's "
        "persistent session store: refinements leak across requests, "
        "later requests observe drifted prompts, and cached results "
        "churn.",
    ),
    "SPEAR163": (
        Severity.WARNING,
        "nondeterministic-merge-order",
        "MERGE reconciles prompt keys that concurrent lanes write "
        "through a shared store: the merged content depends on lane "
        "interleaving.",
    ),
    "SPEAR171": (
        Severity.INFO,
        "fusable-refs",
        "Adjacent literal REF[APPEND]s on one key; the optimizer's "
        "fuse_refs will coalesce them.",
    ),
    "SPEAR172": (
        Severity.WARNING,
        "unsafe-fusion",
        "Adjacent REF[APPEND]s on one key that must NOT be fused "
        "(mode/condition mismatch or dynamic refiner); the planner "
        "skips them.",
    ),
    "SPEAR199": (
        Severity.WARNING,
        "useless-suppression",
        "A '# spear: ignore[...]' comment suppresses a code that never "
        "fires on its target line.",
    ),
}


@dataclass(frozen=True)
class SourceSpan:
    """A ``file:line:column`` position in SPEAR-DL source (1-based)."""

    file: str | None = None
    line: int = 0
    column: int = 0

    def render(self) -> str:
        """``file:line:col`` with unknown parts elided."""
        file = self.file or "<source>"
        if self.line <= 0:
            return file
        if self.column <= 0:
            return f"{file}:{self.line}"
        return f"{file}:{self.line}:{self.column}"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, severity, message, and location."""

    code: str
    severity: Severity
    message: str
    #: printable label of the operator the finding anchors to, if any.
    operator: str | None = None
    #: name of the pipeline the operator belongs to, if known.
    pipeline: str | None = None
    #: SPEAR-DL source position, when the pipeline was lowered from DL.
    span: SourceSpan | None = None
    #: optional machine-readable extras (slot/key names, suggestions).
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The catalog short name for this code (e.g. ``undefined-prompt-ref``)."""
        entry = CODE_CATALOG.get(self.code)
        return entry[1] if entry else self.code.lower()

    def sort_key(self) -> tuple:
        """Stable output order: ``(file, line, column, code, ...)``.

        Span-less diagnostics (pure-Python pipelines) sort by their
        pipeline/operator anchors instead, so strict-mode error text and
        ``spear check`` output never depend on dict-iteration order.
        """
        span = self.span or SourceSpan()
        return (
            span.file or "",
            span.line,
            span.column,
            self.code,
            self.pipeline or "",
            self.operator or "",
            self.message,
        )

    def render(self) -> str:
        """One human-readable line: ``file:line:col: CODE severity: message``."""
        prefix = f"{self.span.render()}: " if self.span is not None else ""
        where = f" [{self.pipeline}]" if self.pipeline else ""
        at = f" ({self.operator})" if self.operator else ""
        return (
            f"{prefix}{self.code} {self.severity.value}: "
            f"{self.message}{at}{where}"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``spear check --format json`` record)."""
        record: dict[str, Any] = {
            "code": self.code,
            "name": self.name,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.operator is not None:
            record["operator"] = self.operator
        if self.pipeline is not None:
            record["pipeline"] = self.pipeline
        if self.span is not None:
            record["file"] = self.span.file
            record["line"] = self.span.line
            record["column"] = self.span.column
        if self.data:
            record["data"] = dict(self.data)
        return record


def make_diagnostic(
    code: str,
    message: str,
    *,
    severity: Severity | None = None,
    operator: str | None = None,
    pipeline: str | None = None,
    span: SourceSpan | None = None,
    **data: Any,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from the catalog."""
    if code not in CODE_CATALOG:
        raise KeyError(
            f"unknown diagnostic code {code!r}; "
            f"available: {sorted(CODE_CATALOG)}"
        )
    resolved = severity if severity is not None else CODE_CATALOG[code][0]
    return Diagnostic(
        code=code,
        severity=resolved,
        message=message,
        operator=operator,
        pipeline=pipeline,
        span=span,
        data=data,
    )


class CheckResult:
    """An ordered collection of diagnostics with rollups and renderers."""

    def __init__(self, diagnostics: list[Diagnostic] | None = None) -> None:
        self.diagnostics: list[Diagnostic] = list(diagnostics or [])

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def extend(self, diagnostics: "CheckResult | list[Diagnostic]") -> None:
        """Append another result's (or list's) diagnostics."""
        self.diagnostics.extend(diagnostics)

    def sort(self) -> "CheckResult":
        """Order diagnostics by ``(file, line, column, code)``; returns self."""
        self.diagnostics.sort(key=Diagnostic.sort_key)
        return self

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        """All diagnostics at exactly ``severity``."""
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        """The error-severity diagnostics."""
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        """The warning-severity diagnostics."""
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        """The info-severity diagnostics."""
        return self.by_severity(Severity.INFO)

    @property
    def has_errors(self) -> bool:
        """Whether any error-severity diagnostic is present."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> list[str]:
        """The distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def with_code(self, code: str) -> list[Diagnostic]:
        """Diagnostics carrying ``code``; unknown codes list the catalog."""
        if code not in CODE_CATALOG:
            raise KeyError(
                f"unknown diagnostic code {code!r}; "
                f"available: {sorted(CODE_CATALOG)}"
            )
        return [d for d in self.diagnostics if d.code == code]

    def summary(self) -> str:
        """``N error(s), M warning(s), K info(s)``."""
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )

    def render(self) -> str:
        """Human-readable multi-line report (one line per diagnostic)."""
        lines = [diagnostic.render() for diagnostic in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form with per-severity counts."""
        return {
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "infos": len(self.infos),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize :meth:`to_dict` as JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckResult({self.summary()})"
