"""Inline suppressions: ``# spear: ignore[SPEAR1xx]`` in SPEAR-DL source.

A suppression comment silences the listed codes on its *target line* —
the comment's own line when it trails code, the next line when it
stands alone:

.. code-block:: text

    pipeline p {
      # spear: ignore[SPEAR121]
      REF[CREATE, "draft", key="scratch"]
      GEN["answer", prompt="qa"]  # spear: ignore[SPEAR101]
    }

Suppressions are collected from the comments the lexer's scan records
(:func:`repro.dl.lexer.collect_suppressions`, or the parse inside
:func:`~repro.analysis.check.check_program`) so they survive exactly as
the parser sees the source, and applied after analysis by
:func:`apply_suppressions`.  Every listed code that silenced nothing —
a stale suppression, a typo, an unknown code — comes back as SPEAR199,
so suppressions can never rot silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.diagnostics import (
    CODE_CATALOG,
    CheckResult,
    Diagnostic,
    SourceSpan,
    make_diagnostic,
)

__all__ = [
    "SUPPRESSION_RE",
    "Suppression",
    "apply_suppressions",
    "suppressions_from_comments",
]

#: the accepted comment shape; codes are comma-separated inside [].
SUPPRESSION_RE = re.compile(
    r"#\s*spear:\s*ignore\[(?P<codes>[A-Za-z0-9_,\s]+)\]"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# spear: ignore[...]`` comment."""

    #: the line whose findings are silenced.
    line: int
    codes: tuple[str, ...]
    #: where the comment itself sits (SPEAR199 anchors here).
    comment_line: int
    comment_column: int

    @classmethod
    def from_comment(
        cls, text: str, line: int, column: int, *, trailing: bool
    ) -> "Suppression | None":
        """Parse a comment's text; None when it is not a suppression.

        ``trailing`` — the comment follows code on its own line, so it
        targets that line; a standalone comment targets the next line.
        """
        match = SUPPRESSION_RE.search(text)
        if match is None:
            return None
        codes = tuple(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        if not codes:
            return None
        return cls(
            line=line if trailing else line + 1,
            codes=codes,
            comment_line=line,
            comment_column=column,
        )


def suppressions_from_comments(
    comments: Iterable[tuple[str, int, int, bool]],
) -> list[Suppression]:
    """The suppressions among lexer comments ``(text, line, column, trailing)``."""
    suppressions = []
    for text, line, column, trailing in comments:
        suppression = Suppression.from_comment(text, line, column, trailing=trailing)
        if suppression is not None:
            suppressions.append(suppression)
    return suppressions


def apply_suppressions(
    result: Iterable[Diagnostic],
    suppressions: Sequence[Suppression],
    *,
    filename: str | None = None,
) -> CheckResult:
    """Drop suppressed findings; surface useless suppressions as SPEAR199.

    A ``(suppression, code)`` pair is *used* when at least one finding
    with that code sat on the suppression's target line.  Unused pairs —
    including codes the catalog does not know — each yield one SPEAR199
    anchored at the comment.  SPEAR199 itself cannot be suppressed.
    """
    by_line: dict[int, list[Suppression]] = {}
    for suppression in suppressions:
        by_line.setdefault(suppression.line, []).append(suppression)
    used: set[tuple[Suppression, str]] = set()
    kept: list[Diagnostic] = []
    for diagnostic in result:
        span = diagnostic.span
        silenced = False
        if diagnostic.code != "SPEAR199" and span is not None:
            for suppression in by_line.get(span.line, ()):
                if diagnostic.code in suppression.codes:
                    used.add((suppression, diagnostic.code))
                    silenced = True
        if not silenced:
            kept.append(diagnostic)
    out = CheckResult(kept)
    extra: list[Diagnostic] = []
    for suppression in suppressions:
        for code in suppression.codes:
            if (suppression, code) in used:
                continue
            reason = (
                "nothing to suppress"
                if code in CODE_CATALOG
                else "unknown code"
            )
            extra.append(
                make_diagnostic(
                    "SPEAR199",
                    f"useless suppression: {code} ({reason}) — no such "
                    f"finding on line {suppression.line}; remove it",
                    span=SourceSpan(
                        file=filename,
                        line=suppression.comment_line,
                        column=suppression.comment_column,
                    ),
                    suppressed_code=code,
                    target_line=suppression.line,
                )
            )
    out.extend(extra)
    return out.sort()
