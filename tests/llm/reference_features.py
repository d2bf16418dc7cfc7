"""The whole-text analysis: the oracle the per-word ``_analyse`` is tested against.

``reference_analyse(text)`` lowers ``text`` and tests every literal of
``features._MARKERS`` against the whole lowered copy, as the analysis did
before each distinct word carried its marker bits.  Nothing in ``src/``
imports this module.
"""

from __future__ import annotations

from repro.llm import features as F


def reference_analyse(text: str) -> F._Analysis:
    """``(mask, words, criteria, hint, limit)`` of ``text``, read whole."""
    lowered = text.lower()
    found = lowered.__contains__
    mask = F._hits(found, F._BY_WORD) | F._hits(found, F._BY_TEXT)
    if text.isascii():
        at = lowered.find("criteria")
        criteria = (at, at + 8) if at >= 0 else None
        hint = F._last_hint(text) if "hint:" in lowered else -1
        limit = bool(
            mask & F._WORD and mask & F._LIMIT_HEADS and F._WORD_LIMIT_RE.search(text)
        )
    else:
        marker = F._CRITERIA_MARKER_RE.search(text)
        criteria = marker.span() if marker else None
        hint = F._last_hint(text)
        limit = bool(F._WORD_LIMIT_RE.search(text))
        mask |= (F._FOCUS if F._HINT_RE.search(text) else 0) | (
            F._GUIDANCE if F._GUIDANCE_MARKER_RE.search(text) else 0
        )
    return mask, len(lowered.split()), criteria, hint, limit
