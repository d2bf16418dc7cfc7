"""Prompt feature extraction — what the simulated model "responds to".

The paper's premise is that prompt content changes model behaviour: adding
explicit instructions, criteria, examples, hints, or output-format clauses
improves accuracy (§8, "Prompt Refinement").  Our simulated backend makes
that premise operational: a prompt string is parsed into a
:class:`PromptFeatures` record, and :mod:`repro.llm.quality` maps features
to a per-item error probability.  Refinements therefore matter exactly the
way the paper assumes, in a fully deterministic and inspectable way.

:func:`extract_features` answers ASCII text by substring tests on one
lowered copy, running a regex only where a literal it needs is present.
There ``re.IGNORECASE`` and ``str.lower()`` fold alike; elsewhere they do
not (``ſ`` matches ``s`` case-insensitively but does not lower to it), so
any other text takes :func:`_regex_features`, the regex definition and the
oracle the fast path is tested against (DESIGN.md §7).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field, fields
from typing import Any

__all__ = ["PromptFeatures", "extract_features", "prompt_features", "segment_layout"]

_INSTRUCTION_VERBS = (
    "classify",
    "summarize",
    "summarise",
    "label",
    "select",
    "filter",
    "answer",
    "extract",
    "identify",
    "clean",
    "rewrite",
    "highlight",
    "decide",
    "determine",
)

_REASONING_MARKERS = (
    "step by step",
    "reason",
    "rationale",
    "explain why",
    "justification",
    "think carefully",
)

_FORMAT_MARKERS = (
    "respond with",
    "output only",
    "answer yes or no",
    "answer with",
    "format:",
    "return exactly",
    "one word",
)

_WORD_LIMIT_RE = re.compile(
    r"(at most|no more than|under|within|fewer than|limit[^.]{0,20})\s+\d+\s+words?",
    re.IGNORECASE,
)
#: Literals one of which any ``_WORD_LIMIT_RE`` match contains (besides "word").
_WORD_LIMIT_HEADS = (
    "at most",
    "no more than",
    "under",
    "within",
    "fewer than",
    "limit",
)

_EXAMPLE_MARKERS = ("example:", "for example", "e.g.", "examples:")

_BULLET_LINE_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s+\S", re.MULTILINE)
_CRITERIA_MARKER_RE = re.compile(r"criteria", re.IGNORECASE)
_GUIDANCE_MARKER_RE = re.compile(r"general guidance", re.IGNORECASE)

_HINT_RE = re.compile(r"focus on|pay attention to|be specific about|emphasi[sz]e", re.IGNORECASE)
#: ``_HINT_RE``'s alternatives spelled out, for substring tests.
_HINT_MARKERS = (
    "focus on",
    "pay attention to",
    "be specific about",
    "emphasise",
    "emphasize",
)

_ADAPTIVE_RE = re.compile(r"\bhint:", re.IGNORECASE)


@dataclass(frozen=True)
class PromptFeatures:
    """Structural features of a prompt that affect simulated quality."""

    #: an explicit task verb ("classify", "summarize", ...) is present.
    has_instruction: bool = False
    #: the prompt mentions sentiment polarity terms.
    has_sentiment_terms: bool = False
    #: a "focus on ..." style refinement hint is present.
    has_focus_hint: bool = False
    #: a per-item adaptive hint ("Hint: ...") injected by auto refinement.
    has_adaptive_hint: bool = False
    #: explicit few-shot examples are present.
    has_examples: bool = False
    #: an output-format clause ("respond with ...") is present.
    has_output_format: bool = False
    #: a word-limit clause ("at most 30 words") is present.
    has_word_limit: bool = False
    #: a chain-of-thought / rationale request is present.
    has_reasoning: bool = False
    #: a "General guidance" section of generic do/don't bullets is present.
    has_guidance: bool = False
    #: number of explicit task criteria — bulleted lines following a
    #: "criteria" marker (generic guidance bullets do not count), capped.
    criteria_count: int = 0
    #: the prompt was built from a structured view (sectioned scaffold).
    has_view_structure: bool = False
    #: number of distinct task verbs — >1 signals a fused multi-task prompt.
    task_count: int = 0
    #: topical hint terms found (lowercase), e.g. ("school",).
    hint_terms: tuple[str, ...] = field(default=())
    #: total token-ish length (whitespace pieces), for latency modelling.
    word_count: int = 0

    def fingerprint(self) -> int:
        """Stable hash of the feature vector (seeds the noise channel).

        Two prompts with identical features behave identically on every
        item — this is what makes strategy comparisons reproducible.
        """
        # Memoised outside the frozen fields: equality and ``fields()`` skip it.
        values = self.__dict__
        cached = values.get("_fingerprint")
        if cached is None:
            text = ";".join([f"{name}={values[name]!r}" for name in _FIELD_NAMES])
            cached = values["_fingerprint"] = zlib.crc32(text.encode("utf-8"))
        return cached


#: The record's field names in definition order, as the fingerprint reads them.
_FIELD_NAMES = tuple(spec.name for spec in fields(PromptFeatures))


#: Topical terms the corpus generators use; extraction looks for these so a
#: refinement like "focus on school-related content" becomes a feature.
TOPIC_TERMS = (
    "school",
    "class",
    "exam",
    "homework",
    "teacher",
    "medication",
    "dosage",
    "timing",
    "indication",
    "enoxaparin",
)
_SORTED_TOPIC_TERMS = tuple(sorted(TOPIC_TERMS))


#: Verbs that describe the same stage collapse together; distinct stages
#: are counted by grouping synonyms.  Every instruction verb is in a group.
_STAGE_GROUPS = (
    {"summarize", "summarise", "clean", "rewrite"},
    {"classify", "label", "decide", "determine"},
    {"select", "filter"},
    {"answer", "extract", "identify", "highlight"},
)


def _by_words(markers: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``markers`` split into those without whitespace and the rest."""
    single = tuple(m for m in markers if not any(c.isspace() for c in m))
    return single, tuple(m for m in markers if m not in single)


_VERB_WORDS, _VERB_PHRASES = _by_words(_INSTRUCTION_VERBS)
_TOPIC_WORDS, _TOPIC_PHRASES = _by_words(_SORTED_TOPIC_TERMS)
_SENTIMENT_WORDS, _SENTIMENT_PHRASES = _by_words(("negative", "positive", "sentiment"))
_HINT_WORDS, _HINT_PHRASES = _by_words(_HINT_MARKERS)
_EXAMPLE_WORDS, _EXAMPLE_PHRASES = _by_words(_EXAMPLE_MARKERS)
_FORMAT_WORDS, _FORMAT_PHRASES = _by_words(_FORMAT_MARKERS)
_LIMIT_WORDS, _LIMIT_PHRASES = _by_words(_WORD_LIMIT_HEADS)
_REASONING_WORDS, _REASONING_PHRASES = _by_words(_REASONING_MARKERS)
#: Text longer than this tests its one-word markers on its distinct words.
#: Timed per call on the benchmark workloads' texts (2-vCPU VM), that takes
#: 0.6-0.7x the whole-text tests' time on the 2.7 KB ``hol_mixed`` leads,
#: but 1.04-1.5x on windows under 128 characters and 1.0-1.3x on the
#: 690-character view scaffolds; no workload has text in between.
_VOCABULARY_MIN = 1024


def extract_features(text: str) -> PromptFeatures:
    """Parse ``text`` into a :class:`PromptFeatures` record."""
    if not text.isascii():
        return _regex_features(text)
    # ASCII: ``IGNORECASE`` folds exactly as ``lower()`` does, so a literal
    # marker is a substring test on ``lowered`` at the same offsets.
    lowered = text.lower()
    words = lowered.split()
    found = lowered.__contains__
    # A marker without whitespace occurs only inside one word, so long text
    # tests it once per distinct word: on those words, space-joined.
    in_word = found
    if len(lowered) > _VOCABULARY_MIN:
        in_word = " ".join(set(words)).__contains__

    found_verbs = {*filter(in_word, _VERB_WORDS), *filter(found, _VERB_PHRASES)}
    task_count = sum(1 for group in _STAGE_GROUPS if group & found_verbs)

    hint_terms = tuple(
        sorted([*filter(in_word, _TOPIC_WORDS), *filter(found, _TOPIC_PHRASES)])
    )

    criteria_at = lowered.find("criteria")
    if criteria_at < 0:
        criteria_count = 0
    else:
        criteria_count = min(len(_BULLET_LINE_RE.findall(text[criteria_at + 8 :])), 6)

    # The regexes run only where a literal every match contains is present.
    hint_at = lowered.find("hint:")
    return PromptFeatures(
        has_instruction=bool(found_verbs),
        has_sentiment_terms=(
            any(map(in_word, _SENTIMENT_WORDS)) or any(map(found, _SENTIMENT_PHRASES))
        ),
        has_focus_hint=any(map(in_word, _HINT_WORDS)) or any(map(found, _HINT_PHRASES)),
        has_adaptive_hint=hint_at >= 0 and bool(_ADAPTIVE_RE.search(text, hint_at)),
        has_examples=(
            any(map(in_word, _EXAMPLE_WORDS)) or any(map(found, _EXAMPLE_PHRASES))
        ),
        has_output_format=(
            any(map(in_word, _FORMAT_WORDS)) or any(map(found, _FORMAT_PHRASES))
        ),
        has_word_limit=(
            in_word("word")
            and (any(map(in_word, _LIMIT_WORDS)) or any(map(found, _LIMIT_PHRASES)))
            and bool(_WORD_LIMIT_RE.search(text))
        ),
        has_reasoning=(
            any(map(in_word, _REASONING_WORDS)) or any(map(found, _REASONING_PHRASES))
        ),
        has_guidance="general guidance" in lowered,
        criteria_count=criteria_count,
        has_view_structure=("### task" in lowered or "## task" in lowered),
        task_count=task_count,
        hint_terms=hint_terms,
        word_count=len(words),
    )


def _regex_features(text: str) -> PromptFeatures:
    """The definition: every pattern searched case-insensitively over ``text``.

    :func:`extract_features` answers ASCII text without it; this is the
    path for any other text and the oracle the fast path is tested against.
    """
    lowered = text.lower()

    found_verbs = {verb for verb in _INSTRUCTION_VERBS if verb in lowered}
    task_count = sum(1 for group in _STAGE_GROUPS if group & found_verbs)

    hint_terms = tuple(sorted(term for term in TOPIC_TERMS if term in lowered))

    criteria_marker = _CRITERIA_MARKER_RE.search(text)
    if criteria_marker is None:
        criteria_count = 0
    else:
        criteria_count = min(
            len(_BULLET_LINE_RE.findall(text[criteria_marker.end():])), 6
        )

    return PromptFeatures(
        has_instruction=bool(found_verbs),
        has_sentiment_terms=(
            "negative" in lowered or "positive" in lowered or "sentiment" in lowered
        ),
        has_focus_hint=bool(_HINT_RE.search(text)),
        has_adaptive_hint=bool(_ADAPTIVE_RE.search(text)),
        has_examples=any(marker in lowered for marker in _EXAMPLE_MARKERS),
        has_output_format=any(marker in lowered for marker in _FORMAT_MARKERS),
        has_word_limit=bool(_WORD_LIMIT_RE.search(text)),
        has_reasoning=any(marker in lowered for marker in _REASONING_MARKERS),
        has_guidance=bool(_GUIDANCE_MARKER_RE.search(text)),
        criteria_count=criteria_count,
        has_view_structure=("### task" in lowered or "## task" in lowered),
        task_count=task_count,
        hint_terms=hint_terms,
        word_count=len(text.split()),
    )


# -- segment-wise extraction (DESIGN.md §7) -------------------------------------

#: Every marker and bounded regex above matches fewer characters than
#: this, so a match that no static chunk holds whole lies within this
#: distance of a slot.  A word-limit clause is "head" (at most 25
#: characters) + whitespace/digit runs + "words" (5): it can outgrow the
#: window only through a run of more than 10, which ``_LONG_RUN_RE`` finds.
_REACH = 40
_LONG_RUN_RE = re.compile(r"[\s\d]{11}")
#: With this few characters outside the windows (a plain string, a template
#: that is mostly slot) combining costs more than scanning them: go flat.
_MIN_SKIPPED = 2 * _REACH

#: Fields that hold for the text when they hold for any piece of it.
_ANY_PIECE = (
    "has_sentiment_terms",
    "has_focus_hint",
    "has_examples",
    "has_output_format",
    "has_word_limit",
    "has_reasoning",
    "has_guidance",
    "has_view_structure",
)


def _stage_mask(lowered: str) -> int:
    found = lowered.__contains__
    return sum(
        1 << index
        for index, group in enumerate(_STAGE_GROUPS)
        if any(map(found, group))
    )


def _held(features: PromptFeatures) -> dict[str, bool]:
    """The :data:`_ANY_PIECE` fields that hold for one piece."""
    facts = vars(features)
    return {name: True for name in _ANY_PIECE if facts[name]}


def _chunk_features(chunk: Any) -> tuple[Any, ...]:
    """What a static chunk contributes wherever it is rendered."""
    text = chunk.text
    alone = extract_features(text)
    lowered = text.lower()
    # As for the windows, in ASCII text IGNORECASE and ``lower()`` fold
    # alike; and a part of the chunk holds only what the whole does.
    maybe = "criteria" in lowered or not text.isascii()
    marker = maybe and _CRITERIA_MARKER_RE.search(text)
    chunk.memo["features"] = part = (
        alone,
        _held(alone),
        _stage_mask(lowered) if alone.has_instruction else 0,
        # ``\b`` at offset 0 depends on what is rendered before the chunk.
        alone.has_adaptive_hint and bool(_ADAPTIVE_RE.search(text, 1)),
        marker and marker.span(),
    )
    return part


def segment_layout(
    prompt: str,
) -> tuple[list[tuple[int, Any]], list[int], list[list[int]] | None]:
    """Where each segment of ``prompt`` starts, and the windows around its slots.

    A rendered prompt carries ``segments`` — objects with ``.text`` and
    ``.memo`` for the template's static chunks, plain strings for
    interpolated values; a plain string is one slot.  Returns
    ``(placed, seams, windows)``: ``(start, segment)`` for every segment,
    the offsets where a slot meets its neighbours or two chunks meet, and
    the merged ``[low, high)`` spans within :data:`_REACH` of a seam.  A
    literal shorter than ``_REACH`` that no chunk holds whole lies inside a
    window.  ``windows`` is None when they leave at most
    :data:`_MIN_SKIPPED` characters out: scanning flat is then cheaper.
    """
    size = len(prompt)
    placed: list[tuple[int, Any]] = []
    seams: list[int] = []
    windows: list[list[int]] = []  # [low, high) around the slots, merged
    position, after_chunk = 0, False
    for segment in getattr(prompt, "segments", None) or (prompt,):
        start = position
        chunk = not isinstance(segment, str)
        position += len(segment.text if chunk else segment)
        if not chunk or after_chunk:  # two chunks meet at an empty slot
            end = start if chunk else position
            seams += (start, end)
            if windows and start - _REACH <= windows[-1][1]:
                windows[-1][1] = end + _REACH
            else:
                windows.append([max(0, start - _REACH), end + _REACH])
        after_chunk = chunk
        placed.append((start, segment))
    if size - sum(min(high, size) - low for low, high in windows) <= _MIN_SKIPPED:
        return placed, seams, None
    return placed, seams, windows


def prompt_features(prompt: str) -> PromptFeatures:
    """``extract_features(prompt)``, scanning only what is new in it.

    The definition runs once per static chunk (kept in ``chunk.memo``) and
    per call on each window of :func:`segment_layout`; what one piece
    cannot settle (word boundaries, the first criteria marker, unbounded
    runs) is re-read from the real text.
    """
    size = len(prompt)
    merged = dict.fromkeys(_ANY_PIECE, False)
    terms: set[str] = set()
    stages = 0
    adaptive = False
    criteria: list[tuple[int, int]] = []  # first-marker candidates
    words, open_word = 0, False
    placed, seams, windows = segment_layout(prompt)
    for start, segment in placed:
        if isinstance(segment, str):
            text = segment
            count = len(text.split())
        else:
            text = segment.text
            part = segment.memo.get("features") or _chunk_features(segment)
            alone, held, mask, inner_hint, marker = part
            merged.update(held)
            terms.update(alone.hint_terms)
            stages |= mask
            adaptive |= inner_hint or (start == 0 and alone.has_adaptive_hint)
            if marker:
                criteria.append((start + marker[0], start + marker[1]))
            count = alone.word_count
        if text:
            # A word continuing across the seam was counted on both sides.
            words += count - (open_word and not text[0].isspace())
            open_word = not text[-1].isspace()

    if windows is None:
        return extract_features(prompt)
    for low, high in windows:
        text = prompt[low:high]
        window = extract_features(text)
        merged.update(_held(window))
        terms.update(window.hint_terms)
        lowered = text.lower()
        if window.has_instruction:
            stages |= _stage_mask(lowered)
        if window.has_adaptive_hint and not adaptive:
            adaptive = bool(_ADAPTIVE_RE.search(prompt, low, high))
        # In ASCII text IGNORECASE and ``lower()`` fold alike: skip the search.
        if "criteria" in lowered or not text.isascii():
            marker = _CRITERIA_MARKER_RE.search(prompt, low, high)
            if marker:
                criteria.append(marker.span())

    if not merged["has_word_limit"] and any(
        _LONG_RUN_RE.search(prompt, max(0, seam - 16), seam + 36)
        for seam in seams
        if 0 < seam < size
    ):
        merged["has_word_limit"] = bool(_WORD_LIMIT_RE.search(prompt))
    bullets = _BULLET_LINE_RE.findall(prompt[min(criteria)[1] :]) if criteria else ()
    return PromptFeatures(
        has_instruction=bool(stages),
        has_adaptive_hint=adaptive,
        criteria_count=min(len(bullets), 6),
        task_count=bin(stages).count("1"),
        hint_terms=tuple(sorted(terms)),
        word_count=words,
        **merged,
    )
