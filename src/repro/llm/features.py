"""Prompt feature extraction — what the simulated model "responds to".

The paper's premise is that prompt content changes model behaviour: adding
explicit instructions, criteria, examples, hints, or output-format clauses
improves accuracy (§8, "Prompt Refinement").  Our simulated backend makes
that premise operational: a prompt string is parsed into a
:class:`PromptFeatures` record, and :mod:`repro.llm.quality` maps features
to a per-item error probability.  Refinements therefore matter exactly the
way the paper assumes, in a fully deterministic and inspectable way.

A piece of text is read once, by its words: :func:`_analyse` ORs into one
mask the bits of :data:`_MARKERS` — the feature markers, the stage groups'
verbs and the router's literals — its distinct words hold, beside the
facts that depend on position (the first ``criteria`` marker, the last
``hint:``, a word-limit clause, the word count).  :func:`extract_features` builds its
record from that pass; a static chunk of a rendered prompt keeps it in
``chunk.memo["analysis"]``, which :func:`prompt_features` and
:func:`route_mask` read instead of scanning the chunk again.  On ASCII
text ``re.IGNORECASE`` and ``str.lower()`` fold alike; elsewhere they do
not (``ſ`` matches ``s`` case-insensitively but does not lower to it), so
any other text takes :func:`_regex_features`, the regex definition and the
oracle the fast path is tested against (DESIGN.md §7).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field, fields
from itertools import chain, compress
from typing import Any

from repro.llm.tokenizer import _WORD_BITS, _WORD_IDS, _WORD_MEMO

__all__ = [
    "PromptFeatures",
    "extract_features",
    "prompt_features",
    "route_mask",
    "segment_layout",
]

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

_SENTIMENT_TERMS = ("negative", "positive", "sentiment")

#: The router's literals by task group (``route_task`` in ``llm/tasks.py``).
_ROUTE_GROUPS = {
    "sections": ("### section",),  # ``tasks.SECTION_MARKER``, lowered
    "rewrite": (
        "improve the prompt",
        "rewrite the prompt",
        "refine the prompt",
        "write a prompt",
        "refine the following prompt",
    ),
    "qa": ("enoxaparin", "medication history"),
    "summary": ("summarize", "summarise", "clean up", "clean the"),
    # "wants filter" includes exactly :attr:`PromptFeatures.has_sentiment_terms`.
    "filter": (*_SENTIMENT_TERMS, "filter", "select", "classify"),
}

#: Every literal a reader tests, once, as lowered: bit ``i`` of a mask is
#: set when ``_MARKERS[i]`` occurs in the lowered text.  ``"## task"`` also
#: answers ``"### task"``, which contains it.
_MARKERS = tuple(dict.fromkeys((
    *_INSTRUCTION_VERBS, *_SORTED_TOPIC_TERMS, *_SENTIMENT_TERMS, *_HINT_MARKERS,
    *_EXAMPLE_MARKERS, *_FORMAT_MARKERS, "word", *_WORD_LIMIT_HEADS,
    *_REASONING_MARKERS, "general guidance", "## task",
    *chain.from_iterable(_ROUTE_GROUPS.values()),
)))


def _bit(marker: str) -> int:
    return 1 << _MARKERS.index(marker)


def _bits(markers: Any) -> int:
    return sum(map(_bit, markers))


def _table(markers: Any) -> tuple[tuple[str, ...], tuple[int, ...]]:
    markers = tuple(markers)
    return markers, tuple(map(_bit, markers))


def _hits(found: Any, table: tuple[tuple[str, ...], tuple[int, ...]]) -> int:
    """The mask of the ``table`` markers ``found`` holds."""
    markers, bits = table
    return sum(compress(bits, map(found, markers)))


#: The table split into markers without whitespace, which occur only
#: inside one word, and the rest.
_BY_WORD = _table(m for m in _MARKERS if not any(c.isspace() for c in m))
_BY_TEXT = _table(m for m in _MARKERS if m not in _BY_WORD[0])
#: The router's part of the table, which its per-call scans test alone.
_ROUTER = _table(chain.from_iterable(_ROUTE_GROUPS.values()))
#: One mask per router group, for ``route_task``.
ROUTE_BITS = {group: _bits(markers) for group, markers in _ROUTE_GROUPS.items()}

_INSTRUCTION = _bits(_INSTRUCTION_VERBS)
_STAGES = tuple(map(_bits, _STAGE_GROUPS))
_TOPICS = tuple((term, _bit(term)) for term in _SORTED_TOPIC_TERMS)
_SENTIMENT = _bits(_SENTIMENT_TERMS)
_FOCUS = _bits(_HINT_MARKERS)
_EXAMPLES = _bits(_EXAMPLE_MARKERS)
_FORMAT = _bits(_FORMAT_MARKERS)
_WORD = _bit("word")
_LIMIT_HEADS = _bits(_WORD_LIMIT_HEADS)
_REASONING = _bits(_REASONING_MARKERS)
_GUIDANCE = _bit("general guidance")
_VIEW = _bit("## task")

#: The whitespace-free literals a word is tested for, lowered, with their
#: bits: each one-word marker's own, then, above :data:`_MARKERS`' bits,
#: the other markers' parts and the positional ``criteria`` and ``hint:``.
_OTHER_PARTS = tuple(dict.fromkeys(
    p for m in (*_BY_TEXT[0], "criteria", "hint:") for p in m.split() if p not in _MARKERS
))
_PART = {p: 1 << (_MARKERS + _OTHER_PARTS).index(p) for p in _BY_WORD[0] + _OTHER_PARTS}
_PARTS = tuple(_PART), tuple(_PART.values())
_ONE_WORD = sum(_BY_WORD[1])
#: ``(marker, the bits of its parts, its bit)`` for each marker with whitespace.
_PHRASES = [(m, sum(map(_PART.get, set(m.split()))), bit) for m, bit in zip(*_BY_TEXT)]
_CRITERIA_PART, _HINT_PART = _PART["criteria"], _PART["hint:"]

#: What one pass over a piece yields: ``(mask, words, criteria, hint,
#: limit)`` — see :func:`_analyse`.
_Analysis = tuple[int, int, tuple[int, int] | None, int, bool]


def _analyse(text: str) -> _Analysis:
    """One pass over ``text``: its marker mask and its positional facts.

    ``mask`` has the bit of every :data:`_MARKERS` literal in the lowered
    text; ``criteria`` is the span of the first ``criteria`` marker (or
    None), ``hint`` the start of the last ``\\bhint:`` match (-1: none),
    ``limit`` whether a word-limit clause matches.

    A word is tested against :data:`_PARTS`, lowered, once per process:
    its bits sit beside its ids in the tokenizer's vocabulary.  A one-word
    marker's bit is its part's; any other is looked for in the lowered text
    only when each of its parts, which an occurrence holds within words, is
    in some word.  ``lower()`` maps each character on its own but the final
    sigma, which lowers to no ASCII letter, so words lower as the whole
    does for ASCII literals.  ``IGNORECASE`` folds ASCII text as ``lower()``
    does; in other text the regexes, which fold more, give the positions.
    """
    words = text.split()
    memo, parts = _WORD_BITS, 0
    for word in set(words):
        bits = memo.get(word)
        if bits is None:
            if len(memo) >= _WORD_MEMO:
                memo.clear()
                _WORD_IDS.clear()
            bits = memo[word] = _hits(word.lower().__contains__, _PARTS)
        parts |= bits
    mask, lowered = parts & _ONE_WORD, ""
    for marker, need, bit in _PHRASES:
        if parts & need == need:
            lowered = lowered or text.lower()
            if marker in lowered:
                mask |= bit
    if text.isascii():
        at = (lowered or text.lower()).find("criteria") if parts & _CRITERIA_PART else -1
        criteria = (at, at + 8) if at >= 0 else None
        hint = _last_hint(text) if parts & _HINT_PART else -1
        limit = bool(
            mask & _WORD and mask & _LIMIT_HEADS and _WORD_LIMIT_RE.search(text)
        )
    else:
        marker = _CRITERIA_MARKER_RE.search(text)
        criteria = marker.span() if marker else None
        hint = _last_hint(text)
        limit = bool(_WORD_LIMIT_RE.search(text))
        mask |= (_FOCUS if _HINT_RE.search(text) else 0) | (
            _GUIDANCE if _GUIDANCE_MARKER_RE.search(text) else 0
        )
    return mask, len(words), criteria, hint, limit


def _last_hint(text: str) -> int:
    return max((match.start() for match in _ADAPTIVE_RE.finditer(text)), default=-1)


def _record(
    text: str, mask: int, words: int, criteria: Any, adaptive: bool, limit: bool
) -> PromptFeatures:
    """The :class:`PromptFeatures` of ``text``, whose pieces hit ``mask``."""
    bullets = _BULLET_LINE_RE.findall(text[criteria[1] :]) if criteria else ()
    return PromptFeatures(
        has_instruction=bool(mask & _INSTRUCTION),
        has_sentiment_terms=bool(mask & _SENTIMENT),
        has_focus_hint=bool(mask & _FOCUS),
        has_adaptive_hint=adaptive,
        has_examples=bool(mask & _EXAMPLES),
        has_output_format=bool(mask & _FORMAT),
        has_word_limit=limit,
        has_reasoning=bool(mask & _REASONING),
        has_guidance=bool(mask & _GUIDANCE),
        criteria_count=min(len(bullets), 6),
        has_view_structure=bool(mask & _VIEW),
        task_count=sum(1 for stage in _STAGES if mask & stage),
        hint_terms=tuple([term for term, bit in _TOPICS if mask & bit]),
        word_count=words,
    )


def extract_features(text: str) -> PromptFeatures:
    """Parse ``text`` into a :class:`PromptFeatures` record."""
    if not text.isascii():
        return _regex_features(text)
    mask, words, criteria, hint, limit = _analyse(text)
    return _record(text, mask, words, criteria, hint >= 0, limit)


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
#: that is mostly slot) combining costs more than scanning the text whole,
#: so both readers go flat.  Timed per call on the benchmark workloads'
#: prompts (2-vCPU VM), combining takes 1.2-1.5x the flat router scan and
#: 0.95-1.2x the flat feature pass with 128-255 characters left out, but
#: 0.5x and 0.2-0.4x with 576-700 left out; no workload prompt lies between.
_MIN_SKIPPED = 256


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


def _chunk(chunk: Any) -> _Analysis:
    """A static chunk's :func:`_analyse`, kept in ``chunk.memo["analysis"]``."""
    analysis = chunk.memo.get("analysis")
    if analysis is None:
        analysis = chunk.memo["analysis"] = _analyse(chunk.text)
    return analysis


def _route_hits(text: str) -> int:
    """The router's bits of :data:`_MARKERS` in ``text``, lowered."""
    return _hits(text.lower().__contains__, _ROUTER)


def route_mask(prompt: str) -> int:
    """``_route_hits(prompt)``, scanning only what is new in it.

    A chunk's bits come from its analysis; per call only the windows of
    :func:`segment_layout` are scanned, for the router's literals alone.
    ``lower()`` maps each character on its own but the final sigma, which
    lowers to no ASCII letter, so for an ASCII marker the pieces lower as
    the whole does, whatever the text.  A prompt of at most
    :data:`_MIN_SKIPPED` characters is flat without the walk.
    """
    if len(prompt) <= _MIN_SKIPPED:
        return _route_hits(prompt)
    placed, _, windows = segment_layout(prompt)
    if windows is None:
        return _route_hits(prompt)
    mask = 0
    for _, segment in placed:
        if not isinstance(segment, str):
            mask |= _chunk(segment)[0]
    for low, high in windows:
        mask |= _route_hits(prompt[low:high])
    return mask


def prompt_features(prompt: str) -> PromptFeatures:
    """``extract_features(prompt)``, scanning only what is new in it.

    Each static chunk is analysed once (:func:`_chunk`) and each window of
    :func:`segment_layout` per call; every marker lies in one of them.
    What one piece cannot settle (word boundaries, the first criteria
    marker, unbounded runs) is re-read from the real text.  A short
    prompt is flat without the walk, as in :func:`route_mask`.
    """
    if len(prompt) <= _MIN_SKIPPED:
        return extract_features(prompt)
    placed, seams, windows = segment_layout(prompt)
    if windows is None:
        return extract_features(prompt)
    pieces: list[tuple[int, _Analysis]] = []
    words, open_word = 0, False
    for start, segment in placed:
        if isinstance(segment, str):
            text = segment
            count = len(text.split())
        else:
            text = segment.text
            pieces.append((start, _chunk(segment)))
            count = pieces[-1][1][1]
        if text:
            # A word continuing across the seam was counted on both sides.
            words += count - (open_word and not text[0].isspace())
            open_word = not text[-1].isspace()
    pieces += [(low, _analyse(prompt[low:high])) for low, high in windows]

    mask, adaptive, limit = 0, False, False
    criteria: list[tuple[int, int]] = []  # first-marker candidates
    for start, (bits, _, span, hint, clause) in pieces:
        mask |= bits
        limit |= clause
        if span:
            criteria.append((start + span[0], start + span[1]))
        # ``\b`` at a piece's first offset depends on what comes before it.
        if hint > 0 or hint == 0 and not adaptive and _ADAPTIVE_RE.match(prompt, start):
            adaptive = True
    size = len(prompt)
    if not limit and any(
        _LONG_RUN_RE.search(prompt, max(0, seam - 16), seam + 36)
        for seam in seams
        if 0 < seam < size
    ):
        limit = bool(_WORD_LIMIT_RE.search(prompt))
    return _record(prompt, mask, words, min(criteria, default=None), adaptive, limit)
