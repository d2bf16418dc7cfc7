"""Task behaviours of the simulated LLM.

A real instruction-tuned model infers the requested task from the prompt
and performs it.  The simulated backend does the same, deterministically:
:func:`route_task` classifies the prompt into one of the task kinds below,
and the matching handler produces output text, a confidence signal, and
structured extras.  Correctness is grounded against the bound corpora
(:class:`~repro.data.tweets.TweetCorpus`,
:class:`~repro.data.clinical.ClinicalCorpus`) and perturbed by the
feature-driven noise channel in :mod:`repro.llm.quality` — so better
prompts genuinely produce better outputs, which is the paper's premise.

Task kinds:

- ``summarize``   — clean up / summarize a tweet (the Map stage).
- ``classify``    — keep/drop decision against prompt criteria (Filter).
- ``fused``       — both stages in one prompt (operator fusion, §5/§7).
- ``qa``          — clinical QA over notes in the prompt (§2 use case).
- ``rewrite``     — rewrite/improve a prompt (assisted & agentic modes).
- ``freeform``    — fallback echo for unrecognized prompts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

from repro.core.entry import PROMPT_BLOCK_END, PROMPT_BLOCK_START, RenderedPrompt
from repro.data.clinical import ClinicalCorpus, Patient
from repro.data.tweets import Tweet, TweetCorpus
from repro.data import vocab
from repro.llm.features import ROUTE_BITS, PromptFeatures, prompt_features, route_mask
from repro.llm.profiles import ModelProfile
from repro.llm.quality import confidence_for, error_rate, item_rng, noisy_bool

__all__ = ["TaskOutput", "TaskEngine", "route_task"]

#: Section marker used by fused multi-GEN prompts (paper §5: fusing
#: adjacent GENs that share context into one call).  The engine answers
#: each section independently and re-emits the markers, so the FusedGen
#: operator can split the combined output back into per-label results.
SECTION_MARKER = "### Section"

#: Instruction lines starting with this marker are rendered *after* the
#: item text by prompt composers.  Assisted rewrites emit one — trailing
#: reminders are a common LLM rewrite pattern, and tokens after per-item
#: content can never be served from the prefix cache (paper Table 3's
#: lower assisted hit rate).  The extreme form of the same mistake —
#: putting the varying item *before* the static instructions, which
#: makes the whole prompt uncacheable — is what ``spear check`` flags
#: statically as SPEAR146 (item-first-template).
POST_ITEM_MARKER = "Reminder after reading the tweet:"
_HINT_RE = re.compile(r"refinement hint:\s*(.+)", re.IGNORECASE)
_OBJECTIVE_RE = re.compile(r"objective:\s*(.+)", re.IGNORECASE)

#: Distinct instruction texts a :class:`TaskEngine` remembers features for.
_INSTRUCTION_MEMO = 64

_SECTIONS = ROUTE_BITS["sections"]
_REWRITE = ROUTE_BITS["rewrite"]
_QA = ROUTE_BITS["qa"]
_SUMMARY = ROUTE_BITS["summary"]
_FILTER = ROUTE_BITS["filter"]


@dataclass(frozen=True)
class TaskOutput:
    """What one simulated generation produced."""

    task: str
    text: str
    confidence: float
    extras: dict[str, Any] = field(default_factory=dict)


def route_task(prompt: str) -> str:
    """Classify the prompt into a task kind (see module docstring).

    Substring tests of the router's literals on the lowered prompt, read
    through :func:`~repro.llm.features.route_mask` so a static chunk is
    scanned once.
    """
    mask = route_mask(prompt)
    if mask & _SECTIONS:
        return "sections"
    if mask & _REWRITE:
        return "rewrite"
    if mask & _QA:
        return "qa"
    if mask & _SUMMARY:
        return "fused" if mask & _FILTER else "summarize"
    if mask & _FILTER:
        return "classify"
    return "freeform"


def _fused_order(lowered: str) -> str:
    """Infer fusion order from which stage the lowered prompt describes first."""
    summary_pos = min(
        (lowered.find(verb) for verb in ("summarize", "summarise", "clean") if verb in lowered),
        default=len(lowered),
    )
    filter_pos = min(
        (
            lowered.find(term)
            for term in ("filter", "select", "classify", "negative sentiment")
            if term in lowered
        ),
        default=len(lowered),
    )
    return "map_filter" if summary_pos <= filter_pos else "filter_map"


def _strip_segments(prompt: str, tweet: Tweet, stripped: str) -> str:
    """``stripped`` as segments, when ``prompt`` has them and they allow.

    ``stripped`` is ``prompt`` with the tweet's text, then its clean text,
    replaced away — the definition.  Replacing slot by slot keeps every
    chunk and its analyses, and is used only when the pieces spell that
    text, which is checked in place rather than on a joined copy.
    """
    segments = getattr(prompt, "segments", None)
    if not segments:
        return stripped
    kept = tuple(
        s.replace(tweet.text, "").replace(tweet.clean_text, "")
        if isinstance(s, str)
        else s
        for s in segments
    )
    position = 0
    for s in kept:
        text = s if isinstance(s, str) else s.text
        if not stripped.startswith(text, position):
            return stripped
        position += len(text)
    return RenderedPrompt(stripped, kept) if position == len(stripped) else stripped


def _lexicon_sentiment(text: str) -> str:
    """Fallback sentiment from word lexicons (for unrecognized items)."""
    words = set(re.findall(r"[a-z']+", text.lower()))
    negative_hits = len(words & vocab.NEGATIVE_WORDS)
    positive_hits = len(words & vocab.POSITIVE_WORDS)
    return "negative" if negative_hits >= positive_hits else "positive"


def _lexicon_school(text: str) -> bool:
    lowered = text.lower()
    return any(
        term in lowered
        for term in ("school", "exam", "homework", "class", "teacher", "midterm", "studying")
    )


class TaskEngine:
    """Executes routed tasks against bound corpora under a model profile."""

    def __init__(self, profile: ModelProfile) -> None:
        self.profile = profile
        self._tweets: TweetCorpus | None = None
        self._clinical: ClinicalCorpus | None = None
        #: instruction text -> [features, asks negative, fused order], the two
        #: facts None until first used: a plain dict, cleared wholesale at
        #: ``_INSTRUCTION_MEMO`` entries, so lanes share it without a lock.
        self._instruction_memo: dict[str, list[Any]] = {}

    # -- corpus binding ------------------------------------------------------

    def bind_tweets(self, corpus: TweetCorpus) -> None:
        """Ground tweet tasks against ``corpus``."""
        self._tweets = corpus

    def bind_clinical(self, corpus: ClinicalCorpus) -> None:
        """Ground clinical QA against ``corpus``."""
        self._clinical = corpus

    # -- entry point ------------------------------------------------------------

    def run(self, prompt: str) -> TaskOutput:
        """Execute the task requested by ``prompt``.

        Each handler takes the features it reads: tweet tasks from the
        memoised instructions, QA from the whole prompt, the rest none.
        """
        return self._HANDLERS[route_task(prompt)](self, prompt)

    # -- helpers -----------------------------------------------------------------

    def _locate_tweet(self, prompt: str) -> Tweet | None:
        if self._tweets is None:
            return None
        return self._tweets.find_in(prompt)

    def _instructions(
        self, prompt: str, tweet: Tweet | None
    ) -> tuple[str, PromptFeatures]:
        """The prompt's instruction portion, item text removed, and its features.

        Criteria and quality features must come from what the prompt *asks*,
        not from words that happen to appear in the item itself (a tweet
        about school must not flip the prompt into a school filter).
        Every item of a batch leaves the same instructions behind, so
        their features are remembered by text; a miss (say, an item-unique
        lead) analyses the stripped segments, reusing the chunks' work.
        """
        stripped = prompt
        if tweet is not None:
            stripped = prompt.replace(tweet.text, "").replace(tweet.clean_text, "")
        entry = self._instruction_memo.get(stripped)
        if entry is None:
            if len(self._instruction_memo) >= _INSTRUCTION_MEMO:
                self._instruction_memo.clear()
            features = prompt_features(
                stripped if tweet is None else _strip_segments(prompt, tweet, stripped)
            )
            # Keyed by plain text: the memo must not keep a binding's chunks alive.
            entry = self._instruction_memo[str(stripped)] = [features, None, None]
        return stripped, entry[0]

    def _locate_patient(self, prompt: str) -> Patient | None:
        if self._clinical is None:
            return None
        return self._clinical.find_patient_in(prompt)

    def _apply_word_limit(self, text: str, features: PromptFeatures) -> str:
        if not features.has_word_limit:
            return text
        words = text.split()
        if len(words) <= 30:
            return text
        return " ".join(words[:30])

    # -- summarize (Map) -----------------------------------------------------------

    def _summary_for(
        self, prompt: str, features: PromptFeatures, tweet: Tweet | None
    ) -> tuple[str, float, bool]:
        """Produce a summary; returns (text, p_error, degraded)."""
        if tweet is None:
            # Rule-based cleanup of whatever text followed the instruction.
            payload = prompt.splitlines()[-1] if prompt.splitlines() else prompt
            cleaned = re.sub(r"https?://\S+|[@#]\w+", "", payload).strip()
            return cleaned or "(empty)", self.profile.base_error, False
        p_error = error_rate(features, self.profile, difficulty=tweet.difficulty)
        degraded = noisy_bool(
            True, p_error, tweet.uid + "#sum", features.fingerprint(), self.profile.name
        ) is False
        summary = tweet.clean_text
        if degraded:
            # A weak summary stays on-topic but hedges; downstream stages
            # can still ground it (the clean text survives as a substring).
            summary = summary + " (unclear)"
        return self._apply_word_limit(summary, features), p_error, degraded

    def _run_summarize(self, prompt: str) -> TaskOutput:
        tweet = self._locate_tweet(prompt)
        _, features = self._instructions(prompt, tweet)
        summary, p_error, degraded = self._summary_for(prompt, features, tweet)
        uid = tweet.uid if tweet is not None else "unknown"
        return TaskOutput(
            task="summarize",
            text=summary,
            confidence=confidence_for(
                p_error, uid, features.fingerprint(), self.profile.name
            ),
            extras={"degraded": degraded, "item_uid": uid},
        )

    # -- classify / filter ------------------------------------------------------------

    def _predicate_terms(self, prompt: str, features: PromptFeatures) -> dict[str, bool]:
        """Which criteria the prompt asks the filter to apply."""
        entry = self._instruction_memo[prompt]
        if entry[1] is None:  # lowered on first use, kept beside the features
            entry[1] = "negative" in prompt.lower()
        return {
            "negative": entry[1],
            "school": any(
                term in features.hint_terms
                for term in ("school", "class", "exam", "homework", "teacher")
            ),
        }

    def _true_decision(self, tweet: Tweet | None, prompt: str, terms: dict[str, bool]) -> bool:
        if tweet is not None:
            decision = True
            if terms["negative"]:
                decision = decision and tweet.is_negative
            if terms["school"]:
                decision = decision and tweet.school_related
            return decision
        # Ungrounded input: fall back to lexicons over the prompt payload.
        decision = True
        if terms["negative"]:
            decision = decision and _lexicon_sentiment(prompt) == "negative"
        if terms["school"]:
            decision = decision and _lexicon_school(prompt)
        return decision

    def _run_classify(self, prompt: str) -> TaskOutput:
        tweet = self._locate_tweet(prompt)
        instructions, features = self._instructions(prompt, tweet)
        terms = self._predicate_terms(instructions, features)
        correct = self._true_decision(tweet, prompt, terms)
        difficulty = tweet.difficulty if tweet is not None else 0.5
        uid = tweet.uid if tweet is not None else "unknown"
        p_error = error_rate(features, self.profile, difficulty=difficulty)
        decision = noisy_bool(
            correct, p_error, uid + "#cls", features.fingerprint(), self.profile.name
        )
        label = "yes" if decision else "no"
        return TaskOutput(
            task="classify",
            text=f"Label: {label}",
            confidence=confidence_for(
                p_error, uid + "#cls", features.fingerprint(), self.profile.name
            ),
            extras={"decision": decision, "item_uid": uid, "criteria": terms},
        )

    # -- fused map+filter -------------------------------------------------------------

    def _run_fused(self, prompt: str) -> TaskOutput:
        tweet = self._locate_tweet(prompt)
        instructions, features = self._instructions(prompt, tweet)
        entry = self._instruction_memo[instructions]
        if entry[2] is None:  # lowered on first use, kept beside the features
            entry[2] = _fused_order(instructions.lower())
        order = entry[2]
        terms = self._predicate_terms(instructions, features)
        correct = self._true_decision(tweet, prompt, terms)
        difficulty = tweet.difficulty if tweet is not None else 0.5
        uid = tweet.uid if tweet is not None else "unknown"
        p_error = error_rate(
            features, self.profile, fused_order=order, difficulty=difficulty
        )
        decision = noisy_bool(
            correct, p_error, uid + "#fused", features.fingerprint(), self.profile.name
        )
        label = "yes" if decision else "no"
        if order == "filter_map" and not decision:
            # Filter-first fused prompts skip the summary for dropped items,
            # but still emit the structured scaffold.
            text = f"Label: {label}\nSummary: N/A"
            summary = None
        else:
            summary, __, __ = self._summary_for(prompt, features, tweet)
            text = f"Label: {label}\nSummary: {summary}"
        return TaskOutput(
            task="fused",
            text=text,
            confidence=confidence_for(
                p_error, uid + "#fused", features.fingerprint(), self.profile.name
            ),
            extras={
                "decision": decision,
                "summary": summary,
                "order": order,
                "item_uid": uid,
            },
        )

    # -- clinical QA --------------------------------------------------------------------

    def _run_qa(self, prompt: str) -> TaskOutput:
        patient = self._locate_patient(prompt)
        if patient is None:
            return TaskOutput(
                task="qa",
                text="No patient chart found in the provided context.",
                confidence=0.2,
                extras={"fields": {}},
            )
        lowered = prompt.lower()
        # The chart is the item, so QA reads the features of the whole prompt.
        features = prompt_features(prompt)
        p_error = error_rate(features, self.profile, difficulty=patient.difficulty)
        fingerprint = features.fingerprint()
        rng = item_rng(patient.patient_id + "#qa", fingerprint, self.profile.name)

        if not patient.on_enoxaparin:
            return TaskOutput(
                task="qa",
                text=(
                    f"Patient {patient.patient_id}: no Enoxaparin use is "
                    "documented in the chart."
                ),
                confidence=confidence_for(
                    p_error, patient.patient_id, fingerprint, self.profile.name
                ),
                extras={"fields": {"administered": False}},
            )

        # A field is reported when the prompt asks for it explicitly;
        # otherwise the model includes it only sometimes — the §2
        # "inconsistent outputs" behaviour that motivates refinement.
        # Crucially, a value is only extractable when its evidence is
        # actually present in the supplied context: a model cannot read
        # what retrieval (or context truncation) dropped.
        fields: dict[str, Any] = {"administered": True}
        parts = [f"Patient {patient.patient_id} received Enoxaparin"]
        for field_name, value, terms in (
            ("dosage", patient.dosage, ("dosage", "dose", "mg")),
            ("timing", patient.timing, ("timing", "48 hours", "last administered", "when")),
            ("indication", patient.indication, ("indication", "why", "reason", "justification")),
        ):
            asked = any(term in lowered for term in terms)
            included = asked or rng.random() < 0.45
            if not included:
                continue
            if value is not None and value.lower() not in lowered:
                fields[field_name] = None
                parts.append(f"{field_name}: (not found in the provided notes)")
                continue
            reported = value
            if noisy_bool(
                True,
                p_error,
                f"{patient.patient_id}#{field_name}",
                fingerprint,
                self.profile.name,
            ) is False:
                reported = "(uncertain)"
            fields[field_name] = reported
            parts.append(f"{field_name}: {reported}")

        confidence = confidence_for(
            p_error, patient.patient_id, fingerprint, self.profile.name
        )
        # Missing structured orders in the supplied context lowers
        # confidence — the trigger for the Missing Order Retrieval pattern.
        if "ORDER:" not in prompt:
            confidence = max(confidence - 0.25, 0.05)
        if features.has_reasoning and "indication" in fields:
            parts.append(
                f"rationale: the indication ({fields['indication']}) supports "
                "anticoagulation per chart review"
            )
        return TaskOutput(
            task="qa",
            text="; ".join(parts) + ".",
            confidence=confidence,
            extras={"fields": fields, "item_uid": patient.patient_id},
        )

    # -- prompt rewriting (assisted / agentic refinement) ----------------------------------

    def _run_rewrite(self, prompt: str) -> TaskOutput:
        original: str | None = None
        if PROMPT_BLOCK_START in prompt and PROMPT_BLOCK_END in prompt:
            start = prompt.index(PROMPT_BLOCK_START) + len(PROMPT_BLOCK_START)
            end = prompt.index(PROMPT_BLOCK_END)
            original = prompt[start:end].strip()
        hint_match = _HINT_RE.search(prompt)
        objective_match = _OBJECTIVE_RE.search(prompt)
        hint = hint_match.group(1).strip() if hint_match else None
        objective = objective_match.group(1).strip() if objective_match else None

        if original is None:
            rewritten = self._agentic_prompt(objective or prompt)
            mode = "agentic"
        elif hint is not None:
            rewritten = self._assisted_rewrite(original, hint)
            mode = "assisted"
        else:
            rewritten = self._auto_rewrite(original, objective)
            mode = "auto"
        return TaskOutput(
            task="rewrite",
            text=rewritten,
            confidence=0.9,
            extras={"mode": mode, "original": original},
        )

    @staticmethod
    def _agentic_prompt(objective: str) -> str:
        """A from-scratch prompt written for the stated objective.

        Mimics a capable model: elaborated criteria, an example, and an
        output-format clause.  The generated prompt leads with the item
        (``{tweet}`` placeholder first) — it shares no prefix with any
        stored view and, item-first, cannot benefit from prefix caching
        across items either (paper Table 3: 0% hits).
        """
        return (
            "Consider this tweet:\n"
            "{tweet}\n"
            f"Task objective: {objective}\n"
            "Decide whether the tweet satisfies the objective using these criteria:\n"
            "- the expressed sentiment is negative\n"
            "- the topic concerns school, classes, exams, teachers, or homework\n"
            "- ignore sarcasm-free positive mentions\n"
            "Example: 'so stressed about the math exam' -> yes\n"
            "Respond with yes or no only, using at most 5 words.\n"
        )

    @staticmethod
    def _assisted_rewrite(original: str, hint: str) -> str:
        """Rewrite of a stored view given a refinement hint.

        A real model restates part of the scaffold, so the rewrite keeps
        the original text but inserts a restated-objective clause before
        the final section — preserving most (not all) of the cacheable
        prefix, which yields the intermediate cache-hit rate of Table 3.
        """
        lines = original.splitlines()
        cut = max(len(lines) - 2, 0)
        inserted = (
            f"Restated objective: {hint}. Apply the above instructions with "
            "particular attention to this refinement."
        )
        rewritten_lines = lines[:cut] + [inserted] + lines[cut:]
        rewritten_lines.append(f"Additionally, focus on {hint}.")
        rewritten_lines.append(f"{POST_ITEM_MARKER} keep the stated focus in mind.")
        return "\n".join(rewritten_lines)

    @staticmethod
    def _auto_rewrite(original: str, objective: str | None) -> str:
        """Automatic refinement: append objective-derived criteria.

        Pure append keeps the entire original as a cacheable prefix; the
        derived criteria lift accuracy — together this is why Auto wins
        both speed and F1 in Table 3.
        """
        goal = objective or "the stated task"
        return (
            f"{original}\n"
            f"High-level objective: {goal}.\n"
            "Derived criteria:\n"
            "- keep items whose sentiment is clearly negative\n"
            "- keep only items about school, exams, classes, or homework\n"
            "Respond with yes or no only."
        )

    # -- fused multi-GEN sections (paper §5, GEN fusion) --------------------------------------

    def _run_sections(self, prompt: str) -> TaskOutput:
        """Answer each "### Section k" block independently, in one call.

        This is the behaviour GEN fusion relies on: semantically coupled
        generations (sections over the same context) share one invocation;
        the combined output re-emits the section markers for splitting.
        """
        header, *blocks = prompt.split(SECTION_MARKER)
        outputs: list[TaskOutput] = []
        for block in blocks:
            # Drop the "k:" tag on the marker line; keep the body.
            first_line, __, body = block.partition("\n")
            section_prompt = f"{header}\n{body}".strip()
            outputs.append(self.run(section_prompt))
        combined = "\n".join(
            f"{SECTION_MARKER} {index + 1}\n{output.text}"
            for index, output in enumerate(outputs)
        )
        confidence = min(
            (output.confidence for output in outputs), default=0.5
        )
        return TaskOutput(
            task="sections",
            text=combined,
            confidence=confidence,
            extras={
                "sections": [output.text for output in outputs],
                "section_tasks": [output.task for output in outputs],
                "section_confidences": [output.confidence for output in outputs],
            },
        )

    # -- fallback ---------------------------------------------------------------------------

    def _run_freeform(self, prompt: str) -> TaskOutput:
        payload = prompt.strip().splitlines()
        tail = payload[-1] if payload else ""
        return TaskOutput(
            task="freeform",
            text=f"Acknowledged: {tail[:80]}",
            confidence=0.5,
            extras={},
        )

    _HANDLERS = {
        "sections": _run_sections,
        "summarize": _run_summarize,
        "classify": _run_classify,
        "fused": _run_fused,
        "qa": _run_qa,
        "rewrite": _run_rewrite,
        "freeform": _run_freeform,
    }
