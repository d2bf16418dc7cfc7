"""Seeded input generators: the only load the program under test ever sees.

Every generator is a pure function of its arguments, so the same
``--seed`` gives byte-identical inputs (``digest`` proves it in the
output JSON).  The prompt texts are part of the workload definition and
live here rather than being imported from ``repro.experiments``: the
benchmark must keep measuring the same load when the library's demo
constants move.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Iterator

from repro.data import make_tweet_corpus

PROFILE = "qwen2.5-7b-instruct"

#: The paper's reusable pipeline view V: 102 words of stable guidance that
#: every Table-3 prompt front-loads, which is what makes them prefix-cacheable.
SCAFFOLD = """### Task
You are given one tweet from a public social media stream.
General guidance:
- Read the whole tweet before deciding anything.
- Ignore handles (like @someone), hashtags, and links when judging content.
- Treat elongated words (soooo) and shouting case as emphasis, not meaning.
- Judge only what the text itself expresses, not what it implies about the author.
- If the tweet quotes someone else, treat the quoted words as part of the tweet.
- Do not invent information that is not present in the tweet.
- Give your answer in exactly the requested format with no extra commentary."""

MAP_INSTRUCTION = (
    "Summarize and clean up the tweet in at most 30 words, removing "
    "handles, hashtags, and links."
)
FILTER_INSTRUCTION = (
    "Select the tweet only if its sentiment is negative. "
    "Respond with yes or no."
)
ENRICH_INSTRUCTION = (
    "List the key topics and entities the tweet mentions, one per line."
)
DIGEST_INSTRUCTION = (
    "Condense the summary above into a single factual takeaway sentence."
)

#: APPEND-a-constraint edits, the dominant prompt-evolution move in real
#: repositories (Tafreshipour et al., *Prompting in the Wild*).
REFINEMENT_HINTS = (
    "Focus on school-related content such as classes and exams.",
    "Also count complaints about teachers and homework as school-related.",
    "Ignore sarcasm-free positive mentions of school events.",
    "Treat exam-stress venting as negative school content.",
)

#: Shared-scaffold prompts (table3_wide, serve_mixed): the item comes last.
WIDE_PROMPTS = {
    "map_p": SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}",
    "filter_p": SCAFFOLD + "\n" + FILTER_INSTRUCTION + "\nTweet:\n{tweet}",
}
#: Item-first prompts (hol_mixed): nothing is shared across items.
HOL_PROMPTS = {
    "map_p": "{lead}Tweet:\n{tweet}\n" + MAP_INSTRUCTION,
    "filter_p": "{lead}Tweet:\n{tweet}\n" + FILTER_INSTRUCTION,
}
#: Refinement-loop prompts: three heavy upstream stages, one short filter.
REFINE_PROMPTS = {
    "map_p": SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}",
    "enrich_p": SCAFFOLD + "\n" + ENRICH_INSTRUCTION + "\nTweet:\n{tweet}",
    "digest_p": SCAFFOLD + "\nSummary:\n{summary}\n" + DIGEST_INSTRUCTION,
    "filter_p": FILTER_INSTRUCTION + "\nTweet:\n{tweet}",
}

# Words no feature regex or task router reacts to, so a lead only adds
# prefill tokens and never changes what the simulated model is asked.
_LEAD_WORDS = (
    "harbor lantern willow granite meadow copper saddle orchard ribbon "
    "thimble candle pebble marble timber canvas velvet garden kettle "
    "bridge valley meadowlark cobble anchor barley cedar dune ember fern "
    "gable heron inlet juniper kelp larch moss nettle oak pier quartz "
    "reed slate tarn umber vale wharf yarrow zinc"
).split()


def digest(payload: Any) -> str:
    """Content hash of generated inputs (JSON-serialisable)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def tweet_items(n: int, seed: int) -> tuple[Any, list[dict[str, str]]]:
    """A seeded corpus plus its items as mappings for the default binder."""
    corpus = make_tweet_corpus(n, seed=seed)
    return corpus, [{"tweet": tweet.text} for tweet in corpus]


def hol_items(
    n: int, seed: int, *, lead_words: int = 400
) -> tuple[Any, list[dict[str, str]]]:
    """One interactive item, then three bulk items with an item-unique lead.

    An item is interactive exactly when its lead is empty.
    """
    corpus = make_tweet_corpus(n, seed=seed)
    rng = random.Random(seed * 7919 + 1)
    items = []
    for index, tweet in enumerate(corpus):
        lead = ""
        if index % 4:
            words = [rng.choice(_LEAD_WORDS) for _ in range(lead_words)]
            lead = f"Note {index}: " + " ".join(words) + "\n"
        items.append({"lead": lead, "tweet": tweet.text})
    return corpus, items


def _tweet_stream(
    rng: random.Random, corpus_size: int, repeat_share: float
) -> Iterator[int]:
    """One tenant's tweet indexes: ``repeat_share`` of them seen before."""
    fresh = list(range(corpus_size))
    rng.shuffle(fresh)
    seen: list[int] = []
    while True:
        if seen and (not fresh or rng.random() < repeat_share):
            yield rng.choice(seen)
        else:
            seen.append(fresh.pop())
            yield seen[-1]


def tenant_bursts(
    tenants: int, per_tenant: int, corpus_size: int, seed: int,
    *, repeat_share: float = 0.3,
) -> list[tuple[int, int]]:
    """Closed-phase load: ``(tenant, tweet)`` pairs, round-robin by tenant."""
    streams = [
        _tweet_stream(random.Random(seed * 104729 + t), corpus_size, repeat_share)
        for t in range(tenants)
    ]
    return [
        (t, next(streams[t])) for _ in range(per_tenant) for t in range(tenants)
    ]


def poisson_arrivals(
    n: int, rate: float, tenants: int, corpus_size: int, seed: int,
    *, repeat_share: float = 0.3,
) -> list[tuple[float, int, int]]:
    """Open-phase load: ``(due_s, tenant, tweet)`` at a fixed mean rate."""
    rng = random.Random(seed * 15485863 + 3)
    streams = [
        _tweet_stream(random.Random(seed * 32452843 + t), corpus_size, repeat_share)
        for t in range(tenants)
    ]
    due = 0.0
    schedule = []
    for _ in range(n):
        due += rng.expovariate(rate)
        tenant = rng.randrange(tenants)
        schedule.append((due, tenant, next(streams[tenant])))
    return schedule


# -- SPEAR-DL programs with known-answer defects -----------------------------

#: The injected defect codes; a program carries at most one.
DEFECT_CODES = ("SPEAR101", "SPEAR111", "SPEAR121")

_TOPICS = ("dosage", "timeline", "allergies", "follow-up", "contraindications")
_ADVICE = (
    "Cite the exact source line.",
    "Keep the answer under three sentences.",
    "State any uncertainty explicitly.",
    "Prefer the most recent record.",
)


def _dl_program(
    rng: random.Random, index: int, stages: int, defect: str | None
) -> str:
    name = f"prog_{index}"
    lines = [
        f"view base_{index}() {{",
        '  """Answer from the provided material only; do not invent facts."""',
        "}",
        "",
        f"view ask_{index}(topic) extends base_{index} {{",
        '  """Question: what does the record say about {topic}?',
        "Material:",
        '{notes}"""',
        "  tags: qa, generated",
        "}",
        "",
        f"pipeline {name} {{",
        f'  RET["notes", query="record-{index}", into="notes"]',
    ]
    body: list[str] = []
    # The most recent prompt key and output label, threaded stage to stage
    # so every prompt is consumed and every slot is written before read.
    key, label = "", "notes"
    for stage in range(stages):
        kind = rng.choice(("plain", "view", "refine", "retry", "guard", "merge"))
        threshold = rng.choice((0.5, 0.6, 0.7, 0.8))
        advice = rng.choice(_ADVICE)
        if kind == "view" or not key:
            key = f"qa_{stage}"
            topic = rng.choice(_TOPICS)
            body.append(
                f'VIEW["ask_{index}", key="{key}", params={{topic: "{topic}"}}]'
            )
        elif kind == "plain":
            key = f"p_{stage}"
            body.append(
                f'REF[CREATE, "Review the draft below and improve it. '
                f'{advice}\\nDraft:\\n{{{label}}}", key="{key}"]'
            )
        elif kind == "refine":
            body.append(
                f'CHECK[M["confidence"] < {threshold}] -> '
                f'REF[APPEND, "{advice}", key="{key}", mode="manual"]'
            )
        elif kind == "retry":
            label = f"out_{stage}"
            body.append(
                f'RETRY[GEN["{label}", prompt="{key}"], '
                f'M["confidence"] < {threshold}, '
                f'refine=REF[APPEND, "{advice}", key="{key}"], '
                f"max_retries={rng.randint(1, 3)}]"
            )
            continue
        elif kind == "guard":
            slot = f"extra_{stage}"
            body.append(f'RET["lookup", query="record-{index}", into="{slot}"]')
            body.append(
                f'CHECK[M["confidence"] < {threshold}] -> '
                f'REF[APPEND, "Structured data:\\n{{{slot}}}", key="{key}"]'
            )
        else:  # merge the current prompt with a fresh sibling
            sibling, merged = f"alt_{stage}", f"merged_{stage}"
            body.append(f'REF[CREATE, "{advice} Use:\\n{{{label}}}", key="{sibling}"]')
            body.append(
                f'MERGE["{key}", "{sibling}", into="{merged}", strategy="concat"]'
            )
            key = merged
        label = f"out_{stage}"
        body.append(f'GEN["{label}", prompt="{key}"]')

    if defect is not None:
        at = rng.randrange(len(body) + 1)
        if defect == "SPEAR101":
            injected = [f'GEN["ghost_out", prompt="ghost_prompt_{index}"]']
        elif defect == "SPEAR111":
            # Read a slot whose only writer comes after the reader.
            injected = [
                f'REF[CREATE, "Latest data: {{late_{index}}}", key="late_p"]',
                'GEN["late_out", prompt="late_p"]',
                f'RET["lookup", query="late", into="late_{index}"]',
            ]
        else:
            injected = ['REF[CREATE, "Scratch notes nobody reads.", key="orphan_p"]']
        body[at:at] = injected
    lines.extend("  " + statement for statement in body)
    lines.append("}")
    return "\n".join(lines) + "\n"


def dl_programs(n: int, seed: int) -> list[tuple[str, str | None]]:
    """``(source, injected defect code or None)``; one third are defective."""
    rng = random.Random(seed * 6700417 + 5)
    # Stage counts cover 5..60 evenly and only their order is seeded, so
    # every seed checks the same amount of program.
    stages = [5 + round(55 * index / max(1, n - 1)) for index in range(n)]
    rng.shuffle(stages)
    programs = []
    for index in range(n):
        defect = DEFECT_CODES[(index // 3) % 3] if index % 3 == 2 else None
        programs.append((_dl_program(rng, index, stages[index], defect), defect))
    return programs
