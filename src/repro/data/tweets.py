"""Synthetic Sentiment140-like tweet corpus.

The paper samples 1K tweets (balanced positive/negative) from Sentiment140
for its §7 experiments.  The dataset is not shipped here, so we generate a
seeded synthetic stand-in with the properties the experiments depend on:

- balanced (or parameterized) sentiment labels — the Filter stage's
  selectivity knob for Table 4;
- a school-related topical attribute — the refinement target in Table 3;
- noisy surface text (handles, hashtags, URLs, elongations) that the Map
  ("clean up / summarize") stage meaningfully transforms;
- a per-item difficulty in [0, 1] scaling the simulated model's error rate;
- exact ground truth for F1 computation.

Negative tweets are generated slightly longer than positive ones (rants
run long), which yields the mild selectivity-dependence of fused Map→Filter
latency the paper observes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

__all__ = ["Tweet", "TweetCorpus", "make_tweet_corpus"]

from repro.data import vocab


@dataclass(frozen=True)
class Tweet:
    """One labelled synthetic tweet."""

    uid: str
    text: str
    #: the "ideal" cleaned/summarized form the Map stage should produce.
    clean_text: str
    sentiment: str  # "positive" | "negative"
    school_related: bool
    difficulty: float  # in [0, 1]; scales simulated model error

    @property
    def is_negative(self) -> bool:
        """Convenience predicate used by filter stages."""
        return self.sentiment == "negative"


class TweetCorpus:
    """A list of tweets plus the lookup indexes the task engine needs."""

    def __init__(self, tweets: list[Tweet]) -> None:
        self.tweets = list(tweets)
        self.by_uid: dict[str, Tweet] = {tweet.uid: tweet for tweet in tweets}
        #: exact surface-text index — the simulated model "recognizes" a
        #: tweet embedded in a prompt by matching this index.
        self.by_text: dict[str, Tweet] = {tweet.text: tweet for tweet in tweets}
        self.by_clean_text: dict[str, Tweet] = {
            tweet.clean_text: tweet for tweet in tweets
        }

    @cached_property
    def content_digest(self) -> str:
        """Digest of every tweet, equal for equal corpora in any process.

        Result-cache keys name a bound corpus by this, never by ``id()``:
        a freed corpus's address can come back for one with other tweets.
        Computed once: a corpus is not mutated after construction (its
        lookup indexes are built once too).
        """
        payload = "\n".join(map(repr, self.tweets)).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.tweets)

    def __iter__(self):
        return iter(self.tweets)

    def __getitem__(self, index: int) -> Tweet:
        return self.tweets[index]

    def find_in(self, text: str) -> Tweet | None:
        """Locate a corpus tweet whose surface or clean text occurs in ``text``.

        Used by the simulated model to ground a prompt against the corpus.
        Prompts place the item on its own line, so the fast path is an
        exact per-line dictionary lookup (surface text first, then clean
        text for pipeline-intermediate summaries); a linear substring scan
        is the fallback for free-form prompts.
        """
        lines = [line.strip() for line in text.splitlines()]
        for index in (self.by_text, self.by_clean_text):
            for line in lines:
                if line in index:
                    return index[line]
        for index in (self.by_text, self.by_clean_text):
            for candidate, tweet in index.items():
                if candidate and candidate in text:
                    return tweet
        return None

    # -- ground-truth helpers -------------------------------------------------

    def negatives(self) -> list[Tweet]:
        """All negative tweets."""
        return [tweet for tweet in self.tweets if tweet.is_negative]

    def school_negatives(self) -> list[Tweet]:
        """All negative, school-related tweets (Table 3's target set)."""
        return [
            tweet
            for tweet in self.tweets
            if tweet.is_negative and tweet.school_related
        ]

    def selectivity(self, predicate) -> float:
        """Fraction of tweets satisfying ``predicate``."""
        if not self.tweets:
            return 0.0
        return sum(1 for tweet in self.tweets if predicate(tweet)) / len(self.tweets)


def _noisify(rng: random.Random, sentence: str) -> str:
    """Add tweet-style noise: handles, hashtags, URLs, elongations, case."""
    parts = [sentence]
    if rng.random() < 0.5:
        parts.insert(0, rng.choice(vocab.NOISE_HANDLES))
    if rng.random() < 0.6:
        parts.append(rng.choice(vocab.NOISE_HASHTAGS))
    if rng.random() < 0.25:
        parts.append(f"http://t.co/{rng.randrange(16**6):06x}")
    text = " ".join(parts)
    if rng.random() < 0.3:
        text = text.replace("so ", "soooo ", 1)
    if rng.random() < 0.2:
        text = text.upper() if rng.random() < 0.3 else text
    return text


_WHEN_CLAUSES = (
    "this morning",
    "this afternoon",
    "tonight",
    "all week",
    "again today",
    "right now",
    "since yesterday",
    "lately",
)

_RANT_CLAUSES = ("done", "over it", "so tired", "beyond frustrated", "at my limit")


def _make_tweet(rng: random.Random, index: int, negative: bool, school: bool) -> Tweet:
    phrase = rng.choice(
        vocab.NEGATIVE_PHRASES if negative else vocab.POSITIVE_PHRASES
    )
    topic = rng.choice(vocab.SCHOOL_TOPICS if school else vocab.GENERAL_TOPICS)
    # The trailing clause keeps surface texts near-unique at corpus scale,
    # like real tweets (identical tweets would let the prefix cache serve
    # whole items, inflating hit rates).
    sentence = f"{phrase} {topic} {rng.choice(_WHEN_CLAUSES)}"
    if negative:
        # Negative tweets rant on — extra clause makes them longer, which
        # drives the mild selectivity-dependence of fused-call decode cost.
        sentence += f", honestly {rng.choice(_RANT_CLAUSES)}"
    clean = sentence[0].upper() + sentence[1:] + "."
    return Tweet(
        uid=f"t{index:05d}",
        text=_noisify(rng, sentence),
        clean_text=clean,
        sentiment="negative" if negative else "positive",
        school_related=school,
        difficulty=round(rng.random(), 4),
    )


def make_tweet_corpus(
    n: int = 1000,
    *,
    seed: int = 7,
    negative_fraction: float = 0.5,
    school_fraction: float = 0.5,
) -> TweetCorpus:
    """Generate a seeded corpus of ``n`` tweets.

    Args:
        n: corpus size (the paper uses 1000).
        seed: RNG seed; same seed → identical corpus.
        negative_fraction: fraction of tweets with negative sentiment —
            this is the Filter stage's selectivity in Table 4.
        school_fraction: fraction of tweets that are school-related,
            independently of sentiment.
    """
    if not 0.0 <= negative_fraction <= 1.0:
        raise ValueError(f"negative_fraction must be in [0, 1]: {negative_fraction}")
    if not 0.0 <= school_fraction <= 1.0:
        raise ValueError(f"school_fraction must be in [0, 1]: {school_fraction}")
    rng = random.Random(seed)
    n_negative = round(n * negative_fraction)
    n_school = round(n * school_fraction)
    flags = [
        (index < n_negative, index_school < n_school)
        for index, index_school in zip(range(n), _shuffled_range(rng, n))
    ]
    tweets = [
        _make_tweet(rng, index, negative, school)
        for index, (negative, school) in enumerate(flags)
    ]
    rng.shuffle(tweets)
    return TweetCorpus(tweets)


def _shuffled_range(rng: random.Random, n: int) -> list[int]:
    indexes = list(range(n))
    rng.shuffle(indexes)
    return indexes
