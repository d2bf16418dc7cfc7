"""Features on demand: routing and task outputs equal the eager path.

A GEN call tokenizes its prompt once and builds no whole-prompt
``PromptFeatures``: the router reads its chunks' memoised marker hits and
scans only the windows around the slots, tweet tasks read the memoised
features of their instructions, and only clinical QA analyses the whole
prompt.  The
eager router and engine kept in ``reference_route.py`` are the oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as spear
from repro.core import Context
from repro.core.entry import CompiledTemplate, RenderedPrompt, StaticChunk
from repro.data import make_clinical_corpus, make_tweet_corpus
from repro.llm import features as features_module
from repro.llm import model as model_module
from repro.llm import tasks as tasks_module
from repro.llm.features import extract_features
from repro.llm.profiles import get_profile
from repro.llm.tasks import (
    POST_ITEM_MARKER,
    PROMPT_BLOCK_END,
    PROMPT_BLOCK_START,
    SECTION_MARKER,
    TaskEngine,
    route_task,
)
from repro.runtime.parallel import ParallelBatchRunner
from tests.llm.reference_route import EagerEngine, reference_route
from tests.runtime import table3_workload as table3

PROFILE = get_profile("qwen2.5-7b-instruct")

#: Every literal the router tests, then text that folds in surprising ways.
_MARKERS = (
    SECTION_MARKER, "### SECTION 2:", "improve the prompt", "Rewrite the prompt",
    "refine the prompt", "write a prompt", "refine the following prompt",
    "Enoxaparin", "medication history", "summarize", "Summarise", "clean up",
    "clean the", "negative", "NEGATIVE", "positive", "Sentiment", "filter",
    "select", "CLASSIFY", "hint: now", "Criteria:", "- be brief",
)
_TRAPS = (
    "İ", "ſ", "ſentiment", "negatİve", "ΟΔΟΣ", "Σ", "naïve", "ﬁlter", "ß",
)
_PIECES = st.one_of(
    st.sampled_from(_MARKERS + _TRAPS),
    st.text(max_size=12),
)
_SEPARATORS = st.sampled_from(["", " ", "\n", ". "])


@st.composite
def _prompts(draw) -> str:
    pieces = draw(st.lists(_PIECES, max_size=8))
    return "".join(piece + draw(_SEPARATORS) for piece in pieces)


@settings(max_examples=400, deadline=None)
@given(_prompts())
def test_route_equals_the_eager_router(prompt):
    assert route_task(prompt) == reference_route(prompt, extract_features(prompt))


@pytest.mark.parametrize(
    "prompt, task",
    [
        ("Is the SENTIMENT of this tweet positive?", "classify"),
        ("Tell me: NEGATIVE or not?", "classify"),
        ("ſentiment only", "freeform"),  # ``ſ`` lowers to itself
        ("Summarize it. ΣΕΝΤΙΜΕΝΤ", "summarize"),
    ],
)
def test_case_folding_traps(prompt, task):
    assert route_task(prompt) == task
    assert reference_route(prompt, extract_features(prompt)) == task


def _handler_prompts(seed: int) -> dict[str, str]:
    """One seeded prompt per handler, grounded in the seeded corpora."""
    rng = random.Random(seed)
    tweet = rng.choice(list(make_tweet_corpus(40, seed=seed)))
    patient = rng.choice(
        [p for p in make_clinical_corpus(12, seed=seed) if p.on_enoxaparin]
    )
    notes = "\n".join(note.text for note in patient.notes)
    orders = "\n".join(
        f"ORDER: {order.medication} {order.dosage}" for order in patient.orders
    )
    return {
        "summarize": (
            "Summarize and clean up the tweet in at most 30 words.\n"
            f"Tweet:\n{tweet.text}"
        ),
        "classify": (
            "Select the tweet only if its sentiment is negative. Focus on "
            f"school.\nRespond with yes or no.\nTweet:\n{tweet.text}"
        ),
        "fused": (
            "Select the tweet if the sentiment is negative, then summarize "
            f"it.\nTweet:\n{tweet.text}\n{POST_ITEM_MARKER} be brief."
        ),
        "qa": (
            f"Medication history for patient {patient.patient_id}: was "
            "Enoxaparin given? Report the dosage and the reason, step by "
            f"step.\nNotes:\n{notes}\n{orders}"
        ),
        "rewrite": (
            f"Improve the prompt below.\n{PROMPT_BLOCK_START}\nClassify the "
            f"tweet.\n{PROMPT_BLOCK_END}\nRefinement hint: school exams"
        ),
        "sections": (
            f"Tweet:\n{tweet.text}\n{SECTION_MARKER} 1:\nSummarize the tweet."
            f"\n{SECTION_MARKER} 2:\nClassify whether its sentiment is negative."
        ),
        "freeform": f"Hello there.\n{tweet.text}",
    }


@pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])
@pytest.mark.parametrize("seed", [7, 11])
def test_engine_equals_the_eager_engine(seed, bound):
    engines = [TaskEngine(PROFILE), EagerEngine(PROFILE)]
    if bound:
        for engine in engines:
            engine.bind_tweets(make_tweet_corpus(40, seed=seed))
            engine.bind_clinical(make_clinical_corpus(12, seed=seed))
    for task, prompt in _handler_prompts(seed).items():
        lazy, eager = (engine.run(prompt) for engine in engines)
        assert route_task(prompt) == task
        assert lazy.task == eager.task == task
        assert lazy.text == eager.text, task
        assert lazy.confidence == eager.confidence, task
        assert lazy.extras == eager.extras, task


# -- how often a whole prompt is analysed ------------------------------------


@pytest.fixture
def analysed(monkeypatch):
    """Every text ``prompt_features`` analyses where tasks or the model call it."""
    seen: list[str] = []
    real = features_module.prompt_features

    def counting(prompt):
        seen.append(str(prompt))
        return real(prompt)

    monkeypatch.setattr(tasks_module, "prompt_features", counting)
    monkeypatch.setattr(model_module, "prompt_features", counting, raising=False)
    return seen


def _instruction_texts(monkeypatch) -> set[str]:
    """The instruction texts the engine asks features of, as they are seen."""
    texts: set[str] = set()
    real = TaskEngine._instructions

    def recording(self, prompt, tweet):
        stripped, features = real(self, prompt, tweet)
        texts.add(str(stripped))
        return stripped, features

    monkeypatch.setattr(TaskEngine, "_instructions", recording)
    return texts


def _parallel(n_items: int):
    state, items = table3.build_state(n_items)
    ParallelBatchRunner(state, bind=table3.bind, workers=16).run(
        table3.pipeline(), items=items
    )
    return state.model


def _sequential(n_items: int):
    state, items = table3.build_state(n_items)
    executor = spear.Executor(
        options=spear.RuntimeOptions(model=state.model, clock=state.clock)
    )
    executor.run(table3.pipeline(), items=items, state=state)
    return state.model


@pytest.mark.parametrize(
    "run", [_parallel, _sequential], ids=["parallel", "executor"]
)
def test_features_per_instruction_text_not_per_call(run, analysed, monkeypatch):
    instructions = _instruction_texts(monkeypatch)
    small = run(12)
    per_small = len(analysed)
    analysed.clear()
    model = run(48)
    # One analysis per memo miss: at most one per instruction text, however
    # many GEN calls ran, and none of them a whole rendered prompt.
    assert model.calls == 96 and small.calls == 24
    assert 1 <= len(analysed) <= len(instructions) == 2
    assert len(analysed) == per_small
    assert set(analysed) <= instructions


def test_predicate_facts_once_per_instruction_text(monkeypatch):
    """Classify and fused calls read "negative" and the fused order from
    the instruction memo, filled on first use: a memo hit lowers nothing."""
    lowered = []
    real = tasks_module._fused_order
    monkeypatch.setattr(
        tasks_module, "_fused_order", lambda text: lowered.append(text) or real(text)
    )
    corpus = make_tweet_corpus(12, seed=7)
    engine = TaskEngine(PROFILE)
    engine.bind_tweets(corpus)
    templates = {
        "classify": "Select the tweet only if its sentiment is Negative.\nTweet:\n{}",
        "fused": "Summarize the tweet, then filter: is it negative?\nTweet:\n{}",
    }
    for tweet in corpus:
        for task, template in templates.items():
            output = engine.run(template.format(tweet.text))
            assert output.task == task
            if task == "classify":
                assert output.extras["criteria"]["negative"]
    assert lowered == [templates["fused"].format("").lower()]
    memo = engine._instruction_memo
    assert memo[templates["classify"].format("")][1:] == [True, None]
    assert memo[templates["fused"].format("")][1:] == [True, "map_filter"]


def test_qa_still_analyses_its_prompt(analysed):
    engine = TaskEngine(PROFILE)
    engine.bind_clinical(make_clinical_corpus(12, seed=7))
    prompt = _handler_prompts(7)["qa"]
    assert engine.run(prompt).task == "qa"
    assert analysed == [prompt]


# -- routing from chunk memos and seam windows ---------------------------------

#: Every literal the router tests, as lowered, upper-cased and title-cased.
_ROUTE_CASES = tuple(
    variant
    for marker in features_module._ROUTER[0]
    for variant in (marker, marker.upper(), marker.title())
)
#: Case-folding traps: the final sigma lowers by context, the rest by more
#: or other characters than they had.
_ROUTE_TRAPS = (
    "İ", "ſ", "ſelect", "ﬁlter", "negatİve", "ΟΔΟΣ", "ΟΔΟΣ negative", "Σ",
    "ς", "naïve", "ß", "K",
)


def _rendered(parts: list[str], static: list[bool]) -> RenderedPrompt:
    """``parts`` as a rendered prompt; an empty static part stays a slot."""
    return RenderedPrompt(
        "".join(parts),
        tuple(
            StaticChunk(part) if chunk and part else part
            for part, chunk in zip(parts, static)
        ),
    )


def _assert_routes_like_eager(prompt: str) -> None:
    text = str(prompt)
    want = reference_route(text, extract_features(text))
    assert route_task(prompt) == want, [
        s if isinstance(s, str) else ("chunk", s.text) for s in prompt.segments
    ]
    assert route_task(prompt) == want  # again, from the chunks' memos


@st.composite
def _segmented_prompts(draw) -> RenderedPrompt:
    pieces = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_ROUTE_CASES + _ROUTE_TRAPS + _MARKERS),
                st.text(alphabet="abc ilnorst.\n", max_size=10),
            ),
            min_size=1,
            max_size=8,
        )
    )
    text = "".join(piece + draw(_SEPARATORS) for piece in pieces)
    cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=6)))
    bounds = [0, *cuts, len(text)]
    parts = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    static = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    return _rendered(parts, static)


class TestSegmentRouting:
    """``route_task`` on rendered prompts equals the eager router."""

    @pytest.fixture(autouse=True)
    def always_combine(self, monkeypatch):
        # The cases here are short; production would scan them flat.
        monkeypatch.setattr(features_module, "_MIN_SKIPPED", -1)

    def test_no_marker_outreaches_the_window(self):
        longest = max(map(len, features_module._ROUTER[0]))
        assert longest < features_module._REACH

    @settings(max_examples=400, deadline=None)
    @given(_segmented_prompts())
    def test_random_segmentations(self, prompt):
        _assert_routes_like_eager(prompt)

    @staticmethod
    def _seam_cases() -> list[RenderedPrompt]:
        """Each marker and trap in a chunk, in a slot and cut by each seam."""
        cases = []
        for whole in _ROUTE_CASES + _ROUTE_TRAPS:
            for before, after in (("", ""), ("x ", " y"), ("\n", ".\n")):
                text = before + whole + after
                for start in range(len(text) + 1):
                    for stop in (start, start + 1, start + 3, len(text)):
                        parts = [text[:start], text[start:stop], text[stop:]]
                        for static in (
                            [True, False, True],
                            [False, True, False],
                            [True, True, True],
                        ):
                            cases.append(_rendered(parts, static))
        return cases

    def test_every_marker_in_a_chunk_a_slot_and_across_each_seam(self):
        for prompt in self._seam_cases():
            _assert_routes_like_eager(prompt)

    def test_a_router_that_ignores_seams_is_caught(self, monkeypatch):
        # With no window around the slots, a marker cut by a seam is missed.
        monkeypatch.setattr(features_module, "_REACH", 0)
        wrong = 0
        for prompt in self._seam_cases():
            text = str(prompt)
            wrong += route_task(prompt) != reference_route(text, extract_features(text))
        assert wrong > 100


class _ReadCount(str):
    """Chunk text that counts the times it is split and lowered whole."""

    splits = lowers = 0

    def split(self, *args) -> list[str]:
        self.splits += 1
        return str.split(self, *args)

    def lower(self) -> str:
        self.lowers += 1
        return str.lower(self)


def test_routing_then_features_read_each_new_chunk_once():
    # One analysis per chunk: the router's read and the instruction
    # features of the item-stripped text share it.  The analysis reads the
    # chunk's words; no marker with whitespace has all its parts in these
    # words, so the whole text is never lowered.
    corpus = make_tweet_corpus(40, seed=7)
    tweet = next(iter(corpus))
    engine = TaskEngine(PROFILE)
    engine.bind_tweets(corpus)
    lead = _ReadCount(TestBoundChunkRouting.LEAD + "Tweet:\n")
    tail = _ReadCount("\nSelect the tweet only if it is negative.")
    chunks = (StaticChunk(lead), StaticChunk(tail))
    prompt = RenderedPrompt(lead + tweet.text + tail, (chunks[0], tweet.text, chunks[1]))
    assert engine.run(prompt).task == route_task(str(prompt)) == "classify"
    assert [(chunk.text.splits, chunk.text.lowers) for chunk in chunks] == [(1, 0)] * 2
    assert [set(chunk.memo) for chunk in chunks] == [{"analysis"}] * 2


class TestBoundChunkRouting:
    """Realistic rendered prompts route from their chunks' memos."""

    LEAD = "Note 3: harbor lantern willow granite meadow copper saddle orchard " * 8
    TEMPLATES = (
        "{lead}Tweet:\n{tweet}\nSummarize and clean up the tweet.",
        "{lead}Tweet:\n{tweet}\nSelect the tweet only if it is negative.",
        "Classify the tweet.\n{lead}{tweet}",
        "{tweet}{lead}Rewrite the prompt.",
        "{lead}{lead}",
    )
    TWEETS = (
        "so tired of exams", "Summarize this", "NEGATIVE vibes", "filter",
        "the medication history", "### Section 2", "ſentiment", "İ select",
    )

    def test_bound_leads_route_like_the_eager_router(self):
        for text in self.TEMPLATES:
            template = CompiledTemplate(text)
            for marker in ("", *_ROUTE_CASES[::7], "clean", "medication"):
                # The marker inside the lead, at each of its edges.
                for lead in (self.LEAD + marker, marker + self.LEAD, self.LEAD):
                    context = Context({"lead": lead})
                    for tweet in self.TWEETS:
                        context.put("tweet", tweet)
                        prompt = template.render(context)
                        assert any(
                            isinstance(s, StaticChunk) and s.text is lead
                            for s in prompt.segments
                        )
                        _assert_routes_like_eager(prompt)

    def test_a_chunk_is_scanned_once(self, monkeypatch):
        template = CompiledTemplate(self.TEMPLATES[1])
        context = Context({"lead": self.LEAD, "tweet": "so tired of exams"})
        first = template.render(context)
        assert features_module.segment_layout(first)[2] is not None  # not flat
        assert route_task(first) == "classify"
        chunks = [s for s in first.segments if isinstance(s, StaticChunk)]
        assert all("analysis" in chunk.memo for chunk in chunks)
        lowered, analysed = [], []
        for name, seen in (("_route_hits", lowered), ("_analyse", analysed)):
            real = getattr(features_module, name)
            monkeypatch.setattr(
                features_module,
                name,
                lambda text, seen=seen, real=real: seen.append(text) or real(text),
            )
        context.put("tweet", "another one, positive")
        assert route_task(template.render(context)) == "classify"
        # Only the window around the tweet slot is scanned again.
        assert len(lowered) == 1 and len(lowered[0]) < 2 * features_module._REACH + 40
        assert analysed == []
