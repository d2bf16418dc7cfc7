"""Features on demand: routing and task outputs equal the eager path.

A GEN call tokenizes its prompt once and builds no whole-prompt
``PromptFeatures``: the router tests the sentiment terms on its own
lowered copy, tweet tasks read the memoised features of their
instructions, and only clinical QA analyses the whole prompt.  The
eager router and engine kept in ``reference_route.py`` are the oracle.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as spear
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


def test_qa_still_analyses_its_prompt(analysed):
    engine = TaskEngine(PROFILE)
    engine.bind_clinical(make_clinical_corpus(12, seed=7))
    prompt = _handler_prompts(7)["qa"]
    assert engine.run(prompt).task == "qa"
    assert analysed == [prompt]
