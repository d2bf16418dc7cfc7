"""Segment-wise analysis must equal the flat definitions, bit for bit.

``extract_features(text)``, ``Tokenizer.encode(text)`` and a regex
``sub`` over the template are the definitions; the compiled template,
``prompt_features`` and ``Tokenizer.encode_prompt`` are shortcuts that
reuse per-chunk work.  These tests cut adversarial text at every offset
and require the shortcut to be *identical* — feature fingerprints seed
the simulated noise channel and token counts price every simulated
second, so "close" is wrong.
"""

from __future__ import annotations

import dataclasses
import re
import sys
import threading
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GEN, Context, ExecutionState
from repro.core.entry import (
    CompiledTemplate,
    PromptEntry,
    RenderedPrompt,
    StaticChunk,
    render_template,
    template_placeholders,
)
from repro.data.tweets import Tweet
from repro.llm import SimulatedLLM
from repro.llm import features as features_module
from repro.llm.features import extract_features, prompt_features
from repro.llm.tasks import TaskEngine, _strip_segments, route_task
from repro.llm.tokenizer import Tokenizer

# -- the adversarial alphabet -------------------------------------------------

#: Every literal marker the feature extractor looks for.
MARKERS = (
    *features_module._INSTRUCTION_VERBS,
    *features_module._REASONING_MARKERS,
    *features_module._FORMAT_MARKERS,
    *features_module._EXAMPLE_MARKERS,
    *features_module.TOPIC_TERMS,
    "negative",
    "positive",
    "sentiment",
    "### task",
    "## Task",
)

#: Text that trips (or nearly trips) each regex.
TRIGGERS = (
    "focus on",
    "pay attention to",
    "be specific about",
    "emphasize",
    "emphasiSe",
    "Hint: look",
    "xhint: no",
    "criteria:\n- one\n* two\n• three\n1. four\n2) five\n - six\n- seven",
    "Criteria\n\n  -\n-\n- x",
    "General Guidance:\n- read",
    "at most 30 words",
    "no more than\n\n12\t words",
    "fewer than 5 word",
    "limit of roughly twenty or 9 words",
    "limit." + "x" * 5 + " 3 words",
    "under" + " " * 14 + "1234567890123" + " " * 13 + "words",
    "within 7 wordsmith",
    "a_very_long_identifier_of_words'n'digits_0123456789",
)

#: Case-folding traps: ``re.IGNORECASE`` and ``str.lower`` disagree on these.
FOLDS = (
    *("ſ", "K", "İ", "ı", "Σ", "σ", "ς"),
    *("focuſ on", "thinK carefully", "crİterİa", "criterıa"),
)

FILLER = (
    *(" ", "  ", "\n", "\t", "\n\n", "\x1f", "\xa0"),
    *(".", ":", "-", "*", "•", "1.", "2)", "7", "42", "a", "Zq", "'", "_", "#"),
)


def _cuts(text: str) -> list[str]:
    """Every proper prefix and suffix of ``text``."""
    return [text[:i] for i in range(1, len(text))] + [
        text[i:] for i in range(1, len(text))
    ]


ALPHABET = sorted(
    {
        piece
        for whole in (*MARKERS, *TRIGGERS, *FOLDS)
        for piece in (whole, whole.upper(), *_cuts(whole))
    }
    | set(FILLER)
)
#: The pieces ``extract_features`` answers by substring scans, not regexes.
ASCII_ALPHABET = [piece for piece in ALPHABET if piece.isascii()]


def segmented(parts: list[str], static: list[bool]) -> RenderedPrompt:
    """``parts`` as a rendered prompt: static chunks where flagged, else slots."""
    return RenderedPrompt(
        "".join(parts),
        tuple(
            StaticChunk(part) if chunk else part
            for part, chunk in zip(parts, static)
        ),
    )


@st.composite
def segmentations(draw: Any) -> RenderedPrompt:
    # Half the texts are pure ASCII, so every chunk and window of them
    # takes the literal fast path rather than the regex definition.
    alphabet = draw(st.sampled_from([ALPHABET, ASCII_ALPHABET]))
    text = "".join(draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=14)))
    cuts = sorted(
        draw(st.lists(st.integers(0, len(text)), min_size=0, max_size=6))
    )
    bounds = [0, *cuts, len(text)]
    parts = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    static = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    return segmented(parts, static)


def assert_same_features(prompt: RenderedPrompt) -> None:
    got, want = prompt_features(prompt), extract_features(str(prompt))
    assert want == features_module._regex_features(str(prompt))
    for spec in dataclasses.fields(want):
        assert getattr(got, spec.name) == getattr(want, spec.name), (
            spec.name,
            [s if isinstance(s, str) else ("chunk", s.text) for s in prompt.segments],
        )
    assert got.fingerprint() == want.fingerprint()


def seam_cases() -> list[RenderedPrompt]:
    """Every marker and trigger cut at every offset by a 0-3 character slot."""
    cases = []
    for whole in (*MARKERS, *TRIGGERS, *FOLDS):
        for before, after in ((" ", " "), ("x", "y"), ("\n", "\n- z"), ("", "")):
            text = before + whole + after
            for start in range(len(text) + 1):
                for width in range(4):
                    stop = start + width
                    parts = [text[:start], text[start:stop], text[stop:]]
                    cases.append(segmented(parts, [True, False, True]))
    return cases


# -- features -----------------------------------------------------------------


class TestSegmentedFeatures:
    @pytest.fixture(autouse=True)
    def always_combine(self, monkeypatch):
        # The cases here are tiny; production would scan them flat.
        monkeypatch.setattr(features_module, "_MIN_SKIPPED", -1)

    def test_every_instruction_verb_belongs_to_a_stage(self):
        # ``has_instruction`` is recovered from the stage mask.
        grouped = set().union(*features_module._STAGE_GROUPS)
        assert grouped == set(features_module._INSTRUCTION_VERBS)

    def test_no_bounded_pattern_outreaches_the_window(self):
        longest = max(len(marker) for marker in MARKERS)
        assert longest < features_module._REACH
        # "be specific about" is the longest bounded regex alternative.
        assert len("be specific about") < features_module._REACH

    def test_every_marker_cut_at_every_offset(self):
        for prompt in seam_cases():
            assert_same_features(prompt)

    def test_a_combine_that_ignores_seams_is_caught(self, monkeypatch):
        # The suite must have teeth: with no window around the slots, a
        # marker straddling a seam is missed and the cases above notice.
        monkeypatch.setattr(features_module, "_REACH", 0)
        wrong = sum(
            prompt_features(prompt) != extract_features(str(prompt))
            for prompt in seam_cases()
        )
        assert wrong > 100

    @settings(max_examples=400, deadline=None)
    @given(segmentations())
    def test_random_segmentations(self, prompt):
        assert_same_features(prompt)

    def test_a_plain_string_is_one_slot(self):
        for text in (*TRIGGERS, *FOLDS, "", " ", "classify: negative school"):
            assert prompt_features(text) == extract_features(text)

    def test_long_runs_fall_back_to_a_rescan(self):
        # The word-limit clause outgrows any fixed window through its
        # whitespace/digit runs; the seam then forces a full rescan.
        for head in ("under", "limit" + "y" * 20, "no more than"):
            for gap in (1, 3, 4, 9, 10, 11, 12, 40, 200):
                text = head + " " * gap + "7" * gap + "\n" * gap + "words"
                for cut in range(len(text) + 1):
                    assert_same_features(
                        segmented([text[:cut], "", text[cut:]], [True, False, True])
                    )
                    assert_same_features(
                        segmented(["so ", text[:cut], text[cut:]], [True, False, True])
                    )

    def test_mostly_slot_prompts_are_scanned_flat(self, monkeypatch):
        monkeypatch.undo()
        scaffold = StaticChunk("Classify the tweet. " * 20)
        calls = []
        analyse = features_module._analyse
        monkeypatch.setattr(
            features_module, "_analyse", lambda text: calls.append(text) or analyse(text)
        )
        short = segmented(["Classify: ", "so tired of exams"], [True, False])
        want = extract_features(str(short))
        del calls[:]
        assert prompt_features(short) == want
        assert calls == [short]  # flat: the chunk is not analysed for nothing
        del calls[:]
        assert prompt_features(short) == want
        assert calls == [short]
        long = RenderedPrompt(scaffold.text + "so tired", (scaffold, "so tired"))
        want = extract_features(str(long))
        del calls[:]
        assert prompt_features(long) == want
        assert calls == [scaffold.text, str(long)[-48:]]

    def test_short_prompts_skip_the_segment_walk(self, monkeypatch):
        """A prompt of at most ``_MIN_SKIPPED`` characters cannot leave more
        out, so it is scanned flat without asking ``segment_layout``."""
        monkeypatch.undo()
        walked = []
        layout = features_module.segment_layout
        monkeypatch.setattr(
            features_module,
            "segment_layout",
            lambda prompt: walked.append(prompt) or layout(prompt),
        )
        limit = features_module._MIN_SKIPPED
        head = "Summarize the tweet, then select it if negative.\nTweet:\n"
        for text in ("so tired of exams", "x" * (limit - len(head))):
            short = segmented([head, text], [True, False])
            assert len(short) <= limit
            flat = str(short)
            assert features_module.route_mask(short) == features_module._route_hits(flat)
            assert prompt_features(short) == extract_features(flat)
        assert walked == []
        long = segmented([head, "x" * (limit + 1 - len(head))], [True, False])
        prompt_features(long)
        features_module.route_mask(long)
        assert walked == [long, long]

    def test_chunk_analysis_is_kept_on_the_chunk(self):
        template = CompiledTemplate("Classify the tweet.\nTweet:\n{tweet}")
        chunk = template.parts[0]
        first = template.render({"tweet": "so tired of exams"})
        prompt_features(first)
        kept = chunk.memo["analysis"]
        prompt_features(template.render({"tweet": "another one"}))
        assert chunk.memo["analysis"] is kept

    def test_fingerprint_is_cached_per_instance(self):
        features = extract_features("Classify. Respond with yes or no.")
        assert features.fingerprint() == features.fingerprint()
        assert features == extract_features("Classify. Respond with yes or no.")
        assert "_fingerprint" not in {f.name for f in dataclasses.fields(features)}
        assert dataclasses.replace(features, word_count=1).fingerprint() != (
            features.fingerprint()
        )


# -- tokens -------------------------------------------------------------------


class TestSegmentedTokens:
    @settings(max_examples=400, deadline=None)
    @given(segmentations())
    def test_random_segmentations(self, prompt):
        assert Tokenizer().encode_prompt(prompt) == Tokenizer().encode(str(prompt))

    def test_word_runs_cut_at_every_offset(self):
        text = "it's a_very_long_identifier_of_words'n'digits_0123456789, ok? yes"
        want = Tokenizer().encode(text)
        for start in range(len(text) + 1):
            for width in range(4):
                stop = start + width
                parts = [text[:start], text[start:stop], text[stop:]]
                for static in ("101", "111", "010"):
                    prompt = segmented(parts, [flag == "1" for flag in static])
                    assert Tokenizer().encode_prompt(prompt) == want

    def test_a_plain_string_is_one_slot(self):
        text = "Summarize the extraordinarily long tweet!"
        assert Tokenizer().encode_prompt(text) == Tokenizer().encode(text)

    @settings(max_examples=100, deadline=None)
    @given(segmentations())
    def test_decode_survives_memoised_chunks(self, prompt):
        # The second tokenizer never encodes the chunks itself: it reuses
        # the ids the first one left on them, and must still decode them.
        first, second = Tokenizer(), Tokenizer()
        first.encode_prompt(prompt)
        ids = second.encode_prompt(prompt)
        assert "<unk>" not in second.decode(ids).split(" ")
        assert second.decode(ids) == first.decode(first.encode(str(prompt)))


# -- rendering ----------------------------------------------------------------

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_.]*)\}")


def reference_render(text: str, values: Mapping[str, Any]) -> str:
    """The regex-``sub`` renderer the compiled template replaced."""

    def resolve(name: str) -> Any:
        current: Any = values
        for part in name.split("."):
            if isinstance(current, Mapping) and part in current:
                current = current[part]
            else:
                raise KeyError(name)
        return current

    def substitute(match: re.Match[str]) -> str:
        try:
            return str(resolve(match.group(1)))
        except KeyError:
            return match.group(0)

    return _PLACEHOLDER_RE.sub(substitute, text)


NAMES = ("a", "b", "note", "note.text", "note.meta.id", "note.missing", "ghost", "b.c")
TEMPLATE_PIECES = (
    *("{" + name + "}" for name in NAMES),
    "{", "}", "{}", "{{a}}", "{ a }", "{1a}", "{a-b}", "text ", "\n", "Classify: ",
)
scalars = st.one_of(
    st.text(alphabet="ab{}. \n", max_size=6),
    st.sampled_from(["{a}", "{ghost}", "{note.text}"]),
    st.integers(-5, 5),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
)
values = st.one_of(
    scalars,
    st.dictionaries(
        st.sampled_from(["text", "meta", "c"]),
        st.one_of(scalars, st.dictionaries(st.sampled_from(["id"]), scalars)),
        max_size=3,
    ),
)
bindings = st.dictionaries(st.sampled_from(["a", "b", "note"]), values, max_size=3)
templates = st.lists(st.sampled_from(TEMPLATE_PIECES), max_size=10).map("".join)


class TestCompiledRendering:
    @settings(max_examples=300, deadline=None)
    @given(templates, bindings)
    def test_matches_the_regex_renderer(self, text, bound):
        rendered = render_template(text, bound)
        assert rendered == reference_render(text, bound)
        assert isinstance(rendered, RenderedPrompt)
        assert "".join(
            s if isinstance(s, str) else s.text for s in rendered.segments
        ) == rendered
        assert template_placeholders(text) == list(
            dict.fromkeys(_PLACEHOLDER_RE.findall(text))
        )

    @settings(max_examples=300, deadline=None)
    @given(templates, bindings, bindings, bindings)
    def test_extra_beats_context_beats_params(self, text, params, context, extra):
        state = ExecutionState()
        state.prompts.create("p", text, params=params)
        for key, value in context.items():
            state.context.put(key, value)
        merged = {**params, **context, **extra}
        assert state.render_prompt("p", extra=extra) == reference_render(text, merged)
        assert state.render_prompt("p") == reference_render(
            text, {**params, **context}
        )
        assert state.prompts["p"].render(context) == reference_render(
            text, {**params, **context}
        )

    def test_string_operations_drop_the_structure(self):
        rendered = render_template("Classify {a}", {"a": "x"})
        plains = (rendered + "", rendered[:], rendered.strip(), str(rendered))
        for plain in (*plains, f"{rendered}"):
            assert type(plain) is str

    def test_one_parse_per_version(self):
        entry = PromptEntry("Classify {tweet}")
        template = entry.template
        assert entry.template is template
        assert entry.render({"tweet": "x"}).segments[0] is template.parts[0]
        entry.record("APPEND", "Classify {tweet}\nBe brief.", function="f")
        assert entry.template is not template
        assert entry.placeholders() == ["tweet"]


# -- values bound in the context ----------------------------------------------

CUT = 4 * features_module._REACH
LONG = (
    "Note 3: harbor lantern willow granite meadow copper saddle orchard " * 8
    + "Criteria:\n- be brief\n* two\nHint: focus on exams.\n"
    + "Respond with one word, at most 9 words.\n"
)
LEADS = (
    LONG,
    "hint: " + LONG[:-1],  # a word and ``\bhint:`` at the chunk's edges
    "criteria" + "x" * CUT + "words",
    "under" + " " * 14 + "1234567890123" + LONG,
    # A case-folding marker further than any window from the seams.
    "y " * CUT + "crİterİa:\n- one\n- two\n" + "z " * CUT,
)
BOUND_TEMPLATES = (
    "{lead}Tweet:\n{tweet}\nClassify the tweet.",
    "Summarize the tweet in at most 30 words.\n{lead}",
    "{lead}{lead}",
    "x{lead}y",
    "{tweet}{lead}{tweet}",
    "criteria {lead} - one\n- two",
)


def chunk_of(prompt: RenderedPrompt, text: str) -> StaticChunk:
    (chunk,) = {
        id(s): s for s in prompt.segments if isinstance(s, StaticChunk) and s.text is text
    }.values()
    return chunk


def assert_analysed_like_flat(prompt: str) -> None:
    text = str(prompt)
    want = extract_features(text)
    got = prompt_features(prompt)
    assert got == want and got.fingerprint() == want.fingerprint(), prompt
    assert Tokenizer().encode_prompt(prompt) == Tokenizer().encode(text)


class TestBoundValueChunks:
    def test_chunk_slot_and_flat_analyse_identically(self):
        for text in BOUND_TEMPLATES:
            template = CompiledTemplate(text)
            for lead in LEADS:
                values = {"tweet": "so tired of exams", "lead": lead}
                context = Context(values)
                as_chunk = template.render(context)
                as_slot = template.render(values)
                assert as_chunk == as_slot
                assert lead in as_slot.segments
                chunk = chunk_of(as_chunk, lead)
                for prompt in (as_chunk, as_slot, str(as_slot)):
                    assert_analysed_like_flat(prompt)
                # The second render is the same chunk, analyses kept.
                again = template.render(context)
                assert chunk_of(again, lead) is chunk
                # A prompt scanned flat leaves no analysis on its chunks.
                walked = features_module.segment_layout(again)[2] is not None
                assert set(chunk.memo) == {"tokens", *["analysis"] * walked}
                assert_analysed_like_flat(again)

    def test_a_new_chunk_is_read_once_across_prepare_route_and_features(
        self, monkeypatch
    ):
        analysed, encoded = [], []
        analyse, encode = features_module._analyse, Tokenizer.encode
        monkeypatch.setattr(
            features_module, "_analyse", lambda text: analysed.append(text) or analyse(text)
        )
        monkeypatch.setattr(
            Tokenizer, "encode", lambda self, text: encoded.append(text) or encode(self, text)
        )
        model = SimulatedLLM()
        template = CompiledTemplate(BOUND_TEMPLATES[0])
        context = Context({"lead": LONG + "zq7 unseen-words wv9k"})
        for tweet in ("so tired of exams", "another one, positive", "filter"):
            context.put("tweet", tweet)
            prompt = template.render(context)
            assert features_module.segment_layout(prompt)[2] is not None  # not flat
            assert model.prepare(prompt) == Tokenizer().encode(str(prompt))
            assert route_task(prompt) == route_task(str(prompt))
            assert prompt_features(prompt) == extract_features(str(prompt))
        lead = context["lead"]
        # Encoded once, analysed once: the later calls read the chunk's memo.
        assert encoded.count(lead) == 1 and analysed.count(lead) == 1
        assert set(chunk_of(prompt, lead).memo) == {"tokens", "analysis"}

    def test_only_long_root_strings_in_a_context_become_chunks(self):
        template = CompiledTemplate("{a}|{note.text}|{n}|{r}")
        long, exact = "y" * (CUT + 1), "z" * CUT
        context = Context(
            {"a": exact, "note": {"text": long}, "n": 10**200, "r": RenderedPrompt(long, (long,))}
        )
        segments = template.render(context).segments
        assert [s.text for s in segments if isinstance(s, StaticChunk)] == ["|"] * 3
        context.put("a", long)
        first = template.render(context).segments[0]
        assert isinstance(first, StaticChunk) and first.text is long
        # A plain mapping (``extra``, params) renders a plain slot.
        assert template.render({"a": long}).segments[0] == long

    def test_rewriting_or_deleting_the_key_gives_fresh_analyses(self):
        template = CompiledTemplate("Classify.\n{lead}")
        context = Context({"lead": LEADS[0]})
        old = chunk_of(template.render(context), LEADS[0])
        prompt_features(template.render(context))
        context.put("lead", LEADS[0])  # the same object: the binding stands
        assert context.chunks["lead"] is old
        for lead in LEADS[1:]:
            context.put("lead", lead)
            assert "lead" not in context.chunks
            prompt = template.render(context)
            assert chunk_of(prompt, lead) is not old
            assert_analysed_like_flat(prompt)
        del context["lead"]
        assert context.chunks == {}
        assert template.render(context) == "Classify.\n{lead}"
        # A chunk whose text is not the bound value is never used.
        context.put("lead", LEADS[2])
        context.chunks["lead"] = old
        prompt = template.render(context)
        assert chunk_of(prompt, LEADS[2]) is not old
        assert_analysed_like_flat(prompt)

    def test_a_forked_state_shares_the_chunk(self):
        base = ExecutionState()
        base.prompts.create("p", "{doc}\nTweet:\n{tweet}\nClassify the tweet.")
        base.context.put("doc", LONG)
        # A fork only reads its parent: no chunk is made for it.
        unrendered = base.fork()
        assert base.context.chunks == {}
        chunk_of(unrendered.render_prompt("p"), LONG)
        assert base.context.chunks == {}
        shared = chunk_of(base.render_prompt("p"), LONG)
        forks = [base.fork() for _ in range(3)]
        rendered = []
        for index, fork in enumerate(forks):
            fork.context.put("tweet", f"tweet {index}")
            rendered.append(fork.render_prompt("p"))
        assert base.context.chunks["doc"] is shared
        assert all(chunk_of(prompt, LONG) is shared for prompt in rendered)
        prompt_features(rendered[0])
        assert "analysis" in shared.memo
        forks[1].context.put("doc", LEADS[1])
        own = chunk_of(forks[1].render_prompt("p"), LEADS[1])
        assert base.context.chunks["doc"] is shared is not own


# -- the item strip -----------------------------------------------------------

TWEET = Tweet(
    uid="t1",
    text="so tired of exams!!! @bob http://x.co",
    clean_text="so tired of exams",
    sentiment="negative",
    school_related=True,
    difficulty=0.5,
)
PROFILE = SimulatedLLM().profile
STRIP_PIECES = (
    TWEET.text,
    TWEET.clean_text,
    TWEET.text[:9],
    TWEET.text[9:],
    TWEET.clean_text[:5],
    TWEET.clean_text[5:],
    "Classify the tweet. ",
    "Criteria:\n- negative\n- school\n",
    "\n",
    "Hint: ",
    "at most 5 words",
)


def assert_strips_like_flat(prompt: str) -> None:
    flat = str(prompt).replace(TWEET.text, "").replace(TWEET.clean_text, "")
    segmentwise = _strip_segments(prompt, TWEET, flat)
    assert segmentwise == flat
    want = extract_features(flat)
    got = prompt_features(segmentwise)
    assert got == want and got.fingerprint() == want.fingerprint()
    assert TaskEngine(PROFILE)._instructions(prompt, TWEET) == (flat, want)


class TestSegmentWiseStrip:
    @pytest.fixture(autouse=True)
    def always_combine(self, monkeypatch):
        monkeypatch.setattr(features_module, "_MIN_SKIPPED", -1)

    SCAFFOLD = "### Task\nClassify the tweet. Criteria:\n- negative\n- school\n" * 3

    def render(self, text: str, values: dict[str, Any]) -> RenderedPrompt:
        return CompiledTemplate(text).render(Context(values))

    def test_item_in_a_slot_keeps_the_chunks(self):
        values = {"lead": LONG, "tweet": TWEET.text}
        prompt = self.render(self.SCAFFOLD + "{lead}Tweet:\n{tweet}\n", values)
        stripped = _strip_segments(prompt, TWEET, str(prompt).replace(TWEET.text, ""))
        assert isinstance(stripped, RenderedPrompt)
        assert chunk_of(stripped, LONG) is chunk_of(prompt, LONG)
        assert_strips_like_flat(prompt)

    def test_item_inside_a_static_chunk(self):
        text = self.SCAFFOLD + "Example: " + TWEET.text + "\nTweet:\n{tweet}"
        assert_strips_like_flat(self.render(text, {"tweet": TWEET.text}))

    def test_item_inside_the_long_value(self):
        values = {"lead": LONG + TWEET.text + "\n" + LONG, "tweet": "x"}
        assert_strips_like_flat(self.render(self.SCAFFOLD + "{lead}\n{tweet}", values))

    def test_item_straddling_a_seam(self):
        for cut in range(1, len(TWEET.text)):
            head, tail = TWEET.text[:cut], TWEET.text[cut:]
            values = {"a": head, "b": tail, "lead": LONG}
            assert_strips_like_flat(self.render(self.SCAFFOLD + head + "{b}", values))
            assert_strips_like_flat(self.render(self.SCAFFOLD + "{a}{b}\n{lead}", values))

    def test_clean_text_inside_the_text(self):
        # Removing the text can join two halves of the clean text across a seam.
        values = {"a": TWEET.clean_text[:5], "b": TWEET.text, "c": TWEET.clean_text[5:]}
        assert_strips_like_flat(self.render(self.SCAFFOLD + "{a}{b}{c}", values))
        head = TWEET.clean_text[:5]
        assert_strips_like_flat(self.render(self.SCAFFOLD + head + "{b}{c}", values))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.lists(st.sampled_from(STRIP_PIECES), max_size=3), st.booleans()),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_segmentations(self, pieces):
        parts = ["".join(run) for run, _ in pieces]
        static = [chunk for _, chunk in pieces]
        assert_strips_like_flat(segmented(parts, static))
        assert_strips_like_flat(segmented([self.SCAFFOLD, *parts], [True, *static]))


# -- threads ------------------------------------------------------------------


def test_concurrent_lanes_and_workers_agree_with_sequential():
    """16 lanes on one model and 2 workers with their own render and prepare
    one prompt version and one long value bound in the base context at
    once; nothing raises, nothing differs, and the value is one chunk whose
    analyses every lane fills at the same time."""
    base = ExecutionState()
    base.prompts.create(
        "p",
        "{lead}### Task\nYou are given one tweet from a public social media stream.\n"
        "Summarize the tweet in at most 30 words.\nCriteria:\n- be brief\n"
        "- ignore handles and links\nTweet:\n{tweet}\nRespond with one word{suffix}",
    )
    base.context.put("lead", LONG)
    base.render_prompt("p")  # the chunk exists, its analyses do not yet
    tweets = [f"tweet {i} about the school exam, soooo stressed" for i in range(40)]
    suffixes = ["", ".", "s only", " hint: now"]
    shared = SimulatedLLM()
    models = [shared] * 16 + [SimulatedLLM(), SimulatedLLM()]
    results: list[Any] = [None] * len(models)
    leads: set[int] = set()
    barrier = threading.Barrier(len(models))

    def lane(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            state = base.fork()  # as the parallel runner does, per lane
            out = []
            for round_, tweet in enumerate(tweets):
                state.context.put("tweet", tweet)
                state.context.put("suffix", suffixes[(index + round_) % 4])
                prompt = state.render_prompt("p")
                leads.add(id(prompt.segments[0]))
                tokens = models[index].prepare(prompt)
                out.append((str(prompt), tokens, prompt_features(prompt)))
            results[index] = out
        except BaseException as error:  # noqa: BLE001 - reported below
            results[index] = error

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lane, args=(i,)) for i in range(len(models))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    reference = Tokenizer()
    for index, out in enumerate(results):
        assert isinstance(out, list), out
        assert len(out) == len(tweets)
        for text, tokens, features in out:
            assert tokens == reference.encode(text)
            assert features == extract_features(text)
        assert "<unk>" not in models[index].tokenizer.decode(out[0][1]).split(" ")
    assert leads == {id(base.context.chunks["lead"])}


@pytest.mark.parametrize("method", ["cache_clear", "cache_info", "__wrapped__"])
def test_traced_entry_points_stay_plain_functions(method):
    # bench/trace.py swaps bare wrappers in for these; anything in src/
    # that called an attribute of them would crash a traced run.
    for target in (
        extract_features,
        Tokenizer.encode,
        Tokenizer.count,
        SimulatedLLM.prepare,
        ExecutionState.render_prompt,
        GEN.footprint,
    ):
        assert not hasattr(target, method)
