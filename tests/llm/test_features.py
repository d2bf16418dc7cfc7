"""Tests for prompt feature extraction."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entry import StaticChunk
from repro.llm import features as features_module
from repro.llm.features import PromptFeatures, extract_features
from repro.llm.tokenizer import Tokenizer, _ChunkTokens
from tests.llm.reference_features import reference_analyse
from tests.llm.test_tokenizer import _reference_encode


class TestExtraction:
    def test_bare_text_has_no_features(self):
        features = extract_features("the weather today")
        assert not features.has_instruction
        assert features.criteria_count == 0
        assert features.task_count == 0

    def test_instruction_verbs_detected(self):
        assert extract_features("Classify the text.").has_instruction
        assert extract_features("Please summarize this.").has_instruction

    def test_sentiment_terms(self):
        assert extract_features("is the sentiment negative?").has_sentiment_terms
        assert not extract_features("is it raining?").has_sentiment_terms

    def test_focus_hint(self):
        assert extract_features("Focus on dosage.").has_focus_hint
        assert extract_features("Pay attention to timing.").has_focus_hint

    def test_adaptive_hint(self):
        assert extract_features("Hint: mind sarcasm.").has_adaptive_hint
        assert not extract_features("no hints here").has_adaptive_hint

    def test_examples(self):
        assert extract_features("Example: 'x' -> yes").has_examples
        assert extract_features("for example, this").has_examples

    def test_output_format(self):
        assert extract_features("Respond with yes or no.").has_output_format

    def test_word_limit(self):
        assert extract_features("in at most 30 words").has_word_limit
        assert extract_features("no more than 10 words").has_word_limit
        assert not extract_features("many words here").has_word_limit

    def test_reasoning(self):
        assert extract_features("think step by step").has_reasoning

    def test_guidance_section(self):
        assert extract_features("General guidance:\n- be careful").has_guidance

    def test_criteria_counted_only_after_marker(self):
        text = (
            "General guidance:\n- generic bullet one\n- generic bullet two\n"
            "Use these criteria:\n- criterion one\n- criterion two\n- criterion three"
        )
        features = extract_features(text)
        assert features.criteria_count == 3

    def test_criteria_capped_at_six(self):
        bullets = "\n".join(f"- c{i}" for i in range(10))
        features = extract_features(f"criteria:\n{bullets}")
        assert features.criteria_count == 6

    def test_view_structure_marker(self):
        assert extract_features("### Task\ndo things").has_view_structure

    def test_task_count_groups_synonyms(self):
        # summarize + clean are one stage; select is another.
        features = extract_features("Summarize and clean the text, then select it.")
        assert features.task_count == 2

    def test_hint_terms_sorted(self):
        features = extract_features("school exams and homework")
        assert features.hint_terms == ("exam", "homework", "school")

    def test_word_count(self):
        assert extract_features("one two three").word_count == 3


class TestFingerprint:
    def test_same_features_same_fingerprint(self):
        text_1 = "Classify the tweet. Respond with yes or no."
        assert (
            extract_features(text_1).fingerprint()
            == extract_features(text_1).fingerprint()
        )

    def test_different_features_differ(self):
        fingerprint_1 = extract_features("Classify this.").fingerprint()
        fingerprint_2 = extract_features("Classify this. Example: x").fingerprint()
        assert fingerprint_1 != fingerprint_2

    def test_fingerprint_is_feature_level_not_text_level(self):
        # Two texts with identical features share a fingerprint even when
        # the raw strings differ (word_count kept equal).
        features_1 = PromptFeatures(has_instruction=True, word_count=5)
        features_2 = PromptFeatures(has_instruction=True, word_count=5)
        assert features_1.fingerprint() == features_2.fingerprint()


# -- the ASCII fast path against the regex definition -------------------------

oracle = features_module._regex_features

#: Every literal and regex alternative the extractor looks for.
WHOLE_MARKERS = (
    *features_module._INSTRUCTION_VERBS,
    *features_module._REASONING_MARKERS,
    *features_module._FORMAT_MARKERS,
    *features_module._EXAMPLE_MARKERS,
    *features_module.TOPIC_TERMS,
    *("negative", "positive", "sentiment", "### task", "## task"),
    # the regexes' literals, spelled out here rather than taken from the
    # fast path's tables so that a slip in those is caught
    *("focus on", "pay attention to", "be specific about"),
    *("emphasise", "emphasize", "emphasi"),
    *("at most", "no more than", "under", "within", "fewer than", "limit"),
    *("criteria", "general guidance", "hint:", "words", "word"),
)


def _cut_at_every_offset(marker: str) -> list[str]:
    return [marker[:i] for i in range(1, len(marker))] + [
        marker[i:] for i in range(1, len(marker))
    ]


ASCII_PIECES = sorted(
    {
        piece
        for marker in WHOLE_MARKERS
        for piece in (
            marker,
            marker.upper(),
            marker.title(),
            *_cut_at_every_offset(marker),
        )
    }
    | {
        # bullets after "criteria", including ones that do not count
        *("\n- a", "\n* b", "\n1. c", "\n2) d", "\n  - e", "\n-", "\n-x"),
        # digit and whitespace runs around "words"
        *(" ", "  ", "\t", "\n", "\n\n", "\x0b", "\x1f", " " * 15),
        *("7", "42", "0" * 12),
        *(" 30 words", " 5 word", "12\t\nwords"),
        *("limit" + "y" * 20, "limit." + "x" * 5),
        # ``\bhint:`` at a word start and mid-word
        *("Hint:", "xhint:", "_hint:", "9hint:", "-hint:"),
        *(".", ":", "-", "_", "#", "'", "a", "Zq"),
    }
)

#: Non-ASCII text, some of which ``re.IGNORECASE`` folds onto ASCII letters.
FOLDS = (
    *("\u017f", "\u212a", "\u0130", "\u00df"),
    *("focu\u017f on", "thin\u212a carefully", "cr\u0130ter\u0130a"),
    *("emphasi\u017fe", "\u0130nt: ", "general guidance\u00df"),
)


def _spied():
    return mock.patch.object(features_module, "_regex_features", wraps=oracle)


class TestLiteralFastPath:
    def test_every_marker_cut_at_every_offset(self):
        for piece in ASCII_PIECES:
            for text in (
                piece,
                f"x{piece}y",
                f"hint: {piece}\n- z",
                f"criteria {piece} 3 words",
                f"{piece} 1 word",
            ):
                assert extract_features(text) == oracle(text), text

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(ASCII_PIECES), max_size=16).map("".join))
    def test_ascii_text_takes_the_fast_path_and_equals_the_definition(self, text):
        with _spied() as spy:
            got = extract_features(text)
        assert not spy.called
        assert got == oracle(text)
        assert got.fingerprint() == oracle(text).fingerprint()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(ASCII_PIECES), max_size=8).map("".join),
        st.sampled_from(FOLDS),
        st.lists(st.sampled_from(ASCII_PIECES), max_size=8).map("".join),
    )
    def test_non_ascii_text_takes_the_definition(self, before, fold, after):
        text = before + fold + after
        with _spied() as spy:
            got = extract_features(text)
        spy.assert_called_once_with(text)
        assert got == oracle(text)

    def test_folds_are_why_only_ascii_takes_the_fast_path(self):
        # The definition sees these markers; a ``lower()`` copy would not.
        for text in ("focu\u017f on", "cr\u0130ter\u0130a:\n- a"):
            assert "focus on" not in text.lower()
            assert "criteria" not in text.lower()
        assert extract_features("focu\u017f on").has_focus_hint
        assert extract_features("cr\u0130ter\u0130a:\n- a").criteria_count == 1


class TestDistinctWordsPath:
    """Every text is read from its distinct words, each lowered once."""

    def test_markers_split_on_whitespace_exactly(self):
        words, phrases = features_module._BY_WORD[0], features_module._BY_TEXT[0]
        assert all(not any(c.isspace() for c in m) for m in words)
        assert all(any(c.isspace() for c in m) for m in phrases)
        assert sorted(words + phrases) == sorted(features_module._MARKERS)
        table = set(features_module._MARKERS)
        assert set(features_module._INSTRUCTION_VERBS) <= table
        assert set(features_module.TOPIC_TERMS) <= table
        assert set(features_module._ROUTER[0]) <= table

    def test_every_marker_tested_by_word_has_no_whitespace(self):
        # A word's bits are the parts inside it, so a part with whitespace
        # could never be found; each one-word marker is its own part, with
        # its own bit, and every other marker's parts are parts.
        markers, bits = features_module._BY_WORD
        assert markers and len(markers) == len(bits)
        for marker, bit in zip(markers, bits):
            assert not any(c.isspace() for c in marker), marker
            assert bit == 1 << features_module._MARKERS.index(marker)
            assert features_module._PART[marker] == bit
        parts = features_module._PARTS[0]
        assert len(set(parts)) == len(parts) == len(set(features_module._PARTS[1]))
        assert not any(c.isspace() for part in parts for c in part)
        for marker in (*features_module._BY_TEXT[0], "criteria", "hint:"):
            assert set(marker.split()) <= set(parts), marker

    def test_every_marker_cut_at_every_offset(self):
        for piece in ASCII_PIECES:
            for text in (
                piece,
                f"x{piece}y",
                f"hint: {piece}\n- z",
                f"criteria {piece} 3 words",
                f"{piece} 1 word",
                f"a\x1c{piece}\x0bb {piece}",
            ):
                assert extract_features(text) == oracle(text), text
                assert features_module._analyse(text) == reference_analyse(text), text

    @settings(max_examples=600, deadline=None)
    @given(st.lists(st.sampled_from(ASCII_PIECES), max_size=16).map("".join))
    def test_equals_the_definition(self, text):
        assert extract_features(text) == oracle(text)

    def test_long_text_takes_it_as_shipped(self):
        lead = "harbor lantern willow granite meadow copper " * 30
        for marker in WHOLE_MARKERS:
            for text in (lead + marker, marker + " " + lead, lead + marker.upper() + lead):
                assert extract_features(text) == oracle(text), marker
                assert features_module._analyse(text) == reference_analyse(text), marker


#: Every character ``str.split`` splits on that the texts below use.
SPLITS = (" ", "\t", "\n", "\x0b", "\x1c", "\xa0", "\u2028")
#: Characters whose lowering or case folding differs from ASCII's: the long
#: s and the Kelvin sign fold onto ``s`` and ``k``, the dotted capital I
#: lowers to two characters, and a capital sigma lowers by its context.
TRAPS = ("\u017f", "\u212a", "\u0130", "\u03a3", "\u03c2", "\u03a3x", "x\u03a3")
#: Every whole marker, the parts of each, and punctuation around them.
PARTS = sorted(
    {part for marker in WHOLE_MARKERS for part in marker.split()}
    | {*WHOLE_MARKERS, ".", ",", ":", ";", "#", "-", "(", ")", "'", "_"}
)
#: A lead of ordinary words, so that a text reaches past 1,024 characters.
FILLER = "harbor lantern willow granite meadow copper saddle orchard " * 18


def _words(pieces):
    """One piece of a differential text: a marker part, cut, recased, or a break."""
    return st.one_of(
        st.sampled_from(pieces),
        st.sampled_from(pieces).map(str.upper),
        st.sampled_from(pieces).map(str.title),
        st.sampled_from(SPLITS),
        st.sampled_from(TRAPS),
    )


class TestPerWordAnalysis:
    """``_analyse`` reads words; ``reference_analyse`` reads the whole text."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(_words(PARTS + ASCII_PIECES), max_size=24).map("".join),
        st.sampled_from(("", FILLER, FILLER + FILLER)),
        st.booleans(),
    )
    def test_equals_the_whole_text_and_keeps_the_ids(self, text, filler, after):
        text = text + filler if after else filler + text
        assert features_module._analyse(text) == reference_analyse(text)
        assert Tokenizer().encode(text) == _reference_encode(text)
        chunk = StaticChunk(text)
        assert _ChunkTokens(Tokenizer(), chunk).ids == _reference_encode(text)
        assert features_module._chunk(chunk) == reference_analyse(text)

    def test_lengths_on_both_sides_of_a_kilobyte(self):
        for size in (1000, 1023, 1024, 1025, 1100):
            for marker in ("focus on", "criteria:\n- a", "hint: x", "at most 9 words"):
                for trap in ("", *TRAPS):
                    body = (FILLER * 3)[: size - len(marker) - len(trap)]
                    for text in (body + trap + marker, marker + trap + body):
                        assert features_module._analyse(text) == reference_analyse(text)
