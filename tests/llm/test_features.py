"""Tests for prompt feature extraction."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import features as features_module
from repro.llm.features import PromptFeatures, extract_features


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
