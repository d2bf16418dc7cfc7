"""Tests for the deterministic tokenizer."""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import features as features_module
from repro.llm import tokenizer as tokenizer_module
from repro.llm.model import SimulatedLLM
from repro.llm.tokenizer import Tokenizer
from tests.llm.reference_features import reference_analyse


class TestTokenizer:
    def test_words_and_punctuation_split(self):
        tokenizer = Tokenizer()
        assert tokenizer.pieces("hello, world!") == ["hello", ",", "world", "!"]

    def test_long_words_chunked(self):
        tokenizer = Tokenizer()
        pieces = tokenizer.pieces("internationalization")
        assert len(pieces) == 5
        assert "".join(pieces) == "internationalization"

    def test_count_matches_encode_length(self):
        tokenizer = Tokenizer()
        text = "Summarize the tweet, please!"
        assert tokenizer.count(text) == len(tokenizer.encode(text))

    def test_long_prompt_encodes_past_a_thousand_tokens(self):
        text = (
            "Summarize the patient's medication history and highlight any "
            "use of Enoxaparin, including dosage, timing, and indication. "
        ) * 80
        assert len(Tokenizer().encode(text)) > 1000

    def test_encoding_is_deterministic_across_instances(self):
        assert Tokenizer().encode("same text") == Tokenizer().encode("same text")

    def test_shared_prefix_produces_shared_token_prefix(self):
        tokenizer = Tokenizer()
        base = tokenizer.encode("instruction text here.")
        extended = tokenizer.encode("instruction text here. plus more")
        assert extended[: len(base)] == base

    def test_decode_roundtrips_known_pieces(self):
        tokenizer = Tokenizer()
        ids = tokenizer.encode("hello world")
        assert tokenizer.decode(ids) == "hello world"

    def test_decode_unknown_ids(self):
        tokenizer = Tokenizer()
        assert tokenizer.decode([123456789]) == "<unk>"

    def test_empty_text(self):
        tokenizer = Tokenizer()
        assert tokenizer.encode("") == []
        assert tokenizer.count("") == 0


class TestTokenizerProperties:
    @given(st.text(max_size=300))
    def test_count_never_negative_and_stable(self, text):
        tokenizer = Tokenizer()
        count = tokenizer.count(text)
        assert count >= 0
        assert count == tokenizer.count(text)

    @given(st.text(max_size=200), st.text(max_size=200))
    def test_concatenation_token_prefix_property(self, prefix, suffix):
        # Appending text after a newline never changes the prefix tokens.
        tokenizer = Tokenizer()
        base = tokenizer.encode(prefix)
        combined = tokenizer.encode(prefix + "\n" + suffix)
        assert combined[: len(base)] == base

    @given(st.text(min_size=1, max_size=100))
    def test_pieces_cover_non_whitespace(self, text):
        # Every alphanumeric character of the input appears in some piece.
        tokenizer = Tokenizer()
        joined = "".join(tokenizer.pieces(text))
        for char in text:
            if char.isalnum() and char.isascii():
                assert char in joined


def _reference_encode(text):
    """The definition: every piece of the whole text, hashed in order."""
    return [zlib.crc32(piece.encode("utf-8")) for piece in Tokenizer.pieces(text)]


class TestWordMemo:
    @settings(max_examples=400)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["a", "Z9", "'", "_", ",", "é", "İ", "internationalization"]
                ),
                st.sampled_from([" ", "\n", "\t", "\x1c", "\xa0", "\u2028", "\u3000"]),
                st.text(alphabet="ab'_ 1.-", max_size=20),
                st.text(max_size=6),
            ),
            max_size=12,
        )
    )
    def test_word_by_word_equals_the_whole_text(self, parts):
        tokenizer = Tokenizer()
        text = "".join(parts)
        assert tokenizer.encode(text) == _reference_encode(text)
        assert tokenizer.encode(text) == _reference_encode(text)  # from the memo
        assert tokenizer.decode(tokenizer.encode(text)) == " ".join(Tokenizer.pieces(text))

    def test_a_full_memo_is_cleared_not_grown(self, monkeypatch):
        monkeypatch.setattr(tokenizer_module, "_WORD_MEMO", 4)
        tokenizer = Tokenizer()
        text = " ".join(f"w{index}" for index in range(10))
        for _ in range(3):
            assert tokenizer.encode(text) == _reference_encode(text)
            assert len(tokenizer_module._WORD_IDS) <= 10
        assert tokenizer.encode("w1 w2") == _reference_encode("w1 w2")

    def test_a_full_vocabulary_clears_ids_and_bits_together(self, monkeypatch):
        # A word's ids and marker bits are one vocabulary entry: whichever
        # half fills up first, both are cleared.
        for module in (tokenizer_module, features_module):
            monkeypatch.setattr(module, "_WORD_MEMO", 4)
        ids, bits = tokenizer_module._WORD_IDS, tokenizer_module._WORD_BITS
        ids.clear()
        bits.clear()
        tokenizer, text = Tokenizer(), "w0 w1 w2 w3"
        assert tokenizer.encode(text) == _reference_encode(text)
        assert features_module._analyse(text) == reference_analyse(text)
        assert set(ids) == set(bits) == set(text.split())
        assert tokenizer.encode("w4") == _reference_encode("w4")  # ids full
        assert set(ids) == {"w4"} and bits == {}
        assert features_module._analyse(text) == reference_analyse(text)
        assert features_module._analyse("focus on") == reference_analyse("focus on")
        assert ids == {} and set(bits) == {"focus", "on"}  # bits full

    def test_models_share_one_vocabulary(self):
        text = "one vocabulary-per-process, shared by models zq7x3 wv9k2"
        first, second = SimulatedLLM(), SimulatedLLM()
        ids = first.tokenizer.encode(text)
        learned = len(tokenizer_module._WORD_IDS)
        assert second.tokenizer.encode(text) == ids == _reference_encode(text)
        assert len(tokenizer_module._WORD_IDS) == learned  # no new memo entry
        decoded = " ".join(Tokenizer.pieces(text))
        assert first.tokenizer.decode(ids) == second.tokenizer.decode(ids) == decoded
