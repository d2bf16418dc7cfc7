"""Tests for the deterministic tokenizer."""

from hypothesis import given
from hypothesis import strategies as st

from repro.llm.tokenizer import Tokenizer


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
