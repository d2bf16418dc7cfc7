"""Tests for the SPEAR-DL lexer."""

import pytest

from repro.dl import Token
from repro.dl.lexer import TokenType, tokenize
from repro.errors import DslSyntaxError


def _types(source):
    return [token.type for token in tokenize(source)]


class TestTokens:
    def test_names_and_punctuation(self):
        types = _types('GEN["x"]')
        assert types == [
            TokenType.NAME,
            TokenType.LBRACKET,
            TokenType.STRING,
            TokenType.RBRACKET,
            TokenType.EOF,
        ]

    def test_double_and_single_quoted_strings(self):
        tokens = tokenize('"double" \'single\'')
        assert tokens[0].value == "double"
        assert tokens[1].value == "single"

    def test_triple_quoted_strings_span_lines(self):
        tokens = tokenize('"""line one\nline two"""')
        assert tokens[0].value == "line one\nline two"

    def test_escapes_in_strings(self):
        tokens = tokenize(r'"say \"hi\"\nthere"')
        assert tokens[0].value == 'say "hi"\nthere'

    def test_numbers_int_float_negative(self):
        tokens = tokenize("0.7 42 -3")
        assert [t.value for t in tokens[:3]] == ["0.7", "42", "-3"]
        assert all(t.type is TokenType.NUMBER for t in tokens[:3])

    def test_arrow(self):
        assert _types("->")[0] is TokenType.ARROW

    def test_comparison_operators(self):
        types = _types("< >")
        assert types[:2] == [TokenType.LT, TokenType.GT]

    def test_comments_skipped(self):
        tokens = tokenize("GEN # a comment\nRET")
        assert [t.value for t in tokens[:2]] == ["GEN", "RET"]

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_positions_after_multiline_strings(self):
        tokens = tokenize('x """one\ntwo""" y\n\t"a\\\nb" z')
        positions = [(t.value, t.line, t.column) for t in tokens]
        assert positions == [
            ("x", 1, 1),
            ("one\ntwo", 1, 3),
            ("y", 2, 8),
            ("a\\\nb", 3, 2),
            ("z", 4, 4),
            ("", 4, 5),
        ]

    def test_tokens_are_immutable(self):
        token = tokenize("GEN")[0]
        assert token == Token(TokenType.NAME, "GEN", 1, 1)
        with pytest.raises(AttributeError):
            token.value = "RET"


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(DslSyntaxError):
            tokenize('"never closed')

    def test_unterminated_triple_string(self):
        with pytest.raises(DslSyntaxError):
            tokenize('"""open forever')

    def test_newline_in_single_quoted_string(self):
        with pytest.raises(DslSyntaxError):
            tokenize('"line\nbreak"')

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            tokenize("GEN[`]")
        assert excinfo.value.line == 1

    def test_non_decimal_digits_are_not_numbers(self):
        # Only decimal digits (what int() accepts) make a NUMBER.
        for source in ("²", "max_tokens=²", "-²", "Ⅻ"):
            with pytest.raises(DslSyntaxError, match="unexpected character"):
                tokenize(source)
        tokens = tokenize("٣")  # ARABIC-INDIC DIGIT THREE is decimal
        assert (tokens[0].type, tokens[0].value) == (TokenType.NUMBER, "٣")
        with pytest.raises(DslSyntaxError) as excinfo:
            tokenize("1²")
        assert excinfo.value.column == 2

    def test_names_may_continue_with_numeric_characters(self):
        tokens = tokenize("x² İ _Ⅻ")
        assert [(t.type, t.value) for t in tokens[:3]] == [
            (TokenType.NAME, "x²"),
            (TokenType.NAME, "İ"),
            (TokenType.NAME, "_Ⅻ"),
        ]

    def test_malformed_number(self):
        with pytest.raises(DslSyntaxError):
            tokenize("1.2.3")

    def test_error_reports_position(self):
        with pytest.raises(DslSyntaxError) as excinfo:
            tokenize("ok\n   `")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 4
