"""Differential test: the master-regex lexer against the character loop.

``reference_lexer.reference_tokenize`` is the lexer ``tokenize``
replaced.  On every input both must produce the same tokens and the same
``comments=`` records, or raise the same :class:`DslSyntaxError` (message,
line and column).

The one intended difference: the old loop made a NUMBER of any
``str.isdigit()`` character, so ``²`` lexed as a number that the parser's
``int()`` then rejected with a ``ValueError``.  ``tokenize`` takes decimal
digits only.  Sources containing such a digit are compared against the
oracle run with ``is_digit=str.isdecimal``.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dl import format_program
from repro.dl.lexer import TokenType, tokenize
from repro.errors import DslSyntaxError
from tests.dl.reference_lexer import reference_tokenize
from tests.dl.test_dl_properties import programs

FIXTURES = Path(__file__).parent.parent / "fixtures" / "dl"

#: SPEAR-DL's own alphabet plus the inputs that trip a regex lexer:
#: quote/escape/newline combinations, number edge cases, characters
#: that are numeric but not letters (``Ⅻ``), not decimal (``²``), or
#: change length under case folding (``İ``).
_PIECES = (
    '"', "'", "\\", '"""', "#", "->", "-", "1.2.3", "6e-10", "1e", "E+",
    "2.", ".", "0", "42", "²", "Ⅻ", "İ", "٣", "½", "\r", "\n", "\r\n", " ",
    "\t", "[", "]", "{", "}", "(", ")", ",", ":", "=", "<", ">", "GEN",
    "_x", "e", "M", "\\n", '\\"', "`", "\x0b", "\xa0",
)
_sources = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.characters()), max_size=40
).map("".join)


def _outcome(lex, source: str, **kwargs):
    comments: list = []
    try:
        tokens = lex(source, comments=comments, **kwargs)
    except DslSyntaxError as error:
        return ("error", str(error), error.line, error.column)
    return ("ok", tokens, comments)


def _has_non_decimal_digit(source: str) -> bool:
    return any(char.isdigit() and not char.isdecimal() for char in source)


def assert_lexes_like_reference(source: str) -> None:
    if _has_non_decimal_digit(source):
        expected = _outcome(reference_tokenize, source, is_digit=str.isdecimal)
    else:
        expected = _outcome(reference_tokenize, source)
    assert _outcome(tokenize, source) == expected


@settings(max_examples=300, deadline=None)
@given(program=programs())
def test_generated_programs_lex_identically(program):
    source = format_program(program)
    assert_lexes_like_reference(source)
    # The same program with comments, CRLF line ends and tab indents.
    noisy = source.replace("\n", "  # note\r\n").replace("  ", "\t")
    assert_lexes_like_reference(noisy)


@settings(max_examples=1500, deadline=None)
@given(source=_sources)
@example('"""open forever')
@example('"a\\\nb" "c\nd"')
@example("1.2.3e5")
@example("x = 6e-10 # trailing\n  # own line")
@example("İ_Ⅻ²")
@example("'\\'")
def test_arbitrary_text_lexes_identically(source):
    assert_lexes_like_reference(source)


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.spear")), ids=lambda path: path.name
)
def test_fixture_programs_lex_identically(path):
    assert_lexes_like_reference(path.read_text())


def test_superscript_digit_is_the_only_difference():
    source = 'GEN["a", max_tokens=²]'
    old = _outcome(reference_tokenize, source)
    assert old[0] == "ok"
    assert (TokenType.NUMBER, "²") in [(t.type, t.value) for t in old[1]]
    assert _outcome(tokenize, source) == (
        "error",
        "line 1, column 21: unexpected character '²'",
        1,
        21,
    )
