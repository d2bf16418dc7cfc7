"""SPEAR-DL lexer.

SPEAR-DL (paper §6) is the declarative developer-facing layer: view
definitions and pipelines of operator terms.  The surface syntax mirrors
the paper's notation::

    view qa_base(drug) {
      \"\"\"Summarize the patient's medication history and highlight any
      use of {drug}.\"\"\"
      tags: clinical, summary
    }

    pipeline enoxaparin_qa {
      RET["initial_notes", query="p0001"]
      VIEW["qa_base", key="qa", params={drug: "Enoxaparin"}]
      GEN["answer_0", prompt="qa"]
      CHECK[M["confidence"] < 0.7] -> REF[APPEND, "Explain reasoning.", key="qa"]
      GEN["answer_1", prompt="qa"]
    }

The lexer produces a flat token stream; comments (``# ...``) and
whitespace are skipped.  Strings support single, double, and triple
double-quoted forms.

One private scanner, :func:`_scan`, does the work for the parser and
for :func:`tokenize`.  A compiled master regex matches a run of blanks
(newlines included) folded into the token after it, and the named group
that matched is the token's kind.  Every non-blank character starts
some alternative (the last one is "any other character"), so the
matches tile the source up to its trailing blanks and errors come back
as groups too.  A scanned token is a plain ``(TokenType, value,
offset)`` tuple.  Lines and columns are not counted while scanning:
:func:`_line_starts` indexes the source's newline offsets once and
:func:`_position` bisects it, only where a position is stored or
reported (AST nodes, :class:`DslSyntaxError`, comments, and the
:class:`Token` view ``tokenize`` returns).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from enum import Enum
from typing import NamedTuple

from repro.errors import DslSyntaxError

__all__ = ["TokenType", "Token", "tokenize", "collect_suppressions"]


class TokenType(str, Enum):
    """Lexical token categories."""

    NAME = "NAME"
    STRING = "STRING"
    NUMBER = "NUMBER"
    LBRACKET = "LBRACKET"
    RBRACKET = "RBRACKET"
    LBRACE = "LBRACE"
    RBRACE = "RBRACE"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    COMMA = "COMMA"
    COLON = "COLON"
    EQUALS = "EQUALS"
    LT = "LT"
    GT = "GT"
    ARROW = "ARROW"
    EOF = "EOF"


class Token(NamedTuple):
    """One lexical token with source position (1-based)."""

    type: TokenType
    value: str
    line: int
    column: int


_PUNCT = {
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    ",": TokenType.COMMA,
    ":": TokenType.COLON,
    "=": TokenType.EQUALS,
    "<": TokenType.LT,
    ">": TokenType.GT,
}

# Alternatives in precedence order; ``\w`` is exactly ``str.isalnum()``
# plus ``_``.  A name starts with a letter or ``_``: ``[^\W\d]`` also
# admits numeric characters that are not decimal digits, such as ``²``
# and ``Ⅻ``, so non-ASCII starts go through UNAME and are checked with
# ``str.isalpha()``.  NUMBER takes decimal digits only (what
# ``int()``/``float()`` accept).  NAME and PUNCT, the bulk of any
# program, are tried first: none of the alternatives they moved ahead of
# starts with an ASCII letter, ``_`` or one of the punctuation marks, so
# every match is the same and only failed tries are saved.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<NAME>[A-Za-z_]\w*)"
    r"|(?P<PUNCT>[][{}(),:=<>])"
    r"|(?P<COMMENT>#[^\n]*)"
    r'|(?P<TRIPLE>"""[\s\S]*?""")'
    r'|(?P<OPEN_TRIPLE>""")'
    r"""|(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*"|'(?:[^'\\\n]|\\[\s\S])*')"""
    r"""|(?P<OPEN_STRING>["'])"""
    r"|(?P<ARROW>->)"
    r"|(?P<NUMBER>-?\d[\d.]*(?:[eE][+-]?\d+)?)"
    r"|(?P<UNAME>[^\W\d]\w*)"
    r"|(?P<OTHER>[^ \t\r\n]))"
)

_NEWLINE = re.compile(r"\n")

# Kinds the scanner emits per token, as globals: ``TokenType.NAME`` is a
# lookup through the enum's metaclass.
_NAME = TokenType.NAME
_STRING = TokenType.STRING
_NUMBER = TokenType.NUMBER
_ARROW = TokenType.ARROW

#: a scanned token: kind, value, and the offset of its first character.
_Scanned = tuple[TokenType, str, int]


def _line_starts(source: str) -> list[int]:
    """The offset of every line's first character, line 1 first."""
    return [0, *(match.end() for match in _NEWLINE.finditer(source))]


def _position(starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based ``(line, column)`` of ``offset``, from its line starts."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def _error(source: str, message: str, offset: int) -> DslSyntaxError:
    return DslSyntaxError(message, *_position(_line_starts(source), offset))


def _scan(
    source: str, comments: "list[tuple[str, int, bool]] | None" = None
) -> list[_Scanned]:
    """Scan ``source`` into ``(TokenType, value, offset)`` tuples, EOF last.

    ``comments``, when given, collects every comment as ``(text, offset,
    trailing)`` — ``trailing`` is True when the token before it starts
    on the comment's line.
    """
    tokens: list[_Scanned] = []
    append = tokens.append
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        text = match[kind]
        start = match.start(kind)
        if kind == "NAME":
            append((_NAME, text, start))
        elif kind == "PUNCT":
            append((_PUNCT[text], text, start))
        elif kind == "STRING":
            quote = text[0]
            value = text[1:-1]
            if "\\" in value:
                value = (
                    value.replace(f"\\{quote}", quote)
                    .replace("\\n", "\n")
                    .replace("\\\\", "\\")
                )
            append((_STRING, value, start))
        elif kind == "TRIPLE":
            append((_STRING, text[3:-3], start))
        elif kind == "NUMBER":
            if text.count(".") > 1:
                raise _error(source, f"malformed number {text!r}", start)
            append((_NUMBER, text, start))
        elif kind == "ARROW":
            append((_ARROW, text, start))
        elif kind == "COMMENT":
            if comments is not None:
                trailing = bool(tokens) and source.find("\n", tokens[-1][2], start) < 0
                comments.append((text, start, trailing))
        elif kind == "UNAME" and text[0].isalpha():
            append((_NAME, text, start))
        elif kind == "OPEN_TRIPLE":
            raise _error(source, "unterminated triple-quoted string", start)
        elif kind == "OPEN_STRING":
            raise _error(source, "unterminated string", start)
        else:
            raise _error(source, f"unexpected character {text[0]!r}", start)
    append((TokenType.EOF, "", len(source)))
    return tokens


def _comment_positions(
    starts: list[int], comments: "list[tuple[str, int, bool]]"
) -> "list[tuple[str, int, int, bool]]":
    """Scanned comments as ``(text, line, column, trailing)``."""
    return [
        (text, *_position(starts, offset), trailing)
        for text, offset, trailing in comments
    ]


def tokenize(
    source: str,
    *,
    comments: "list[tuple[str, int, int, bool]] | None" = None,
) -> list[Token]:
    """Lex SPEAR-DL source into tokens; raises :class:`DslSyntaxError`.

    ``comments``, when given, collects every comment as
    ``(text, line, column, trailing)`` — ``trailing`` is True when a
    token precedes the comment on the same line.  The token stream
    itself never contains comments; this side channel is how inline
    ``# spear: ignore[...]`` suppressions reach the checker.
    """
    scanned_comments: list[tuple[str, int, bool]] = []
    scanned = _scan(source, None if comments is None else scanned_comments)
    starts = _line_starts(source)
    if comments is not None:
        comments.extend(_comment_positions(starts, scanned_comments))
    return [
        Token(kind, value, *_position(starts, offset))
        for kind, value, offset in scanned
    ]


def collect_suppressions(source: str) -> "list":
    """Parse every ``# spear: ignore[...]`` comment in ``source``.

    Returns :class:`repro.analysis.suppressions.Suppression` records;
    source that fails to lex yields none (the checker reports SPEAR001
    long before suppressions matter).
    """
    from repro.analysis.suppressions import suppressions_from_comments

    comments: list[tuple[str, int, bool]] = []
    try:
        _scan(source, comments)
    except DslSyntaxError:
        return []
    starts = _line_starts(source)
    return suppressions_from_comments(_comment_positions(starts, comments))
