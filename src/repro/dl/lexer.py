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

One compiled master regex does the scanning: each match is a run of
spaces/tabs folded into the token after it, and the named group that
matched is the token's kind.  Every non-blank character starts some
alternative (the last one is "any other character"), so the matches
tile the source up to its trailing blanks and errors come back as groups
too.  Columns are counted from a ``line_start`` index that moves only at
newlines.
"""

from __future__ import annotations

import re
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
# ``int()``/``float()`` accept).
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<NEWLINE>\n)"
    r"|(?P<COMMENT>#[^\n]*)"
    r'|(?P<TRIPLE>"""[\s\S]*?""")'
    r'|(?P<OPEN_TRIPLE>""")'
    r"""|(?P<STRING>"(?:[^"\\\n]|\\[\s\S])*"|'(?:[^'\\\n]|\\[\s\S])*')"""
    r"""|(?P<OPEN_STRING>["'])"""
    r"|(?P<ARROW>->)"
    r"|(?P<NUMBER>-?\d[\d.]*(?:[eE][+-]?\d+)?)"
    r"|(?P<NAME>[A-Za-z_]\w*)"
    r"|(?P<UNAME>[^\W\d]\w*)"
    r"|(?P<PUNCT>[][{}(),:=<>])"
    r"|(?P<OTHER>[^ \t\r]))"
)


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
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
            continue
        start = match.start(kind)
        text = match[kind]
        column = start - line_start + 1
        if kind == "NAME":
            append(Token(TokenType.NAME, text, line, column))
        elif kind == "PUNCT":
            append(Token(_PUNCT[text], text, line, column))
        elif kind == "STRING" or kind == "TRIPLE":
            if kind == "TRIPLE":
                value = text[3:-3]
            else:
                quote = text[0]
                value = text[1:-1]
                if "\\" in value:
                    value = (
                        value.replace(f"\\{quote}", quote)
                        .replace("\\n", "\n")
                        .replace("\\\\", "\\")
                    )
            append(Token(TokenType.STRING, value, line, column))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif kind == "NUMBER":
            if text.count(".") > 1:
                raise DslSyntaxError(f"malformed number {text!r}", line, column)
            append(Token(TokenType.NUMBER, text, line, column))
        elif kind == "ARROW":
            append(Token(TokenType.ARROW, text, line, column))
        elif kind == "COMMENT":
            if comments is not None:
                trailing = bool(tokens) and tokens[-1].line == line
                comments.append((text, line, column, trailing))
        elif kind == "UNAME" and text[0].isalpha():
            append(Token(TokenType.NAME, text, line, column))
        elif kind == "OPEN_TRIPLE":
            raise DslSyntaxError("unterminated triple-quoted string", line, column)
        elif kind == "OPEN_STRING":
            raise DslSyntaxError("unterminated string", line, column)
        else:
            raise DslSyntaxError(f"unexpected character {text[0]!r}", line, column)
    append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens


def collect_suppressions(source: str) -> "list":
    """Parse every ``# spear: ignore[...]`` comment in ``source``.

    Returns :class:`repro.analysis.suppressions.Suppression` records;
    source that fails to lex yields none (the checker reports SPEAR001
    long before suppressions matter).
    """
    from repro.analysis.suppressions import Suppression

    comments: list[tuple[str, int, int, bool]] = []
    try:
        tokenize(source, comments=comments)
    except DslSyntaxError:
        return []
    suppressions = []
    for text, line, column, trailing in comments:
        suppression = Suppression.from_comment(
            text, line, column, trailing=trailing
        )
        if suppression is not None:
            suppressions.append(suppression)
    return suppressions
