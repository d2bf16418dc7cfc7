"""The character-loop SPEAR-DL lexer, kept as a test oracle.

This is the lexer ``repro.dl.lexer.tokenize`` replaced: it walks the
source one character at a time.  ``test_lexer_differential.py`` checks
the master-regex lexer against it token for token, comment for comment,
and error for error.  It lives under ``tests/`` only and nothing in
``src/`` imports it.
"""

from __future__ import annotations

from repro.dl.lexer import Token, TokenType
from repro.errors import DslSyntaxError

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


def _is_name_start(char: str) -> bool:
    return char.isalpha() or char == "_"


def _is_name_char(char: str) -> bool:
    return char.isalnum() or char == "_"


def reference_tokenize(
    source: str,
    *,
    comments: "list[tuple[str, int, int, bool]] | None" = None,
    is_digit=str.isdigit,
) -> list[Token]:
    """Lex ``source`` one character at a time; same contract as ``tokenize``.

    ``is_digit`` decides which characters a NUMBER is made of.  The old
    lexer used ``str.isdigit``, which also admits ``²`` and other digits
    ``int()`` rejects; ``tokenize`` now takes ``str.isdecimal`` ones only.
    """
    tokens: list[Token] = []
    position = 0
    line = 1
    column = 1
    length = len(source)

    def advance(count: int) -> None:
        nonlocal position, line, column
        for __ in range(count):
            if position < length and source[position] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            position += 1

    while position < length:
        char = source[position]

        if char in " \t\r\n":
            advance(1)
            continue

        if char == "#":
            start_line, start_column = line, column
            start = position
            while position < length and source[position] != "\n":
                advance(1)
            if comments is not None:
                comments.append(
                    (
                        source[start:position],
                        start_line,
                        start_column,
                        bool(tokens) and tokens[-1].line == start_line,
                    )
                )
            continue

        if source.startswith('"""', position):
            start_line, start_column = line, column
            end = source.find('"""', position + 3)
            if end < 0:
                raise DslSyntaxError(
                    "unterminated triple-quoted string", start_line, start_column
                )
            value = source[position + 3 : end]
            advance(end + 3 - position)
            tokens.append(Token(TokenType.STRING, value, start_line, start_column))
            continue

        if char in "\"'":
            start_line, start_column = line, column
            quote = char
            end = position + 1
            while end < length and source[end] != quote:
                if source[end] == "\n":
                    raise DslSyntaxError(
                        "unterminated string", start_line, start_column
                    )
                if source[end] == "\\":
                    end += 1
                end += 1
            if end >= length:
                raise DslSyntaxError("unterminated string", start_line, start_column)
            raw = source[position + 1 : end]
            value = (
                raw.replace(f"\\{quote}", quote)
                .replace("\\n", "\n")
                .replace("\\\\", "\\")
            )
            advance(end + 1 - position)
            tokens.append(Token(TokenType.STRING, value, start_line, start_column))
            continue

        if source.startswith("->", position):
            tokens.append(Token(TokenType.ARROW, "->", line, column))
            advance(2)
            continue

        if is_digit(char) or (
            char == "-" and position + 1 < length and is_digit(source[position + 1])
        ):
            start_line, start_column = line, column
            end = position + 1
            while end < length and (is_digit(source[end]) or source[end] == "."):
                end += 1
            # Scientific notation: 6e-10, 1.5E+3, 2e7.
            if end < length and source[end] in "eE":
                exponent = end + 1
                if exponent < length and source[exponent] in "+-":
                    exponent += 1
                if exponent < length and is_digit(source[exponent]):
                    end = exponent
                    while end < length and is_digit(source[end]):
                        end += 1
            value = source[position:end]
            mantissa = value.split("e")[0].split("E")[0]
            if mantissa.count(".") > 1:
                raise DslSyntaxError(
                    f"malformed number {value!r}", start_line, start_column
                )
            advance(end - position)
            tokens.append(Token(TokenType.NUMBER, value, start_line, start_column))
            continue

        if _is_name_start(char):
            start_line, start_column = line, column
            end = position + 1
            while end < length and _is_name_char(source[end]):
                end += 1
            value = source[position:end]
            advance(end - position)
            tokens.append(Token(TokenType.NAME, value, start_line, start_column))
            continue

        if char in _PUNCT:
            tokens.append(Token(_PUNCT[char], char, line, column))
            advance(1)
            continue

        raise DslSyntaxError(f"unexpected character {char!r}", line, column)

    tokens.append(Token(TokenType.EOF, "", line, column))
    return tokens
