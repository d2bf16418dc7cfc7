"""Positions on demand: AST nodes, SPEAR001 spans and comments.

The scanner emits tokens with source offsets only; the parser turns an
offset into ``(line, column)`` through the source's newline index where
it stores or reports one.  For the DL fixtures, seeded bench programs
(multi-line triple-quoted templates), hypothesis-generated programs,
and the CRLF / tab / trailing comment variant of each (the variants
``test_lexer_differential.py`` generates), every position must equal what the
:func:`~repro.dl.lexer.tokenize` token at the same offset reports, and
``tokenize`` itself must agree with the character-loop oracle:

- every ``OpCall``, ``ViewDef`` and ``PipelineDef`` ``line``/``column``;
- the SPEAR001 span of a lex error and of a parse error planted at each
  operator token;
- every comment's ``(line, column, trailing)`` that the parse collects.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from bench import gen
from repro.analysis import check_program
from repro.dl import format_program
from repro.dl.ast_nodes import OpCall
from repro.dl.lexer import TokenType, tokenize
from repro.dl.parser import _parse_with_comments
from tests.dl.reference_lexer import reference_tokenize
from tests.dl.test_dl_properties import programs

FIXTURES = Path(__file__).parent.parent / "fixtures" / "dl"


def _noisy(source: str) -> str:
    """CRLF line ends, tab indents and a trailing comment on every line."""
    return source.replace("\n", "  # note\r\n").replace("  ", "\t")


def _sources() -> list[tuple[str, str]]:
    bases = [(path.name, path.read_text()) for path in sorted(FIXTURES.glob("*.spear"))]
    bases += [
        (f"bench-7-{index}", source)
        for index, (source, _) in enumerate(gen.dl_programs(4, 7))
    ]
    return [
        variant
        for name, source in bases
        for variant in ((name, source), (f"{name}-noisy", _noisy(source)))
    ]


SOURCES = _sources()


def _op_calls(value):
    if isinstance(value, OpCall):
        yield value
        for arg in (*value.args, *value.kwargs.values()):
            yield from _op_calls(arg)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _op_calls(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _op_calls(item)


def _op_starts(tokens) -> list:
    """Tokens that start an operator term: a NAME before ``[`` that is
    not the ``M`` of a ``M["signal"] < x`` condition."""
    starts = []
    for index, token in enumerate(tokens[:-1]):
        if token.type is not TokenType.NAME:
            continue
        if tokens[index + 1].type is not TokenType.LBRACKET:
            continue
        comparison = tokens[index + 4].type in (TokenType.LT, TokenType.GT)
        if token.value == "M" and comparison:
            continue
        starts.append(token)
    return starts


def _definitions(tokens) -> list:
    """``view`` / ``pipeline`` keywords at nesting depth 0."""
    depth, found = 0, []
    for token in tokens:
        if token.type in (TokenType.LBRACKET, TokenType.LBRACE, TokenType.LPAREN):
            depth += 1
        elif token.type in (TokenType.RBRACKET, TokenType.RBRACE, TokenType.RPAREN):
            depth -= 1
        elif depth == 0 and token.value in ("view", "pipeline"):
            found.append(token)
    return found


def _offset(source: str, line: int, column: int) -> int:
    """A 1-based position's offset, counting ``\\n`` line ends only."""
    lines = source.split("\n")
    return sum(len(text) + 1 for text in lines[: line - 1]) + column - 1


def _lexed(source: str):
    comments: list = []
    tokens = tokenize(source, comments=comments)
    oracle_comments: list = []
    assert tokens == reference_tokenize(source, comments=oracle_comments)
    assert comments == oracle_comments
    return tokens, comments


def assert_op_call_positions(source: str) -> None:
    tokens, _ = _lexed(source)
    program, _ = _parse_with_comments(source)
    statements = [s for p in program.pipelines for s in p.statements]
    calls = list(_op_calls([(s.op, s.then) for s in statements]))
    assert sorted((c.line, c.column, c.name) for c in calls) == sorted(
        (t.line, t.column, t.value) for t in _op_starts(tokens)
    )


def assert_definition_positions(source: str) -> None:
    tokens, _ = _lexed(source)
    program, _ = _parse_with_comments(source)
    defined = [("view", node.line, node.column) for node in program.views] + [
        ("pipeline", node.line, node.column) for node in program.pipelines
    ]
    assert sorted(defined) == sorted(
        (t.value, t.line, t.column) for t in _definitions(tokens)
    )


def assert_comment_positions(source: str) -> None:
    _, comments = _lexed(source)
    assert _parse_with_comments(source)[1] == comments


def assert_syntax_error_spans(source: str) -> None:
    tokens, _ = _lexed(source)
    for token in _op_starts(tokens):
        offset = _offset(source, token.line, token.column)
        assert source[offset:].startswith(token.value)
        for planted in ("$", ") "):  # a lex error, a parse error
            broken = source[:offset] + planted + source[offset:]
            (diagnostic,) = check_program(broken)
            assert diagnostic.code == "SPEAR001"
            assert (diagnostic.span.line, diagnostic.span.column) == (
                token.line,
                token.column,
            ), (planted, diagnostic.message)


CHECKS = (
    assert_op_call_positions,
    assert_definition_positions,
    assert_comment_positions,
    assert_syntax_error_spans,
)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
@pytest.mark.parametrize("name,source", SOURCES, ids=[name for name, _ in SOURCES])
def test_positions_match_tokens(name, source, check):
    check(source)


@settings(max_examples=40, deadline=None)
@given(program=programs())
def test_generated_programs(program):
    source = format_program(program)
    for variant in (source, _noisy(source)):
        for check in CHECKS:
            check(variant)
