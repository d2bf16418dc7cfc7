"""SPEAR-DL recursive-descent parser.

Grammar (EBNF-ish)::

    program      := (view_def | pipeline_def)*
    view_def     := "view" NAME "(" [NAME ("," NAME)*] ")"
                    ["extends" NAME] "{" STRING [tags_clause] "}"
    tags_clause  := "tags" ":" NAME ("," NAME)*
    pipeline_def := "pipeline" NAME "{" statement* "}"
    statement    := op_call ["->" op_call]
    op_call      := NAME "[" [arg ("," arg)*] "]"
    arg          := kwarg | expr
    kwarg        := NAME "=" expr
    expr         := STRING | NUMBER | NAME | dict | condition
    dict         := "{" [NAME ":" expr ("," NAME ":" expr)*] "}"
    condition    := "M" "[" STRING "]" ("<" | ">") NUMBER
                  | STRING ["not"] "in" "C"

Conditions are only meaningful inside CHECK/RETRY argument lists; the
parser recognizes them syntactically wherever they appear and the
compiler validates placement.

The parser reads the lexer scanner's ``(TokenType, value, offset)``
tuples and turns an offset into ``(line, column)`` only for the nodes
that store one (views, pipelines, operator calls) and for errors.
"""

from __future__ import annotations

from typing import Any

from repro.dl.ast_nodes import (
    ConditionNode,
    OpCall,
    PipelineDef,
    Program,
    Statement,
    ViewDef,
)
from repro.dl.lexer import (
    TokenType,
    _comment_positions,
    _line_starts,
    _position,
    _scan,
    _Scanned,
)
from repro.errors import DslSyntaxError

__all__ = ["parse"]

# Token kinds as module globals: ``TokenType.NAME`` is a lookup through
# the enum's metaclass, and the parser compares a kind at every token.
_NAME = TokenType.NAME
_STRING = TokenType.STRING
_NUMBER = TokenType.NUMBER
_LBRACKET = TokenType.LBRACKET
_RBRACKET = TokenType.RBRACKET
_LBRACE = TokenType.LBRACE
_RBRACE = TokenType.RBRACE
_LPAREN = TokenType.LPAREN
_RPAREN = TokenType.RPAREN
_COMMA = TokenType.COMMA
_COLON = TokenType.COLON
_EQUALS = TokenType.EQUALS
_LT = TokenType.LT
_GT = TokenType.GT
_ARROW = TokenType.ARROW
_EOF = TokenType.EOF


class _Parser:
    def __init__(
        self, source: str, comments: "list[tuple[str, int, bool]] | None" = None
    ) -> None:
        self._tokens = _scan(source, comments)
        self._index = 0
        #: the token at ``_index``; the stream always ends with EOF.
        self.current = self._tokens[0]
        self.line_starts = _line_starts(source)

    # -- token plumbing ------------------------------------------------------

    def _position(self, token: _Scanned) -> tuple[int, int]:
        return _position(self.line_starts, token[2])

    def _peek(self) -> _Scanned:
        # Called only while the current token is a NAME or a STRING, so
        # the EOF at the end of the stream is never stepped past.
        return self._tokens[self._index + 1]

    def _error(self, message: str) -> DslSyntaxError:
        return DslSyntaxError(message, *self._position(self.current))

    def _advance(self) -> _Scanned:
        token = self.current
        if token[0] is not _EOF:
            self._index += 1
            self.current = self._tokens[self._index]
        return token

    def _expect(self, token_type: TokenType, what: str | None = None) -> _Scanned:
        token = self.current
        if token[0] is not token_type:
            raise self._error(f"expected {what or token_type.value}, got {token[1]!r}")
        # Never EOF: no caller expects it.
        self._index += 1
        self.current = self._tokens[self._index]
        return token

    def _expect_keyword(self, keyword: str) -> _Scanned:
        if self.current[0] is not _NAME or self.current[1] != keyword:
            raise self._error(f"expected {keyword!r}, got {self.current[1]!r}")
        return self._advance()

    # -- program --------------------------------------------------------------

    def parse_program(self) -> Program:
        views: list[ViewDef] = []
        pipelines: list[PipelineDef] = []
        while self.current[0] is not _EOF:
            if self.current[0] is not _NAME:
                raise self._error("expected 'view' or 'pipeline'")
            if self.current[1] == "view":
                views.append(self._parse_view())
            elif self.current[1] == "pipeline":
                pipelines.append(self._parse_pipeline())
            else:
                raise self._error(
                    f"expected 'view' or 'pipeline', got {self.current[1]!r}"
                )
        return Program(views=tuple(views), pipelines=tuple(pipelines))

    # -- view definitions ----------------------------------------------------------

    def _parse_view(self) -> ViewDef:
        keyword = self._expect_keyword("view")
        name = self._expect(_NAME, "view name")[1]

        params: list[str] = []
        self._expect(_LPAREN, "'('")
        while self.current[0] is not _RPAREN:
            params.append(self._expect(_NAME, "parameter name")[1])
            if self.current[0] is _COMMA:
                self._advance()
        self._expect(_RPAREN, "')'")

        base: str | None = None
        if self.current[0] is _NAME and self.current[1] == "extends":
            self._advance()
            base = self._expect(_NAME, "base view name")[1]

        self._expect(_LBRACE, "'{'")
        template = self._expect(_STRING, "view template string")[1].strip()

        tags: list[str] = []
        if self.current[0] is _NAME and self.current[1] == "tags":
            self._advance()
            self._expect(_COLON, "':'")
            tags.append(self._expect(_NAME, "tag")[1])
            while self.current[0] is _COMMA:
                self._advance()
                tags.append(self._expect(_NAME, "tag")[1])

        self._expect(_RBRACE, "'}'")
        line, column = self._position(keyword)
        return ViewDef(
            name=name,
            params=tuple(params),
            template=template,
            base=base,
            tags=tuple(tags),
            line=line,
            column=column,
        )

    # -- pipelines ---------------------------------------------------------------------

    def _parse_pipeline(self) -> PipelineDef:
        keyword = self._expect_keyword("pipeline")
        name = self._expect(_NAME, "pipeline name")[1]
        self._expect(_LBRACE, "'{'")
        statements: list[Statement] = []
        while self.current[0] is not _RBRACE:
            statements.append(self._parse_statement())
        self._expect(_RBRACE, "'}'")
        line, column = self._position(keyword)
        return PipelineDef(
            name=name,
            statements=tuple(statements),
            line=line,
            column=column,
        )

    def _parse_statement(self) -> Statement:
        op = self._parse_op_call()
        then: OpCall | None = None
        if self.current[0] is _ARROW:
            self._advance()
            then = self._parse_op_call()
        return Statement(op=op, then=then)

    def _parse_op_call(self) -> OpCall:
        name_token = self._expect(_NAME, "operator name")
        self._expect(_LBRACKET, "'['")
        args: list[Any] = []
        kwargs: dict[str, Any] = {}
        while self.current[0] is not _RBRACKET:
            token = self.current
            if token[0] is _NAME and self._peek()[0] is _EQUALS:
                self._index += 2  # NAME '='
                self.current = self._tokens[self._index]
                kwargs[token[1]] = self._parse_expr()
            else:
                args.append(self._parse_expr())
            if self.current[0] is _COMMA:
                self._advance()
            elif self.current[0] is not _RBRACKET:
                raise self._error("expected ',' or ']' in argument list")
        self._advance()  # ']'
        line, column = self._position(name_token)
        return OpCall(
            name=name_token[1],
            args=tuple(args),
            kwargs=kwargs,
            line=line,
            column=column,
        )

    # -- expressions ----------------------------------------------------------------------

    def _parse_expr(self) -> Any:
        token = self.current

        if token[0] is _STRING:
            # Could be a bare string or a context condition:
            #   "orders" not in C  /  "orders" in C
            follower = self._peek()
            if follower[0] is _NAME and follower[1] in ("not", "in"):
                return self._parse_context_condition()
            return self._advance()[1]

        if token[0] is _NUMBER:
            self._advance()
            if any(marker in token[1] for marker in ".eE"):
                return float(token[1])
            return int(token[1])

        if token[0] is _LBRACE:
            return self._parse_dict()

        if token[0] is _LBRACKET:
            return self._parse_list()

        if token[0] is _NAME:
            if token[1] == "M" and self._peek()[0] is _LBRACKET:
                return self._parse_metadata_condition()
            # A nested operator term (e.g. RETRY[GEN["x", prompt="qa"], ...]):
            # uppercase NAME followed by '['.
            if token[1].isupper() and self._peek()[0] is _LBRACKET:
                return self._parse_op_call()
            value = self._advance()[1]
            if value == "true":
                return True
            if value == "false":
                return False
            return value

        raise self._error(f"unexpected token {token[1]!r} in expression")

    def _parse_list(self) -> list[Any]:
        self._expect(_LBRACKET, "'['")
        items: list[Any] = []
        while self.current[0] is not _RBRACKET:
            items.append(self._parse_expr())
            if self.current[0] is _COMMA:
                self._advance()
        self._expect(_RBRACKET, "']'")
        return items

    def _parse_dict(self) -> dict[str, Any]:
        self._expect(_LBRACE, "'{'")
        result: dict[str, Any] = {}
        while self.current[0] is not _RBRACE:
            key = self._expect(_NAME, "dict key")[1]
            self._expect(_COLON, "':'")
            result[key] = self._parse_expr()
            if self.current[0] is _COMMA:
                self._advance()
        self._expect(_RBRACE, "'}'")
        return result

    def _parse_metadata_condition(self) -> ConditionNode:
        self._expect_keyword("M")
        self._expect(_LBRACKET, "'['")
        signal = self._expect(_STRING, "signal name")[1]
        self._expect(_RBRACKET, "']'")
        if self.current[0] is _LT:
            op = "<"
        elif self.current[0] is _GT:
            op = ">"
        else:
            raise self._error("expected '<' or '>' after M[...]")
        self._advance()
        number = self._expect(_NUMBER, "threshold")[1]
        return ConditionNode(
            kind="metadata_cmp", key=signal, op=op, value=float(number)
        )

    def _parse_context_condition(self) -> ConditionNode:
        key = self._expect(_STRING, "context key")[1]
        negated = False
        if self.current[0] is _NAME and self.current[1] == "not":
            negated = True
            self._advance()
        self._expect_keyword("in")
        self._expect_keyword("C")
        return ConditionNode(
            kind="context_missing" if negated else "context_present", key=key
        )


def parse(source: str) -> Program:
    """Parse SPEAR-DL source into a :class:`Program` AST."""
    return _Parser(source).parse_program()


def _parse_with_comments(
    source: str,
) -> tuple[Program, list[tuple[str, int, int, bool]]]:
    """Parse ``source`` and return its comments from the same scan.

    The comments come as ``(text, line, column, trailing)``, exactly as
    :func:`~repro.dl.lexer.tokenize` collects them.
    """
    comments: list[tuple[str, int, bool]] = []
    parser = _Parser(source, comments)
    program = parser.parse_program()
    return program, _comment_positions(parser.line_starts, comments)
