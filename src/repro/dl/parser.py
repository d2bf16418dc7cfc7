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
from repro.dl.lexer import Token, TokenType, tokenize
from repro.errors import DslSyntaxError

__all__ = ["parse"]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        #: the token at ``_index``; the stream always ends with EOF.
        self.current = tokens[0]

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _error(self, message: str) -> DslSyntaxError:
        token = self.current
        return DslSyntaxError(message, token.line, token.column)

    def _advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._index += 1
            self.current = self._tokens[self._index]
        return token

    def _expect(self, token_type: TokenType, what: str | None = None) -> Token:
        token = self.current
        if token.type is not token_type:
            raise self._error(
                f"expected {what or token_type.value}, got {token.value!r}"
            )
        return self._advance()

    def _expect_keyword(self, keyword: str) -> Token:
        if self.current.type is not TokenType.NAME or self.current.value != keyword:
            raise self._error(f"expected {keyword!r}, got {self.current.value!r}")
        return self._advance()

    # -- program --------------------------------------------------------------

    def parse_program(self) -> Program:
        views: list[ViewDef] = []
        pipelines: list[PipelineDef] = []
        while self.current.type is not TokenType.EOF:
            if self.current.type is not TokenType.NAME:
                raise self._error("expected 'view' or 'pipeline'")
            if self.current.value == "view":
                views.append(self._parse_view())
            elif self.current.value == "pipeline":
                pipelines.append(self._parse_pipeline())
            else:
                raise self._error(
                    f"expected 'view' or 'pipeline', got {self.current.value!r}"
                )
        return Program(views=tuple(views), pipelines=tuple(pipelines))

    # -- view definitions ----------------------------------------------------------

    def _parse_view(self) -> ViewDef:
        keyword = self._expect_keyword("view")
        name = self._expect(TokenType.NAME, "view name").value

        params: list[str] = []
        self._expect(TokenType.LPAREN, "'('")
        while self.current.type is not TokenType.RPAREN:
            params.append(self._expect(TokenType.NAME, "parameter name").value)
            if self.current.type is TokenType.COMMA:
                self._advance()
        self._expect(TokenType.RPAREN, "')'")

        base: str | None = None
        if self.current.type is TokenType.NAME and self.current.value == "extends":
            self._advance()
            base = self._expect(TokenType.NAME, "base view name").value

        self._expect(TokenType.LBRACE, "'{'")
        template = self._expect(TokenType.STRING, "view template string").value.strip()

        tags: list[str] = []
        if self.current.type is TokenType.NAME and self.current.value == "tags":
            self._advance()
            self._expect(TokenType.COLON, "':'")
            tags.append(self._expect(TokenType.NAME, "tag").value)
            while self.current.type is TokenType.COMMA:
                self._advance()
                tags.append(self._expect(TokenType.NAME, "tag").value)

        self._expect(TokenType.RBRACE, "'}'")
        return ViewDef(
            name=name,
            params=tuple(params),
            template=template,
            base=base,
            tags=tuple(tags),
            line=keyword.line,
            column=keyword.column,
        )

    # -- pipelines ---------------------------------------------------------------------

    def _parse_pipeline(self) -> PipelineDef:
        keyword = self._expect_keyword("pipeline")
        name = self._expect(TokenType.NAME, "pipeline name").value
        self._expect(TokenType.LBRACE, "'{'")
        statements: list[Statement] = []
        while self.current.type is not TokenType.RBRACE:
            statements.append(self._parse_statement())
        self._expect(TokenType.RBRACE, "'}'")
        return PipelineDef(
            name=name,
            statements=tuple(statements),
            line=keyword.line,
            column=keyword.column,
        )

    def _parse_statement(self) -> Statement:
        op = self._parse_op_call()
        then: OpCall | None = None
        if self.current.type is TokenType.ARROW:
            self._advance()
            then = self._parse_op_call()
        return Statement(op=op, then=then)

    def _parse_op_call(self) -> OpCall:
        name_token = self._expect(TokenType.NAME, "operator name")
        self._expect(TokenType.LBRACKET, "'['")
        args: list[Any] = []
        kwargs: dict[str, Any] = {}
        while self.current.type is not TokenType.RBRACKET:
            if (
                self.current.type is TokenType.NAME
                and self._peek().type is TokenType.EQUALS
            ):
                key = self._advance().value
                self._advance()  # '='
                kwargs[key] = self._parse_expr()
            else:
                args.append(self._parse_expr())
            if self.current.type is TokenType.COMMA:
                self._advance()
            elif self.current.type is not TokenType.RBRACKET:
                raise self._error("expected ',' or ']' in argument list")
        self._expect(TokenType.RBRACKET, "']'")
        return OpCall(
            name=name_token.value,
            args=tuple(args),
            kwargs=kwargs,
            line=name_token.line,
            column=name_token.column,
        )

    # -- expressions ----------------------------------------------------------------------

    def _parse_expr(self) -> Any:
        token = self.current

        if token.type is TokenType.STRING:
            # Could be a bare string or a context condition:
            #   "orders" not in C  /  "orders" in C
            follower = self._peek()
            if follower.type is TokenType.NAME and follower.value in ("not", "in"):
                return self._parse_context_condition()
            return self._advance().value

        if token.type is TokenType.NUMBER:
            self._advance()
            if any(marker in token.value for marker in ".eE"):
                return float(token.value)
            return int(token.value)

        if token.type is TokenType.LBRACE:
            return self._parse_dict()

        if token.type is TokenType.LBRACKET:
            return self._parse_list()

        if token.type is TokenType.NAME:
            if token.value == "M" and self._peek().type is TokenType.LBRACKET:
                return self._parse_metadata_condition()
            # A nested operator term (e.g. RETRY[GEN["x", prompt="qa"], ...]):
            # uppercase NAME followed by '['.
            if token.value.isupper() and self._peek().type is TokenType.LBRACKET:
                return self._parse_op_call()
            value = self._advance().value
            if value == "true":
                return True
            if value == "false":
                return False
            return value

        raise self._error(f"unexpected token {token.value!r} in expression")

    def _parse_list(self) -> list[Any]:
        self._expect(TokenType.LBRACKET, "'['")
        items: list[Any] = []
        while self.current.type is not TokenType.RBRACKET:
            items.append(self._parse_expr())
            if self.current.type is TokenType.COMMA:
                self._advance()
        self._expect(TokenType.RBRACKET, "']'")
        return items

    def _parse_dict(self) -> dict[str, Any]:
        self._expect(TokenType.LBRACE, "'{'")
        result: dict[str, Any] = {}
        while self.current.type is not TokenType.RBRACE:
            key = self._expect(TokenType.NAME, "dict key").value
            self._expect(TokenType.COLON, "':'")
            result[key] = self._parse_expr()
            if self.current.type is TokenType.COMMA:
                self._advance()
        self._expect(TokenType.RBRACE, "'}'")
        return result

    def _parse_metadata_condition(self) -> ConditionNode:
        self._expect_keyword("M")
        self._expect(TokenType.LBRACKET, "'['")
        signal = self._expect(TokenType.STRING, "signal name").value
        self._expect(TokenType.RBRACKET, "']'")
        if self.current.type is TokenType.LT:
            op = "<"
        elif self.current.type is TokenType.GT:
            op = ">"
        else:
            raise self._error("expected '<' or '>' after M[...]")
        self._advance()
        number = self._expect(TokenType.NUMBER, "threshold").value
        return ConditionNode(
            kind="metadata_cmp", key=signal, op=op, value=float(number)
        )

    def _parse_context_condition(self) -> ConditionNode:
        key = self._expect(TokenType.STRING, "context key").value
        negated = False
        if self.current.type is TokenType.NAME and self.current.value == "not":
            negated = True
            self._advance()
        self._expect_keyword("in")
        self._expect_keyword("C")
        return ConditionNode(
            kind="context_missing" if negated else "context_present", key=key
        )


def parse(source: str) -> Program:
    """Parse SPEAR-DL source into a :class:`Program` AST."""
    return _Parser(tokenize(source)).parse_program()
