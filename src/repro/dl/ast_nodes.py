"""SPEAR-DL abstract syntax tree nodes.

The parser produces these plain dataclasses; the compiler lowers them to
core operators.  Keeping the AST independent of the operator classes lets
tools (formatters, linters, visualizers) work on DL programs without an
execution environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

__all__ = [
    "ConditionNode",
    "OpCall",
    "Statement",
    "ViewDef",
    "PipelineDef",
    "Program",
]


@dataclass(frozen=True)
class ConditionNode:
    """A condition term inside CHECK[...].

    kinds:
    - ``metadata_cmp``: M["signal"] < value  (op is "<" or ">")
    - ``context_missing``: "key" not in C
    - ``context_present``: "key" in C
    """

    kind: str
    key: str
    op: str | None = None
    value: float | None = None

    def text(self) -> str:
        """Render back to the paper's notation (for ref_log provenance)."""
        if self.kind == "metadata_cmp":
            return f'M["{self.key}"] {self.op} {self.value}'
        if self.kind == "context_missing":
            return f'"{self.key}" not in C'
        return f'"{self.key}" in C'


@dataclass(frozen=True)
class OpCall:
    """One operator term: ``NAME[positional..., kw=value...]``."""

    name: str
    args: tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: source position — metadata only, excluded from equality so ASTs
    #: compare structurally (formatter round-trips shift line numbers).
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Statement:
    """One pipeline statement: an op, optionally with an arrow target.

    ``CHECK[cond] -> REF[...]`` parses as Statement(op=CHECK-call,
    then=REF-call).
    """

    op: OpCall
    then: OpCall | None = None


@dataclass(frozen=True)
class ViewDef:
    """A named view definition."""

    name: str
    params: tuple[str, ...]
    template: str
    base: str | None = None
    tags: tuple[str, ...] = ()
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PipelineDef:
    """A named pipeline of statements."""

    name: str
    statements: tuple[Statement, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Program:
    """A full SPEAR-DL compilation unit."""

    views: tuple[ViewDef, ...] = ()
    pipelines: tuple[PipelineDef, ...] = ()

    @cached_property
    def _lowerings(self) -> dict[str | None, Any]:
        """Lowered pipelines by ``filename``, kept by the compiler.

        A program is frozen, so lowering it against its own views is a
        pure function of the program and the filename its spans carry.
        Not a field: equality, ``repr`` and pickles never see it.
        """
        return {}

    def __getstate__(self) -> dict[str, Any]:
        return {"views": self.views, "pipelines": self.pipelines}

    def view(self, name: str) -> ViewDef | None:
        """Look up a view definition by name."""
        for view in self.views:
            if view.name == name:
                return view
        return None

    def pipeline(self, name: str) -> PipelineDef | None:
        """Look up a pipeline definition by name."""
        for pipeline in self.pipelines:
            if pipeline.name == name:
                return pipeline
        return None
