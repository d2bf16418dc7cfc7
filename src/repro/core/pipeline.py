"""Pipelines: operator sequences, themselves operators (closure).

``a >> b >> c`` builds a :class:`Pipeline`; because Pipeline subclasses
:class:`~repro.core.algebra.Operator`, pipelines nest and compose freely —
the algebra is closed under composition (paper §3.3).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.algebra import Operator, Steps
from repro.core.state import ExecutionState

__all__ = ["Pipeline"]


class Pipeline(Operator):
    """An ordered composition of operators."""

    def __init__(self, operators: Iterable[Operator] = (), *, name: str | None = None) -> None:
        self.operators: list[Operator] = list(operators)
        self.name = name
        self.label = name or self._default_label()

    def _default_label(self) -> str:
        inner = " -> ".join(op.label for op in self.operators) or "empty"
        return f"PIPELINE[{inner}]"

    def _steps(self, state: ExecutionState) -> Steps:
        for operator in self.operators:
            state = yield from operator.steps(state)
        return state

    def run(self, state: ExecutionState) -> ExecutionState:
        """Execute the pipeline (alias of :meth:`apply`)."""
        return self.apply(state)

    def __rshift__(self, other: Operator) -> "Pipeline":
        if isinstance(other, Pipeline) and other.name is None:
            combined = self.operators + other.operators
        else:
            combined = self.operators + [other]
        return Pipeline(combined, name=self.name)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    def __getitem__(self, index: int) -> Operator:
        return self.operators[index]
