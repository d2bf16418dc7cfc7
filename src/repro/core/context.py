"""The runtime context C: dynamic map of inputs and intermediate outputs.

``Context`` is the C in SPEAR's ``(P, C, M)`` execution state (paper §3.2).
It holds raw inputs, retrieval results, prior generations and extracted
fields.  Prompt templates interpolate values from C at GEN time, and REF
functions may write structured output back into C for downstream steps.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping

from repro.core.footprint import immutable_by_type, stable_digest
from repro.errors import UnknownContextKeyError

__all__ = ["Context"]


class Context:
    """Runtime data store with write-history for introspection."""

    def __init__(self, initial: Mapping[str, Any] | None = None) -> None:
        self._values: dict[str, Any] = dict(initial or {})
        #: key -> the prompt chunk of its long ``str`` value (DESIGN.md §7):
        #: made when a template first interpolates it, dropped with the binding.
        self.chunks: dict[str, Any] = {}
        #: key -> (value, ``stable_digest(value)``) for a value immutable by
        #: type: made when a footprint first reads it, dropped with the binding.
        self.digests: dict[str, tuple[Any, str]] = {}
        #: ordered (key, producer) pairs recording who wrote each value;
        #: producer is an operator/agent label, "initial" for seed data.
        self.write_log: list[tuple[str, str]] = [
            (key, "initial") for key in self._values
        ]

    # -- mapping protocol -------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        try:
            return self._values[key]
        except KeyError:
            raise UnknownContextKeyError(key) from None

    def __setitem__(self, key: str, value: Any) -> None:
        self.put(key, value)

    def __delitem__(self, key: str) -> None:
        try:
            del self._values[key]
        except KeyError:
            raise UnknownContextKeyError(key) from None
        self.chunks.pop(key, None)
        self.digests.pop(key, None)

    def __contains__(self, key: object) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def keys(self) -> list[str]:
        """All context keys, oldest-written first."""
        return list(self._values)

    def get(self, key: str, default: Any = None) -> Any:
        """Return the value for ``key`` or ``default`` when absent."""
        return self._values.get(key, default)

    # -- writes with provenance --------------------------------------------

    def put(self, key: str, value: Any, *, producer: str = "unknown") -> None:
        """Write ``value`` under ``key``, recording the producing operator."""
        self._values[key] = value
        chunk = self.chunks.get(key)
        if chunk is not None and chunk.text is not value:
            self.chunks.pop(key, None)
        known = self.digests.get(key)
        if known is not None and known[0] is not value:
            del self.digests[key]
        self.write_log.append((key, producer))

    def update(self, values: Mapping[str, Any], *, producer: str = "unknown") -> None:
        """Bulk write, recording the same producer for every key."""
        for key, value in values.items():
            self.put(key, value, producer=producer)

    def digest(self, key: str) -> str:
        """``stable_digest`` of the value under ``key``, kept beside the
        value while it stays bound when it is immutable by type."""
        value = self[key]
        known = self.digests.get(key)
        if known is not None and known[0] is value:
            return known[1]
        digest = stable_digest(value)
        if immutable_by_type(value):
            self.digests[key] = (value, digest)
        return digest

    def producers_of(self, key: str) -> list[str]:
        """All operators that ever wrote ``key``, in order."""
        return [producer for written, producer in self.write_log if written == key]

    # -- views over the data -------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """A shallow copy of the current values."""
        return dict(self._values)

    def subset(self, keys: list[str]) -> dict[str, Any]:
        """The values for ``keys`` that are present, as a plain dict."""
        return {key: self._values[key] for key in keys if key in self._values}

    def fork(self) -> "Context":
        """Shallow-copy the context for branch/shadow execution.

        The copy shares the prompt chunks and value digests this context
        already holds; a fork only reads its parent.
        """
        copy = Context()
        copy._values = dict(self._values)
        copy.write_log = list(self.write_log)
        copy.chunks = dict(self.chunks)
        copy.digests = dict(self.digests)
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Context({sorted(self._values)!r})"
