"""Structured prompt entries: the values stored in the prompt store P.

In SPEAR a prompt is not an opaque string.  Each entry in P is a structured
object carrying the prompt text (possibly a template over the context C),
provenance metadata in the form of a ``ref_log``, tags for dispatch, and an
implicit version counter advanced by every refinement (paper §3.1, §4.3).
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import Any, Iterator, Mapping

from repro.core.context import Context
from repro.core.footprint import stable_digest
from repro.errors import UnknownVersionError

__all__ = [
    "RefAction",
    "RefinementMode",
    "RefLogRecord",
    "PromptVersion",
    "PromptEntry",
    "StaticChunk",
    "CompiledTemplate",
    "RenderedPrompt",
    "bound_chunk",
    "render_template",
    "template_placeholders",
    "PROMPT_BLOCK_START",
    "PROMPT_BLOCK_END",
]

#: Delimiters rewrite meta-prompts use to carry the prompt being rewritten:
#: ``core.refinement`` writes them and ``llm.tasks`` parses them.
PROMPT_BLOCK_START = "<<<PROMPT>>>"
PROMPT_BLOCK_END = "<<<END>>>"

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_.]*)\}")


class RefAction(str, Enum):
    """The action type recorded for each refinement step (paper §3.3, §4.3)."""

    CREATE = "CREATE"
    APPEND = "APPEND"
    PREPEND = "PREPEND"
    UPDATE = "UPDATE"
    REPLACE = "REPLACE"
    MERGE = "MERGE"
    ROLLBACK = "ROLLBACK"
    CLONE = "CLONE"


class RefinementMode(str, Enum):
    """Who (or what) selected and executed the refinement (paper §4.1)."""

    MANUAL = "MANUAL"
    ASSISTED = "ASSISTED"
    AUTO = "AUTO"


@dataclass(frozen=True)
class RefLogRecord:
    """One step in a prompt's provenance log.

    Attributes:
        action: what kind of edit was applied.
        function: name of the refinement function ``f`` that produced it.
        mode: refinement mode (manual / assisted / auto), if applicable.
        condition: textual form of the triggering condition, if any
            (e.g. ``M["confidence"] < 0.7``).
        version: the entry version this step produced.
        signals: runtime signals captured at refinement time (confidence,
            latency, token counts) — the raw material for cost-based
            refinement planning (paper §5).
        timestamp: wall-clock seconds; informational only.
    """

    action: RefAction
    function: str
    version: int
    mode: RefinementMode | None = None
    condition: str | None = None
    signals: Mapping[str, float] = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dict (the paper's JSON-ish ref_log form)."""
        record: dict[str, Any] = {
            "action": self.action.value,
            "f": self.function,
            "version": self.version,
        }
        if self.mode is not None:
            record["mode"] = self.mode.value
        if self.condition is not None:
            record["condition"] = self.condition
        if self.signals:
            record["signals"] = dict(self.signals)
        return record


class StaticChunk:
    """Prompt text analysed once: a template literal or a long bound value.

    The unit of reuse between renders: layers that analyse prompt text
    (tokens, features) keep their result for this text in ``memo`` —
    written once, discarded with the prompt version or the context
    binding (:func:`bound_chunk`) that owns it.
    """

    __slots__ = ("text", "memo")

    def __init__(self, text: str) -> None:
        self.text = text
        self.memo: dict[str, Any] = {}


@cache
def _chunk_cut() -> int:
    # ``prompt_features``' windows around a chunk's two seams span this much.
    from repro.llm.features import _REACH  # repro.llm imports this module

    return 4 * _REACH


def bound_chunk(context: Context, key: str, value: Any) -> StaticChunk | None:
    """The chunk owned by ``context``'s binding of ``key`` to ``value``.

    Made on first use and kept in ``context.chunks`` until the key is
    rewritten; ``None`` for anything but a ``str`` long enough to pay.
    """
    if type(value) is not str or len(value) <= _chunk_cut():
        return None
    chunk = context.chunks.get(key)
    if chunk is None or chunk.text is not value:
        chunk = context.chunks[key] = StaticChunk(value)
    return chunk


class RenderedPrompt(str):
    """Rendered prompt text that still knows its segments.

    ``segments`` joins back to the text: a :class:`StaticChunk` for each
    literal run of the template and each long value bound in a context,
    a plain ``str`` for any other interpolated value.  It is a ``str``
    everywhere a ``str`` is expected, and any string operation on it
    returns a plain ``str`` — structure is dropped, never stale.
    """

    __slots__ = ("segments",)
    segments: tuple["StaticChunk | str", ...]

    def __new__(cls, text: str, segments: tuple[Any, ...]) -> "RenderedPrompt":
        self = super().__new__(cls, text)
        self.segments = segments
        return self

    def __reduce__(self) -> tuple[Any, ...]:
        return (str, (str(self),))  # a copy or pickle is the plain text


class CompiledTemplate:
    """A template text parsed once: literal chunks and placeholder slots."""

    __slots__ = ("parts", "names")

    def __init__(self, text: str) -> None:
        # ``split`` on a one-group pattern alternates literal, name, literal…
        pieces = _PLACEHOLDER_RE.split(text)
        #: literal runs as :class:`StaticChunk`, slots as ``(name, path)``.
        self.parts: tuple[Any, ...] = tuple(
            (piece, tuple(piece.split("."))) if index % 2 else StaticChunk(piece)
            for index, piece in enumerate(pieces)
            if index % 2 or piece
        )
        self.names = tuple(dict.fromkeys(pieces[1::2]))  # ordered, de-duplicated

    def render(self, *scopes: Any) -> RenderedPrompt:
        """Interpolate each slot from the first of ``scopes`` binding its root.

        A scope is anything supporting ``in`` and ``[]`` (a mapping, the
        context).  Dotted names descend through nested mappings; a slot
        nothing binds is left literally in place.  A long ``str`` bound at
        the root of a :class:`Context` renders as its :func:`bound_chunk`.
        """
        segments: list[Any] = []
        for part in self.parts:
            if isinstance(part, StaticChunk):
                segments.append(part)
                continue
            name, path = part
            value = "{" + name + "}"
            for scope in scopes:
                if path[0] in scope:
                    current = scope[path[0]]
                    for key in path[1:]:
                        if not (isinstance(current, Mapping) and key in current):
                            break
                        current = current[key]
                    else:
                        value = str(current)
                        if len(path) == 1 and isinstance(scope, Context):
                            value = bound_chunk(scope, name, current) or value
                    break
            segments.append(value)
        text = "".join(s if isinstance(s, str) else s.text for s in segments)
        return RenderedPrompt(text, tuple(segments))


@dataclass(frozen=True)
class PromptVersion:
    """An immutable snapshot of a prompt's text at one version."""

    version: int
    text: str

    @cached_property
    def template(self) -> CompiledTemplate:
        """The text's one parse (a refinement makes a new version)."""
        return CompiledTemplate(self.text)

    @cached_property
    def text_digest(self) -> str:
        """``stable_digest(text)``, hashed once per version."""
        return stable_digest(self.text)


def template_placeholders(text: str) -> list[str]:
    """Return the ordered, de-duplicated placeholder names in ``text``.

    Placeholders use ``{name}`` syntax; dotted names (``{note.text}``) are
    allowed and resolved against nested mappings at render time.
    """
    return list(dict.fromkeys(_PLACEHOLDER_RE.findall(text)))


def render_template(text: str, values: Mapping[str, Any]) -> RenderedPrompt:
    """Interpolate ``{name}`` placeholders in ``text`` from ``values``.

    Unknown placeholders are left intact so that partially-bound templates
    remain valid templates (views may bind parameters in several steps).
    """
    return CompiledTemplate(text).render(values)


class PromptEntry:
    """A structured prompt value: text + tags + parameters + provenance.

    Entries are mutable (refinement edits them in place) but every text
    change snapshots the previous version, so rollback and DIFF always have
    full history to work with.
    """

    def __init__(
        self,
        text: str,
        *,
        tags: set[str] | None = None,
        params: Mapping[str, Any] | None = None,
        view: str | None = None,
        created_by: str = "f_literal",
        mode: RefinementMode | None = None,
    ) -> None:
        self._versions: list[PromptVersion] = [PromptVersion(0, text)]
        self.tags: set[str] = set(tags or ())
        self.params: dict[str, Any] = dict(params or {})
        #: name of the view this entry was derived from, if any.
        self.view = view
        self.ref_log: list[RefLogRecord] = [
            RefLogRecord(
                action=RefAction.CREATE,
                function=created_by,
                version=0,
                mode=mode,
            )
        ]

    # -- text / version access ------------------------------------------

    @property
    def text(self) -> str:
        """The current prompt text."""
        return self._versions[-1].text

    @property
    def version(self) -> int:
        """The current version number (0-based, advanced per edit)."""
        return self._versions[-1].version

    @property
    def versions(self) -> tuple[PromptVersion, ...]:
        """All snapshots, oldest first."""
        return tuple(self._versions)

    def text_at(self, version: int) -> str:
        """Return the text the entry had at ``version``."""
        for snapshot in self._versions:
            if snapshot.version == version:
                return snapshot.text
        raise UnknownVersionError("<entry>", version)

    @property
    def template(self) -> CompiledTemplate:
        """The current version's compiled template."""
        return self._versions[-1].template

    @property
    def text_digest(self) -> str:
        """The current version's text digest."""
        return self._versions[-1].text_digest

    def placeholders(self) -> list[str]:
        """Unbound ``{placeholder}`` names in the current text."""
        return list(self.template.names)

    def render(self, values: Mapping[str, Any]) -> RenderedPrompt:
        """Render the current text against ``values`` (see render_template)."""
        return self.template.render(values, self.params)

    # -- refinement ------------------------------------------------------

    def record(
        self,
        action: RefAction,
        new_text: str,
        *,
        function: str,
        mode: RefinementMode | None = None,
        condition: str | None = None,
        signals: Mapping[str, float] | None = None,
    ) -> RefLogRecord:
        """Apply an edit: snapshot the new text and append to the ref_log.

        Returns the log record created.  This is the single mutation point
        for prompt text — REF, MERGE and rollback all funnel through it.
        """
        next_version = self.version + 1
        self._versions.append(PromptVersion(next_version, new_text))
        record = RefLogRecord(
            action=action,
            function=function,
            version=next_version,
            mode=mode,
            condition=condition,
            signals=dict(signals or {}),
        )
        self.ref_log.append(record)
        return record

    def rollback(self, version: int) -> RefLogRecord:
        """Restore the text of an earlier ``version`` (as a new version).

        Rollback is itself a logged refinement, so history is never lost.
        """
        text = self.text_at(version)
        return self.record(
            RefAction.ROLLBACK,
            text,
            function=f"f_rollback_to_v{version}",
        )

    def clone(self) -> "PromptEntry":
        """Deep-copy this entry, recording the clone in the copy's log."""
        copy = PromptEntry(
            self.text,
            tags=set(self.tags),
            params=dict(self.params),
            view=self.view,
            created_by="f_clone",
        )
        copy._versions = list(self._versions)
        copy.ref_log = list(self.ref_log)
        copy.ref_log.append(
            RefLogRecord(
                action=RefAction.CLONE,
                function="f_clone",
                version=self.version,
            )
        )
        return copy

    # -- introspection ----------------------------------------------------

    def history(self) -> Iterator[dict[str, Any]]:
        """Yield the ref_log as plain dicts (paper §4.3's representation)."""
        for record in self.ref_log:
            yield record.to_dict()

    def to_dict(self) -> dict[str, Any]:
        """Serialize the entry in the paper's ``{"text": ..., "ref_log": [...]}`` form."""
        return {
            "text": self.text,
            "version": self.version,
            "view": self.view,
            "tags": sorted(self.tags),
            "params": dict(self.params),
            "ref_log": [record.to_dict() for record in self.ref_log],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.text if len(self.text) <= 40 else self.text[:37] + "..."
        return (
            f"PromptEntry(v{self.version}, refs={len(self.ref_log)}, "
            f"text={preview!r})"
        )
