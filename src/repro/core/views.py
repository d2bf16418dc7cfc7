"""Prompt views: named, parameterized, composable prompt templates.

Paper §4.2: "a view is a reusable named prompt that encapsulates
structured prompt construction ... much like views in a database system."
Views here support:

- **parameters** with optional defaults, validated at expansion;
- **composition**: a view may extend a base view (its expanded text is
  available as the ``{base}`` placeholder, or is prepended by default);
- **dispatch**: pick a view at runtime from predicates over the state
  (e.g. discharge vs radiology vs nursing notes).

Expansion renders the current base chain on every call, each view from
its definition's one parse: a registry keeps a
:class:`~repro.core.entry.CompiledTemplate` per ``(name, version)``, and
a redefinition bumps the version, so no parse outlives its definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.entry import CompiledTemplate, PromptEntry, template_placeholders
from repro.errors import UnknownViewError, ViewError, ViewParameterError

__all__ = ["View", "ViewRegistry"]


@dataclass(frozen=True)
class View:
    """A named prompt template definition."""

    name: str
    template: str
    #: parameter names the template requires (beyond context placeholders).
    params: tuple[str, ...] = ()
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: name of a base view this one extends (composability).
    base: str | None = None
    tags: frozenset[str] = frozenset()
    description: str = ""
    #: definition version; registries bump this when a view is redefined.
    version: int = 0

    def required_params(self) -> set[str]:
        """Parameters without defaults — must be supplied at expansion."""
        return {name for name in self.params if name not in self.defaults}


class ViewRegistry:
    """Holds view definitions and expands them into prompt text/entries."""

    def __init__(self) -> None:
        self._views: dict[str, View] = {}
        #: each definition's template, parsed once: ``(name, version)`` →
        #: template.  Not on :class:`View`, whose fields are its content.
        self._templates: dict[tuple[str, int], CompiledTemplate] = {}

    # -- definition ----------------------------------------------------------

    def define(
        self,
        name: str,
        template: str,
        *,
        params: tuple[str, ...] | list[str] = (),
        defaults: Mapping[str, Any] | None = None,
        base: str | None = None,
        tags: set[str] | frozenset[str] = frozenset(),
        description: str = "",
    ) -> View:
        """Register (or redefine) a view.

        Redefinition bumps the version; expansions after it render the
        new definition.
        """
        if base is not None and base not in self._views:
            raise UnknownViewError(base)
        previous = self._views.get(name)
        version = previous.version + 1 if previous is not None else 0
        view = View(
            name=name,
            template=template,
            params=tuple(params),
            defaults=dict(defaults or {}),
            base=base,
            tags=frozenset(tags),
            description=description,
            version=version,
        )
        self._views[name] = view
        return view

    def get(self, name: str) -> View:
        """Look up a view definition."""
        try:
            return self._views[name]
        except KeyError:
            raise UnknownViewError(name) from None

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def names(self) -> list[str]:
        """All registered view names, sorted."""
        return sorted(self._views)

    def with_tag(self, tag: str) -> list[str]:
        """Names of views carrying ``tag``."""
        return sorted(
            name for name, view in self._views.items() if tag in view.tags
        )

    # -- expansion --------------------------------------------------------------

    def _chain(self, name: str, seen: tuple[str, ...] = ()) -> list[View]:
        """The base chain of ``name``, root first; detects cycles."""
        if name in seen:
            cycle = " -> ".join(seen + (name,))
            raise ViewError(f"cyclic view composition: {cycle}")
        view = self.get(name)
        if view.base is None:
            return [view]
        return self._chain(view.base, seen + (name,)) + [view]

    def _resolve(
        self, name: str, bound: Mapping[str, Any]
    ) -> list[View]:
        """The validated base chain: cycles and missing params raise here."""
        chain = self._chain(name)
        missing: set[str] = set()
        for view in chain:
            missing |= {
                param
                for param in view.required_params()
                if param not in bound
            }
        if missing:
            raise ViewParameterError(
                f"view {name!r} missing required parameters: {sorted(missing)}"
            )
        return chain

    def expand(self, name: str, params: Mapping[str, Any] | None = None) -> str:
        """Expand a view to prompt text, resolving the base chain.

        Parameters flow to every view in the chain.  A derived view's
        template may place its base explicitly with ``{base}``; otherwise
        the base text is prepended.  Missing required parameters raise
        :class:`ViewParameterError`.  Pure but for parsing each
        definition's template once: the static checker expands views
        through this too.
        """
        bound = dict(params or {})
        text = ""
        for view in self._resolve(name, bound):
            values = dict(view.defaults)
            values.update(bound)
            values["base"] = text
            template = self._templates.get((view.name, view.version))
            if template is None:
                template = CompiledTemplate(view.template)
                self._templates[view.name, view.version] = template
            rendered = template.render(values)
            if text and "{base}" not in view.template:
                rendered = f"{text}\n{rendered}"
            text = rendered
        return text

    def instantiate(
        self,
        name: str,
        params: Mapping[str, Any] | None = None,
    ) -> PromptEntry:
        """Expand a view into a fresh :class:`PromptEntry`.

        The entry records its originating view and carries the view's tags,
        enabling ``P.from_view(...)`` lookups and view-guided optimization.
        """
        view = self.get(name)
        text = self.expand(name, params)
        return PromptEntry(
            text,
            tags=set(view.tags),
            params=dict(params or {}),
            view=name,
            created_by=f"f_view_{name}",
        )

    # -- dispatch -----------------------------------------------------------------

    def dispatch(
        self,
        cases: list[tuple[Callable[[Any], bool], str]],
        subject: Any,
        default: str | None = None,
    ) -> str:
        """Pick a view name by the first matching predicate over ``subject``.

        Implements the §4.2 pattern of routing discharge / radiology /
        nursing notes to different views.  Raises :class:`ViewError` when
        nothing matches and no default is given.
        """
        for predicate, view_name in cases:
            if predicate(subject):
                self.get(view_name)  # validate it exists
                return view_name
        if default is not None:
            self.get(default)
            return default
        raise ViewError("no dispatch case matched and no default view given")

    def placeholders(self, name: str) -> list[str]:
        """Placeholder names remaining in a view's raw template."""
        return template_placeholders(self.get(name).template)
