"""The SPEAR execution state: the ``(P, C, M)`` triple plus runtime services.

Paper §3.2–3.3: the prompt algebra is *closed under composition* — every
operator consumes and produces the triple ``(P, C, M)``.  In this
implementation the triple is threaded through operators as a single
:class:`ExecutionState` object that also carries the runtime services an
operator may need: the LLM backend, retrieval sources, delegation agents,
the view registry, the structured event log, and the virtual clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.context import Context
from repro.core.entry import RenderedPrompt
from repro.core.metadata import Metadata
from repro.core.store import PromptStore
from repro.errors import DelegationError, RetrievalError
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.views import ViewRegistry

__all__ = ["ExecutionState"]

#: A retrieval source: called with (state, query) and returning the
#: retrieved payload to store in C.  ``query`` may be None for sources
#: that need no parameters.
SourceFn = Callable[["ExecutionState", Any], Any]


class ExecutionState:
    """Everything an operator needs: P, C, M and runtime services."""

    def __init__(
        self,
        *,
        prompts: PromptStore | None = None,
        context: Context | None = None,
        metadata: Metadata | None = None,
        model: Any = None,
        views: "ViewRegistry | None" = None,
        events: EventLog | None = None,
        clock: VirtualClock | None = None,
    ) -> None:
        self.prompts = prompts if prompts is not None else PromptStore()
        self.context = context if context is not None else Context()
        self.metadata = metadata if metadata is not None else Metadata()
        #: the LLM backend (a :class:`repro.llm.model.SimulatedLLM` or any
        #: object with a compatible ``generate`` method); None means GEN
        #: and assisted refinement are unavailable.
        self.model = model
        self.events = events if events is not None else EventLog()
        self.clock = clock if clock is not None else VirtualClock()
        #: optional :class:`repro.runtime.result_cache.ResultCache` (or a
        #: read-only view); None disables operator-level result caching.
        self.result_cache: Any = None
        #: optional :class:`repro.resilience.runtime.ResilienceRuntime`;
        #: when set, GEN routes generation calls through it (retries,
        #: circuit breakers, degraded fallback).  Forked lane states share
        #: the same runtime object so breakers guard the model globally.
        self.resilience: Any = None
        self._views = views
        self._sources: dict[str, SourceFn] = {}
        self._pure_sources: set[str] = set()
        self._agents: dict[str, Any] = {}

    # -- convenient aliases matching the paper's notation -------------------

    @property
    def P(self) -> PromptStore:  # noqa: N802 - paper notation
        """The prompt store (paper's P)."""
        return self.prompts

    @property
    def C(self) -> Context:  # noqa: N802 - paper notation
        """The runtime context (paper's C)."""
        return self.context

    @property
    def M(self) -> Metadata:  # noqa: N802 - paper notation
        """The metadata store (paper's M)."""
        return self.metadata

    # -- views ---------------------------------------------------------------

    @property
    def views(self) -> "ViewRegistry":
        """The view registry, created lazily on first access."""
        if self._views is None:
            from repro.core.views import ViewRegistry

            self._views = ViewRegistry()
        return self._views

    # -- retrieval sources ----------------------------------------------------

    def register_source(self, name: str, fn: SourceFn, *, pure: bool = False) -> None:
        """Register a retrieval source usable by ``RET[name]``.

        Mark deterministic sources (same query → same payload, no side
        effects) with ``pure=True`` to make their RET applications
        eligible for the operator-level result cache.
        """
        self._sources[name] = fn
        if pure:
            self._pure_sources.add(name)
        else:
            self._pure_sources.discard(name)

    def is_pure_source(self, name: str) -> bool:
        """Whether ``name`` was registered as a pure (cacheable) source."""
        return name in self._pure_sources

    def source(self, name: str) -> SourceFn:
        """Look up a retrieval source; raises :class:`RetrievalError`."""
        try:
            return self._sources[name]
        except KeyError:
            known = sorted(self._sources)
            raise RetrievalError(
                f"unknown retrieval source {name!r}; registered: {known}"
            ) from None

    def sources(self) -> list[str]:
        """Names of all registered retrieval sources."""
        return sorted(self._sources)

    # -- delegation agents ------------------------------------------------------

    def register_agent(self, name: str, agent: Any) -> None:
        """Register an agent usable by ``DELEGATE[name, payload]``."""
        self._agents[name] = agent

    def agent(self, name: str) -> Any:
        """Look up an agent; raises :class:`DelegationError`."""
        try:
            return self._agents[name]
        except KeyError:
            known = sorted(self._agents)
            raise DelegationError(
                f"unknown agent {name!r}; registered: {known}"
            ) from None

    def agents(self) -> list[str]:
        """Names of all registered agents."""
        return sorted(self._agents)

    # -- template rendering -------------------------------------------------------

    def render_prompt(
        self, key: str, extra: Mapping[str, Any] | None = None
    ) -> RenderedPrompt:
        """Render prompt ``key`` against the current context (plus ``extra``)."""
        entry = self.prompts[key]
        return entry.template.render(extra or (), self.context, entry.params)

    # -- forking for branches / shadow execution -----------------------------------

    def fork(self, *, share_prompts: bool = True) -> "ExecutionState":
        """Create a branch state.

        Context and metadata are copied (branches must not see each other's
        writes); the prompt store is shared by default because branches
        typically refine *different* keys, and MERGE reconciles any that
        diverge.  Pass ``share_prompts=False`` for fully isolated shadow
        execution.
        """
        if share_prompts:
            prompts = self.prompts
        else:
            prompts = PromptStore()
            for key in self.prompts.keys():
                prompts[key] = self.prompts[key].clone()
        forked = ExecutionState(
            prompts=prompts,
            context=self.context.fork(),
            metadata=self.metadata.fork(),
            model=self.model,
            views=self._views,
            events=self.events,
            clock=self.clock,
        )
        forked.result_cache = self.result_cache
        forked.resilience = self.resilience
        forked._sources = dict(self._sources)
        forked._pure_sources = set(self._pure_sources)
        forked._agents = dict(self._agents)
        return forked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionState(P={len(self.prompts)} prompts, "
            f"C={len(self.context)} values, M={len(self.metadata)} signals)"
        )
