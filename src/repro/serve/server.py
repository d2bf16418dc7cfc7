"""The multi-tenant serving pool: typed requests in, typed responses out.

:class:`SpearServer` owns the warm :class:`~repro.serve.session.TenantSession`
pool and one dispatcher thread.  Submission is admission-controlled
per tenant (bounded queues + breaker-style shedding via
:class:`~repro.resilience.ShedPolicy`); admitted requests enter one
global queue ordered by (priority class, deadline, arrival), and the
dispatcher runs them to completion one at a time in that order, so
every tenant's requests run in queue order by construction.
Every outcome — served or shed — is a ``SERVE`` event on the server's
own event log, recorded under the server's one condition, which an
attached :class:`~repro.obs.collector.ObsCollector` rolls into the
``spear_serve_*`` metric family.  Tenant session logs never see SERVE
events, so per-tenant ledger runs stay byte-identical to standalone
executions of the same pipeline.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.errors import RateLimitError, SpearError
from repro.llm.partitions import CachePartitions
from repro.llm.profiles import DEFAULT_PROFILE
from repro.resilience import ShedPolicy
from repro.runtime.events import EventKind, EventLog
from repro.runtime.scheduler import resolve_priority_class
from repro.serve.session import TenantConfig, TenantSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future

    from repro.core.pipeline import Pipeline

__all__ = ["ServeRequest", "ServeResponse", "SpearServer"]


@dataclass(frozen=True)
class ServeRequest:
    """One typed unit of serving work.

    ``pipeline`` names a pipeline registered on the server (pipelines
    are shared, versioned artefacts; tenants reference them, they do not
    carry them).  ``items`` fans the pipeline out over a dataset;
    without it the request is a single run seeded from ``context``.
    """

    #: tenant identity; must be registered (or auto-registration on).
    tenant: str
    #: registered pipeline name to execute.
    pipeline: str
    #: optional dataset to fan the pipeline over (one fork per item).
    items: Sequence[Any] | None = None
    #: context values bound into the request's forked state.
    context: Mapping[str, Any] | None = None
    #: priority class (PriorityClass / name); None inherits the tenant's.
    priority: Any = None
    #: admission deadline in virtual seconds; None inherits the tenant's.
    deadline_s: float | None = None
    #: caller-chosen id; the server assigns ``<tenant>-<seq>`` when None.
    request_id: str | None = None


@dataclass
class ServeResponse:
    """Outcome of one :class:`ServeRequest`.

    ``result`` is the runner's result object (RunResult or BatchResult)
    and satisfies the shared ``.output()`` / ``.report`` / ``.cache``
    protocol; :meth:`output` delegates to it.  Shed and failed requests
    carry ``error`` (and ``retry_after`` for sheds) instead.
    """

    tenant: str
    request_id: str
    #: ``"ok"``, ``"shed"``, or ``"error"``.
    status: str
    result: Any = None
    error: str | None = None
    #: simulated seconds the request's execution took (tenant clock).
    elapsed: float = 0.0
    #: wall-clock seconds between admission and execution start.
    queue_wait: float = 0.0
    #: shed hint: simulated seconds to wait before resubmitting.
    retry_after: float | None = None
    report: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def output(self, label: str) -> Any:
        """The shared result protocol, passed through (None when not ok)."""
        if self.result is None:
            return None
        return self.result.output(label)


class _Admitted:
    """One queued request plus its dispatch bookkeeping (heap entry)."""

    __slots__ = (
        "order", "request", "session", "pipeline", "prompts",
        "future", "enqueued_wall",
    )

    def __init__(self, order, request, session, pipeline, prompts, future):
        self.order = order
        self.request = request
        self.session = session
        self.pipeline = pipeline
        self.prompts = prompts
        self.future = future
        self.enqueued_wall = time.monotonic()

    def __lt__(self, other: "_Admitted") -> bool:
        return self.order < other.order


class SpearServer:
    """Multi-tenant serving over warm SPEAR runtimes, one request at a time.

    Usage::

        server = SpearServer(binder=lambda llm: llm.bind_tweets(corpus))
        server.register_pipeline("summarize", pipeline, prompts={...})
        server.add_tenant("acme")
        with server:                      # starts the dispatcher
            future = server.submit(ServeRequest("acme", "summarize",
                                                context={"tweet": text}))
            response = future.result()

    Requests may also be submitted before :meth:`start` — they queue up
    and drain once the dispatcher runs (the synthetic traffic driver uses
    this for deterministic overload experiments).  :meth:`shutdown` is
    terminal: a shut-down server admits nothing and cannot be restarted.

    ``workers`` is accepted and ignored; it goes once
    ``bench/workloads.py`` stops passing it (ROADMAP item 10).
    """

    def __init__(
        self,
        *,
        profile: str = DEFAULT_PROFILE,
        binder: Any = None,
        workers: Any = None,
        shed: ShedPolicy | None = None,
        ledger_dir: Any = None,
        collector: Any = None,
        partitions: CachePartitions | None = None,
        auto_tenants: bool = False,
    ) -> None:
        del workers
        self.profile = profile
        self.binder = binder
        self.shed = shed if shed is not None else ShedPolicy()
        self.ledger_dir = ledger_dir
        self.collector = collector
        self.partitions = (
            partitions if partitions is not None else CachePartitions()
        )
        #: auto-register unknown tenants with a default config on first
        #: submit (convenient for traffic drivers; off for strict pools).
        self.auto_tenants = auto_tenants
        #: the server's own event log: SERVE outcomes only, never tenant
        #: pipeline events (those live on the sessions' logs/ledgers).
        #: Recorded only under ``_cv``, so its order is the order of those
        #: acquisitions; read it under ``_cv`` too, or after shutdown.
        self.events = EventLog()
        if collector is not None:
            collector.subscribe_to(self.events)
        self._pipelines: dict[str, tuple["Pipeline", dict[str, str]]] = {}
        self._tenants: dict[str, TenantConfig] = {}
        #: the one lock: guards the session map, the sessions' admission
        #: counts, the queue, ``events``, the partition map and the
        #: lifecycle fields below.
        self._cv = threading.Condition()
        self._sessions: dict[str, TenantSession] = {}
        self._queue: list[_Admitted] = []
        self._counter = itertools.count()
        self._dispatcher: threading.Thread | None = None
        self._closed = False

    # -- registration -------------------------------------------------------

    def register_pipeline(
        self,
        name: str,
        pipeline: "Pipeline",
        *,
        prompts: Mapping[str, str] | None = None,
        strict: bool = True,
    ) -> None:
        """Register a named pipeline (and the prompt texts it needs).

        ``prompts`` maps prompt key → template text; each tenant session
        materializes them into *its own* prompt store on first use, so
        tenants never share prompt state even for shared pipelines.

        Registration is **strict by default**: the pipeline is
        statically checked against the serve runtime (the incremental
        re-check cache makes repeat registrations O(1)).  Errors reject
        the registration with :class:`~repro.errors.SpearValidationError`;
        warnings — including SPEAR162 refine-during-serve hazards on the
        persistent tenant prompt store — surface as one
        :class:`RuntimeWarning`.  Pass ``strict=False`` to skip.
        """
        if strict:
            from repro.analysis import cached_check_pipeline
            from repro.errors import SpearValidationError

            result = cached_check_pipeline(
                pipeline,
                prompts=dict(prompts or {}),
                open_context=True,
                name=name,
                runtime={"serve": True},
            )
            if result.has_errors:
                raise SpearValidationError(result.errors)
            warnings_ = [
                d for d in result if d.severity.value == "warning"
            ]
            if warnings_:
                summary = "; ".join(
                    f"{d.code} {d.operator or ''}".strip()
                    for d in warnings_
                )
                warnings.warn(
                    f"pipeline {name!r} registered with static warnings: "
                    f"{summary} (run `spear check` for details, or "
                    "register with strict=False to silence)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._pipelines[name] = (pipeline, dict(prompts or {}))

    def add_tenant(
        self, config: "TenantConfig | str", **overrides: Any
    ) -> TenantConfig:
        """Register a tenant; returns its (possibly defaulted) config."""
        if isinstance(config, str):
            config = TenantConfig(name=config, **overrides)
        elif overrides:
            raise TypeError(
                "pass overrides only with a tenant name, not a TenantConfig"
            )
        self._tenants[config.name] = config
        return config

    def tenants(self) -> list[str]:
        """Registered tenant names, in registration order."""
        return list(self._tenants)

    def _session(self, tenant: str) -> TenantSession:
        """The tenant's session, built on first use (under ``_cv``)."""
        session = self._sessions.get(tenant)
        if session is not None:
            return session
        config = self._tenants.get(tenant)
        if config is None:
            if not self.auto_tenants:
                raise SpearError(
                    f"unknown tenant: {tenant!r} (register it with "
                    "add_tenant, or pass auto_tenants=True)"
                )
            config = TenantConfig(name=tenant)
            self._tenants[tenant] = config
        session = TenantSession(
            config,
            profile=self.profile,
            binder=self.binder,
            partitions=self.partitions,
            shed=self.shed,
            ledger_root=self.ledger_dir,
        )
        self._sessions[tenant] = session
        return session

    def session(self, tenant: str) -> TenantSession:
        """The tenant's (lazily created) warm session."""
        with self._cv:
            return self._session(tenant)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SpearServer":
        """Start the dispatcher (idempotent while running)."""
        with self._cv:
            if self._closed:
                raise SpearError("server is shut down")
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch, name="spear-serve", daemon=True
                )
                self._dispatcher.start()
        return self

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop for good: the running request finishes, queued ones error.

        Terminal: afterwards :meth:`submit`, :meth:`serve` and
        :meth:`start` raise :class:`~repro.errors.SpearError`.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify()
            drained, self._queue = self._queue, []
        for entry in drained:
            self._finish_aborted(entry)
        # A future's done-callback runs on the dispatcher, which cannot
        # join itself: it stops once the callback returns.
        dispatcher = self._dispatcher
        if wait and dispatcher not in (None, threading.current_thread()):
            dispatcher.join()

    def __enter__(self) -> "SpearServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- submission ---------------------------------------------------------

    def _order_key(
        self, request: ServeRequest, session: TenantSession, seq: int
    ) -> tuple:
        priority = (
            request.priority
            if request.priority is not None
            else session.config.priority
        )
        rank = resolve_priority_class(priority).rank
        deadline = (
            request.deadline_s
            if request.deadline_s is not None
            else session.config.deadline_s
        )
        deadline_key = deadline if deadline is not None else float("inf")
        return (rank, deadline_key, seq)

    def submit(self, request: ServeRequest) -> "Future[ServeResponse]":
        """Admit one request; returns a future resolving to its response.

        Overload sheds *synchronously*: when the tenant's pending queue
        is at its :class:`~repro.resilience.ShedPolicy` limit (or its
        shed breaker is open), a SERVE shed event is recorded and
        :class:`~repro.errors.RateLimitError` is raised with the
        policy's ``retry_after`` hint and the request id the event
        recorded — the caller backs off instead of queueing unboundedly.
        """
        from concurrent.futures import Future

        if request.pipeline not in self._pipelines:
            raise SpearError(f"unknown pipeline: {request.pipeline!r}")
        pipeline, prompts = self._pipelines[request.pipeline]
        future: "Future[ServeResponse]" = Future()
        with self._cv:
            if self._closed:
                raise SpearError("server is shut down")
            session = self._session(request.tenant)
            # One number per submit: the auto id and the arrival tiebreak.
            seq = next(self._counter)
            if request.request_id is None:
                request = replace(request, request_id=f"{request.tenant}-{seq}")
            admitted, reason = session.admit()
            if admitted:
                entry = _Admitted(
                    self._order_key(request, session, seq),
                    request, session, pipeline, prompts, future,
                )
                heapq.heappush(self._queue, entry)
                self._cv.notify()
                return future
            retry_after = session.shed.retry_after_s
            self.events.record(
                EventKind.SERVE,
                "SpearServer",
                at=session.clock.now,
                payload={
                    "tenant": request.tenant,
                    "request_id": request.request_id,
                    "status": "shed",
                    "reason": reason,
                    "queue_depth": session.pending,
                    "retry_after": retry_after,
                },
            )
        raise RateLimitError(
            f"tenant {request.tenant!r} shed ({reason}); retry after "
            f"{retry_after}s",
            retry_after=retry_after,
            request_id=request.request_id,
        )

    def serve(
        self, requests: Iterable[ServeRequest]
    ) -> list[ServeResponse]:
        """Submit a batch and wait; sheds become ``status="shed"`` rows.

        A shed row carries the request id its SERVE shed event recorded.

        The server must be running: waiting on a stopped one would block
        forever, so this raises :class:`~repro.errors.SpearError` first.
        """
        with self._cv:
            if self._dispatcher is None or self._closed:
                raise SpearError("serve() needs a running server: start() it")
        futures: list["Future[ServeResponse] | ServeResponse"] = []
        for request in requests:
            try:
                futures.append(self.submit(request))
            except RateLimitError as error:
                futures.append(
                    ServeResponse(
                        tenant=request.tenant,
                        request_id=error.request_id or "?",
                        status="shed",
                        error=str(error),
                        retry_after=error.retry_after,
                    )
                )
        return [
            entry if isinstance(entry, ServeResponse) else entry.result()
            for entry in futures
        ]

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self) -> None:
        """Run queued requests in queue order until :meth:`shutdown`."""
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if self._closed:
                    return
                entry = heapq.heappop(self._queue)
            self._execute_entry(entry)

    def _execute_entry(self, entry: _Admitted) -> None:
        request = entry.request
        session = entry.session
        queue_wait = time.monotonic() - entry.enqueued_wall
        try:
            result = session.execute(request, entry.pipeline, entry.prompts)
        except Exception as error:  # noqa: BLE001 - one request, one verdict
            response = ServeResponse(
                tenant=request.tenant,
                request_id=request.request_id or "?",
                status="error",
                error=f"{type(error).__name__}: {error}",
                queue_wait=queue_wait,
            )
        else:
            report = dict(result.report)
            response = ServeResponse(
                tenant=request.tenant,
                request_id=request.request_id or "?",
                status="ok",
                result=result,
                elapsed=report["elapsed"],
                queue_wait=queue_wait,
                report=report,
            )
        with self._cv:
            if session.breaker is not None:
                if response.ok:
                    session.breaker.record_success(session.clock.now)
                else:
                    session.breaker.record_failure(session.clock.now)
            session.pending -= 1
            self.events.record(
                EventKind.SERVE,
                "SpearServer",
                at=session.clock.now,
                payload={
                    "tenant": response.tenant,
                    "request_id": response.request_id,
                    "status": response.status,
                    "elapsed": response.elapsed,
                    "queue_wait": response.queue_wait,
                    "queue_depth": session.pending,
                    "priority": str(request.priority) if request.priority else None,
                    "deadline_s": request.deadline_s,
                },
            )
        entry.future.set_result(response)

    def _finish_aborted(self, entry: _Admitted) -> None:
        with self._cv:
            entry.session.pending -= 1
        entry.future.set_result(
            ServeResponse(
                tenant=entry.request.tenant,
                request_id=entry.request.request_id or "?",
                status="error",
                error="server shut down before execution",
            )
        )

    # -- accounting ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Pool-wide accounting: sessions, queue, cache partitions."""
        with self._cv:
            sessions = dict(self._sessions)
            queued = len(self._queue)
            partitions = self.partitions.snapshot()
        return {
            "tenants": len(sessions),
            "queued": queued,
            "sessions": {
                name: session.snapshot()
                for name, session in sessions.items()
            },
            "partitions": partitions,
        }
