"""The multi-tenant serving pool: typed requests in, typed responses out.

:class:`SpearServer` owns the warm :class:`~repro.serve.session.TenantSession`
pool and a thread pool of workers.  Submission is admission-controlled
per tenant (bounded queues + breaker-style shedding via
:class:`~repro.resilience.ShedPolicy`); admitted requests enter one
global queue ordered by (priority class, deadline, arrival) and drain
into sessions, one request per tenant at a time and in queue order.
Every outcome — served or shed — is a ``SERVE`` event on the server's
own event log, which an attached
:class:`~repro.obs.collector.ObsCollector` rolls into the
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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

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


@contextmanager
def _briefly(lock: Any) -> Iterator[None]:
    """Hold one of the pool's microsecond locks, polling instead of queueing.

    A worker queued on a lock is handed it on release but still waits for
    the GIL; the worker that has the GIL then blocks on the same lock one
    request later, and every request costs a thread hand-off from then on
    (a lock convoy: docs/serving.md).  Sleeping gives the holder the GIL.
    """
    while not lock.acquire(False):
        time.sleep(1e-4)
    try:
        yield
    finally:
        lock.release()


class SpearServer:
    """Thread-based multi-tenant serving over warm SPEAR runtimes.

    Usage::

        server = SpearServer(binder=lambda llm: llm.bind_tweets(corpus))
        server.register_pipeline("summarize", pipeline, prompts={...})
        server.add_tenant("acme")
        with server:                      # starts the worker pool
            future = server.submit(ServeRequest("acme", "summarize",
                                                context={"tweet": text}))
            response = future.result()

    Requests may also be submitted before :meth:`start` — they queue up
    and drain once workers run (the synthetic traffic driver uses this
    for deterministic overload experiments).
    """

    def __init__(
        self,
        *,
        profile: str = DEFAULT_PROFILE,
        binder: Any = None,
        workers: int = 4,
        shed: ShedPolicy | None = None,
        ledger_dir: Any = None,
        collector: Any = None,
        partitions: CachePartitions | None = None,
        auto_tenants: bool = False,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.profile = profile
        self.binder = binder
        self.workers = workers
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
        self.events = EventLog()
        if collector is not None:
            collector.subscribe_to(self.events)
        self._pipelines: dict[str, tuple["Pipeline", dict[str, str]]] = {}
        self._tenants: dict[str, TenantConfig] = {}
        self._sessions: dict[str, TenantSession] = {}
        self._admission = threading.Lock()
        #: serializes the workers' SERVE records (see :func:`_briefly`).
        self._served = threading.Lock()
        self._queue: list[_Admitted] = []
        self._cv = threading.Condition()
        self._counter = itertools.count()
        self._threads: list[threading.Thread] = []
        self._running = False

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
                runtime={"serve": True, "lanes": self.workers},
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
        with self._admission:
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
        return self._session(tenant)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "SpearServer":
        """Spin up the worker pool (idempotent)."""
        with self._cv:
            if self._running:
                return self
            self._running = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"spear-serve-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self, *, wait: bool = True) -> None:
        """Stop the workers; queued-but-unstarted requests error out."""
        with self._cv:
            if not self._running:
                return
            self._running = False
            self._cv.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=30.0)
        self._threads.clear()
        with self._cv:
            drained, self._queue = self._queue, []
            for session in list(self._sessions.values()):
                drained += session.waiting
                session.waiting = []
        for entry in drained:
            self._finish_aborted(entry)

    def __enter__(self) -> "SpearServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- submission ---------------------------------------------------------

    def _order_key(
        self, request: ServeRequest, session: TenantSession
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
        return (rank, deadline_key, next(self._counter))

    def submit(self, request: ServeRequest) -> "Future[ServeResponse]":
        """Admit one request; returns a future resolving to its response.

        Overload sheds *synchronously*: when the tenant's pending queue
        is at its :class:`~repro.resilience.ShedPolicy` limit (or its
        shed breaker is open), a SERVE shed event is recorded and
        :class:`~repro.errors.RateLimitError` is raised with the
        policy's ``retry_after`` hint — the caller backs off instead of
        queueing unboundedly.
        """
        from concurrent.futures import Future

        if request.pipeline not in self._pipelines:
            raise SpearError(f"unknown pipeline: {request.pipeline!r}")
        session = self._session(request.tenant)
        request_id = request.request_id or (
            f"{request.tenant}-{next(self._counter)}"
        )
        with self._admission:
            admitted, reason = session.admit()
            depth = session.pending
        if not admitted:
            retry_after = session.shed.retry_after_s
            self.events.record(
                EventKind.SERVE,
                "SpearServer",
                at=session.clock.now,
                payload={
                    "tenant": request.tenant,
                    "request_id": request_id,
                    "status": "shed",
                    "reason": reason,
                    "queue_depth": depth,
                    "retry_after": retry_after,
                },
            )
            raise RateLimitError(
                f"tenant {request.tenant!r} shed ({reason}); retry after "
                f"{retry_after}s",
                retry_after=retry_after,
            )
        if request.request_id is None:
            request = ServeRequest(
                tenant=request.tenant,
                pipeline=request.pipeline,
                items=request.items,
                context=request.context,
                priority=request.priority,
                deadline_s=request.deadline_s,
                request_id=request_id,
            )
        pipeline, prompts = self._pipelines[request.pipeline]
        future: "Future[ServeResponse]" = Future()
        entry = _Admitted(
            self._order_key(request, session),
            request, session, pipeline, prompts, future,
        )
        with self._cv:
            heapq.heappush(self._queue, entry)
            self._cv.notify()
        return future

    def serve(
        self, requests: Iterable[ServeRequest]
    ) -> list[ServeResponse]:
        """Submit a batch and wait; sheds become ``status="shed"`` rows."""
        futures: list["Future[ServeResponse] | ServeResponse"] = []
        for request in requests:
            try:
                futures.append(self.submit(request))
            except RateLimitError as error:
                futures.append(
                    ServeResponse(
                        tenant=request.tenant,
                        request_id=request.request_id or "?",
                        status="shed",
                        error=str(error),
                        retry_after=error.retry_after,
                    )
                )
        return [
            entry if isinstance(entry, ServeResponse) else entry.result()
            for entry in futures
        ]

    # -- workers ------------------------------------------------------------

    def _worker_loop(self) -> None:
        finished: TenantSession | None = None
        while True:
            with _briefly(self._cv):
                if finished is not None:
                    self._release(finished)
                while True:
                    if not self._running:
                        return
                    entry = self._take()
                    if entry is not None:
                        break
                    self._cv.wait()
                if self._queue:
                    # A requeued entry may belong to a tenant that a
                    # waiting worker, having set it aside, can now take.
                    self._cv.notify()
            self._execute_entry(entry)
            finished = entry.session

    def _take(self) -> _Admitted | None:
        """Pop the first queued entry whose tenant is idle (under ``_cv``).

        A tenant's requests run one at a time and in queue order: an
        entry whose tenant is running waits on that session's own heap
        until :meth:`_release`, and the worker takes the next tenant's.
        """
        while self._queue:
            entry = heapq.heappop(self._queue)
            session = entry.session
            if session.running:
                heapq.heappush(session.waiting, entry)
                continue
            session.running = True
            return entry
        return None

    def _release(self, session: TenantSession) -> None:
        """Mark ``session`` idle and requeue its next entry (under ``_cv``)."""
        session.running = False
        if session.waiting:
            heapq.heappush(self._queue, heapq.heappop(session.waiting))

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
            if session.breaker is not None:
                session.breaker.record_failure(session.clock.now)
        else:
            report = dict(result.report)
            response = ServeResponse(
                tenant=request.tenant,
                request_id=request.request_id or "?",
                status="ok",
                result=result,
                # The run's own measure, taken under the session lock: a
                # clock read out here would absorb the time of a same-tenant
                # request another worker is running.
                elapsed=report["elapsed"],
                queue_wait=queue_wait,
                report=report,
            )
            if session.breaker is not None:
                session.breaker.record_success(session.clock.now)
        with _briefly(self._admission):
            session.pending -= 1
            depth = session.pending
        # The log has a lock of its own, which would convoy the same way:
        # workers take turns here, so they never meet on it.
        with _briefly(self._served):
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
                    "queue_depth": depth,
                    "priority": str(request.priority) if request.priority else None,
                    "deadline_s": request.deadline_s,
                },
            )
        entry.future.set_result(response)

    def _finish_aborted(self, entry: _Admitted) -> None:
        with self._admission:
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
        with self._admission:
            sessions = dict(self._sessions)
        with self._cv:
            queued = len(self._queue) + sum(
                len(session.waiting) for session in sessions.values()
            )
        return {
            "tenants": len(sessions),
            "queued": queued,
            "workers": self.workers,
            "sessions": {
                name: session.snapshot()
                for name, session in sessions.items()
            },
            "partitions": self.partitions.snapshot(),
        }
