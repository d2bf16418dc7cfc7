"""Event-driven continuous-batching GEN engine (paper §6).

:class:`GenScheduler` is the repository's one GEN engine: operators
submit generation work to a queue, and batches form on **token-budget
and virtual-clock timeout watermarks**.  It runs on one thread, and a
lane costs a few dict entries.

Scheduling model
----------------

Lanes register with :meth:`open_lane`.  :meth:`GenScheduler.submit`
parks a call without waiting.  Admission decisions happen only at
**quiescence** — the instant every open lane is either parked on a
pending call or closed — and the submit or close that reaches it runs
the step.  (Code that calls the :class:`LaneModel` proxy synchronously
forces steps until its own call completes.)  The engine never consults
host timing, so which requests are considered together is a pure
function of each lane's submit/close sequence, i.e. of the workload.
Within a quiescence the engine forms *one* policy step:

1. requests older than the **timeout watermark** (virtual-clock age
   ``t_now - arrival >= watermark_s``, where ``t_now`` is the latest
   pending arrival) are forced to the front, oldest first — the
   anti-starvation guarantee;
2. the rest are ordered by the **priority policy**: priority-class rank,
   then deadline instant (``arrival + deadline_s``), then arrival, then
   lane id — so interactive items preempt bulk refinement work;
3. **prefix-aware grouping** (``prefix_group_blocks``): within a
   priority class, requests whose tokenized prompts share at least that
   many leading cache blocks are pulled adjacent into the same step —
   the group order is the best member's policy position, members keep
   their policy order, and the trunk key is computed from tokenized
   prompts alone, so composition stays a pure function of the workload;
4. admission stops at the **token budget** (``max_batch_tokens`` prompt
   tokens, always admitting at least one request) or at ``max_batch``.

Prefix economics inside a step: the trunks of every admitted request are
**pinned** in the radix prefix cache for the duration of the step (an
earlier member's insert can never evict a later member's matched
prefix, and each member's lookup resumes below its pin), and with
``prefix_dedup`` each member's block-aligned overlap with *earlier step
members* is priced at zero by
:func:`~repro.llm.latency.estimate_continuous_step` — the shared trunk
goes through the serial prefill pipe once per step, not once per
request.  Dedup changes latency accounting only, never texts or cache
hit/miss statistics.

Requests left out of a step stay queued and mix with the batch formed at
the next quiescence — genuine continuous flow on virtual time.  Steps
are priced by :func:`~repro.llm.latency.estimate_continuous_step`:
prefill occupies a serial pipe in admission order, decode overlaps
fully, and each lane's clock advances to its *own* completion — lanes
desynchronize and nobody waits for the slowest peer's decode.

Determinism: task outputs come from the model's deterministic
``execute_task`` path, fault injection reuses the seeded per-prompt
decisions a sequential run makes (see :meth:`GenScheduler._prepare`), and
step composition depends only on pending-set state and virtual-clock
instants — never on host timing.  Per-item outputs are
byte-identical to a sequential run; two same-seed runs produce
identical step traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

from repro.llm.latency import estimate_continuous_step
from repro.runtime.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.llm.model import GenerationResult, SimulatedLLM
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "PriorityClass",
    "SchedulerConfig",
    "StepRecord",
    "GenScheduler",
    "LaneModel",
    "MICROBATCH_SIZE_BUCKETS",
    "resolve_priority_class",
    "fold_sched_events",
]

#: histogram buckets for engine-step sizes (requests per step).
MICROBATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


class PriorityClass(str, Enum):
    """Admission priority of a request; lower rank admits first."""

    INTERACTIVE = "interactive"
    NORMAL = "normal"
    BULK = "bulk"

    @property
    def rank(self) -> int:
        return _PRIORITY_RANKS[self]


_PRIORITY_RANKS = {
    PriorityClass.INTERACTIVE: 0,
    PriorityClass.NORMAL: 1,
    PriorityClass.BULK: 2,
}


def resolve_priority_class(value: Any) -> PriorityClass:
    """Coerce a user-facing priority value (enum, name, None) to a class."""
    if value is None:
        return PriorityClass.NORMAL
    if isinstance(value, PriorityClass):
        return value
    return PriorityClass(str(value).lower())


@dataclass(frozen=True)
class SchedulerConfig:
    """Batch-formation policy knobs of the continuous engine."""

    #: prompt-token budget per engine step; None means unbounded.  A
    #: single oversized request is still admitted alone (no starvation).
    max_batch_tokens: int | None = None
    #: virtual-clock age at which a queued request is forced to the
    #: front of the next step regardless of priority.
    watermark_s: float = 10.0
    #: hard cap on requests per engine step.
    max_batch: int = 64
    #: trunk-overlap threshold (in cache blocks) for pulling pending
    #: requests of the same priority class into the same step; 0
    #: disables prefix-aware grouping.
    prefix_group_blocks: int = 4
    #: charge each step's shared trunk prefill once instead of once per
    #: request (intra-step dedup pricing in the latency model).
    prefix_dedup: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_batch_tokens is not None and self.max_batch_tokens < 1:
            raise ValueError(
                f"max_batch_tokens must be >= 1, got {self.max_batch_tokens}"
            )
        if self.watermark_s < 0:
            raise ValueError(f"watermark_s must be >= 0, got {self.watermark_s}")
        if self.prefix_group_blocks < 0:
            raise ValueError(
                f"prefix_group_blocks must be >= 0, got {self.prefix_group_blocks}"
            )


@dataclass(frozen=True)
class StepMember:
    """One admitted request inside a :class:`StepRecord`."""

    lane_id: int
    priority: str
    arrival: float
    deadline: float | None
    start: float
    completion: float
    prompt_tokens: int
    output_tokens: int
    #: leading tokens shared with an earlier member of the same step and
    #: therefore charged zero prefill (intra-step trunk dedup).
    dedup_tokens: int = 0

    @property
    def wait(self) -> float:
        """Queue wait: prefill start minus arrival, in virtual seconds."""
        return self.start - self.arrival


@dataclass(frozen=True)
class StepRecord:
    """Deterministic trace of one engine step (tests, SCHED events)."""

    index: int
    #: the quiescence instant: latest pending arrival when the step formed.
    t_now: float
    members: tuple[StepMember, ...]
    #: requests forced in by the timeout watermark.
    forced: int
    #: admitted requests that jumped ahead of an older, lower-priority
    #: pending request which was deferred from this step.
    preemptions: int
    #: requests still queued after this step's admission.
    queue_depth_after: int
    #: engine-busy wall of the step (last completion - first start).
    wall: float
    #: prompt tokens admitted to the step.
    tokens: int
    #: trunk tokens the step prefilled once instead of once per member.
    dedup_tokens: int = 0
    #: distinct shared-trunk groups among the admitted requests.
    prefix_groups: int = 0

    @property
    def size(self) -> int:
        return len(self.members)


class _Request:
    """One pending generation call of one lane."""

    __slots__ = (
        "lane_id", "prompt", "max_tokens", "use_cache", "clock",
        "result", "error", "done",
        "arrival", "priority_rank", "priority_name", "deadline",
        "tokens", "trunk", "decision", "prepared", "handle",
    )

    def __init__(
        self,
        lane_id: int,
        prompt: str,
        max_tokens: int | None,
        use_cache: bool | None,
        clock: VirtualClock,
    ) -> None:
        self.lane_id = lane_id
        self.prompt = prompt
        self.max_tokens = max_tokens
        self.use_cache = use_cache
        self.clock = clock
        self.result: "GenerationResult | None" = None
        self.error: BaseException | None = None
        self.done = False
        self.arrival = 0.0
        self.priority_rank = 1
        self.priority_name = "normal"
        self.deadline: float | None = None
        self.tokens: list[int] | None = None
        #: shared-trunk grouping key, set with the tokens when grouping is on.
        self.trunk: tuple | None = None
        self.decision: Any = None
        self.prepared = False
        #: the request's prefix-cache pin while its step runs.
        self.handle: tuple = ()


class LaneModel:
    """Per-lane view of the shared model.

    ``generate`` routes through the :class:`GenScheduler` and charges the
    lane's virtual clock; every other attribute (caches, profile,
    tokenizer, counters) transparently delegates to the wrapped
    :class:`~repro.llm.model.SimulatedLLM`, so operators and
    observability code see the shared backend.
    """

    def __init__(
        self, engine: "GenScheduler", lane_id: int, clock: VirtualClock
    ) -> None:
        self._engine = engine
        self.lane_id = lane_id
        self.clock = clock

    def generate(
        self,
        prompt: str,
        *,
        max_tokens: int | None = None,
        use_cache: bool | None = None,
    ) -> "GenerationResult":
        """Submit one call and force engine steps until it completes."""
        return self._engine.finish(
            self._engine.submit(
                self.lane_id, prompt, max_tokens=max_tokens, use_cache=use_cache
            )
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine.model, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LaneModel(lane={self.lane_id}, model={self._engine.model!r})"


class GenScheduler:
    """Continuous-batching GEN engine with priority + deadline policy.

    Runners drive it through ``open_lane`` / ``configure_lane`` /
    ``submit`` / ``finish`` / ``close_lane`` on one thread.
    ``snapshot()`` reports aggregate engine statistics and :attr:`steps`
    keeps the step trace for observability and determinism checks.
    """

    def __init__(
        self,
        model: "SimulatedLLM",
        *,
        config: SchedulerConfig | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else SchedulerConfig()
        self.metrics = metrics
        #: open lanes: lane id -> (clock, priority class, deadline_s).
        self._lanes: dict[int, tuple[VirtualClock, PriorityClass, float | None]] = {}
        self._pending: dict[int, _Request] = {}
        #: the engine's serial prefill pipe: instant it is next free.
        self._prefill_free_at = 0.0
        #: deterministic step trace, in execution order.
        self.steps: list[StepRecord] = []
        # aggregate accounting
        self.flushes = 0
        self.batched_calls = 0
        self.largest_batch = 0
        self.total_batch_wall = 0.0
        self.preemptions = 0
        self.forced = 0
        self.dedup_tokens_total = 0
        self._size_sum = 0
        self._wait_sum = 0.0

    # -- lane lifecycle ------------------------------------------------------

    def open_lane(self, lane_id: int, clock: VirtualClock) -> LaneModel:
        """Register a lane at normal priority; returns its model proxy.

        An open lane is part of the quiescence condition: the engine
        makes admission decisions only when every open lane has a
        pending call (or has closed).  :meth:`configure_lane` sets its
        priority class and deadline.
        """
        if lane_id in self._lanes:
            raise ValueError(f"lane {lane_id} is already open")
        self._lanes[lane_id] = (clock, PriorityClass.NORMAL, None)
        return LaneModel(self, lane_id, clock)

    def configure_lane(
        self,
        lane_id: int,
        *,
        priority: Any = None,
        deadline_s: float | None = None,
    ) -> None:
        """Set the lane's priority class / deadline for subsequent submits."""
        if lane_id not in self._lanes:
            raise RuntimeError(f"lane {lane_id} is not open")
        clock = self._lanes[lane_id][0]
        self._lanes[lane_id] = (clock, resolve_priority_class(priority), deadline_s)

    def close_lane(self, lane_id: int) -> None:
        """Remove a lane (it will submit no more calls); may trigger steps."""
        self._lanes.pop(lane_id, None)
        self._maybe_flush()

    # -- the submit / flush path ---------------------------------------------

    def submit(
        self,
        lane_id: int,
        prompt: str,
        *,
        max_tokens: int | None = None,
        use_cache: bool | None = None,
    ) -> _Request:
        """Enqueue one call; returns its request, ``done`` once a step ran it.

        Never waits: when this call makes the engine quiescent, the step
        runs here, before returning.
        """
        if lane_id not in self._lanes:
            raise RuntimeError(f"lane {lane_id} is not open")
        if lane_id in self._pending:
            raise RuntimeError(f"lane {lane_id} already has a pending call")
        clock, priority, deadline_s = self._lanes[lane_id]
        request = _Request(lane_id, prompt, max_tokens, use_cache, clock)
        request.arrival = clock.now
        request.priority_rank = priority.rank
        request.priority_name = priority.value
        request.deadline = (
            request.arrival + deadline_s if deadline_s is not None else None
        )
        self._pending[lane_id] = request
        self._observe_queue_depth()
        self._maybe_flush()
        return request

    def finish(self, request: _Request) -> "GenerationResult":
        """A submitted request's result (or error), forcing steps until done.

        Forcing is the path of an opaque ``LaneModel.generate`` whose
        peers are not all parked.
        """
        while not request.done:
            self._run_step()
        if request.error is not None:
            raise request.error
        assert request.result is not None
        return request.result

    def _maybe_flush(self) -> None:
        """Run engine steps while the quiescence condition holds.

        A step that leaves requests queued usually breaks quiescence (the
        admitted lanes are released with nothing pending), so the loop
        exits and the leftovers mix with the next quiescence's arrivals.
        """
        while self._pending and len(self._pending) >= len(self._lanes):
            self._run_step()

    def _complete(self, request: _Request) -> None:
        """Take a finished request off the queue."""
        request.done = True
        del self._pending[request.lane_id]

    def _prepare(self, request: _Request) -> bool:
        """Tokenize one request and apply its seeded fault decision.

        The front half of an engine step: every request goes through it, so
        batched runs inject exactly the faults a sequential run would
        (``fault_plan.decide`` is keyed by prompt, not by arrival order).
        Returns True when the request survives to execution; on a prepare
        error or an injected fault the request is completed in place (error
        or fault charge delivered to its own lane clock) and False is
        returned.
        """
        model = self.model
        try:
            request.tokens = model.prepare(request.prompt)
        except Exception as error:  # noqa: BLE001 - delivered to the lane
            request.error = error
            request.done = True
            return False
        request.decision = (
            model.fault_plan.decide(model.profile.name, request.prompt)
            if model.fault_plan is not None
            else None
        )
        if request.decision is not None and request.decision.kind is not None:
            try:
                model.inject_fault(
                    request.decision, request.prompt, request.tokens,
                    max_tokens=request.max_tokens, clock=request.clock,
                )
            except Exception as error:  # noqa: BLE001 - delivered to the lane
                request.error = error
            request.done = True
            return False
        if self.config.prefix_group_blocks > 0:
            request.trunk = self._trunk_key(request)
        request.prepared = True
        return True

    def _execute(
        self, requests: "list[_Request]"
    ) -> tuple[
        list[_Request], list[tuple[int, int, int]], list[tuple[str, int, Any]]
    ]:
        """Run the deterministic task engine over prepared requests, in order.

        Performs the per-request prefix-cache lookup, resumed below the
        request's step pin, and task execution — the back half of an
        engine step.  Returns the requests that ran, their
        ``(prompt_tokens, cached_tokens, output_tokens)`` triples and
        their ``(text, output_tokens, output)`` results, index-aligned.  A
        request whose lookup or task raises is completed in place with that
        error (the exception a direct call would raise) and left out; its
        peers still run.
        """
        model = self.model
        ran: list[_Request] = []
        triples: list[tuple[int, int, int]] = []
        outputs: list[tuple[str, int, Any]] = []
        for request in requests:
            assert request.tokens is not None
            caching = (
                model.enable_prefix_cache
                if request.use_cache is None
                else request.use_cache
            )
            try:
                cached = (
                    model.kv_cache.lookup_and_insert(
                        request.tokens, request.handle
                    )
                    if caching
                    else 0
                )
                text, output_tokens, output = model.execute_task(
                    request.prompt, max_tokens=request.max_tokens
                )
            except Exception as error:  # noqa: BLE001 - delivered to the lane
                request.error = error
                request.done = True
                continue
            ran.append(request)
            triples.append((len(request.tokens), cached, output_tokens))
            outputs.append((text, output_tokens, output))
        return ran, triples, outputs

    def _policy_key(self, request: _Request) -> tuple:
        deadline = request.deadline if request.deadline is not None else float("inf")
        return (request.priority_rank, deadline, request.arrival, request.lane_id)

    def _trunk_key(self, request: _Request) -> tuple:
        """Deterministic shared-trunk grouping key of one request.

        Requests of the same priority class whose tokenized prompts share
        the first ``prefix_group_blocks`` complete cache blocks get the
        same key; short prompts (fewer complete blocks than the
        threshold) stay singletons.  Priority rank is part of the key so
        a bulk request can never ride an interactive group past other
        interactive work.
        """
        span = self.config.prefix_group_blocks * self.model.kv_cache.block_size
        tokens = request.tokens or []
        if len(tokens) < span:
            return ("solo", request.lane_id)
        return ("trunk", request.priority_rank, tuple(tokens[:span]))

    def _group_by_trunk(self, ordered: "list[_Request]") -> "list[_Request]":
        """Pull shared-trunk peers adjacent, preserving policy order.

        Groups are ordered by their best member's policy position (the
        input is policy-sorted and grouping is stable), and members keep
        their relative policy order within the group — so composition
        remains a pure function of tokenized prompts and policy state.
        """
        groups: dict[tuple, list[_Request]] = {}
        order: list[tuple] = []
        for request in ordered:
            key = request.trunk
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(request)
        return [request for key in order for request in groups[key]]

    def _dedup_tokens(
        self,
        admitted: "list[_Request]",
        triples: "list[tuple[int, int, int]]",
        handles: "list[tuple]",
    ) -> "list[int]":
        """Intra-step trunk overlap per member, in admission order.

        Member ``i``'s dedup is its largest block-aligned shared prefix
        with any *earlier* member of the same step, capped at its own
        cached-token count (only a cached trunk can be deduplicated —
        under extreme eviction pressure the trunk may not have survived
        to ``i``'s lookup, and then it must be paid for again).

        One pass over a trie of the earlier members' blocks: ``i``'s
        match depth in it is that largest shared prefix, so a step costs
        O(total blocks) rather than a comparison per pair of members.
        ``handles`` are the members' step pins, index-aligned (``()``
        for a member with nothing pinned).  The trie
        levels inside a pin are keyed by radix node and only the blocks
        below it are cut: every pin of a step is walked before any
        insert, so a pinned node stands for exactly one block prefix, and
        that prefix is pinned for one member exactly when it is pinned
        for every member that shares it.
        """
        if not self.config.prefix_dedup or len(admitted) < 2:
            return [0] * len(admitted)
        block_size = self.model.kv_cache.block_size
        trie: dict = {}
        dedup: list[int] = []
        for index, request in enumerate(admitted):
            node = trie
            depth = 0
            handle = handles[index]
            tokens = request.tokens or ()
            if handle:
                tokens = tokens[len(handle) * block_size :]
            for key in (*handle, *zip(*[iter(tokens)] * block_size)):
                child = node.get(key)
                if child is None:
                    # Past the first miss every child is new: depth is final.
                    child = node[key] = {}
                else:
                    depth += 1
                node = child
            dedup.append(min(depth * block_size, triples[index][1]))
        return dedup

    def _run_step(self) -> None:
        """Form and execute one policy step from the pending queue."""
        # Prepare phase (tokenize + seeded fault injection), in lane
        # order for determinism.  Faulted / invalid requests complete
        # immediately on their own lane clock and leave the queue; their
        # lanes re-enter with the next call, so admission is re-evaluated
        # at the next quiescence.
        removed = False
        for lane_id in sorted(self._pending):
            request = self._pending[lane_id]
            if request.prepared:
                continue
            if not self._prepare(request):
                self._complete(request)
                removed = True
        if removed:
            self._observe_queue_depth()
            return
        if not self._pending:
            return

        # Admission: watermark-forced requests first (oldest first), the
        # rest by (priority rank, deadline, arrival, lane).  Everything
        # here is virtual-clock state — host timing never participates.
        pending = list(self._pending.values())
        t_now = max(request.arrival for request in pending)
        forced = [
            request
            for request in pending
            if t_now - request.arrival >= self.config.watermark_s
        ]
        forced.sort(key=lambda r: (r.arrival, r.priority_rank, r.lane_id))
        rest = sorted(
            (request for request in pending if request not in forced),
            key=self._policy_key,
        )
        if self.config.prefix_group_blocks > 0 and len(rest) > 1:
            rest = self._group_by_trunk(rest)
        admitted: list[_Request] = []
        tokens_admitted = 0
        for request in forced + rest:
            if len(admitted) >= self.config.max_batch:
                break
            size = len(request.tokens or ())
            budget = self.config.max_batch_tokens
            if admitted and budget is not None and tokens_admitted + size > budget:
                break
            admitted.append(request)
            tokens_admitted += size
        deferred = [request for request in pending if request not in admitted]
        preempted = sum(
            1
            for request in admitted
            for other in deferred
            if other.arrival < request.arrival
            and other.priority_rank > request.priority_rank
        )

        self._execute_step(
            admitted,
            t_now=t_now,
            forced=len([request for request in forced if request in admitted]),
            preemptions=preempted,
            tokens=tokens_admitted,
        )

    def _execute_step(
        self,
        admitted: "list[_Request]",
        *,
        t_now: float,
        forced: int,
        preemptions: int,
        tokens: int,
    ) -> None:
        model = self.model
        # Pin the admitted trunks so an earlier member's insert can never
        # evict a later member's matched prefix mid-step.
        kv = model.kv_cache
        for request in admitted:
            request.handle = kv.pin(request.tokens or [])
        try:
            ran, triples, outputs = self._execute(admitted)
        finally:
            for request in admitted:
                kv.unpin(request.handle)
        for request in admitted:
            if request.done:  # its lookup or task raised: the error is its result
                self._complete(request)
        if not ran:
            self._observe_queue_depth()
            return
        admitted = ran
        dedup = self._dedup_tokens(
            admitted, triples, [request.handle for request in admitted]
        )
        step = estimate_continuous_step(
            model.profile,
            triples,
            [request.arrival for request in admitted],
            prefill_free_at=self._prefill_free_at,
            dedup_tokens=dedup,
        )
        self._prefill_free_at = step.prefill_free_at

        members: list[StepMember] = []
        for index, request in enumerate(admitted):
            text, output_tokens, output = outputs[index]
            prompt_tokens, cached, _ = triples[index]
            completion = step.completions[index]
            extras = {
                **output.extras,
                "sched_step": len(self.steps),
                "sched_step_size": step.size,
                "sched_wait": step.starts[index] - request.arrival,
            }
            if dedup[index]:
                extras["sched_dedup_tokens"] = dedup[index]
            decision = request.decision
            result = model.make_result(
                text,
                output,
                prompt_tokens=prompt_tokens,
                cached_tokens=cached,
                output_tokens=output_tokens,
                latency=step.per_request[index],
                decision=decision,
                extras=extras,
            )
            # Each lane advances to its OWN completion — the continuous
            # engine never synchronizes peers to the slowest decode.
            request.clock.advance_to(completion)
            if decision is not None and decision.spike_factor != 1.0:
                # The spiked request alone pays the stretched remainder.
                request.clock.advance(
                    step.per_request[index].total * (decision.spike_factor - 1.0)
                )
            model.record_result(result)
            request.result = result
            self._complete(request)
            members.append(
                StepMember(
                    lane_id=request.lane_id,
                    priority=request.priority_name,
                    arrival=request.arrival,
                    deadline=request.deadline,
                    start=step.starts[index],
                    completion=completion,
                    prompt_tokens=prompt_tokens,
                    output_tokens=output_tokens,
                    dedup_tokens=dedup[index],
                )
            )

        record = StepRecord(
            index=len(self.steps),
            t_now=t_now,
            members=tuple(members),
            forced=forced,
            preemptions=preemptions,
            queue_depth_after=len(self._pending),
            wall=step.wall,
            tokens=tokens,
            dedup_tokens=sum(dedup),
            prefix_groups=(
                len({request.trunk for request in admitted})
                if self.config.prefix_group_blocks > 0
                else 0
            ),
        )
        self.steps.append(record)
        self.flushes += 1
        self.batched_calls += len(admitted)
        self.largest_batch = max(self.largest_batch, len(admitted))
        self.total_batch_wall += step.wall
        self.preemptions += preemptions
        self.forced += forced
        self.dedup_tokens_total += record.dedup_tokens
        self._size_sum += len(admitted)
        self._wait_sum += sum(member.wait for member in members)
        self._observe_step(record)
        self._observe_queue_depth()

    # -- observability -------------------------------------------------------

    def _observe_queue_depth(self) -> None:
        # Gauges only (idempotent sets): the counter/histogram side of
        # the spear_sched_* family is derived by the ObsCollector from
        # the folded SCHED events, so wiring an engine registry and a
        # collector to the same MetricsRegistry never double-counts.
        if self.metrics is None:
            return
        name = self.model.profile.name
        depth = float(len(self._pending))
        self.metrics.gauge(
            "spear_gen_queue_depth",
            "Generation calls waiting for an engine step.",
            model=name,
        ).set(depth)
        self.metrics.gauge(
            "spear_sched_queue_depth",
            "Generation calls queued in the continuous scheduler.",
            model=name,
        ).set(depth)

    def _observe_step(self, record: StepRecord) -> None:
        if self.metrics is None:
            return
        name = self.model.profile.name
        # The spear_microbatch_* engine-step family, kept under its
        # established names for dashboards and reports.
        self.metrics.counter(
            "spear_microbatch_flushes_total",
            "Micro-batches executed.", model=name,
        ).inc()
        self.metrics.histogram(
            "spear_microbatch_size",
            "Generation calls coalesced per micro-batch.",
            buckets=MICROBATCH_SIZE_BUCKETS,
            model=name,
        ).observe(float(record.size))
        self.metrics.histogram(
            "spear_microbatch_wall_seconds",
            "Simulated wall time per micro-batch engine step.",
            model=name,
        ).observe(record.wall)

    def wait_stats(self) -> dict[str, dict[str, float]]:
        """Per-priority-class queue-wait summary over the step trace."""
        waits: dict[str, list[float]] = {}
        for record in self.steps:
            for member in record.members:
                waits.setdefault(member.priority, []).append(member.wait)
        summary: dict[str, dict[str, float]] = {}
        for name, values in sorted(waits.items()):
            values.sort()
            summary[name] = {
                "count": float(len(values)),
                "mean": sum(values) / len(values),
                "p50": _quantile(values, 0.50),
                "p95": _quantile(values, 0.95),
                "p99": _quantile(values, 0.99),
            }
        return summary

    def snapshot(self) -> dict[str, float]:
        """Point-in-time engine statistics for gauges, reports and BATCH."""
        return {
            "flushes": self.flushes,
            "batched_calls": self.batched_calls,
            "largest_batch": self.largest_batch,
            "mean_batch_size": (
                self._size_sum / self.flushes if self.flushes else 0.0
            ),
            "total_batch_wall": self.total_batch_wall,
            "open_lanes": len(self._lanes),
            "pending": len(self._pending),
            "steps": self.flushes,
            "preemptions": self.preemptions,
            "forced": self.forced,
            "dedup_tokens": self.dedup_tokens_total,
            "mean_step_dedup_tokens": (
                self.dedup_tokens_total / self.flushes
                if self.flushes
                else 0.0
            ),
            "mean_wait": (
                self._wait_sum / self.batched_calls
                if self.batched_calls
                else 0.0
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GenScheduler(lanes={len(self._lanes)}, "
            f"steps={self.flushes}, largest={self.largest_batch}, "
            f"preemptions={self.preemptions})"
        )


def _quantile(sorted_values: "list[float]", q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]


def fold_sched_events(events: Any, engine: GenScheduler) -> None:
    """Replay the engine's step trace into an event log as SCHED events.

    One event per engine step, stamped at the step's last completion
    instant; the payload carries the admission decision (size, tokens,
    forced/preempted counts, queue depth, per-member lanes, classes, and
    waits) so ``spear trace`` and the ledger can replay batch formation.
    Everything here is virtual-clock data — two same-seed runs fold
    identical SCHED streams.
    """
    from repro.runtime.events import EventKind

    for record in engine.steps:
        events.record(
            EventKind.SCHED,
            "GEN-ENGINE",
            at=max(member.completion for member in record.members),
            payload={
                "step": record.index,
                "size": record.size,
                "tokens": record.tokens,
                "forced": record.forced,
                "preemptions": record.preemptions,
                "queue_depth": record.queue_depth_after,
                "wall": round(record.wall, 9),
                "dedup_tokens": record.dedup_tokens,
                "prefix_groups": record.prefix_groups,
                "lanes": [member.lane_id for member in record.members],
                "classes": [member.priority for member in record.members],
                "waits": [round(member.wait, 9) for member in record.members],
            },
        )
