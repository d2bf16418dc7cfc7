"""Resilience policies: declarative, loggable, replayable control data.

Following the paper's stance that adaptation signals belong in inspectable
first-class state (§3.1) — and "Structured Prompt Language"'s argument for
declarative control policies over ad-hoc try/except — the retry, breaker,
and fallback behaviours are plain dataclasses.  They carry no clocks and
no RNG: time comes from the caller's virtual clock, jitter from the
seeded stable hash of :func:`repro.resilience.faults.unit_draw`, so a
policy's effect is fully determined by its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SpearError

__all__ = [
    "RetryPolicy",
    "BreakerPolicy",
    "CircuitBreaker",
    "ModelFallback",
    "StaticFallback",
    "FallbackChain",
    "ShedPolicy",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter, on the virtual clock.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    call plus up to two retries.  The delay before retry ``n`` (0-based)
    is ``base_delay_s * multiplier**n`` capped at ``max_delay_s``, spread
    by ``±jitter`` (a fraction) using a seeded stable-hash draw, and never
    less than a rate-limit error's ``retry_after`` hint.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.1
    #: per-attempt deadline in simulated seconds; None disables the check.
    attempt_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1: {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    def retryable(self, error: BaseException) -> bool:
        """Whether ``error`` is worth retrying under this policy."""
        return bool(getattr(error, "retryable", False))

    def delay_for(
        self,
        attempt: int,
        *,
        draw: float = 0.5,
        retry_after: float | None = None,
    ) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (0-based).

        ``draw`` is a uniform sample in [0, 1) supplying the jitter
        deterministically (callers derive it from the seeded hash).
        """
        base = min(
            self.base_delay_s * (self.multiplier ** attempt), self.max_delay_s
        )
        jittered = base * (1.0 + self.jitter * (2.0 * draw - 1.0))
        if retry_after is not None:
            jittered = max(jittered, retry_after)
        return max(jittered, 0.0)


@dataclass(frozen=True)
class BreakerPolicy:
    """Parameters of a per-model circuit breaker."""

    #: consecutive failures that trip the breaker open.
    failure_threshold: int = 5
    #: simulated seconds the breaker stays open before probing.
    cooldown_s: float = 30.0
    #: calls admitted in half-open state before a verdict.
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1: {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0: {self.cooldown_s}")
        if self.half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1: {self.half_open_probes}"
            )


@dataclass(frozen=True)
class ShedPolicy:
    """Admission control for the multi-tenant serving layer.

    A tenant whose pending-request queue is full is *shed*: the submit
    call fails fast with :class:`~repro.errors.RateLimitError` carrying
    ``retry_after_s``, instead of queueing unboundedly (the serving
    analogue of the breaker's fail-fast stance).  ``breaker`` optionally
    wraps admission in a :class:`CircuitBreaker` so a tenant that keeps
    hitting the limit is shed outright for ``cooldown_s`` without even
    checking the queue.
    """

    #: pending requests a tenant may hold before submissions shed.
    queue_limit: int = 16
    #: hint returned to shed callers (simulated seconds).
    retry_after_s: float = 1.0
    #: optional breaker-style shedding on repeated overload; None means
    #: every submit checks only the queue depth.
    breaker: "BreakerPolicy | None" = None

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1: {self.queue_limit}")
        if self.retry_after_s < 0:
            raise ValueError(
                f"retry_after_s must be >= 0: {self.retry_after_s}"
            )


class CircuitBreaker:
    """Closed → open → half-open breaker on the virtual clock.

    Parallel lanes share one breaker per model profile, so a model
    melting down in one lane stops the others from hammering it.
    All time comes from the caller (``now``), never the wall clock.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, policy: BreakerPolicy | None = None) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self._failures = 0
        self._opened_at: float | None = None
        self._probes_in_flight = 0
        self.transitions = 0

    def state(self, now: float) -> str:
        """The breaker state as of virtual time ``now``."""
        if self._opened_at is None:
            return self.CLOSED
        if now >= self._opened_at + self.policy.cooldown_s:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at time ``now``.

        In half-open state at most ``half_open_probes`` concurrent calls
        are admitted; their outcomes close or re-open the circuit.
        """
        state = self.state(now)
        if state == self.CLOSED:
            return True
        if state == self.OPEN:
            return False
        if self._probes_in_flight >= self.policy.half_open_probes:
            return False
        self._probes_in_flight += 1
        return True

    def record_success(self, now: float) -> str:
        """Fold in a successful call; returns the resulting state."""
        was_open = self._opened_at is not None
        self._failures = 0
        self._opened_at = None
        self._probes_in_flight = 0
        if was_open:
            self.transitions += 1
        return self.CLOSED

    def record_failure(self, now: float) -> str:
        """Fold in a failed call; returns the resulting state."""
        state = self.state(now)
        if state == self.HALF_OPEN:
            # The probe failed: re-open and restart the cooldown.
            self._opened_at = now
            self._probes_in_flight = 0
            self.transitions += 1
            return self.OPEN
        self._failures += 1
        if (
            self._opened_at is None
            and self._failures >= self.policy.failure_threshold
        ):
            self._opened_at = now
            self.transitions += 1
            return self.OPEN
        return self.state(now)

    def snapshot(self, now: float) -> dict[str, Any]:
        """Point-in-time breaker accounting."""
        return {
            "state": self.state(now),
            "consecutive_failures": self._failures,
            "opened_at": self._opened_at,
            "transitions": self.transitions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CircuitBreaker(failures={self._failures}, opened_at={self._opened_at})"


@dataclass(frozen=True)
class ModelFallback:
    """Degrade to a cheaper model profile (e.g. ``"gpt-4o-mini"``).

    The fallback backend is built lazily by the resilience runtime,
    grounded on the same corpora as the primary, and — modelling a
    separate, lightly-loaded tier — does not share the primary's fault
    plan.
    """

    profile: str


@dataclass(frozen=True)
class StaticFallback:
    """Degrade to a precomputed answer (a cached or VIEW-summarized text).

    ``text`` is either the literal degraded answer or a callable
    ``(state, prompt) -> str`` (e.g. reading a summary out of C).
    """

    text: "str | Callable[[Any, str], str]"
    confidence: float = 0.2
    #: simulated seconds serving the canned answer costs.
    latency_s: float = 0.001

    def resolve(self, state: Any, prompt: str) -> str:
        """The degraded answer text for this call."""
        if callable(self.text):
            return self.text(state, prompt)
        return self.text


@dataclass(frozen=True)
class FallbackChain:
    """Ordered degradation targets tried after the primary is exhausted.

    Each target is a :class:`ModelFallback` or :class:`StaticFallback`;
    the first to produce a result wins and the run is marked degraded
    (``M["degraded"] = True``).
    """

    targets: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        for target in self.targets:
            if not isinstance(target, (ModelFallback, StaticFallback)):
                raise SpearError(
                    "FallbackChain targets must be ModelFallback or "
                    f"StaticFallback, got {type(target).__name__}"
                )

    def __bool__(self) -> bool:
        return bool(self.targets)

    def __len__(self) -> int:
        return len(self.targets)
