"""The resilience runtime: retries, breakers, and fallback around GEN.

:class:`ResilienceRuntime` is attached to an execution state
(``state.resilience``, usually via
:class:`~repro.runtime.options.RuntimeOptions`) and interposes on every
``GEN`` generation call.  It owns:

- the :class:`~repro.resilience.policies.RetryPolicy` (backoff charged
  to the *virtual* clock, jitter from the seeded stable hash);
- one :class:`~repro.resilience.policies.CircuitBreaker` per model
  profile, created lazily and shared across parallel lanes (forked
  states carry the same runtime object);
- the :class:`~repro.resilience.policies.FallbackChain` of degradation
  targets, tried in order once the primary tier is exhausted.

Every failure, retry, breaker transition, and fallback emits a
structured event (``FAULT`` / ``RETRY`` / ``BREAKER`` / ``FALLBACK``)
on the state's log, feeding the obs metric families and the
``resilience`` section of :class:`~repro.obs.report.RunReport`.

Byte-identity guarantee: when no fault fires, a call takes the exact
code path a resilience-free run takes — one model call — with
no extra events, metadata writes, or clock charges.  Attaching a
runtime while injection is disabled therefore leaves outputs
byte-identical to the vanilla baseline (the fault-tolerance benchmark
asserts this).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any

from repro.core.algebra import GenCall, drive
from repro.errors import CircuitOpenError, SpearError
from repro.errors import TimeoutError as SpearTimeoutError
from repro.resilience.faults import unit_draw
from repro.resilience.policies import (
    BreakerPolicy,
    CircuitBreaker,
    FallbackChain,
    RetryPolicy,
    StaticFallback,
)
from repro.runtime.events import EventKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.algebra import Steps
    from repro.core.state import ExecutionState
    from repro.llm.model import GenerationResult

__all__ = ["ResilienceRuntime"]


def _model_label(model: Any) -> str:
    profile = getattr(model, "profile", None)
    return getattr(profile, "name", None) or type(model).__name__


class ResilienceRuntime:
    """Retry/breaker/fallback orchestration for generation calls.

    Args:
        retry: retry policy for the primary and model-fallback tiers;
            None means a single attempt per tier.
        breaker: breaker parameters; None disables circuit breaking.
        fallback: degradation targets tried after the primary tier.
        seed: drives deterministic backoff jitter.
    """

    def __init__(
        self,
        *,
        retry: RetryPolicy | None = None,
        breaker: BreakerPolicy | None = None,
        fallback: FallbackChain | None = None,
        seed: int = 0,
    ) -> None:
        self.retry = retry
        self.breaker_policy = breaker
        self.fallback = fallback if fallback is not None else FallbackChain()
        self.seed = seed
        self._breakers: dict[str, CircuitBreaker] = {}
        self._fallback_models: dict[str, Any] = {}

    # -- shared policy objects ------------------------------------------------

    def breaker_for(self, model: str) -> CircuitBreaker | None:
        """The (lazily created) breaker guarding ``model``; shared by lanes."""
        if self.breaker_policy is None:
            return None
        breaker = self._breakers.get(model)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_policy)
            self._breakers[model] = breaker
        return breaker

    def breaker_snapshots(self, now: float) -> dict[str, dict[str, Any]]:
        """Per-model breaker states for gauges and reports."""
        return {
            name: breaker.snapshot(now) for name, breaker in self._breakers.items()
        }

    def _fallback_model(self, profile: str, primary: Any) -> Any:
        """Build (once) the degraded-tier backend for ``profile``.

        Grounded on the primary's corpora so outputs stay deterministic;
        runs with its own throwaway clock (latency is charged to the
        calling state's clock explicitly), a cold prefix cache, and no
        fault plan — it models a separate, lightly-loaded tier.
        """
        model = self._fallback_models.get(profile)
        if model is not None:
            return model
        from repro.llm.model import SimulatedLLM

        model = SimulatedLLM(profile, enable_prefix_cache=False)
        engine = getattr(primary, "engine", None)
        if engine is not None:
            tweets = getattr(engine, "_tweets", None)
            if tweets is not None:
                model.bind_tweets(tweets)
            clinical = getattr(engine, "_clinical", None)
            if clinical is not None:
                model.bind_clinical(clinical)
        self._fallback_models[profile] = model
        return model

    # -- the generate path ----------------------------------------------------

    def generate(
        self, state: "ExecutionState", prompt: str, *, max_tokens: int | None = None
    ) -> "GenerationResult":
        """Run one generation call under the policies; see :meth:`steps`."""
        return drive(self.steps(state, prompt, max_tokens=max_tokens))

    def steps(
        self, state: "ExecutionState", prompt: str, *, max_tokens: int | None = None
    ) -> "Steps":
        """One generation call under the policies, as a step generator.

        Tries the primary model (``state.model``) with retries and its
        breaker, then each fallback target in order.  Raises the last
        error when every tier is exhausted.
        """
        primary = state.model
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:24]
        last_error: BaseException | None = None

        result = yield from self._run_model_tier(
            state, primary, _model_label(primary), prompt, digest,
            max_tokens=max_tokens, foreign_clock=False,
        )
        if isinstance(result, BaseException):
            last_error = result
        else:
            return result

        for target in self.fallback.targets:
            if isinstance(target, StaticFallback):
                return self._serve_static(
                    state, target, prompt, failed=last_error
                )
            model = self._fallback_model(target.profile, primary)
            outcome = yield from self._run_model_tier(
                state, model, target.profile, prompt, digest,
                max_tokens=max_tokens, foreign_clock=True,
            )
            if isinstance(outcome, BaseException):
                last_error = outcome
                continue
            self._mark_degraded(
                state, target.profile, prompt, failed=last_error
            )
            return outcome

        assert last_error is not None
        raise last_error

    def _run_model_tier(
        self,
        state: "ExecutionState",
        model: Any,
        label: str,
        prompt: str,
        digest: str,
        *,
        max_tokens: int | None,
        foreign_clock: bool,
    ) -> "Steps":
        """One tier's attempt loop; returns a result or the last error.

        ``foreign_clock=True`` marks a fallback backend with its own
        private clock: its call latency is charged to the state's clock
        explicitly (the primary charges the state's clock itself).
        """
        policy = self.retry
        attempts = policy.max_attempts if policy is not None else 1
        breaker = self.breaker_for(label)
        operator = f'MODEL["{label}"]'
        last_error: BaseException | None = None

        for attempt in range(attempts):
            now = state.clock.now
            if breaker is not None and not breaker.allow(now):
                snapshot = breaker.snapshot(now)
                opened_at = snapshot["opened_at"]
                until = (
                    opened_at + self.breaker_policy.cooldown_s
                    if opened_at is not None
                    else None
                )
                last_error = CircuitOpenError(label, until=until)
                state.events.emit(
                    EventKind.BREAKER, operator, at=now,
                    model=label, state="open", action="rejected",
                    attempt=attempt,
                )
                if not self._backoff(
                    state, policy, label, digest, attempt, attempts,
                    last_error, operator,
                ):
                    break
                continue

            started = state.clock.now
            try:
                result = yield GenCall(model, prompt, max_tokens)
            except SpearError as error:
                last_error = error
                self._note_failure(
                    state, breaker, label, operator, error, attempt
                )
                if not (
                    policy is not None
                    and policy.retryable(error)
                    and self._backoff(
                        state, policy, label, digest, attempt, attempts,
                        error, operator,
                    )
                ):
                    break
                continue

            if foreign_clock:
                # A fallback backend advanced its own private clock; the
                # run's time moves here instead.
                state.clock.advance(result.latency.total)
            elapsed = (
                result.latency.total
                if foreign_clock
                else state.clock.now - started
            )
            if (
                policy is not None
                and policy.attempt_timeout_s is not None
                and elapsed > policy.attempt_timeout_s
            ):
                error = SpearTimeoutError(
                    f"attempt took {elapsed:.2f}s > "
                    f"{policy.attempt_timeout_s:.2f}s deadline",
                    elapsed=elapsed,
                    deadline=policy.attempt_timeout_s,
                    attempt=attempt,
                )
                last_error = error
                self._note_failure(
                    state, breaker, label, operator, error, attempt
                )
                if not self._backoff(
                    state, policy, label, digest, attempt, attempts,
                    error, operator,
                ):
                    break
                continue

            if breaker is not None:
                before = breaker.state(state.clock.now)
                after = breaker.record_success(state.clock.now)
                if after != before:
                    state.events.emit(
                        EventKind.BREAKER, operator, at=state.clock.now,
                        model=label, state=after, action="closed",
                    )
            return result

        assert last_error is not None
        return last_error

    def _backoff(
        self,
        state: "ExecutionState",
        policy: RetryPolicy | None,
        label: str,
        digest: str,
        attempt: int,
        attempts: int,
        error: BaseException,
        operator: str,
    ) -> bool:
        """Charge the backoff delay and emit RETRY; False = exhausted."""
        if policy is None or attempt + 1 >= attempts:
            return False
        delay = policy.delay_for(
            attempt,
            draw=unit_draw(self.seed, "jitter", label, digest, attempt),
            retry_after=getattr(error, "retry_after", None),
        )
        state.events.emit(
            EventKind.RETRY, operator, at=state.clock.now,
            model=label, attempt=attempt + 1, delay=delay,
            error=type(error).__name__,
        )
        state.clock.advance(delay)
        state.metadata.increment("resilience_retries")
        return True

    def _note_failure(
        self,
        state: "ExecutionState",
        breaker: CircuitBreaker | None,
        label: str,
        operator: str,
        error: BaseException,
        attempt: int,
    ) -> None:
        """Emit the FAULT event and feed the breaker."""
        now = state.clock.now
        # record(): the payload's "kind" key collides with emit()'s own
        # parameter of the same name.
        state.events.record(
            EventKind.FAULT, operator, at=now,
            payload={
                "model": label,
                "kind": getattr(error, "fault_kind", None) or "error",
                "injected": bool(getattr(error, "injected", False)),
                "error": type(error).__name__,
                "message": str(error),
                "attempt": attempt,
            },
        )
        if breaker is not None:
            before = breaker.state(now)
            after = breaker.record_failure(now)
            if after != before:
                state.events.emit(
                    EventKind.BREAKER, operator, at=now,
                    model=label, state=after, action="tripped",
                    consecutive_failures=(
                        breaker.snapshot(now)["consecutive_failures"]
                    ),
                )

    # -- degraded serving -----------------------------------------------------

    def _serve_static(
        self,
        state: "ExecutionState",
        target: StaticFallback,
        prompt: str,
        *,
        failed: BaseException | None,
    ) -> "GenerationResult":
        """Serve a canned/degraded answer as a synthetic GenerationResult."""
        from repro.llm.latency import LatencyBreakdown
        from repro.llm.model import GenerationResult

        text = target.resolve(state, prompt)
        state.clock.advance(target.latency_s)
        result = GenerationResult(
            text=text,
            task="degraded",
            prompt_tokens=0,
            cached_tokens=0,
            output_tokens=0,
            latency=LatencyBreakdown(
                overhead=target.latency_s,
                prefill=0.0,
                cached_prefill=0.0,
                decode=0.0,
            ),
            confidence=target.confidence,
            extras={"degraded": True},
        )
        self._mark_degraded(state, "static", prompt, failed=failed)
        return result

    def _mark_degraded(
        self,
        state: "ExecutionState",
        target: str,
        prompt: str,
        *,
        failed: BaseException | None,
    ) -> None:
        state.metadata["degraded"] = True
        state.metadata["degraded_target"] = target
        state.metadata.increment("degraded_runs")
        state.events.emit(
            EventKind.FALLBACK, f'MODEL["{target}"]', at=state.clock.now,
            target=target,
            reason=type(failed).__name__ if failed is not None else "?",
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResilienceRuntime(retry={self.retry!r}, "
            f"breaker={self.breaker_policy!r}, "
            f"fallback_targets={len(self.fallback)})"
        )
