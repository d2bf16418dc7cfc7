"""Tests for ResilienceRuntime: retry recovery, breakers, degraded fallback."""

from types import SimpleNamespace

import pytest

from repro.core import GEN, Pipeline
from repro.core.state import ExecutionState
from repro.data import make_tweet_corpus
from repro.errors import (
    CircuitOpenError,
    RateLimitError,
    SpearError,
    TransientModelError,
)
from repro.experiments.common import (
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.llm.model import SimulatedLLM
from repro.resilience import (
    BreakerPolicy,
    FallbackChain,
    FaultPlan,
    FaultSpec,
    ModelFallback,
    ResilienceRuntime,
    RetryPolicy,
    StaticFallback,
)
from repro.runtime.batch import BatchRunner
from repro.runtime.clock import VirtualClock
from repro.runtime.events import EventKind


class FlakyModel:
    """A stub backend that fails the first ``fail_times`` calls."""

    def __init__(self, fail_times=0, error_factory=None):
        self.profile = SimpleNamespace(name="stub-model")
        self.calls = 0
        self.fail_times = fail_times
        self._error_factory = error_factory or (
            lambda: TransientModelError("boom", injected=True)
        )

    def generate(self, prompt, *, max_tokens=None):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self._error_factory()
        return SimpleNamespace(text=f"ok after {self.calls}", task="stub")


def make_state(model):
    return ExecutionState(model=model, clock=VirtualClock())


class TestRetryPath:
    def test_recovers_after_transient_failures(self):
        model = FlakyModel(fail_times=2)
        state = make_state(model)
        runtime = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.5, jitter=0.0)
        )
        result = runtime.generate(state, "hello")
        assert result.text == "ok after 3"
        assert model.calls == 3
        assert state.metadata["resilience_retries"] == 2
        # backoff 0.5 then 1.0 charged to the virtual clock.
        assert state.clock.now == pytest.approx(1.5)
        assert len(state.events.of_kind(EventKind.FAULT)) == 2
        retries = state.events.of_kind(EventKind.RETRY)
        assert [event.payload["attempt"] for event in retries] == [1, 2]

    def test_exhaustion_reraises_last_error(self):
        model = FlakyModel(fail_times=10)
        state = make_state(model)
        runtime = ResilienceRuntime(retry=RetryPolicy(max_attempts=2, jitter=0.0))
        with pytest.raises(TransientModelError):
            runtime.generate(state, "hello")
        assert model.calls == 2

    def test_non_retryable_error_fails_fast(self):
        model = FlakyModel(
            fail_times=10, error_factory=lambda: SpearError("fatal")
        )
        state = make_state(model)
        runtime = ResilienceRuntime(retry=RetryPolicy(max_attempts=5))
        with pytest.raises(SpearError):
            runtime.generate(state, "hello")
        assert model.calls == 1

    def test_retry_after_floors_the_backoff(self):
        model = FlakyModel(
            fail_times=1,
            error_factory=lambda: RateLimitError(retry_after=5.0),
        )
        state = make_state(model)
        runtime = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0)
        )
        runtime.generate(state, "hello")
        assert state.clock.now >= 5.0

    def test_no_policy_means_single_attempt(self):
        model = FlakyModel(fail_times=1)
        state = make_state(model)
        runtime = ResilienceRuntime()
        with pytest.raises(TransientModelError):
            runtime.generate(state, "hello")
        assert model.calls == 1


class TestCleanPathByteIdentity:
    def test_first_attempt_success_leaves_no_trace(self):
        model = FlakyModel(fail_times=0)
        state = make_state(model)
        runtime = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=4),
            breaker=BreakerPolicy(),
            fallback=FallbackChain((StaticFallback("never used"),)),
        )
        result = runtime.generate(state, "hello")
        assert result.text == "ok after 1"
        assert state.clock.now == 0.0
        assert state.events.all() == []
        assert "resilience_retries" not in state.metadata
        assert "degraded" not in state.metadata


class TestBreaker:
    def test_trips_then_rejects_with_circuit_open(self):
        model = FlakyModel(fail_times=100)
        state = make_state(model)
        runtime = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=5, base_delay_s=0.1, jitter=0.0),
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=1e6),
        )
        with pytest.raises(CircuitOpenError):
            runtime.generate(state, "hello")
        # Two real calls trip the breaker; remaining attempts are rejected
        # without touching the model.
        assert model.calls == 2
        tripped = [
            event
            for event in state.events.of_kind(EventKind.BREAKER)
            if event.payload["action"] == "tripped"
        ]
        assert len(tripped) == 1
        rejected = [
            event
            for event in state.events.of_kind(EventKind.BREAKER)
            if event.payload["action"] == "rejected"
        ]
        assert len(rejected) == 3

    def test_breaker_shared_across_calls(self):
        model = FlakyModel(fail_times=100)
        state = make_state(model)
        runtime = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0),
            breaker=BreakerPolicy(failure_threshold=2, cooldown_s=1e6),
        )
        with pytest.raises(TransientModelError):
            runtime.generate(state, "hello")
        assert model.calls == 2  # breaker now open
        with pytest.raises(CircuitOpenError):
            runtime.generate(state, "hello again")
        assert model.calls == 2  # rejected without calling the model

    def test_breaker_for_is_per_model_label(self):
        runtime = ResilienceRuntime(breaker=BreakerPolicy())
        assert runtime.breaker_for("a") is runtime.breaker_for("a")
        assert runtime.breaker_for("a") is not runtime.breaker_for("b")
        assert ResilienceRuntime().breaker_for("a") is None


class TestFallback:
    def test_static_fallback_marks_degraded(self):
        model = FlakyModel(fail_times=100)
        state = make_state(model)
        runtime = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0),
            fallback=FallbackChain((StaticFallback("canned answer"),)),
        )
        result = runtime.generate(state, "hello")
        assert result.text == "canned answer"
        assert result.extras["degraded"] is True
        assert state.metadata["degraded"] is True
        assert state.metadata["degraded_target"] == "static"
        assert state.metadata["degraded_runs"] == 1
        fallbacks = state.events.of_kind(EventKind.FALLBACK)
        assert len(fallbacks) == 1
        assert fallbacks[0].payload["reason"] == "TransientModelError"

    def test_model_fallback_serves_from_cheaper_tier(self):
        llm = SimulatedLLM(
            "qwen2.5-7b-instruct",
            enable_prefix_cache=False,
            fault_plan=FaultPlan(0, default=FaultSpec(transient_rate=1.0)),
        )
        state = ExecutionState(model=llm, clock=llm.clock)
        runtime = ResilienceRuntime(
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.1, jitter=0.0),
            fallback=FallbackChain((ModelFallback("gpt-4o-mini"),)),
        )
        before = state.clock.now
        result = runtime.generate(
            state,
            "Summarize the tweet in at most 30 words.\nTweet:\ngreat day",
        )
        assert result.text
        assert state.metadata["degraded_target"] == "gpt-4o-mini"
        # The fallback tier's latency is charged to the run's clock.
        assert state.clock.now > before

    def test_all_tiers_exhausted_raises_last_error(self):
        model = FlakyModel(fail_times=100)
        state = make_state(model)
        runtime = ResilienceRuntime(retry=RetryPolicy(max_attempts=2, jitter=0.0))
        with pytest.raises(TransientModelError):
            runtime.generate(state, "hello")


#: 10% combined per-attempt failure rate over the channels real serving
#: shows (timeouts would conflate per-attempt deadlines with the rate).
TABLE3_FAULTS = FaultSpec(
    transient_rate=0.06,
    rate_limit_rate=0.02,
    malformed_rate=0.02,
    spike_rate=0.05,
)


def _faulted_batch(*, faults: bool, resilient: bool, n_items=24, seed=11):
    """Map + Filter over ``n_items`` tweets, failures collected per item."""
    llm = SimulatedLLM(
        "qwen2.5-7b-instruct",
        enable_prefix_cache=False,
        fault_plan=FaultPlan(seed, default=TABLE3_FAULTS) if faults else None,
    )
    corpus = make_tweet_corpus(n_items, seed=seed)
    llm.bind_tweets(corpus)
    state = ExecutionState(model=llm, clock=llm.clock)
    if resilient:
        state.resilience = ResilienceRuntime(
            retry=RetryPolicy(
                max_attempts=4, base_delay_s=0.2, multiplier=2.0, jitter=0.1
            ),
            breaker=BreakerPolicy(failure_threshold=8, cooldown_s=5.0),
            fallback=FallbackChain((ModelFallback("gpt-4o-mini"),)),
            seed=seed,
        )
    state.prompts.create(
        "map_p", SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"
    )
    state.prompts.create("filter_p", FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}")
    pipeline = Pipeline(
        [
            GEN("summary", prompt="map_p"),
            GEN("verdict", prompt="filter_p", max_tokens=8),
        ]
    )

    def bind(item_state, tweet):
        item_state.context.put("tweet", tweet.text, producer="bind")

    return BatchRunner(state, bind=bind, on_error="collect").run(
        pipeline, items=list(corpus)
    )


def _frozen(batch) -> list:
    return [
        (
            sorted((key, repr(value)) for key, value in result.context.items()),
            sorted((key, repr(value)) for key, value in result.metadata.items()),
            type(result.error).__name__ if result.error else None,
        )
        for result in batch.items
    ]


def _success_rate(batch) -> float:
    return 1.0 - len(batch.failures()) / len(batch.items)


class TestInjectedFaults:
    def test_resilience_recovers_ten_percent_faults(self):
        """At a 10% injected fault rate, retries + breaker + fallback
        keep >= 99% of items; with no mitigation measurably fewer."""
        resilient = _faulted_batch(faults=True, resilient=True)
        unmitigated = _faulted_batch(faults=True, resilient=False)
        assert _success_rate(resilient) >= 0.99
        assert _success_rate(unmitigated) < _success_rate(resilient)
        # Same seed, same faults, same recovery.
        repeat = _faulted_batch(faults=True, resilient=True)
        assert _frozen(repeat) == _frozen(resilient)

    def test_clean_path_byte_identical_to_no_resilience(self):
        clean = _faulted_batch(faults=False, resilient=True)
        baseline = _faulted_batch(faults=False, resilient=False)
        assert _frozen(clean) == _frozen(baseline)
