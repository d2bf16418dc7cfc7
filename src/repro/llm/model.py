"""The simulated LLM backend: the paper's vLLM + model stand-in.

:class:`SimulatedLLM` composes the pieces of this subpackage into the
interface the SPEAR runtime consumes:

- tokenizes the prompt and consults the radix prefix cache (SGLang
  RadixAttention-style);
- routes and executes the task via :class:`~repro.llm.tasks.TaskEngine`;
- charges modelled latency to a virtual clock;
- returns a :class:`GenerationResult` carrying text, token accounting,
  the latency breakdown, and a confidence signal for metadata M.

Everything is deterministic given (profile, bound corpora, prompt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ModelError, TokenBudgetExceededError
from repro.llm.latency import LatencyBreakdown, estimate_latency
from repro.llm.radix_cache import RadixPrefixCache
from repro.llm.profiles import DEFAULT_PROFILE, ModelProfile, get_profile
from repro.llm.tasks import TaskEngine, TaskOutput
from repro.llm.tokenizer import Tokenizer
from repro.runtime.clock import VirtualClock

__all__ = ["GenerationResult", "SimulatedLLM"]


@dataclass(frozen=True)
class GenerationResult:
    """Everything one generation call produced."""

    text: str
    task: str
    prompt_tokens: int
    cached_tokens: int
    output_tokens: int
    latency: LatencyBreakdown
    confidence: float
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of prompt tokens served from the prefix cache."""
        if self.prompt_tokens == 0:
            return 0.0
        return self.cached_tokens / self.prompt_tokens


class SimulatedLLM:
    """Deterministic, prompt-sensitive LLM with a vLLM-style prefix cache."""

    def __init__(
        self,
        profile: str | ModelProfile = DEFAULT_PROFILE,
        *,
        clock: VirtualClock | None = None,
        kv_cache: RadixPrefixCache | None = None,
        enable_prefix_cache: bool = True,
        fault_plan: Any = None,
    ) -> None:
        self.profile = (
            profile if isinstance(profile, ModelProfile) else get_profile(profile)
        )
        self.clock = clock if clock is not None else VirtualClock()
        #: optional :class:`repro.resilience.FaultPlan` (duck-typed: any
        #: object with ``decide(model, prompt) -> FaultDecision``); None
        #: means every call succeeds, exactly as before.
        self.fault_plan = fault_plan
        self.tokenizer = Tokenizer()
        self.kv_cache = kv_cache if kv_cache is not None else RadixPrefixCache()
        self.enable_prefix_cache = enable_prefix_cache
        self.engine = TaskEngine(self.profile)
        # aggregate accounting across all calls.
        self.calls = 0
        self.total_latency = 0.0
        self.total_prompt_tokens = 0
        self.total_cached_tokens = 0
        self.total_output_tokens = 0
        #: observability hooks: called with every GenerationResult.  A
        #: listener that raises must not break generation; its failure is
        #: recorded in ``listener_errors`` instead.
        self._listeners: list[Callable[[GenerationResult], None]] = []
        self.listener_errors: list[str] = []

    # -- corpus binding (grounds the task engine) ----------------------------

    def bind_tweets(self, corpus: Any) -> None:
        """Ground tweet tasks against a :class:`TweetCorpus`."""
        self.engine.bind_tweets(corpus)

    def bind_clinical(self, corpus: Any) -> None:
        """Ground clinical QA against a :class:`ClinicalCorpus`."""
        self.engine.bind_clinical(corpus)

    @property
    def result_cache_key(self) -> str:
        """Backend identity for operator-result-cache fingerprints.

        Generation is deterministic given (profile, bound corpora,
        prompt), so the key is the profile plus the content digests of the
        bound corpora: two models grounded against equal corpora produce
        identical outputs and may share cache entries (e.g. a fresh
        executor per refinement iteration, or a rebuilt corpus); models
        bound to different corpora never alias, whatever their addresses.
        """
        engine = self.engine
        parts = [self.profile.name]
        for attr in ("_tweets", "_clinical"):
            corpus = getattr(engine, attr, None)
            if corpus is not None:
                parts.append(f"{attr.lstrip('_')}:{corpus.content_digest}")
        return "/".join(parts)

    # -- observability hooks ----------------------------------------------

    def add_listener(self, listener: Callable[[GenerationResult], None]) -> None:
        """Call ``listener`` with every future :class:`GenerationResult`."""
        self._listeners.append(listener)

    def remove_listener(
        self, listener: Callable[[GenerationResult], None]
    ) -> bool:
        """Detach a listener; returns False when it was not registered."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            return False
        return True

    # -- generation -----------------------------------------------------------
    #
    # ``generate`` composes four backend steps that the GEN scheduler
    # (:mod:`repro.runtime.scheduler`) also drives individually: ``prepare``
    # (validate + tokenize, the call's one pass over the whole prompt),
    # ``execute_task`` (deterministic task output), ``make_result``
    # (spike-scaled result) and ``record_result`` (counters + listeners).
    # Keeping them public means batched and unbatched calls share one code
    # path for everything except latency pricing and clock charging.

    def prepare(self, prompt: str) -> list[int]:
        """Validate and tokenize a prompt; returns its token ids.

        Exactly ``encode`` of the text; segments make it cheap.  Prompt
        features are the task engine's business: it reads them from the
        instructions, and only QA analyses the whole prompt.

        Raises :class:`ModelError` for an empty prompt and
        :class:`TokenBudgetExceededError` past the context window.
        """
        if not prompt:
            raise ModelError("cannot generate from an empty prompt")
        tokens = self.tokenizer.encode_prompt(prompt)
        if len(tokens) > self.profile.context_window:
            raise TokenBudgetExceededError(len(tokens), self.profile.context_window)
        return tokens

    def execute_task(
        self, prompt: str, *, max_tokens: int | None = None
    ) -> tuple[str, int, TaskOutput]:
        """Route and run the task; returns (text, output_tokens, output).

        Deterministic given (profile, bound corpora, prompt) and free of
        shared mutable state, so concurrent lanes may execute tasks in
        any order without changing any item's output.
        """
        output: TaskOutput = self.engine.run(prompt)
        text = output.text
        output_tokens = self.tokenizer.count(text)
        if max_tokens is not None and output_tokens > max_tokens:
            pieces = self.tokenizer.pieces(text)[:max_tokens]
            text = " ".join(pieces)
            output_tokens = max_tokens
        return text, output_tokens, output

    def make_result(
        self,
        text: str,
        output: TaskOutput,
        *,
        prompt_tokens: int,
        cached_tokens: int,
        output_tokens: int,
        latency: LatencyBreakdown,
        decision: Any,
        extras: dict[str, Any],
    ) -> GenerationResult:
        """One call's result, its ``latency`` stretched by a fault spike.

        A ``decision`` with a ``spike_factor`` other than 1 scales every
        latency component and adds ``latency_spike`` to ``extras`` (after
        the caller's keys).  Charging a clock stays with the caller.
        """
        if decision is not None and decision.spike_factor != 1.0:
            factor = decision.spike_factor
            latency = LatencyBreakdown(
                overhead=latency.overhead * factor,
                prefill=latency.prefill * factor,
                cached_prefill=latency.cached_prefill * factor,
                decode=latency.decode * factor,
            )
            extras["latency_spike"] = factor
        return GenerationResult(
            text=text,
            task=output.task,
            prompt_tokens=prompt_tokens,
            cached_tokens=cached_tokens,
            output_tokens=output_tokens,
            latency=latency,
            confidence=output.confidence,
            extras=extras,
        )

    def record_result(self, result: GenerationResult) -> None:
        """Fold one result into the aggregate counters and notify listeners."""
        self.calls += 1
        self.total_latency += result.latency.total
        self.total_prompt_tokens += result.prompt_tokens
        self.total_cached_tokens += result.cached_tokens
        self.total_output_tokens += result.output_tokens
        for listener in list(self._listeners):
            try:
                listener(result)
            except Exception as error:  # noqa: BLE001 - observers must not break serving
                self.listener_errors.append(f"{type(error).__name__}: {error}")

    def inject_fault(
        self,
        decision: Any,
        prompt: str,
        tokens: list[int],
        *,
        max_tokens: int | None,
        clock: VirtualClock,
    ) -> None:
        """Charge the fault's modelled cost to ``clock`` and raise it.

        Shared by :meth:`generate` and the GEN scheduler so faulted
        calls cost the same simulated time on either path:

        - ``transient`` / ``rate_limit`` fail fast — only the per-call
          overhead is burned;
        - ``timeout`` burns ``timeout_charge_factor`` × the full modelled
          latency (the caller waited past the deadline);
        - ``malformed`` runs the task, truncates the text, charges the
          latency of the tokens actually produced, and carries the
          partial text on the error.
        """
        from repro.errors import (
            MalformedOutputError,
            RateLimitError,
            TransientModelError,
        )
        from repro.errors import TimeoutError as SpearTimeoutError

        spec = decision.spec
        kind = decision.kind
        if kind == "transient":
            clock.advance(self.profile.overhead_s)
            raise TransientModelError(
                "injected transient backend failure",
                injected=True,
                attempt=decision.attempt,
            )
        if kind == "rate_limit":
            clock.advance(self.profile.overhead_s)
            raise RateLimitError(
                "injected rate limit",
                retry_after=spec.retry_after_s,
                injected=True,
                attempt=decision.attempt,
            )
        if kind == "timeout":
            _text, output_tokens, _output = self.execute_task(
                prompt, max_tokens=max_tokens
            )
            full = estimate_latency(
                self.profile,
                prompt_tokens=len(tokens),
                cached_tokens=0,
                output_tokens=output_tokens,
            )
            elapsed = full.total * spec.timeout_charge_factor
            clock.advance(elapsed)
            raise SpearTimeoutError(
                "injected generation timeout",
                elapsed=elapsed,
                injected=True,
                attempt=decision.attempt,
            )
        if kind == "malformed":
            text, output_tokens, _output = self.execute_task(
                prompt, max_tokens=max_tokens
            )
            keep = max(1, int(output_tokens * spec.truncation_fraction))
            partial = " ".join(self.tokenizer.pieces(text)[:keep])
            latency = estimate_latency(
                self.profile,
                prompt_tokens=len(tokens),
                cached_tokens=0,
                output_tokens=keep,
            )
            clock.advance(latency.total)
            raise MalformedOutputError(
                f"injected truncation after {keep} tokens",
                partial_text=partial,
                injected=True,
                attempt=decision.attempt,
            )
        raise ModelError(f"unknown fault kind: {kind!r}")  # pragma: no cover

    def generate(
        self,
        prompt: str,
        *,
        max_tokens: int | None = None,
        use_cache: bool | None = None,
    ) -> GenerationResult:
        """Run one generation call.

        Args:
            prompt: the fully rendered prompt text.
            max_tokens: optional hard cap on output tokens (output is
                truncated, mirroring a real ``max_tokens`` parameter).
            use_cache: override the instance-level prefix-cache setting
                for this call.
        """
        tokens = self.prepare(prompt)

        # Fault decisions precede the kv-cache lookup so a faulted call
        # leaves no cache side effects — its retry sees the same cache
        # state the first attempt saw.
        decision = (
            self.fault_plan.decide(self.profile.name, prompt)
            if self.fault_plan is not None
            else None
        )
        if decision is not None and decision.kind is not None:
            self.inject_fault(
                decision, prompt, tokens, max_tokens=max_tokens, clock=self.clock
            )

        caching = self.enable_prefix_cache if use_cache is None else use_cache
        cached = self.kv_cache.lookup_and_insert(tokens) if caching else 0

        text, output_tokens, output = self.execute_task(prompt, max_tokens=max_tokens)

        result = self.make_result(
            text,
            output,
            prompt_tokens=len(tokens),
            cached_tokens=cached,
            output_tokens=output_tokens,
            latency=estimate_latency(
                self.profile,
                prompt_tokens=len(tokens),
                cached_tokens=cached,
                output_tokens=output_tokens,
            ),
            decision=decision,
            extras=dict(output.extras),
        )
        self.clock.advance(result.latency.total)
        self.record_result(result)
        return result

    # -- accounting -------------------------------------------------------------

    @property
    def overall_cache_hit_rate(self) -> float:
        """Token-level prefix-cache hit rate across every call so far."""
        if self.total_prompt_tokens == 0:
            return 0.0
        return self.total_cached_tokens / self.total_prompt_tokens

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time accounting for gauges and reports."""
        return {
            "profile": self.profile.name,
            "calls": self.calls,
            "total_latency": self.total_latency,
            "total_prompt_tokens": self.total_prompt_tokens,
            "total_cached_tokens": self.total_cached_tokens,
            "total_output_tokens": self.total_output_tokens,
            "overall_cache_hit_rate": self.overall_cache_hit_rate,
            "kv_cache": self.kv_cache.snapshot(),
            "faults": (
                self.fault_plan.snapshot()
                if self.fault_plan is not None
                and hasattr(self.fault_plan, "snapshot")
                else None
            ),
        }

    def reset_stats(self, *, clear_cache: bool = False) -> None:
        """Zero the aggregate counters (and optionally drop the caches)."""
        self.calls = 0
        self.total_latency = 0.0
        self.total_prompt_tokens = 0
        self.total_cached_tokens = 0
        self.total_output_tokens = 0
        if clear_cache:
            self.kv_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedLLM({self.profile.name!r}, calls={self.calls}, "
            f"hit_rate={self.overall_cache_hit_rate:.1%})"
        )
