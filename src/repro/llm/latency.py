"""Token-level latency model for simulated generation.

One GEN call costs::

    overhead + prefill · uncached_tokens + cached_prefill · cached_tokens
             + decode · output_tokens

seconds, with the per-token rates taken from the backend's
:class:`~repro.llm.profiles.ModelProfile`.  This is the standard first-order
model of transformer serving cost (prefill is compute-bound per prompt
token, decode is memory-bound per output token, KV-cached prefix tokens are
~10–20× cheaper), and it is all the paper's experiments depend on.

Continuous batching (:func:`estimate_continuous_step`): a vLLM-style
engine runs many requests per engine step, so B concurrent calls do not
cost the sum of B call latencies.  The continuous engine (the
:class:`~repro.runtime.scheduler.GenScheduler`) prices one admission
watermark as two decoupled resources:

- **prefill is a serial pipe** — it is compute-bound, so the engine's
  prefill unit processes admitted requests one after another, in policy
  order, each starting no earlier than its own arrival and no earlier
  than the pipe is free (``prefill_free_at`` carries across steps);
- **decode fully overlaps** — it is memory-bound and all resident
  sequences step together, so each request decodes for its *own*
  ``output_tokens`` after its prefill lands, independent of its peers.

Each request therefore completes at::

    max(arrival, prefill_free_at) + overhead/B + prefill_own + decode_own

so nobody waits for the slowest arrival or decodes for the longest
output in the step.  A step of one request with a free
pipe degenerates exactly to :func:`estimate_latency` — the byte-identity
oracle for scheduler runs.

Intra-step trunk dedup: when the scheduler groups requests that share a
structured-prompt trunk into one step, the trunk's KV is pushed through
the prefill pipe by the first member and is simply *resident* for the
rest — they pay nothing for it, not even the cached re-read rate.  The
``dedup_tokens`` argument of :func:`estimate_continuous_step` prices
exactly that: the shared trunk is charged once per step instead of once
per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.llm.profiles import ModelProfile

__all__ = [
    "LatencyBreakdown",
    "StepLatency",
    "estimate_latency",
    "estimate_continuous_step",
]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-phase latency of one generation call, in seconds."""

    overhead: float
    prefill: float
    cached_prefill: float
    decode: float

    @property
    def total(self) -> float:
        """End-to-end call latency."""
        return self.overhead + self.prefill + self.cached_prefill + self.decode


def _validate_tokens(
    prompt_tokens: int, cached_tokens: int, output_tokens: int
) -> None:
    """Shared token-count validation for every estimator.

    ``cached_tokens`` must not exceed ``prompt_tokens`` (a prefix cannot
    be longer than the prompt) and all counts must be non-negative.
    """
    if cached_tokens > prompt_tokens:
        raise ValueError(
            f"cached_tokens ({cached_tokens}) > prompt_tokens ({prompt_tokens})"
        )
    if min(prompt_tokens, cached_tokens, output_tokens) < 0:
        raise ValueError("token counts must be non-negative")


def estimate_latency(
    profile: ModelProfile,
    *,
    prompt_tokens: int,
    cached_tokens: int,
    output_tokens: int,
) -> LatencyBreakdown:
    """Latency of one call under ``profile``.

    ``cached_tokens`` must not exceed ``prompt_tokens``; the uncached
    remainder pays full prefill cost.
    """
    _validate_tokens(prompt_tokens, cached_tokens, output_tokens)
    uncached = prompt_tokens - cached_tokens
    return LatencyBreakdown(
        overhead=profile.overhead_s,
        prefill=profile.prefill_s_per_token * uncached,
        cached_prefill=profile.cached_prefill_s_per_token * cached_tokens,
        decode=profile.decode_s_per_token * output_tokens,
    )


@dataclass(frozen=True)
class StepLatency:
    """Latency of one continuous-batching engine step.

    Times are *absolute* virtual-clock instants, not durations: the step
    is priced against each request's own arrival and the engine's
    carried-over prefill availability.
    """

    #: attributed per-request breakdowns, in admission (policy) order.
    per_request: tuple[LatencyBreakdown, ...]
    #: absolute instant each request's prefill begins (post queue wait).
    starts: tuple[float, ...]
    #: absolute instant each request completes (prefill + own decode).
    completions: tuple[float, ...]
    #: instant the engine's serial prefill pipe becomes free again;
    #: feed this into the next step's ``prefill_free_at``.
    prefill_free_at: float
    #: engine-busy wall time of the step: last completion minus the
    #: first prefill start.
    wall: float
    #: per-request intra-step trunk tokens charged zero (shared-prefix
    #: dedup), index-aligned with ``per_request``.
    dedup_tokens: tuple[int, ...] = ()

    @property
    def size(self) -> int:
        """Number of requests admitted to the step."""
        return len(self.per_request)

    @property
    def total_dedup_tokens(self) -> int:
        """Trunk tokens the whole step prefilled once instead of B times."""
        return sum(self.dedup_tokens)


def estimate_continuous_step(
    profile: ModelProfile,
    requests: Sequence[tuple[int, int, int]],
    arrivals: Sequence[float],
    *,
    prefill_free_at: float = 0.0,
    dedup_tokens: Sequence[int] | None = None,
) -> StepLatency:
    """Latency of one continuous engine step under ``profile``.

    ``requests`` is a sequence of ``(prompt_tokens, cached_tokens,
    output_tokens)`` triples in admission order; ``arrivals`` gives each
    request's arrival instant on the virtual clock.  The per-call
    overhead is amortized across the step (``overhead / B`` each, paid
    serially in the prefill pipe, so a whole step still pays exactly one
    overhead); prefill occupies the serial pipe in admission order;
    decode overlaps fully, so request ``i`` completes ``decode ·
    output_i`` after its own prefill lands.  A single request with a free
    pipe degenerates exactly to :func:`estimate_latency`.

    ``dedup_tokens`` (optional, index-aligned) prices **intra-step trunk
    sharing**: request ``i``'s leading ``dedup_tokens[i]`` cached tokens
    are a trunk an *earlier member of this same step* already pushed
    through the prefill pipe, so its KV is resident in the step's working
    set and costs nothing at all — not even the cached-prefill re-read
    rate.  Each entry must not exceed that request's ``cached_tokens``;
    the remaining cached tokens still pay the cached rate, and uncached
    tokens full prefill.  Omitting it (or all zeros) reproduces the
    PR 7 pricing exactly.
    """
    if not requests:
        raise ValueError("a continuous step needs at least one request")
    if len(arrivals) != len(requests):
        raise ValueError(
            f"arrivals ({len(arrivals)}) must match requests ({len(requests)})"
        )
    if dedup_tokens is None:
        dedup_tokens = [0] * len(requests)
    elif len(dedup_tokens) != len(requests):
        raise ValueError(
            f"dedup_tokens ({len(dedup_tokens)}) must match "
            f"requests ({len(requests)})"
        )
    size = len(requests)
    overhead_share = profile.overhead_s / size
    pipe = float(prefill_free_at)
    per_request: list[LatencyBreakdown] = []
    starts: list[float] = []
    completions: list[float] = []
    for (prompt_tokens, cached_tokens, output_tokens), arrival, dedup in zip(
        requests, arrivals, dedup_tokens
    ):
        _validate_tokens(prompt_tokens, cached_tokens, output_tokens)
        if dedup < 0 or dedup > cached_tokens:
            raise ValueError(
                f"dedup_tokens ({dedup}) must be within "
                f"[0, cached_tokens ({cached_tokens})]"
            )
        uncached = prompt_tokens - cached_tokens
        breakdown = LatencyBreakdown(
            overhead=overhead_share,
            prefill=profile.prefill_s_per_token * uncached,
            cached_prefill=(
                profile.cached_prefill_s_per_token * (cached_tokens - dedup)
            ),
            decode=profile.decode_s_per_token * output_tokens,
        )
        start = max(float(arrival), pipe)
        pipe = (
            start + breakdown.overhead + breakdown.prefill + breakdown.cached_prefill
        )
        per_request.append(breakdown)
        starts.append(start)
        completions.append(pipe + breakdown.decode)
    return StepLatency(
        per_request=tuple(per_request),
        starts=tuple(starts),
        completions=tuple(completions),
        prefill_free_at=pipe,
        wall=max(completions) - min(starts),
        dedup_tokens=tuple(int(d) for d in dedup_tokens),
    )
