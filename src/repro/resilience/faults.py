"""Deterministic fault injection for the simulated backend.

A :class:`FaultPlan` decides, per generation call, whether the call
fails and how.  The decision is a pure function of ``(seed, profile,
prompt digest, attempt index)`` — a stable hash drives a uniform draw
that is compared against the configured per-channel rates — so two runs
with the same seed inject *exactly* the same faults, regardless of
thread timing or lane assignment.  Retrying a prompt advances its
attempt index (tracked per ``(profile, prompt digest)``), so each retry
gets a fresh, still-deterministic draw.

Fault channels (mutually exclusive per call, drawn from one uniform
sample against cumulative rates):

- ``transient``  — generic retryable backend failure; charges only the
  call overhead before raising :class:`~repro.errors.TransientModelError`.
- ``rate_limit`` — load shedding; raises
  :class:`~repro.errors.RateLimitError` carrying ``retry_after``.
- ``timeout``    — the call burns an inflated latency before raising
  :class:`~repro.errors.TimeoutError`.
- ``malformed``  — the task runs but the generation is truncated;
  raises :class:`~repro.errors.MalformedOutputError` with the partial text.

A separate ``latency_spike`` channel (drawn independently, first
attempt only — modelling slow-start/cold-path behaviour) does not fail
the call: it multiplies the modelled latency by ``spike_factor``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["FaultSpec", "FaultDecision", "FaultPlan", "unit_draw"]

#: the failure channels a plan can inject, in cumulative-draw order.
FAULT_CHANNELS = ("transient", "rate_limit", "timeout", "malformed")


def unit_draw(*parts: object) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from a stable hash.

    Used for fault decisions and retry jitter alike: no RNG object, no
    shared mutable state — identical inputs give identical draws on any
    platform or thread.
    """
    digest = hashlib.sha256(
        ":".join(str(part) for part in parts).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultSpec:
    """Per-model fault rates and shape parameters.

    Rates are per-call probabilities; the four failure channels must sum
    to at most 1.  All default to 0, so ``FaultSpec()`` injects nothing.
    """

    transient_rate: float = 0.0
    rate_limit_rate: float = 0.0
    timeout_rate: float = 0.0
    malformed_rate: float = 0.0
    #: probability of a slow-start latency spike on a call's first attempt.
    spike_rate: float = 0.0
    #: latency multiplier applied when a spike fires.
    spike_factor: float = 3.0
    #: ``retry_after`` hint carried by injected rate-limit errors (seconds).
    retry_after_s: float = 1.0
    #: how much of the full modelled latency a timed-out call burns.
    timeout_charge_factor: float = 2.0
    #: fraction of the output tokens a malformed generation keeps.
    truncation_fraction: float = 0.35

    def __post_init__(self) -> None:
        for name in (
            "transient_rate", "rate_limit_rate", "timeout_rate",
            "malformed_rate", "spike_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {value}")
        if self.failure_rate > 1.0:
            raise ValueError(
                f"failure-channel rates sum to {self.failure_rate} > 1"
            )
        if not 0.0 < self.truncation_fraction <= 1.0:
            raise ValueError(
                f"truncation_fraction must be in (0, 1]: {self.truncation_fraction}"
            )

    @property
    def failure_rate(self) -> float:
        """Total per-call probability of any failure channel firing."""
        return (
            self.transient_rate
            + self.rate_limit_rate
            + self.timeout_rate
            + self.malformed_rate
        )


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one call."""

    #: failure channel, or None for a clean call.
    kind: str | None
    #: 0-based attempt index of this call for its (profile, prompt) pair.
    attempt: int
    #: latency multiplier (1.0 = no spike).
    spike_factor: float = 1.0
    #: the spec the decision was drawn from (shape parameters).
    spec: FaultSpec = field(default_factory=FaultSpec)


class FaultPlan:
    """Seeded, deterministic per-call fault decisions.

    Args:
        seed: drives every draw; same seed → same injected faults.
        default: the :class:`FaultSpec` applied to every model.
        per_model: optional profile-name → spec overrides.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        default: FaultSpec | None = None,
        per_model: dict[str, FaultSpec] | None = None,
    ) -> None:
        self.seed = seed
        self.default = default if default is not None else FaultSpec()
        self.per_model = dict(per_model or {})
        self._attempts: dict[tuple[str, str], int] = {}
        self._injected: dict[str, int] = {}
        self._decisions = 0

    def spec_for(self, model: str) -> FaultSpec:
        """The effective spec for one model profile."""
        return self.per_model.get(model, self.default)

    def decide(self, model: str, prompt: str) -> FaultDecision:
        """Decide the fate of the next call of ``prompt`` on ``model``.

        Increments the (model, prompt)-scoped attempt counter, so a
        retry of the same prompt draws independently from its previous
        attempt — while staying a pure function of (seed, model, prompt,
        attempt index).
        """
        spec = self.spec_for(model)
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:24]
        key = (model, digest)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        self._decisions += 1

        kind: str | None = None
        draw = unit_draw(self.seed, "fault", model, digest, attempt)
        cumulative = 0.0
        for channel in FAULT_CHANNELS:
            cumulative += getattr(spec, f"{channel}_rate")
            if draw < cumulative:
                kind = channel
                break

        spike = 1.0
        if (
            kind is None
            and attempt == 0
            and spec.spike_rate > 0.0
            and unit_draw(self.seed, "spike", model, digest) < spec.spike_rate
        ):
            spike = spec.spike_factor

        if kind is not None or spike != 1.0:
            label = kind if kind is not None else "latency_spike"
            self._injected[label] = self._injected.get(label, 0) + 1
        return FaultDecision(
            kind=kind, attempt=attempt, spike_factor=spike, spec=spec
        )

    def reset(self) -> None:
        """Forget attempt counters and injection tallies (fresh run)."""
        self._attempts.clear()
        self._injected.clear()
        self._decisions = 0

    def snapshot(self) -> dict[str, object]:
        """Point-in-time injection accounting for gauges and reports."""
        injected = dict(sorted(self._injected.items()))
        return {
            "seed": self.seed,
            "decisions": self._decisions,
            "injected": injected,
            "injected_total": sum(injected.values()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, "
            f"failure_rate={self.default.failure_rate:.3f})"
        )
