"""Virtual clocks used to account simulated latency.

The paper reports wall-clock seconds measured on an RTX 3090 + vLLM stack.
We have no GPU, so GEN calls charge their modelled latency (prefill /
decode token costs, see :mod:`repro.llm.latency`) to a virtual clock
instead of sleeping.  Experiments read elapsed virtual seconds; the
benchmark (``python -m bench``) additionally times the harness itself.

Concurrency-aware time: a sequential run owns one :class:`VirtualClock`,
so elapsed time is the *sum* of charges.  A parallel run instead gives
each lane its own clock; lanes charge independently and the batch ends
at the *max* over lanes — simulated elapsed reflects overlap, not
serialization.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotonic simulated clock, advanced explicitly by cost charges."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative).

        Returns the new time.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance the clock to ``deadline`` if it is in the future.

        A no-op when the clock is already at or past ``deadline`` (lanes
        joining a micro-batch synchronize on the batch completion time,
        and the latest lane defines it).  Returns the new time.
        """
        if deadline > self._now:
            self._now = float(deadline)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Rewind the clock (used between experiment trials)."""
        self._now = float(start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now={self._now:.6f})"
