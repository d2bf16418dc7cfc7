"""Deterministic synthetic traffic for the serving pool.

Drives a :class:`~repro.serve.server.SpearServer` with closed bursts of
per-tenant requests over the Table-3 tweet workload.  Determinism is the
point: every burst is submitted *before* the dispatcher starts, so
admission control sees the full backlog at once — a burst of exactly the
queue limit sheds nothing, and a burst of ``overload × limit`` sheds
exactly ``(overload - 1) × limit`` requests per tenant, independent of
host thread timing.  Latency percentiles are computed over the tenants'
simulated clocks (deterministic); throughput and queue-wait use wall
time (reported, not gated).

Used by ``spear serve``, the CI serve-smoke job, the ``serve_mixed``
benchmark workload, and ``tests/serve/test_server.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data import make_tweet_corpus
from repro.errors import RateLimitError
from repro.experiments.common import (
    FILTER_NEG_INSTRUCTION,
    MAP_INSTRUCTION,
    SCAFFOLD,
)
from repro.resilience import ShedPolicy
from repro.serve.server import ServeRequest, SpearServer

__all__ = ["TrafficConfig", "build_demo_server", "run_traffic"]

PROFILE = "qwen2.5-7b-instruct"

MAP_PROMPT = SCAFFOLD + "\n" + MAP_INSTRUCTION + "\nTweet:\n{tweet}"
FILTER_PROMPT = SCAFFOLD + "\n" + FILTER_NEG_INSTRUCTION + "\nTweet:\n{tweet}"


@dataclass(frozen=True)
class TrafficConfig:
    """One synthetic serving experiment, fully seeded.

    ``requests_per_tenant`` defaults to the queue limit (the nominal,
    shed-free load); multiply via ``overload`` to study admission
    control — ``overload=4`` submits 4× the limit and must shed 3×.
    """

    tenants: int = 16
    queue_limit: int = 8
    #: burst size per tenant; None means exactly ``queue_limit``.
    requests_per_tenant: int | None = None
    #: multiplies the burst; the excess over ``queue_limit`` is shed.
    overload: int = 1
    #: tweets in the shared demo corpus (requests cycle through it).
    corpus_size: int = 32
    seed: int = 7
    profile: str = PROFILE
    #: every 4th tenant interactive with a deadline, the rest bulk.
    mixed_priority: bool = True

    @property
    def burst(self) -> int:
        base = (
            self.requests_per_tenant
            if self.requests_per_tenant is not None
            else self.queue_limit
        )
        return base * max(1, self.overload)

    def tenant_names(self) -> list[str]:
        width = len(str(max(1, self.tenants - 1)))
        return [f"tenant-{index:0{width}d}" for index in range(self.tenants)]


def build_demo_server(
    config: TrafficConfig | None = None, **server_kwargs: Any
) -> SpearServer:
    """A ready-to-drive server: tweet corpus, Map→Filter pipeline, tenants.

    The corpus is shared read-only ground truth (the binder grounds each
    tenant's *private* model on it); prompt stores, caches, and clocks
    stay per-tenant.
    """
    from repro.core import GEN, Pipeline

    config = config or TrafficConfig()
    corpus = make_tweet_corpus(config.corpus_size, seed=config.seed)
    server = SpearServer(
        profile=config.profile,
        binder=lambda llm: llm.bind_tweets(corpus),
        shed=ShedPolicy(queue_limit=config.queue_limit),
        **server_kwargs,
    )
    server.corpus = corpus  # type: ignore[attr-defined]
    server.register_pipeline(
        "summarize",
        Pipeline([GEN("summary", prompt="map_p")]),
        prompts={"map_p": MAP_PROMPT},
    )
    server.register_pipeline(
        "summarize_filter",
        Pipeline(
            [GEN("summary", prompt="map_p"), GEN("neg", prompt="filter_p")]
        ),
        prompts={"map_p": MAP_PROMPT, "filter_p": FILTER_PROMPT},
    )
    for index, name in enumerate(config.tenant_names()):
        interactive = config.mixed_priority and index % 4 == 0
        server.add_tenant(
            name,
            priority="interactive" if interactive else None,
            deadline_s=5.0 if interactive else None,
        )
    return server


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def run_traffic(
    server: SpearServer,
    config: TrafficConfig | None = None,
    *,
    pipeline: str = "summarize_filter",
) -> dict[str, Any]:
    """Submit every tenant's burst, drain it, shut the server down, report.

    The server must not be started yet: all bursts are enqueued against
    the stopped server first (making shed counts a pure function of the
    config), then the dispatcher starts and the backlog drains.
    Returns the metrics dict (per-tenant rows under ``"tenants"``).
    """
    import time

    config = config or TrafficConfig()
    corpus = getattr(server, "corpus", None) or make_tweet_corpus(
        config.corpus_size, seed=config.seed
    )
    tweets = list(corpus)
    futures = []
    shed = 0
    submitted = 0
    for t_index, tenant in enumerate(config.tenant_names()):
        for r_index in range(config.burst):
            tweet = tweets[(t_index + r_index) % len(tweets)]
            request = ServeRequest(
                tenant=tenant,
                pipeline=pipeline,
                context={"tweet": tweet.text},
            )
            submitted += 1
            try:
                futures.append(server.submit(request))
            except RateLimitError:
                shed += 1
    wall_start = time.monotonic()
    server.start()
    responses = [future.result() for future in futures]
    wall_elapsed = time.monotonic() - wall_start
    server.shutdown()

    ok = [r for r in responses if r.status == "ok"]
    errors = [r for r in responses if r.status == "error"]
    elapsed = [r.elapsed for r in ok]
    waits = [r.queue_wait for r in ok]
    sessions = {
        name: server.session(name).snapshot()
        for name in config.tenant_names()
    }
    return {
        "tenants": config.tenants,
        "queue_limit": config.queue_limit,
        "overload": config.overload,
        "submitted": submitted,
        "served": len(ok),
        "errors": len(errors),
        "shed": shed,
        "shed_rate": round(shed / submitted, 4) if submitted else 0.0,
        "latency_p50_s": round(_quantile(elapsed, 0.50), 4),
        "latency_p99_s": round(_quantile(elapsed, 0.99), 4),
        "queue_wait_p50_s": round(_quantile(waits, 0.50), 4),
        "queue_wait_p99_s": round(_quantile(waits, 0.99), 4),
        "wall_elapsed_s": round(wall_elapsed, 3),
        "throughput_rps": (
            round(len(ok) / wall_elapsed, 2) if wall_elapsed > 0 else 0.0
        ),
        "sessions": sessions,
    }
