"""Long-lived multi-tenant serving on top of the SPEAR runtime.

The paper frames pipelines as *programs*; this package is the *service*
wrapped around them: a :class:`SpearServer` owns a pool of warm
per-tenant runtimes and executes registered pipelines for named tenants
via typed :class:`ServeRequest` / :class:`ServeResponse` messages.

Isolation is structural.  Each tenant's :class:`TenantSession` owns its
own virtual clock, simulated model, prompt store, result cache, and a
private radix KV cache partition
(:class:`~repro.llm.partitions.CachePartitions`) — so cross-tenant KV
sharing is impossible and one tenant's outputs are byte-identical to a
standalone run of the same pipeline.  Admission control is bounded
per-tenant queues with breaker-style load shedding
(:class:`~repro.resilience.ShedPolicy` →
:class:`~repro.errors.RateLimitError`); under overload the server sheds
instead of queueing unboundedly.  Request priority and deadlines order
the global admission queue; a session runs each request's GEN calls on
the direct model path, exactly as a standalone executor does.
"""

from repro.serve.server import ServeRequest, ServeResponse, SpearServer
from repro.serve.session import TenantConfig, TenantSession
from repro.serve.traffic import TrafficConfig, build_demo_server, run_traffic

__all__ = [
    "SpearServer",
    "ServeRequest",
    "ServeResponse",
    "TenantConfig",
    "TenantSession",
    "TrafficConfig",
    "build_demo_server",
    "run_traffic",
]
