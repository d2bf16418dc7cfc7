"""Namespaced cache partitions for multi-tenant serving.

One serving process hosts many tenants, but KV state must never cross a
tenant boundary: a tenant's prompts are its data, and prefix-cache hits
leak timing (and, in a real system, content) across tenants.
:class:`CachePartitions` gives each namespace its own
:class:`~repro.llm.radix_cache.RadixPrefixCache`, created lazily and
sized uniformly — isolation by construction rather than by key
prefixing, so a lookup physically cannot hit another tenant's entries.
"""

from __future__ import annotations

from typing import Any

from repro.llm.radix_cache import RadixPrefixCache

__all__ = ["CachePartition", "CachePartitions"]


class CachePartition:
    """One namespace's private radix KV cache."""

    def __init__(
        self,
        namespace: str,
        *,
        block_size: int,
        capacity_blocks: int,
    ) -> None:
        self.namespace = namespace
        self.kv_cache = RadixPrefixCache(
            block_size=block_size, capacity_blocks=capacity_blocks
        )

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time accounting for this partition."""
        return {
            "namespace": self.namespace,
            "kv_cache": self.kv_cache.snapshot(),
        }


class CachePartitions:
    """Lazily-created, uniformly-sized cache partitions by namespace.

    The serving layer asks for ``partitions.get(tenant)`` when building a
    tenant's model; two distinct namespaces always receive distinct cache
    objects, so cross-tenant KV sharing is structurally impossible.
    """

    def __init__(
        self,
        *,
        block_size: int = 16,
        capacity_blocks: int = 4096,
    ) -> None:
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self._partitions: dict[str, CachePartition] = {}

    def get(self, namespace: str) -> CachePartition:
        """The namespace's partition, created on first use."""
        if not namespace:
            raise ValueError("namespace must be non-empty")
        partition = self._partitions.get(namespace)
        if partition is None:
            partition = CachePartition(
                namespace,
                block_size=self.block_size,
                capacity_blocks=self.capacity_blocks,
            )
            self._partitions[namespace] = partition
        return partition

    def namespaces(self) -> list[str]:
        """All namespaces with a live partition, in creation order."""
        return list(self._partitions)

    def snapshot(self) -> dict[str, Any]:
        """Per-namespace snapshots plus aggregate hit accounting."""
        per_namespace = {
            p.namespace: p.snapshot() for p in self._partitions.values()
        }
        total_cached = sum(
            s["kv_cache"].get("cached_tokens", 0.0)
            for s in per_namespace.values()
        )
        return {
            "partitions": per_namespace,
            "namespaces": len(per_namespace),
            "total_kv_cached_tokens": total_cached,
        }
