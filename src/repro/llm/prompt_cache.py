"""Structured prompt cache (paper §5, "Prefix Caching and Reuse").

Beyond token-level KV reuse, SPEAR keeps a *structured* cache of prompt
fragments and their rendered forms, indexed by view name, parameter hash,
and refinement version (after Gim et al.'s Prompt Cache).  Retries,
batched tasks with shared scaffolds, and parameterized view calls hit this
cache instead of re-rendering templates.
"""

from __future__ import annotations

import json
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["StructuredPromptCache", "PromptCacheKey", "param_hash"]


def param_hash(params: Mapping[str, Any]) -> int:
    """Stable hash of a view's parameter binding.

    Parameters are JSON-serialized with sorted keys; unserializable values
    fall back to ``repr`` so arbitrary objects can still participate.
    """
    try:
        payload = json.dumps(params, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        payload = repr(sorted(params.items(), key=lambda item: item[0]))
    return zlib.crc32(payload.encode("utf-8"))


@dataclass(frozen=True)
class PromptCacheKey:
    """Index triple: (view name, parameter hash, refinement version)."""

    view: str
    params: int
    version: int


class StructuredPromptCache:
    """LRU cache of rendered prompt texts keyed by view/params/version.

    Thread-safe: lookups, inserts, and invalidation from concurrent
    worker threads are serialized by one reentrant lock, so hit/miss
    accounting never races.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[PromptCacheKey, str] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._lock = threading.RLock()

    def key(
        self,
        view: str,
        params: Mapping[str, Any],
        version: int = 0,
    ) -> PromptCacheKey:
        """Build the cache key for a view instantiation."""
        return PromptCacheKey(view=view, params=param_hash(params), version=version)

    def get(self, key: PromptCacheKey) -> str | None:
        """Return the cached rendering for ``key`` or None."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return None

    def put(self, key: PromptCacheKey, rendered: str) -> None:
        """Cache ``rendered`` under ``key``, evicting LRU entries."""
        with self._lock:
            self._entries[key] = rendered
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate_view(self, view: str) -> int:
        """Drop all entries of one view (e.g. after its definition changed)."""
        with self._lock:
            stale = [key for key in self._entries if key.view == view]
            for key in stale:
                del self._entries[key]
            return len(stale)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
