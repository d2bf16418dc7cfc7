"""vLLM's hash-chained block prefix cache, kept as a test oracle.

vLLM automatic prefix caching (paper ref [16]) splits a prompt's token
sequence into fixed-size blocks; each block is identified by the hash of
*all* tokens up to and including it (a hash chain), so a block is
reusable only when the entire prefix before it matches.  The chain hashes
live in one flat LRU set.  :class:`BlockPrefixCache` reproduces that
algorithm exactly; the radix tests check that
:class:`~repro.llm.radix_cache.RadixPrefixCache` reports the same numbers
call for call when capacity never forces an eviction, and that it keeps
more reachable blocks when it does.  It lives under ``tests/`` only and
nothing in ``src/`` imports it.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict

from repro.llm.radix_cache import _DEFAULT_BLOCK, _DEFAULT_CAPACITY, CacheStats


def _chain_hash(prev: int, block: tuple[int, ...]) -> int:
    payload = prev.to_bytes(8, "little") + b"".join(
        token.to_bytes(8, "little", signed=False) for token in block
    )
    return zlib.crc32(payload)


class BlockPrefixCache:
    """Hash-chained block prefix cache with LRU eviction.

    Thread-safe: concurrent lookups/inserts from worker threads
    are serialized by one reentrant lock, so LRU order, stats, and the
    combined :meth:`lookup_and_insert` are atomic (no lost hits or
    double-counted evictions under contention) and :meth:`snapshot`
    returns a consistent point-in-time view.
    """

    def __init__(
        self,
        block_size: int = _DEFAULT_BLOCK,
        capacity_blocks: int = _DEFAULT_CAPACITY,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if capacity_blocks < 1:
            raise ValueError(
                f"capacity_blocks must be >= 1, got {capacity_blocks}"
            )
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        # OrderedDict used as an LRU set of chain-hashes.
        self._blocks: OrderedDict[int, None] = OrderedDict()
        self.stats = CacheStats()
        self._lock = threading.RLock()

    def _chain(self, tokens: list[int]) -> list[int]:
        """Chain-hashes for every *complete* block of ``tokens``."""
        hashes: list[int] = []
        prev = 0
        for start in range(0, len(tokens) - self.block_size + 1, self.block_size):
            block = tuple(tokens[start : start + self.block_size])
            prev = _chain_hash(prev, block)
            hashes.append(prev)
        return hashes

    def match_prefix(self, tokens: list[int]) -> int:
        """Number of leading tokens of ``tokens`` served from cache.

        Walks the hash chain; stops at the first uncached block (a block is
        only reusable when its whole prefix matched, which the chain hash
        guarantees).  Updates stats and LRU recency.
        """
        with self._lock:
            cached_blocks = 0
            for chain in self._chain(tokens):
                if chain in self._blocks:
                    self._blocks.move_to_end(chain)
                    cached_blocks += 1
                    self.stats.block_hits += 1
                else:
                    self.stats.block_misses += 1
                    break
            cached = cached_blocks * self.block_size
            self.stats.lookups += 1
            self.stats.prompt_tokens += len(tokens)
            self.stats.cached_tokens += cached
            return cached

    def insert(self, tokens: list[int]) -> int:
        """Cache every complete block of ``tokens``; returns blocks added."""
        with self._lock:
            added = 0
            for chain in self._chain(tokens):
                if chain not in self._blocks:
                    self._blocks[chain] = None
                    added += 1
                else:
                    self._blocks.move_to_end(chain)
            while len(self._blocks) > self.capacity_blocks:
                self._blocks.popitem(last=False)
                self.stats.evictions += 1
            return added

    def lookup_and_insert(self, tokens: list[int]) -> int:
        """The per-request path: match the prefix, then cache the prompt."""
        with self._lock:
            cached = self.match_prefix(tokens)
            self.insert(tokens)
            return cached

    def snapshot(self) -> dict[str, float]:
        """Point-in-time statistics for gauges and reports (atomic)."""
        with self._lock:
            return {
                "blocks": len(self._blocks),
                "capacity_blocks": self.capacity_blocks,
                "block_size": self.block_size,
                "lookups": self.stats.lookups,
                "prompt_tokens": self.stats.prompt_tokens,
                "cached_tokens": self.stats.cached_tokens,
                "block_hits": self.stats.block_hits,
                "block_misses": self.stats.block_misses,
                "evictions": self.stats.evictions,
                "hit_rate": self.stats.hit_rate,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def clear(self) -> None:
        """Drop all cached blocks and reset statistics."""
        with self._lock:
            self._blocks.clear()
            self.stats = CacheStats()
