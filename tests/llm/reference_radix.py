"""The per-block radix tree, kept as the oracle of the run tree.

:class:`~repro.llm.radix_cache.RadixPrefixCache` keeps one node per run
of whole blocks.  :class:`BlockRadixCache` is the definition it
compresses: one node per ``block_size``-token block, one use stamp per
block, and eviction by a scan of every leaf for the coldest unpinned
one.  Tests drive the two with the same operations and compare cached
tokens, :class:`~repro.llm.radix_cache.CacheStats`, ``snapshot()``,
the resident blocks with their stamps and pins, and the victims in
order.  It lives under ``tests/`` only and nothing in ``src/`` imports
it.
"""

from __future__ import annotations

from typing import Sequence

from repro.llm.radix_cache import _DEFAULT_BLOCK, _DEFAULT_CAPACITY, CacheStats


class _BlockNode:
    """One cached token block; a root-to-node path is a cached prefix."""

    __slots__ = ("block", "parent", "children", "pins", "stamp")

    def __init__(self, block: tuple[int, ...] | None, parent: "_BlockNode | None"):
        self.block = block
        self.parent = parent
        self.children: dict[tuple[int, ...], _BlockNode] = {}
        self.pins = 0
        self.stamp = 0


class BlockRadixCache:
    """Per-block radix tree with pinning and a scan for the coldest leaf.

    ``victims`` lists every evicted block as its root-to-block path, in
    eviction order.  A handle from :meth:`pin` is the tuple of pinned
    nodes.
    """

    def __init__(
        self,
        block_size: int = _DEFAULT_BLOCK,
        capacity_blocks: int = _DEFAULT_CAPACITY,
    ) -> None:
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.victims: list[tuple[tuple[int, ...], ...]] = []
        self.clear()

    def _blocks(self, tokens: Sequence[int]):
        return zip(*[iter(tokens)] * self.block_size)

    def _walk(self, tokens: Sequence[int]) -> list[_BlockNode]:
        path, node = [], self._root
        for block in self._blocks(tokens):
            node = node.children.get(block)
            if node is None:
                break
            path.append(node)
        return path

    def _touch(self, node: _BlockNode) -> None:
        self._tick += 1
        node.stamp = self._tick

    def _evict_to_capacity(self) -> None:
        while self._size > self.capacity_blocks:
            victim = None
            for leaf in self._leaves:
                if not leaf.pins and (victim is None or leaf.stamp < victim.stamp):
                    victim = leaf
            if victim is None:
                return  # every leaf pinned: overflow rather than break a pin
            path, node = [], victim
            while node.block is not None:
                path.append(node.block)
                node = node.parent
            self.victims.append(tuple(reversed(path)))
            parent = victim.parent
            del parent.children[victim.block]
            self._leaves.discard(victim)
            self._size -= 1
            self.stats.evictions += 1
            if parent is not self._root and not parent.children:
                self._leaves.add(parent)

    def _count_lookup(self, tokens: Sequence[int], matched: int) -> int:
        self.stats.block_hits += matched
        if matched < len(tokens) // self.block_size:
            self.stats.block_misses += 1
        cached = matched * self.block_size
        self.stats.lookups += 1
        self.stats.prompt_tokens += len(tokens)
        self.stats.cached_tokens += cached
        return cached

    def match_prefix(self, tokens: Sequence[int]) -> int:
        path = self._walk(tokens)
        for node in path:
            self._touch(node)
        return self._count_lookup(tokens, len(path))

    def _insert(self, tokens: Sequence[int]) -> tuple[int, int]:
        node, matched, added = self._root, 0, 0
        for block in self._blocks(tokens):
            child = node.children.get(block)
            if child is None:  # past the first miss every block is new
                if node is not self._root:
                    self._leaves.discard(node)
                child = node.children[block] = _BlockNode(block, node)
                self._size += 1
                added += 1
            else:
                matched += 1
            self._touch(child)
            node = child
        if added:
            self._leaves.add(node)
        self._evict_to_capacity()
        return matched, added

    def insert(self, tokens: Sequence[int]) -> int:
        return self._insert(tokens)[1]

    def lookup_and_insert(self, tokens: Sequence[int]) -> int:
        return self._count_lookup(tokens, self._insert(tokens)[0])

    def pin(self, tokens: Sequence[int]) -> tuple[_BlockNode, ...]:
        path = self._walk(tokens)
        for node in path:
            if node.pins == 0:
                self.pinned_blocks += 1
            node.pins += 1
        return tuple(path)

    def unpin(self, handle: tuple[_BlockNode, ...]) -> None:
        if any(node.pins <= 0 for node in handle):
            raise ValueError("unpin without a matching pin")
        for node in handle:
            node.pins -= 1
            if node.pins == 0:
                self.pinned_blocks -= 1
        self._evict_to_capacity()

    def snapshot(self) -> dict[str, float]:
        return {
            "blocks": self._size,
            "capacity_blocks": self.capacity_blocks,
            "block_size": self.block_size,
            "lookups": self.stats.lookups,
            "prompt_tokens": self.stats.prompt_tokens,
            "cached_tokens": self.stats.cached_tokens,
            "block_hits": self.stats.block_hits,
            "block_misses": self.stats.block_misses,
            "evictions": self.stats.evictions,
            "hit_rate": self.stats.hit_rate,
            "nodes": self._size,
            "leaves": len(self._leaves),
            "pinned_blocks": self.pinned_blocks,
        }

    def blocks(self) -> dict[tuple[tuple[int, ...], ...], tuple[int, int]]:
        """Every resident block path -> ``(stamp, pins)``."""
        found = {}
        stack = [(self._root, ())]
        while stack:
            node, path = stack.pop()
            for block, child in node.children.items():
                key = path + (block,)
                found[key] = (child.stamp, child.pins)
                stack.append((child, key))
        return found

    def __len__(self) -> int:
        return self._size

    def clear(self) -> None:
        self._root = _BlockNode(None, None)
        self._size = 0
        self._leaves: set[_BlockNode] = set()
        self.pinned_blocks = 0
        self._tick = 0
        self.stats = CacheStats()
