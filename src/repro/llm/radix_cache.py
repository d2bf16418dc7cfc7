"""Radix-tree prefix cache, modelled on SGLang RadixAttention.

The simulated model's one KV tier.  It stands in for vLLM automatic
prefix caching (paper ref [16]): a prompt's token sequence is split into
fixed-size blocks, a block is reusable only when its entire prefix
matched, and the "Cache Hit (%)" column of the paper's Table 3 is
``cached_tokens / prompt_tokens`` over all GEN calls.  vLLM keeps the
blocks as a flat LRU set of chain hashes, which under eviction pressure
strands **orphaned descendants**: LRU may evict a mid-chain parent while
every deeper block stays resident but unreachable.  Given the same insert
history and no eviction pressure, this tier reports the chain scheme's
numbers call for call; it only pulls ahead when capacity forces eviction
decisions.

:class:`RadixPrefixCache` stores the block-aligned prefixes as a radix
tree over token blocks:

- **token-block nodes** — each node is one ``block_size``-token block;
  a root-to-node path is a cached prefix, and divergent suffixes share
  the common trunk up to their branch point (SGLang's RadixAttention
  structure, with the tree edges labelled by whole blocks);
- **leaf-first LRU eviction** — only childless, unpinned nodes are
  eviction candidates (coldest first, by a deterministic use stamp), so
  subtrees are reclaimed bottom-up and every resident block remains
  reachable from the root at all times: orphaned descendants cannot
  exist by construction.  Candidates wait in a lazy min-heap, so each
  eviction costs O(log n) rather than a scan of every leaf;
- **reference-counted pinning** — :meth:`pin` takes the resident trunk
  of a token sequence out of the eviction candidate set until the
  matching :meth:`unpin`; the continuous scheduler pins the trunks of
  admitted-but-unexecuted requests so an earlier step member's insert
  cannot evict a later member's matched prefix mid-step, and each
  member's :meth:`lookup_and_insert` resumes its descent below its pin.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

__all__ = ["CacheStats", "RadixPrefixCache"]

_DEFAULT_BLOCK = 16
_DEFAULT_CAPACITY = 65536  # blocks


@dataclass
class CacheStats:
    """Aggregate accounting across all lookups."""

    lookups: int = 0
    prompt_tokens: int = 0
    cached_tokens: int = 0
    block_hits: int = 0
    block_misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Token-level hit rate (the paper's Cache Hit %)."""
        if self.prompt_tokens == 0:
            return 0.0
        return self.cached_tokens / self.prompt_tokens


class _RadixNode:
    """One cached token block; a root-to-node path is a cached prefix."""

    __slots__ = ("block", "parent", "children", "pins", "stamp", "queued")

    def __init__(
        self, block: tuple[int, ...] | None, parent: "_RadixNode | None"
    ) -> None:
        self.block = block
        self.parent = parent
        self.children: dict[tuple[int, ...], _RadixNode] = {}
        #: reference count of active pins; > 0 exempts from eviction.
        self.pins = 0
        #: deterministic LRU stamp (monotonic use counter, not wall time).
        self.stamp = 0
        #: whether the node holds its one entry in the eviction heap.
        self.queued = False


class RadixPrefixCache:
    """Radix-tree prefix cache with pinning and leaf-first LRU eviction.

    ``match_prefix`` / ``insert`` / ``lookup_and_insert`` account each
    lookup in :class:`CacheStats`; :meth:`pin` / :meth:`unpin` protect
    scheduler trunks.
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
        self._root = _RadixNode(None, None)
        self._size = 0
        self._leaves: set[_RadixNode] = set()
        #: ``(stamp, node)``, at most one per node and one for every leaf, keyed
        #: no later than the node's stamp; None until capacity first runs out.
        self._heap: list[tuple[int, _RadixNode]] | None = None
        #: nodes pinned against eviction, counted once however often pinned.
        self.pinned_blocks = 0
        self._tick = 0
        self.stats = CacheStats()

    @property
    def leaves(self) -> int:
        """Leaf nodes of the tree: the eviction frontier."""
        return len(self._leaves)

    # -- internals -----------------------------------------------------------

    def _blocks(self, tokens: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Every *complete* block of ``tokens``, in order."""
        return zip(*[iter(tokens)] * self.block_size)

    def _touch(self, node: _RadixNode) -> None:
        self._tick += 1
        node.stamp = self._tick

    def _queue(self, leaf: _RadixNode) -> None:
        """Give a new leaf its heap entry, unless it still holds one."""
        if self._heap is not None and not leaf.queued:
            leaf.queued = True
            heapq.heappush(self._heap, (leaf.stamp, leaf))

    def _walk(self, tokens: Sequence[int]) -> list[_RadixNode]:
        """The resident prefix path of ``tokens`` (longest cached trunk)."""
        path: list[_RadixNode] = []
        node = self._root
        for block in self._blocks(tokens):
            child = node.children.get(block)
            if child is None:
                break
            path.append(child)
            node = child
        return path

    def _evict_to_capacity(self) -> None:
        """Reclaim coldest unpinned leaves until within capacity.

        Bottom-up by construction: a node is only a candidate once all
        of its descendants are gone, so the resident set is always a
        rooted subtree — no block is ever stranded unreachable.  When
        every leaf is pinned the cache temporarily overflows rather than
        break a pin.  Every leaf holds a heap entry keyed no later than
        its stamp, and stamps are unique, so the first popped entry that
        is current and unpinned belongs to the coldest unpinned leaf —
        the victim a scan of every leaf would pick.

        A victim's parent left childless is a new leaf.  When it is
        unpinned and colder than the heap's first key it is colder than
        every other leaf, so it is the next victim: a cold unique chain
        is reclaimed upward without a heap round trip per block.
        """
        if self._size <= self.capacity_blocks:
            return
        heap = self._heap
        if heap is None:
            heap = self._heap = [(leaf.stamp, leaf) for leaf in self._leaves]
            heapq.heapify(heap)
            for leaf in self._leaves:
                leaf.queued = True
        pinned = []
        root = self._root
        while self._size > self.capacity_blocks and heap:
            stamp, node = heapq.heappop(heap)
            if node.children:
                node.queued = False  # re-queued if it becomes a leaf again
            elif stamp != node.stamp:
                heapq.heappush(heap, (node.stamp, node))  # touched since
            elif node.pins:
                pinned.append((stamp, node))
            else:
                node.queued = False
                while True:
                    parent = node.parent
                    self._evict(node)
                    if parent is root or parent.children:
                        break
                    if (
                        self._size <= self.capacity_blocks
                        or parent.pins
                        or (heap and heap[0][0] <= parent.stamp)
                    ):
                        self._queue(parent)
                        break
                    node = parent  # queued, it would hold a key <= its stamp
        for entry in pinned:
            heapq.heappush(heap, entry)

    def _evict(self, victim: _RadixNode) -> None:
        """Drop one childless node; its parent may become a leaf."""
        parent = victim.parent
        assert parent is not None and victim.block is not None
        del parent.children[victim.block]
        self._leaves.discard(victim)
        self._size -= 1
        self.stats.evictions += 1
        if parent is not self._root and not parent.children:
            self._leaves.add(parent)

    # -- lookups and inserts ------------------------------------------------

    def match_prefix(self, tokens: Sequence[int]) -> int:
        """Number of leading tokens of ``tokens`` served from cache.

        Walks the tree from the root; stops at the first block with no
        resident node (a block is reusable only when its whole prefix
        matched).  Updates stats and
        LRU recency on the matched path.
        """
        path = self._walk(tokens)
        for node in path:
            self._touch(node)
        return self._count_lookup(tokens, len(path))

    def _count_lookup(self, tokens: Sequence[int], matched: int) -> int:
        """Record one lookup that matched ``matched`` blocks; returns tokens."""
        self.stats.block_hits += matched
        if matched < len(tokens) // self.block_size:
            self.stats.block_misses += 1
        cached = matched * self.block_size
        self.stats.lookups += 1
        self.stats.prompt_tokens += len(tokens)
        self.stats.cached_tokens += cached
        return cached

    def _insert(
        self, tokens: Sequence[int], handle: Sequence[_RadixNode] = ()
    ) -> tuple[int, int]:
        """Cache every complete block of ``tokens`` in one descent.

        The descent resumes below ``handle``, a :meth:`pin` of ``tokens``
        still held: pinned nodes stay resident and keep their blocks, so
        they are the first ``len(handle)`` nodes a walk from the root
        would meet, and they are touched in that order here.
        Returns ``(matched, added)``: the blocks already resident on the
        path (a prefix of it — past the first miss every node is new)
        and the blocks created.  Each path node is touched once, so
        stamps rise along the path above every earlier stamp.
        """
        tick = self._tick
        node = self._root
        for node in handle:
            tick += 1
            node.stamp = tick
        matched, added = len(handle), 0
        block_size = self.block_size
        rest = tokens[matched * block_size :] if matched else tokens
        blocks = zip(*[iter(rest)] * block_size)
        for block in blocks:
            child = node.children.get(block)
            if child is None:
                # Past the first miss every block is new: one chain, whose
                # last node is the path's only new leaf.
                if node is not self._root:
                    self._leaves.discard(node)
                for block in chain((block,), blocks):
                    child = node.children[block] = _RadixNode(block, node)
                    tick += 1
                    child.stamp = tick
                    node = child
                    added += 1
                self._size += added
                self._leaves.add(node)
                break
            matched += 1
            tick += 1
            child.stamp = tick
            node = child
        self._tick = tick
        if added:
            self._queue(node)
        self._evict_to_capacity()
        return matched, added

    def insert(self, tokens: Sequence[int]) -> int:
        """Cache every complete block of ``tokens``; returns blocks added."""
        return self._insert(tokens)[1]

    def lookup_and_insert(
        self, tokens: Sequence[int], handle: Sequence[_RadixNode] = ()
    ) -> int:
        """The per-request path: match the prefix, then cache the prompt.

        One descent does both, with the statistics of :meth:`match_prefix`
        followed by :meth:`insert` and the same LRU order (stamps only
        ever compare with each other, and the relative order of every
        stamp is the one the two walks would leave).  ``handle`` is a
        :meth:`pin` of ``tokens`` that is still held; the descent starts
        below it, with every stamp, statistic and eviction of the walk
        from the root.
        """
        return self._count_lookup(tokens, self._insert(tokens, handle)[0])

    # -- pinning -------------------------------------------------------------

    def pin(self, tokens: Sequence[int]) -> tuple[_RadixNode, ...]:
        """Pin the resident trunk of ``tokens`` against eviction.

        Walks the currently cached prefix path and takes a reference on
        every node along it; returns an opaque handle for :meth:`unpin`.
        Pinned nodes (and, transitively, their ancestors — which cannot
        become leaves while a pinned descendant exists) stay resident no
        matter how cold they go.  Pinning a sequence with no resident
        prefix returns an empty handle; unpinning it is a no-op.
        """
        path = self._walk(tokens)
        for node in path:
            if node.pins == 0:
                self.pinned_blocks += 1
            node.pins += 1
        return tuple(path)

    def unpin(self, handle: tuple[_RadixNode, ...]) -> None:
        """Release a :meth:`pin` reference; over-release raises.

        The whole handle is checked first: a double release must not
        drop another holder's pin on a shared trunk before it fails.
        """
        if any(node.pins <= 0 for node in handle):
            raise ValueError("unpin without a matching pin")
        for node in handle:
            node.pins -= 1
            if node.pins == 0:
                self.pinned_blocks -= 1
        self._evict_to_capacity()

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Point-in-time statistics for gauges and reports."""
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
            "leaves": self.leaves,
            "pinned_blocks": self.pinned_blocks,
        }

    def __len__(self) -> int:
        return self._size

    def clear(self) -> None:
        """Drop all cached blocks (pins included) and reset statistics."""
        self._root = _RadixNode(None, None)
        self._size = 0
        self._leaves = set()
        self._heap = None
        self.pinned_blocks = 0
        self._tick = 0
        self.stats = CacheStats()
