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

:class:`RadixPrefixCache` keeps the block-aligned prefixes in a
path-compressed radix tree that answers as a tree of one node per block
would (``tests/llm/reference_radix.py`` keeps that one as the oracle):

- **run nodes** — a node is a run of whole blocks, keyed in its parent by
  its first block; matching it is one slice compare.  A walk that leaves
  a node part-way **splits** it first: the matched blocks become a new
  head in its place, with its pins and step mark.  So a touch covers
  whole nodes, and as it stamps its path's blocks consecutively, block
  ``k`` of a node has stamp ``stamp + k``;
- **leaf-first LRU eviction, per run** — only childless, unpinned blocks
  are candidates, coldest first, so every resident block stays reachable
  from the root.  Leaves wait in a lazy min-heap by their tail stamp; a
  popped, current, unpinned leaf's blocks are colder than every other
  leaf, so one slice trims what the excess asks;
- **pinning** — :meth:`pin` keeps a resident trunk out of eviction until
  :meth:`unpin`, so an earlier step member's insert cannot evict a later
  member's matched prefix.  A handle is the deepest pinned node;
- **step marks** — a lookup given a :class:`StepMarks` reads the blocks
  of its matched path's leading nodes that the step marked, then marks
  its path: the blocks it shares with earlier step members.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = ["CacheStats", "RadixPrefixCache", "StepMarks"]

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


class StepMarks:
    """One engine step's mark; after a lookup given it, ``shared`` is the
    tokens of the lookup's matched path that the step had marked before."""

    __slots__ = ("shared",)

    def __init__(self) -> None:
        self.shared = 0


class _RadixNode:
    """A run of ``blocks`` whole cached blocks, its ``tokens``.

    ``children`` are keyed by their first block; ``pins`` > 0 exempts from
    eviction; ``stamp`` is the first block's LRU use counter; ``queued``
    says it holds its one heap entry; ``mark`` is the last step's mark.
    """

    __slots__ = (
        "tokens", "blocks", "parent", "children", "pins", "stamp", "queued", "mark"
    )

    def __init__(
        self, tokens: list[int], blocks: int, parent: "_RadixNode | None"
    ) -> None:
        self.tokens = tokens
        self.blocks = blocks
        self.parent = parent
        self.children: dict[tuple[int, ...], _RadixNode] = {}
        self.pins = self.stamp = 0
        self.queued = False
        self.mark: StepMarks | None = None


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
        self.clear()

    @property
    def leaves(self) -> int:
        """Leaf blocks of the tree: the eviction frontier."""
        return len(self._leaves)

    # -- internals -----------------------------------------------------------

    def _walk(
        self, tokens: list[int], handle: _RadixNode | None = None
    ) -> tuple[list[_RadixNode], int]:
        """The resident prefix path of ``tokens`` and the tokens it covers;
        a node the walk leaves part-way is split there first.  The walk
        resumes below ``handle``, a pin of ``tokens`` still held."""
        size = self.block_size
        end = len(tokens) - len(tokens) % size
        path: list[_RadixNode] = []
        pos = 0
        node = handle
        while node is not None and node.parent is not None:
            path.append(node)
            pos += node.blocks * size
            node = node.parent
        path.reverse()
        children = (handle or self._root).children
        while pos < end:
            child = children.get(tuple(tokens[pos : pos + size]))
            if child is None:
                break
            run = child.tokens
            stop = pos + len(run)
            if tokens[pos:stop] != run:
                matched = size
                while tokens[pos + matched : pos + matched + size] == (
                    run[matched : matched + size]
                ):
                    matched += size
                path.append(self._split(child, matched // size))
                return path, pos + matched
            path.append(child)
            pos = stop
            children = child.children
        return path, pos

    def _split(self, node: _RadixNode, blocks: int) -> _RadixNode:
        """Cut ``node`` after its first ``blocks``; returns the new head.  The
        node keeps the rest: its children, heap entry and handles."""
        cut = blocks * self.block_size
        run = node.tokens
        parent = node.parent
        head = _RadixNode(run[:cut], blocks, parent)
        head.pins, head.stamp, head.mark = node.pins, node.stamp, node.mark
        parent.children[tuple(run[: self.block_size])] = head
        node.tokens = run = run[cut:]
        node.blocks -= blocks
        node.stamp += blocks
        node.parent = head
        head.children[tuple(run[: self.block_size])] = node
        return head

    def _touch(self, path: list[_RadixNode]) -> None:
        """Stamp the blocks of ``path`` consecutively, above every stamp."""
        tick = self._tick
        for node in path:
            node.stamp = tick + 1
            tick += node.blocks
        self._tick = tick

    def _queue(self, leaf: _RadixNode) -> None:
        """Give a leaf its heap entry, unless it still holds one."""
        if self._heap is not None and not leaf.queued:
            leaf.queued = True
            heapq.heappush(self._heap, (leaf.stamp + leaf.blocks - 1, leaf))

    def _evict_to_capacity(self) -> None:
        """Reclaim the coldest unpinned leaf blocks until within capacity.

        Bottom-up by construction, so the resident set is always a rooted
        subtree; when every leaf is pinned the cache overflows rather than
        break a pin.  Every leaf holds a heap entry keyed no later than its
        tail stamp, and stamps are unique, so the first popped entry that
        is current and unpinned names the coldest unpinned leaf block, the
        victim a scan of every leaf would pick; the blocks above it in its
        run are colder still, so they go next, in one trim.

        A parent left childless, unpinned and colder than the heap's
        first key is colder than every other leaf, so it is next: a cold
        chain is reclaimed upward without a heap round trip per run.
        """
        if self._size <= self.capacity_blocks:
            return
        if self._heap is None:
            self._heap = []
            for leaf in self._leaves:
                self._queue(leaf)
        heap = self._heap
        pinned = []
        root = self._root
        while self._size > self.capacity_blocks and heap:
            tail, node = heapq.heappop(heap)
            if node.children:
                node.queued = False  # re-queued if it becomes a leaf again
            elif tail != node.stamp + node.blocks - 1:
                heapq.heappush(heap, (node.stamp + node.blocks - 1, node))
            elif node.pins:
                pinned.append((tail, node))
            else:
                node.queued = False
                while True:
                    excess = self._size - self.capacity_blocks
                    if excess < node.blocks:
                        self._evict(node, excess)
                        self._queue(node)
                        break
                    parent = node.parent
                    self._evict(node, node.blocks)
                    if parent is root or parent.children:
                        break
                    if (
                        self._size <= self.capacity_blocks
                        or parent.pins
                        or (heap and heap[0][0] <= parent.stamp + parent.blocks - 1)
                    ):
                        self._queue(parent)
                        break
                    node = parent  # queued, it would hold a key <= its tail
        for entry in pinned:
            heapq.heappush(heap, entry)

    def _evict(self, node: _RadixNode, blocks: int) -> None:
        """Drop the last ``blocks`` of a childless node, all of it at most."""
        self._size -= blocks
        self.stats.evictions += blocks
        if blocks < node.blocks:
            node.blocks -= blocks
            del node.tokens[node.blocks * self.block_size :]
            return
        parent = node.parent
        del parent.children[tuple(node.tokens[: self.block_size])]
        self._leaves.discard(node)
        if parent is not self._root and not parent.children:
            self._leaves.add(parent)

    # -- lookups and inserts ------------------------------------------------

    def match_prefix(self, tokens: list[int]) -> int:
        """Number of leading tokens of ``tokens`` served from cache.

        Walks the tree from the root; stops at the first block with no
        resident node (a block is reusable only when its whole prefix
        matched).  Updates stats and LRU recency on the matched path.
        """
        path, cached = self._walk(tokens)
        self._touch(path)
        return self._count_lookup(tokens, cached // self.block_size)

    def _count_lookup(self, tokens: list[int], matched: int) -> int:
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
        self,
        tokens: list[int],
        handle: _RadixNode | None = None,
        step: StepMarks | None = None,
    ) -> tuple[int, int]:
        """Cache every complete block of ``tokens`` in one descent.

        Returns ``(matched, added)``: the blocks already resident on the
        path and those of the one new leaf run past the first miss.  The
        path is touched once; with ``step`` its marks are read, then set.
        """
        path, pos = self._walk(tokens, handle)
        size = self.block_size
        end = len(tokens) - len(tokens) % size
        if pos < end:
            parent = path[-1] if path else self._root
            self._leaves.discard(parent)
            leaf = _RadixNode(tokens[pos:end], (end - pos) // size, parent)
            parent.children[tuple(tokens[pos : pos + size])] = leaf
            self._size += leaf.blocks
            self._leaves.add(leaf)
            path.append(leaf)
        self._touch(path)
        if step is not None:
            step.shared = 0
            for node in path:
                if node.mark is not step:
                    break
                step.shared += node.blocks * size
            for node in path:
                node.mark = step
        if pos < end:
            self._queue(path[-1])
        self._evict_to_capacity()
        return pos // size, (end - pos) // size

    def insert(self, tokens: list[int]) -> int:
        """Cache every complete block of ``tokens``; returns blocks added."""
        return self._insert(tokens)[1]

    def lookup_and_insert(
        self,
        tokens: list[int],
        handle: _RadixNode | None = None,
        step: StepMarks | None = None,
    ) -> int:
        """The per-request path: match the prefix, then cache the prompt.

        One descent does both, with the statistics, LRU order and victims
        of :meth:`match_prefix` followed by :meth:`insert`.  It resumes
        below ``handle``, a :meth:`pin` of ``tokens`` still held (its nodes
        stay resident; a split only adds heads above it).  With ``step`` it
        also reads and sets the step's marks (see :class:`StepMarks`).
        """
        return self._count_lookup(tokens, self._insert(tokens, handle, step)[0])

    def mark(self, tokens: list[int], step: StepMarks | None) -> None:
        """Mark the resident prefix of ``tokens`` with ``step`` (None clears):
        no stamp, statistic or insert."""
        for node in self._walk(tokens)[0]:
            node.mark = step

    # -- pinning -------------------------------------------------------------

    def pin(self, tokens: list[int]) -> _RadixNode:
        """Pin the resident trunk of ``tokens`` against eviction.

        Takes a reference on every node of the resident prefix path and
        returns an opaque handle for :meth:`unpin`.  Pinned nodes (and so
        their ancestors, which cannot become leaves) stay resident however
        cold they go.  With nothing resident the handle pins nothing.
        """
        path = self._walk(tokens)[0]
        for node in path:
            if not node.pins:
                self.pinned_blocks += node.blocks
            node.pins += 1
        return path[-1] if path else self._root

    def unpin(self, handle: _RadixNode) -> None:
        """Release a :meth:`pin` reference; over-release raises.

        The whole path is checked first: a double release must not drop
        another holder's pin on a shared trunk before it fails.
        """
        path = []
        while handle.parent is not None:
            path.append(handle)
            handle = handle.parent
        if any(node.pins <= 0 for node in path):
            raise ValueError("unpin without a matching pin")
        for node in path:
            node.pins -= 1
            if not node.pins:
                self.pinned_blocks -= node.blocks
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
        self._root = _RadixNode([], 0, None)
        self._size = 0
        self._leaves: set[_RadixNode] = set()
        #: ``(tail stamp, node)``, at most one per node and one for every
        #: leaf, keyed no later than the node's tail stamp; None until
        #: capacity first runs out.
        self._heap: list[tuple[int, _RadixNode]] | None = None
        #: blocks pinned against eviction, counted once however often pinned.
        self.pinned_blocks = 0
        self._tick = 0
        self.stats = CacheStats()
