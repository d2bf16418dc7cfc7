"""Tests for the radix-tree prefix cache and its chain-cache parity.

Covers the chain oracle's contract (same semantics as the reference
``BlockPrefixCache`` in ``reference_block_cache.py`` on the no-eviction
path), the structural fix (leaf-first eviction cannot
strand orphaned descendants), pinning, and property-based parity:
call-for-call the radix cache serves at least the chain cache's tokens.
"""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.model import SimulatedLLM
from repro.llm.radix_cache import RadixPrefixCache
from tests.llm.reference_block_cache import BlockPrefixCache
from tests.runtime import table3_workload as table3
from tests.runtime.reference_dedup import shared_prefix_tokens

tokens_strategy = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), max_size=120
)
workload_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=255), max_size=40),
    max_size=12,
)


class TestSharedPrefixTokens:
    def test_identical_sequences(self):
        assert shared_prefix_tokens([1, 2, 3, 4], [1, 2, 3, 4], 4) == 4

    def test_divergence_at_start(self):
        assert shared_prefix_tokens([9, 2, 3, 4], [1, 2, 3, 4], 4) == 0

    def test_partial_block_not_counted(self):
        # 6 shared tokens but only one complete 4-token block.
        assert shared_prefix_tokens(list(range(6)), list(range(6)), 4) == 4

    def test_mid_block_divergence_rounds_down(self):
        a = [1, 2, 3, 4, 5, 6, 7, 8]
        b = [1, 2, 3, 4, 5, 99, 7, 8]
        assert shared_prefix_tokens(a, b, 4) == 4

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            shared_prefix_tokens([1], [1], 0)


class TestRadixContract:
    """The BlockPrefixCache behaviours, verbatim, on the radix tier."""

    def test_cold_lookup_misses(self):
        cache = RadixPrefixCache(block_size=4)
        assert cache.match_prefix(list(range(8))) == 0
        assert cache.stats.cached_tokens == 0

    def test_exact_repeat_hits_all_complete_blocks(self):
        cache = RadixPrefixCache(block_size=4)
        tokens = list(range(10))  # 2 complete blocks + 2 spare tokens
        cache.lookup_and_insert(tokens)
        assert cache.lookup_and_insert(tokens) == 8

    def test_shared_prefix_partial_hit(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert(list(range(12)))
        probe = list(range(8)) + [99, 98, 97, 96]
        assert cache.match_prefix(probe) == 8

    def test_no_mid_sequence_reuse(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert([1, 2, 3, 4, 5, 6, 7, 8])
        assert cache.match_prefix([5, 6, 7, 8]) == 0

    def test_branch_point_shares_trunk(self):
        cache = RadixPrefixCache(block_size=4)
        trunk = list(range(8))
        cache.insert(trunk + [10, 11, 12, 13])
        cache.insert(trunk + [20, 21, 22, 23])
        # 2 trunk blocks stored once + 2 divergent leaves.
        assert len(cache) == 4
        assert cache.match_prefix(trunk + [20, 21, 22, 23]) == 12

    def test_hit_rate_accounting(self):
        cache = RadixPrefixCache(block_size=4)
        tokens = list(range(8))
        cache.lookup_and_insert(tokens)
        cache.lookup_and_insert(tokens)
        assert cache.stats.prompt_tokens == 16
        assert cache.stats.cached_tokens == 8
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_short_sequences_never_cached(self):
        cache = RadixPrefixCache(block_size=16)
        cache.lookup_and_insert(list(range(10)))
        assert cache.lookup_and_insert(list(range(10))) == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RadixPrefixCache(block_size=0)
        with pytest.raises(ValueError):
            RadixPrefixCache(capacity_blocks=0)

    def test_clear_resets(self):
        cache = RadixPrefixCache(block_size=4)
        cache.lookup_and_insert(list(range(8)))
        cache.pin(list(range(8)))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0
        assert cache.snapshot()["pinned_blocks"] == 0

    def test_snapshot_superset_of_chain_keys(self):
        chain = BlockPrefixCache(block_size=4)
        radix = RadixPrefixCache(block_size=4)
        chain.lookup_and_insert(list(range(8)))
        radix.lookup_and_insert(list(range(8)))
        chain_snap, radix_snap = chain.snapshot(), radix.snapshot()
        assert set(chain_snap) <= set(radix_snap)
        for key in chain_snap:
            assert radix_snap[key] == chain_snap[key]
        assert radix_snap["leaves"] == 1
        assert radix_snap["nodes"] == 2


class TestEviction:
    def test_leaf_first_lru_eviction(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=2)
        cache.insert([1, 2, 3, 4])          # block A
        cache.insert([5, 6, 7, 8])          # block B
        cache.insert([9, 10, 11, 12])       # block C -> evicts A
        assert cache.stats.evictions == 1
        assert cache.match_prefix([1, 2, 3, 4]) == 0
        assert cache.match_prefix([9, 10, 11, 12]) == 4

    def test_recency_updated_on_hit(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=2)
        cache.insert([1, 2, 3, 4])
        cache.insert([5, 6, 7, 8])
        cache.match_prefix([1, 2, 3, 4])    # A is now most recent
        cache.insert([9, 10, 11, 12])       # evicts B
        assert cache.match_prefix([1, 2, 3, 4]) == 4
        assert cache.match_prefix([5, 6, 7, 8]) == 0

    def test_chain_strands_orphaned_descendants_radix_does_not(self):
        """Regression for the chain cache's orphaned-descendant waste.

        Two 3-block chains at capacity 4: the chain cache evicts the two
        globally-coldest hashes — chain A's *first two* blocks — which
        strands A's third block: resident (it still counts against
        capacity) but unreachable, because a prefix walk stops at the
        first missing block.  The radix tree evicts leaf-first, so every
        resident block stays reachable from the root by construction.
        """
        a = list(range(12))                  # blocks a1 a2 a3
        b = list(range(100, 112))            # blocks b1 b2 b3
        reachable = lambda c: (c.match_prefix(a) + c.match_prefix(b)) // 4

        chain = BlockPrefixCache(block_size=4, capacity_blocks=4)
        chain.insert(a)
        chain.insert(b)                      # evicts a1, a2; a3 stranded
        assert len(chain) == 4               # resident-block accounting...
        assert chain.match_prefix(a) == 0    # ...but A's trunk is gone
        assert reachable(chain) == 3         # one resident block is waste

        radix = RadixPrefixCache(block_size=4, capacity_blocks=4)
        radix.insert(a)
        radix.insert(b)                      # evicts leaves a3, then a2
        assert len(radix) == 4
        assert radix.match_prefix(a) == 4    # a1 survives and still hits
        assert reachable(radix) == 4         # every resident block usable

    def test_all_leaves_pinned_overflows_instead_of_breaking_pins(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=4)
        cache.insert(list(range(8)))         # a1 a2
        handle = cache.pin(list(range(8)))
        # Shrink capacity under the pinned trunk (white-box: the same
        # state the scheduler's pin window produces under extreme
        # pressure) and force an eviction pass.
        cache.capacity_blocks = 1
        cache.insert(list(range(50, 54)))    # new leaf is evictable...
        assert len(cache) == 2               # ...pinned trunk is not
        assert cache.match_prefix(list(range(8))) == 8
        cache.unpin(handle)                  # release -> evicts to fit
        assert len(cache) == 1


class TestPinning:
    def test_pin_protects_cold_trunk_under_pressure(self):
        cache = RadixPrefixCache(block_size=4, capacity_blocks=3)
        trunk = list(range(8))
        cache.insert(trunk)
        handle = cache.pin(trunk)
        for base in range(10):               # flood with one-block chains
            cache.insert([1000 + 4 * base + i for i in range(4)])
        assert cache.match_prefix(trunk) == 8
        cache.unpin(handle)
        cache.insert([2000, 2001, 2002, 2003])
        cache.insert([3000, 3001, 3002, 3003])
        assert cache.match_prefix(trunk) < 8  # evictable again

    def test_pin_counts_and_unpin_releases(self):
        cache = RadixPrefixCache(block_size=4)
        tokens = list(range(8))
        cache.insert(tokens)
        first = cache.pin(tokens)
        second = cache.pin(tokens)
        assert cache.snapshot()["pinned_blocks"] == 2
        cache.unpin(first)
        assert cache.snapshot()["pinned_blocks"] == 2  # refcounted
        cache.unpin(second)
        assert cache.snapshot()["pinned_blocks"] == 0

    def test_pin_nonresident_is_empty_and_unpin_noop(self):
        cache = RadixPrefixCache(block_size=4)
        handle = cache.pin(list(range(8)))
        assert handle == ()
        cache.unpin(handle)  # no-op, no raise

    def test_unpin_over_release_raises(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert(list(range(4)))
        handle = cache.pin(list(range(4)))
        cache.unpin(handle)
        with pytest.raises(ValueError):
            cache.unpin(handle)

    def test_double_release_keeps_the_other_holders_pins(self):
        cache = RadixPrefixCache(block_size=4)
        cache.insert(list(range(12)))
        trunk = cache.pin(list(range(8)))     # holder A: two trunk blocks
        whole = cache.pin(list(range(12)))    # holder B: trunk + its leaf
        cache.unpin(whole)
        with pytest.raises(ValueError):
            cache.unpin(whole)                # B again: its leaf is unpinned
        assert [node.pins for node in trunk] == [1, 1]
        assert cache.snapshot()["pinned_blocks"] == 2
        cache.unpin(trunk)
        assert cache.snapshot()["pinned_blocks"] == 0


# -- differential eviction: the heap against the scan it replaced --------------


class _Recording(RadixPrefixCache):
    """Records each victim as its root-to-node block path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.victims = []

    def _evict(self, victim):
        path, node = [], victim
        while node.block is not None:
            path.append(node.block)
            node = node.parent
        self.victims.append(tuple(reversed(path)))
        super()._evict(victim)


class _ScanReference(_Recording):
    """The O(leaves) eviction scan, kept as the reference order."""

    def _evict_to_capacity(self):
        while self._size > self.capacity_blocks:
            victim = None
            for leaf in self._leaves:
                if leaf.pins:
                    continue
                if victim is None or leaf.stamp < victim.stamp:
                    victim = leaf
            if victim is None:
                break
            self._evict(victim)


#: Long runs weighted to inserts and pins over a four-token alphabet, so
#: trunks are shared, pinned leaves go cold, and small capacities evict
#: constantly.  (op, tokens, which held handle to release)
OP_KINDS = ["insert", "insert", "lookup", "match", "pin", "pin", "unpin", "clear"]
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(OP_KINDS),
        st.lists(st.integers(min_value=0, max_value=3), max_size=10),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=40,
    max_size=80,
)


class TestHeapEviction:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=32), cache_ops)
    def test_same_victims_snapshots_and_stats_as_the_scan(self, capacity, ops):
        heap = _Recording(block_size=1, capacity_blocks=capacity)
        scan = _ScanReference(block_size=1, capacity_blocks=capacity)
        handles = {id(heap): [], id(scan): []}
        for op, tokens, index in ops:
            results = []
            for cache in (heap, scan):
                held = handles[id(cache)]
                if op == "insert":
                    results.append(cache.insert(tokens))
                elif op == "lookup":
                    results.append(cache.lookup_and_insert(tokens))
                elif op == "match":
                    results.append(cache.match_prefix(tokens))
                elif op == "pin":
                    held.append(cache.pin(tokens))
                elif op == "unpin" and held:
                    cache.unpin(held.pop(index % len(held)))
                elif op == "clear":
                    cache.clear()
                    held.clear()
            assert results[:1] == results[1:]
            assert heap.victims == scan.victims
            assert heap.snapshot() == scan.snapshot()
            assert heap.stats == scan.stats
            if heap._heap is not None:
                # One entry per queued node, every leaf among them.
                queued = [node for _, node in heap._heap]
                assert len(set(map(id, queued))) == len(queued) <= len(heap)
                assert all(node.queued for node in queued)
                assert all(leaf.queued for leaf in heap._leaves)

    def test_capacity_pressure_with_pinned_cold_leaves(self):
        heap = _Recording(block_size=1, capacity_blocks=4)
        scan = _ScanReference(block_size=1, capacity_blocks=4)
        for cache in (heap, scan):
            cache.insert([1, 2])
            held = cache.pin([1, 2])
            for base in range(10, 60, 2):
                cache.insert([base, base + 1])
            cache.unpin(held)
            cache.insert([99])
        assert heap.victims == scan.victims
        assert heap.snapshot() == scan.snapshot()
        assert heap.match_prefix([1, 2]) == scan.match_prefix([1, 2])


def _resident_paths(cache):
    """Every resident node as its root-to-node block path."""
    paths = set()

    def walk(node, path):
        for block, child in node.children.items():
            paths.add(path + (block,))
            walk(child, path + (block,))

    walk(cache._root, ())
    return paths


class TestOneWalkLookup:
    """``lookup_and_insert`` is one descent; it must equal the two calls."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=1, max_value=24),
        cache_ops,
    )
    def test_equals_match_then_insert(self, block_size, capacity, ops):
        one = _Recording(block_size=block_size, capacity_blocks=capacity)
        two = _Recording(block_size=block_size, capacity_blocks=capacity)
        handles = {id(one): [], id(two): []}
        for op, tokens, index in ops:
            if op == "lookup":
                served = one.lookup_and_insert(tokens)
                assert served == two.match_prefix(tokens)
                two.insert(tokens)
            for cache in (one, two):
                # Every other operation runs alike on both, so pins held
                # across lookups and later stamps see the same tree.
                held = handles[id(cache)]
                if op == "insert":
                    cache.insert(tokens)
                elif op == "match":
                    cache.match_prefix(tokens)
                elif op == "pin":
                    held.append(cache.pin(tokens))
                elif op == "unpin" and held:
                    cache.unpin(held.pop(index % len(held)))
            assert one.victims == two.victims
            assert one.snapshot() == two.snapshot()
            assert one.stats == two.stats
            assert _resident_paths(one) == _resident_paths(two)

    def test_lookups_under_pressure_evict_the_same_victims(self):
        one = _Recording(block_size=2, capacity_blocks=5)
        two = _Recording(block_size=2, capacity_blocks=5)
        prompts = [[1, 2, 3, 4, base, base + 1] for base in range(10, 40, 2)]
        prompts += [[1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 9, 9]] * 3
        for tokens in prompts:
            served = one.lookup_and_insert(tokens)
            assert served == two.match_prefix(tokens)
            two.insert(tokens)
        assert one.victims and one.victims == two.victims
        assert one.snapshot() == two.snapshot()


def _stamps(cache):
    """Every resident node's stamp and leaf flag, by root-to-node path."""
    found = {}

    def walk(node, path):
        for block, child in node.children.items():
            key = path + (block,)
            found[key] = (child.stamp, child in cache._leaves)
            walk(child, key)

    walk(cache._root, ())
    return found


#: Engine-shaped steps: a few prompts over a two-token alphabet, so step
#: members share trunks with each other and with earlier steps.
step_prompts = st.lists(st.integers(min_value=0, max_value=1), max_size=9)
engine_steps = st.lists(
    st.tuples(
        st.lists(step_prompts, max_size=3),  # inserted before the step
        st.lists(step_prompts, min_size=1, max_size=5),  # the step's members
    ),
    min_size=1,
    max_size=8,
)


class TestResumeBelowPin:
    """``lookup_and_insert(tokens, handle)`` resumes below a step pin.

    A pin taken before the step's inserts keeps its nodes resident and
    unchanged, so the resumed descent must leave exactly what the descent
    from the root leaves: statistics, stamps, leaves and victims.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=1, max_value=10),
        engine_steps,
    )
    def test_equals_the_descent_from_the_root(self, block_size, capacity, steps):
        resumed = _Recording(block_size=block_size, capacity_blocks=capacity)
        rooted = _ScanReference(block_size=block_size, capacity_blocks=capacity)
        for before, members in steps:
            for cache in (resumed, rooted):
                for tokens in before:
                    cache.insert(tokens)
            handles = [resumed.pin(tokens) for tokens in members]
            held = [rooted.pin(tokens) for tokens in members]
            for tokens, handle in zip(members, handles):
                assert resumed.lookup_and_insert(tokens, handle) == (
                    rooted.lookup_and_insert(tokens)
                )
            for cache, pins in ((resumed, handles), (rooted, held)):
                for handle in pins:
                    cache.unpin(handle)
            assert resumed.stats == rooted.stats
            assert resumed.victims == rooted.victims
            assert _stamps(resumed) == _stamps(rooted)
            assert resumed._tick == rooted._tick
            assert resumed.snapshot() == rooted.snapshot()

    def test_resumes_below_a_trunk_that_pressure_cannot_evict(self):
        resumed = _Recording(block_size=2, capacity_blocks=3)
        rooted = _ScanReference(block_size=2, capacity_blocks=3)
        members = [[1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 7, 8], [9, 9, 9, 9]]
        for cache in (resumed, rooted):
            cache.insert([1, 2, 3, 4])
        handles = [resumed.pin(tokens) for tokens in members]
        assert [len(handle) for handle in handles] == [2, 2, 0]
        held = [rooted.pin(tokens) for tokens in members]
        for tokens, handle in zip(members, handles):
            assert resumed.lookup_and_insert(tokens, handle) == (
                rooted.lookup_and_insert(tokens)
            )
        assert resumed.victims and resumed.victims == rooted.victims
        for handle in handles:
            resumed.unpin(handle)
        for handle in held:
            rooted.unpin(handle)
        assert _stamps(resumed) == _stamps(rooted)
        assert resumed.stats == rooted.stats


class TestRadixProperties:
    @settings(max_examples=60)
    @given(tokens_strategy)
    def test_match_never_exceeds_length_and_is_block_aligned(self, tokens):
        cache = RadixPrefixCache(block_size=8)
        cache.insert(tokens)
        matched = cache.match_prefix(tokens)
        assert 0 <= matched <= len(tokens)
        assert matched % 8 == 0

    @settings(max_examples=60)
    @given(tokens_strategy, tokens_strategy)
    def test_inserting_more_never_reduces_match(self, tokens, extra):
        cache = RadixPrefixCache(block_size=8)
        cache.insert(tokens)
        before = cache.match_prefix(tokens)
        cache.insert(tokens + extra)
        after = cache.match_prefix(tokens)
        assert after >= before

    @settings(max_examples=60)
    @given(tokens_strategy)
    def test_repeat_insert_idempotent(self, tokens):
        cache = RadixPrefixCache(block_size=8)
        first = cache.insert(tokens)
        second = cache.insert(tokens)
        assert second == 0 or first == 0

    @settings(max_examples=80)
    @given(workload_strategy)
    def test_radix_serves_at_least_chain_tokens_call_for_call(self, workload):
        """Same insert history, ample capacity: identical accounting.

        This is the drop-in guarantee behind swapping the model's default
        cache tier — Table 3's hit-rate column cannot move on the
        no-eviction path.
        """
        chain = BlockPrefixCache(block_size=4)
        radix = RadixPrefixCache(block_size=4)
        for tokens in workload:
            chain_served = chain.lookup_and_insert(tokens)
            radix_served = radix.lookup_and_insert(tokens)
            assert radix_served >= chain_served
            assert radix_served == chain_served  # no eviction => parity
        assert radix.stats == chain.stats

    @settings(max_examples=80)
    @given(workload_strategy)
    def test_stats_conservation_per_walk(self, workload):
        """Every walk books hits+misses consistently with its return."""
        cache = RadixPrefixCache(block_size=4, capacity_blocks=8)
        for tokens in workload:
            before_hits = cache.stats.block_hits
            before_misses = cache.stats.block_misses
            before_lookups = cache.stats.lookups
            served = cache.lookup_and_insert(tokens)
            complete = len(tokens) // 4
            hits = cache.stats.block_hits - before_hits
            misses = cache.stats.block_misses - before_misses
            assert cache.stats.lookups == before_lookups + 1
            assert served == hits * 4
            assert misses == (1 if hits < complete else 0)
        assert cache.stats.cached_tokens == cache.stats.block_hits * 4

    @settings(max_examples=40)
    @given(workload_strategy)
    def test_resident_blocks_always_reachable(self, workload):
        """The no-orphans invariant under arbitrary eviction pressure."""
        cache = RadixPrefixCache(block_size=4, capacity_blocks=6)
        inserted: list[list[int]] = []
        for tokens in workload:
            cache.insert(tokens)
            inserted.append(list(tokens))
        reachable = set()

        def walk(node, path):
            for block, child in node.children.items():
                reachable.add(id(child))
                walk(child, path + [block])

        walk(cache._root, [])
        assert len(reachable) == len(cache)


class TestTable3Workload:
    """Both tiers replaying the scaffolded Table-3 workload (48 items)."""

    @staticmethod
    def _sequential(kv_cache=None, **llm_kwargs):
        state, batch = table3.sequential(48, kv_cache=kv_cache, **llm_kwargs)
        return state.model.kv_cache.snapshot(), batch

    def test_radix_matches_chain_accounting_at_ample_capacity(self):
        radix, radix_batch = self._sequential(RadixPrefixCache())
        chain, chain_batch = self._sequential(BlockPrefixCache())
        _, cold_batch = table3.sequential(48, enable_prefix_cache=False)
        assert table3.outputs(radix_batch) == table3.outputs(chain_batch)
        assert table3.outputs(radix_batch) == table3.outputs(cold_batch)
        for key in ("hit_rate", "cached_tokens", "block_hits", "blocks"):
            assert radix[key] == chain[key], key
        assert radix["hit_rate"] >= 0.5

    @pytest.mark.parametrize("capacity, min_gain", [("eighth", 0.0), ("trunk", 0.25)])
    def test_leaf_first_eviction_beats_chain(self, capacity, min_gain):
        """At 1/8 of the blocks the run needs, the chain tier strands
        orphaned blocks; one block short of the scaffold trunk, its LRU
        cycles the trunk out and its hit rate collapses."""
        if capacity == "eighth":
            full, _ = self._sequential()
            blocks = max(1, full["blocks"] // 8)
        else:
            blocks = max(1, _trunk_blocks() - 1)
        radix, _ = self._sequential(RadixPrefixCache(capacity_blocks=blocks))
        chain, _ = self._sequential(BlockPrefixCache(capacity_blocks=blocks))
        assert radix["hit_rate"] - chain["hit_rate"] > min_gain


def _trunk_blocks() -> int:
    """Complete cache blocks of the Table-3 map prompt's shared trunk."""
    llm = SimulatedLLM(table3.PROFILE)
    base = table3.MAP_PROMPT.replace("{tweet}", "")
    a = llm.tokenizer.encode(base + "one tweet text here")
    b = llm.tokenizer.encode(base + "another different tweet")
    block = llm.kv_cache.block_size
    return shared_prefix_tokens(a, b, block) // block
