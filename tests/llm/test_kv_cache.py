"""Tests for the vLLM-style block prefix cache the radix tests use as oracle."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.llm.reference_block_cache import BlockPrefixCache

tokens_strategy = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), max_size=120
)


class TestBlockPrefixCache:
    def test_cold_lookup_misses(self):
        cache = BlockPrefixCache(block_size=4)
        assert cache.match_prefix(list(range(8))) == 0
        assert cache.stats.cached_tokens == 0

    def test_exact_repeat_hits_all_complete_blocks(self):
        cache = BlockPrefixCache(block_size=4)
        tokens = list(range(10))  # 2 complete blocks + 2 spare tokens
        cache.lookup_and_insert(tokens)
        assert cache.lookup_and_insert(tokens) == 8

    def test_shared_prefix_partial_hit(self):
        cache = BlockPrefixCache(block_size=4)
        cache.insert(list(range(12)))
        # Same first 8 tokens, diverging afterwards.
        probe = list(range(8)) + [99, 98, 97, 96]
        assert cache.match_prefix(probe) == 8

    def test_divergence_at_start_means_no_hit(self):
        cache = BlockPrefixCache(block_size=4)
        cache.insert(list(range(12)))
        probe = [99] + list(range(1, 12))
        assert cache.match_prefix(probe) == 0

    def test_chain_hash_prevents_mid_sequence_reuse(self):
        # A block is reusable only when its whole prefix matches (vLLM's
        # hash-chain property): the same 4 tokens at a different offset
        # must not hit.
        cache = BlockPrefixCache(block_size=4)
        cache.insert([1, 2, 3, 4, 5, 6, 7, 8])
        assert cache.match_prefix([5, 6, 7, 8]) == 0

    def test_lru_eviction(self):
        cache = BlockPrefixCache(block_size=4, capacity_blocks=2)
        cache.insert([1, 2, 3, 4])          # block A
        cache.insert([5, 6, 7, 8])          # block B
        cache.insert([9, 10, 11, 12])       # block C -> evicts A
        assert cache.stats.evictions == 1
        assert cache.match_prefix([1, 2, 3, 4]) == 0
        assert cache.match_prefix([9, 10, 11, 12]) == 4

    def test_recency_updated_on_hit(self):
        cache = BlockPrefixCache(block_size=4, capacity_blocks=2)
        cache.insert([1, 2, 3, 4])
        cache.insert([5, 6, 7, 8])
        cache.match_prefix([1, 2, 3, 4])    # A is now most recent
        cache.insert([9, 10, 11, 12])       # evicts B
        assert cache.match_prefix([1, 2, 3, 4]) == 4
        assert cache.match_prefix([5, 6, 7, 8]) == 0

    def test_hit_rate_accounting(self):
        cache = BlockPrefixCache(block_size=4)
        tokens = list(range(8))
        cache.lookup_and_insert(tokens)
        cache.lookup_and_insert(tokens)
        assert cache.stats.prompt_tokens == 16
        assert cache.stats.cached_tokens == 8
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_clear_resets(self):
        cache = BlockPrefixCache(block_size=4)
        cache.lookup_and_insert(list(range(8)))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BlockPrefixCache(block_size=0)
        with pytest.raises(ValueError):
            BlockPrefixCache(capacity_blocks=0)

    def test_short_sequences_never_cached(self):
        cache = BlockPrefixCache(block_size=16)
        cache.lookup_and_insert(list(range(10)))
        assert cache.lookup_and_insert(list(range(10))) == 0


class TestCacheProperties:
    @settings(max_examples=60)
    @given(tokens_strategy)
    def test_match_never_exceeds_length_and_is_block_aligned(self, tokens):
        cache = BlockPrefixCache(block_size=8)
        cache.insert(tokens)
        matched = cache.match_prefix(tokens)
        assert 0 <= matched <= len(tokens)
        assert matched % 8 == 0

    @settings(max_examples=60)
    @given(tokens_strategy, tokens_strategy)
    def test_inserting_more_never_reduces_match(self, tokens, extra):
        cache = BlockPrefixCache(block_size=8)
        cache.insert(tokens)
        before = cache.match_prefix(tokens)
        cache.insert(tokens + extra)
        after = cache.match_prefix(tokens)
        assert after >= before

    @settings(max_examples=60)
    @given(tokens_strategy)
    def test_repeat_insert_idempotent(self, tokens):
        cache = BlockPrefixCache(block_size=8)
        first = cache.insert(tokens)
        second = cache.insert(tokens)
        assert second == 0 or first == 0  # nothing new on exact repeat
