"""Differential test: BlockPrefixCache vs a naive reference model.

The reference stores every block-aligned prefix it has seen as a tuple in
a set; the longest cached prefix of a probe is then computed by direct
comparison.  Under arbitrary interleavings of insert/match (without
eviction), the production cache must agree exactly with the reference —
this is the strongest correctness statement about the hash-chain scheme.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.llm.reference_block_cache import BlockPrefixCache

BLOCK = 4


class ReferencePrefixCache:
    """Obviously-correct (and slow) prefix cache."""

    def __init__(self, block_size: int) -> None:
        self.block_size = block_size
        self._prefixes: set[tuple[int, ...]] = set()

    def insert(self, tokens: list[int]) -> None:
        for end in range(
            self.block_size, len(tokens) + 1, self.block_size
        ):
            self._prefixes.add(tuple(tokens[:end]))

    def match_prefix(self, tokens: list[int]) -> int:
        matched = 0
        for end in range(
            self.block_size, len(tokens) + 1, self.block_size
        ):
            if tuple(tokens[:end]) in self._prefixes:
                matched = end
            else:
                break
        return matched


# Small token alphabet maximizes shared prefixes between sequences.
_sequences = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=40
)
_operations = st.lists(
    st.tuples(st.sampled_from(["insert", "match"]), _sequences),
    min_size=1,
    max_size=25,
)


class TestAgainstReference:
    @settings(max_examples=120)
    @given(_operations)
    def test_interleaved_operations_agree(self, operations):
        production = BlockPrefixCache(block_size=BLOCK, capacity_blocks=10**6)
        reference = ReferencePrefixCache(block_size=BLOCK)
        for op, tokens in operations:
            if op == "insert":
                production.insert(tokens)
                reference.insert(tokens)
            else:
                assert production.match_prefix(tokens) == reference.match_prefix(
                    tokens
                )

    @settings(max_examples=80)
    @given(_sequences, _sequences)
    def test_cross_contamination_impossible(self, tokens_a, tokens_b):
        # Matching B after inserting only A must agree with the reference —
        # in particular, hash-chaining must not credit B for A's blocks
        # unless B genuinely shares A's block-aligned prefix.
        production = BlockPrefixCache(block_size=BLOCK, capacity_blocks=10**6)
        reference = ReferencePrefixCache(block_size=BLOCK)
        production.insert(tokens_a)
        reference.insert(tokens_a)
        assert production.match_prefix(tokens_b) == reference.match_prefix(tokens_b)
