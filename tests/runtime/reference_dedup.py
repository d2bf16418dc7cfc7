"""The pairwise trunk-overlap measure, kept as the step-dedup oracle.

The scheduler reads "largest block-aligned shared prefix with any
earlier step member" from the radix tree's step marks.
:func:`shared_prefix_tokens` is the definition: one pair of token
sequences, compared block by block.  Tests compare the two on generated
steps.
"""

from typing import Sequence


def shared_prefix_tokens(a: Sequence[int], b: Sequence[int], block_size: int) -> int:
    """Block-aligned shared-prefix length of two token sequences, in tokens.

    The number of leading tokens the two sequences share, rounded down
    to whole cache blocks (only complete blocks are ever cached, so only
    complete blocks can be deduplicated).
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    limit = min(len(a), len(b))
    blocks = 0
    for start in range(0, limit - block_size + 1, block_size):
        end = start + block_size
        if tuple(a[start:end]) != tuple(b[start:end]):
            break
        blocks += 1
    return blocks * block_size
