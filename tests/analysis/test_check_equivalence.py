"""The cold check's output, pinned by ``check_equivalence.py``'s digests.

The digests cover every token, every diagnostic and every dataflow node
that ``spear check`` produces over 40 seeded programs.  They were
recorded with the line-counting lexer, the per-key-set SPEAR153 walk and
the all-keys branch join, and the offset scanner, the one-pass taint and
the written-keys join reproduce them exactly.  A change that alters
tokens, diagnostics or nodes on purpose updates them here, so its diff
shows the new digests.  They do not depend on ``PYTHONHASHSEED`` or on
the Python version.
"""

import pytest

from tests.analysis.check_equivalence import digest_seed

EXPECTED = {
    7: {
        "diagnostics": 24,
        "nodes": 3739,
        "tokens_sha256": "c04989f270479ed23f31e25d3fbf301d6eededd0b29261a5b27d71934b49d402",
        "diagnostics_sha256": "142c55008076d77e8fa2959f322a859f783011f39e8eb481e5a3e1a0502f6f91",
        "nodes_sha256": "c9aeaf35698f40cb14e00878c600fc7b34264734e815172ded08c89042ea4ba8",
    },
    11: {
        "diagnostics": 24,
        "nodes": 3697,
        "tokens_sha256": "a08b6964c7216e17b4aa3f6336fafe76295389b34ad7fcb0ad7c7eaeabac67b9",
        "diagnostics_sha256": "10e53f5eb3788e511980914725bb660bb6e7c140b48e3632f3e51929aeea7d9e",
        "nodes_sha256": "6d667ea4a12840142ad97335a8ef57f9941dd5cf5550e5f01cf56af4574139ff",
    },
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_cold_check_output_matches_recorded_digests(seed):
    assert digest_seed(seed, 40) == EXPECTED[seed]
