"""The cold check's output, pinned by ``check_equivalence.py``'s digests.

The digests cover every token, every diagnostic and every dataflow node
that ``spear check`` produces over 40 seeded programs, and over the 160
the ``check_cold`` benchmark workload checks per seed.  They were
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


#: the same digests over the benchmark's 160 programs per seed (what the
#: ``check_cold`` workload checks), recorded before lowering was kept with
#: the program, view templates with their definitions, and CHECK joins on
#: the write trail.
EXPECTED_BENCH_SIZE = {
    7: {
        "diagnostics": 102,
        "nodes": 14881,
        "tokens_sha256": "18a61347a020ded1af4c5eadf5e91d7bb852cea652829f9e31d9faa5ba597dd3",
        "diagnostics_sha256": "b329f0435b2d850d503347ac7343f2baa7a3ffd328a748f1a4ce87f264846df9",
        "nodes_sha256": "745fa08fa204e22582120922d04115df063d01437447c690af1ed616c6166ece",
    },
    11: {
        "diagnostics": 96,
        "nodes": 14819,
        "tokens_sha256": "a31cc13cbe1513cda96a7a7d488e809e24b6a8d2670db618d82e6bdc81e3c229",
        "diagnostics_sha256": "5b036b7ecd4f82b941c306c1c3e3981a13e5da6c3b5d14d7176c724c0a93d4a2",
        "nodes_sha256": "ce9cb41a56d6836c0cbc8b1eb4958fa6b7c1c47a3972e0f5550a82dd9b6a12e8",
    },
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_cold_check_output_matches_recorded_digests(seed):
    assert digest_seed(seed, 40) == EXPECTED[seed]


@pytest.mark.parametrize("seed", sorted(EXPECTED_BENCH_SIZE))
def test_bench_size_cold_check_output_matches_recorded_digests(seed):
    assert digest_seed(seed, 160) == EXPECTED_BENCH_SIZE[seed]
