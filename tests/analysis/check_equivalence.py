"""Digest everything a cold ``spear check`` produces, for tree-to-tree diffs.

Over ``bench.gen.dl_programs`` at the given seeds, prints three sha256
digests per seed: one over every token, one over every diagnostic's
``render()``, and one over every ``OpNode`` field (the operator object
itself by label only) plus each graph's dead writes and fusion pairs.
Run it in two checkouts and compare the printed lines: a change that
claims "same tokens, same diagnostics, same dataflow" must print the
same lines.

    PYTHONPATH=src python tests/analysis/check_equivalence.py [--seeds 7 11] [--programs 160]

Tuple- and set-valued node fields are hashed as the sorted reprs of
their items, so the digests do not depend on ``PYTHONHASHSEED`` (some
fields follow ``frozenset`` iteration order).  Token kinds are hashed
by value, so the digests are the same on every supported Python.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _field_repr(value: object) -> str:
    if isinstance(value, (tuple, list, set, frozenset)):
        return repr(sorted(repr(item) for item in value))
    return repr(value)


def digest_seed(seed: int, programs: int) -> dict[str, object]:
    """Counts and digests of the cold check over one seed's programs."""
    from bench import gen
    from repro import dl
    from repro.analysis import AnalysisEnv, build_dataflow, check_program

    tokens = hashlib.sha256()
    diagnostics = hashlib.sha256()
    nodes = hashlib.sha256()
    counts = {"diagnostics": 0, "nodes": 0}
    for source, _ in gen.dl_programs(programs, seed):
        for token in dl.tokenize(source):
            fields = (token.type.value, token.value, token.line, token.column)
            tokens.update(repr(fields).encode())
        for diagnostic in check_program(source):
            diagnostics.update(diagnostic.render().encode())
            counts["diagnostics"] += 1
        compiled = dl.compile_program(dl.parse(source))
        for name, pipeline in sorted(compiled.pipelines.items()):
            graph = build_dataflow(
                pipeline, AnalysisEnv(views=compiled.views), name=name
            )
            for node in graph:
                for field in dataclasses.fields(node):
                    if field.name != "operator":
                        value = _field_repr(getattr(node, field.name))
                        nodes.update(f"{field.name}={value};".encode())
                counts["nodes"] += 1
            nodes.update(repr((graph.dead_writes, graph.fusion_pairs)).encode())
    return {
        **counts,
        "tokens_sha256": tokens.hexdigest(),
        "diagnostics_sha256": diagnostics.hexdigest(),
        "nodes_sha256": nodes.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--programs", type=int, default=160)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    for seed in args.seeds:
        result = digest_seed(seed, args.programs)
        print(
            f"seed {seed}: {args.programs} programs, "
            f"{result['diagnostics']} diagnostics, {result['nodes']} nodes, "
            f"tokens {result['tokens_sha256']}, "
            f"diagnostics {result['diagnostics_sha256']}, "
            f"nodes {result['nodes_sha256']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
