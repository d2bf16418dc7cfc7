"""Digest everything a cold ``spear check`` produces, for tree-to-tree diffs.

Over ``bench.gen.dl_programs`` at the given seeds, hashes every token,
every diagnostic's ``render()``, and every ``OpNode`` field (the operator
object itself by label only) plus each graph's dead writes and fusion
pairs.  Run it in two checkouts and compare the printed digests: a
change that claims "same tokens, same diagnostics, same dataflow" must
print the same lines.

    PYTHONPATH=src python tests/analysis/check_equivalence.py [--seeds 7 11] [--programs 160]

The script re-executes itself with ``PYTHONHASHSEED=0`` unless it is
already pinned, because some node fields follow ``frozenset`` iteration
order.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _digest_seed(seed: int, programs: int) -> tuple[str, int, int]:
    from bench import gen
    from repro import dl
    from repro.analysis import AnalysisEnv, build_dataflow, check_program

    digest = hashlib.sha256()
    diagnostics = nodes = 0
    for source, _ in gen.dl_programs(programs, seed):
        for token in dl.tokenize(source):
            fields = (token.type, token.value, token.line, token.column)
            digest.update(repr(fields).encode())
        result = check_program(source)
        for diagnostic in result:
            digest.update(diagnostic.render().encode())
            diagnostics += 1
        compiled = dl.compile_program(dl.parse(source))
        for name, pipeline in sorted(compiled.pipelines.items()):
            graph = build_dataflow(
                pipeline, AnalysisEnv(views=compiled.views), name=name
            )
            for node in graph:
                for field in dataclasses.fields(node):
                    if field.name != "operator":
                        value = getattr(node, field.name)
                        digest.update(f"{field.name}={value!r};".encode())
                nodes += 1
            digest.update(repr((graph.dead_writes, graph.fusion_pairs)).encode())
    return digest.hexdigest(), diagnostics, nodes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11])
    parser.add_argument("--programs", type=int, default=160)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    for seed in args.seeds:
        hexdigest, diagnostics, nodes = _digest_seed(seed, args.programs)
        print(
            f"seed {seed}: {args.programs} programs, {diagnostics} diagnostics, "
            f"{nodes} nodes, sha256 {hexdigest}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
