"""Path-sensitive abstract interpretation over pipeline dataflow.

Threading one mutable abstract state through every CHECK/SWITCH arm
would leak a then-branch's writes into the else-branch, and let
operators inside a statically-dead arm contribute reads, writes, and
findings — the classic source of SPEAR111/112/121 false positives on
branchy pipelines.  :class:`PathSensitiveWalker`, the walker
:func:`~repro.analysis.dataflow.build_dataflow` runs, treats branch arms
as *paths*:

- each live arm is walked on a **fork** of the pre-branch state (no
  cross-arm leakage), with the branch condition **refined** into the
  fork (``"slot" in C`` is definitely true inside its then-arm);
- arms the constant evaluator proves dead are walked in a *dead mode*
  that still materializes their :class:`~repro.analysis.dataflow.OpNode`
  records (marked ``unreachable``, so the dead-branch SPEAR148 finding
  keeps its anchor) but rolls back every state effect and suppresses
  per-node findings;
- the post-states of all feasible paths are **joined**: a slot is
  definite after the branch only when it is definite along every path,
  prompt-text sets union under the walker's fan limit, and a pending
  (dead-write candidate) survives only when *no* path read it.

Live arms are still walked as *conditional* even when the constant
evaluator decides the branch — the "run once" idiom (``"x" not in C``
guarding its own retrieval) is statically true on the first run but
morally conditional, so arm writes never clobber pre-branch pendings.

The per-operator transfer functions (GEN template fingerprinting, REF
text algebra, view preview) live on the :class:`_Walker` base; this
module adds only the branch control flow.

Forks are cheap because prompt states are immutable: a snapshot is a
shallow copy of the store's dicts that shares every
:class:`~repro.analysis.dataflow._PromptState` with the live walk.  The
join starts from the fork's prompt store and rebuilds only the keys the
walker's write log names since the fork, reusing a key's state when
every path still holds the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.dataflow import (
    _CONTEXT_ATOM,
    _TEXT_FAN_LIMIT,
    _PromptState,
    _Walker,
)
from repro.core.derived import SWITCH
from repro.core.operators import CHECK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow import OpNode

__all__ = ["AbstractState", "PathSensitiveWalker"]


@dataclass
class AbstractState:
    """One path's snapshot of the walker's abstract store.

    ``dead_write_mark``/``fusion_mark`` record accumulator lengths so a
    dead arm's rollback can also discard any dead-write or fusion-pair
    evidence it produced (live paths keep theirs).  ``prompt_mark`` is
    the length of the walker's prompt-write log: the keys logged after a
    fork's mark are the only ones its join has to rebuild.
    """

    prompts: dict[str, _PromptState]
    context: dict[str, str]
    metadata: dict[str, str]
    pending_writes: dict[str, int]
    havoc: bool
    dead_write_mark: int
    fusion_mark: int
    prompt_mark: int


def _join_origins(stores: list[dict[str, str]]) -> dict[str, str]:
    """Definite after the branch only when definite along every path."""
    first = stores[0]
    if all(store == first for store in stores):
        return first
    return {
        name: (
            "definite"
            if all(store.get(name) == "definite" for store in stores)
            else "maybe"
        )
        for name in {name for store in stores for name in store}
    }


class PathSensitiveWalker(_Walker):
    """A :class:`_Walker` with forked, joined, dead-arm-aware branches."""

    # -- state snapshots -----------------------------------------------------

    def _snapshot(self) -> AbstractState:
        # Prompt states are immutable, so a shallow copy is a full fork.
        return AbstractState(
            prompts=dict(self.prompts),
            context=dict(self.context),
            metadata=dict(self.metadata),
            pending_writes=dict(self.pending_writes),
            havoc=self.havoc,
            dead_write_mark=len(self.dead_writes),
            fusion_mark=len(self.fusion_pairs),
            prompt_mark=len(self.prompt_log),
        )

    def _restore(self, state: AbstractState, *, rollback: bool = False) -> None:
        self.prompts = dict(state.prompts)
        self.context = dict(state.context)
        self.metadata = dict(state.metadata)
        self.pending_writes = dict(state.pending_writes)
        self.havoc = state.havoc
        if rollback:
            del self.dead_writes[state.dead_write_mark :]
            del self.fusion_pairs[state.fusion_mark :]
            del self.prompt_log[state.prompt_mark :]

    # -- join -----------------------------------------------------------------

    def _join(self, base: AbstractState, paths: list[AbstractState]) -> AbstractState:
        """The least upper bound of the feasible paths' post-states.

        ``base`` is the fork the paths were walked from.  A prompt key no
        path wrote since then still holds ``base``'s state in every path,
        so it is taken from ``base`` by reference; only the keys the
        write log names after ``base.prompt_mark`` are rebuilt.
        """
        if len(paths) == 1:
            return paths[0]
        first = paths[0]
        prompts = dict(base.prompts)
        for key in set(self.prompt_log[base.prompt_mark :]):
            infos = [path.prompts.get(key) for path in paths]
            shared = infos[0]
            if shared is not None and all(info is shared for info in infos):
                # Logged, yet every path holds one state: nothing to join.
                prompts[key] = shared
                continue
            present = [info for info in infos if info is not None]
            params = frozenset().union(*(info.params for info in present))
            spill = frozenset().union(*(info.spill for info in present))
            texts: frozenset[str] | None
            if any(info.texts is None for info in present):
                # Losing the exact texts must not lose their reads.
                known = frozenset().union(
                    *(info.texts or frozenset() for info in present)
                )
                if known:
                    spill = spill | self._spill_roots(known, params)
                texts = None
            else:
                texts = frozenset().union(*(info.texts for info in present))
                if len(texts) > _TEXT_FAN_LIMIT:
                    spill = spill | self._spill_roots(texts, params)
                    texts = None
            prompts[key] = _PromptState(
                texts,
                definite=(
                    len(present) == len(paths)
                    and all(info.definite for info in present)
                ),
                initial=all(info.initial for info in present),
                params=params,
                spill=spill,
            )
        pending = first.pending_writes
        if any(path.pending_writes != pending for path in paths):
            pending = {
                slot: index
                for slot, index in pending.items()
                if all(path.pending_writes.get(slot) == index for path in paths)
            }
        return AbstractState(
            prompts=prompts,
            context=_join_origins([path.context for path in paths]),
            metadata=_join_origins([path.metadata for path in paths]),
            pending_writes=pending,
            havoc=any(path.havoc for path in paths),
            dead_write_mark=len(self.dead_writes),
            fusion_mark=len(self.fusion_pairs),
            prompt_mark=len(self.prompt_log),
        )

    # -- condition refinement --------------------------------------------------

    def _refine_condition(self, text: str, outcome: bool) -> None:
        """Assume a single-atom condition's outcome into the current path.

        Only context-presence atoms refine our lattice (metadata atoms
        compare values we do not track).  Inside the arm where
        ``"slot" in C`` held, the slot is definitely bound; where it
        failed, the slot is definitely absent.
        """
        match = _CONTEXT_ATOM.fullmatch(text.strip())
        if match is None:
            return
        present = outcome != bool(match.group("negated"))
        if present:
            self.context[match.group("key")] = "definite"
        else:
            self.context.pop(match.group("key"), None)

    # -- dead arms -------------------------------------------------------------

    def _walk_dead(self, operator, *, repeated: bool, path) -> None:
        """Materialize an unreachable arm's nodes without any state effect."""
        base = self._snapshot()
        self._dead_depth += 1
        try:
            self.walk(operator, conditional=True, repeated=repeated, path=path)
        finally:
            self._dead_depth -= 1
            self._restore(base, rollback=True)

    # -- branch walkers ---------------------------------------------------------

    def _walk_check(self, op: CHECK, conditional, repeated, path) -> "OpNode":
        node = self._node(
            op, "CHECK", conditional=conditional, repeated=repeated, path=path
        )
        node.data["condition"] = op.cond.text
        static = self._static_condition(op.cond.text)
        node.data["static"] = static
        node.data["has_then"] = op.then is not None
        node.data["has_orelse"] = op.orelse is not None
        self._read_condition(node, op.cond.text)
        self._write_metadata(node, ("checks",), conditional=conditional)
        branch_path = path + (op.label,)

        base = self._snapshot()
        outcomes: list[AbstractState] = []
        # The true path.
        if static is False:
            if op.then is not None:
                self._walk_dead(op.then, repeated=repeated, path=branch_path)
        else:
            self._refine_condition(op.cond.text, True)
            if op.then is not None:
                self.walk(
                    op.then, conditional=True, repeated=repeated, path=branch_path
                )
            outcomes.append(self._snapshot())
        # The false path.
        if static is True:
            if op.orelse is not None:
                self._walk_dead(op.orelse, repeated=repeated, path=branch_path)
        else:
            self._restore(base)
            self._refine_condition(op.cond.text, False)
            if op.orelse is not None:
                self.walk(
                    op.orelse, conditional=True, repeated=repeated, path=branch_path
                )
            outcomes.append(self._snapshot())
        self._restore(self._join(base, outcomes))
        return node

    def _walk_switch(self, op: SWITCH, conditional, repeated, path) -> "OpNode":
        node = self._node(
            op, "SWITCH", conditional=conditional, repeated=repeated, path=path
        )
        statics: list[bool | None] = []
        for cond, __ in op.cases:
            self._read_condition(node, cond.text)
            statics.append(self._static_condition(cond.text))
        node.data["conditions"] = [cond.text for cond, __ in op.cases]
        node.data["statics"] = statics
        node.data["has_default"] = op.default is not None
        branch_path = path + (op.label,)

        base = self._snapshot()
        outcomes: list[AbstractState] = []
        decided = False  # an earlier case statically matched (first-match)
        for (cond, case_op), static in zip(op.cases, statics):
            if decided or static is False:
                self._walk_dead(case_op, repeated=repeated, path=branch_path)
                continue
            self._restore(base)
            # Earlier undecided cases all failed along this path.
            for (earlier_cond, __), earlier in zip(op.cases, statics):
                if earlier_cond is cond:
                    break
                if earlier is not False:
                    self._refine_condition(earlier_cond.text, False)
            self._refine_condition(cond.text, True)
            self.walk(
                case_op, conditional=True, repeated=repeated, path=branch_path
            )
            outcomes.append(self._snapshot())
            if static is True:
                decided = True
        if op.default is not None:
            if decided:
                self._walk_dead(op.default, repeated=repeated, path=branch_path)
            else:
                self._restore(base)
                for (cond, __), static in zip(op.cases, statics):
                    if static is not False:
                        self._refine_condition(cond.text, False)
                self.walk(
                    op.default, conditional=True, repeated=repeated, path=branch_path
                )
                outcomes.append(self._snapshot())
        elif not decided:
            # No case matched and there is no default: plain fallthrough.
            self._restore(base)
            outcomes.append(self._snapshot())
        self._restore(self._join(base, outcomes))
        return node
