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

No store is ever copied.  Every change the walker makes to its four
stores (prompts, context, metadata, pending writes) goes through
``_Walker._set`` / ``_Walker._unset``, which append the key's old value
to one write trail.  A fork is a mark on that trail.  Restoring the
fork undoes the trail back to the mark, newest entry first.  A path's
outcome is the keys written since the mark, with the values they hold
at the path's end.  The join visits only those keys: a key no path
wrote holds the fork's value on every path, so it is already joined.
Prompt states are immutable, so an outcome and the trail share them
with the live store.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.analysis.dataflow import (
    _CONTEXT,
    _CONTEXT_ATOM,
    _METADATA,
    _PENDING,
    _PROMPTS,
    _TEXT_FAN_LIMIT,
    _UNSET,
    _PromptState,
    _Walker,
)
from repro.core.derived import SWITCH
from repro.core.operators import CHECK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow import OpNode

__all__ = ["Fork", "Outcome", "PathSensitiveWalker"]


class Fork(NamedTuple):
    """Where a branch started: a mark on the trail and the walk's flags.

    ``dead_write_mark``/``fusion_mark`` record accumulator lengths so a
    dead arm's rollback can also discard any dead-write or fusion-pair
    evidence it produced (live paths keep theirs).
    """

    mark: int
    havoc: bool
    dead_write_mark: int
    fusion_mark: int


class Outcome(NamedTuple):
    """One feasible path's end: per store, each key written since the
    fork and the value it holds (``_UNSET`` when dropped)."""

    written: tuple[dict[str, Any], ...]
    havoc: bool


class PathSensitiveWalker(_Walker):
    """A :class:`_Walker` with forked, joined, dead-arm-aware branches."""

    # -- forks -------------------------------------------------------------------

    def _fork(self) -> Fork:
        return Fork(
            len(self.trail), self.havoc, len(self.dead_writes), len(self.fusion_pairs)
        )

    def _undo(self, fork: Fork, *, rollback: bool = False) -> None:
        """Undo every store change since ``fork``; ``rollback`` also
        drops the dead-write and fusion evidence found since."""
        trail, stores = self.trail, self._stores
        for index in range(len(trail) - 1, fork.mark - 1, -1):
            store, key, old = trail[index]
            if old is _UNSET:
                del stores[store][key]
            else:
                stores[store][key] = old
        del trail[fork.mark :]
        self.havoc = fork.havoc
        if rollback:
            del self.dead_writes[fork.dead_write_mark :]
            del self.fusion_pairs[fork.fusion_mark :]

    def _outcome(self, fork: Fork) -> Outcome:
        """The current path's end: the keys written since ``fork``."""
        written: tuple[dict[str, Any], ...] = ({}, {}, {}, {})
        stores = self._stores
        for store, key, __ in self.trail[fork.mark :]:
            written[store][key] = stores[store].get(key, _UNSET)
        return Outcome(written, self.havoc)

    # -- join -----------------------------------------------------------------

    def _join(self, fork: Fork, paths: list[Outcome]) -> None:
        """Join the feasible paths' post-states into the live store.

        The store holds the last path's end.  With one path that is the
        join; otherwise the store goes back to ``fork`` and each key some
        path wrote is set to the least upper bound of its values on every
        path (the fork's value on a path that did not write it).
        """
        if len(paths) == 1:
            return
        self._undo(fork)
        self.havoc = any(path.havoc for path in paths)
        for store, join in (
            (_PROMPTS, self._join_prompt),
            (_CONTEXT, _join_origin),
            (_METADATA, _join_origin),
            (_PENDING, _join_pending),
        ):
            written = [path.written[store] for path in paths]
            if not any(written):
                continue
            stored = self._stores[store]
            for key in dict.fromkeys(chain.from_iterable(written)):
                base = stored.get(key, _UNSET)
                joined = join([values.get(key, base) for values in written])
                if joined is _UNSET:
                    self._unset(store, key)
                else:
                    self._set(store, key, joined)

    def _join_prompt(self, values: list[Any]) -> Any:
        """Every path's state of one prompt key, joined."""
        shared = values[0]
        if shared is not _UNSET and all(value is shared for value in values):
            return shared
        present = [info for info in values if info is not _UNSET]
        params = spill = known = frozenset()
        exact = True  # every path knows its texts
        for info in present:
            params |= info.params
            spill |= info.spill
            if info.texts is None:
                exact = False
            else:
                known |= info.texts
        texts: frozenset[str] | None = known
        if not exact:
            # Losing the exact texts must not lose their reads.
            if known:
                spill = spill | self._spill_roots(known, params)
            texts = None
        elif len(known) > _TEXT_FAN_LIMIT:
            spill = spill | self._spill_roots(known, params)
            texts = None
        return _PromptState(
            texts,
            len(present) == len(values) and all(info.definite for info in present),
            all(info.initial for info in present),
            params,
            spill,
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
            self._set(_CONTEXT, match.group("key"), "definite")
        else:
            self._unset(_CONTEXT, match.group("key"))

    # -- dead arms -------------------------------------------------------------

    def _walk_dead(self, operator, *, repeated: bool, path) -> None:
        """Materialize an unreachable arm's nodes without any state effect."""
        fork = self._fork()
        self._dead_depth += 1
        try:
            self.walk(operator, conditional=True, repeated=repeated, path=path)
        finally:
            self._dead_depth -= 1
            self._undo(fork, rollback=True)

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

        fork = self._fork()
        outcomes: list[Outcome] = []
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
            outcomes.append(self._outcome(fork))
        # The false path.
        if static is True:
            if op.orelse is not None:
                self._walk_dead(op.orelse, repeated=repeated, path=branch_path)
        else:
            self._undo(fork)
            self._refine_condition(op.cond.text, False)
            if op.orelse is not None:
                self.walk(
                    op.orelse, conditional=True, repeated=repeated, path=branch_path
                )
            outcomes.append(self._outcome(fork))
        self._join(fork, outcomes)
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

        fork = self._fork()
        outcomes: list[Outcome] = []
        decided = False  # an earlier case statically matched (first-match)
        for (cond, case_op), static in zip(op.cases, statics):
            if decided or static is False:
                self._walk_dead(case_op, repeated=repeated, path=branch_path)
                continue
            self._undo(fork)
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
            outcomes.append(self._outcome(fork))
            if static is True:
                decided = True
        if op.default is not None:
            if decided:
                self._walk_dead(op.default, repeated=repeated, path=branch_path)
            else:
                self._undo(fork)
                for (cond, __), static in zip(op.cases, statics):
                    if static is not False:
                        self._refine_condition(cond.text, False)
                self.walk(
                    op.default, conditional=True, repeated=repeated, path=branch_path
                )
                outcomes.append(self._outcome(fork))
        elif not decided:
            # No case matched and there is no default: plain fallthrough.
            self._undo(fork)
            outcomes.append(self._outcome(fork))
        self._join(fork, outcomes)
        return node


def _join_origin(values: list[Any]) -> Any:
    """Definite after the branch only when definite along every path."""
    first = values[0]
    if all(value == first for value in values):
        return first
    return "maybe"


def _join_pending(values: list[Any]) -> Any:
    """A dead-write candidate survives only when every path kept it."""
    first = values[0]
    if all(value == first for value in values):
        return first
    return _UNSET
