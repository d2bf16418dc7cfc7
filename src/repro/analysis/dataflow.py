"""Static dataflow extraction for SPEAR pipelines.

Because the algebra is closed over ``(P, C, M)`` (paper §3.3), every
pipeline's dataflow is derivable *before* any tokens are spent: which
prompt entries, template parameters, and context slots each operator
reads and writes is a static property of the operator parameters.  The
builder here walks a :class:`~repro.core.pipeline.Pipeline` with an
abstract interpreter that mirrors the runtime contracts — it reuses
:func:`~repro.core.operators._template_roots` (the placeholder-root
extraction GEN footprints use) over the statically-known prompt texts
instead of re-implementing template parsing, and each
:class:`OpNode` can render its static input set as a
:class:`~repro.core.footprint.Footprint` so analysis results and
result-cache fingerprints speak the same vocabulary.

The abstract state tracks, per prompt key, the *set of possible texts*
(collapsing to :data:`DYNAMIC` past a small fan-out) and whether the key
is definitely or only maybe written; per context slot and metadata
signal, a definite/maybe origin.  Branch bodies (CHECK arms, SWITCH
cases, RETRY refiners) are walked as *conditional*: their writes count
as bindings for later reads but never satisfy definiteness-sensitive
checks such as dead-write detection.  Opaque operators
(:class:`~repro.core.algebra.FunctionOperator`, unknown subclasses) set
a havoc flag — everything after them may have been read or written, so
downstream "definitely missing/unused" claims are suppressed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro.analysis.diagnostics import SourceSpan
from repro.core.algebra import FunctionOperator, Operator
from repro.core.derived import DIFF, MAP, RETRY, SWITCH, VIEW
from repro.core.entry import RefAction, template_placeholders
from repro.core.footprint import ABSENT, Footprint, stable_digest
from repro.core.operators import (
    CHECK,
    DELEGATE,
    GEN,
    MERGE,
    REF,
    RET,
    _template_roots,
)
from repro.core.pipeline import Pipeline
from repro.errors import ViewError
from repro.optimizer.fusion import ref_fusion_compatibility
from repro.optimizer.gen_fusion import FusedGen
from repro.optimizer.select_view_op import SelectView

__all__ = [
    "DYNAMIC",
    "AnalysisEnv",
    "OpNode",
    "DataflowGraph",
    "build_dataflow",
    "condition_atoms",
]

#: sentinel for a prompt text (or value) the walker cannot know statically.
DYNAMIC = "<dynamic>"

#: past this many alternative texts for one key, collapse to DYNAMIC —
#: branchy pipelines would otherwise explode the product of literals.
_TEXT_FAN_LIMIT = 8

#: metadata signals one GEN application writes (see ``GEN._run``).
_GEN_SIGNALS = (
    "confidence",
    "latency",
    "prompt_tokens",
    "cached_tokens",
    "output_tokens",
    "cache_hit_rate",
    "last_gen",
    "last_prompt_key",
    "gen_calls",
)

_METADATA_ATOM = re.compile(
    r'M\["(?P<key>[^"]+)"\]\s*(?P<op>[<>])\s*(?P<value>-?\d+(?:\.\d+)?)'
)
_CONTEXT_ATOM = re.compile(r'"(?P<key>[^"]+)"\s+(?P<negated>not\s+)?in\s+C')


def condition_atoms(text: str) -> list[tuple[str, ...]]:
    """Parse the atomic reads out of a condition's textual form.

    Conditions are first-class, printable objects (``M["confidence"] <
    0.7``, ``"orders" not in C``); compound conditions render as
    ``(a) and (b)``.  Returns ``("metadata", key, op, value)`` and
    ``("context", key, "present"|"missing")`` tuples for every atom found.
    """
    atoms: list[tuple[str, ...]] = []
    for match in _METADATA_ATOM.finditer(text):
        atoms.append(
            ("metadata", match.group("key"), match.group("op"), match.group("value"))
        )
    for match in _CONTEXT_ATOM.finditer(text):
        atoms.append(
            (
                "context",
                match.group("key"),
                "missing" if match.group("negated") else "present",
            )
        )
    return atoms


@dataclass
class AnalysisEnv:
    """The environment a pipeline is checked against.

    ``None`` for ``sources``/``agents`` means "unknown" — registration
    checks are skipped; an empty list means "none registered".
    ``open_context=True`` declares that a harness binds arbitrary context
    before the run (e.g. the batch runners' per-item ``bind``), which
    downgrades missing-context findings to unknowable.
    """

    #: initially-present prompt entries: key → text (or a PromptStore).
    prompts: Mapping[str, str] = field(default_factory=dict)
    #: initially-bound context slots.
    context: Iterable[str] = ()
    views: Any = None
    sources: Sequence[str] | None = None
    agents: Sequence[str] | None = None
    open_context: bool = False
    #: template-parameter names bound per initial prompt key.
    prompt_params: Mapping[str, Iterable[str]] = field(default_factory=dict)
    #: runtime configuration the pipeline will run under (from
    #: :class:`~repro.runtime.options.RuntimeOptions`): keys like
    #: ``scheduler`` / ``priority`` / ``deadline_s``.  ``None`` means
    #: "unknown" — runtime-configuration checks (SPEAR145) are skipped.
    runtime: Mapping[str, Any] | None = None


@dataclass
class OpNode:
    """One operator application site with its extracted read/write sets."""

    index: int
    label: str
    kind: str
    operator: Operator
    span: SourceSpan | None = None
    #: labels of the enclosing named pipelines / control operators.
    path: tuple[str, ...] = ()
    #: True when the node runs only under some condition.
    conditional: bool = False
    #: True when the node may run more than once (RETRY bodies).
    repeated: bool = False
    #: True when an opaque operator ran earlier in the walk.
    under_havoc: bool = False
    #: True when the path-sensitive walker proved this node sits inside a
    #: statically-dead branch: it can never run, so per-node findings are
    #: suppressed (the dead branch itself is SPEAR148).
    unreachable: bool = False
    #: True when the walker cannot see inside this operator.
    opaque: bool = False
    prompt_reads: tuple[str, ...] = ()
    prompt_writes: tuple[str, ...] = ()
    context_reads: tuple[str, ...] = ()
    context_writes: tuple[str, ...] = ()
    metadata_reads: tuple[str, ...] = ()
    metadata_writes: tuple[str, ...] = ()
    #: template placeholder roots this node's prompt texts interpolate.
    template_params: tuple[str, ...] = ()
    #: prompt keys read here that no earlier operator (or the initial
    #: store) provides.
    missing_prompts: tuple[str, ...] = ()
    #: template roots unbound at this point in the walk.
    unbound_params: tuple[str, ...] = ()
    #: hard context reads (DELEGATE payloads) unbound at this point.
    missing_context: tuple[str, ...] = ()
    #: operator-specific extras (source/agent/view names, conditions, …).
    data: dict[str, Any] = field(default_factory=dict)

    def as_footprint(self) -> Footprint:
        """The node's static input set in result-cache vocabulary.

        Prompt versions are unknowable statically, so deps carry version
        ``-1``; read digests are :data:`ABSENT` for slots the walker saw
        unbound and :data:`DYNAMIC` otherwise.  Useful for comparing the
        static read set against runtime footprints.
        """
        reads = tuple(
            (slot, ABSENT if slot in self.unbound_params else DYNAMIC)
            for slot in self.context_reads
        )
        deps = tuple(
            (key, -1, stable_digest(DYNAMIC), stable_digest(DYNAMIC))
            for key in self.prompt_reads
        )
        return Footprint(
            operator=self.label,
            identity=stable_digest({"label": self.label, "kind": self.kind}),
            model_key=None,
            prompt_deps=deps,
            context_reads=reads,
            context_writes=self.context_writes,
        )


class DataflowGraph:
    """The extracted per-operator read/write sets of one pipeline."""

    def __init__(
        self,
        pipeline: Pipeline,
        nodes: list[OpNode],
        *,
        name: str | None = None,
        initial_prompts: frozenset[str] = frozenset(),
        initial_context: frozenset[str] = frozenset(),
        dead_writes: tuple[tuple[int, str], ...] = (),
        fusion_pairs: tuple[tuple[int, int, str], ...] = (),
    ) -> None:
        self.pipeline = pipeline
        self.name = name or pipeline.name
        self.nodes = nodes
        self.initial_prompts = initial_prompts
        self.initial_context = initial_context
        #: ``(writer_node_index, slot)`` pairs the walker proved dead.
        self.dead_writes = dead_writes
        #: ``(prev_index, node_index, verdict)`` adjacent-REF pairs.
        self.fusion_pairs = fusion_pairs
        # An opaque operator in a statically-dead branch never runs, so
        # it cannot havoc the live pipeline's negatives.
        self.has_opaque = any(
            node.opaque and not node.unreachable for node in nodes
        )
        self.prompt_readers: dict[str, list[OpNode]] = {}
        self.prompt_writers: dict[str, list[OpNode]] = {}
        self.context_readers: dict[str, list[OpNode]] = {}
        self.context_writers: dict[str, list[OpNode]] = {}
        for node in nodes:
            for key in node.prompt_reads:
                self.prompt_readers.setdefault(key, []).append(node)
            for key in node.prompt_writes:
                self.prompt_writers.setdefault(key, []).append(node)
            for slot in node.context_reads:
                self.context_readers.setdefault(slot, []).append(node)
            for slot in node.context_writes:
                self.context_writers.setdefault(slot, []).append(node)

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, label: str) -> OpNode:
        """The first node whose label matches; lists available labels."""
        for node in self.nodes:
            if node.label == label:
                return node
        available = sorted({node.label for node in self.nodes})
        raise KeyError(
            f"no operator labelled {label!r} in this dataflow graph; "
            f"available labels: {available}"
        )

    # -- aggregate sets ------------------------------------------------------

    def prompt_read_set(self) -> frozenset[str]:
        """Every prompt key some operator reads."""
        return frozenset(self.prompt_readers)

    def prompt_write_set(self) -> frozenset[str]:
        """Every prompt key some operator writes."""
        return frozenset(self.prompt_writers)

    def context_read_set(self) -> frozenset[str]:
        """Every context slot some operator reads (incl. templates)."""
        return frozenset(self.context_readers)

    def context_write_set(self) -> frozenset[str]:
        """Every context slot some operator writes."""
        return frozenset(self.context_writers)

    def writers_after(self, index: int, slot: str) -> list[OpNode]:
        """Context writers of ``slot`` strictly after node ``index``."""
        return [
            node
            for node in self.context_writers.get(slot, [])
            if node.index >= index
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataflowGraph({self.name or 'pipeline'}, {len(self.nodes)} nodes)"


# -- the abstract interpreter ----------------------------------------------


class _PromptState(NamedTuple):
    """Abstract value of one prompt key during the walk.

    Immutable: branch snapshots share states with the live store, so a
    write builds a new state instead of assigning fields.
    """

    #: the possible current texts; ``None`` means unknowable.
    texts: frozenset[str] | None
    definite: bool = True
    initial: bool = False
    #: template roots bound by the entry's own params.
    params: frozenset[str] = frozenset()
    #: placeholder roots salvaged from texts the fan limiter dropped:
    #: exact content is gone, but the read set stays sound — a GEN on
    #: this key still claims these roots statically.
    spill: frozenset[str] = frozenset()


class _Walker:
    """The abstract store and the per-operator transfer functions.

    Branch control flow (``_walk_check`` / ``_walk_switch``: forks,
    joins, dead arms) lives in
    :class:`~repro.analysis.absint.PathSensitiveWalker`, the one walker
    :func:`build_dataflow` runs; this base is never walked on its own.
    """

    def __init__(self, env: AnalysisEnv) -> None:
        self.env = env
        self.nodes: list[OpNode] = []
        self.prompts: dict[str, _PromptState] = {}
        for key in _prompt_keys(env.prompts):
            text = _prompt_text(env.prompts, key)
            self.prompts[key] = _PromptState(
                frozenset({text}) if text is not None else None,
                initial=True,
                params=frozenset(env.prompt_params.get(key, ())),
            )
        self.context: dict[str, str] = {
            slot: "definite" for slot in env.context
        }
        self.metadata: dict[str, str] = {}
        self.havoc = False
        #: slot → index of the last unconditional write not yet read.
        self.pending_writes: dict[str, int] = {}
        self.dead_writes: list[tuple[int, str]] = []
        self.fusion_pairs: list[tuple[int, int, str]] = []
        #: every prompt key written, in walk order: a branch join
        #: rebuilds only the keys written since its fork.
        self.prompt_log: list[str] = []
        #: >0 while walking a statically-dead branch.
        self._dead_depth = 0

    # -- node plumbing -------------------------------------------------------

    def _node(
        self,
        operator: Operator,
        kind: str,
        *,
        conditional: bool,
        repeated: bool,
        path: tuple[str, ...],
    ) -> OpNode:
        node = OpNode(
            index=len(self.nodes),
            label=operator.label,
            kind=kind,
            operator=operator,
            span=getattr(operator, "span", None),
            path=path,
            conditional=conditional,
            repeated=repeated,
            under_havoc=self.havoc,
            unreachable=self._dead_depth > 0,
        )
        self.nodes.append(node)
        return node

    # -- abstract store operations -------------------------------------------

    def _read_context(self, node: OpNode, slot: str, *, hard: bool) -> None:
        if slot not in node.context_reads:
            node.context_reads += (slot,)
        self.pending_writes.pop(slot, None)
        if hard and slot not in self.context and not self.havoc:
            if slot not in node.missing_context:
                node.missing_context += (slot,)

    def _write_context(
        self, node: OpNode, slot: str, *, conditional: bool, repeated: bool
    ) -> None:
        node.context_writes += (slot,)
        if conditional:
            self.context.setdefault(slot, "maybe")
        else:
            self.context[slot] = "definite"
        if slot.endswith("__result"):
            # GEN's companion record slot: a pipeline re-generating a
            # label overwrites it by design; never dead-write material.
            return
        previous = self.pending_writes.pop(slot, None)
        if not conditional and not repeated:
            if previous is not None and not self.havoc:
                self.dead_writes.append((previous, slot))
            self.pending_writes[slot] = node.index

    def _write_metadata(
        self, node: OpNode, signals: Iterable[str], *, conditional: bool
    ) -> None:
        for signal in signals:
            node.metadata_writes += (signal,)
            if conditional:
                self.metadata.setdefault(signal, "maybe")
            else:
                self.metadata[signal] = "definite"

    def _read_prompt(self, node: OpNode, key: str) -> _PromptState | None:
        if key not in node.prompt_reads:
            node.prompt_reads += (key,)
        info = self.prompts.get(key)
        if info is None and not self.havoc:
            node.missing_prompts += (key,)
        return info

    def _spill_roots(
        self, texts: frozenset[str], params: frozenset[str]
    ) -> frozenset[str]:
        """Placeholder roots of ``texts``, for retention past a collapse.

        Extracted eagerly so the spill set stays bounded by the
        placeholder vocabulary no matter how many alternative texts the
        fan limiter drops.
        """
        shadowed = params | {"base"}
        roots: set[str] = set()
        for text in texts:
            roots.update(_template_roots(template_placeholders(text), shadowed))
        return frozenset(roots)

    def _write_prompt(
        self,
        node: OpNode,
        key: str,
        texts: frozenset[str] | None,
        *,
        conditional: bool,
        params: frozenset[str] = frozenset(),
        spill: frozenset[str] = frozenset(),
    ) -> None:
        node.prompt_writes += (key,)
        self.prompt_log.append(key)
        info = self.prompts.get(key)
        if texts is not None and len(texts) > _TEXT_FAN_LIMIT:
            spill = spill | self._spill_roots(texts, params)
            texts = None
        if info is None:
            self.prompts[key] = _PromptState(
                texts, definite=not conditional, params=params, spill=spill
            )
            return
        kept_spill = info.spill
        definite = info.definite
        if conditional:
            if info.texts is not None and texts is not None:
                merged = info.texts | texts
                if len(merged) <= _TEXT_FAN_LIMIT:
                    texts = merged
                else:
                    # Losing the exact texts must not lose their reads.
                    spill = spill | self._spill_roots(merged, info.params | params)
                    texts = None
            else:
                known = (info.texts or frozenset()) | (texts or frozenset())
                if known:
                    spill = spill | self._spill_roots(known, info.params | params)
                texts = None
        else:
            if texts is None:
                # Unknowable full write: the old content may survive (e.g.
                # a dynamic APPEND), so keep its roots as over-approximation.
                if info.texts:
                    spill = spill | self._spill_roots(info.texts, info.params)
            else:
                # Exact knowledge again: prior spill is superseded.
                kept_spill = frozenset()
            definite = True
        self.prompts[key] = _PromptState(
            texts,
            definite=definite,
            initial=info.initial,
            params=info.params | params,
            spill=kept_spill | spill,
        )

    def _template_reads(
        self,
        node: OpNode,
        info: _PromptState | None,
        *,
        shadowed: frozenset[str] = frozenset(),
    ) -> None:
        """Record the context slots a prompt's template interpolates.

        Extracts roots with the runtime's own placeholder helper (the
        one GEN footprints use) over every statically-known text; a
        DYNAMIC text contributes nothing (its reads are unknowable).
        """
        if info is None or (info.texts is None and not info.spill):
            return
        shadowed = shadowed | info.params | {"base"}
        for text in info.texts or ():
            for root in _template_roots(template_placeholders(text), shadowed):
                if root not in node.template_params:
                    node.template_params += (root,)
                self._read_context(node, root, hard=False)
                if root not in self.context and not self.havoc:
                    if root not in node.unbound_params:
                        node.unbound_params += (root,)
        # Roots salvaged from fan-limited texts still count as reads, but
        # never as unbound-placeholder findings: the exact text that would
        # justify the lint is gone.
        for root in info.spill:
            if root in shadowed:
                continue
            if root not in node.template_params:
                node.template_params += (root,)
            self._read_context(node, root, hard=False)

    def _read_condition(self, node: OpNode, text: str) -> None:
        for atom in condition_atoms(text):
            if atom[0] == "metadata":
                if atom[1] not in node.metadata_reads:
                    node.metadata_reads += (atom[1],)
            else:
                self._read_context(node, atom[1], hard=False)

    def _static_condition(self, text: str) -> bool | None:
        """Evaluate a condition statically, or None when unknowable.

        Only simple (single-atom) conditions are evaluated.  An unwritten
        metadata signal reads as 0.0 (the runtime's ``get`` default); a
        context slot is decidable only when definitely bound or provably
        never bound.
        """
        if self.havoc:
            return None
        stripped = text.strip()
        match = _METADATA_ATOM.fullmatch(stripped)
        if match is not None:
            if match.group("key") in self.metadata:
                return None
            threshold = float(match.group("value"))
            if match.group("op") == "<":
                return 0.0 < threshold
            return 0.0 > threshold
        match = _CONTEXT_ATOM.fullmatch(stripped)
        if match is not None:
            if self.env.open_context:
                return None
            origin = self.context.get(match.group("key"))
            if origin == "maybe":
                return None
            present = origin == "definite"
            return not present if match.group("negated") else present
        return None

    def _expand_view(
        self, name: str, params: Mapping[str, Any]
    ) -> tuple[str | None, str | None]:
        """Expand a view.

        Returns ``(text, error)``; exactly one side is set.  A missing
        registry means the text is unknowable, not an error.
        """
        if self.env.views is None:
            return None, None
        try:
            return self.env.views.expand(name, params), None
        except ViewError as error:
            return None, str(error)

    # -- walking ---------------------------------------------------------------

    def walk_sequence(
        self,
        operators: Iterable[Operator],
        *,
        conditional: bool,
        repeated: bool,
        path: tuple[str, ...],
    ) -> None:
        previous: tuple[Operator, OpNode] | None = None
        for operator in operators:
            node = self.walk(
                operator, conditional=conditional, repeated=repeated, path=path
            )
            if (
                previous is not None
                and node is not None
                and isinstance(operator, REF)
                and isinstance(previous[0], REF)
            ):
                verdict = ref_fusion_compatibility(previous[0], operator)
                if verdict != "unrelated":
                    self.fusion_pairs.append(
                        (previous[1].index, node.index, verdict)
                    )
            previous = (operator, node) if node is not None else None

    def walk(
        self,
        operator: Operator,
        *,
        conditional: bool,
        repeated: bool,
        path: tuple[str, ...],
    ) -> OpNode | None:
        if isinstance(operator, Pipeline):
            inner_path = path + ((operator.name,) if operator.name else ())
            self.walk_sequence(
                operator.operators,
                conditional=conditional,
                repeated=repeated,
                path=inner_path,
            )
            return None
        if isinstance(operator, RET):
            return self._walk_ret(operator, conditional, repeated, path)
        if isinstance(operator, GEN):
            return self._walk_gen(operator, conditional, repeated, path)
        if isinstance(operator, REF):
            return self._walk_ref(operator, conditional, repeated, path)
        if isinstance(operator, CHECK):
            return self._walk_check(operator, conditional, repeated, path)
        if isinstance(operator, MERGE):
            return self._walk_merge(operator, conditional, repeated, path)
        if isinstance(operator, DELEGATE):
            return self._walk_delegate(operator, conditional, repeated, path)
        if isinstance(operator, RETRY):
            return self._walk_retry(operator, conditional, repeated, path)
        if isinstance(operator, MAP):
            return self._walk_map(operator, conditional, repeated, path)
        if isinstance(operator, SWITCH):
            return self._walk_switch(operator, conditional, repeated, path)
        if isinstance(operator, VIEW):
            return self._walk_view(operator, conditional, repeated, path)
        if isinstance(operator, DIFF):
            return self._walk_diff(operator, conditional, repeated, path)
        if isinstance(operator, SelectView):
            return self._walk_select_view(operator, conditional, repeated, path)
        if isinstance(operator, FusedGen):
            return self._walk_fused_gen(operator, conditional, repeated, path)
        return self._walk_opaque(operator, conditional, repeated, path)

    # -- per-operator walkers ---------------------------------------------------

    def _walk_ret(self, op: RET, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "RET", conditional=conditional, repeated=repeated, path=path
        )
        node.data["source"] = op.source
        if op.prompt_key is not None:
            info = self._read_prompt(node, op.prompt_key)
            self._template_reads(node, info)
        self._write_context(
            node, op.into, conditional=conditional, repeated=repeated
        )
        return node

    def _walk_gen(self, op: GEN, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "GEN", conditional=conditional, repeated=repeated, path=path
        )
        node.data["prompt_key"] = op.prompt_key
        node.data["extra"] = sorted(op.extra)
        info = self._read_prompt(node, op.prompt_key)
        if info is not None and info.texts is not None:
            # Statically-known template texts, kept for shape-sensitive
            # checkers (e.g. SPEAR146's placeholder-ordering rule).
            node.data["prompt_texts"] = tuple(sorted(info.texts))
        self._template_reads(node, info, shadowed=frozenset(op.extra))
        self._write_context(
            node, op.label_key, conditional=conditional, repeated=repeated
        )
        self._write_context(
            node,
            f"{op.label_key}__result",
            conditional=conditional,
            repeated=repeated,
        )
        self._write_metadata(node, _GEN_SIGNALS, conditional=conditional)
        return node

    def _walk_ref(self, op: REF, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "REF", conditional=conditional, repeated=repeated, path=path
        )
        node.data["action"] = op.action.value
        node.data["condition"] = op.condition
        node.data["literal"] = isinstance(op.f, str)
        info = self.prompts.get(op.key)
        texts: frozenset[str] | None = None
        spill: frozenset[str] = frozenset()
        if isinstance(op.f, str):
            literal = op.f
            if op.action in (RefAction.CREATE, RefAction.UPDATE, RefAction.REPLACE):
                texts = frozenset({literal})
            elif op.action in (RefAction.APPEND, RefAction.PREPEND):
                if info is None:
                    texts = frozenset({literal})
                elif info.texts is not None:
                    if op.action is RefAction.APPEND:
                        combined = {
                            f"{current}\n{literal}" if current else literal
                            for current in info.texts
                        }
                    else:
                        combined = {
                            f"{literal}\n{current}" if current else literal
                            for current in info.texts
                        }
                    if not info.definite:
                        combined.add(literal)
                    texts = frozenset(combined)
                else:
                    # Unknowable old text: the literal's reads still count.
                    spill = self._spill_roots(frozenset({literal}), info.params)
        self._write_prompt(node, op.key, texts, conditional=conditional, spill=spill)
        node.metadata_reads += ("confidence", "latency")
        self._write_metadata(node, ("refinements",), conditional=conditional)
        return node

    def _walk_merge(self, op: MERGE, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "MERGE", conditional=conditional, repeated=repeated, path=path
        )
        node.data["into"] = op.into
        self._read_prompt(node, op.key_1)
        self._read_prompt(node, op.key_2)
        self._write_prompt(node, op.into, None, conditional=conditional)
        return node

    def _walk_delegate(self, op: DELEGATE, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "DELEGATE", conditional=conditional, repeated=repeated, path=path
        )
        node.data["agent"] = op.agent_name
        if isinstance(op.payload, str):
            node.data["payload"] = op.payload
            self._read_context(node, op.payload, hard=True)
        else:
            node.data["dynamic_payload"] = True
        self._write_context(
            node, op.into, conditional=conditional, repeated=repeated
        )
        self._write_metadata(node, ("delegations",), conditional=conditional)
        return node

    def _walk_retry(self, op: RETRY, conditional, repeated, path) -> OpNode:
        inner_path = path + (op.label,)
        body_start = len(self.nodes)
        # The inner op always runs at least once; only re-runs are
        # conditional, so it keeps the parent's conditionality but is
        # marked repeated (its writes are overwritten by design).
        self.walk(op.op, conditional=conditional, repeated=True, path=inner_path)
        if op.refine is not None:
            self.walk(
                op.refine, conditional=True, repeated=True, path=inner_path
            )
        node = self._node(
            op, "RETRY", conditional=conditional, repeated=repeated, path=path
        )
        #: node-index span of the body (and refiner) this RETRY re-runs —
        #: the cost analyzer multiplies these nodes by the attempt bound.
        node.data["body_range"] = (body_start, node.index)
        node.data["condition"] = op.condition.text
        node.data["has_policy"] = op.policy is not None
        node.data["max_retries"] = op.max_retries
        self._read_condition(node, op.condition.text)
        self._write_metadata(node, ("retries",), conditional=True)
        return node

    def _walk_map(self, op: MAP, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "MAP", conditional=conditional, repeated=repeated, path=path
        )
        node.data["action"] = op.action.value
        for key in op.keys:
            self._write_prompt(node, key, None, conditional=conditional)
        self._write_metadata(node, ("refinements",), conditional=conditional)
        return node

    def _walk_view(self, op: VIEW, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "VIEW", conditional=conditional, repeated=repeated, path=path
        )
        node.data["view"] = op.view_name
        text, error = self._expand_view(op.view_name, op.params)
        if error is not None:
            node.data["view_error"] = error
        self._write_prompt(
            node,
            op.key,
            frozenset({text}) if text is not None else None,
            conditional=conditional,
            params=frozenset(op.params),
        )
        return node

    def _walk_diff(self, op: DIFF, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "DIFF", conditional=conditional, repeated=repeated, path=path
        )
        for spec in (op.key_1, op.key_2):
            self._read_prompt(node, spec.partition("@")[0])
        self._write_context(
            node, op.into, conditional=conditional, repeated=repeated
        )
        return node

    def _walk_select_view(self, op: SelectView, conditional, repeated, path) -> OpNode:
        node = self._node(
            op,
            "SELECT_VIEW",
            conditional=conditional,
            repeated=repeated,
            path=path,
        )
        node.data["views"] = list(op.candidates)
        errors: dict[str, str] = {}
        for candidate in op.candidates:
            __, error = self._expand_view(candidate, op.params)
            if error is not None:
                errors[candidate] = error
        if errors:
            node.data["view_errors"] = errors
        self._write_prompt(
            node,
            op.key,
            None,
            conditional=conditional,
            params=frozenset(op.params),
        )
        self._write_metadata(node, ("selected_view",), conditional=conditional)
        return node

    def _walk_fused_gen(self, op: FusedGen, conditional, repeated, path) -> OpNode:
        node = self._node(
            op, "FUSED_GEN", conditional=conditional, repeated=repeated, path=path
        )
        fused_texts: list[str] = []
        for label, prompt_key in op.specs:
            info = self._read_prompt(node, prompt_key)
            if info is not None and info.texts is not None:
                fused_texts.extend(sorted(info.texts))
            self._template_reads(node, info)
            self._write_context(
                node, label, conditional=conditional, repeated=repeated
            )
        if fused_texts:
            node.data["prompt_texts"] = tuple(fused_texts)
        self._write_context(
            node,
            f"{op.specs[0][0]}__result",
            conditional=conditional,
            repeated=repeated,
        )
        signals = tuple(
            s for s in _GEN_SIGNALS if s not in ("last_gen", "last_prompt_key")
        )
        self._write_metadata(node, signals, conditional=conditional)
        return node

    def _walk_opaque(self, op: Operator, conditional, repeated, path) -> OpNode:
        node = self._node(
            op,
            "FN" if isinstance(op, FunctionOperator) else type(op).__name__,
            conditional=conditional,
            repeated=repeated,
            path=path,
        )
        node.opaque = True
        self.havoc = True
        # An opaque operator may read any pending write, so none of them
        # can be proven dead from here on.
        self.pending_writes.clear()
        return node


def _prompt_keys(prompts: Any) -> list[str]:
    if prompts is None:
        return []
    if hasattr(prompts, "keys"):
        return list(prompts.keys())
    return list(prompts)


def _prompt_text(prompts: Any, key: str) -> str | None:
    if prompts is None:
        return None
    entry = prompts[key]
    if isinstance(entry, str):
        return entry
    text = getattr(entry, "text", None)
    return text if isinstance(text, str) else None


def build_dataflow(
    pipeline: Pipeline,
    env: AnalysisEnv | None = None,
    *,
    name: str | None = None,
) -> DataflowGraph:
    """Extract the per-operator read/write sets of ``pipeline``.

    Pure: neither the pipeline, the environment, nor any registry cache
    is mutated — safe to run immediately before a real execution without
    perturbing it.

    CHECK/SWITCH arms are analyzed on forked abstract states with joined
    post-states, and statically-dead arms are skipped (see
    :mod:`repro.analysis.absint`).
    """
    from repro.analysis.absint import PathSensitiveWalker

    env = env if env is not None else AnalysisEnv()
    walker = PathSensitiveWalker(env)
    walker.walk_sequence(
        pipeline.operators, conditional=False, repeated=False, path=()
    )
    return DataflowGraph(
        pipeline,
        walker.nodes,
        name=name,
        initial_prompts=frozenset(_prompt_keys(env.prompts)),
        initial_context=frozenset(env.context),
        dead_writes=tuple(walker.dead_writes),
        fusion_pairs=tuple(walker.fusion_pairs),
    )
