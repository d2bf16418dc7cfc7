"""Incremental re-check cache: strict mode in O(1) for unchanged pipelines.

Strict mode re-validates on *every* run — a per-request graph build plus
the full analyzer registry.  For a server re-registering tenants or a
batch runner validating the same pipeline per batch, almost all of that
work is identical run to run.  This module fingerprints the pair
*(pipeline structure, environment)* without building the dataflow graph
and memoizes the resulting :class:`~repro.analysis.diagnostics.
CheckResult`, so a warm re-check is one hash plus one dict lookup.

The fingerprint covers everything analysis can observe: operator
structure (types, keys, texts, conditions, nested pipelines), initial
prompt texts and params, bound context slots, registered sources and
agents, the view registry, ``open_context``, and the runtime mapping.
Callables are described by module, qualname, code, defaults and
closure cells, never by address, so a new object at a freed one's
address cannot inherit its entry.  Slotted objects are described by
their set slot values (a :class:`~repro.core.entry.StaticChunk` by its
text alone).  An object with neither a ``__dict__`` nor slots has no
content to describe: a request holding one is checked but never cached.

Hits and misses are observable as ``spear_check_cache_hits_total`` /
``spear_check_cache_misses_total`` when a metrics registry is passed.
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from operator import is_
from types import CodeType
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.analysis.check import check_pipeline
from repro.analysis.diagnostics import CheckResult
from repro.core.entry import StaticChunk
from repro.core.operators import Operator
from repro.core.pipeline import Pipeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state import ExecutionState
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "GLOBAL_CHECK_CACHE",
    "CheckCache",
    "fingerprint_check",
    "cached_check_pipeline",
    "cached_check_state",
]

_PRIMITIVES = (str, int, float, bool, bytes)


class _Opaque(Exception):
    """An object with neither a ``__dict__`` nor slots: only its address
    could tell two apart, and a freed address is reused."""


def _describe(obj: Any, depth: int = 0, path: dict[int, int] | None = None) -> Any:
    """A stable, structural description of ``obj`` for hashing.

    ``path`` maps the ids of the objects being described around ``obj``
    to their depths; an object met again inside itself (a closure that
    refers to itself, an object graph with back-links) is described by a
    back-reference to that depth, so every walk is finite.
    """
    if depth > 32:
        return "<deep>"
    if obj is None or isinstance(obj, _PRIMITIVES):
        return obj
    if path is None:
        path = {}
    key = id(obj)
    if key in path:
        return ("<cycle>", depth - path[key])
    path[key] = depth
    try:
        return _describe_node(obj, depth, path)
    finally:
        del path[key]


def _describe_node(obj: Any, depth: int, path: dict[int, int]) -> Any:
    if isinstance(obj, Pipeline):
        return (
            "Pipeline",
            tuple(_describe(op, depth + 1, path) for op in obj.operators),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_describe(item, depth + 1, path) for item in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(_describe(item, depth + 1, path)) for item in obj))
    if isinstance(obj, Mapping):
        return tuple(
            (str(key), _describe(value, depth + 1, path))
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
    text = getattr(obj, "text", None)
    if text is not None and type(obj).__name__ == "Condition":
        return ("Condition", text)
    attrs = getattr(obj, "__dict__", None)
    # Operators are callable but must be described structurally: two
    # separately-built but equal pipelines share one cache entry.
    if attrs is not None and (isinstance(obj, Operator) or not callable(obj)):
        return (
            type(obj).__name__,
            tuple(
                (name, _describe(value, depth + 1, path))
                for name, value in sorted(attrs.items())
            ),
        )
    if callable(obj):
        # By what it runs, never by its address (which a new object can
        # reuse).  Analysis treats a body as opaque, so two callables
        # alike in these fields share an entry at no cost to a verdict.
        code = getattr(obj, "__code__", None)
        return (
            type(obj).__name__,
            getattr(obj, "__module__", None),
            getattr(obj, "__qualname__", None),
            _describe_code(code) if isinstance(code, CodeType) else None,
            _describe(getattr(obj, "__defaults__", None), depth + 1, path),
            _describe(getattr(obj, "__kwdefaults__", None), depth + 1, path),
            tuple(
                _describe(_cell_contents(cell), depth + 1, path)
                for cell in getattr(obj, "__closure__", None) or ()
            ),
        )
    if isinstance(obj, StaticChunk):
        # ``memo`` caches analyses of ``text``; it is not content.
        return ("StaticChunk", obj.text)
    slots = _slot_values(obj)
    if slots:
        return (
            type(obj).__name__,
            tuple(
                (name, _describe(value, depth + 1, path)) for name, value in slots
            ),
        )
    raise _Opaque(type(obj).__name__)


def _slot_values(obj: Any) -> list[tuple[str, Any]]:
    """``obj``'s set ``__slots__`` values, by name, over its MRO."""
    values: dict[str, Any] = {}
    for klass in type(obj).__mro__:
        names = klass.__dict__.get("__slots__", ())
        for name in (names,) if isinstance(names, str) else names:
            if name in ("__dict__", "__weakref__"):
                continue
            if name.startswith("__") and not name.endswith("__"):
                name = f"_{klass.__name__.lstrip('_')}{name}"  # name-mangled
            if name in values:
                continue
            try:
                values[name] = getattr(obj, name)
            except AttributeError:  # declared but never set
                continue
    return sorted(values.items())


def _describe_code(code: CodeType) -> Any:
    """A code object's identity-free fields; its constants are literals
    and nested code objects only, so the walk is finite."""
    return (
        code.co_filename,
        code.co_firstlineno,
        code.co_name,
        code.co_code,
        code.co_names,
        tuple(
            _describe_code(const) if isinstance(const, CodeType) else repr(const)
            for const in code.co_consts
        ),
    )


def _cell_contents(cell: Any) -> Any:
    try:
        return cell.cell_contents
    except ValueError:  # a cell whose variable is not bound yet
        return "<empty cell>"


#: per-object memo of the (expensive) structural pipeline digest.  The
#: guard holds a weak reference to each operator, so it detects operators
#: being replaced (even by a new object at a freed one's address), added,
#: removed, or reordered; mutating an operator's attributes *in place*
#: after a check is not detected (operators are build-time-frozen by
#: convention).
_PIPELINE_DIGESTS: "weakref.WeakKeyDictionary[Pipeline, _DigestMemo]" = (
    weakref.WeakKeyDictionary()
)
_DigestMemo = tuple[tuple["weakref.ref[Operator]", ...], str]

_deref = weakref.ref.__call__


def _pipeline_digest(pipeline: Pipeline) -> str:
    """Digest of the pipeline's structural description, memoized.

    The structural walk dominates warm fingerprint cost; re-checking the
    same pipeline object (the serve and strict-executor hot path) skips
    it entirely.  Distinct-but-equal pipelines still converge on the
    same digest through the full walk.
    """
    operators = pipeline.operators
    memo = _PIPELINE_DIGESTS.get(pipeline)
    if (
        memo is not None
        and len(memo[0]) == len(operators)
        and all(map(is_, map(_deref, memo[0]), operators))
    ):
        return memo[1]
    digest = hashlib.sha256(repr(_describe(pipeline)).encode()).hexdigest()
    _PIPELINE_DIGESTS[pipeline] = (tuple(map(weakref.ref, operators)), digest)
    return digest


def fingerprint_check(
    pipeline: Pipeline,
    *,
    prompts: Mapping[str, Any] | None = None,
    context: Iterable[str] = (),
    views: Any = None,
    sources: Sequence[str] | None = None,
    agents: Sequence[str] | None = None,
    open_context: bool = False,
    prompt_params: Mapping[str, Iterable[str]] | None = None,
    name: str | None = None,
    runtime: Mapping[str, Any] | None = None,
) -> str | None:
    """Content hash of one (pipeline, environment) check request, or None
    when the request holds an object with no content to describe."""
    try:
        description = (
            _pipeline_digest(pipeline),
            _describe(
                {
                    key: getattr(value, "text", value)
                    for key, value in (prompts or {}).items()
                }
            ),
            tuple(sorted(context)),
            _describe(views),
            tuple(sources) if sources is not None else None,
            tuple(agents) if agents is not None else None,
            open_context,
            _describe(
                {key: tuple(value) for key, value in (prompt_params or {}).items()}
            ),
            name,
            _describe(runtime) if runtime is not None else None,
        )
    except _Opaque:
        return None
    return hashlib.sha256(repr(description).encode()).hexdigest()


class CheckCache:
    """A bounded LRU of check results keyed by content fingerprint."""

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, CheckResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def get(self, key: str) -> CheckResult | None:
        result = self._entries.get(key)
        if result is not None:
            self._entries.move_to_end(key)
        return result

    def put(self, key: str, result: CheckResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def check(
        self,
        pipeline: Pipeline,
        *,
        metrics: "MetricsRegistry | None" = None,
        **env: Any,
    ) -> CheckResult:
        """:func:`~repro.analysis.check.check_pipeline`, memoized.

        Accepts exactly ``check_pipeline``'s keyword environment.  The
        returned result is shared between callers — treat it as frozen.
        """
        key = fingerprint_check(pipeline, **env)
        cached = self.get(key) if key is not None else None
        if cached is not None:
            self.hits += 1
            if metrics is not None:
                metrics.counter(
                    "spear_check_cache_hits_total",
                    "Static re-checks served from the incremental cache.",
                ).inc()
            return cached
        self.misses += 1
        if metrics is not None:
            metrics.counter(
                "spear_check_cache_misses_total",
                "Static checks that ran the full analysis.",
            ).inc()
        result = check_pipeline(pipeline, **env)
        if key is not None:
            self.put(key, result)
        return result


#: the process-wide cache strict mode and the serving layer share.
GLOBAL_CHECK_CACHE = CheckCache()


def cached_check_pipeline(
    pipeline: Pipeline,
    *,
    cache: CheckCache | None = None,
    metrics: "MetricsRegistry | None" = None,
    **env: Any,
) -> CheckResult:
    """Memoized :func:`~repro.analysis.check.check_pipeline`."""
    if cache is None:
        cache = GLOBAL_CHECK_CACHE
    return cache.check(pipeline, metrics=metrics, **env)


def cached_check_state(
    pipeline: Pipeline,
    state: "ExecutionState",
    *,
    name: str | None = None,
    open_context: bool = False,
    runtime: Mapping[str, Any] | None = None,
    cache: CheckCache | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> CheckResult:
    """Memoized :func:`~repro.analysis.check.check_state`.

    Mirrors ``check_state``'s environment extraction so the fingerprint
    sees exactly what the analysis would: prompt texts and params,
    context slots, the attached view registry, sources, and agents.
    """
    prompts: dict[str, str] = {}
    prompt_params: dict[str, tuple[str, ...]] = {}
    for key in state.prompts.keys():
        entry = state.prompts[key]
        prompts[key] = entry.text
        prompt_params[key] = tuple(entry.params)
    if cache is None:
        cache = GLOBAL_CHECK_CACHE
    return cache.check(
        pipeline,
        metrics=metrics,
        prompts=prompts,
        context=tuple(state.context.keys()),
        views=getattr(state, "_views", None),
        sources=state.sources(),
        agents=state.agents(),
        open_context=open_context,
        prompt_params=prompt_params,
        name=name,
        runtime=runtime,
    )
