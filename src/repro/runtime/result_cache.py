"""Operator-level result cache with version-precise invalidation (paper §5).

SPEAR's optimization story pairs token-level prefix caching and the
structured prompt cache with a third tier: because prompts are versioned
first-class data, the runtime knows exactly which *operator outputs* are
still valid after a refinement.  :class:`ResultCache` memoizes the
``(C, M)`` delta of cacheable operator applications, keyed by the content
fingerprint of their declared inputs (:class:`~repro.core.footprint.Footprint`):
operator identity + params, referenced prompt keys at their current
versions, the context slots the rendered template reads, and the model
backend.

On a hit the executor splices the cached delta back into the state, emits
a synthetic ``CACHE_HIT`` event, and advances the virtual clock by
:attr:`ResultCache.hit_cost` (~0) instead of the simulated LLM latency.
Replay re-applies the *recorded mutation operations* (context puts,
metadata sets/increments), not absolute snapshots, so counters like
``gen_calls`` and metadata history evolve exactly as a live execution
would — cached runs stay byte-identical to uncached ones.

Invalidation is version-precise and transitive.  Each entry records
dependency edges at insert time: the prompt versions it read, the
``(key, value-digest)`` pairs it read from C, and the values it wrote
(digested when an invalidation walk meets a reader of their key).
When a refinement bumps a prompt version (observed via ``REFINE`` /
``MERGE`` / ``VIEW_EXPAND`` events on a subscribed log), entries pinned
to older versions of that key die, then the closure chases writer →
reader edges: anything that consumed a dead entry's output dies too.
Entries that depend on *other* prompts — or on the refined prompt at its
new version — survive and keep hitting.

Correctness notes:

- Fingerprints include a digest of the prompt *text*, not just the
  version number, so cloned stores whose histories diverged at the same
  version can never alias.
- Stale entries can never produce a hit even if an invalidation event is
  missed (manual ``entry.record`` calls, lane logs folded late): the
  version/text digest in the fingerprint already misses.  Event-driven
  invalidation exists to reclaim memory and to account precisely.
- One owner: a cache belongs to the thread that first runs it (see
  :func:`repro.obs.ledger.claim_run`).  Two lanes may both execute the
  same miss; both compute the identical delta (execution is
  deterministic), so duplicate inserts are harmless.
- Shadow runs (:func:`repro.runtime.shadow.shadow_run`) share the cache
  through :meth:`ResultCache.read_only`: hits splice, but nothing the
  shadow does can insert or invalidate.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.footprint import Footprint, immutable_by_type, stable_digest
from repro.runtime.events import EventKind, EventLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import Context
    from repro.core.metadata import Metadata
    from repro.core.state import ExecutionState
    from repro.core.store import PromptStore

__all__ = ["CachedDelta", "ReadOnlyResultCache", "ResultCache"]

#: the event kinds that may bump a prompt version.
_REFINING = frozenset({EventKind.REFINE, EventKind.MERGE, EventKind.VIEW_EXPAND})

# Mutation-op tags recorded during live execution and re-applied on hits.
_CTX_PUT = "ctx_put"
_CTX_DEL = "ctx_del"
_META_SET = "meta_set"
_META_INC = "meta_inc"


@dataclass(frozen=True)
class CachedDelta:
    """The replayable effect of one operator application.

    ``ops`` is the exact mutation sequence the live run performed against
    C and M; ``elapsed`` is the simulated time the live run cost (what a
    hit saves); ``writes`` are the ``(key, value, digest)`` triples
    written into C, used to chain transitive invalidation edges.  A value
    that is not immutable by type is digested at write time, so an
    in-place mutation afterwards cannot move its edge; an immutable one
    (``digest`` None) only when an invalidation walk meets a reader of
    its key.
    """

    footprint: Footprint
    ops: tuple[tuple[Any, ...], ...]
    elapsed: float
    writes: tuple[tuple[str, Any, str | None], ...]

    def replay(self, state: "ExecutionState") -> None:
        """Re-apply the recorded mutations to ``state``."""
        context = state.context
        metadata = state.metadata
        for op in self.ops:
            tag = op[0]
            if tag == _CTX_PUT:
                context.put(op[1], op[2], producer=op[3])
            elif tag == _CTX_DEL:
                if op[1] in context:
                    del context[op[1]]
            elif tag == _META_SET:
                metadata.set(op[1], op[2])
            elif tag == _META_INC:
                metadata.increment(op[1], op[2])


class _RecordingContext:
    """Context proxy that forwards everything and logs mutations."""

    def __init__(self, inner: "Context", ops: list[tuple[Any, ...]]) -> None:
        self._inner = inner
        self._ops = ops

    # mutations — recorded, then forwarded
    def put(self, key: str, value: Any, *, producer: str = "unknown") -> None:
        self._ops.append((_CTX_PUT, key, value, producer))
        self._inner.put(key, value, producer=producer)

    def update(
        self, values: Mapping[str, Any], *, producer: str = "unknown"
    ) -> None:
        for key, value in values.items():
            self.put(key, value, producer=producer)

    def __setitem__(self, key: str, value: Any) -> None:
        self.put(key, value)

    def __delitem__(self, key: str) -> None:
        self._ops.append((_CTX_DEL, key))
        del self._inner[key]

    # reads — plain delegation (dunders bypass __getattr__)
    def __getitem__(self, key: str) -> Any:
        return self._inner[key]

    def __contains__(self, key: object) -> bool:
        return key in self._inner

    def __iter__(self):
        return iter(self._inner)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _RecordingMetadata:
    """Metadata proxy that forwards everything and logs mutations."""

    def __init__(self, inner: "Metadata", ops: list[tuple[Any, ...]]) -> None:
        self._inner = inner
        self._ops = ops

    def set(self, key: str, value: Any) -> None:
        self._ops.append((_META_SET, key, value))
        self._inner.set(key, value)

    def __setitem__(self, key: str, value: Any) -> None:
        self.set(key, value)

    def increment(self, key: str, amount: float = 1) -> float:
        # Recorded as a *relative* op: replaying under a different prior
        # value must still add, not clobber with a stale absolute.
        self._ops.append((_META_INC, key, amount))
        return self._inner.increment(key, amount)

    def update(self, values: Mapping[str, Any]) -> None:
        for key, value in values.items():
            self.set(key, value)

    def __getitem__(self, key: str) -> Any:
        return self._inner[key]

    def __contains__(self, key: object) -> bool:
        return key in self._inner

    def __iter__(self):
        return iter(self._inner)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _Recording:
    """Swaps recording proxies into a state for one operator application."""

    def __init__(self, state: "ExecutionState") -> None:
        self.ops: list[tuple[Any, ...]] = []
        self._state = state
        self._context = state.context
        self._metadata = state.metadata
        state.context = _RecordingContext(self._context, self.ops)  # type: ignore[assignment]
        state.metadata = _RecordingMetadata(self._metadata, self.ops)  # type: ignore[assignment]

    def restore(self) -> None:
        """Put the real C and M back (always runs, hit or raise)."""
        self._state.context = self._context
        self._state.metadata = self._metadata

    def delta(self, footprint: Footprint, elapsed: float) -> CachedDelta:
        """Freeze the recorded mutations into a cacheable delta."""
        writes = tuple(
            (op[1], op[2], None if immutable_by_type(op[2]) else stable_digest(op[2]))
            for op in self.ops
            if op[0] == _CTX_PUT
        )
        return CachedDelta(
            footprint=footprint,
            ops=tuple(self.ops),
            elapsed=elapsed,
            writes=writes,
        )


class ResultCache:
    """LRU memo of operator results, with dependency-edge invalidation."""

    def __init__(self, *, capacity: int = 2048, hit_cost: float = 0.001) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if hit_cost < 0:
            raise ValueError(f"hit_cost must be >= 0, got {hit_cost}")
        self.capacity = capacity
        #: simulated seconds a cache hit charges to the virtual clock —
        #: the lookup is not free, but it is ~0 next to an LLM call.
        self.hit_cost = hit_cost
        self._entries: OrderedDict[str, CachedDelta] = OrderedDict()
        #: prompt key → digests of entries that read it (any version).
        self._by_prompt: dict[str, set[str]] = {}
        #: context key → value digest → digests of entries that read it.
        self._by_read: dict[str, dict[str, set[str]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.saved_seconds = 0.0
        #: logs already wired; weak, so a collected log's recycled id()
        #: never passes for a new one.
        self._watched: weakref.WeakSet[EventLog] = weakref.WeakSet()

    # -- the executor-facing protocol ---------------------------------------

    def lookup(self, footprint: Footprint) -> CachedDelta | None:
        """Return the cached delta for ``footprint``, counting hit/miss."""
        digest = footprint.digest
        delta = self._entries.get(digest)
        if delta is None:
            self.misses += 1
            return None
        self._entries.move_to_end(digest)
        self.hits += 1
        self.saved_seconds += max(delta.elapsed - self.hit_cost, 0.0)
        return delta

    def recorder(self, state: "ExecutionState") -> _Recording | None:
        """Start recording a live execution for later insertion."""
        return _Recording(state)

    def insert(self, footprint: Footprint, delta: CachedDelta) -> None:
        """Store ``delta`` and record its dependency edges."""
        digest = footprint.digest
        if digest in self._entries:
            self._entries.move_to_end(digest)
            return
        self._entries[digest] = delta
        for key in footprint.prompt_keys:
            self._by_prompt.setdefault(key, set()).add(digest)
        for key, value_digest in footprint.context_reads:
            readers = self._by_read.setdefault(key, {})
            readers.setdefault(value_digest, set()).add(digest)
        while len(self._entries) > self.capacity:
            self._remove(next(iter(self._entries)))
            self.evictions += 1

    # -- invalidation --------------------------------------------------------

    def invalidate_prompt(
        self, key: str, *, keep_version: int | None = None
    ) -> int:
        """Invalidate entries depending on prompt ``key`` — transitively.

        Entries whose recorded dependency on ``key`` is at a version other
        than ``keep_version`` seed the invalidation (pass ``None`` to kill
        every version); the closure then follows writer → reader edges, so
        downstream entries that consumed a dead entry's context output die
        with it.  Returns the number of entries removed.
        """
        seeds = set()
        for digest in self._by_prompt.get(key, ()):
            delta = self._entries.get(digest)
            if delta is None:
                continue
            for dep_key, version, _text, _params in delta.footprint.prompt_deps:
                if dep_key == key and version != keep_version:
                    seeds.add(digest)
                    break
        queue = deque(seeds)
        dead: set[str] = set()
        while queue:
            digest = queue.popleft()
            if digest in dead or digest not in self._entries:
                continue
            dead.add(digest)
            for written, value, value_digest in self._entries[digest].writes:
                readers = self._by_read.get(written)
                if readers is None:
                    continue  # nothing cached reads the key: never hashed
                if value_digest is None:
                    value_digest = stable_digest(value)
                for reader in readers.get(value_digest, ()):
                    if reader not in dead:
                        queue.append(reader)
        for digest in dead:
            self._remove(digest)
        self.invalidations += len(dead)
        return len(dead)

    def _remove(self, digest: str) -> None:
        delta = self._entries.pop(digest, None)
        if delta is None:
            return
        for key in delta.footprint.prompt_keys:
            bucket = self._by_prompt.get(key)
            if bucket is not None:
                bucket.discard(digest)
                if not bucket:
                    del self._by_prompt[key]
        for key, value_digest in delta.footprint.context_reads:
            readers = self._by_read.get(key)
            bucket = readers.get(value_digest) if readers is not None else None
            if bucket is not None:
                bucket.discard(digest)
                if not bucket:
                    del readers[value_digest]
                    if not readers:
                        del self._by_read[key]

    def subscribe_to(self, log: EventLog, store: "PromptStore") -> None:
        """Invalidate on refinement events from ``store``'s executions.

        Idempotent per log.  The listener is bound to ``store`` so that
        refinements of *cloned* stores (shadow runs fork with isolated
        prompts but share the event log) do not invalidate entries that
        are still valid for the primary store: a ``REFINE`` event whose
        new version does not match the bound store's current version is
        ignored as foreign.
        """
        if log in self._watched:
            return
        self._watched.add(log)

        def _on_event(event: Any, _store: "PromptStore" = store) -> None:
            kind = event.kind
            if kind not in _REFINING:
                return
            key = event.payload.get("into" if kind is EventKind.MERGE else "key")
            if key is None or key not in _store:
                return
            current = _store[key].version
            version = event.payload.get("version")
            if version is not None and version != current:
                return  # a clone's refinement, not ours
            self.invalidate_prompt(key, keep_version=current)

        log.subscribe(_on_event)

    # -- sharing / introspection ---------------------------------------------

    def read_only(self) -> "ReadOnlyResultCache":
        """A view that can hit but never insert or invalidate (shadow runs)."""
        return ReadOnlyResultCache(self)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
        self._by_prompt.clear()
        self._by_read.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, float]:
        """Point-in-time statistics for gauges, reports and run deltas."""
        return {
            "entries": float(len(self._entries)),
            "capacity": float(self.capacity),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "invalidations": float(self.invalidations),
            "evictions": float(self.evictions),
            "saved_seconds": self.saved_seconds,
            "hit_cost": self.hit_cost,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, invalidations={self.invalidations})"
        )


class ReadOnlyResultCache:
    """A shared view of a :class:`ResultCache` that cannot mutate it.

    Shadow runs consult the primary's cache (their forked stores start
    text-identical, so hits are valid by fingerprint) but must not insert
    speculative results or invalidate primary entries when they refine
    their cloned prompts.
    """

    def __init__(self, inner: ResultCache) -> None:
        self._inner = inner

    @property
    def hit_cost(self) -> float:
        return self._inner.hit_cost

    def lookup(self, footprint: Footprint) -> CachedDelta | None:
        return self._inner.lookup(footprint)

    def recorder(self, state: "ExecutionState") -> None:
        return None  # nothing to record — inserts are dropped

    def insert(self, footprint: Footprint, delta: CachedDelta) -> None:
        return None

    def invalidate_prompt(self, key: str, **_: Any) -> int:
        return 0

    def subscribe_to(self, log: EventLog, store: "PromptStore") -> None:
        return None

    def read_only(self) -> "ReadOnlyResultCache":
        return self

    def snapshot(self) -> dict[str, float]:
        return self._inner.snapshot()

    def __len__(self) -> int:
        return len(self._inner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReadOnlyResultCache({self._inner!r})"
