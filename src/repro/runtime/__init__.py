"""SPEAR runtime: executor, events, shadow execution, replay, KV backends."""

from repro.runtime.clock import VirtualClock
from repro.runtime.events import Event, EventKind, EventLog
from repro.runtime.executor import Executor, RunResult
from repro.runtime.kvstore import (
    InMemoryBackend,
    JournalingBackend,
    KeyValueBackend,
    LatencyModelBackend,
)
from repro.runtime.batch import BatchResult, BatchRunner, ItemResult
from repro.runtime.parallel import ParallelBatchRunner
from repro.runtime.incremental import IterationReport, LoopReport, RefinementLoop
from repro.runtime.options import RuntimeOptions
from repro.runtime.persistence import load_store, save_store, store_from_dict, store_to_dict
from repro.runtime.result_cache import CachedDelta, ReadOnlyResultCache, ResultCache
from repro.runtime.scheduler import PriorityClass, SchedulerConfig
from repro.runtime.replay import ReplayStep, export_replay_log, replay, verify_replay
from repro.runtime.tracing import (
    export_events,
    import_events,
    render_timeline,
)
from repro.runtime.shadow import ShadowReport, compare_states, shadow_run

__all__ = [
    "VirtualClock",
    "Event",
    "EventKind",
    "EventLog",
    "Executor",
    "RunResult",
    "InMemoryBackend",
    "JournalingBackend",
    "KeyValueBackend",
    "LatencyModelBackend",
    "BatchResult",
    "BatchRunner",
    "ItemResult",
    "ParallelBatchRunner",
    "CachedDelta",
    "ReadOnlyResultCache",
    "ResultCache",
    "IterationReport",
    "LoopReport",
    "RefinementLoop",
    "RuntimeOptions",
    "PriorityClass",
    "SchedulerConfig",
    "load_store",
    "save_store",
    "store_from_dict",
    "store_to_dict",
    "render_timeline",
    "export_events",
    "import_events",
    "ReplayStep",
    "export_replay_log",
    "replay",
    "verify_replay",
    "ShadowReport",
    "compare_states",
    "shadow_run",
]
