"""Sharded coordinator/worker partition service.

Splits the record file across ``W`` shard machines by a sampled
top-level splitter set, runs the lazy online engine per shard, and
merges partial answers (rank offsets, bucket counts, leaf offsets) at
the coordinator.  Communication is a first-class, charged resource:
every message through an :class:`Endpoint` costs block I/O on both
endpoints (:mod:`repro.em.wire`) and shows up in traces, metrics, and
the budget gate.  The coordinator holds only endpoints, never a worker.  The :class:`ShardRouter` speaks the
single-machine engine protocol, so the existing
:class:`~repro.service.frontend.QueryFrontend` fronts either path
unchanged.
"""

from .router import ShardRouter, build_sharded_service
from .transport import Endpoint, Message, ShardError
from .worker import (
    PROTOCOL,
    InProcessWorkerPool,
    ProcessWorkerPool,
    ShardWorker,
    WORKER_KINDS,
    make_pool,
)

__all__ = [
    "ShardRouter",
    "build_sharded_service",
    "Message",
    "Endpoint",
    "ShardError",
    "PROTOCOL",
    "ShardWorker",
    "InProcessWorkerPool",
    "ProcessWorkerPool",
    "WORKER_KINDS",
    "make_pool",
]
