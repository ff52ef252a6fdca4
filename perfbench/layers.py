"""Per-layer timing: span wrappers around each layer's public calls.

A :class:`Tracer` replaces the public entry points of every served layer
with thin wrappers that time each call.  Spans nest on one stack, so a
span's *self* time is its duration minus the spans that ran inside it,
and the self times of all layers partition the traced wall time.  The
wrappers read only the wall clock and the machines' lifetime counters;
they charge nothing, so a traced run moves exactly the blocks an
untraced run moves (the benchmark checks this every traced run).

Layers, named after the modules they wrap:

* ``em``      — ``Disk.read``/``write``/``read_many``/``write_many``;
* ``kernel``  — the production :class:`KernelBackend`'s methods;
* ``wire``    — ``Endpoint.send``/``recv`` (the charged transport);
* ``core``    — the paper's entry points in ``core/`` and the ``alg/``
  routines the service calls directly;
* ``service`` — ``QueryFrontend.flush``, the engines' query and update
  calls, ``DurableStore.write_snapshot``;
* ``shard``   — ``ShardRouter``, the worker pool and ``ShardWorker.step``.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

KERNEL_METHODS = (
    "gather_blocks",
    "scatter_blocks",
    "concat",
    "sort_by_composite",
    "bucket_of",
    "partition_at",
    "rank_order",
    "group_by_bucket",
)

#: Core entry points by family: (module, function names).
CORE_ENTRIES = {
    "core.partition": (
        "repro.core.partitioning",
        (
            "approximate_partition",
            "right_grounded_partition",
            "left_grounded_partition",
            "two_sided_partition",
        ),
    ),
    "core.splitters": (
        "repro.core.splitters",
        (
            "approximate_splitters",
            "right_grounded_splitters",
            "left_grounded_splitters",
            "two_sided_splitters",
        ),
    ),
    "core.multiselect": (
        "repro.core.multiselect",
        ("multi_select", "multi_select_streamed"),
    ),
}

#: ``alg/`` routines the service and shard layers call directly.
ALG_ROUTINES = (
    ("repro.alg.inmemory", "select_at_ranks"),
    ("repro.alg.multipartition", "multi_partition"),
    ("repro.alg.sampling", "approx_quantile_pivots"),
    ("repro.alg.distribute", "distribute_by_pivots"),
)


class Tracer:
    """Span statistics keyed by span name, plus the per-layer extras.

    ``io_total`` is a zero-argument callable returning the lifetime
    block transfers of every machine in the current repetition; the
    core entry wrappers use it to meter I/O per input record.
    """

    def __init__(self) -> None:
        self.io_total = lambda: 0
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive time of spans with no enclosing span of their layer.
        self.outer: dict[str, float] = defaultdict(float)
        self.em_blocks = 0
        self.core_io = 0
        self.core_records = 0

    def snapshot(self) -> dict:
        """A frozen copy of every statistic."""
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_s),
            "outer": dict(self.outer),
            "em_blocks": self.em_blocks,
            "core_io": self.core_io,
            "core_records": self.core_records,
        }

    # -- spans -----------------------------------------------------------
    def _enter(self, layer: str) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def _exit(self, name: str, layer: str, frame: list[float], dt: float) -> None:
        self._stack.pop()
        self._depth[layer] -= 1
        if self._stack:
            self._stack[-1][0] += dt
        self.incl[name] += dt
        self.self_s[name] += dt - frame[0]
        if self._depth[layer] == 0:
            self.outer[name] += dt

    def wrap(self, name: str, layer: str, fn, blocks=None):
        """``fn`` timed as a span; ``blocks(args)`` counts em blocks moved."""
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if blocks is not None:
                tracer.em_blocks += blocks(args)
            tracer.calls[name] += 1
            frame = tracer._enter(layer)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, layer, frame, perf_counter() - t0)

        return span

    def wrap_iter(self, name: str, layer: str, fn):
        """A generator-returning ``fn``: each ``next`` is one span, so the
        consumer's loop body between items is not charged to it."""
        tracer = self

        @functools.wraps(fn)
        def spans(*args, **kwargs):
            tracer.calls[name] += 1
            it = iter(fn(*args, **kwargs))
            while True:
                frame = tracer._enter(layer)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, layer, frame, perf_counter() - t0)
                yield item

        return spans

    def wrap_entry(self, name: str, fn):
        """A core entry point ``fn(machine, file, ...)``: also meters the
        I/O and input records of calls made from outside ``core``."""
        tracer = self
        span = self.wrap(name, "core", fn)

        @functools.wraps(fn)
        def entry(machine, file, *args, **kwargs):
            if tracer._depth["core"]:
                return span(machine, file, *args, **kwargs)
            io0 = tracer.io_total()
            try:
                return span(machine, file, *args, **kwargs)
            finally:
                tracer.core_io += tracer.io_total() - io0
                tracer.core_records += len(file)

        return entry

    # -- patching --------------------------------------------------------
    def patch_method(self, cls, attr: str, wrapped_of) -> None:
        """Replace ``cls.attr`` (own or inherited) by ``wrapped_of(fn)``."""
        own = cls.__dict__.get(attr)
        setattr(cls, attr, wrapped_of(getattr(cls, attr)))
        if own is None:
            self._undo.append(lambda: delattr(cls, attr))
        else:
            self._undo.append(lambda: setattr(cls, attr, own))

    def patch_function(self, module: str, attr: str, wrapped_of) -> None:
        """Replace a function in every loaded program module bound to it."""
        fn = getattr(sys.modules[module], attr)
        wrapped = wrapped_of(fn)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, name, wrapped)
                    self._undo.append(functools.partial(setattr, mod, name, fn))

    def install(self) -> None:
        """Wrap every layer's public calls (idempotent only via uninstall)."""
        from repro.em.disk import Disk
        from repro.em.kernels import get_kernel
        from repro.service.durability import DurableStore
        from repro.service.frontend import QueryFrontend
        from repro.service.index import PartitionIndex
        from repro.service.online import LazyPartitionIndex
        from repro.shard.router import ShardRouter
        from repro.shard.transport import Endpoint
        from repro.shard.worker import InProcessWorkerPool, ShardWorker

        def one(args):
            return 1

        def many(args):
            return len(args[1])

        for attr, blocks in (
            ("read", one), ("write", one), ("read_many", many), ("write_many", many)
        ):
            self.patch_method(
                Disk, attr, lambda fn, b=blocks: self.wrap("em.io", "em", fn, b)
            )
        kernel_cls = type(get_kernel())
        for attr in KERNEL_METHODS:
            wrap = self.wrap_iter if attr == "group_by_bucket" else self.wrap
            self.patch_method(
                kernel_cls, attr, lambda fn, a=attr, w=wrap: w(f"kernel.{a}", "kernel", fn)
            )
        for attr in ("send", "recv"):
            self.patch_method(Endpoint, attr, lambda fn: self.wrap("wire", "wire", fn))
        for name, (module, attrs) in CORE_ENTRIES.items():
            for attr in attrs:
                self.patch_function(
                    module, attr, lambda fn, n=name: self.wrap_entry(n, fn)
                )
        for module, attr in ALG_ROUTINES:
            self.patch_function(
                module, attr, lambda fn: self.wrap("core.alg", "core", fn)
            )
        self.patch_method(
            QueryFrontend, "flush", lambda fn: self.wrap("service.flush", "service", fn)
        )
        for engine in (LazyPartitionIndex, PartitionIndex):
            for attr in ("batch_select", "range_count", "partition_of"):
                self.patch_method(
                    engine, attr, lambda fn: self.wrap("service.engine", "service", fn)
                )
        self.patch_method(
            PartitionIndex,
            "flush_updates",
            lambda fn: self.wrap("service.update_flush", "service", fn),
        )
        self.patch_method(
            DurableStore,
            "write_snapshot",
            lambda fn: self.wrap("durability.snapshot", "service", fn),
        )
        for attr in ("batch_select", "range_count", "partition_of", "shard_io_stats"):
            self.patch_method(
                ShardRouter, attr, lambda fn: self.wrap("shard.router", "shard", fn)
            )
        self.patch_function(
            "repro.shard.router",
            "build_sharded_service",
            lambda fn: self.wrap("shard.router", "shard", fn),
        )
        self.patch_method(
            InProcessWorkerPool, "request", lambda fn: self.wrap("shard.pool", "shard", fn)
        )
        self.patch_method(
            ShardWorker, "step", lambda fn: self.wrap("shard.worker", "shard", fn)
        )

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()


def layer_times(snap: dict) -> dict[str, float]:
    """Per-layer times (seconds) from one :meth:`Tracer.snapshot` delta.

    ``core.{partition,splitters,multiselect}_s``, ``service.update_flush_s``
    and ``durability.snapshot_s`` are inclusive; every other time is self
    time, so it excludes the wrapped layers below it.
    """
    self_s, outer, incl = snap["self"], snap["outer"], snap["incl"]

    def self_of(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    out = {f"kernel.{m}_s": self_s.get(f"kernel.{m}", 0.0) for m in KERNEL_METHODS}
    out.update({
        "em.io_s": self_s.get("em.io", 0.0),
        "wire.s": self_s.get("wire", 0.0),
        "core.partition_s": outer.get("core.partition", 0.0),
        "core.splitters_s": outer.get("core.splitters", 0.0),
        "core.multiselect_s": outer.get("core.multiselect", 0.0),
        "core.self_s": self_of("core."),
        "service.flush_s": self_s.get("service.flush", 0.0),
        "service.engine_s": self_s.get("service.engine", 0.0),
        "service.update_flush_s": incl.get("service.update_flush", 0.0),
        "durability.snapshot_s": incl.get("durability.snapshot", 0.0),
        "shard.router_s": self_s.get("shard.router", 0.0) + self_s.get("shard.pool", 0.0),
        "shard.worker_s": self_s.get("shard.worker", 0.0),
    })
    return out
