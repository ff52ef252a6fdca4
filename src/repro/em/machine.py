"""The external-memory machine: disk + enforced memory budget.

A :class:`Machine` bundles a :class:`~repro.em.disk.Disk` with a
:class:`MemoryAccountant` that enforces the model's memory capacity ``M``
(measured in records).  Algorithms *lease* memory for every
data-proportional working set — block buffers, in-memory arrays, per-group
control state — and the accountant raises
:class:`~repro.em.errors.MemoryBudgetError` if the total ever exceeds ``M``.
A lease charges only while it is held: inside its ``with`` block, or
between an owner's ``acquire()`` and ``close()``.

This keeps the simulation honest: a "linear I/O" algorithm that secretly
keeps the whole input in a Python list would fail its lease.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

from .disk import Disk, IOCounters
from .kernels import KernelBackend
from .errors import (
    DoubleReleaseError,
    LeaseError,
    LeaseLeakError,
    MemoryBudgetError,
)

__all__ = [
    "Machine",
    "MemoryAccountant",
    "MemoryLease",
    "observe_machines",
    "sanitize_default",
]

#: Environment variable that switches every new :class:`Machine` into
#: strict sanitizer mode (``EM_SANITIZE=1`` — any of 1/true/yes/on).
SANITIZE_ENV = "EM_SANITIZE"


def sanitize_default() -> bool:
    """The sanitize mode new machines inherit when not told explicitly:
    true iff ``EM_SANITIZE`` is set to ``1``/``true``/``yes``/``on``."""
    return os.environ.get(SANITIZE_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )

#: Callbacks invoked with every newly constructed :class:`Machine` while an
#: :func:`observe_machines` context is active.
_construction_hooks: list[Callable[["Machine"], None]] = []


@contextmanager
def observe_machines(callback: Callable[["Machine"], None]) -> Iterator[None]:
    """Invoke ``callback(machine)`` for every Machine built in the body.

    The experiment runner uses this to collect every machine an
    experiment constructs and aggregate their lifetime resource usage
    (I/Os, comparisons, memory/disk peaks) without the experiments
    having to report anything themselves.  Reentrant; observing is
    per-process (workers observe their own machines).
    """
    _construction_hooks.append(callback)
    try:
        yield
    finally:
        _construction_hooks.remove(callback)


class MemoryLease:
    """A reservation of ``size`` records of machine memory.

    Created uncharged by :meth:`MemoryAccountant.lease`; the records are
    charged when the lease is entered (``with lease:``) and returned when
    the block exits, so a lease that is never entered holds nothing.  An
    owner that holds memory for its whole life calls :meth:`acquire`
    (what ``__enter__`` runs) once and :meth:`release` in its
    ``close()``.  Acquiring twice, or resizing or releasing a lease that
    was never acquired or is already released, is an error.  Leases can
    be :meth:`resize`-d, which is convenient for buffers that grow and
    shrink during a scan.
    """

    __slots__ = ("_accountant", "_size", "_acquired", "_released", "label")

    def __init__(self, accountant: "MemoryAccountant", size: int, label: str) -> None:
        self._accountant = accountant
        self._size = size
        self._acquired = False
        self._released = False
        self.label = label

    @property
    def size(self) -> int:
        return self._size

    @property
    def acquired(self) -> bool:
        """True once the lease has been charged (also after release)."""
        return self._acquired

    @property
    def released(self) -> bool:
        return self._released

    def acquire(self) -> "MemoryLease":
        """Charge the lease against ``M`` and return it; raises
        MemoryBudgetError if it does not fit."""
        if self._acquired:
            raise LeaseError(f"lease {self.label!r} already acquired")
        self._accountant._acquire(self)
        self._acquired = True
        return self

    def resize(self, new_size: int) -> None:
        """Grow or shrink the lease to ``new_size`` records."""
        if self._released or not self._acquired:
            raise LeaseError(f"lease {self.label!r} is not held")
        self._accountant._resize(self, new_size)

    def release(self) -> None:
        """Return the leased records to the pool."""
        if not self._acquired:
            raise LeaseError(f"lease {self.label!r} was never acquired")
        if self._released:
            if self._accountant.sanitize:
                raise DoubleReleaseError(
                    f"lease {self.label!r} released twice"
                )
            raise LeaseError(f"lease {self.label!r} already released")
        self._accountant._release(self)
        self._released = True

    def __enter__(self) -> "MemoryLease":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        if not self._released:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "released" if self._released
            else "active" if self._acquired
            else "not acquired"
        )
        return f"MemoryLease({self.label!r}, size={self._size}, {state})"


class MemoryAccountant:
    """Tracks leased memory against the capacity ``M``."""

    def __init__(self, capacity: int, *, sanitize: bool = False) -> None:
        if capacity < 1:
            raise ValueError("memory capacity must be >= 1")
        self._capacity = int(capacity)
        self._in_use = 0
        self._peak = 0
        # Notified through ``on_memory(in_use)`` after every
        # lease/resize/release; a Machine shares its one observer list
        # here (see Machine.add_observer).
        self._observers: list = []
        # Sanitize mode keeps the set of live leases so teardown can
        # name exactly which labels leaked (see Machine.close); lenient
        # mode tracks nothing.
        self._sanitize = bool(sanitize)
        self._live_leases: set[MemoryLease] = set()

    @property
    def sanitize(self) -> bool:
        """True when the strict runtime sanitizer is enabled."""
        return self._sanitize

    @property
    def live_leases(self) -> tuple["MemoryLease", ...]:
        """The currently active leases (sanitize mode only; always empty
        in lenient mode, which does not track lease identity)."""
        return tuple(self._live_leases)

    def _notify(self) -> None:
        for obs in self._observers:
            obs.on_memory(self._in_use)

    @property
    def capacity(self) -> int:
        """Total memory in records (the model's ``M``)."""
        return self._capacity

    @property
    def in_use(self) -> int:
        """Records currently leased."""
        return self._in_use

    @property
    def available(self) -> int:
        """Records not currently leased."""
        return self._capacity - self._in_use

    @property
    def peak(self) -> int:
        """High-water mark of leased records."""
        return self._peak

    def reset_peak(self) -> None:
        self._peak = self._in_use

    def lease(self, size: int, label: str = "") -> MemoryLease:
        """A lease of ``size`` records, charged when it is entered or
        acquired (see :class:`MemoryLease`); nothing is charged here."""
        if size < 0:
            raise ValueError("lease size must be >= 0")
        return MemoryLease(self, size, label)

    def _acquire(self, lease: MemoryLease) -> None:
        size = lease._size
        if self._in_use + size > self._capacity:
            raise MemoryBudgetError(size, self._in_use, self._capacity, lease.label)
        self._in_use += size
        self._peak = max(self._peak, self._in_use)
        if self._observers:
            self._notify()
        if self._sanitize:
            self._live_leases.add(lease)

    def _resize(self, lease: MemoryLease, new_size: int) -> None:
        if new_size < 0:
            raise ValueError("lease size must be >= 0")
        delta = new_size - lease._size
        if self._in_use + delta > self._capacity:
            # Report the requested *new size* (not the delta, which can
            # even be negative) and which lease asked for it.
            raise MemoryBudgetError(
                new_size, self._in_use, self._capacity, lease.label
            )
        self._in_use += delta
        self._peak = max(self._peak, self._in_use)
        lease._size = new_size
        if self._observers:
            self._notify()

    def _release(self, lease: MemoryLease) -> None:
        self._in_use -= lease._size
        if self._sanitize:
            self._live_leases.discard(lease)
        if self._observers:
            self._notify()


class Machine:
    """An external-memory machine with memory ``M`` and block size ``B``.

    Parameters
    ----------
    memory:
        Memory capacity ``M`` in records.  Must be at least ``2 * block``
        (the model requires ``M >= 2B``).
    block:
        Block size ``B`` in records.
    sanitize:
        Enable the strict runtime sanitizer: use-after-free / double-free
        / uninitialized-read detection on the disk, double-release and
        teardown lease-leak detection on the accountant, and
        counter-conservation checking in the span tracer.  ``None`` (the
        default) inherits the process-wide :func:`sanitize_default`
        (the ``EM_SANITIZE`` environment variable).
    kernel:
        Data-movement backend for the hot paths.  ``None`` (the default)
        is the production backend; tests pass a
        :class:`~repro.em.kernels.KernelBackend` instance such as the
        ``NumpyV1Kernel`` reference.  Backends are byte- and
        counter-identical by contract; the backend is recorded in trace
        metadata.

    Examples
    --------
    >>> from repro.em import Machine
    >>> mach = Machine(memory=4096, block=64)
    >>> mach.M, mach.B, mach.fanout
    (4096, 64, 64)
    """

    def __init__(
        self,
        memory: int,
        block: int,
        *,
        sanitize: bool | None = None,
        kernel: KernelBackend | None = None,
        label: str = "",
    ) -> None:
        if block < 1:
            raise ValueError("block size B must be >= 1")
        if memory < 2 * block:
            raise ValueError("model requires M >= 2B")
        self._M = int(memory)
        self._label = str(label)
        self._B = int(block)
        if sanitize is None:
            sanitize = sanitize_default()
        self._sanitize = bool(sanitize)
        self.disk = Disk(block, sanitize=self._sanitize, kernel=kernel)
        self.memory = MemoryAccountant(memory, sanitize=self._sanitize)
        self._comparisons = 0
        self._lifetime_comparisons = 0
        # The one observer list (see add_observer): the disk and the
        # accountant notify through it too.
        self._observers: list = []
        self.disk._observers = self.memory._observers = self._observers
        for cb in list(_construction_hooks):
            cb(self)

    def add_observer(self, observer) -> None:
        """Register an observer of this machine's model-visible activity.

        One registration covers the disk, the accountant and the
        comparison counter.  ``observer`` must provide six methods (the
        :class:`repro.obs.Tracer`'s per-machine trace is the canonical
        implementation):

        * ``on_phase_push(label, path)`` / ``on_phase_pop(label, path)``
          — a :meth:`phase` context was entered / exited (``path`` is
          the joined stack path including ``label``);
        * ``on_io(read: bool, count: int)`` — ``count`` I/Os were
          charged (only *counted* I/Os; :meth:`uncounted` work is
          invisible to observers, exactly as it is to the counters);
        * ``on_blocks(live: int)`` — the live-block count changed;
        * ``on_memory(in_use: int)`` — the leased total changed;
        * ``on_comparisons(count: int)`` — :meth:`charge_comparisons`
          charged ``count`` comparisons.
        """
        self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Unregister an observer added with :meth:`add_observer`."""
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Model parameters
    # ------------------------------------------------------------------
    @property
    def M(self) -> int:
        """Memory capacity in records."""
        return self._M

    @property
    def B(self) -> int:
        """Block size in records."""
        return self._B

    @property
    def fanout(self) -> int:
        """``M / B`` — the model's branching parameter."""
        return self._M // self._B

    @property
    def label(self) -> str:
        """Optional display name (e.g. ``"shard-3"``) stamped into traces
        and metrics labels; ``""`` for anonymous machines."""
        return self._label

    @property
    def sanitize(self) -> bool:
        """True when the strict runtime sanitizer is enabled."""
        return self._sanitize

    @property
    def kernel(self) -> KernelBackend:
        """The data-movement backend this machine dispatches to.

        Algorithm code routes every record-movement primitive —
        concatenation, composite sort, bucket lookup, chunk grouping,
        rank partitioning — through this object (emlint rule R6 enforces
        it), so a backend swap changes wall-clock behaviour only.
        """
        return self.disk.kernel

    @property
    def load_limit(self) -> int:
        """Largest in-memory load an algorithm phase should attempt *now*:
        the currently unleased memory minus two block buffers (a reader
        and a writer), floored at one block.

        Adaptive rather than the static ``M - 2B`` so that composed
        algorithms — e.g. a base case running while its caller holds an
        answer-writer buffer and a small control lease — automatically
        shrink their chunk sizes instead of blowing the budget.
        """
        return max(self._B, self.memory.available - 2 * self._B)

    # ------------------------------------------------------------------
    # Accounting conveniences (delegate to the disk)
    # ------------------------------------------------------------------
    @property
    def io(self) -> IOCounters:
        """Live I/O counters."""
        return self.disk.counters

    def snapshot(self) -> IOCounters:
        """Frozen copy of the I/O counters."""
        return self.disk.snapshot()

    @property
    def comparisons(self) -> int:
        """Key comparisons performed since the last counter reset (the
        model's CPU cost; see :mod:`repro.em.comparisons`)."""
        return self._comparisons

    @property
    def lifetime_comparisons(self) -> int:
        """Cumulative comparisons over the machine's whole life — the
        analogue of :attr:`Disk.lifetime`, preserved across
        :meth:`reset_counters`."""
        return self._lifetime_comparisons

    def charge_comparisons(self, count: float) -> None:
        """Add ``count`` comparisons (rounded up) to the CPU counter."""
        import math

        charge = int(math.ceil(count))
        self._comparisons += charge
        self._lifetime_comparisons += charge
        for obs in self._observers:
            obs.on_comparisons(charge)

    def reset_counters(self) -> None:
        self.disk.reset_counters()
        self._comparisons = 0

    def phase(self, label: str):
        """Context manager attributing I/Os to ``label``."""
        return self.disk.phase(label)

    def uncounted(self):
        """Context manager suspending I/O counting (setup/verification)."""
        return self.disk.uncounted()

    @contextmanager
    def measure(self, label: str = "") -> Iterator[IOCounters]:
        """Yield a counter object that, after the block exits, holds the
        I/Os and comparisons performed inside the ``with`` body.

        The result is a frozen delta: its ``by_phase`` dict is a private
        copy (mutating it never touches the live counters) and its
        ``comparisons`` field carries the CPU-cost delta alongside the
        I/Os.

        >>> mach = Machine(memory=4096, block=64)
        >>> with mach.measure() as cost:
        ...     pass
        >>> cost.total
        0
        """
        before = self.snapshot()
        cmp_before = self._comparisons
        result = IOCounters()
        try:
            if label:
                with self.disk.phase(label):
                    yield result
            else:
                yield result
        finally:
            delta = self.snapshot() - before
            result.reads = delta.reads
            result.writes = delta.writes
            result.by_phase = dict(delta.by_phase)
            result.comparisons = self._comparisons - cmp_before

    def close(self) -> None:
        """Tear the machine down, checking lease hygiene in sanitize mode.

        In sanitize mode, raises :class:`~repro.em.errors.LeaseLeakError`
        naming every still-active lease — an algorithm exited without
        releasing its working memory (a missing ``finally`` or context
        manager).  Lenient machines only verify the aggregate leased
        total is zero, and stay silent when it is.  Idempotent; also
        invoked by the ``with Machine(...) as m:`` form on exit.
        """
        if self._sanitize:
            leaked = sorted(
                (lease.label or "<unlabelled>", lease.size)
                for lease in self.memory.live_leases
            )
            if leaked:
                detail = ", ".join(
                    f"{label!r} ({size} records)" for label, size in leaked
                )
                raise LeaseLeakError(
                    f"{len(leaked)} lease(s) still active at machine "
                    f"teardown: {detail}"
                )

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't mask an in-flight exception with the (inevitable)
        # leak report its early exit caused.
        if exc_type is None:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(M={self._M}, B={self._B}, "
            f"io={self.io.reads}r/{self.io.writes}w, "
            f"mem={self.memory.in_use}/{self._M})"
        )
