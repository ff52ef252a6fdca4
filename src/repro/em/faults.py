"""Crash injection: make the k-th counted block I/O fail.

The kill-at-any-I/O sweeps and ``repro recover`` arm a machine's disk
with :func:`arm_fault` to simulate a process dying at an exact point of
a run.  The fault is an exception, so ``finally`` blocks and context
managers still run: what a sweep checks is that they release every
lease and, where promised, every block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = ["InjectedFault", "arm_fault"]


class InjectedFault(Exception):
    """Raised by an armed disk at the chosen I/O."""


def arm_fault(machine: "Machine", fail_at: int) -> Callable[[], None]:
    """Make the ``fail_at``-th counted I/O from now (1-based) raise
    :class:`InjectedFault`, once; return a disarm that restores the
    disk's methods.

    Uncounted I/Os do not tick.  A batched ``read_many``/``write_many``
    ticks once per block, so the fault can land inside a batch; the
    whole batch then fails before anything is charged, as disk batches
    are atomic.  An offset past the run's last I/O never fires.
    """
    disk = machine.disk
    ticks = 0

    def tick(count: int) -> None:
        nonlocal ticks
        if not disk._counting:
            return
        before, ticks = ticks, ticks + count
        if before < fail_at <= ticks:
            raise InjectedFault(f"injected fault at counted I/O #{fail_at}")

    saved = {
        name: getattr(disk, name) for name in ("read", "write", "read_many", "write_many")
    }

    def armed(io, batched: bool):
        def call(ids, *data):
            tick(len(ids) if batched else 1)
            return io(ids, *data)

        return call

    for name, io in saved.items():
        setattr(disk, name, armed(io, name.endswith("_many")))

    def disarm() -> None:
        for name, io in saved.items():
            setattr(disk, name, io)

    return disarm
