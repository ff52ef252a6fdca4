"""Hierarchical span tracing for the EM simulator.

A :class:`Tracer` attaches to one or more
:class:`~repro.em.machine.Machine` instances (directly with
:meth:`Tracer.attach`, or to every machine built inside a ``with
tracer.install():`` body via the
:func:`~repro.em.machine.observe_machines` hook) and records a **tree of
spans** — one per :meth:`Disk.phase <repro.em.disk.Disk.phase>` /
``Machine.measure(label)`` entry — through the observer callbacks of the
em layer.  Each span carries:

* ``reads`` / ``writes`` / ``comparisons`` — **exclusive** (self) costs:
  model charges attributed to this span while no child span was open.
  Summing the exclusive costs over a whole trace therefore reproduces
  the machine's lifetime counters *exactly* (the differential tests
  assert this); inclusive rollups are the ``cum_*`` properties.
* ``mem_peak`` / ``blocks_peak`` — high-water marks of leased memory
  records and live disk blocks while the span was open (inclusive of
  children: peaks are maxima, so no double counting arises).
* ``depth`` — recursion depth (root = 0), and ``wall_s`` — inclusive
  wall-clock time.

The paper's claims are Θ-shapes in block I/Os, so this attribution —
*where* a composed algorithm (Theorem 4's multi-selection recursion, the
§3 reduction's approx/sweep split) pays its transfers — is the
reproduction's core observability primitive.  Exporters for the
recorded trees (Perfetto/Chrome JSON, text tree, plain dicts) live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..em.errors import CounterConservationError
from ..em.machine import observe_machines

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["Span", "MachineTrace", "Tracer"]

#: Display name of the implicit root span (I/O outside any phase).
ROOT_NAME = "(machine)"


@dataclass
class Span:
    """One node of a trace tree: a ``phase()`` activation.

    ``reads``/``writes``/``comparisons`` are exclusive; see the module
    docstring for the exact semantics of every field.
    """

    name: str
    path: str
    depth: int
    t_start: float = 0.0
    wall_s: float = 0.0
    reads: int = 0
    writes: int = 0
    comparisons: int = 0
    mem_peak: int = 0
    blocks_peak: int = 0
    children: list["Span"] = field(default_factory=list)

    @property
    def io(self) -> int:
        """Exclusive I/Os (reads + writes charged directly to this span)."""
        return self.reads + self.writes

    @property
    def cum_reads(self) -> int:
        """Inclusive reads: self plus all descendants."""
        return self.reads + sum(c.cum_reads for c in self.children)

    @property
    def cum_writes(self) -> int:
        """Inclusive writes: self plus all descendants."""
        return self.writes + sum(c.cum_writes for c in self.children)

    @property
    def cum_io(self) -> int:
        """Inclusive I/Os: self plus all descendants."""
        return self.cum_reads + self.cum_writes

    @property
    def cum_comparisons(self) -> int:
        """Inclusive comparisons: self plus all descendants."""
        return self.comparisons + sum(c.cum_comparisons for c in self.children)

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """Plain JSON-serializable form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "wall_s": round(self.wall_s, 6),
            "reads": self.reads,
            "writes": self.writes,
            "comparisons": self.comparisons,
            "mem_peak": self.mem_peak,
            "blocks_peak": self.blocks_peak,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        return cls(
            name=d["name"],
            path=d["path"],
            depth=int(d["depth"]),
            wall_s=float(d["wall_s"]),
            reads=int(d["reads"]),
            writes=int(d["writes"]),
            comparisons=int(d["comparisons"]),
            mem_peak=int(d["mem_peak"]),
            blocks_peak=int(d["blocks_peak"]),
            children=[cls.from_dict(c) for c in d.get("children", [])],
        )


class MachineTrace:
    """The span tree recorded for one machine.

    Implements the machine observer protocol
    (:meth:`Machine.add_observer <repro.em.machine.Machine.add_observer>`);
    a :class:`Tracer` registers one of these with each machine it
    attaches to.  ``root`` is the implicit depth-0 span that absorbs
    activity outside any phase.
    """

    def __init__(self, machine: "Machine", index: int) -> None:
        self.index = index
        self.M = machine.M
        self.B = machine.B
        self.kernel = machine.kernel.name
        self.label = machine.label
        # Lifetime-counter baseline for the conservation check: the
        # exclusive span counts recorded between attach and detach must
        # sum exactly to the machine's lifetime deltas over the same
        # window (lifetime counters survive reset_counters, so the
        # identity holds across measurement-window resets too).
        self._base_reads = machine.disk.lifetime.reads
        self._base_writes = machine.disk.lifetime.writes
        self._base_comparisons = machine.lifetime_comparisons
        now = time.perf_counter()
        self.root = Span(
            name=ROOT_NAME,
            path="",
            depth=0,
            t_start=now,
            mem_peak=machine.memory.in_use,
            blocks_peak=machine.disk.live_blocks,
        )
        self._stack: list[Span] = [self.root]
        self._machine = machine
        self._finalized = False

    # -- machine observer protocol -------------------------------------
    def on_phase_push(self, label: str, path: str) -> None:
        parent = self._stack[-1]
        span = Span(
            name=label,
            path=path,
            depth=len(self._stack),
            t_start=time.perf_counter(),
            mem_peak=self._machine.memory.in_use,
            blocks_peak=self._machine.disk.live_blocks,
        )
        parent.children.append(span)
        self._stack.append(span)

    def on_phase_pop(self, label: str, path: str) -> None:
        # Guard against pops of phases entered before this trace
        # attached (attach-mid-phase): only close spans we opened.
        if len(self._stack) > 1 and self._stack[-1].name == label:
            self._close(self._stack.pop())

    def on_io(self, read: bool, count: int) -> None:
        span = self._stack[-1]
        if read:
            span.reads += count
        else:
            span.writes += count

    def on_blocks(self, live: int) -> None:
        span = self._stack[-1]
        if live > span.blocks_peak:
            span.blocks_peak = live

    def on_memory(self, in_use: int) -> None:
        span = self._stack[-1]
        if in_use > span.mem_peak:
            span.mem_peak = in_use

    def on_comparisons(self, count: int) -> None:
        self._stack[-1].comparisons += count

    # -- lifecycle -----------------------------------------------------
    def _close(self, span: Span) -> None:
        span.wall_s = time.perf_counter() - span.t_start
        parent = self._stack[-1]
        if span.mem_peak > parent.mem_peak:
            parent.mem_peak = span.mem_peak
        if span.blocks_peak > parent.blocks_peak:
            parent.blocks_peak = span.blocks_peak

    def finalize(self) -> None:
        """Close any still-open spans (idempotent); called on detach."""
        if self._finalized:
            return
        while len(self._stack) > 1:
            self._close(self._stack.pop())
        self.root.wall_s = time.perf_counter() - self.root.t_start
        self._finalized = True

    def conservation_error(self) -> str | None:
        """Check span-tree/lifetime counter conservation.

        Returns ``None`` when the root span's inclusive reads, writes,
        and comparisons equal the machine's lifetime-counter deltas
        since attach, else a human-readable description of the drift.
        Every model charge flows through the same observer callbacks
        that build the tree, so any mismatch means a charge bypassed
        the hooks (or a span was mutated behind the tracer's back).
        """
        deltas = (
            self._machine.disk.lifetime.reads - self._base_reads,
            self._machine.disk.lifetime.writes - self._base_writes,
            self._machine.lifetime_comparisons - self._base_comparisons,
        )
        recorded = (
            self.root.cum_reads,
            self.root.cum_writes,
            self.root.cum_comparisons,
        )
        if recorded == deltas:
            return None
        drifts = [
            f"{name}: span tree has {got}, lifetime counters advanced {want}"
            for name, got, want in zip(
                ("reads", "writes", "comparisons"), recorded, deltas
            )
            if got != want
        ]
        return (
            f"span-tree counts diverge from machine #{self.index} "
            f"lifetime counters — " + "; ".join(drifts)
        )

    def to_dict(self) -> dict:
        """Plain JSON-serializable form of the whole trace."""
        return {
            "machine": self.index,
            "label": self.label,
            "M": self.M,
            "B": self.B,
            "kernel": self.kernel,
            "root": self.root.to_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = f"#{self.index}" + (f" {self.label!r}" if self.label else "")
        return (
            f"MachineTrace({name}, M={self.M}, B={self.B}, "
            f"kernel={self.kernel}, "
            f"io={self.root.cum_io}, spans={sum(1 for _ in self.root.walk())})"
        )


class Tracer:
    """Records span trees for every machine it is attached to.

    Two attachment modes::

        tracer = Tracer()
        trace = tracer.attach(machine)          # one existing machine
        ...
        tracer.detach(machine)                  # stop recording

        with Tracer().install() as tracer:      # every machine built
            result = run_experiment()           # inside the body
        for trace in tracer.traces: ...

    ``install()`` composes with other :func:`observe_machines` contexts
    (the hook is reentrant), so the experiment runner can both collect
    machines and trace them.
    """

    def __init__(self) -> None:
        self.traces: list[MachineTrace] = []
        self._live: dict[int, tuple["Machine", MachineTrace]] = {}

    def attach(self, machine: "Machine") -> MachineTrace:
        """Start recording ``machine``; returns its (live) trace.

        Attach with the machine idle (no open phases): spans are only
        recorded for phases entered after attachment.
        """
        if id(machine) in self._live:
            raise ValueError("tracer already attached to this machine")
        trace = MachineTrace(machine, len(self.traces))
        self.traces.append(trace)
        self._live[id(machine)] = (machine, trace)
        machine.add_observer(trace)
        return trace

    def detach(self, machine: "Machine") -> MachineTrace:
        """Stop recording ``machine`` and finalize its trace.

        When the machine runs in sanitize mode, detaching additionally
        verifies counter conservation — the span tree's exclusive counts
        must sum exactly to the machine's lifetime-counter deltas since
        attach — and raises
        :class:`~repro.em.errors.CounterConservationError` on drift.
        """
        try:
            _, trace = self._live.pop(id(machine))
        except KeyError:
            raise ValueError("tracer is not attached to this machine") from None
        machine.remove_observer(trace)
        trace.finalize()
        if machine.sanitize:
            drift = trace.conservation_error()
            if drift is not None:
                raise CounterConservationError(drift)
        return trace

    @contextmanager
    def install(self) -> Iterator["Tracer"]:
        """Attach to every :class:`Machine` constructed in the body.

        On exit, every trace started in the body is detached and
        finalized (open spans closed), so the recorded trees are
        complete and safe to export.
        """
        before = set(self._live)
        with observe_machines(lambda m: self.attach(m)):
            try:
                yield self
            finally:
                started = [
                    machine
                    for key, (machine, _) in list(self._live.items())
                    if key not in before
                ]
                for machine in started:
                    self.detach(machine)
