"""Experiment framework shared by the CLI and the benchmark suite.

An *experiment* reproduces one claim of the paper (a Table 1 row, a
theorem, a lemma, or an ablation DESIGN.md calls out).  Running one
returns an :class:`ExperimentResult`: the sweep table (the "rows/series
the paper reports"), a set of named boolean *shape checks* (who wins, is
the measured/bound ratio flat, does the sublinear regime appear, ...)
and free-form notes.  Benchmarks assert ``result.passed``; the CLI just
prints.

Experiments accept ``quick=True`` to shrink the sweep for CI-speed runs;
the full runs are what EXPERIMENTS.md records.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..em.machine import Machine
from ..analysis.report import render_kv, render_table

__all__ = [
    "ExperimentResult",
    "Experiment",
    "register",
    "get_experiment",
    "all_experiments",
    "wide_machine",
    "narrow_machine",
    "measure_io",
]

#: Registry of experiment id -> Experiment.
_REGISTRY: dict[str, "Experiment"] = {}


def _plain(value):
    """Coerce one table cell to a plain JSON-serializable Python scalar.

    Numpy scalars (``np.float64``, ``np.int64``, ``np.bool_``) leak into
    sweep rows naturally; coercing here makes ``to_dict`` output stable
    so a result renders byte-identically whether it came straight from
    the experiment, through a worker process, or out of ``results.json``.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    return str(value)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    exp_id: str
    title: str
    claim: str
    headers: list[str]
    rows: list[tuple]
    checks: list[tuple[str, bool]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True iff every shape check holds."""
        return all(ok for _, ok in self.checks)

    def to_dict(self) -> dict:
        """Plain JSON-serializable dict; inverse of :meth:`from_dict`.

        Cell values are coerced to plain Python scalars so the same
        result renders byte-identically before and after a JSON
        round-trip (workers and ``results.json`` share this format).
        """
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "claim": self.claim,
            "headers": list(self.headers),
            "rows": [[_plain(v) for v in row] for row in self.rows],
            "checks": [[name, bool(ok)] for name, ok in self.checks],
            "notes": list(self.notes),
            "passed": self.passed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output (JSON-safe)."""
        return cls(
            exp_id=d["exp_id"],
            title=d["title"],
            claim=d["claim"],
            headers=list(d["headers"]),
            rows=[tuple(row) for row in d["rows"]],
            checks=[(name, bool(ok)) for name, ok in d["checks"]],
            notes=list(d["notes"]),
        )

    def render(self) -> str:
        out = [
            render_table(self.headers, self.rows, title=f"{self.exp_id}: {self.title}"),
            "",
            f"claim: {self.claim}",
        ]
        if self.checks:
            out.append("checks:")
            out.append(
                render_kv([(name, "PASS" if ok else "FAIL") for name, ok in self.checks])
            )
        for note in self.notes:
            out.append(f"note: {note}")
        out.append(f"verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(out)


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: id, description, and its runner.

    The call convention is *positional*: ``run`` is invoked as
    ``run(quick)`` everywhere (the CLI, the benchmarks, and the
    process-pool workers of :mod:`repro.experiments.runner` all go
    through :meth:`__call__`), so registered functions must accept
    ``quick`` as their first positional parameter.
    """

    exp_id: str
    title: str
    run: Callable[[bool], ExperimentResult]

    def __call__(self, quick: bool = False) -> ExperimentResult:
        return self.run(quick)


def register(exp_id: str, title: str):
    """Decorator registering ``fn(quick: bool) -> ExperimentResult``."""

    def deco(fn: Callable[[bool], ExperimentResult]):
        if exp_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {exp_id!r}")
        _REGISTRY[exp_id] = Experiment(exp_id, title, fn)
        return fn

    return deco


def get_experiment(exp_id: str) -> Experiment:
    try:
        return _REGISTRY[exp_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {exp_id!r}; known: {known}") from None


def all_experiments() -> list[Experiment]:
    return [(_REGISTRY[k]) for k in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# Standard machine shapes
# ----------------------------------------------------------------------
def wide_machine() -> Machine:
    """Single-pass regime: ``M/B = 64`` (``M = 4096``, ``B = 64``) —
    tall-cache (``M = B²``), large fanout, logs mostly saturate at 1."""
    return Machine(memory=4096, block=64)


def narrow_machine() -> Machine:
    """Multi-pass regime: ``M/B = 32`` with tiny blocks (``M = 512``,
    ``B = 16``) — the ``lg_{M/B}`` factors move visibly across sweeps."""
    return Machine(memory=512, block=16)


def measure_io(machine: Machine, fn: Callable[[], object]) -> tuple[object, int]:
    """Reset counters, run ``fn``, return ``(result, total I/Os)``."""
    machine.reset_counters()
    out = fn()
    return out, machine.io.total
