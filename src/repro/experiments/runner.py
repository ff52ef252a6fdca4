"""Parallel, observable experiment runner.

The registered experiments are embarrassingly parallel: each is a
pure function of ``(exp_id, quick)`` that builds its own
:class:`~repro.em.machine.Machine` instances.  This module fans them out
over a :class:`concurrent.futures.ProcessPoolExecutor` and captures a
structured, JSON-serializable :class:`RunRecord` per experiment (result
tables, shape checks, wall-clock, simulated I/O and comparison totals,
memory/disk peaks).  Every call runs every experiment it names.

``repro report --jobs N [--json PATH]`` and ``repro run --jobs N`` are
thin CLI wrappers around :func:`run_experiments`; ``results.json`` (see
:func:`write_results_json`) is the machine-readable companion to
EXPERIMENTS.md, so CI and benchmark trajectories can diff numbers
instead of prose.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .base import ExperimentResult, get_experiment

__all__ = [
    "RESULTS_SCHEMA_VERSION",
    "RunRecord",
    "default_out_dir",
    "run_experiments",
    "run_one",
    "source_tree_hash",
    "write_results_json",
]

#: Version tag embedded in every record and in results.json — bump when
#: the record format changes.
RESULTS_SCHEMA_VERSION = 4


@dataclass
class RunRecord:
    """One experiment run: its result plus run-level observability.

    ``result`` is ``None`` exactly when ``error`` is set (the experiment
    raised instead of returning).  ``resources`` aggregates *lifetime*
    counters over every machine the experiment constructed (reads,
    writes, io_total, comparisons, peak_memory_records,
    peak_disk_blocks, machines) — lifetime, because experiments reset
    the live counters per sweep point.  ``spans`` is the span-path
    rollup recorded by a :class:`repro.obs.Tracer` over the same
    machines (see :func:`repro.obs.span_rollup`): ``{path: metrics}``
    with exclusive reads/writes/comparisons per joined phase path.
    """

    exp_id: str
    quick: bool
    wall_s: float
    error: str | None = None
    result: ExperimentResult | None = None
    resources: dict | None = None
    spans: dict | None = None

    @property
    def passed(self) -> bool:
        """True iff the experiment ran and every shape check holds."""
        return self.error is None and self.result is not None and self.result.passed

    def to_result(self) -> ExperimentResult:
        """The experiment's result, or a synthetic failing one on error.

        Crashed experiments still get a section (and a FAIL verdict) in
        the generated document instead of silently disappearing.
        """
        if self.result is not None:
            return self.result
        return ExperimentResult(
            exp_id=self.exp_id,
            title="experiment crashed",
            claim="the experiment raised instead of returning a result",
            headers=["error"],
            rows=[(self.error or "unknown error",)],
            checks=[("ran to completion", False)],
        )

    def to_dict(self) -> dict:
        return {
            "schema": RESULTS_SCHEMA_VERSION,
            "exp_id": self.exp_id,
            "quick": self.quick,
            "wall_s": round(self.wall_s, 6),
            "error": self.error,
            "passed": self.passed,
            "resources": self.resources,
            "spans": self.spans,
            "result": None if self.result is None else self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        result = d.get("result")
        return cls(
            exp_id=d["exp_id"],
            quick=bool(d["quick"]),
            wall_s=float(d["wall_s"]),
            error=d.get("error"),
            result=None if result is None else ExperimentResult.from_dict(result),
            resources=d.get("resources"),
            spans=d.get("spans"),
        )


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------
def run_one(exp_id: str, quick: bool) -> dict:
    """Run one experiment and return its record as a plain dict.

    This is the process-pool worker: it takes and returns only
    picklable/JSON-safe values.  Machines constructed by the experiment
    are collected via :func:`repro.em.machine.observe_machines` and
    their lifetime counters aggregated into the record's resources; a
    :class:`repro.obs.Tracer` installs alongside (the hook is
    reentrant) and its span-path rollup rides in the record's ``spans``.
    """
    # Ensure the registry is populated in freshly spawned workers.
    importlib.import_module("repro.experiments")
    from ..em.machine import observe_machines
    from ..obs import Tracer, span_rollup

    machines: list = []
    tracer = Tracer()
    t0 = time.perf_counter()
    result: ExperimentResult | None = None
    error: str | None = None
    try:
        with observe_machines(machines.append), tracer.install():
            result = get_experiment(exp_id)(quick)
    except Exception as exc:  # noqa: BLE001 — workers must not die
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    resources = {
        "machines": len(machines),
        "reads": sum(m.disk.lifetime.reads for m in machines),
        "writes": sum(m.disk.lifetime.writes for m in machines),
        "io_total": sum(m.disk.lifetime.total for m in machines),
        "comparisons": sum(m.lifetime_comparisons for m in machines),
        "peak_memory_records": max((m.memory.peak for m in machines), default=0),
        "peak_disk_blocks": max((m.disk.peak_blocks for m in machines), default=0),
        "kernels": sorted({m.kernel.name for m in machines}),
    }
    return RunRecord(
        exp_id=exp_id,
        quick=quick,
        wall_s=wall,
        error=error,
        result=result,
        resources=resources,
        spans=span_rollup(tracer.traces),
    ).to_dict()


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def source_tree_hash() -> str:
    """SHA-256 over every ``*.py`` file of the installed ``repro`` package.

    ``results.json`` records it as the provenance of its numbers: two
    files with the same hash were measured on the same source.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def default_out_dir() -> Path:
    """``benchmarks/out`` of the repository checkout when recognizable,
    else relative to the current directory."""
    root = Path(__file__).resolve().parents[3]
    if (root / "benchmarks").is_dir():
        return root / "benchmarks" / "out"
    return Path("benchmarks") / "out"


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
def run_experiments(
    ids: Sequence[str],
    quick: bool = False,
    jobs: int = 1,
    *,
    progress: Callable[[RunRecord], None] | None = None,
) -> list[RunRecord]:
    """Run experiments, in parallel; returns records in the order of
    ``ids``.

    ``jobs <= 1`` runs inline (no subprocesses); otherwise the
    experiments are dispatched to a
    :class:`~concurrent.futures.ProcessPoolExecutor` of ``jobs``
    workers.  ``progress`` (if given) is called with each
    :class:`RunRecord` as it completes — completion order, not ``ids``
    order.  Unknown ids raise ``KeyError`` before anything runs.
    Experiments that *raise* produce an ``error`` record instead of
    aborting the batch.
    """
    ids = list(ids)
    for exp_id in ids:  # eager validation, and a cheap duplicate guard
        get_experiment(exp_id)
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate experiment ids in {ids!r}")

    records: dict[str, RunRecord] = {}

    def finish(record: RunRecord) -> None:
        records[record.exp_id] = record
        if progress is not None:
            progress(record)

    if jobs <= 1 or len(ids) <= 1:
        for exp_id in ids:
            finish(RunRecord.from_dict(run_one(exp_id, quick)))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            pending = {pool.submit(run_one, exp_id, quick) for exp_id in ids}
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    finish(RunRecord.from_dict(future.result()))

    return [records[exp_id] for exp_id in ids]


def write_results_json(
    records: Sequence[RunRecord],
    path: str | Path,
    *,
    jobs: int = 1,
) -> Path:
    """Write the machine-readable results file for a batch of records.

    Schema (version :data:`RESULTS_SCHEMA_VERSION`): a top-level object
    with ``schema``, ``src_hash`` (:func:`source_tree_hash`), ``kernel``
    (the production kernel backend), ``jobs``, ``quick``,
    ``total_wall_s``, ``passed``, and ``experiments`` — one
    :meth:`RunRecord.to_dict` per experiment, in document order.
    """
    from ..em.kernels import get_kernel

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": RESULTS_SCHEMA_VERSION,
        "src_hash": source_tree_hash(),
        "kernel": get_kernel().name,
        "jobs": jobs,
        "quick": all(r.quick for r in records),
        "total_wall_s": round(sum(r.wall_s for r in records), 6),
        "passed": all(r.passed for r in records),
        "experiments": [r.to_dict() for r in records],
    }
    out.write_text(json.dumps(payload, indent=2) + "\n")
    return out
