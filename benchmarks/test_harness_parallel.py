"""Wall-clock benchmark of the parallel experiment runner.

Measures the full ``--quick`` experiment sweep two ways — serial
(``jobs=1``) and parallel (``jobs=4``) — verifies that both produce
byte-identical EXPERIMENTS.md content, and records the measured speedup
in ``benchmarks/out/HARNESS_PARALLEL.txt``.

The parallel speedup is only asserted when the host actually has >= 4
CPUs (a process pool cannot beat serial execution on fewer cores).

Run directly (not part of tier-1):

    PYTHONPATH=src python -m pytest -q benchmarks/test_harness_parallel.py
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.experiments.report_all import DEFAULT_ORDER, generate_experiments_md
from repro.experiments.runner import run_experiments

OUT_DIR = Path(__file__).parent / "out"
JOBS = 4


def _timed(jobs):
    t0 = time.perf_counter()
    records = run_experiments(DEFAULT_ORDER, quick=True, jobs=jobs)
    return records, time.perf_counter() - t0


def test_parallel_report_speedup():
    serial, t_serial = _timed(jobs=1)
    parallel, t_parallel = _timed(jobs=JOBS)

    assert all(r.passed for r in serial + parallel)

    # The rendered document is a pure function of the results: serial
    # and parallel runs produce byte-identical markdown.
    docs = [
        generate_experiments_md([r.to_result() for r in records])[0]
        for records in (serial, parallel)
    ]
    assert docs[0] == docs[1]

    cores = os.cpu_count() or 1
    speedup = t_serial / t_parallel
    lines = [
        "Experiment harness: parallel runner vs serial",
        f"(quick sweeps, {len(DEFAULT_ORDER)} experiments, "
        f"{cores} CPU(s) available)",
        "",
        f"serial   jobs=1 : {t_serial:8.2f} s",
        f"parallel jobs={JOBS} : {t_parallel:8.2f} s "
        f"({speedup:.2f}x vs serial)",
        "",
        "EXPERIMENTS.md content byte-identical across both runs.",
        f"Parallel speedup asserted >= 2x only when >= {JOBS} CPUs are "
        f"available (this host: {cores}).",
    ]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "HARNESS_PARALLEL.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))

    if cores >= JOBS:
        assert speedup >= 2.0, (
            f"parallel report only {speedup:.2f}x faster than serial on "
            f"{cores} CPUs"
        )
