"""Benchmark the emlint engine: one full-repo run.

Every rule judges one module from its own AST, and every run lints
every file from its current source.  The linter only stays usable as a
pre-commit / CI gate if that run is fast in absolute terms.  This
benchmark pins the gate and records the numbers in
``out/LINT_ENGINE.txt``.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.lint import lint_paths

OUT_DIR = Path(__file__).parent / "out"

MAX_COLD_SECONDS = 10.0


def test_lint_engine_cold_run(benchmark):
    t0 = time.perf_counter()
    report = benchmark.pedantic(lint_paths, rounds=1, iterations=1)
    cold_s = time.perf_counter() - t0

    lines = [
        "emlint engine: one full-repo run (every run lints every file)",
        "",
        f"files linted            {report.files}",
        f"run time                {cold_s:.3f} s   (gate: < {MAX_COLD_SECONDS:.0f} s)",
        f"active findings         {len(report.findings)}",
        f"suppressed findings     {len(report.suppressed)}",
    ]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "LINT_ENGINE.txt").write_text("\n".join(lines) + "\n")

    benchmark.extra_info["cold_s"] = round(cold_s, 3)

    assert cold_s < MAX_COLD_SECONDS
