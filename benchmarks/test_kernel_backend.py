"""Differential benchmark of the kernel backends.

Runs the primitive suite (:func:`repro.em.kernels.bench.bench_kernels`)
at hot-path scale, asserts the backends produce byte-identical outputs,
asserts the ``vectorized_v2`` default beats the per-block ``numpy_v1``
reference by at least 5x wall-clock, and records the table in
``benchmarks/out/KERNEL_BACKEND.txt``.  Set ``REPRO_BENCH_FULL=1`` for
the full-size instance (the default is a smaller CI size whose speedup
margin is still comfortably above the gate).
"""

import os
from pathlib import Path

from repro.em.kernels.bench import CI_INSTANCE, bench_kernels, render_bench

OUT_DIR = Path(__file__).parent / "out"
MIN_SPEEDUP = 5.0


def test_kernel_backend_speedup_and_identity(benchmark):
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    kwargs = {} if full else CI_INSTANCE
    result = benchmark.pedantic(
        lambda: bench_kernels(**kwargs), rounds=1, iterations=1
    )

    OUT_DIR.mkdir(exist_ok=True)
    text = render_bench(result)
    (OUT_DIR / "KERNEL_BACKEND.txt").write_text(text + "\n")

    speedup = result.speedup("vectorized_v2")
    benchmark.extra_info["speedup_v2_over_v1"] = round(speedup, 2)
    benchmark.extra_info["identical"] = result.identical
    for name in result.timings:
        benchmark.extra_info[f"total_{name}_s"] = round(result.total(name), 3)

    assert result.identical, "backends disagree byte-for-byte"
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized_v2 only {speedup:.2f}x over numpy_v1 "
        f"(gate {MIN_SPEEDUP}x)\n{text}"
    )
