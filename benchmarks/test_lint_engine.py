"""Benchmark the emlint engine: cold vs warm runs.

Every rule judges one module from its own AST.  The linter only stays
usable as a pre-commit / CI gate if a cold full-repo run is fast in
absolute terms and the content-addressed findings cache makes warm
runs much faster still.  This benchmark pins both gates and records
the numbers in ``out/LINT_ENGINE.txt``.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.lint import lint_paths

OUT_DIR = Path(__file__).parent / "out"

MAX_COLD_SECONDS = 10.0
MIN_WARM_SPEEDUP = 5.0
WARM_ROUNDS = 3


def test_lint_engine_cold_vs_warm(benchmark, tmp_path):
    cache = tmp_path / "lint-cache.json"

    t0 = time.perf_counter()
    cold = lint_paths(cache_path=cache)
    cold_s = time.perf_counter() - t0
    assert cold.cache_stats["hits"] == 0

    # pedantic once for the harness record, then best-of-N by hand so
    # the gate isn't at the mercy of a single noisy round.
    warm = benchmark.pedantic(
        lambda: lint_paths(cache_path=cache), rounds=1, iterations=1
    )
    warm_s = []
    for _ in range(WARM_ROUNDS):
        t0 = time.perf_counter()
        warm = lint_paths(cache_path=cache)
        warm_s.append(time.perf_counter() - t0)
    best_warm = min(warm_s)
    speedup = cold_s / best_warm if best_warm > 0 else float("inf")

    # warm must be a faithful replay, not a shortcut
    assert warm.to_dict()["findings"] == cold.to_dict()["findings"]
    assert warm.cache_stats["hits"] == cold.files
    assert warm.cache_stats["misses"] == 0

    lines = [
        "emlint engine: full-repo cold vs warm (cached) run",
        "",
        f"files linted            {cold.files}",
        f"cold run                {cold_s:.3f} s   (gate: < {MAX_COLD_SECONDS:.0f} s)",
        f"warm run (best of {WARM_ROUNDS})    {best_warm:.3f} s",
        f"warm speedup            {speedup:.1f}x   (gate: >= {MIN_WARM_SPEEDUP:.0f}x)",
        f"warm cache hits         {warm.cache_stats['hits']}",
        "",
        "warm findings identical to cold: yes",
    ]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "LINT_ENGINE.txt").write_text("\n".join(lines) + "\n")

    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(best_warm, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)

    assert cold_s < MAX_COLD_SECONDS
    assert speedup >= MIN_WARM_SPEEDUP
