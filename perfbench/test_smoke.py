"""Smoke test of the benchmark: all four workloads at tiny sizes.

Run from the repository root with ``python -m pytest perfbench``.  It
checks that every metric ``BENCHMARK.json`` names is printed, named
exactly and with its unit, that answers pass the oracle on the default
and on a held-out seed, and that exact block counts repeat.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 7919


def _run(capsys, workload: str, trace: int, seed: int = run.DEFAULT_SEED):
    code = run.main([
        "--workload", workload, "--trace", str(trace), "--seed", str(seed),
        "--seconds", "0", "--smoke",
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["provenance"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    code, prov, result = _run(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    for key in ("git_sha", "source_sha256", "nproc", "python", "numpy",
                "kernel", "seed", "sizes"):
        assert key in prov
    assert prov["seed"] == run.DEFAULT_SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_cleanly(capsys, workload):
    code, prov, result = _run(capsys, workload, 0, seed=HELD_OUT_SEED)
    assert code == 0 and result["correct"] is True
    assert prov["seed"] == HELD_OUT_SEED


def test_wire_works_only_on_shard_mixed(capsys):
    for workload in WORKLOADS:
        _, _, result = _run(capsys, workload, 1)
        msgs = result["metrics"]["wire.msgs"]["value"]
        assert (msgs > 0) == (workload == "shard-mixed"), workload


def test_exact_counts_repeat_across_runs(capsys):
    exact = ("sim_io", "setup_io")
    for workload in WORKLOADS:
        first = _run(capsys, workload, 0)[2]["metrics"]
        second = _run(capsys, workload, 0)[2]["metrics"]
        for name in exact:
            assert first[name] == second[name], (workload, name)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
