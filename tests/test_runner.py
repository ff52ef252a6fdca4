"""Tests for the parallel experiment runner."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.base import Experiment, ExperimentResult, _REGISTRY
from repro.experiments.runner import (
    RESULTS_SCHEMA_VERSION,
    RunRecord,
    run_experiments,
    run_one,
    source_tree_hash,
    write_results_json,
)

#: Two of the cheapest registered experiments (quick mode runs in ~0.1s).
FAST_IDS = ["ABL4", "T1.R4"]


def _result(exp_id="T1.R1", passed=True):
    return ExperimentResult(
        exp_id=exp_id,
        title="t",
        claim="c",
        headers=["n", "io", "ratio", "who"],
        rows=[
            (np.int64(1000), 10, np.float64(1.5), "scan"),
            (2000, 20, 2.5, "sort"),
        ],
        checks=[("ok", passed)],
        notes=["note"],
    )


@pytest.fixture
def crash_experiment():
    """Temporarily register an experiment that always raises."""

    def run(quick=False):
        raise RuntimeError("boom")

    exp = Experiment("ZZ.CRASH", "always crashes", run)
    _REGISTRY[exp.exp_id] = exp
    yield exp.exp_id
    del _REGISTRY[exp.exp_id]


class TestRoundTrip:
    def test_result_round_trips_through_json_and_renders_identically(self):
        r = _result()
        r2 = ExperimentResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert r2.render() == r.render()
        assert r2.passed == r.passed
        assert r2.rows == [(1000, 10, 1.5, "scan"), (2000, 20, 2.5, "sort")]

    def test_numpy_scalars_coerced_to_plain_python(self):
        d = _result().to_dict()
        for row in d["rows"]:
            for v in row:
                assert type(v) in (int, float, str, bool)

    def test_record_round_trip(self):
        rec = RunRecord(
            exp_id="X",
            quick=True,
            wall_s=1.25,
            resources={"io_total": 3},
            result=_result("X"),
        )
        rec2 = RunRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert rec2.exp_id == "X" and rec2.quick and rec2.wall_s == 1.25
        assert rec2.resources == {"io_total": 3}
        assert rec2.passed and rec2.result.render() == rec.result.render()

    def test_error_record_synthesizes_failing_result(self):
        rec = RunRecord(exp_id="X", quick=True, wall_s=0.0, error="boom")
        assert not rec.passed
        synthetic = rec.to_result()
        assert not synthetic.passed
        assert "boom" in synthetic.render()


class TestRunOne:
    def test_captures_result_and_resources(self):
        rec = RunRecord.from_dict(run_one("ABL4", True))
        assert rec.error is None and rec.passed
        assert rec.quick and rec.wall_s > 0
        res = rec.resources
        assert res["machines"] >= 1
        assert res["io_total"] == res["reads"] + res["writes"] > 0
        assert res["comparisons"] > 0
        assert res["peak_memory_records"] > 0
        assert res["peak_disk_blocks"] > 0

    def test_lifetime_resources_exceed_last_window(self):
        # Experiments reset live counters per sweep point; the record
        # must aggregate *lifetime* totals across all machines, so its
        # I/O total is at least any single measured window's.
        rec = RunRecord.from_dict(run_one("T1.R4", True))
        measured_io = [row[1] for row in rec.result.rows]
        assert rec.resources["io_total"] >= max(measured_io)

    def test_error_captured_not_raised(self, crash_experiment):
        rec = RunRecord.from_dict(run_one(crash_experiment, True))
        assert rec.error == "RuntimeError: boom"
        assert rec.result is None and not rec.passed


class TestRunExperiments:
    def test_unknown_id_raises_before_running(self):
        with pytest.raises(KeyError, match="BOGUS"):
            run_experiments(["BOGUS"], quick=True)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_experiments(["ABL4", "ABL4"], quick=True)

    def test_order_preserved_and_crash_does_not_abort_batch(
        self, crash_experiment
    ):
        ids = ["T1.R4", crash_experiment, "ABL4"]
        records = run_experiments(ids, quick=True)
        assert [r.exp_id for r in records] == ids
        assert records[0].passed and records[2].passed
        assert records[1].error is not None

    def test_progress_called_per_experiment(self):
        seen = []
        run_experiments(FAST_IDS, quick=True, progress=seen.append)
        assert sorted(r.exp_id for r in seen) == sorted(FAST_IDS)


class TestParallel:
    def test_parallel_matches_serial_and_preserves_order(self):
        serial = run_experiments(FAST_IDS, quick=True, jobs=1)
        parallel = run_experiments(FAST_IDS, quick=True, jobs=2)
        assert [r.exp_id for r in parallel] == FAST_IDS
        for s, p in zip(serial, parallel):
            assert s.result.to_dict() == p.result.to_dict()


class TestSpans:
    def test_run_one_embeds_a_lossless_span_rollup(self):
        rec = RunRecord.from_dict(run_one("ABL4", True))
        assert rec.spans, "runner must record a span rollup"
        assert sum(v["io"] for v in rec.spans.values()) == rec.resources["io_total"]
        assert (
            sum(v["comparisons"] for v in rec.spans.values())
            == rec.resources["comparisons"]
        )

    def test_spans_survive_process_pool_and_results_json(self, tmp_path):
        records = run_experiments(FAST_IDS, quick=True, jobs=2)
        path = write_results_json(records, tmp_path / "results.json", jobs=2)
        data = json.loads(path.read_text())
        for entry, rec in zip(data["experiments"], records):
            assert entry["spans"] == rec.spans
            assert (
                sum(v["io"] for v in entry["spans"].values())
                == entry["resources"]["io_total"]
            )
            round_tripped = RunRecord.from_dict(entry)
            assert round_tripped.spans == rec.spans

    def test_observe_machines_is_reentrant_with_tracer_install(self):
        # The runner stacks a machine collector and a tracer on the same
        # hook; both must see every machine, and unwinding one context
        # must not disturb the other.
        from repro.em.machine import Machine, observe_machines
        from repro.obs import Tracer

        outer, inner = [], []
        tracer = Tracer()
        with observe_machines(outer.append):
            with tracer.install():
                with observe_machines(inner.append):
                    m1 = Machine(memory=64, block=8)
                m2 = Machine(memory=64, block=8)
            m3 = Machine(memory=64, block=8)
        assert outer == [m1, m2, m3]
        assert inner == [m1]
        assert len(tracer.traces) == 2  # m1 and m2, not m3


class TestResultsJson:
    def test_schema(self, tmp_path):
        records = run_experiments(FAST_IDS, quick=True)
        path = write_results_json(records, tmp_path / "results.json", jobs=1)
        data = json.loads(path.read_text())
        assert data["schema"] == RESULTS_SCHEMA_VERSION
        assert data["quick"] and data["passed"] and data["jobs"] == 1
        assert data["src_hash"] == source_tree_hash()
        assert [e["exp_id"] for e in data["experiments"]] == FAST_IDS
        for entry in data["experiments"]:
            assert entry["result"]["checks"]
            assert entry["resources"]["io_total"] > 0
            assert entry["wall_s"] > 0
            assert set(entry) == {
                "schema", "exp_id", "quick", "wall_s", "error", "passed",
                "resources", "spans", "result",
            }

    def test_source_tree_hash_is_stable_hex(self):
        h = source_tree_hash()
        assert h == source_tree_hash()
        assert len(h) == 64 and int(h, 16) >= 0
