"""Tests for the CLI and the Table 1 renderer."""

import json

import pytest

from repro.bounds.table import render_table1, table1_rows
from repro.cli import main
from repro.em.machine import observe_machines


class TestTable1:
    def test_rows_shape(self):
        rows = table1_rows(10**6, 256, 512, 16_384, 4096, 64)
        assert len(rows) == 6
        problems = {r[0] for r in rows}
        assert problems == {"K-splitters", "K-partitioning"}
        for _, _, lower, upper in rows:
            assert 0 < lower <= upper + 1e-9

    def test_theta_rows_equal(self):
        rows = table1_rows(10**6, 256, 512, 16_384, 4096, 64)
        by = {(p, g): (lo, up) for p, g, lo, up in rows}
        for key in [("K-splitters", "right"), ("K-splitters", "left"),
                    ("K-splitters", "2-sided"), ("K-partitioning", "left")]:
            lo, up = by[key]
            assert lo == up

    def test_render_contains_reference(self):
        out = render_table1(10**6, 256, 512, 16_384, 4096, 64)
        assert "one scan" in out
        assert "sorting bound" in out


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T1.R1" in out and "THM4" in out

    def test_bounds(self, capsys):
        rc = main(["bounds", "--n", "100000", "--k", "64", "--a", "100",
                   "--b", "5000"])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out

    def test_run_single_quick(self, capsys, tmp_path):
        rc = main(["run", "T1.R4", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert (tmp_path / "T1_R4.txt").exists()

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert "sublinear" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "BOGUS"])

    def test_run_parallel_jobs(self, capsys, tmp_path):
        rc = main(["run", "T1.R4", "ABL4", "--jobs", "2", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert (tmp_path / "T1_R4.txt").exists()
        assert (tmp_path / "ABL4.txt").exists()

    def test_run_failure_still_writes_later_tables(self, capsys, tmp_path):
        from repro.experiments.base import Experiment, _REGISTRY

        def boom(quick=False):
            raise RuntimeError("forced crash")

        _REGISTRY["ZZ.CRASH"] = Experiment("ZZ.CRASH", "always crashes", boom)
        try:
            rc = main(["run", "T1.R4", "ZZ.CRASH", "ABL4", "--out", str(tmp_path)])
        finally:
            del _REGISTRY["ZZ.CRASH"]
        assert rc == 1  # the crash is reported...
        out = capsys.readouterr().out
        assert "forced crash" in out
        # ...but every experiment still got its rendered table written.
        for name in ("T1_R4.txt", "ZZ_CRASH.txt", "ABL4.txt"):
            assert (tmp_path / name).exists(), name
        assert "verdict: PASS" in (tmp_path / "ABL4.txt").read_text()


class TestSolve:
    def test_solve_splitters(self, capsys):
        rc = main(["solve", "--problem", "splitters", "--n", "5000",
                   "--k", "8", "--a", "100", "--b", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified" in out and "I/O by phase" in out

    def test_solve_partition(self, capsys):
        rc = main(["solve", "--problem", "partition", "--n", "4000",
                   "--k", "4", "--workload", "few-distinct"])
        assert rc == 0
        assert "verified" in capsys.readouterr().out

    def test_solve_multiselect(self, capsys):
        rc = main(["solve", "--problem", "multiselect", "--n", "4000",
                   "--k", "10", "--memory", "512", "--block", "16"])
        assert rc == 0
        assert "comparisons" in capsys.readouterr().out

    def test_solve_unknown_workload(self, capsys):
        rc = main(["solve", "--problem", "splitters", "--n", "100",
                   "--k", "2", "--workload", "nope"])
        assert rc == 2

    def test_solve_success_releases_all_blocks_and_trace(self):
        machines = []
        with observe_machines(machines.append):
            rc = main(["solve", "--problem", "partition", "--n", "2000",
                       "--k", "4", "--trace"])
        assert rc == 0
        (machine,) = machines
        assert machine.disk.live_blocks == 0
        assert not machine.disk.tracing

    def test_solve_failure_releases_all_blocks_and_trace(
        self, monkeypatch, capsys
    ):
        # Regression: a verification failure mid-measure used to leak
        # the partition output file and leave the access trace running.
        import repro.analysis

        def boom(*args, **kwargs):
            raise RuntimeError("forced verification failure")

        monkeypatch.setattr(repro.analysis, "check_partitioned", boom)
        machines = []
        with observe_machines(machines.append):
            rc = main(["solve", "--problem", "partition", "--n", "2000",
                       "--k", "4", "--trace"])
        assert rc == 1
        assert "forced verification failure" in capsys.readouterr().err
        (machine,) = machines
        assert machine.disk.live_blocks == 0, "solve leaked disk blocks"
        assert not machine.disk.tracing, "solve left the trace active"


class TestReport:
    def test_report_quick_writes_doc_and_json_then_serves_from_cache(
        self, capsys, tmp_path
    ):
        out = tmp_path / "EXPERIMENTS.md"
        results = tmp_path / "results.json"
        cache = tmp_path / "cache"
        argv = ["report", "--quick", "--jobs", "2",
                "--out", str(out), "--json", str(results),
                "--cache-dir", str(cache)]
        assert main(argv) == 0
        first_doc = out.read_text()
        assert "paper vs. measured" in first_doc
        data = json.loads(results.read_text())
        assert data["passed"] and data["quick"]
        assert len(data["experiments"]) == 22
        assert all(not e["cached"] for e in data["experiments"])
        capsys.readouterr()

        # Second invocation: served entirely from cache, byte-identical.
        assert main(argv) == 0
        assert "22 cached" in capsys.readouterr().out
        assert out.read_text() == first_doc
        data = json.loads(results.read_text())
        assert all(e["cached"] for e in data["experiments"])

    def test_report_no_cache_forces_recomputation(self, capsys, tmp_path):
        # --no-cache must neither read nor populate the cache dir.
        argv = ["report", "--quick", "--no-cache",
                "--out", str(tmp_path / "E.md"),
                "--json", str(tmp_path / "results.json"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert not (tmp_path / "cache").exists()
        assert "22 run, 0 cached" in capsys.readouterr().out


class TestTrace:
    def test_trace_writes_all_three_artifacts(self, capsys, tmp_path):
        rc = main(["trace", "sort", "--n", "4000", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sorted 4000 records" in out and "perfetto" in out.lower()

        chrome = json.loads((tmp_path / "sort.trace.json").read_text())
        events = chrome["traceEvents"]
        assert any(e["ph"] == "M" for e in events)
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} >= {"(machine)", "sort"}

        tree = (tmp_path / "sort.tree.txt").read_text()
        assert "sort" in tree and "share" in tree

        spans = json.loads((tmp_path / "sort.spans.json").read_text())
        assert spans["solver"] == "sort" and spans["io"] > 0
        assert spans["params"]["n"] == 4000
        assert sum(v["io"] for v in spans["rollup"].values()) == spans["io"]
        assert spans["traces"][0]["root"]["children"]

    def test_trace_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["trace", "bogosort"])

    def test_trace_json_mirrors_spans_artifact(self, capsys, tmp_path):
        rc = main(["trace", "sort", "--n", "4000", "--json",
                   "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        spans = json.loads((tmp_path / "sort.spans.json").read_text())
        assert payload == spans
        assert payload["solver"] == "sort" and payload["io"] > 0


class TestMetricsVerb:
    def test_metrics_writes_artifacts_and_renders(self, capsys, tmp_path):
        rc = main(["metrics", "service-online", "--n", "20000", "--k", "16",
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "svc_query_io{engine=lazy}" in out
        assert "flight recorder:" in out

        prom = (tmp_path / "service-online.prom").read_text()
        assert "# TYPE svc_query_io histogram" in prom
        assert 'svc_query_io_bucket{engine="lazy",le="+Inf"}' in prom

        doc = json.loads(
            (tmp_path / "service-online.metrics.json").read_text()
        )
        assert doc["solver"] == "service-online"
        assert "svc_queries" in doc["metrics"]
        assert doc["flight"]["events"]

        flight = json.loads(
            (tmp_path / "service-online.flight.json").read_text()
        )
        assert flight["events"] == doc["flight"]["events"]

    def test_metrics_json_mode(self, capsys, tmp_path):
        rc = main(["metrics", "service-index", "--n", "8000", "--k", "8",
                   "--json", "--out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]
        assert payload["io"] > 0

    def test_metrics_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            main(["metrics", "bogosort"])


class TestFlightRecorderCli:
    def test_serve_abort_dumps_flight_and_recover_renders(
        self, capsys, tmp_path
    ):
        script = tmp_path / "session.txt"
        script.write_text("append 10 20 30\nflush\nabort\n")
        dump = tmp_path / "dump.json"
        with pytest.raises(RuntimeError, match="abort requested"):
            main(["serve", "--durable", "--n", "2000", "--k", "4",
                  "--input", str(script), "--flight-dump", str(dump)])
        err = capsys.readouterr().err
        assert f"flight recorder dumped to {dump}" in err
        assert dump.exists()

        rc = main(["recover", "--flight-dump", str(dump)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "flight recorder:" in out
        assert "update-flush" in out and "abandon" in out
        # The dump is deterministic: seq numbers are monotone from 0.
        doc = json.loads(dump.read_text())
        assert [e["seq"] for e in doc["events"]] == list(
            range(len(doc["events"]))
        )

    def test_serve_clean_exit_writes_no_dump(self, tmp_path):
        script = tmp_path / "session.txt"
        script.write_text("select 5\nquit\n")
        dump = tmp_path / "dump.json"
        rc = main(["serve", "--durable", "--n", "2000", "--k", "4",
                   "--input", str(script), "--flight-dump", str(dump)])
        assert rc == 0
        assert not dump.exists()


class TestBudgetsCli:
    def test_budgets_check_against_committed_file(self, capsys):
        assert main(["budgets"]) == 0
        assert "budget gate: PASS" in capsys.readouterr().out

    def test_budgets_write_round_trip(self, capsys, tmp_path):
        path = tmp_path / "budgets.json"
        assert main(["budgets", "--write", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {path}" in out and "budget gate: PASS" in out
        doc = json.loads(path.read_text())
        assert doc["budgets"]


class TestServiceVerbs:
    def test_query_batch(self, capsys):
        rc = main(["query", "--n", "5000", "--k", "8",
                   "select:100", "select:100", "quantile:0.5",
                   "range:10:2000", "part:42"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "select 100 -> key=" in out
        assert "range_count (10, 2000] ->" in out
        assert "2 distinct ranks" in out  # 2 selects + quantile collapse

    def test_query_eager_engine(self, capsys):
        rc = main(["query", "--engine", "eager", "--n", "2000", "--k", "4",
                   "select:1", "quantile:1.0"])
        assert rc == 0
        assert "engine=eager" in capsys.readouterr().out

    def test_query_bad_spec(self):
        with pytest.raises(SystemExit):
            main(["query", "--n", "100", "--k", "2", "argmax:4"])

    def test_serve_script(self, capsys, tmp_path):
        script = tmp_path / "session.txt"
        script.write_text(
            "# warm up\nselect 10 20\nquantile 0.5\nrange 5 500\n"
            "append 1 2 3\ndelete 1\nflush\nselect 1\nstats\nquit\n"
        )
        rc = main(["serve", "--n", "1000", "--k", "4",
                   "--input", str(script)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "partition service up" in out
        assert "buffered 3 appends" in out
        assert "update flush" in out
        assert "served 5 queries" in out

    def test_serve_releases_all_blocks(self, tmp_path):
        script = tmp_path / "session.txt"
        script.write_text("select 5\nbogus\nquit\n")
        machines = []
        with observe_machines(machines.append):
            rc = main(["serve", "--n", "500", "--k", "2", "--engine",
                       "lazy", "--input", str(script)])
        assert rc == 1  # the bogus command is reported
        (machine,) = machines
        assert machine.disk.live_blocks == 0
        assert machine.memory.in_use == 0


class TestLintCli:
    def test_lint_repo_is_clean(self, capsys):
        assert main(["lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_flags_violations(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "alg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def f(m, file):\n"
            "    m.disk.peek(0)\n"
            "    return np.random.rand()\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R2" in out and "R4" in out

    def test_lint_json_output(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "alg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f():\n    return np.random.rand()\n")
        assert main(["lint", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "R4"

    def test_lint_rule_selection(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "alg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(m):\n    return m.disk.peek(0)\n")
        assert main(["lint", "--rule", "R4,R5", str(bad)]) == 0

    def test_lint_unknown_rule(self, capsys):
        assert main(["lint", "--rule", "R99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_lint_diff_unknown_ref(self, capsys):
        assert main(["lint", "--diff", "no-such-ref-xyz"]) == 2
        assert "cannot resolve" in capsys.readouterr().err

    def test_lint_baseline_suppresses_known_findings(self, capsys, tmp_path):
        bad = tmp_path / "repro" / "alg" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f():\n    return np.random.rand()\n")
        assert main(["lint", "--json", str(bad)]) == 1
        baseline = tmp_path / "base.json"
        baseline.write_text(capsys.readouterr().out)
        assert main(["lint", "--baseline", str(baseline), str(bad)]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestSanitizeCheckCli:
    def test_traps_and_one_solver(self, capsys):
        rc = main(["sanitize-check", "--solver", "splitters"])
        assert rc == 0
        out = capsys.readouterr().out
        for trap in ("use-after-free", "double-free", "uninitialized-read",
                     "double-release", "lease-leak"):
            assert f"{trap:22s} PASS" in out
        assert "sanitize-check: PASS" in out

    def test_incompatible_override_reports_error(self, capsys):
        # reduction needs n to be a multiple of its part size; a bad
        # override must surface as a counted ERROR, not a traceback.
        rc = main(["sanitize-check", "--solver", "reduction", "--n", "4097"])
        assert rc == 1
        assert "ERROR" in capsys.readouterr().out


class TestApiDocs:
    def test_generated_api_docs_up_to_date(self):
        """docs/API.md must match the current public surface."""
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "gen_api_docs.py"), "--check"],
            cwd=root,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
