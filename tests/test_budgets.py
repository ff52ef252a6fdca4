"""Tests for the I/O-budget regression gate (repro.obs.budget).

Workloads and algorithms are deterministic given their seeds, so the
gate's replay is exact — the committed ``benchmarks/budgets.json`` must
pass verbatim, and an artificially inflated solver must trip it.
"""

from __future__ import annotations

import inspect
import json
import re
from dataclasses import replace

import pytest

from repro.bounds import formulas
from repro.obs import (
    check_budgets,
    default_budgets_path,
    render_budget_report,
    write_budgets,
)
from repro.obs.budget import BUDGETS_SCHEMA_VERSION, DEFAULT_HEADROOM
from repro.obs.solvers import SOLVERS


class TestCommitted:
    def test_committed_budgets_pass_on_this_tree(self):
        path = default_budgets_path()
        assert path.exists(), "benchmarks/budgets.json must be committed"
        checks = check_budgets(path)
        assert [c.solver for c in checks] == list(SOLVERS)
        failing = [c.solver for c in checks if not c.ok]
        assert not failing, (
            f"I/O envelopes exceeded for {failing} — if the cost change is "
            "intentional, rerun `repro budgets --write` and commit the diff"
        )
        report = render_budget_report(checks)
        assert "budget gate: PASS" in report and "FAIL" not in report


def _registry_problems(solvers: dict, budget_names) -> list[str]:
    """Every disagreement between the solver registry, the committed
    budget envelopes, and the functions in ``repro.bounds.formulas``."""
    problems = [
        f"solver {name!r} has no envelope"
        for name in solvers
        if name not in budget_names
    ]
    problems += [
        f"envelope {name!r} has no solver"
        for name in budget_names
        if name not in solvers
    ]
    for name, solver in solvers.items():
        for ident in re.findall(r"[A-Za-z_]\w*", solver.formula_name):
            if not inspect.isfunction(getattr(formulas, ident, None)):
                problems.append(f"solver {name!r} names no formula {ident!r}")
    return problems


def _committed_budget_names() -> set[str]:
    return set(json.loads(default_budgets_path().read_text())["budgets"])


class TestRegistry:
    def test_solvers_budgets_and_formulas_agree(self):
        assert _registry_problems(SOLVERS, _committed_budget_names()) == []

    def test_composite_formula_names_resolve_per_identifier(self):
        # "reduction" is registered as "partition_left_bound + scan_io":
        # each identifier must name a formula, not the whole expression.
        composite = replace(
            SOLVERS["sort"], formula_name="partition_left_bound + scan_io"
        )
        assert _registry_problems({"sort": composite}, {"sort"}) == []

    def test_seeded_registry_defects_are_caught(self):
        budgets = _committed_budget_names()
        orphan = {**SOLVERS, "orphan": replace(SOLVERS["sort"], name="orphan")}
        assert _registry_problems(orphan, budgets) == [
            "solver 'orphan' has no envelope"
        ]
        typo = {
            **SOLVERS,
            "sort": replace(SOLVERS["sort"], formula_name="sort_io + scan_iox"),
        }
        assert _registry_problems(typo, budgets) == [
            "solver 'sort' names no formula 'scan_iox'"
        ]


class TestWriteAndGate:
    def test_write_check_and_inflation_trips_gate(self, tmp_path, monkeypatch):
        path = write_budgets(tmp_path / "budgets.json")
        doc = json.loads(path.read_text())
        assert doc["schema"] == BUDGETS_SCHEMA_VERSION
        assert doc["headroom"] == DEFAULT_HEADROOM
        assert set(doc["budgets"]) == set(SOLVERS)
        for entry in doc["budgets"].values():
            assert entry["envelope"] >= entry["ratio"] > 0
            assert entry["measured"] > 0

        checks = check_budgets(path)
        assert all(c.ok for c in checks)

        # Inflate one algorithm's I/O by ~25% (3 extra input scans —
        # far beyond the 8% headroom) and the gate must fail for it,
        # and only for it.
        base = SOLVERS["sort"]

        def noisy(machine, file, params):
            from repro.em.streams import scan_chunks

            out = base.run(machine, file, params)
            for _ in range(3):
                with scan_chunks(file, machine.B, "noise") as blocks:
                    for _block in blocks:
                        pass
            return out

        monkeypatch.setitem(SOLVERS, "sort", replace(base, run=noisy))
        verdicts = {c.solver: c for c in check_budgets(path)}
        assert not verdicts["sort"].ok
        assert verdicts["sort"].measured > verdicts["sort"].limit
        assert all(c.ok for name, c in verdicts.items() if name != "sort")
        assert "budget gate: FAIL" in render_budget_report(
            list(verdicts.values())
        )

    def test_headroom_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="headroom"):
            write_budgets(tmp_path / "b.json", headroom=0.9)


class TestFileValidation:
    def test_unknown_solver_in_file_raises(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({
            "schema": BUDGETS_SCHEMA_VERSION,
            "budgets": {"renamed-away": {"envelope": 1.0}},
        }))
        with pytest.raises(KeyError, match="renamed-away"):
            check_budgets(p)

    def test_missing_solvers_fail_loudly_without_running(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({
            "schema": BUDGETS_SCHEMA_VERSION, "budgets": {},
        }))
        checks = check_budgets(p)
        assert len(checks) == len(SOLVERS)
        assert all(not c.ok and c.envelope == 0.0 for c in checks)

    def test_schema_mismatch_raises(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"schema": 999, "budgets": {}}))
        with pytest.raises(ValueError, match="schema"):
            check_budgets(p)


class TestSolvers:
    def test_runs_are_deterministic(self):
        from repro.obs import run_solver

        a = run_solver("splitters")
        b = run_solver("splitters")
        assert (a["io"], a["comparisons"]) == (b["io"], b["comparisons"])

    def test_unknown_override_rejected(self):
        from repro.obs import build_instance

        with pytest.raises(KeyError, match="bogus"):
            build_instance("sort", {"bogus": 1})
