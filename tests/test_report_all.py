"""Tests for the EXPERIMENTS.md generator."""

from repro.experiments import report_all
from repro.experiments.base import ExperimentResult


def _fake_result(exp_id, passed=True):
    return ExperimentResult(
        exp_id=exp_id,
        title=f"fake {exp_id}",
        claim="a claim",
        headers=["x", "y"],
        rows=[(1, 2.0)],
        checks=[("always", passed)],
        notes=["a note"],
    )


def test_generates_document_with_commentary():
    results = [_fake_result("T1.R1"), _fake_result("ZZZ")]
    text, ok = report_all.generate_experiments_md(results)
    assert ok
    assert "2/2 experiments PASS" in text
    # Known experiment gets its curated commentary; unknown a generic one.
    assert "Theorems 1 and 5" in text
    assert "**fake ZZZ.**" in text
    assert "Reading guide" in text


def test_failures_reported():
    results = [_fake_result("A", passed=False)]
    text, ok = report_all.generate_experiments_md(results)
    assert not ok
    assert "0/1 experiments PASS" in text
    assert "verdict: FAIL" in text


def test_default_order_exactly_covers_registry():
    from repro.experiments import all_experiments

    registered = {e.exp_id for e in all_experiments()}
    order = report_all.DEFAULT_ORDER
    assert len(order) == len(set(order)), "DEFAULT_ORDER has duplicates"
    missing = registered - set(order)
    assert not missing, f"experiments missing from DEFAULT_ORDER: {missing}"
    stale = set(order) - registered
    assert not stale, f"DEFAULT_ORDER names unregistered experiments: {stale}"


def test_commentary_covers_all_registered_ids():
    from repro.experiments import all_experiments

    registered = {e.exp_id for e in all_experiments()}
    assert registered <= set(report_all.COMMENTARY), (
        "every registered experiment needs paper-vs-measured commentary"
    )
