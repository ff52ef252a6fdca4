"""Tests for the EXPERIMENTS.md generator."""

import pytest

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


def test_order_respected():
    results = [_fake_result("B"), _fake_result("A")]
    text, _ = report_all.generate_experiments_md(results, order=["A", "B"])
    assert text.index("fake A") < text.index("fake B")


def test_results_not_named_by_order_are_appended():
    results = [_fake_result("C"), _fake_result("A"), _fake_result("B")]
    text, _ = report_all.generate_experiments_md(results, order=["A", "B"])
    assert text.index("fake A") < text.index("fake B") < text.index("fake C")


def test_unknown_order_id_raises_instead_of_dropping():
    # A typo in the order list must fail loudly, not silently omit an
    # experiment from the document.
    with pytest.raises(KeyError, match="ZZTOP"):
        report_all.generate_experiments_md(
            [_fake_result("A")], order=["A", "ZZTOP"]
        )


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
