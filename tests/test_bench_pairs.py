"""The perf-ledger check in ``scripts/bench_pairs.py``, on synthetic ledgers.

A ledger passes only if every run answered correctly, block counts
repeat exactly within each side of each workload and seed, every change
median stays within the bound of the spec the ledger was recorded
under, and the stored summary is the one the runs give.  A ledger that
records a claim also needs the claimed metric to win nine tenths of each
seed's pairs by a median gap wider than the parent's IQR.  Each test
breaks one of these in an otherwise clean ledger, moves block counts
between the sides, or changes the spec between recording and checking.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_loader = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(bench_pairs)

#: The spec the synthetic ledgers are recorded under.
SPEC = {
    "run_seconds": 20,
    "end_to_end": [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in [
            ("setup_s", "s", "lower", 0.25),
            ("ops_per_s", "1/s", "higher", 0.2),
            ("flush_p50_ms", "ms", "lower", 0.2),
            ("flush_p90_ms", "ms", "lower", 0.25),
            ("sim_io", "blocks", "lower", 0.1),
            ("setup_io", "blocks", "lower", 0.05),
            ("peak_rss_mb", "MB", "lower", 0.1),
        ]
    ],
}

#: Parent-side values; the change is 10% faster on ops_per_s.
BASE = {
    "setup_s": 0.02, "ops_per_s": 3000.0, "flush_p50_ms": 1.5,
    "flush_p90_ms": 5.0, "sim_io": 259120, "setup_io": 16384,
    "peak_rss_mb": 176.0,
}


def _run(side, pair, scale=1.0, **override):
    values = dict(BASE, **override)
    if side == "change":
        values["ops_per_s"] *= 1.1 * scale
    return {
        "exit": 0,
        "workload": "service-zipfian",
        "seed": 1,
        "pair": pair,
        "side": side,
        "position": (pair + (side == "change")) % 2,
        "provenance": {},
        "result": {
            "correct": True,
            "attempted": 4096,
            "failed": 0,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in SPEC["end_to_end"]
            },
        },
    }


def _ledger(runs, spec=SPEC):
    return {
        "spec": spec, "runs": runs, "summary": bench_pairs.summarize(runs, spec)
    }


def _clean_runs(pairs=4):
    return [
        _run(side, pair, scale=1 + pair / 100)
        for pair in range(pairs)
        for side in ("parent", "change")
    ]


def test_clean_ledger_passes_and_summarizes():
    ledger = _ledger(_clean_runs())
    assert bench_pairs.problems(ledger) == []
    ops = ledger["summary"]["service-zipfian/seed1"]["metrics"]["ops_per_s"]
    assert ops["wins"] == 4 and ops["ties"] == 0 and ops["resolved"]
    assert ops["parent"] == {"median": 3000.0, "q1": 3000.0, "q3": 3000.0}
    assert ops["gain"] == pytest.approx(1.1 * 1.015 - 1)
    sim = ledger["summary"]["service-zipfian/seed1"]["metrics"]["sim_io"]
    assert sim["wins"] == 0 and sim["ties"] == 4 and not sim["resolved"]


def test_failed_answer_fails():
    runs = _clean_runs()
    runs[3]["exit"] = 1
    runs[3]["result"]["correct"] = False
    found = bench_pairs.problems(_ledger(runs))
    assert found == ["service-zipfian/seed1 pair 1 change: failed run (exit 1)"]


def test_block_count_drift_fails():
    runs = _clean_runs()
    runs[5] = _run("change", 2, setup_io=16385)
    found = bench_pairs.problems(_ledger(runs))
    assert found == ["service-zipfian/seed1 pair 2 change: setup_io 16385 != 16384"]


def test_lower_repeating_block_count_passes():
    # The change reads 3.5% fewer blocks than the parent on every run:
    # a gain, since lower sim_io is better, and each side repeats.
    runs = [
        _run(side, pair, **({"sim_io": 250000} if side == "change" else {}))
        for pair in range(4)
        for side in ("parent", "change")
    ]
    ledger = _ledger(runs)
    assert bench_pairs.problems(ledger) == []
    sim = ledger["summary"]["service-zipfian/seed1"]["metrics"]["sim_io"]
    assert sim["wins"] == 4 and sim["gain"] == pytest.approx(9120 / 259120)


def test_median_beyond_bound_fails():
    # ops_per_s may fall by 20%: 0.75 * 1.1 is 17.5% down, 0.7 * 1.1 23%.
    assert bench_pairs.problems(
        _ledger([_run(s, p, scale=0.75) for p in range(3) for s in ("parent", "change")])
    ) == []
    found = bench_pairs.problems(
        _ledger([_run(s, p, scale=0.7) for p in range(3) for s in ("parent", "change")])
    )
    assert len(found) == 1 and "ops_per_s median" in found[0]
    assert "23.0% worse" in found[0]


def test_edited_summary_fails():
    ledger = _ledger(_clean_runs())
    ledger["summary"]["service-zipfian/seed1"]["metrics"]["ops_per_s"]["wins"] = 3
    found = bench_pairs.problems(ledger)
    assert found == ["stored summary differs from the one recomputed from the runs"]


def test_empty_ledger_fails():
    assert bench_pairs.problems({"spec": SPEC, "runs": [], "summary": {}}) == ["no runs"]
    assert bench_pairs.problems({"runs": [], "summary": {}}) == ["no spec recorded"]


def test_check_uses_the_spec_the_ledger_was_recorded_under(tmp_path, capsys):
    # Recorded before peak_rss_mb joined the spec, with a looser
    # ops_per_s bound: the runs lack peak_rss_mb, and ops_per_s is 23%
    # down, which today's 20% bound would fail.
    older = {
        "run_seconds": 10,
        "end_to_end": [
            dict(m, bound=0.3) if m["name"] == "ops_per_s" else m
            for m in SPEC["end_to_end"]
            if m["name"] != "peak_rss_mb"
        ],
    }
    runs = [_run(s, p, scale=0.7) for p in range(3) for s in ("parent", "change")]
    for run in runs:
        del run["result"]["metrics"]["peak_rss_mb"]
    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(_ledger(runs, older)))
    assert bench_pairs.main(["--check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "peak_rss_mb" not in out and out.endswith("BENCH_0.json: PASS\n")
    # The same runs recorded under the 20% bound fail.
    tighter = dict(older, end_to_end=SPEC["end_to_end"][:2])
    path.write_text(json.dumps(_ledger(runs, tighter)))
    assert bench_pairs.main(["--check", str(path)]) == 1
    assert "ops_per_s median" in capsys.readouterr().out


def _claim_ledger(parent_ops, change_ops):
    """A ledger claiming ``service-zipfian:ops_per_s``, one pair per
    (parent, change) value."""
    runs = []
    for pair, values in enumerate(zip(parent_ops, change_ops)):
        for side, ops in zip(("parent", "change"), values):
            run = _run(side, pair)
            run["result"]["metrics"]["ops_per_s"]["value"] = ops
            runs.append(run)
    return dict(
        _ledger(runs), claim={"workload": "service-zipfian", "metric": "ops_per_s"}
    )


def test_claim_with_nine_of_ten_wins_and_a_resolved_gap_passes():
    ledger = _claim_ledger([3000.0] * 10, [3300.0] * 9 + [2900.0])
    assert bench_pairs.problems(ledger) == []


def test_claim_with_eight_of_ten_wins_fails():
    ledger = _claim_ledger([3000.0] * 10, [3300.0] * 8 + [2900.0] * 2)
    assert bench_pairs.problems(ledger) == [
        "service-zipfian/seed1: claimed ops_per_s wins 8 of 10 pairs, fewer than 9"
    ]


def test_claim_with_a_gap_inside_the_parent_iqr_fails():
    # The change wins every pair by 50, but the parent's runs spread
    # over an IQR of 450, so the gain is not resolved.
    parent = [3000.0 + 100 * pair for pair in range(10)]
    ledger = _claim_ledger(parent, [ops + 50 for ops in parent])
    assert bench_pairs.problems(ledger) == [
        "service-zipfian/seed1: claimed ops_per_s median is not better than "
        "the parent's by more than the parent's IQR"
    ]
    # Without the claim the same runs pass, as claimless ledgers do.
    del ledger["claim"]
    assert bench_pairs.problems(ledger) == []


@pytest.mark.parametrize(
    "spec",
    ["service-zipfian:1:3", "service-zipfain:1:10", "service-zipfian:10"],
    ids=["three-pairs", "unknown-workload", "two-fields"],
)
def test_bad_run_spec_exits_2_before_any_export(spec, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(bench_pairs, "_git", lambda *a: calls.append(("git", a)))
    monkeypatch.setattr(bench_pairs, "_export", lambda *a: calls.append(("export", a)))
    out = tmp_path / "BENCH_0.json"
    argv = ["--parent", "HEAD", "--out", str(out),
            "--runs", "offline-partition:1:5", spec]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert spec in capsys.readouterr().err
    assert calls == [] and not out.exists()
