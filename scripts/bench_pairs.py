#!/usr/bin/env python
"""Record, or check, a perf ledger: alternating parent/change benchmark pairs.

A ledger (``BENCH_<n>.json`` at the repository root) holds every run of
the repository benchmark (``perfbench/run.py --trace 0``) that a speed
claim rests on, for two commits: a parent and a change.  Both are
exported the same way, with ``git archive`` into a temporary directory,
so neither side runs with a bytecode cache or a ``.git`` the other
lacks.  The change defaults to the working tree: ``HEAD``, or the commit
``git stash create`` makes of its uncommitted edits to tracked files.
Each pair runs both once on one workload and seed, and the side that
goes first alternates from pair to pair.  Run from the repository
root::

    python scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        --claim service-zipfian:ops_per_s \\
        --runs service-zipfian:1:10 service-zipfian:3:5 offline-partition:1:5

Each ``WORKLOAD:SEED:PAIRS`` spec adds that many pairs, each run as long
as ``BENCHMARK.json``'s ``run_seconds``; the ledger is rewritten after
every pair.  Every spec is checked before anything is exported or run:
the workload must be one ``BENCHMARK.json`` names, the seed an integer,
and the pairs at least five, since three pairs can fail ``--check`` on
host noise alone; a bad spec (or claim) exits 2.  The ledger stores the
spec it was recorded under (``run_seconds`` and the ``end_to_end``
metrics with their ``better`` and ``bound``) and, per run, the
benchmark's provenance and result lines.  Per workload and seed, and
per end-to-end metric, it stores each side's median and quartiles,
the relative change of the median (positive is better), the change's
wins and ties over the pairs, and whether the medians differ by more
than the parent's interquartile range.  ``--change REV`` runs a given
commit instead; ``--change`` equal to ``--parent`` records an A/A
ledger, which measures the method's own spread.  ``--claim
WORKLOAD:METRIC`` stores the gain the ledger was recorded to show.

::

    python scripts/bench_pairs.py --check BENCH_*.json

recomputes each summary from the stored runs, under the ledger's own
spec rather than today's ``BENCHMARK.json``, and exits 1 on a failed
answer, on a ``sim_io`` or ``setup_io`` that differs between runs of
one side on one workload and seed, on a change median worse than the
parent's by more than the metric's bound, or on a stored summary that
differs from the recomputed one.  A change may move block counts, as
long as they repeat; the bound then judges the move.  A ledger with a
claim also fails unless, on every seed of the claimed workload, the
change wins at least nine tenths of the pairs (rounded up) on the
claimed metric and its median is better than the parent's by more than
the parent's interquartile range.  It runs no benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 2
SIDES = ("parent", "change")
#: Block counts that must repeat exactly across one side's runs of a group.
EXACT = ("sim_io", "setup_io")
#: A claimed gain must win this share of each seed's pairs, rounded up.
CLAIM_WINS = (9, 10)
#: Fewest pairs one ``--runs`` spec may record.
MIN_PAIRS = 5


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest`` with ``git archive``."""
    archive = dest.parent / "tree.tar"
    _git("archive", "--format=tar", "-o", str(archive), rev)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()


def _run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` benchmark run from ``tree``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"exit": proc.returncode}
    try:
        run["provenance"] = json.loads(lines[-2])["provenance"]
        run["result"] = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        run["stderr"] = proc.stderr[-2000:]
    return run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per ``workload/seedN`` group: pair count and per-metric statistics."""
    groups: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        if "result" not in run:
            continue
        key = f"{run['workload']}/seed{run['seed']}"
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for key, pairs in sorted(groups.items()):
        complete = [p for _, p in sorted(pairs.items()) if len(p) == len(SIDES)]
        metrics = {}
        for m in spec["end_to_end"] if complete else ():
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            vals = {
                side: [p[side]["result"]["metrics"][name]["value"] for p in complete]
                for side in SIDES
            }
            stats = {side: _quartiles(vals[side]) for side in SIDES}
            p_med, c_med = stats["parent"][1], stats["change"][1]
            diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
            metrics[name] = {
                **{
                    side: {"median": med, "q1": q1, "q3": q3}
                    for side, (q1, med, q3) in stats.items()
                },
                "gain": sign * (c_med - p_med) / p_med if p_med else 0.0,
                "wins": sum(d > 0 for d in diffs),
                "ties": sum(d == 0 for d in diffs),
                "resolved": abs(c_med - p_med) > stats["parent"][2] - stats["parent"][0],
            }
        summary[key] = {"pairs": len(complete), "metrics": metrics}
    return summary


def problems(ledger: dict) -> list[str]:
    """Everything that makes ``ledger`` fail its check under its own spec."""
    spec = ledger.get("spec")
    if spec is None:
        return ["no spec recorded"]
    out = []
    runs = ledger.get("runs", [])
    if not runs:
        out.append("no runs")
    seen: dict[str, dict[str, object]] = {}
    for run in runs:
        where = f"{run['workload']}/seed{run['seed']} pair {run['pair']} {run['side']}"
        result = run.get("result")
        if run.get("exit") != 0 or result is None or not result["correct"]:
            out.append(f"{where}: failed run (exit {run.get('exit')})")
            continue
        first = seen.setdefault(
            f"{run['workload']}/seed{run['seed']} {run['side']}", {}
        )
        for name in EXACT:
            value = result["metrics"][name]["value"]
            if first.setdefault(name, value) != value:
                out.append(f"{where}: {name} {value} != {first[name]}")
    summary = summarize(runs, spec)
    if summary != ledger.get("summary"):
        out.append("stored summary differs from the one recomputed from the runs")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for key, group in summary.items():
        for name, s in group["metrics"].items():
            if s["gain"] < -bounds[name]:
                out.append(
                    f"{key}: {name} median {s['change']['median']:.6g} is "
                    f"{-s['gain']:.1%} worse than the parent's "
                    f"{s['parent']['median']:.6g} (bound {bounds[name]:.0%})"
                )
    if "claim" in ledger:
        out += _claim_problems(ledger["claim"], summary)
    return out


def _claim_problems(claim: dict, summary: dict) -> list[str]:
    """Every seed of the claimed workload where the claimed gain fails."""
    workload, metric = claim["workload"], claim["metric"]
    groups = {
        key: group for key, group in summary.items()
        if key.rsplit("/", 1)[0] == workload
    }
    if not groups:
        return [f"claim {workload}:{metric}: no complete pairs of {workload}"]
    out = []
    share, of = CLAIM_WINS
    for key, group in groups.items():
        s = group["metrics"].get(metric)
        if s is None:
            out.append(f"claim {workload}:{metric}: {metric} is not in the spec")
            continue
        need = -(-share * group["pairs"] // of)
        if s["wins"] < need:
            out.append(
                f"{key}: claimed {metric} wins {s['wins']} of "
                f"{group['pairs']} pairs, fewer than {need}"
            )
        if s["gain"] <= 0 or not s["resolved"]:
            out.append(
                f"{key}: claimed {metric} median is not better than the "
                f"parent's by more than the parent's IQR"
            )
    return out


def render(summary: dict) -> str:
    lines = []
    for key, group in summary.items():
        lines.append(f"{key}: {group['pairs']} pairs")
        for name, s in group["metrics"].items():
            p, c = s["parent"], s["change"]
            lines.append(
                f"  {name:<14}{p['median']:>12.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                f"  ->{c['median']:>12.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                f"  {s['gain']:>+7.1%}  wins {s['wins']}/{group['pairs']}"
                f"{'' if s['resolved'] else '  (within parent IQR)'}"
            )
    return "\n".join(lines)


def _commit(rev: str) -> str:
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}")


def parse_runs(specs: list[str], workloads: set[str]) -> list[tuple[str, int, int]]:
    """``WORKLOAD:SEED:PAIRS`` specs as ``(workload, seed, pairs)``;
    raises ValueError naming the first bad one."""
    out = []
    for text in specs:
        fields = text.split(":")
        if len(fields) != 3:
            raise ValueError(f"--runs {text}: want WORKLOAD:SEED:PAIRS")
        workload, seed, pairs = fields
        if workload not in workloads:
            raise ValueError(
                f"--runs {text}: BENCHMARK.json has no workload {workload!r}"
            )
        try:
            seed, pairs = int(seed), int(pairs)
        except ValueError:
            raise ValueError(f"--runs {text}: seed and pairs must be integers") from None
        if pairs < MIN_PAIRS:
            raise ValueError(f"--runs {text}: need at least {MIN_PAIRS} pairs")
        out.append((workload, seed, pairs))
    return out


def record(args, benchmark: dict, groups: list[tuple[str, int, int]]) -> int:
    # The part of the spec the ledger is judged by, kept with its runs.
    spec = {key: benchmark[key] for key in ("run_seconds", "end_to_end")}
    revs = {
        "parent": _commit(args.parent),
        "change": _commit(args.change or _git("stash", "create") or "HEAD"),
    }
    ledger = {
        "schema": SCHEMA,
        "command": "perfbench/run.py --trace 0",
        "spec": spec,
        **{side: {"rev": rev} for side, rev in revs.items()},
        "runs": [],
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        ledger["claim"] = {"workload": workload, "metric": metric}
    out = Path(args.out)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            _export(revs[side], trees[side])
        for workload, seed, pairs in groups:
            for pair in range(pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    run = _run_once(
                        trees[side], workload, seed, spec["run_seconds"]
                    )
                    run.update(
                        workload=workload, seed=seed, pair=pair,
                        side=side, position=position,
                    )
                    ledger["runs"].append(run)
                    metrics = run.get("result", {}).get("metrics", {})
                    ops = metrics.get("ops_per_s", {}).get("value")
                    print(f"{workload} seed {seed} pair {pair} {side}: ops/s {ops}",
                          flush=True)
                ledger["summary"] = summarize(ledger["runs"], spec)
                out.write_text(json.dumps(ledger, indent=1) + "\n")
    return check([args.out])


def check(paths: list[str]) -> int:
    status = 0
    for path in paths:
        ledger = json.loads(Path(path).read_text())
        print(f"{path}:")
        found = problems(ledger)
        if "spec" in ledger:
            print(render(summarize(ledger.get("runs", []), ledger["spec"])))
        if "claim" in ledger:
            print("claim: {workload}:{metric}".format(**ledger["claim"]))
        for problem in found:
            print(f"FAIL {problem}")
        print(f"{path}: {'FAIL' if found else 'PASS'}")
        status |= bool(found)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="recompute and check committed ledgers")
    parser.add_argument("--parent", help="parent commit to export and run")
    parser.add_argument("--change",
                        help="change commit to export and run (default: the "
                        "working tree's tracked files)")
    parser.add_argument("--out", help="ledger file to write")
    parser.add_argument("--runs", nargs="+", metavar="WORKLOAD:SEED:PAIRS",
                        help="pairs to run, per workload and seed")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the gain the ledger is recorded to show")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    if not (args.parent and args.out and args.runs):
        parser.error("recording needs --parent, --out and --runs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        groups = parse_runs(args.runs, {w["name"] for w in benchmark["workloads"]})
    except ValueError as exc:
        parser.error(str(exc))
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if metric not in {m["name"] for m in benchmark["end_to_end"]} or workload not in {
            g[0] for g in groups
        }:
            parser.error(f"--claim {args.claim}: no such metric, or no --runs of it")
    return record(args, benchmark, groups)


if __name__ == "__main__":
    sys.exit(main())
