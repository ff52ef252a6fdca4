"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload service-zipfian --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole repetitions untraced and prints the end-to-end
metrics; ``--trace 1`` also times repetitions with every layer wrapped
(see ``layers.py``) and prints the per-layer metrics.  ``--smoke`` uses
tiny inputs.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance (source digest, host, versions, sizes, sample
counts).  The run fails (exit 1) when any answer disagrees with the
sorted-array oracle or any block count fails to repeat exactly.
"""

from __future__ import annotations

import os

# One process, no helper threads: pin numpy's BLAS pools before import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_SEED = 1

#: Set-up is repeated (without the trace) until it has this many samples.
SETUP_SAMPLES = 11


def _import_program():
    """Import the program from ``src/``; ``None`` when it is not there."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return None
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return None
    import layers
    import workloads

    return layers, workloads


def _git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """SHA-256 over every program source file, path and content."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _percentile(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


def _counter(families: dict, name: str, **labels: str) -> int:
    """Sum of a registry counter's children matching ``labels``."""
    fam = families.get(name)
    if fam is None:
        return 0
    if "children" not in fam:
        return int(fam.get("value", 0))
    total = 0
    for key, child in fam["children"].items():
        pairs = dict(p.split("=", 1) for p in key.split(",") if p)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += int(child["value"])
    return total


class Runner:
    """Repetitions of one workload, untraced or traced."""

    def __init__(self, layers, workloads, name: str, sizes: dict, seed: int) -> None:
        self.layers = layers
        self.workload = workloads.WORKLOADS[name]
        self.Probe = workloads.Probe
        self.sizes = sizes
        self.inputs = self.workload.inputs(sizes, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        from host import Host

        self.host = Host()

    def _rep(self, probe, setup_only: bool = False):
        from repro.em.machine import observe_machines

        self.host.settle()
        with observe_machines(probe.machines.append):
            return self.workload.rep(self.sizes, self.inputs, probe, setup_only)

    def _check(self, rep) -> None:
        attempted, failed = self.workload.check(self.sizes, self.inputs, rep.answers)
        self.attempted += attempted
        self.failed += failed
        rep.answers = None

    def untraced(self, seconds: float, min_reps: int) -> list:
        reps = []
        deadline = perf_counter() + seconds
        while len(reps) < min_reps or perf_counter() < deadline:
            rep = self._rep(self.Probe())
            self._check(rep)
            reps.append(rep)
        return reps

    def setup_samples(self, reps: list) -> list[float]:
        """Set-up times of ``reps`` plus set-up-only repetitions."""
        samples = [r.setup_s for r in reps]
        while len(samples) < SETUP_SAMPLES:
            rep = self._rep(self.Probe(), setup_only=True)
            samples.append(rep.setup_s)
            self._same("setup_io", reps[0].setup_io, rep.setup_io)
        return samples

    def traced(self, seconds: float) -> list[dict]:
        """Traced repetitions; each returns its layer times and counts."""
        from repro.obs.metrics import MetricsRegistry, metrics_scope

        tracer = self.layers.Tracer()
        tracer.install()
        out = []
        try:
            deadline = perf_counter() + seconds
            while not out or perf_counter() < deadline:
                tracer.reset()
                probe = self.Probe()
                marks = {}

                def mark(label, probe=probe, marks=marks):
                    marks[label] = tracer.snapshot()
                    marks[label]["machines"] = self._machine_counts(probe.machines)

                probe.on_mark = mark
                tracer.io_total = probe.io
                registry = MetricsRegistry()
                with metrics_scope(registry):
                    rep = self._rep(probe)
                self._check(rep)
                out.append({"rep": rep, "marks": marks, "families": registry.to_dict()})
        finally:
            tracer.uninstall()
        return out

    @staticmethod
    def _machine_counts(machines) -> dict:
        """Exact counts read from every machine's public counters."""
        from repro.em.wire import RECV_PHASE, SEND_PHASE

        wire_blocks = 0
        for m in machines:
            for path, (r, w) in m.io.by_phase.items():
                if path.rsplit("/", 1)[-1] in (SEND_PHASE, RECV_PHASE):
                    wire_blocks += r + w
        shard_io = [m.disk.lifetime.total for m in machines if m.label.startswith("shard-")]
        return {
            "reads": sum(m.disk.lifetime.reads for m in machines),
            "writes": sum(m.disk.lifetime.writes for m in machines),
            "peak_blocks": sum(m.disk.peak_blocks for m in machines),
            "wire_blocks": wire_blocks,
            "shard_io": shard_io,
        }

    def _same(self, what: str, want, got) -> None:
        if want != got:
            self.failed += 1
            self.problems.append(f"{what} did not repeat: {want} != {got}")

    def check_repeats(self, reps: list) -> None:
        for rep in reps[1:]:
            self._same("setup_io", reps[0].setup_io, rep.setup_io)
            self._same("sim_io", reps[0].sim_io, rep.sim_io)


def _floor(reps: list, attr: str) -> list[float]:
    """Each batch's fastest latency across repetitions.

    Every repetition replays the identical batches, so a batch that ran
    slower in one repetition was slowed by the host (other tenants of a
    shared machine), not by the program; its fastest run is its cost.
    """
    return [min(runs) for runs in zip(*(getattr(r, attr) for r in reps))]


def end_to_end(runner: Runner, reps: list) -> dict:
    setup = statistics.median(runner.setup_samples(reps))
    scale = runner.host.scale
    batches = [ms * scale for ms in _floor(reps, "batch_ms")]
    return {
        "setup_s": setup * scale,
        "ops_per_s": reps[0].ops / (sum(batches) / 1e3),
        "flush_p50_ms": _percentile(batches, 50),
        "flush_p90_ms": _percentile(batches, 90),
        "sim_io": reps[0].sim_io,
        "setup_io": reps[0].setup_io,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _exact_counts(t: dict) -> dict:
    """Every count of one traced repetition that must repeat exactly."""
    fam, rep = t["families"], t["rep"]
    mc = t["marks"]["trace"]["machines"]
    calls = t["marks"]["trace"]["calls"]
    return {
        "setup_io": rep.setup_io,
        "sim_io": rep.sim_io,
        "em.reads": mc["reads"],
        "em.writes": mc["writes"],
        "em.calls": calls.get("em.io", 0),
        "em.blocks": t["marks"]["trace"]["em_blocks"],
        "em.peak_blocks": mc["peak_blocks"],
        "kernel.calls": sum(v for k, v in calls.items() if k.startswith("kernel.")),
        "wire.msgs": _counter(fam, "svc_shard_msgs", direction="send"),
        "wire.blocks": mc["wire_blocks"],
        "core.io": t["marks"]["trace"]["core_io"],
        "core.records": t["marks"]["trace"]["core_records"],
        "service.refinements": _counter(fam, "svc_refinements"),
        "service.leaf_loads": _counter(fam, "svc_leaf_loads"),
        "cache.hits": _counter(fam, "svc_cache_lookups", result="hit"),
        "cache.misses": _counter(fam, "svc_cache_lookups", result="miss"),
        "select_ranks": _counter(fam, "svc_select_ranks"),
        "distinct_ranks": _counter(fam, "svc_distinct_ranks"),
        "service.splits": _counter(fam, "svc_maintenance", op="split"),
        "service.merges": _counter(fam, "svc_maintenance", op="merge"),
        "service.rebuilds": _counter(fam, "svc_maintenance", op="rebuild"),
        "durability.wal_groups": _counter(fam, "svc_wal_groups"),
        "durability.snapshots": _counter(fam, "svc_snapshots"),
        "shard.trace_steps": calls.get("shard.worker", 0)
        - t["marks"]["setup"]["calls"].get("shard.worker", 0),
    }


def per_layer(runner: Runner, untraced: list, traced: list) -> dict:
    counts = [_exact_counts(t) for t in traced]
    for c in counts[1:]:
        for key, value in counts[0].items():
            runner._same(f"traced {key}", value, c[key])
    c = counts[0]
    # The wrappers sit outside the cost model: traced == untraced.
    runner._same("traced setup_io", untraced[0].setup_io, c["setup_io"])
    runner._same("traced sim_io", untraced[0].sim_io, c["sim_io"])
    runner._same(
        "em reads+writes vs setup_io+sim_io",
        c["setup_io"] + c["sim_io"],
        c["em.reads"] + c["em.writes"],
    )

    scale = runner.host.scale
    times = [runner.layers.layer_times(t["marks"]["trace"]) for t in traced]
    out = {name: scale * statistics.median(t[name] for t in times) for name in times[0]}
    updates = [ms * scale for ms in _floor(untraced, "update_ms")]
    rep = traced[0]["rep"]
    shard_io = traced[0]["marks"]["trace"]["machines"]["shard_io"]
    lookups = c["cache.hits"] + c["cache.misses"]
    n = min(len(untraced), len(traced))
    has_updates = any(r.update_ms for r in untraced)
    has_service = c["select_ranks"] + c["service.leaf_loads"] > 0 or has_updates
    out.update({
        "kernel.calls": c["kernel.calls"],
        "em.reads": c["em.reads"],
        "em.writes": c["em.writes"],
        "em.blocks_per_call": c["em.blocks"] / c["em.calls"] if c["em.calls"] else 0.0,
        "em.peak_blocks": c["em.peak_blocks"],
        "wire.msgs": c["wire.msgs"],
        "wire.blocks": c["wire.blocks"],
        "core.io_per_record": c["core.io"] / c["core.records"] if c["core.records"] else 0.0,
        "service.refinements": c["service.refinements"],
        "service.leaf_loads": c["service.leaf_loads"],
        "service.cache_hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
        "service.coalescing_ratio": (
            c["distinct_ranks"] / c["select_ranks"] if c["select_ranks"] else 0.0
        ),
        "service.io_per_query": rep.sim_io / rep.ops if has_service else 0.0,
        "service.update_p50_ms": _percentile(updates, 50),
        "service.update_p90_ms": _percentile(updates, 90),
        "service.splits": c["service.splits"],
        "service.merges": c["service.merges"],
        "service.rebuilds": c["service.rebuilds"],
        "durability.wal_groups": c["durability.wal_groups"],
        "durability.snapshots": c["durability.snapshots"],
        "shard.requests_per_query": c["shard.trace_steps"] / rep.ops,
        "shard.io_balance": (
            max(shard_io) / (sum(shard_io) / len(shard_io)) if shard_io else 0.0
        ),
        # Floors sink as repetitions accumulate: compare equal counts.
        "trace.overhead": sum(_floor([t["rep"] for t in traced[:n]], "batch_ms"))
        / sum(_floor(untraced[:n], "batch_ms")),
    })
    return out


def provenance(args, runner: Runner, untraced: list, traced: list) -> dict:
    import numpy
    from repro.em.kernels import get_kernel

    from host import REFERENCE_S
    from workloads import BLOCK, MEMORY

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": runner.sizes,
        "machine": {"M": MEMORY, "B": BLOCK},
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": get_kernel().name,
        "reps": len(untraced),
        "traced_reps": len(traced),
        "batch_samples": sum(len(r.batch_ms) for r in untraced),
        "update_samples": sum(len(r.update_ms) for r in untraced),
        "reference_kernel_s": min(runner.host.samples),
        "reference_s": REFERENCE_S,
        "time_scale": runner.host.scale,
    }


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    program = _import_program()
    if program is None:
        return 2
    layers, workloads = program
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    sizes = (workloads.SMOKE_SIZES if args.smoke else workloads.SIZES)[args.workload]

    runner = Runner(layers, workloads, args.workload, sizes, args.seed)
    if args.trace:
        untraced = runner.untraced(args.seconds / 2, min_reps=1)
        traced = runner.traced(args.seconds / 2)
        values = per_layer(runner, untraced, traced)
        wanted = spec["per_layer"]
    else:
        untraced = runner.untraced(args.seconds, min_reps=2)
        traced = []
        runner.check_repeats(untraced)
        values = end_to_end(runner, untraced)
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in wanted})}"
        )
    for problem in runner.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, runner, untraced, traced)}))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
