"""Command-line entry point: ``repro`` (or ``python -m repro``).

Subcommands:

``repro list``
    List the registered experiments (one per paper claim).
``repro run [EXP_ID ...] [--full] [--out DIR] [--jobs N]``
    Run experiments (in parallel with ``--jobs``) and print their
    measured-vs-bound tables; optionally write each rendered table to
    ``DIR/<id>.txt``.
``repro report [--quick] [--jobs N] [--no-cache] [--json PATH]``
    Run every experiment through the parallel, cached runner and write
    EXPERIMENTS.md plus machine-readable ``results.json``.
``repro demo``
    A 30-second tour: quickstart-style run of the headline algorithms.
``repro bounds --n N --k K --a A --b B [--memory M] [--block B]``
    Evaluate every Table 1 bound for concrete parameters.
``repro solve --problem {splitters,partition,multiselect} --n N --k K ...``
    Run one algorithm on a generated workload, verify the output, and
    print measured I/O, comparisons, and the phase breakdown.
``repro trace ALGORITHM [--out DIR] [--json] [--n N] [--k K] ...``
    Run one registered solver under the span tracer and export the
    recorded tree three ways: Chrome/Perfetto ``.trace.json``, a
    rendered text tree, and the plain-dict span JSON (``--json``
    prints that payload to stdout for CI artifacts).
``repro metrics ALGORITHM [--out DIR] [--json] [--n N] ...``
    Run one registered solver inside a metrics scope + flight recorder
    and export the service telemetry: a rendered metrics table,
    Prometheus text exposition (``.prom``), metrics JSON, and the
    flight-recorder event dump.
``repro budgets [--check | --write] [--path FILE] [--headroom H]``
    Check every registered solver against its committed I/O envelope
    (the regression gate), or recalibrate and rewrite the envelopes.
``repro lint [PATH ...] [--json] [--rule RULE ...] [--diff REF] ...``
    Run the emlint EM-conformance rules (R1–R6) over the source tree;
    non-zero exit on any active error-severity finding.
``repro sanitize-check [--solver NAME ...] [--n N] ...``
    Arm the runtime sanitizer: fire every trap (use-after-free,
    double-free, uninitialized read, double release, lease leak), then
    run the registered solvers under ``Machine(sanitize=True)`` with
    the tracer's counter-conservation check enabled.
``repro serve --n N --k K [--engine eager|lazy] [--durable] ...``
    Interactive partition service: build an index over a generated
    workload and answer queries (and, with the eager engine, apply
    appends/deletes) read line-by-line from stdin.  ``--durable`` adds
    WAL + snapshot persistence and the ``snapshot``/``crash``/``abort``/
    ``dstats`` commands (``crash`` abandons the live index and recovers
    it from the manifest in-session; ``abort`` simulates an unclean
    exit, which dumps the flight recorder to ``--flight-dump``).
``repro recover [--fail-at I] [--flight-dump FILE] ...``
    Crash-recovery scenario: build a durable index, apply an
    interleaved update plan, kill the machine at the ``--fail-at``-th
    counted I/O, recover from the manifest, and verify the recovered
    answers are element-identical to an uncrashed shadow run.  With
    ``--flight-dump FILE``, instead render a flight-recorder dump
    written by an earlier unclean ``repro serve`` exit.
``repro query --n N --k K QUERY [QUERY ...]``
    One-shot batch: coalesce the given queries (``select:R``,
    ``quantile:Q``, ``range:LO:HI``, ``part:KEY``) into one frontend
    flush and print the answers with the measured I/O.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__

__all__ = ["main"]


def _cmd_list(args) -> int:
    from .experiments import all_experiments

    for exp in all_experiments():
        print(f"{exp.exp_id:8s} {exp.title}")
    return 0


def _progress_line(rec) -> None:
    state = "cached" if rec.cached else f"{rec.wall_s:.1f}s"
    verdict = "PASS" if rec.passed else "FAIL"
    print(f"  {rec.exp_id:8s} {state:>8s}  {verdict}", flush=True)


def _cmd_run(args) -> int:
    from .experiments import all_experiments
    from .experiments.runner import run_experiments

    ids = args.exp_ids or [e.exp_id for e in all_experiments()]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    records = run_experiments(
        ids,
        quick=not args.full,
        jobs=args.jobs,
        cache=False,
        progress=_progress_line if len(ids) > 1 else None,
    )
    # Render in request order; a crashed experiment becomes a FAIL table
    # (and a non-zero exit) without suppressing the others' output files.
    all_ok = True
    for rec in records:
        rendered = rec.to_result().render()
        print(rendered)
        print(f"({rec.wall_s:.1f}s)\n")
        if out_dir:
            (out_dir / f"{rec.exp_id.replace('.', '_')}.txt").write_text(
                rendered + "\n"
            )
        all_ok &= rec.passed
    return 0 if all_ok else 1


def _cmd_demo(args) -> int:
    from .analysis import check_multiselect, check_splitters
    from .bounds import splitters_right_bound
    from .core import multi_select, right_grounded_splitters
    from .em import Machine
    from .workloads import load_input, random_permutation

    machine = Machine(memory=4096, block=64)
    n, k, a = 100_000, 64, 32
    data = random_permutation(n, seed=0)
    file = load_input(machine, data)
    print(f"machine M={machine.M} B={machine.B}; input N={n} "
          f"({file.num_blocks} blocks)")

    with machine.measure() as cost:
        res = right_grounded_splitters(machine, file, k, a)
    check_splitters(data, res.splitters, a, n, k)
    bound = splitters_right_bound(n, k, a, machine.M, machine.B)
    print(f"\nright-grounded {k}-splitters (a={a}): {cost.total} I/Os "
          f"(bound {bound:.0f}; one scan = {n // machine.B})")
    print("  -> sublinear: the splitters were found without reading most "
          "of the input")

    ranks = np.linspace(1, n, 16).astype(np.int64)
    with machine.measure() as cost:
        ans = multi_select(machine, file, ranks)
    check_multiselect(data, ranks, ans)
    print(f"\nmulti-selection of {len(ranks)} ranks: {cost.total} I/Os "
          f"(Theorem 4's linear base case)")
    print("\nall outputs verified ✓ — see `repro run` for the full "
          "reproduction tables")
    return 0


def _cmd_bounds(args) -> int:
    from .bounds.table import render_table1

    print(
        render_table1(args.n, args.k, args.a, args.b, args.memory, args.block)
    )
    return 0


def _cmd_solve(args) -> int:
    from .analysis import (
        check_multiselect,
        check_partitioned,
        check_splitters,
        render_phase_breakdown,
    )
    from .core import approximate_partition, approximate_splitters, multi_select
    from .em import Machine
    from .workloads import WORKLOADS, load_input

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(WORKLOADS))}")
        return 2
    machine = Machine(memory=args.memory, block=args.block)
    records = WORKLOADS[args.workload](args.n, seed=args.seed)
    file = load_input(machine, records)
    a = args.a if args.a is not None else 0
    b = args.b if args.b is not None else args.n
    print(f"machine M={machine.M} B={machine.B}; workload {args.workload} "
          f"N={args.n} seed={args.seed}")

    if args.trace:
        machine.disk.start_trace()
    pf = None
    try:
        with machine.measure() as cost:
            if args.problem == "splitters":
                result = approximate_splitters(machine, file, args.k, a, b)
                check_splitters(records, result.splitters, a, b, args.k)
                outcome = f"{len(result.splitters)} splitters ({result.variant})"
            elif args.problem == "partition":
                pf = approximate_partition(machine, file, args.k, a, b)
                sizes = check_partitioned(records, pf, a, b, args.k)
                outcome = (
                    f"{args.k} partitions, sizes in "
                    f"[{min(sizes)}, {max(sizes)}]"
                )
            else:  # multiselect
                ranks = np.linspace(1, args.n, args.k).astype(np.int64)
                answers = multi_select(machine, file, ranks)
                check_multiselect(records, ranks, answers)
                outcome = f"{args.k} ranks selected"

        print(f"\n{args.problem}: {outcome} — verified ✓")
        print(f"simulated I/O: {cost.total:,} "
              f"(one scan = {args.n // machine.B:,}); "
              f"comparisons: {machine.comparisons:,}")
        print(f"memory peak: {machine.memory.peak} / {machine.M}\n")
        print(render_phase_breakdown(cost))
        if args.trace:
            from .analysis import access_stats

            s = access_stats(machine.disk.stop_trace())
            print(
                f"\naccess pattern: read sequentiality "
                f"{s.read_sequentiality:.2f} "
                f"(mean run {s.read_mean_run:.1f} blocks), "
                f"write sequentiality {s.write_sequentiality:.2f}"
            )
        return 0
    except Exception as exc:
        print(f"solve failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        # Lifecycle hygiene even when the algorithm or a verification
        # check raises mid-measure: close the trace window and release
        # every file this command allocated.
        if machine.disk.tracing:
            machine.disk.stop_trace()
        if pf is not None:
            pf.free()
        file.free()


def _cmd_trace(args) -> int:
    import json

    from .experiments.runner import default_out_dir
    from .obs import (
        Tracer,
        build_instance,
        render_span_tree,
        span_rollup,
        traces_to_dict,
        write_chrome_trace,
    )

    overrides = {
        key: getattr(args, key)
        for key in ("n", "k", "a", "part_size", "memory", "block", "seed")
        if getattr(args, key) is not None
    }
    solver, machine, file, params = build_instance(args.algorithm, overrides)
    tracer = Tracer()
    tracer.attach(machine)
    try:
        outcome = solver.run(machine, file, params)
    finally:
        file.free()
        tracer.detach(machine)

    out_dir = Path(args.out) if args.out else default_out_dir() / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    chrome_path = write_chrome_trace(
        tracer.traces, out_dir / f"{args.algorithm}.trace.json"
    )
    tree = render_span_tree(tracer.traces)
    tree_path = out_dir / f"{args.algorithm}.tree.txt"
    tree_path.write_text(tree + "\n")
    payload = {
        "solver": args.algorithm,
        "title": solver.title,
        "params": params,
        "outcome": outcome,
        "io": machine.io.total,
        "comparisons": machine.comparisons,
        "rollup": span_rollup(tracer.traces),
        "traces": traces_to_dict(tracer.traces),
    }
    spans_path = out_dir / f"{args.algorithm}.spans.json"
    spans_path.write_text(json.dumps(payload, indent=1) + "\n")

    if args.json:
        print(json.dumps(payload, indent=1))
        return 0
    print(f"{args.algorithm}: {outcome}\n")
    print(tree)
    print(
        f"\nwrote {chrome_path} (load at https://ui.perfetto.dev),\n"
        f"      {tree_path},\n      {spans_path}"
    )
    return 0


def _cmd_metrics(args) -> int:
    from .experiments.runner import default_out_dir
    from .obs import (
        FlightRecorder,
        MetricsRegistry,
        build_instance,
        flight_scope,
        metrics_scope,
    )

    import json

    overrides = {
        key: getattr(args, key)
        for key in ("n", "k", "a", "part_size", "memory", "block", "seed")
        if getattr(args, key) is not None
    }
    solver, machine, file, params = build_instance(args.algorithm, overrides)
    registry = MetricsRegistry()
    recorder = FlightRecorder()
    try:
        with metrics_scope(registry), flight_scope(recorder):
            outcome = solver.run(machine, file, params)
    finally:
        file.free()

    out_dir = Path(args.out) if args.out else default_out_dir() / "metrics"
    out_dir.mkdir(parents=True, exist_ok=True)
    prom_path = out_dir / f"{args.algorithm}.prom"
    prom_path.write_text(registry.to_prometheus())
    payload = {
        "solver": args.algorithm,
        "title": solver.title,
        "params": params,
        "outcome": outcome,
        "io": machine.io.total,
        "comparisons": machine.comparisons,
        "metrics": registry.to_dict(),
        "flight": recorder.to_dict(),
    }
    json_path = out_dir / f"{args.algorithm}.metrics.json"
    json_path.write_text(json.dumps(payload, indent=1) + "\n")
    flight_path = recorder.dump(out_dir / f"{args.algorithm}.flight.json")

    if args.json:
        print(json.dumps(payload, indent=1))
        return 0
    print(f"{args.algorithm}: {outcome}\n")
    print(registry.render())
    print()
    print(recorder.render())
    print(
        f"\nwrote {prom_path},\n      {json_path},\n      {flight_path}"
    )
    return 0


def _cmd_budgets(args) -> int:
    from .obs import check_budgets, render_budget_report, write_budgets

    path = args.path
    if args.write:
        path = write_budgets(path, headroom=args.headroom)
        print(f"wrote {path}")
    checks = check_budgets(path)
    print(render_budget_report(checks))
    return 0 if all(c.ok for c in checks) else 1


def _cmd_lint(args) -> int:
    import json as _json

    from .lint import lint_paths
    from .lint.runner import baseline_delta, git_changed_files

    rule_ids = None
    if args.rule:
        rule_ids = [
            r.strip()
            for spec in args.rule
            for r in spec.split(",")
            if r.strip()
        ]
    paths = args.paths or None
    only_paths = None
    if getattr(args, "diff", None):
        changed = git_changed_files(args.diff)
        if changed is None:
            print(
                f"lint --diff: cannot resolve git ref {args.diff!r}",
                file=sys.stderr,
            )
            return 2
        only_paths = changed
    try:
        report = lint_paths(
            paths,
            rule_ids=rule_ids,
            use_cache=not getattr(args, "no_cache", False),
            only_paths=only_paths,
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if getattr(args, "baseline", None):
        try:
            baseline = _json.loads(Path(args.baseline).read_text())
        except (OSError, ValueError) as exc:
            print(f"lint --baseline: {exc}", file=sys.stderr)
            return 2
        report = baseline_delta(report, baseline)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _sanitize_trap_checks() -> list[tuple[str, bool]]:
    """Deliberately trigger every sanitizer trap on a throwaway machine.

    Returns ``(trap name, fired)`` pairs — each trap must raise its
    specific :class:`~repro.em.errors.SanitizerError` subclass.
    """
    from .em import (
        DoubleFreeError,
        DoubleReleaseError,
        LeaseLeakError,
        Machine,
        UninitializedReadError,
        UseAfterFreeError,
    )
    from .em.records import make_records

    results: list[tuple[str, bool]] = []

    def trap(name: str, exc_type, fn) -> None:
        machine = Machine(memory=256, block=8, sanitize=True)
        try:
            fn(machine)
        except exc_type:
            results.append((name, True))
        else:
            results.append((name, False))

    data = make_records(np.arange(8))

    def use_after_free(machine):
        (bid,) = machine.disk.allocate(1)
        machine.disk.write(bid, data)
        machine.disk.free([bid])
        machine.disk.read(bid)

    def double_free(machine):
        (bid,) = machine.disk.allocate(1)
        machine.disk.write(bid, data)
        machine.disk.free([bid])
        machine.disk.free([bid])

    def uninitialized_read(machine):
        (bid,) = machine.disk.allocate(1)
        machine.disk.read(bid)

    def double_release(machine):
        lease = machine.memory.lease(8, "trap")  # emlint: disable=R5 — deliberate trap fixture
        lease.release()
        lease.release()

    def lease_leak(machine):
        machine.memory.lease(8, "leak")  # emlint: disable=R5 — deliberate trap fixture
        machine.close()

    trap("use-after-free", UseAfterFreeError, use_after_free)
    trap("double-free", DoubleFreeError, double_free)
    trap("uninitialized-read", UninitializedReadError, uninitialized_read)
    trap("double-release", DoubleReleaseError, double_release)
    trap("lease-leak", LeaseLeakError, lease_leak)
    return results


def _cmd_sanitize_check(args) -> int:
    from .em import Machine
    from .em.errors import SanitizerError
    from .obs import Tracer
    from .obs.solvers import SOLVERS
    from .workloads.generators import load_input, random_permutation

    failures = 0

    print("sanitizer traps (each must fire):")
    for name, fired in _sanitize_trap_checks():
        print(f"  {name:22s} {'PASS' if fired else 'FAIL (did not raise)'}")
        failures += 0 if fired else 1

    names = args.solver or sorted(SOLVERS)
    unknown = set(names) - set(SOLVERS)
    if unknown:
        print(f"unknown solvers: {sorted(unknown)}", file=sys.stderr)
        return 2
    print("\nsolvers under Machine(sanitize=True) + conservation check:")
    for name in names:
        solver = SOLVERS[name]
        params = dict(solver.defaults)
        for key in ("n", "memory", "block"):
            if getattr(args, key) is not None:
                params[key] = getattr(args, key)
        machine = Machine(
            memory=params["memory"], block=params["block"], sanitize=True
        )
        file = load_input(
            machine, random_permutation(params["n"], seed=params["seed"])
        )
        machine.reset_counters()
        tracer = Tracer()
        tracer.attach(machine)
        try:
            outcome = solver.run(machine, file, params)
            file.free()
            tracer.detach(machine)  # conservation check fires here
            machine.close()  # lease-leak check fires here
        except SanitizerError as exc:
            failures += 1
            print(f"  {name:22s} FAIL {type(exc).__name__}: {exc}")
        except Exception as exc:  # incompatible overrides, solver bugs
            failures += 1
            print(f"  {name:22s} ERROR {type(exc).__name__}: {exc}")
        else:
            print(f"  {name:22s} PASS {outcome}")

    print(f"\nsanitize-check: {'PASS' if failures == 0 else f'{failures} FAILURE(S)'}")
    return 0 if failures == 0 else 1


def _build_service(args):
    """Shared setup for the service verbs: machine, input, engine.

    Returns ``(machine, file, engine)``; ``file`` is ``None`` when the
    engine took ownership of the data (the eager index copies the input
    into its own partition segments, so the staging file is freed here).
    """
    from .em import Machine
    from .service import LazyPartitionIndex, PartitionIndex
    from .workloads import WORKLOADS, load_input

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        raise SystemExit(2)
    durable = getattr(args, "durable", False)
    if durable and args.engine != "eager":
        print("--durable requires the eager engine", file=sys.stderr)
        raise SystemExit(2)
    shards = getattr(args, "shards", 0) or 0
    if shards and args.engine != "lazy":
        print("--shards requires the lazy engine", file=sys.stderr)
        raise SystemExit(2)
    machine = Machine(memory=args.memory, block=args.block)
    records = WORKLOADS[args.workload](args.n, seed=args.seed)
    file = load_input(machine, records)
    machine.reset_counters()
    if shards:
        from .shard import build_sharded_service

        router = build_sharded_service(
            machine, file, shards=shards, k=args.k,
            workers=getattr(args, "workers", "inproc"),
        )
        return machine, file, router
    if args.engine == "eager":
        if durable:
            from .service import DurablePartitionIndex

            engine = DurablePartitionIndex.build_durable(
                machine, file, args.k,
                wal_capacity=getattr(args, "wal_cap", None),
                snapshot_every=getattr(args, "snapshot_every", 16),
            )
        else:
            engine = PartitionIndex.build(machine, file, args.k)
        file.free()
        return machine, None, engine
    return machine, file, LazyPartitionIndex(machine, file, k=args.k)


def _parse_query_spec(spec: str):
    """``select:R`` / ``quantile:Q`` / ``range:LO:HI`` / ``part:KEY``
    (long kinds ``range_count`` / ``partition_of`` also accepted)."""
    kind, _, rest = spec.partition(":")
    kind = {"range": "range_count", "part": "partition_of"}.get(kind, kind)
    try:
        if kind == "select":
            return ("select", int(rest))
        if kind == "quantile":
            return ("quantile", float(rest))
        if kind == "range_count":
            lo, _, hi = rest.partition(":")
            return ("range_count", int(lo), int(hi))
        if kind == "partition_of":
            return ("partition_of", int(rest))
    except ValueError:
        pass
    raise SystemExit(f"bad query spec {spec!r} (want select:R, quantile:Q, "
                     f"range:LO:HI or part:KEY)")


def _print_answers(queries, answers) -> None:
    for query, ans in zip(queries, answers):
        if query.kind in ("select", "quantile"):
            arg = query.rank if query.kind == "select" else query.q
            print(f"  {query.kind} {arg} -> key={int(ans['key'])} "
                  f"uid={int(ans['uid'])}")
        elif query.kind == "range_count":
            print(f"  range_count ({query.lo}, {query.hi}] -> {ans}")
        else:
            print(f"  partition_of {query.key} -> {ans}")


def _cmd_query(args) -> int:
    from .service import Query, QueryFrontend

    machine, file, engine = _build_service(args)
    try:
        frontend = QueryFrontend(machine, engine)
        queries = [Query.coerce(_parse_query_spec(s)) for s in args.queries]
        for query in queries:
            frontend.submit(query)
        answers = frontend.flush()
        label = args.engine
        if getattr(args, "shards", 0):
            label = f"sharded[{engine.nshards}x{args.workers}]"
        print(f"engine={label} N={args.n} K={args.k} "
              f"n_live={engine.n_live}")
        _print_answers(queries, answers)
        flush = frontend.flushes[-1]
        print(f"one flush: {flush.queries} queries "
              f"({flush.distinct_ranks} distinct ranks), {flush.io:,} I/Os "
              f"({flush.amortized_io:.1f}/query)")
        return 0
    finally:
        engine.close()
        if file is not None:
            file.free()


def _cmd_serve(args) -> int:
    """Run the interactive service inside a flight-recorder scope.

    On an *unclean* exit of a durable service (an uncaught exception —
    e.g. the ``abort`` command), the recorder's last events are dumped
    to ``--flight-dump`` so ``repro recover --flight-dump`` can show
    what the service was doing when it died.
    """
    from .experiments.runner import default_out_dir
    from .obs import FlightRecorder, flight_scope

    recorder = FlightRecorder()
    try:
        with flight_scope(recorder):
            return _serve_loop(args, recorder)
    except BaseException:
        if getattr(args, "durable", False):
            dump = Path(args.flight_dump) if args.flight_dump else (
                default_out_dir() / "flight" / "serve.flight.json"
            )
            recorder.dump(dump)
            print(f"unclean exit: flight recorder dumped to {dump}",
                  file=sys.stderr)
        raise


def _serve_loop(args, recorder) -> int:
    from .service import QueryFrontend

    machine, file, engine = _build_service(args)
    frontend = QueryFrontend(machine, engine)
    eager = args.engine == "eager"
    durable = getattr(args, "durable", False)
    mode = "eager+durable" if durable else args.engine
    recorder.record("serve-start", engine=mode, n=args.n, k=args.k)
    print(f"partition service up: engine={mode} N={args.n} "
          f"K={args.k} (M={machine.M}, B={machine.B})")
    print("commands: select R [R ...] | quantile Q [Q ...] | "
          "range LO HI | part KEY"
          + (" | append K [K ...] | delete K | flush" if eager else "")
          + (" | snapshot | crash | abort | dstats" if durable else "")
          + " | stats | quit")
    stream = open(args.input) if args.input else sys.stdin
    status = 0
    try:
        for line in stream:
            tokens = line.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            cmd, rest = tokens[0], tokens[1:]
            if durable and cmd == "abort":
                # Deliberately *outside* the keep-serving handler: an
                # abort is an unclean process exit, not a bad query.
                engine.abandon()
                raise RuntimeError(
                    "abort requested — simulating an unclean service exit"
                )
            try:
                if cmd == "quit":
                    break
                elif cmd == "stats":
                    for key, value in frontend.summary().items():
                        print(f"  {key}: {value}")
                elif cmd == "select":
                    for r in rest:
                        frontend.select(int(r))
                elif cmd == "quantile":
                    for q in rest:
                        frontend.quantile(float(q))
                elif cmd == "range":
                    frontend.range_count(int(rest[0]), int(rest[1]))
                elif cmd == "part":
                    frontend.partition_of(int(rest[0]))
                elif eager and cmd == "append":
                    engine.append([int(k) for k in rest])
                    print(f"  buffered {len(rest)} appends")
                elif eager and cmd == "delete":
                    engine.delete(int(rest[0]))
                    print("  buffered 1 delete")
                elif eager and cmd == "flush":
                    print(f"  update flush: {engine.flush_updates()}")
                elif durable and cmd == "snapshot":
                    engine.snapshot()
                    stats = engine.durability_stats()
                    print(f"  snapshot taken (epoch {stats['epoch']}, "
                          f"seq {stats['seq']})")
                elif durable and cmd == "dstats":
                    for key, value in engine.durability_stats().items():
                        print(f"  {key}: {value}")
                elif durable and cmd == "crash":
                    from .service import recover

                    manifest = engine.manifest_block
                    engine.abandon()
                    with machine.measure("svc-recover") as cost:
                        engine = recover(machine, manifest)
                    frontend = QueryFrontend(machine, engine)
                    print(f"  crashed and recovered: seq="
                          f"{engine.applied_seq} n_live={engine.n_live} "
                          f"[{cost.total:,} I/Os]")
                else:
                    print(f"  unknown command {cmd!r}", file=sys.stderr)
                    status = 1
                    continue
                if frontend.pending:
                    queued = frontend.queued
                    answers = frontend.flush()
                    _print_answers(queued, answers)
                    flush = frontend.flushes[-1]
                    print(f"  [{flush.io:,} I/Os]")
            except Exception as exc:  # keep serving after a bad query
                print(f"  error: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                status = 1
        summary = frontend.summary()
        print(f"served {summary['queries']} queries in "
              f"{summary['flushes']} flushes: {summary['io']:,} I/Os "
              f"({summary['amortized_io']:.1f}/query)")
        return status
    finally:
        if args.input:
            stream.close()
        engine.close()
        if file is not None:
            file.free()


def _apply_update_batch(index, batch) -> None:
    for op in batch:
        if op[0] == "append":
            index.append(op[1])
        else:
            index.delete(op[1])
    index.flush_updates()


def _cmd_recover(args) -> int:
    """Scripted crash→recover scenario with an answer-identity check.

    Builds a durable index, applies an interleaved update plan, crashes
    at the ``--fail-at``-th counted I/O (0 = clean process death after
    the plan), recovers from the manifest, and compares a zipfian
    verification trace against a *shadow oracle*: a volatile index on a
    fresh machine that applied exactly the flush groups the recovered
    sequence number says were committed.  Exits non-zero if any answer
    diverges or the crashed process leaked memory leases.
    """
    from .em import InjectedFault, Machine, arm_fault
    from .em.records import composite
    from .service import DurablePartitionIndex, PartitionIndex, recover
    from .workloads import load_input, random_permutation
    from .workloads.queries import update_batches, zipfian_trace

    if args.flight_dump:
        from .obs import load_flight_dump, render_flight_events

        print(render_flight_events(load_flight_dump(args.flight_dump)))
        return 0

    machine = Machine(memory=args.memory, block=args.block)
    records = random_permutation(args.n, seed=args.seed)
    file = load_input(machine, records)
    machine.reset_counters()
    index = DurablePartitionIndex.build_durable(
        machine, file, args.k,
        wal_capacity=args.wal_cap, snapshot_every=args.snapshot_every,
    )
    file.free()
    appends = 3 * args.batch_ops // 4
    deletes = args.batch_ops - appends
    plan = update_batches(
        records["key"], args.batches, appends, deletes, seed=args.seed
    )
    # Armed after the build, so the build itself cannot fault; disarmed
    # before recovery, so an offset past the plan's last I/O means "no
    # crash" rather than a fault inside recover itself.
    disarm = arm_fault(machine, args.fail_at) if args.fail_at else None
    crashed = False
    try:
        for batch in plan:
            _apply_update_batch(index, batch)
    except InjectedFault:
        crashed = True
    finally:
        if disarm is not None:
            disarm()
    manifest = index.manifest_block
    index.abandon()
    leaked = machine.memory.in_use
    with machine.measure("svc-recover") as cost:
        recovered = recover(machine, manifest)
    seq = recovered.applied_seq
    print(f"{'crashed at I/O #' + str(args.fail_at) if crashed else 'clean shutdown'}"
          f": recovered seq={seq}/{len(plan)} n_live={recovered.n_live} "
          f"in {cost.total:,} I/Os")

    shadow_machine = Machine(memory=args.memory, block=args.block)
    shadow_file = load_input(shadow_machine, records)
    shadow = PartitionIndex.build(shadow_machine, shadow_file, args.k)
    shadow_file.free()
    for batch in plan[:seq]:
        _apply_update_batch(shadow, batch)

    ok = True
    if recovered.n_live != shadow.n_live:
        print(f"LIVE-COUNT MISMATCH: recovered {recovered.n_live} vs "
              f"shadow {shadow.n_live}", file=sys.stderr)
        ok = False
    else:
        trace = zipfian_trace(args.queries, recovered.n_live,
                              seed=args.seed + 1)
        got = composite(recovered.batch_select(trace))
        want = composite(shadow.batch_select(trace))
        diverged = int((got != want).sum())
        if diverged:
            print(f"ANSWER MISMATCH: {diverged}/{args.queries} queries "
                  f"diverge from the shadow oracle", file=sys.stderr)
            ok = False
        else:
            print(f"answer identity: {args.queries}/{args.queries} zipfian "
                  f"queries element-identical to the uncrashed shadow")
    if leaked:
        print(f"LEASE LEAK: crashed process held {leaked} records",
              file=sys.stderr)
        ok = False
    shadow.close()
    recovered.abandon()
    return 0 if ok else 1


def _cmd_report(args) -> int:
    from .experiments.report_all import DEFAULT_ORDER, generate_experiments_md
    from .experiments.runner import (
        default_out_dir,
        run_experiments,
        write_results_json,
    )

    t0 = time.time()
    records = run_experiments(
        DEFAULT_ORDER,
        quick=args.quick,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=_progress_line,
    )
    text, ok = generate_experiments_md(
        quick=args.quick, results=[rec.to_result() for rec in records]
    )
    out = Path(args.out)
    out.write_text(text + "\n")
    json_path = Path(args.json) if args.json else default_out_dir() / "results.json"
    write_results_json(records, json_path, jobs=args.jobs)
    ran = sum(not rec.cached for rec in records)
    print(
        f"wrote {out} and {json_path} in {time.time() - t0:.1f}s "
        f"({ran} run, {len(records) - ran} cached; "
        f"{'all experiments PASS' if ok else 'FAILURES present'})"
    )
    if args.check_budgets:
        from .obs import check_budgets, render_budget_report

        checks = check_budgets()
        print()
        print(render_budget_report(checks))
        ok = ok and all(c.ok for c in checks)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Finding Approximate Partitions and "
            "Splitters in External Memory' (SPAA 2014)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("list", help="list registered experiments")

    run_p = sub.add_parser("run", help="run experiments and print tables")
    run_p.add_argument("exp_ids", nargs="*", help="experiment ids (default: all)")
    run_p.add_argument("--full", action="store_true", help="full sweeps")
    run_p.add_argument("--out", help="directory for rendered tables")
    run_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = in-process, serial)",
    )

    sub.add_parser("demo", help="30-second tour of the headline algorithms")

    bounds_p = sub.add_parser("bounds", help="evaluate Table 1 for parameters")
    bounds_p.add_argument("--n", type=int, required=True)
    bounds_p.add_argument("--k", type=int, required=True)
    bounds_p.add_argument("--a", type=int, required=True)
    bounds_p.add_argument("--b", type=int, required=True)
    bounds_p.add_argument("--memory", type=int, default=4096, help="M (records)")
    bounds_p.add_argument("--block", type=int, default=64, help="B (records)")

    report_p = sub.add_parser(
        "report", help="run every experiment and write EXPERIMENTS.md"
    )
    report_p.add_argument("--quick", action="store_true", help="quick sweeps")
    report_p.add_argument("--out", default="EXPERIMENTS.md")
    report_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = in-process, serial)",
    )
    report_p.add_argument(
        "--no-cache", action="store_true",
        help="ignore and bypass the result cache (force recomputation)",
    )
    report_p.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help=(
            "where to write machine-readable results "
            "(default benchmarks/out/results.json; always written)"
        ),
    )
    report_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory (default benchmarks/out/cache)",
    )
    report_p.add_argument(
        "--check-budgets", action="store_true",
        help="also run the I/O-budget regression gate (non-zero exit on "
        "any exceeded envelope)",
    )

    solve_p = sub.add_parser("solve", help="run one algorithm and verify it")
    solve_p.add_argument(
        "--problem",
        choices=["splitters", "partition", "multiselect"],
        required=True,
    )
    solve_p.add_argument("--n", type=int, required=True)
    solve_p.add_argument("--k", type=int, required=True)
    solve_p.add_argument("--a", type=int, default=None)
    solve_p.add_argument("--b", type=int, default=None)
    solve_p.add_argument("--workload", default="permutation")
    solve_p.add_argument("--seed", type=int, default=0)
    solve_p.add_argument("--memory", type=int, default=4096, help="M (records)")
    solve_p.add_argument("--block", type=int, default=64, help="B (records)")
    solve_p.add_argument(
        "--trace", action="store_true",
        help="report access-pattern (sequentiality) statistics",
    )

    from .obs.solvers import SOLVERS

    trace_p = sub.add_parser(
        "trace",
        help="record and export a span trace of one algorithm",
    )
    trace_p.add_argument(
        "algorithm", choices=sorted(SOLVERS),
        help="registered solver to trace",
    )
    trace_p.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory (default benchmarks/out/traces)",
    )
    trace_p.add_argument(
        "--json", action="store_true",
        help="print the span payload as JSON to stdout (artifacts are "
        "still written)",
    )
    trace_p.add_argument("--n", type=int, default=None)
    trace_p.add_argument("--k", type=int, default=None)
    trace_p.add_argument("--a", type=int, default=None)
    trace_p.add_argument("--part-size", dest="part_size", type=int, default=None)
    trace_p.add_argument("--memory", type=int, default=None, help="M (records)")
    trace_p.add_argument("--block", type=int, default=None, help="B (records)")
    trace_p.add_argument("--seed", type=int, default=None)

    metrics_p = sub.add_parser(
        "metrics",
        help="run one solver in a metrics scope and export the telemetry",
    )
    metrics_p.add_argument(
        "algorithm", choices=sorted(SOLVERS),
        help="registered solver to instrument",
    )
    metrics_p.add_argument(
        "--out", default=None, metavar="DIR",
        help="artifact directory (default benchmarks/out/metrics)",
    )
    metrics_p.add_argument(
        "--json", action="store_true",
        help="print the metrics payload as JSON to stdout (artifacts are "
        "still written)",
    )
    metrics_p.add_argument("--n", type=int, default=None)
    metrics_p.add_argument("--k", type=int, default=None)
    metrics_p.add_argument("--a", type=int, default=None)
    metrics_p.add_argument("--part-size", dest="part_size", type=int,
                           default=None)
    metrics_p.add_argument("--memory", type=int, default=None,
                           help="M (records)")
    metrics_p.add_argument("--block", type=int, default=None,
                           help="B (records)")
    metrics_p.add_argument("--seed", type=int, default=None)

    budgets_p = sub.add_parser(
        "budgets", help="check or recalibrate the I/O-budget envelopes"
    )
    budgets_p.add_argument(
        "--write", action="store_true",
        help="measure every solver and rewrite the budgets file "
        "(default: check only)",
    )
    budgets_p.add_argument(
        "--path", default=None, metavar="FILE",
        help="budgets file (default benchmarks/budgets.json)",
    )
    budgets_p.add_argument(
        "--headroom", type=float, default=None,
        help="envelope headroom over the measured ratio when writing",
    )

    lint_p = sub.add_parser(
        "lint", help="run the emlint EM-conformance rules over the source"
    )
    lint_p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the repro package)",
    )
    lint_p.add_argument(
        "--json", action="store_true",
        help="machine-readable findings instead of the text report",
    )
    lint_p.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        help="restrict to these rule ids (repeatable, comma-separable)",
    )
    lint_p.add_argument(
        "--diff", metavar="REF", default=None,
        help="lint only the files changed against this git ref",
    )
    lint_p.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="suppress findings already present in this stored --json "
        "report; only new findings fail the gate",
    )
    lint_p.add_argument(
        "--no-cache", action="store_true",
        help="skip the content-addressed analysis cache",
    )

    sanitize_p = sub.add_parser(
        "sanitize-check",
        help="arm the runtime sanitizer: fire every trap, then run the "
        "registered solvers under Machine(sanitize=True)",
    )
    sanitize_p.add_argument(
        "--solver", action="append", default=None, choices=sorted(SOLVERS),
        metavar="NAME",
        help="solver(s) to run (repeatable; default: all registered)",
    )
    sanitize_p.add_argument("--n", type=int, default=None)
    sanitize_p.add_argument("--memory", type=int, default=None, help="M (records)")
    sanitize_p.add_argument("--block", type=int, default=None, help="B (records)")

    def _service_args(p, engine_default: str) -> None:
        p.add_argument("--n", type=int, default=65_536)
        p.add_argument("--k", type=int, default=64)
        p.add_argument(
            "--engine", choices=["eager", "lazy"], default=engine_default,
            help="eager = materialized PartitionIndex (supports updates); "
            "lazy = LazyPartitionIndex (read-only, refines on demand)",
        )
        p.add_argument("--workload", default="permutation")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--memory", type=int, default=4096, help="M (records)")
        p.add_argument("--block", type=int, default=64, help="B (records)")

    def _durable_args(p) -> None:
        p.add_argument(
            "--wal-cap", type=int, default=None, dest="wal_cap",
            help="WAL capacity in blocks (default max(8, M/B))",
        )
        p.add_argument(
            "--snapshot-every", type=int, default=16, dest="snapshot_every",
            help="snapshot after this many committed flush groups",
        )

    serve_p = sub.add_parser(
        "serve", help="interactive partition service over stdin"
    )
    _service_args(serve_p, engine_default="eager")
    serve_p.add_argument(
        "--durable", action="store_true",
        help="WAL + snapshot durability (eager engine only); adds the "
        "snapshot/crash/dstats commands",
    )
    _durable_args(serve_p)
    serve_p.add_argument(
        "--input", default=None, metavar="FILE",
        help="read commands from FILE instead of stdin",
    )
    serve_p.add_argument(
        "--flight-dump", default=None, dest="flight_dump", metavar="FILE",
        help="flight-recorder dump path on unclean --durable exit "
        "(default benchmarks/out/flight/serve.flight.json)",
    )

    recover_p = sub.add_parser(
        "recover",
        help="crash a durable index at a chosen I/O and verify recovery",
    )
    recover_p.add_argument("--n", type=int, default=16_384)
    recover_p.add_argument("--k", type=int, default=32)
    recover_p.add_argument("--batches", type=int, default=8,
                           help="update flush groups to apply")
    recover_p.add_argument("--batch-ops", type=int, default=64,
                           dest="batch_ops",
                           help="operations per batch (3/4 appends)")
    recover_p.add_argument("--queries", type=int, default=512,
                           help="zipfian verification queries")
    recover_p.add_argument(
        "--fail-at", type=int, default=0, dest="fail_at",
        help="crash at this counted I/O during updates (0 = clean death "
        "after the full plan)",
    )
    recover_p.add_argument("--snapshot-every", type=int, default=3,
                           dest="snapshot_every")
    recover_p.add_argument("--wal-cap", type=int, default=None,
                           dest="wal_cap")
    recover_p.add_argument("--seed", type=int, default=0)
    recover_p.add_argument("--memory", type=int, default=4096,
                           help="M (records)")
    recover_p.add_argument("--block", type=int, default=64, help="B (records)")
    recover_p.add_argument(
        "--flight-dump", default=None, dest="flight_dump", metavar="FILE",
        help="render this flight-recorder dump (from an unclean "
        "`repro serve --durable` exit) instead of running the scenario",
    )

    query_p = sub.add_parser(
        "query", help="answer one batch of queries against a fresh index"
    )
    _service_args(query_p, engine_default="lazy")
    query_p.add_argument(
        "--shards", type=int, default=0, metavar="W",
        help="shard the service across W coordinator-driven workers "
        "(lazy engine only; 0 = single machine)",
    )
    query_p.add_argument(
        "--workers", choices=["inproc", "process"], default="inproc",
        help="worker placement for --shards (default inproc)",
    )
    query_p.add_argument(
        "queries", nargs="+", metavar="QUERY",
        help="select:R | quantile:Q | range:LO:HI | part:KEY",
    )

    args = parser.parse_args(argv)
    if args.command == "budgets" and args.headroom is None:
        from .obs.budget import DEFAULT_HEADROOM

        args.headroom = DEFAULT_HEADROOM
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "demo":
        return _cmd_demo(args)
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "budgets":
        return _cmd_budgets(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "sanitize-check":
        return _cmd_sanitize_check(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "query":
        return _cmd_query(args)
    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
