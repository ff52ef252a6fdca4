"""Command-line entry point: ``repro`` (or ``python -m repro``).

Subcommands:

``repro list``
    List the registered experiments (one per paper claim).
``repro run [EXP_ID ...] [--full] [--out DIR] [--jobs N]``
    Run experiments (in parallel with ``--jobs``) and print their
    measured-vs-bound tables; optionally write each rendered table to
    ``DIR/<id>.txt``.
``repro report [--quick] [--jobs N] [--json PATH] [--check-budgets]``
    Run every experiment through the parallel runner and write
    EXPERIMENTS.md plus machine-readable ``results.json``.
``repro demo``
    A 30-second tour: quickstart-style run of the headline algorithms.
``repro bounds --n N --k K --a A --b B [--memory M] [--block B]``
    Evaluate every Table 1 bound for concrete parameters.
``repro solve --problem {splitters,partition,multiselect} --n N --k K ...``
    Run one algorithm on a generated workload, verify the output, and
    print measured I/O, comparisons, and the phase breakdown.
``repro trace ALGORITHM [--out DIR] [--json] [--n N] [--k K] ...``
    Run one registered solver once, under the span tracer and inside a
    metrics scope and a flight recorder, and export what that one run
    recorded: Chrome/Perfetto ``.trace.json``, a rendered span tree,
    Prometheus text (``.prom``), the flight-recorder dump, and the
    plain-dict span JSON, which also carries the metrics and flight
    events (``--json`` prints that payload to stdout for CI artifacts).
``repro budgets [--write] [--path FILE] [--headroom H]``
    Check every registered solver against its committed I/O envelope
    (the regression gate), or recalibrate and rewrite the envelopes.
``repro lint [PATH ...] [--json] [--rule RULE ...]``
    Run the emlint EM-conformance rules (R1–R6) over the source tree;
    non-zero exit on any active error-severity finding.
``repro serve --n N --k K [--engine eager|lazy] [--shards W] [--durable] ...``
    Partition service: build an index over a generated workload and
    answer queries (and, with the eager engine, apply appends/deletes)
    read line-by-line from stdin or ``--input FILE``, so a one-shot
    batch is a piped or written script.  ``--shards W`` answers through
    ``W`` shard workers (lazy engine).  ``--durable`` adds WAL +
    snapshot persistence and the ``snapshot``/``crash``/``abort``/
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
    verdict = "PASS" if rec.passed else "FAIL"
    print(f"  {rec.exp_id:8s} {rec.wall_s:7.1f}s  {verdict}", flush=True)


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
    """Run one solver once and export its spans, metrics and flight
    events: the tracer attaches before the run and both scopes wrap the
    same call, so all three describe one execution."""
    import json

    from .experiments.runner import default_out_dir
    from .obs import (
        FlightRecorder,
        MetricsRegistry,
        Tracer,
        build_instance,
        flight_scope,
        metrics_scope,
        render_span_tree,
        span_rollup,
        traces_to_dict,
        write_chrome_trace,
    )

    name = args.algorithm
    overrides = {
        key: getattr(args, key)
        for key in ("n", "k", "a", "part_size", "memory", "block", "seed")
        if getattr(args, key) is not None
    }
    solver, machine, file, params = build_instance(name, overrides)
    tracer = Tracer()
    registry = MetricsRegistry()
    recorder = FlightRecorder()
    tracer.attach(machine)
    try:
        with metrics_scope(registry), flight_scope(recorder):
            outcome = solver.run(machine, file, params)
    finally:
        file.free()
        tracer.detach(machine)

    out_dir = Path(args.out) if args.out else default_out_dir() / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    chrome_path = write_chrome_trace(
        tracer.traces, out_dir / f"{name}.trace.json"
    )
    tree = render_span_tree(tracer.traces)
    tree_path = out_dir / f"{name}.tree.txt"
    tree_path.write_text(tree + "\n")
    prom_path = out_dir / f"{name}.prom"
    prom_path.write_text(registry.to_prometheus())
    flight_path = recorder.dump(out_dir / f"{name}.flight.json")
    payload = {
        "solver": name,
        "title": solver.title,
        "params": params,
        "outcome": outcome,
        "io": machine.io.total,
        "comparisons": machine.comparisons,
        "rollup": span_rollup(tracer.traces),
        "traces": traces_to_dict(tracer.traces),
        "metrics": registry.to_dict(),
        "flight": recorder.to_dict(),
    }
    spans_path = out_dir / f"{name}.spans.json"
    spans_path.write_text(json.dumps(payload, indent=1) + "\n")

    if args.json:
        print(json.dumps(payload, indent=1))
        return 0
    print(f"{name}: {outcome}\n")
    print(tree)
    print()
    print(registry.render())
    print()
    print(recorder.render())
    print(
        f"\nwrote {chrome_path} (load at https://ui.perfetto.dev),\n"
        f"      {tree_path},\n      {prom_path},\n      {flight_path},\n"
        f"      {spans_path}"
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
    from .lint import lint_paths

    rule_ids = None
    if args.rule:
        rule_ids = [
            r.strip()
            for spec in args.rule
            for r in spec.split(",")
            if r.strip()
        ]
    try:
        report = lint_paths(args.paths or None, rule_ids=rule_ids)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def _build_service(args):
    """The service's machine, input and engine.

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
    if args.durable and args.engine != "eager":
        print("--durable requires the eager engine", file=sys.stderr)
        raise SystemExit(2)
    if args.shards and args.engine != "lazy":
        print("--shards requires the lazy engine", file=sys.stderr)
        raise SystemExit(2)
    machine = Machine(memory=args.memory, block=args.block)
    records = WORKLOADS[args.workload](args.n, seed=args.seed)
    file = load_input(machine, records)
    machine.reset_counters()
    if args.shards:
        from .shard import build_sharded_service

        router = build_sharded_service(
            machine, file, shards=args.shards, k=args.k, workers=args.workers,
        )
        return machine, file, router
    if args.engine == "eager":
        if args.durable:
            from .service import DurablePartitionIndex

            engine = DurablePartitionIndex.build_durable(
                machine, file, args.k,
                wal_capacity=args.wal_cap,
                snapshot_every=args.snapshot_every,
            )
        else:
            engine = PartitionIndex.build(machine, file, args.k)
        file.free()
        return machine, None, engine
    return machine, file, LazyPartitionIndex(machine, file, k=args.k)


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
        if args.durable:
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
    durable = args.durable
    if durable:
        mode = "eager+durable"
    elif args.shards:
        mode = f"sharded[{engine.nshards}x{args.workers}]"
    else:
        mode = args.engine
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
        progress=_progress_line,
    )
    text, ok = generate_experiments_md([rec.to_result() for rec in records])
    out = Path(args.out)
    out.write_text(text + "\n")
    json_path = Path(args.json) if args.json else default_out_dir() / "results.json"
    write_results_json(records, json_path, jobs=args.jobs)
    print(
        f"wrote {out} and {json_path} in {time.time() - t0:.1f}s "
        f"({len(records)} run; "
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
    from .obs.budget import DEFAULT_HEADROOM
    from .obs.solvers import SOLVERS

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Finding Approximate Partitions and "
            "Splitters in External Memory' (SPAA 2014)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def verb(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p

    verb("list", _cmd_list, "list registered experiments")

    run_p = verb("run", _cmd_run, "run experiments and print tables")
    run_p.add_argument("exp_ids", nargs="*", help="experiment ids (default: all)")
    run_p.add_argument("--full", action="store_true", help="full sweeps")
    run_p.add_argument("--out", help="directory for rendered tables")
    run_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = in-process, serial)",
    )

    verb("demo", _cmd_demo, "30-second tour of the headline algorithms")

    bounds_p = verb("bounds", _cmd_bounds, "evaluate Table 1 for parameters")
    bounds_p.add_argument("--n", type=int, required=True)
    bounds_p.add_argument("--k", type=int, required=True)
    bounds_p.add_argument("--a", type=int, required=True)
    bounds_p.add_argument("--b", type=int, required=True)
    bounds_p.add_argument("--memory", type=int, default=4096, help="M (records)")
    bounds_p.add_argument("--block", type=int, default=64, help="B (records)")

    report_p = verb(
        "report", _cmd_report, "run every experiment and write EXPERIMENTS.md"
    )
    report_p.add_argument("--quick", action="store_true", help="quick sweeps")
    report_p.add_argument("--out", default="EXPERIMENTS.md")
    report_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = in-process, serial)",
    )
    report_p.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help=(
            "where to write machine-readable results "
            "(default benchmarks/out/results.json; always written)"
        ),
    )
    report_p.add_argument(
        "--check-budgets", action="store_true",
        help="also run the I/O-budget regression gate (non-zero exit on "
        "any exceeded envelope)",
    )

    solve_p = verb("solve", _cmd_solve, "run one algorithm and verify it")
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

    trace_p = verb(
        "trace", _cmd_trace,
        "run one algorithm once and export its spans, metrics and flight "
        "events",
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
        help="print the span payload, with its metrics and flight events, "
        "as JSON to stdout (artifacts are still written)",
    )
    trace_p.add_argument("--n", type=int, default=None)
    trace_p.add_argument("--k", type=int, default=None)
    trace_p.add_argument("--a", type=int, default=None)
    trace_p.add_argument("--part-size", dest="part_size", type=int, default=None)
    trace_p.add_argument("--memory", type=int, default=None, help="M (records)")
    trace_p.add_argument("--block", type=int, default=None, help="B (records)")
    trace_p.add_argument("--seed", type=int, default=None)

    budgets_p = verb(
        "budgets", _cmd_budgets, "check or recalibrate the I/O-budget envelopes"
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
        "--headroom", type=float, default=DEFAULT_HEADROOM,
        help="envelope headroom over the measured ratio when writing",
    )

    lint_p = verb(
        "lint", _cmd_lint, "run the emlint EM-conformance rules over the source"
    )
    lint_p.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: the repro package, "
        "scripts/ and benchmarks/)",
    )
    lint_p.add_argument(
        "--json", action="store_true",
        help="machine-readable findings instead of the text report",
    )
    lint_p.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        help="restrict to these rule ids (repeatable, comma-separable)",
    )

    serve_p = verb(
        "serve", _cmd_serve, "partition service over stdin or a command file"
    )
    serve_p.add_argument("--n", type=int, default=65_536)
    serve_p.add_argument("--k", type=int, default=64)
    serve_p.add_argument(
        "--engine", choices=["eager", "lazy"], default="eager",
        help="eager = materialized PartitionIndex (supports updates); "
        "lazy = LazyPartitionIndex (read-only, refines on demand)",
    )
    serve_p.add_argument("--workload", default="permutation")
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--memory", type=int, default=4096, help="M (records)")
    serve_p.add_argument("--block", type=int, default=64, help="B (records)")
    serve_p.add_argument(
        "--shards", type=int, default=0, metavar="W",
        help="shard the service across W coordinator-driven workers "
        "(lazy engine only; 0 = single machine)",
    )
    serve_p.add_argument(
        "--workers", choices=["inproc", "process"], default="inproc",
        help="worker placement for --shards (default inproc)",
    )
    serve_p.add_argument(
        "--durable", action="store_true",
        help="WAL + snapshot durability (eager engine only); adds the "
        "snapshot/crash/dstats commands",
    )
    serve_p.add_argument(
        "--wal-cap", type=int, default=None, dest="wal_cap",
        help="WAL capacity in blocks (default max(8, M/B))",
    )
    serve_p.add_argument(
        "--snapshot-every", type=int, default=16, dest="snapshot_every",
        help="snapshot after this many committed flush groups",
    )
    serve_p.add_argument(
        "--input", default=None, metavar="FILE",
        help="read commands from FILE instead of stdin",
    )
    serve_p.add_argument(
        "--flight-dump", default=None, dest="flight_dump", metavar="FILE",
        help="flight-recorder dump path on unclean --durable exit "
        "(default benchmarks/out/flight/serve.flight.json)",
    )

    recover_p = verb(
        "recover", _cmd_recover,
        "crash a durable index at a chosen I/O and verify recovery",
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

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
