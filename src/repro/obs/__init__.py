"""Observability for the EM simulator: span tracing, trace export,
service telemetry, and the I/O-budget regression gate.

The paper's claims are Θ-shapes in block I/Os; this subpackage provides
the attribution layer — a hierarchical :class:`Tracer` recording
per-phase span trees (reads, writes, comparisons, memory/disk peaks,
wall time), exporters (Perfetto/Chrome trace JSON, text tree,
plain dicts), a deterministic metrics registry
(:class:`MetricsRegistry`: counters, gauges, per-query I/O histograms
with fixed log-spaced buckets) that owns the run's bounded
:class:`FlightRecorder` of structured service events (it survives to a
dump on crash), and a constant-factor budget gate that fails CI when an
algorithm's measured I/O count drifts above its committed envelope.

Service telemetry has one ambient scope, :func:`metrics_scope`: the
service objects built inside it bind its registry's instruments and
its ``flight`` recorder.  Span tracing is not ambient: a
:class:`Tracer` attaches to machines directly or, through
:meth:`Tracer.install`, to every machine built in a body.
"""

from .budget import (
    BudgetCheck,
    check_budgets,
    default_budgets_path,
    render_budget_report,
    write_budgets,
)
from .export import (
    chrome_trace,
    render_span_tree,
    span_rollup,
    traces_to_dict,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_IO_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    current_registry,
    metrics_scope,
)
from .recorder import FlightRecorder, load_flight_dump, render_flight_events
from .solvers import SOLVERS, Solver, build_instance, run_solver
from .tracer import MachineTrace, Span, Tracer

__all__ = [
    "Tracer",
    "MachineTrace",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_IO_BUCKETS",
    "current_registry",
    "metrics_scope",
    "FlightRecorder",
    "load_flight_dump",
    "render_flight_events",
    "chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "span_rollup",
    "traces_to_dict",
    "Solver",
    "SOLVERS",
    "build_instance",
    "run_solver",
    "BudgetCheck",
    "check_budgets",
    "render_budget_report",
    "write_budgets",
    "default_budgets_path",
]
