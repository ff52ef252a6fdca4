"""Tests for repro.obs: span tracer, exporters, and the em-layer hooks.

The headline invariant — exclusive span costs sum *exactly* to the
machine's counters — is asserted differentially against the real
algorithms via the solver registry.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.em import Machine
from repro.em.records import make_records
from repro.obs import (
    Span,
    Tracer,
    build_instance,
    chrome_trace,
    render_span_tree,
    span_rollup,
    traces_to_dict,
)


def _mk(memory=64, block=8):
    return Machine(memory=memory, block=block)


def _traced_run(name):
    """Run a registry solver under an attached trace."""
    solver, machine, file, params = build_instance(name)
    tracer = Tracer()
    trace = tracer.attach(machine)
    try:
        solver.run(machine, file, params)
    finally:
        file.free()
        tracer.detach(machine)
    return machine, trace


class TestDifferential:
    @pytest.mark.parametrize("name", ["sort", "multiselect", "splitters", "partition"])
    def test_exclusive_sums_equal_machine_counters_exactly(self, name):
        machine, trace = _traced_run(name)
        spans = list(trace.root.walk())
        assert sum(s.reads for s in spans) == machine.io.reads
        assert sum(s.writes for s in spans) == machine.io.writes
        assert sum(s.comparisons for s in spans) == machine.comparisons
        # The same equality through the inclusive rollup at the root.
        assert trace.root.cum_io == machine.io.total

    def test_trees_are_hierarchical(self):
        machine, trace = _traced_run("partition")
        assert max(s.depth for s in trace.root.walk()) >= 3
        paths = {s.path for s in trace.root.walk()}
        assert any(p.count("/") >= 1 for p in paths)


class TestTracerUnit:
    def test_nested_spans_exclusive_attribution(self):
        mach = _mk()
        tracer = Tracer()
        trace = tracer.attach(mach)
        b1, b2 = mach.disk.allocate(2)
        recs = make_records(np.arange(8))
        with mach.phase("outer"):
            mach.disk.write(b1, recs)
            with mach.phase("inner"):
                mach.disk.read(b1)
                mach.charge_comparisons(5)
            mach.disk.write(b2, recs)
        mach.disk.read(b2)
        tracer.detach(mach)

        root = trace.root
        (outer,) = root.children
        (inner,) = outer.children
        assert (root.reads, root.writes) == (1, 0)
        assert (outer.reads, outer.writes) == (0, 2)
        assert (inner.reads, inner.writes, inner.comparisons) == (1, 0, 5)
        assert inner.path == "outer/inner" and inner.depth == 2
        assert root.cum_io == 4

    def test_peaks_propagate_to_parents(self):
        mach = _mk()
        tracer = Tracer()
        trace = tracer.attach(mach)
        with mach.phase("p"):
            with mach.phase("q"):
                mach.memory.lease(32, "x").acquire().release()
            mach.disk.allocate(3)
        tracer.detach(mach)
        (p,) = trace.root.children
        (q,) = p.children
        assert q.mem_peak >= 32
        assert p.mem_peak >= 32 and trace.root.mem_peak >= 32
        assert p.blocks_peak >= 3 and trace.root.blocks_peak >= 3

    def test_install_attaches_and_detaches(self):
        tracer = Tracer()
        with tracer.install():
            m = _mk()
            (bid,) = m.disk.allocate(1)
            with m.phase("a"):
                m.disk.write(bid, make_records(np.arange(8)))
        assert len(tracer.traces) == 1
        trace = tracer.traces[0]
        assert [c.name for c in trace.root.children] == ["a"]
        assert trace.root.cum_writes == 1
        # Detached on exit: later I/O is not recorded.
        m.disk.read(bid)
        assert trace.root.cum_reads == 0

    def test_install_keeps_manually_attached_machines(self):
        tracer = Tracer()
        outside = _mk()
        tracer.attach(outside)
        with tracer.install():
            _mk()
        # Only the machine built inside the body was detached.
        (bid,) = outside.disk.allocate(1)
        outside.disk.write(bid, make_records(np.arange(8)))
        assert tracer.traces[0].root.cum_writes == 1
        tracer.detach(outside)

    def test_double_attach_and_bad_detach_raise(self):
        mach = _mk()
        tracer = Tracer()
        tracer.attach(mach)
        with pytest.raises(ValueError, match="already attached"):
            tracer.attach(mach)
        tracer.detach(mach)
        with pytest.raises(ValueError, match="not attached"):
            tracer.detach(mach)

    def test_attach_mid_phase_ignores_foreign_pop(self):
        mach = _mk()
        tracer = Tracer()
        with mach.phase("pre"):
            trace = tracer.attach(mach)
        # The pop of "pre" (opened before attach) must not close root.
        assert trace.root.children == []
        with mach.phase("post"):
            pass
        tracer.detach(mach)
        assert [c.name for c in trace.root.children] == ["post"]

    def test_span_dict_round_trip(self):
        _, trace = _traced_run("splitters")
        rebuilt = Span.from_dict(json.loads(json.dumps(trace.root.to_dict())))
        assert rebuilt.to_dict() == trace.root.to_dict()


class TestExporters:
    def test_chrome_trace_shape_and_serializable(self):
        machine, trace = _traced_run("sort")
        doc = chrome_trace([trace])
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(metas) == 1
        assert len(slices) == sum(1 for _ in trace.root.walk())
        for e in slices:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert {
                "path", "reads", "writes", "io", "comparisons",
                "self_io", "mem_peak", "blocks_peak", "depth",
            } <= set(e["args"])
        root_slice = next(e for e in slices if e["args"]["depth"] == 0)
        assert root_slice["args"]["io"] == machine.io.total
        json.dumps(doc)  # must be JSON-clean (no numpy scalars)

    def test_render_span_tree_merges_siblings(self):
        machine, trace = _traced_run("sort")
        merged = render_span_tree(trace)
        assert "sort" in merged and "run-formation" in merged
        assert f"{machine.io.total:,} I/Os" in merged
        raw = render_span_tree(trace, merge=False)
        assert raw.count("run-formation") >= merged.count("run-formation")

    def test_span_rollup_is_a_lossless_decomposition(self):
        machine, trace = _traced_run("multiselect")
        rollup = span_rollup([trace])
        assert sum(v["reads"] for v in rollup.values()) == machine.io.reads
        assert sum(v["writes"] for v in rollup.values()) == machine.io.writes
        assert (
            sum(v["comparisons"] for v in rollup.values()) == machine.comparisons
        )
        assert "" in rollup  # the root path
        json.dumps(rollup)

    def test_traces_to_dict(self):
        machine, trace = _traced_run("splitters")
        (d,) = traces_to_dict([trace])
        assert d["M"] == machine.M and d["B"] == machine.B
        assert d["root"]["name"] == "(machine)"

    def test_render_span_tree_zero_spans(self):
        # Regression: an empty trace list used to crash on max() of an
        # empty sequence; it must degrade to a stub instead.
        assert render_span_tree([]) == "(no spans recorded)"

    def test_span_rollup_zero_spans(self):
        assert span_rollup([]) == {}


class TestMeasureFix:
    def test_measure_comparisons_and_no_by_phase_aliasing(self):
        mach = _mk()
        (bid,) = mach.disk.allocate(1)
        recs = make_records(np.arange(8))
        with mach.measure("m1") as cost:
            mach.disk.write(bid, recs)
            mach.charge_comparisons(7)
        mach.charge_comparisons(3)
        assert cost.comparisons == 7  # only the window's comparisons
        frozen = dict(cost.by_phase)
        assert frozen == {"m1": (0, 1)}
        # Re-entering the same phase later must not mutate the delta.
        with mach.phase("m1"):
            mach.disk.read(bid)
        assert cost.by_phase == frozen
