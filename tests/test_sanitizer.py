"""Dynamic sanitizer tests: strict-mode traps, the ``EM_SANITIZE`` env
default, the tracer's counter-conservation check, and every registered
solver run strict, with its span rollup pinned.

Every trap asserts the *exact* sanitizer error class, and each strict
error is also an instance of the lenient-API error it refines
(``UseAfterFreeError`` is a ``BadBlockError``, ``DoubleReleaseError``
is a ``LeaseError``, ...) so code written against the lenient API keeps
working unchanged under ``EM_SANITIZE=1``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.em import (
    BadBlockError,
    CounterConservationError,
    DoubleFreeError,
    DoubleReleaseError,
    LeaseError,
    LeaseLeakError,
    Machine,
    UninitializedReadError,
    UseAfterFreeError,
    make_records,
    sanitize_default,
)
from repro.obs import Tracer
from repro.obs.export import span_rollup
from repro.obs.solvers import SOLVERS
from repro.workloads.generators import load_input, random_permutation


def _mk(sanitize: bool = True) -> Machine:
    return Machine(memory=256, block=8, sanitize=sanitize)


def _write_one(machine: Machine) -> int:
    (bid,) = machine.disk.allocate(1)
    machine.disk.write(bid, make_records(np.arange(8)))
    return bid


class TestUseAfterFree:
    def test_read_after_free_raises(self):
        m = _mk()
        bid = _write_one(m)
        m.disk.free([bid])
        with pytest.raises(UseAfterFreeError):
            m.disk.read(bid)

    def test_write_after_free_raises(self):
        m = _mk()
        bid = _write_one(m)
        m.disk.free([bid])
        with pytest.raises(UseAfterFreeError):
            m.disk.write(bid, make_records(np.arange(8)))

    def test_read_many_after_free_raises(self):
        m = _mk()
        live = _write_one(m)
        dead = _write_one(m)
        m.disk.free([dead])
        with pytest.raises(UseAfterFreeError):
            m.disk.read_many([live, dead])

    def test_peek_after_free_raises(self):
        m = _mk()
        bid = _write_one(m)
        m.disk.free([bid])
        with pytest.raises(UseAfterFreeError):
            m.disk.peek(bid)

    def test_is_bad_block_subclass(self):
        # Lenient-API handlers (``except BadBlockError``) must keep
        # catching the strict error.
        assert issubclass(UseAfterFreeError, BadBlockError)

    def test_lenient_mode_raises_plain_bad_block(self):
        m = _mk(sanitize=False)
        bid = _write_one(m)
        m.disk.free([bid])
        with pytest.raises(BadBlockError) as exc_info:
            m.disk.read(bid)
        assert not isinstance(exc_info.value, UseAfterFreeError)


class TestDoubleFree:
    def test_double_free_raises(self):
        m = _mk()
        bid = _write_one(m)
        m.disk.free([bid])
        with pytest.raises(DoubleFreeError):
            m.disk.free([bid])

    def test_double_free_leaves_live_blocks_intact(self):
        # Regression: the failed free must not corrupt live_blocks —
        # validation happens before any deletion.
        m = _mk()
        live = _write_one(m)
        dead = _write_one(m)
        m.disk.free([dead])
        before = m.disk.live_blocks
        with pytest.raises(DoubleFreeError):
            m.disk.free([live, dead])
        assert m.disk.live_blocks == before
        m.disk.read(live)  # still allocated and readable

    def test_is_bad_block_subclass(self):
        assert issubclass(DoubleFreeError, BadBlockError)

    def test_lenient_mode_raises_plain_bad_block(self):
        m = _mk(sanitize=False)
        bid = _write_one(m)
        m.disk.free([bid])
        with pytest.raises(BadBlockError) as exc_info:
            m.disk.free([bid])
        assert not isinstance(exc_info.value, DoubleFreeError)


class TestUninitializedRead:
    def test_read_of_never_written_block_raises(self):
        m = _mk()
        (bid,) = m.disk.allocate(1)
        with pytest.raises(UninitializedReadError):
            m.disk.read(bid)

    def test_read_many_flags_the_uninitialized_member(self):
        m = _mk()
        written = _write_one(m)
        (blank,) = m.disk.allocate(1)
        with pytest.raises(UninitializedReadError):
            m.disk.read_many([written, blank])

    def test_written_block_reads_fine(self):
        m = _mk()
        bid = _write_one(m)
        assert len(m.disk.read(bid)) == 8

    def test_peek_of_never_written_block_is_allowed(self):
        # peek is the uncounted verification API; fresh blocks are
        # legitimately empty there.
        m = _mk()
        (bid,) = m.disk.allocate(1)
        assert len(m.disk.peek(bid)) == 0

    def test_lenient_mode_returns_empty(self):
        m = _mk(sanitize=False)
        (bid,) = m.disk.allocate(1)
        assert len(m.disk.read(bid)) == 0


class TestLeaseLifecycle:
    def test_double_release_raises(self):
        m = _mk()
        lease = m.memory.lease(8, "x").acquire()
        lease.release()
        with pytest.raises(DoubleReleaseError):
            lease.release()

    def test_double_release_does_not_corrupt_accounting(self):
        # Regression: the second release must not subtract again.
        m = _mk()
        keep = m.memory.lease(16, "keep").acquire()
        lease = m.memory.lease(8, "x").acquire()
        lease.release()
        with pytest.raises(DoubleReleaseError):
            lease.release()
        assert m.memory.in_use == 16
        keep.release()
        assert m.memory.in_use == 0

    def test_is_lease_error_subclass(self):
        assert issubclass(DoubleReleaseError, LeaseError)
        assert issubclass(LeaseLeakError, LeaseError)

    def test_lenient_mode_raises_plain_lease_error(self):
        m = _mk(sanitize=False)
        lease = m.memory.lease(8, "x").acquire()
        lease.release()
        with pytest.raises(LeaseError) as exc_info:
            lease.release()
        assert not isinstance(exc_info.value, DoubleReleaseError)

    def test_leak_detected_at_close(self):
        m = _mk()
        m.memory.lease(8, "leaky").acquire()  # deliberate leak
        with pytest.raises(LeaseLeakError, match="leaky"):
            m.close()

    def test_clean_close_after_release(self):
        m = _mk()
        lease = m.memory.lease(8, "x").acquire()
        lease.release()
        m.close()

    def test_context_managed_leases_never_leak(self):
        m = _mk()
        with m.memory.lease(8, "cm"):
            pass
        m.close()

    def test_machine_context_manager_checks_on_exit(self):
        with pytest.raises(LeaseLeakError):
            with _mk() as m:
                m.memory.lease(8, "leaky").acquire()  # deliberate leak

    def test_lenient_close_ignores_leaks(self):
        m = _mk(sanitize=False)
        m.memory.lease(8, "leaky").acquire()  # deliberate leak
        m.close()


class TestEnvDefault:
    def test_env_var_enables_sanitize(self, monkeypatch):
        monkeypatch.setenv("EM_SANITIZE", "1")
        assert sanitize_default()
        assert Machine(memory=256, block=8).sanitize

    def test_env_var_off_values(self, monkeypatch):
        for value in ("", "0", "false", "off"):
            monkeypatch.setenv("EM_SANITIZE", value)
            assert not sanitize_default()
        monkeypatch.delenv("EM_SANITIZE")
        assert not sanitize_default()

    def test_explicit_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("EM_SANITIZE", "1")
        assert not Machine(memory=256, block=8, sanitize=False).sanitize
        monkeypatch.setenv("EM_SANITIZE", "0")
        assert Machine(memory=256, block=8, sanitize=True).sanitize


class TestCounterConservation:
    def _traced(self, machine):
        tracer = Tracer()
        trace = tracer.attach(machine)
        bid = _write_one(machine)
        with machine.phase("work"):
            machine.disk.read(bid)
            machine.charge_comparisons(5)
        machine.disk.read(bid)
        return tracer, trace

    def test_clean_run_conserves(self):
        m = _mk()
        tracer, trace = self._traced(m)
        tracer.detach(m)  # must not raise
        assert trace.conservation_error() is None

    def test_span_drift_raises_on_detach(self):
        # Deliberate drift: mutate a span behind the tracer's back.
        m = _mk()
        tracer, trace = self._traced(m)
        trace.root.reads += 1
        with pytest.raises(CounterConservationError, match="reads"):
            tracer.detach(m)

    def test_comparison_drift_raises_on_detach(self):
        m = _mk()
        tracer, trace = self._traced(m)
        trace.root.children[0].comparisons -= 1
        with pytest.raises(CounterConservationError, match="comparisons"):
            tracer.detach(m)

    def test_lenient_machine_skips_the_check(self):
        m = _mk(sanitize=False)
        tracer, trace = self._traced(m)
        trace.root.reads += 1
        tracer.detach(m)  # drift ignored outside sanitize mode
        assert trace.conservation_error() is not None

    def test_conservation_survives_reset_counters(self):
        # Lifetime counters back the check, so a measurement-window
        # reset between attach and detach must not create false drift.
        m = _mk()
        tracer, _ = self._traced(m)
        m.reset_counters()
        bid = _write_one(m)
        m.disk.read(bid)
        tracer.detach(m)

    def test_algorithm_run_conserves_under_sanitize(self):
        from repro.alg.sort import external_sort

        m = Machine(memory=512, block=16, sanitize=True)
        file = load_input(m, random_permutation(2000, seed=3))
        m.reset_counters()
        tracer = Tracer()
        tracer.attach(m)
        out = external_sort(m, file)
        out.free()
        file.free()
        tracer.detach(m)
        m.close()


#: Each solver's span rollup at its defaults, without wall-clock
#: fields.  A change that moves a count re-records it (run this module
#: as a script) and says so.
ROLLUP_PINS = Path(__file__).with_name("solver_rollups.json")
PINNED_FIELDS = ("spans", "reads", "writes", "comparisons", "mem_peak", "blocks_peak")


def strict_rollup(name: str) -> dict:
    """Run solver ``name`` at its defaults on a sanitized, traced
    machine and return its span rollup, by span path, in the fields of
    :data:`PINNED_FIELDS`.  A use-after-free, double free or
    uninitialized read raises during the run, detaching checks counter
    conservation and closing checks for leaked leases."""
    solver = SOLVERS[name]
    params = dict(solver.defaults)
    machine = Machine(memory=params["memory"], block=params["block"], sanitize=True)
    file = load_input(machine, random_permutation(params["n"], seed=params["seed"]))
    machine.reset_counters()
    tracer = Tracer()
    trace = tracer.attach(machine)
    solver.run(machine, file, params)
    file.free()
    tracer.detach(machine)
    machine.close()
    return {
        path: {field: entry[field] for field in PINNED_FIELDS}
        for path, entry in sorted(span_rollup([trace]).items())
    }


class TestSolversStrict:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_solver_runs_strict_and_conserves(self, name):
        strict_rollup(name)

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_solver_cost_matches_the_pinned_rollup(self, name):
        pinned = json.loads(ROLLUP_PINS.read_text())[name]
        assert strict_rollup(name) == pinned


if __name__ == "__main__":
    ROLLUP_PINS.write_text(
        json.dumps({name: strict_rollup(name) for name in sorted(SOLVERS)}, indent=1)
        + "\n"
    )
