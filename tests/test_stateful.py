"""Stateful property tests of the simulator substrate.

Hypothesis drives random operation sequences against the memory
accountant and the disk, checking the core safety invariants after every
step: leased memory never exceeds M and is exactly the sum of live
leases; disk counters only grow while counting; block contents are
faithful; freed blocks are unreachable.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.em import Disk, MemoryBudgetError
from repro.em.machine import MemoryAccountant
from repro.em.records import make_records


class AccountantMachine(RuleBasedStateMachine):
    CAPACITY = 1000

    def __init__(self):
        super().__init__()
        self.acc = MemoryAccountant(self.CAPACITY)
        self.live = {}  # id -> lease
        self.next_id = 0

    @rule(size=st.integers(0, 600))
    def lease(self, size):
        if self.acc.in_use + size > self.CAPACITY:
            try:
                self.acc.lease(size).acquire()
                raise AssertionError("over-budget lease must fail")
            except MemoryBudgetError:
                return
        lease = self.acc.lease(size, f"l{self.next_id}").acquire()
        self.live[self.next_id] = lease
        self.next_id += 1

    @precondition(lambda self: self.live)
    @rule(which=st.integers(0, 10**6), new_size=st.integers(0, 600))
    def resize(self, which, new_size):
        key = sorted(self.live)[which % len(self.live)]
        lease = self.live[key]
        delta = new_size - lease.size
        if self.acc.in_use + delta > self.CAPACITY:
            try:
                lease.resize(new_size)
                raise AssertionError("over-budget resize must fail")
            except MemoryBudgetError:
                return
        lease.resize(new_size)

    @precondition(lambda self: self.live)
    @rule(which=st.integers(0, 10**6))
    def release(self, which):
        key = sorted(self.live)[which % len(self.live)]
        self.live.pop(key).release()

    @invariant()
    def in_use_matches_live_leases(self):
        assert self.acc.in_use == sum(l.size for l in self.live.values())
        assert 0 <= self.acc.in_use <= self.CAPACITY
        assert self.acc.peak >= self.acc.in_use


class DiskMachine(RuleBasedStateMachine):
    B = 8

    def __init__(self):
        super().__init__()
        self.disk = Disk(self.B)
        self.shadow = {}  # block id -> expected key list
        self.counting = True
        self.expected = [0, 0]  # reads, writes

    @rule(n=st.integers(1, 4))
    def allocate(self, n):
        for bid in self.disk.allocate(n):
            self.shadow[bid] = []

    @precondition(lambda self: self.shadow)
    @rule(which=st.integers(0, 10**6), size=st.integers(0, 8), seed=st.integers(0, 99))
    def write(self, which, size, seed):
        bid = sorted(self.shadow)[which % len(self.shadow)]
        keys = list(np.random.default_rng(seed).integers(0, 100, size))
        self.disk.write(bid, make_records(np.array(keys, dtype=np.int64)))
        self.shadow[bid] = keys
        if self.counting:
            self.expected[1] += 1

    @precondition(lambda self: self.shadow)
    @rule(which=st.integers(0, 10**6))
    def read(self, which):
        bid = sorted(self.shadow)[which % len(self.shadow)]
        got = self.disk.read(bid)
        assert list(got["key"]) == self.shadow[bid]
        if self.counting:
            self.expected[0] += 1

    @precondition(lambda self: len(self.shadow) > 1)
    @rule(which=st.integers(0, 10**6))
    def free(self, which):
        bid = sorted(self.shadow)[which % len(self.shadow)]
        self.disk.free([bid])
        del self.shadow[bid]

    @rule()
    def toggle_counting(self):
        # Model the uncounted() context by entering/exiting it atomically.
        self.counting = not self.counting
        self.disk._counting = self.counting  # direct toggle for the model

    @invariant()
    def counters_match_model(self):
        assert self.disk.counters.reads == self.expected[0]
        assert self.disk.counters.writes == self.expected[1]
        assert self.disk.live_blocks == len(self.shadow)
        assert self.disk.peak_blocks >= self.disk.live_blocks


TestAccountantStateful = AccountantMachine.TestCase
TestAccountantStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
TestDiskStateful = DiskMachine.TestCase
TestDiskStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
