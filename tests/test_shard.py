"""Tests for the sharded coordinator/worker service (``repro.shard``).

Covers the charged-communication primitive (``em.wire``), the
endpoints, the differential guarantee (sharded answers element-identical
to the single-machine engine across shard counts, kernels, and sanitize
mode, with counter conservation under the tracer), the declared request
protocol, range counts that message only the shards they cut (none
outside the data), ``partition_of`` lookups that send one request (none
outside the data), shard isolation (no
worker state reachable from the router), worker-failure behavior, real
process workers, and the shard-skew trace generator.
"""

from __future__ import annotations

import functools
import types
from collections import deque

import numpy as np
import pytest

from repro.core import multi_select
from repro.em import (
    KEY_MAX,
    KEY_MIN,
    UID_BITS,
    Disk,
    EMFile,
    Machine,
    composite,
    composite_of,
    observe_machines,
)
from repro.em.errors import SpecError
from repro.em.wire import (
    RECV_PHASE,
    SEND_PHASE,
    WORDS_PER_RECORD,
    charge_recv,
    charge_send,
    message_blocks,
    payload_words,
)
from repro.obs import MetricsRegistry, Tracer, metrics_scope
from repro.service import LazyPartitionIndex, Query, QueryFrontend
from repro.shard import (
    PROTOCOL,
    Endpoint,
    InProcessWorkerPool,
    Message,
    ShardError,
    ShardWorker,
    build_sharded_service,
    make_pool,
)
from repro.workloads import WORKLOADS, load_input
from repro.workloads.generators import (
    few_distinct,
    hard_permutation,
    organ_pipe,
    random_permutation,
    sorted_keys,
)
from repro.workloads.queries import QUERY_TRACES, shard_skew_trace

from .conftest import records_from_keys
from .test_kernels import KERNELS


# ----------------------------------------------------------------------
# em.wire — the charging primitive
# ----------------------------------------------------------------------
class TestWire:
    def test_payload_words_units(self):
        recs = records_from_keys(range(5))
        assert payload_words(recs) == WORDS_PER_RECORD * 5
        assert payload_words(np.arange(7, dtype=np.int64)) == 7
        assert payload_words(None) == 1
        assert payload_words(3) == 1
        assert payload_words(2.5) == 1
        assert payload_words("abcdefgh") == 1
        assert payload_words("abcdefghi") == 2
        assert payload_words(("select", np.arange(4))) == 5
        assert payload_words({"a": 1, "bb": (2, 3)}) == 5

    def test_payload_words_rejects_unchargeable(self):
        with pytest.raises(TypeError):
            payload_words(object())

    def test_message_blocks(self):
        # B = 8 records carry 3*8 = 24 payload words per block.
        assert message_blocks(0, 8) == 1  # envelope floor
        assert message_blocks(24, 8) == 1
        assert message_blocks(25, 8) == 2
        with pytest.raises(ValueError):
            message_blocks(-1, 8)
        with pytest.raises(ValueError):
            message_blocks(10, 0)

    def test_charge_send_pays_block_writes(self, small_machine):
        m = small_machine
        r0, w0 = m.io.reads, m.io.writes
        charge_send(m, 3, SEND_PHASE)
        assert m.io.writes == w0 + 3
        assert m.io.reads == r0

    def test_charge_recv_pays_block_reads_only(self, small_machine):
        m = small_machine
        lw0 = m.disk.lifetime.writes
        r0, w0 = m.io.reads, m.io.writes
        charge_recv(m, 2, RECV_PHASE)
        assert m.io.reads == r0 + 2
        assert m.io.writes == w0
        # No arrival write is charged — not even to the lifetime
        # counters, so tracer conservation holds.
        assert m.disk.lifetime.writes == lw0

    def test_charges_move_no_blocks(self, small_machine):
        # A charge is a counter update: no scratch block is allocated,
        # written or read, so live/peak block counts, the access trace
        # and the next block id all stay put.
        d = small_machine.disk
        (before,) = d.allocate(1)
        live0, peak0 = d.live_blocks, d.peak_blocks
        d.start_trace()
        charge_send(small_machine, 3)
        charge_recv(small_machine, 2)
        assert d.stop_trace() == []
        assert (d.live_blocks, d.peak_blocks) == (live0, peak0)
        (after,) = d.allocate(1)
        assert after == before + 1

    def test_charges_conserve_under_sanitize_tracer(self):
        m = Machine(memory=256, block=8, sanitize=True)
        tracer = Tracer()
        tracer.attach(m)
        charge_send(m, 2)
        charge_recv(m, 2)
        tracer.detach(m)  # raises CounterConservationError on drift
        m.close()


# ----------------------------------------------------------------------
# Endpoints
# ----------------------------------------------------------------------
class TestTransport:
    def _link(self, shard=0):
        """A coordinator and a worker endpoint joined by two deques."""
        coord, work = Machine(memory=256, block=8), Machine(memory=256, block=8)
        to_worker, to_coord = deque(), deque()
        ce = Endpoint(coord, shard, "coordinator", to_worker.append, to_coord.popleft)
        we = Endpoint(work, shard, "worker", to_coord.append, to_worker.popleft)
        return coord, work, ce, we, to_worker

    def test_both_endpoints_charged(self):
        coord, work, ce, we, _ = self._link()
        payload = np.arange(100, dtype=np.int64)
        blocks = message_blocks(payload_words(("ping", payload, None)), 8)
        assert blocks > 1  # a multi-block message, not just the envelope

        w0 = coord.io.writes
        ce.send(Message("ping", payload))
        assert coord.io.writes == w0 + blocks  # sender pays writes

        r0 = work.io.reads
        got = we.recv()
        assert work.io.reads == r0 + blocks  # receiver pays reads
        assert got.kind == "ping" and np.array_equal(got.payload, payload)
        assert got.shard == 0 and got.seq == 0

    def test_sequence_gap_raises_shard_error(self):
        _, _, ce, we, to_worker = self._link()
        ce.send(Message("a"))
        ce.send(Message("b"))
        to_worker.popleft()  # a faulty link drops message 0
        with pytest.raises(ShardError, match="expected message seq 0"):
            we.recv()

    def test_endpoint_metrics(self):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            _, _, ce, we, _ = self._link(shard=2)
            ce.send(Message("ping"))
            we.recv()
        fams = registry.to_dict()
        sent = fams["svc_shard_msgs"]["children"]["shard=2,direction=send"]
        recv = fams["svc_shard_msgs"]["children"]["shard=2,direction=recv"]
        assert sent["value"] == 1 and recv["value"] == 1
        words = payload_words(("ping", None, None))
        nbytes = fams["svc_shard_bytes"]["children"]["shard=2,direction=send"]
        assert nbytes["value"] == 8 * words


# ----------------------------------------------------------------------
# Differential: sharded == single machine
# ----------------------------------------------------------------------
def _reference_select(records: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Offline multi-selection ground truth on a fresh machine."""
    mach = Machine(memory=512, block=16)
    f = load_input(mach, records)
    unique, inverse = np.unique(ranks, return_inverse=True)
    out = multi_select(mach, f, unique)[inverse]
    f.free()
    return out


class TestDifferential:
    N, K, Q = 4096, 32, 48

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    @pytest.mark.parametrize("w", [1, 2, 4, 8])
    def test_sharded_matches_single_machine(self, w, kernel):
        records = random_permutation(self.N, seed=11)
        trace = QUERY_TRACES["zipfian"](self.Q, self.N, seed=11, alpha=1.2)
        queries = [Query.select(int(r)) for r in trace]
        expected = composite(_reference_select(records, trace))

        # Sanitize mode + tracer: detach verifies counter conservation
        # on the coordinator and every labeled shard machine.
        with Tracer().install() as tracer:
            coord = Machine(memory=512, block=16, kernel=kernel, sanitize=True)
            f = load_input(coord, records)
            coord.reset_counters()
            with build_sharded_service(coord, f, shards=w, k=self.K) as router:
                assert router.nshards == w
                assert router.n_live == self.N
                assert sum(router.shard_sizes) == self.N
                answers = QueryFrontend(coord, router).run(queries, batch=16)
                # range_count merges per-shard bucket counts; keys are a
                # permutation of 0..N-1, so ground truth is arithmetic.
                assert router.range_count(100, 2000) == 1900
                assert router.range_count(-1, self.N) == self.N
                stats = router.shard_io_stats()
            assert coord.io.total > 0  # communication was charged
            f.free()
            coord.close()
        got = composite(np.array(answers, dtype=records.dtype))
        assert np.array_equal(got, expected)
        assert sum(s["n"] for s in stats) == self.N
        assert {s["kernel"] for s in stats} == {kernel.name}
        labels = {t.label for t in tracer.traces}
        assert {f"shard-{i}" for i in range(w)} <= labels

    def test_io_stats_match_worker_machines(self):
        records = random_permutation(1024, seed=5)
        coord = Machine(memory=512, block=16)
        f = load_input(coord, records)
        machines = []
        with observe_machines(machines.append):
            router = build_sharded_service(coord, f, shards=3, k=16)
        shard_machines = [m for m in machines if m.label.startswith("shard-")]
        assert [m.label for m in shard_machines] == ["shard-0", "shard-1", "shard-2"]
        with router:
            router.batch_select(np.arange(1, 40, dtype=np.int64))
            stats = router.shard_io_stats()
            for s, m in zip(stats, shard_machines):
                # The snapshot precedes the reply's own send charge, so
                # live writes are exactly one reply transmission ahead.
                assert s["lifetime_reads"] == m.disk.lifetime.reads
                sent = m.disk.lifetime.writes - s["lifetime_writes"]
                assert 1 <= sent <= 2
                assert s["kernel"] == m.kernel.name
        f.free()
        coord.close()

    def test_build_rejects_bad_parameters(self):
        coord = Machine(memory=512, block=16)
        f = load_input(coord, random_permutation(128, seed=0))
        with pytest.raises(SpecError):
            build_sharded_service(coord, f, shards=0, k=8)
        with pytest.raises(SpecError):
            build_sharded_service(coord, f, shards=2, k=0)
        f.free()
        coord.close()


# ----------------------------------------------------------------------
# The declared request protocol
# ----------------------------------------------------------------------
def _record_requests(monkeypatch) -> list[tuple[str, str]]:
    """Make the in-process pool log the ``(request kind, reply kind)``
    of every request it sends; returns the live log."""
    sent = []
    request = InProcessWorkerPool.request

    def recording(pool, shard, kind, payload=None):
        reply = request(pool, shard, kind, payload)
        sent.append((kind, reply.kind))
        return reply

    monkeypatch.setattr(InProcessWorkerPool, "request", recording)
    return sent


def _record_router_session(monkeypatch) -> list[tuple[str, str]]:
    """``(request kind, reply kind)`` of every request that a build,
    every ShardRouter method, and close send through the pool."""
    sent = _record_requests(monkeypatch)
    coord = Machine(memory=512, block=16)
    f = load_input(coord, random_permutation(1024, seed=3))
    with build_sharded_service(coord, f, shards=3, k=16) as router:
        router.select(5)
        router.batch_select(np.arange(1, 1025, 97, dtype=np.int64))
        router.range_count(10, 900)
        router.partition_of(1000)
        router.shard_io_stats()
    f.free()
    coord.close()
    return sent


class TestProtocol:
    @pytest.mark.parametrize("workers", ["inproc", "process"])
    def test_unknown_kind_rejected_before_anything_is_charged(self, workers):
        coord = Machine(memory=512, block=16)
        pool = make_pool(workers, coord, 2)
        try:
            with pytest.raises(ShardError, match="unknown request kind 'selct'"):
                pool.request(0, "selct", np.arange(1, 4))
            assert coord.disk.lifetime.total == 0
            # Each worker's counters hold only the io_stats request it is
            # answering: one block read, no writes.
            for shard in range(2):
                stats = pool.request(shard, "io_stats").payload
                assert (stats["lifetime_reads"], stats["lifetime_writes"]) == (1, 0)
        finally:
            pool.close()
        coord.close()

    def test_router_sends_only_declared_kinds(self, monkeypatch):
        # request() raises ShardError for an undeclared kind, so the
        # session running through is already most of this check.
        sent = {kind for kind, _ in _record_router_session(monkeypatch)}
        assert sent <= set(PROTOCOL), sent - set(PROTOCOL)

    def test_every_declared_kind_is_sent(self, monkeypatch):
        # A PROTOCOL entry that no router path sends is a dead handler.
        sent = {kind for kind, _ in _record_router_session(monkeypatch)}
        assert set(PROTOCOL) <= sent, set(PROTOCOL) - sent

    def test_reply_kinds_match_the_table(self, monkeypatch):
        for kind, reply in _record_router_session(monkeypatch):
            assert reply == PROTOCOL[kind][1], kind


# ----------------------------------------------------------------------
# Range counts: whole shards count from their sizes
# ----------------------------------------------------------------------
def _edge_keys(router, keys: np.ndarray) -> list[int]:
    """Range endpoints where routing can go wrong: each splitter key and
    its neighbours, the extreme keys and theirs, and keys at and past
    the ends of the key domain."""
    near = [int(c) >> UID_BITS for c in router.splitters]
    near += [int(keys.min()), int(keys.max())]
    edges = {x + d for x in near for d in (-1, 0, 1)}
    return sorted(edges | {-1, 0, KEY_MIN, KEY_MAX, -(10**12), 10**12})


def _oracle_counts(keys: np.ndarray, ends: list[int]) -> list[int]:
    """Sorted-array counts of ``(lo, hi]`` for every pair lo <= hi."""
    at = np.searchsorted(np.sort(keys), np.array(ends, dtype=object), side="right")
    return [int(at[j] - at[i]) for i in range(len(ends)) for j in range(i, len(ends))]


def _range_counts(router, ends: list[int], sent=None) -> list[int]:
    """The router's counts in :func:`_oracle_counts` order; with a
    request log, also that no call messages more than two shards."""
    answers = []
    for i, lo in enumerate(ends):
        for hi in ends[i:]:
            if sent is not None:
                sent.clear()
            answers.append(router.range_count(lo, hi))
            if sent is not None:
                asked = [kind for kind, _ in sent if kind == "range_count"]
                assert len(asked) <= 2, (lo, hi, len(asked))
    return answers


#: Generators the sharded oracle tests run at every W.
_FIRST_INPUTS = (random_permutation, few_distinct, sorted_keys, organ_pipe)
#: The service's other inputs (as in test_service's ``TestOneQueryPath``:
#: the rest of ``WORKLOADS`` and ``hard_permutation`` at block 16), run
#: at W ∈ {2, 4}.  ``hard_permutation`` needs N to be a multiple of 16.
_OTHER_INPUTS = {
    **{name: gen for name, gen in WORKLOADS.items() if gen not in _FIRST_INPUTS},
    "hard": functools.partial(hard_permutation, block=16),
}
#: ``(generator, W)`` cases of the range-count and ``partition_of``
#: oracle tests.
_ORACLE_CASES = [
    pytest.param(gen, w, id=f"{gen.__name__}-{w}")
    for gen in _FIRST_INPUTS
    for w in (1, 2, 4, 8)
] + [
    pytest.param(gen, w, id=f"{name}-{w}")
    for name, gen in _OTHER_INPUTS.items()
    for w in (2, 4)
]


def _build(records, w: int, workers: str = "inproc"):
    coord = Machine(memory=512, block=16, sanitize=True)
    f = load_input(coord, records)
    router = build_sharded_service(coord, f, shards=w, k=16, workers=workers)
    # A few selects refine the shard trees, so counts also cross pivots.
    router.batch_select(np.linspace(1, len(records), 7).astype(np.int64))
    return coord, f, router


def _teardown(coord, f, router) -> None:
    router.close()
    f.free()
    coord.close()


class TestRangeCount:
    N = 3008

    @pytest.mark.parametrize("gen, w", _ORACLE_CASES)
    def test_edge_ranges_match_oracle_with_two_requests(self, gen, w, monkeypatch):
        records = gen(self.N, seed=5)
        sent = _record_requests(monkeypatch)
        coord, f, router = _build(records, w)
        ends = _edge_keys(router, records["key"])
        got = _range_counts(router, ends, sent)
        assert got == _oracle_counts(records["key"], ends)
        _teardown(coord, f, router)

    def test_process_workers_answer_as_inproc(self):
        records = random_permutation(self.N, seed=5)
        answers = {}
        for workers in ("inproc", "process"):
            coord, f, router = _build(records, 4, workers)
            ends = _edge_keys(router, records["key"])
            answers[workers] = (
                _range_counts(router, ends),
                [router.partition_of(key) for key in ends],
            )
            _teardown(coord, f, router)
        assert answers["process"] == answers["inproc"]
        assert answers["inproc"][0] == _oracle_counts(records["key"], ends)

    @pytest.mark.parametrize("gen, w", _ORACLE_CASES)
    def test_ranges_outside_or_across_the_edges(self, gen, w, monkeypatch):
        # A range that misses every key sends nothing; one reaching past
        # the smallest or the largest key spans that edge shard and
        # messages at most the shard its other endpoint cuts.
        records = gen(self.N, seed=5)
        sent = _record_requests(monkeypatch)
        coord, f, router = _build(records, w)
        keys = records["key"]
        lo, hi = int(keys.min()), int(keys.max())
        ends = _edge_keys(router, keys)
        want = iter(_oracle_counts(keys, ends))
        for i, a in enumerate(ends):
            for b in ends[i:]:
                sent.clear()
                assert router.range_count(a, b) == next(want), (a, b)
                asked = [kind for kind, _ in sent if kind == "range_count"]
                if b < lo or a >= hi:
                    assert asked == [], (a, b)
                elif a < lo or b >= hi:
                    assert len(asked) <= 1, (a, b)
        _teardown(coord, f, router)

    def test_killed_last_shard_leaves_ranges_past_it_answering(self):
        records = random_permutation(self.N, seed=5)
        coord, f, router = _build(records, 4)
        router._pool.kill(3)
        # Past the largest key, and over every shard: no message.
        assert router.range_count(self.N - 1, KEY_MAX) == 0
        assert router.range_count(self.N - 1, 10**12) == 0
        assert router.range_count(-(10**12), 10**12) == self.N
        # A range ending inside the dead shard still fails.
        with pytest.raises(ShardError, match="shard 3"):
            router.range_count(-1, self.N - 2)
        _teardown(coord, f, router)

    def test_empty_shards_get_no_message(self, monkeypatch):
        # Three records over eight shards: the splitters cover three
        # records, so shards 3-7 stay empty.
        records = random_permutation(3, seed=5)
        sent = _record_requests(monkeypatch)
        coord, f, router = _build(records, 8)
        assert list(router.shard_sizes) == [1, 1, 1, 0, 0, 0, 0, 0]
        ends = _edge_keys(router, records["key"])
        assert _range_counts(router, ends, sent) == _oracle_counts(records["key"], ends)
        sent.clear()
        assert router.range_count(2, KEY_MAX) == 0  # past the largest key
        # Past the largest key lies empty shard 3, after one leaf in each
        # nonempty shard.
        assert router.partition_of(KEY_MAX) == 3
        assert sent == []
        _teardown(coord, f, router)

    @pytest.mark.parametrize("w", [2, 4])
    @pytest.mark.parametrize("gen", _OTHER_INPUTS.values(), ids=list(_OTHER_INPUTS))
    def test_selects_match_the_sorted_oracle(self, gen, w):
        records = gen(self.N, seed=5)
        coord, f, router = _build(records, w)
        ranks = np.concatenate([
            [1, self.N],
            QUERY_TRACES["zipfian"](48, self.N, seed=5, alpha=1.2),
            np.linspace(1, self.N, 17).astype(np.int64),
        ])
        got = composite(router.batch_select(ranks))
        assert np.array_equal(got, np.sort(composite(records))[ranks - 1])
        _teardown(coord, f, router)

    def test_empty_interval_sends_no_message(self, monkeypatch):
        records = random_permutation(self.N, seed=5)
        sent = _record_requests(monkeypatch)
        coord, f, router = _build(records, 4)
        sent.clear()
        for key in _edge_keys(router, records["key"]):
            assert router.range_count(key, key) == 0
        assert sent == []
        _teardown(coord, f, router)

    def test_closed_router_raises(self):
        # With empty shards, some ranges need no message, so the closed
        # check cannot rest on a dead endpoint alone.
        records = random_permutation(3, seed=5)
        coord, f, router = _build(records, 8)
        ends = _edge_keys(router, records["key"])
        router.close()
        for i, lo in enumerate(ends):
            with pytest.raises(ShardError):
                router.partition_of(lo)
            for hi in ends[i:]:
                with pytest.raises(ShardError):
                    router.range_count(lo, hi)
        f.free()
        coord.close()

    def test_killed_interior_shard_counts_from_its_size(self):
        records = random_permutation(self.N, seed=5)
        coord, f, router = _build(records, 4)
        keys = np.sort(records["key"])
        edge = np.cumsum(router.shard_sizes)  # shard i ends at keys[edge[i] - 1]
        router._pool.kill(1)
        # (first key, last key] covers shards 1 and 2 whole.
        lo, hi = int(keys[0]), int(keys[-1])
        assert router.range_count(lo, hi) == self.N - 1
        # A select or a range ending inside the dead shard still fails.
        with pytest.raises(ShardError, match="shard 1"):
            router.select(int(edge[0]) + 1)
        with pytest.raises(ShardError, match="shard 1"):
            router.range_count(lo, int(keys[edge[1] - 2]))
        _teardown(coord, f, router)


# ----------------------------------------------------------------------
# partition_of: one request, offset by the leaf counts replies carry
# ----------------------------------------------------------------------
def _shard_keys(router, records: np.ndarray) -> list[int]:
    """The largest key of each shard, left to right (distinct keys)."""
    keys = np.sort(records["key"])
    return [int(keys[end - 1]) for end in np.cumsum(router.shard_sizes)]


def _asked_leaf_index(router, key: int) -> int:
    """``key``'s global leaf index from fresh ``part`` requests: each
    nonempty shard left of the owner reports its last leaf's index."""
    pool, sizes = router._pool, router.shard_sizes
    owner = int(np.searchsorted(router.splitters, composite_of(key, 0)))
    left = sum(
        int(pool.request(s, "part", KEY_MAX).payload) + 1
        for s in range(owner)
        if sizes[s]
    )
    return left + int(pool.request(owner, "part", key).payload)


class TestPartitionOf:
    N = 3008

    def test_one_request_per_lookup(self, monkeypatch):
        records = random_permutation(self.N, seed=5)
        sent = _record_requests(monkeypatch)
        coord, f, router = _build(records, 4)
        keys = _shard_keys(router, records)
        assert all(router.shard_sizes)
        totals = []
        for _ in range(2):
            for key in keys:
                sent.clear()
                got = router.partition_of(key)
                assert [kind for kind, _ in sent] == ["part"]
                assert got == _asked_leaf_index(router, key)
            totals.append(router.partition_of(KEY_MAX))
            # More selects refine the shards; the held counts follow.
            router.batch_select(np.arange(1, self.N + 1, 37, dtype=np.int64))
        assert totals[1] > totals[0]
        _teardown(coord, f, router)

    @pytest.mark.parametrize("gen, w", _ORACLE_CASES)
    def test_keys_outside_the_edges_send_nothing(self, gen, w, monkeypatch):
        records = gen(self.N, seed=5)
        sent = _record_requests(monkeypatch)
        coord, f, router = _build(records, w)
        lo, hi = int(records["key"].min()), int(records["key"].max())
        outside = [
            key
            for key in (-(10**12), KEY_MIN, lo - 1, lo, hi + 1, KEY_MAX, 10**12)
            if key <= lo or key > hi
        ]
        for _ in range(2):
            for key in outside:
                sent.clear()
                got = router.partition_of(key)
                assert sent == [], key
                assert got == _asked_leaf_index(router, key), key
            # More selects refine the shards; the held counts follow.
            router.batch_select(np.arange(1, self.N + 1, 37, dtype=np.int64))
        _teardown(coord, f, router)

    def test_killed_last_shard_leaves_keys_past_it_answering(self):
        records = random_permutation(self.N, seed=5)
        coord, f, router = _build(records, 4)
        before = router.partition_of(KEY_MAX)
        router._pool.kill(3)
        assert router.partition_of(KEY_MAX) == before
        assert router.partition_of(10**12) == before
        assert router.partition_of(-1) == 0
        with pytest.raises(ShardError, match="shard 3"):
            router.partition_of(self.N - 1)
        _teardown(coord, f, router)

    def test_killed_shard_leaves_right_shards_answering(self):
        records = random_permutation(self.N, seed=5)
        coord, f, router = _build(records, 4)
        keys = _shard_keys(router, records)
        before = [router.partition_of(key) for key in keys]
        router._pool.kill(1)
        assert router.partition_of(keys[3]) == before[3]
        assert router.partition_of(keys[0]) == before[0]
        with pytest.raises(ShardError, match="shard 1"):
            router.partition_of(keys[1])
        _teardown(coord, f, router)


# ----------------------------------------------------------------------
# Isolation: the router holds endpoints, never worker state
# ----------------------------------------------------------------------
def _reachable(root) -> list:
    """Every object reachable from ``root`` through instance attributes,
    containers and bound-method receivers (closures are not followed:
    an in-process link's delivery function is the wire itself)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if isinstance(obj, (types.MethodType, types.BuiltinMethodType)):
            if not isinstance(obj.__self__, types.ModuleType):
                stack.append(obj.__self__)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif not isinstance(
            obj, (type, types.ModuleType, types.FunctionType, str, bytes, np.ndarray)
        ):
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return found


class TestIsolation:
    @pytest.mark.parametrize("workers", ["inproc", "process"])
    def test_router_reaches_no_worker_state(self, workers):
        # A shard's worker, engine, files, machine and disk are reachable
        # from the coordinator only as charged messages.
        coord = Machine(memory=512, block=16)
        f = load_input(coord, random_permutation(1024, seed=3))
        with build_sharded_service(coord, f, shards=3, k=16, workers=workers) as router:
            router.batch_select(np.arange(1, 1025, 97, dtype=np.int64))
            reached = _reachable(router)
            leaks = [
                type(o).__name__
                for o in reached
                if isinstance(o, (ShardWorker, LazyPartitionIndex, EMFile))
                or isinstance(o, (Machine, Disk)) and o is not coord and o is not coord.disk
            ]
            assert leaks == []
            # The walk did pass through the pool: one endpoint per shard.
            assert sum(isinstance(o, Endpoint) for o in reached) == 3
        f.free()
        coord.close()


# ----------------------------------------------------------------------
# Chaos: killed workers fail cleanly
# ----------------------------------------------------------------------
class TestChaos:
    def test_killed_worker_raises_and_close_is_clean(self):
        records = random_permutation(1024, seed=3)
        coord = Machine(memory=512, block=16, sanitize=True)
        f = load_input(coord, records)
        router = build_sharded_service(coord, f, shards=4, k=16)
        router._pool.kill(2)
        with pytest.raises(ShardError, match="shard 2"):
            router.shard_io_stats()
        # Shutdown skips the dead shard; the coordinator leaks nothing.
        router.close()
        f.free()
        coord.close()  # sanitize-mode lease-leak check fires here

    def test_killed_process_worker_raises_and_close_is_clean(self):
        records = random_permutation(512, seed=3)
        coord = Machine(memory=512, block=16)
        f = load_input(coord, records)
        router = build_sharded_service(
            coord, f, shards=2, k=8, workers="process"
        )
        router._pool.kill(1)
        with pytest.raises(ShardError, match="shard 1"):
            for _ in range(4):  # first requests may still drain the pipe
                router.shard_io_stats()
        router.close()
        f.free()
        coord.close()


# ----------------------------------------------------------------------
# Process workers: identical model costs
# ----------------------------------------------------------------------
class TestProcessWorkers:
    def test_process_workers_match_inproc(self):
        records = random_permutation(2048, seed=7)
        traces = {
            "zipfian": QUERY_TRACES["zipfian"](32, 2048, seed=7, alpha=1.1),
            # Zipfian popularity over the two shards' rank stripes.
            "shard-skew": QUERY_TRACES["shard-skew"](32, 2048, seed=7, shards=2),
        }
        for name, trace in traces.items():
            queries = [Query.select(int(r)) for r in trace]
            expected = composite(_reference_select(records, trace))
            runs = {}
            for workers in ("inproc", "process"):
                coord = Machine(memory=512, block=16)
                f = load_input(coord, records)
                coord.reset_counters()
                with build_sharded_service(
                    coord, f, shards=2, k=16, workers=workers
                ) as router:
                    answers = QueryFrontend(coord, router).run(queries, batch=16)
                    last_leaf = router.partition_of(KEY_MAX)
                    stats = router.shard_io_stats()
                runs[workers] = (
                    composite(np.array(answers, dtype=records.dtype)),
                    last_leaf,
                    coord.io.total,
                    tuple(
                        (s["lifetime_reads"], s["lifetime_writes"], s["n"])
                        for s in stats
                    ),
                )
                f.free()
                coord.close()
            for workers, (got, *_) in runs.items():
                assert np.array_equal(got, expected), (name, workers)
            assert runs["inproc"][1:] == runs["process"][1:], name


# ----------------------------------------------------------------------
# Shard-skew trace generator
# ----------------------------------------------------------------------
class TestShardSkewTrace:
    def test_deterministic_and_in_range(self):
        a = shard_skew_trace(64, 4096, seed=3, shards=8)
        b = shard_skew_trace(64, 4096, seed=3, shards=8)
        assert np.array_equal(a, b)
        assert a.dtype == np.int64
        assert a.min() >= 1 and a.max() <= 4096
        assert not np.array_equal(a, shard_skew_trace(64, 4096, seed=4, shards=8))

    def test_pinned_regression(self):
        # Byte-level determinism guard: these values may only change with
        # an intentional, documented generator change.
        a = shard_skew_trace(64, 4096, seed=3, shards=8)
        assert list(a[:8]) == [3124, 4031, 3249, 2338, 2124, 2542, 1266, 3073]

    def test_skews_toward_few_stripes(self):
        t = shard_skew_trace(512, 8192, seed=0, shards=8, alpha=1.4)
        stripe = (t - 1) * 8 // 8192
        counts = np.bincount(stripe, minlength=8)
        assert counts.max() >= 3 * np.sort(counts)[3]  # top stripe dominates

    def test_registered_in_query_traces(self):
        assert "shard-skew" in QUERY_TRACES
