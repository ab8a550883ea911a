"""ProcessBackend: shards as real OS processes over the wire codec.

Consolidated scenarios (spawning interpreters is expensive on the CI
box): scatter/gather through real serialization, a terminate-based
crash, journal recovery, reply deadlines against a wedged (SIGSTOPped)
worker, and replicated failover across real processes — all converging
to the oracle.
"""

import os
import signal
import time

import pytest

from repro.cluster import (
    ClusterRouter,
    HealthMonitor,
    ProcessBackend,
    TableDecl,
)
from repro.cluster.dispatch import CycleEngine
from repro.errors import ClusterError
from repro.metrics import Metrics
from repro.net.messages import ShardHeartbeatMessage

SQL = "SELECT name, price FROM stocks WHERE price > 102"


def test_process_shards_scatter_crash_and_recover(tmp_path):
    router = ClusterRouter(
        shards=2, seed=3, backend=ProcessBackend(wal_root=str(tmp_path))
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.start()
    db = router.db
    stocks = db.table("stocks")
    with db.begin() as txn:
        for i in range(6):
            txn.insert_into(stocks, (i, f"S{i}", 100.0 + i))
    router.subscribe("c", "q", SQL)
    router.refresh()
    with db.begin() as txn:
        for row in list(stocks.current):
            if row.values[0] == 1:
                txn.modify_in(stocks, row.tid, (1, "S1", 500.0))
    router.refresh()
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle

    # Crash (SIGTERM, no handshake) while the stream keeps moving.
    router.kill_shard(0)
    with pytest.raises(ClusterError):
        router.kill_shard(0)
    with db.begin() as txn:
        txn.insert_into(stocks, (9, "S9", 900.0))
    router.refresh()
    assert router.recover_shard(0) is True
    router.refresh()
    assert router.metrics.get(Metrics.SHARD_REPLAYS) == 1
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle
    router.close()
    assert router.backend.alive() == []


class _EngineHarness:
    """The slice of a router a :class:`CycleEngine` run reads: one
    attempt under ``timeout``, health and failover calls recorded (the
    host is never taken out of service, so later runs still reach it)."""

    def __init__(self, backend, timeout):
        self.backend = backend
        self.metrics = Metrics()
        self.health = HealthMonitor(seed=0)
        self._request_timeout = timeout
        self._retries = 0
        self._dead = set()
        self.downed = []

    def _record_failure(self, host):
        self.health.failure(host)

    def _on_host_down(self, host):
        self.downed.append(host)

    def run(self, message):
        """One one-frame engine run; returns the paired reply or None."""
        engine = CycleEngine(self)
        engine.submit(0, 0, message)
        engine.run()
        return engine.replies.get((0, 0))


def test_wedged_worker_times_out_and_retry_stays_exactly_once(tmp_path):
    """A SIGSTOPped worker is the failure detection's worst case: the
    process is alive, the pipe is open, nothing answers. The deadline
    must fire (a counted timeout, not a hang), and after the worker
    resumes, the stale reply it eventually wrote must be discarded so
    the next request pairs with its own reply."""
    backend = ProcessBackend(wal_root=str(tmp_path))
    decls = [TableDecl("stocks", [("sid", int), ("price", float)])]
    backend.spawn(0, decls)
    harness = _EngineHarness(backend, timeout=5.0)
    try:
        reply = harness.run(ShardHeartbeatMessage(0, 1, 1))
        assert reply.seq == 1

        pid = backend._procs[0].pid
        os.kill(pid, signal.SIGSTOP)
        harness._request_timeout = 0.2
        try:
            start = time.monotonic()
            assert harness.run(ShardHeartbeatMessage(0, 2, 2)) is None
            assert time.monotonic() - start < 5.0
        finally:
            os.kill(pid, signal.SIGCONT)
        assert harness.metrics.get(Metrics.SCATTER_TIMEOUTS) == 1
        assert harness.downed == [0]

        # The resumed worker answered seq 2 into the pipe; the next
        # run discards that stale reply and pairs with its own.
        harness._request_timeout = 5.0
        reply = harness.run(ShardHeartbeatMessage(0, 3, 3))
        assert reply.seq == 3
        assert harness.metrics.get(Metrics.STALE_REPLIES) == 1

        # A frame without an integer seq can never be paired with its
        # reply (``None == None`` would match any stale seqless frame),
        # so the engine refuses to take it at all.
        seqless = ShardHeartbeatMessage(0, 4, 4)
        seqless.seq = None
        with pytest.raises(ClusterError, match="integer seq"):
            CycleEngine(harness).submit(0, 0, seqless)
        reply = harness.run(ShardHeartbeatMessage(0, 5, 5))
        assert reply.seq == 5
    finally:
        backend.close()
    assert backend.alive() == []


def test_replicated_failover_across_real_processes(tmp_path):
    """Kill a primary's OS process mid-stream: the router promotes the
    replica over the pipe protocol and the cycle completes."""
    router = ClusterRouter(
        shards=2,
        seed=3,
        replicas=1,
        backend=ProcessBackend(wal_root=str(tmp_path)),
    )
    router.declare_table(
        "stocks", [("sid", int), ("name", str), ("price", float)]
    )
    router.start()
    db = router.db
    stocks = db.table("stocks")
    with db.begin() as txn:
        for i in range(6):
            txn.insert_into(stocks, (i, f"S{i}", 100.0 + i))
    router.subscribe("c", "q", SQL)
    router.refresh()

    router.kill_shard(0)
    with db.begin() as txn:
        txn.insert_into(stocks, (9, "S9", 900.0))
    router.refresh()  # same-cycle failover, no ClusterError
    assert router.metrics.get(Metrics.FAILOVERS) == 1
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle

    with db.begin() as txn:
        txn.insert_into(stocks, (10, "S10", 50.0))
        txn.insert_into(stocks, (11, "S11", 1100.0))
    router.refresh()
    oracle = sorted(r.values for r in db.query(SQL))
    assert sorted(r.values for r in router.result("c", "q")) == oracle
    router.close()
    assert router.backend.alive() == []
