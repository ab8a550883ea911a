"""The three benchmark workloads, each a full deployment of one CQ path.

Every workload exposes the same interface to the benchmark loop:

* ``setup()`` builds the deployment: populate, subscribe, first
  refresh, and (``cluster-fanout``) shard process spawn;
* ``next_txn()`` draws the next transaction of the seeded mutation
  stream (a list of row operations; the program only ever sees these);
* ``commit(ops)`` commits one transaction and returns its mutation count;
* ``refresh()`` runs one refresh cycle and returns once every
  notification it produced has been applied by its subscriber, with the
  number of deltas applied;
* ``check(names)`` compares the named subscriber copies with a fresh
  ``db.query`` full re-evaluation (the paper's section 4.2 reference)
  and returns ``(checked, mismatches)``;
* ``wire_bytes()``/``wal_bytes()`` and ``counters()`` read cumulative
  program counters;
* ``close()`` stops everything the workload started.

Each workload draws all of its inputs (table contents, subscriber
population, mutation stream) from one ``random.Random(seed)``.
"""

from __future__ import annotations

import asyncio
import functools
import os
import random
import shutil
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple

from repro import Database
from repro.cluster import ClusterRouter, ProcessBackend
from repro.cluster import proc as cluster_proc
from repro.core import CQManager, EvaluationStrategy
from repro.core.results import NotificationKind
from repro.metrics import Metrics
from repro.net import codec
from repro.net.client import CQSession
from repro.net.service import CQService
from repro.net.transport import TcpTransport
from repro.relational import AttributeType
from repro.storage.wal import WriteAheadLog
from repro.workload.fanout import FanoutWorkload

from cq_trace import traced_shard_worker

INT = AttributeType.INT
STR = AttributeType.STR

#: Operation counters summed into the per-layer ``dra.*`` counts.
DRA_COUNTERS = (
    Metrics.TERMS_EVALUATED,
    Metrics.KERNEL_ROWS,
    Metrics.ROWS_SCANNED,
    Metrics.DELTA_ROWS_READ,
)

#: A cycle whose deliveries have not all been applied after this long
#: counts as a delivery timeout.
DELIVERY_TIMEOUT_S = 30.0

#: The shard pipe codec and worker, restored when a cluster workload
#: closes.
_PIPE_CODEC = (
    cluster_proc.encode_payload,
    cluster_proc.decode_payload,
    cluster_proc._shard_worker,
)


class DeliveryTimeout(Exception):
    """A refresh cycle's notifications were not all applied in time."""


# -- the stocks mutation stream ------------------------------------------------


class Deck:
    """Draws that visit every item once per shuffled pass.

    Sampling without replacement keeps how often each value is hit
    nearly the same from seed to seed, so a popular subscription is
    triggered about equally often in every run.
    """

    def __init__(self, rng: random.Random, items: Iterable):
        self.rng = rng
        self.items = list(items)
        self.pos = len(self.items)

    def draw(self):
        if self.pos == len(self.items):
            self.rng.shuffle(self.items)
            self.pos = 0
        self.pos += 1
        return self.items[self.pos - 1]


class StockStream:
    """Seeded small transactions over ``stocks(sid, name, price)``.

    Each transaction modifies, inserts, or deletes ``rows`` rows (80/10/10,
    so the table size stays stationary over a long run). The stream keeps
    its own model of the live ``sid`` set, so the operations it draws
    depend on the seed alone, never on the program under test.
    """

    def __init__(self, rng: random.Random, live: List[int], rows: int, domain):
        self.rng = rng
        self.live = list(live)
        self.next_sid = max(live) + 1
        self.rows = rows
        self.prices = Deck(rng, range(*domain))

    def next_txn(self) -> List[tuple]:
        rng = self.rng
        ops = []
        for __ in range(self.rows):
            roll = rng.random()
            if roll < 0.1:
                ops.append(("ins", self.next_sid, self.prices.draw()))
                self.live.append(self.next_sid)
                self.next_sid += 1
            elif roll < 0.2 and len(self.live) > 1:
                i = rng.randrange(len(self.live))
                self.live[i], self.live[-1] = self.live[-1], self.live[i]
                ops.append(("del", self.live.pop()))
            else:
                sid = self.live[rng.randrange(len(self.live))]
                ops.append(("mod", sid, self.prices.draw()))
        return ops


def commit_stock_txn(db, table, tids: Dict[int, object], ops) -> int:
    with db.begin() as txn:
        for op in ops:
            sid = op[1]
            if op[0] == "mod":
                txn.modify_in(table, tids[sid], (sid, f"S{sid}", op[2]))
            elif op[0] == "ins":
                tids[sid] = txn.insert_into(table, (sid, f"S{sid}", op[2]))
            else:
                txn.delete_from(table, tids.pop(sid))
    return len(ops)


def populate_stocks(db, table, rng, rows: int, domain) -> Dict[int, object]:
    """``rows`` stocks spread evenly over the price domain (shuffled), so
    every subscription template matches the same number of rows
    whatever the seed."""
    low, high = domain
    prices = [low + sid % (high - low) for sid in range(rows)]
    rng.shuffle(prices)
    with db.begin() as txn:
        return {
            sid: txn.insert_into(table, (sid, f"S{sid}", price))
            for sid, price in enumerate(prices)
        }


#: Stock prices. A domain of 100 values over 300 rows puts 3 rows on
#: each equality template's value, so even the most popular template is
#: triggered every few dozen mutations and its share of the work repeats
#: from seed to seed; intervals of 4 values match 12 rows.
PRICES = (0, 100)


#: Every run serves the same catalog of 100 templates (values and
#: intervals); the seed draws which template each subscriber picks.
#: Seeded catalogs put popular templates on overlapping values in some
#: runs and not others, which made the latency tail differ by seed.
TEMPLATE_SEED = 0

#: Zipf exponent of template popularity. At 1.1 the most popular
#: template holds 23% of the subscribers and is triggered by 2% of the
#: mutations, so the 99th latency percentile fell right at the edge of
#: those bursts and moved by half from run to run; at 0.6 it holds 7%
#: and the cost of a cycle has no such cliff.
SKEW = 0.6


def fanout_population(rng: random.Random, count: int) -> List[Tuple[str, str]]:
    """``(name, sql)`` pairs of a Zipf-skewed fan-out population."""
    workload = FanoutWorkload(
        n_templates=100,
        seed=TEMPLATE_SEED,
        skew=SKEW,
        domain=PRICES,
        eq_fraction=0.5,
        interval_width=4,
    )
    workload.rng.seed(rng.randrange(1 << 30))
    return [sub.pair for sub in workload.subscriptions(count)]


class _Workload:
    """Shared oracle plumbing: ``self.sql`` names every subscriber."""

    name = ""

    #: Rows each transaction of the mutation stream changes.
    ROWS_PER_TXN = 1

    def __init__(self, seed: int, workdir: str, shard_spans: Optional[str] = None):
        self.seed = seed
        self.workdir = workdir
        #: Directory shard processes write their spans to (traced runs
        #: of workloads that have shard processes).
        self.shard_spans = shard_spans
        self.rng = random.Random(seed)
        self.sql: Dict[str, str] = {}
        #: Deltas applied by subscribers so far.
        self.applied = 0
        #: Set to a :class:`cq_trace.SpanLog` while a phase is traced.
        self.log = None

    def subscribers(self) -> List[str]:
        return list(self.sql)

    def check(self, names: Iterable[str]) -> Tuple[int, int]:
        """``(checked, mismatches)`` against full re-evaluation."""
        truth: Dict[str, object] = {}
        checked = mismatches = 0
        for name in names:
            sql = self.sql[name]
            if sql not in truth:
                truth[sql] = self.database().query(sql)
            checked += 1
            if self.copy(name) != truth[sql]:
                mismatches += 1
        return checked, mismatches

    def wire_bytes(self) -> int:
        return 0

    def wal_bytes(self) -> int:
        return 0

    def host_work(self) -> Dict[int, int]:
        """Evaluation work per shard host (none outside a cluster)."""
        return {}


# -- cluster-fanout --------------------------------------------------------------


class ClusterFanout(_Workload):
    """A 2-shard, ``replicas=1`` cluster of process shards serving a
    partitioned ``stocks`` table to ~10k Zipf-skewed subscribers."""

    name = "cluster-fanout"
    SHARDS = 2
    BASE_ROWS = 300
    SUBSCRIBERS = 10_000

    def __init__(self, seed: int, workdir: str, shard_spans: Optional[str] = None):
        super().__init__(seed, workdir, shard_spans)
        self.router: Optional[ClusterRouter] = None
        self.copies = {}
        #: Router<->shard pipe bytes, both directions, counted at the
        #: router end (every frame is encoded or decoded there).
        self.pipe_bytes = 0

    def _encode(self, message):
        payload = codec.encode_payload(message)
        self.pipe_bytes += len(payload)
        return payload

    def _decode(self, payload):
        self.pipe_bytes += len(payload)
        return codec.decode_payload(payload)

    def setup(self) -> None:
        cluster_proc.encode_payload = self._encode
        cluster_proc.decode_payload = self._decode
        if self.shard_spans is not None:
            os.makedirs(self.shard_spans, exist_ok=True)
            cluster_proc._shard_worker = functools.partial(
                traced_shard_worker, self.shard_spans
            )
        self.router = router = ClusterRouter(
            shards=self.SHARDS,
            seed=0,
            replicas=1,
            backend=ProcessBackend(columnar=True),
        )
        router.declare_table(
            "stocks",
            [("sid", INT), ("name", STR), ("price", INT)],
            partition_key="sid",
            indexes=[("sid",)],
        )
        router.start()
        table = router.db.table("stocks")
        self.tids = populate_stocks(
            router.db, table, self.rng, self.BASE_ROWS, PRICES
        )
        self.stream = StockStream(
            self.rng, list(self.tids), self.ROWS_PER_TXN, PRICES
        )
        for name, sql in fanout_population(self.rng, self.SUBSCRIBERS):
            self.sql[name] = sql
            self.copies[name] = router.subscribe(
                name, "watch", sql, on_delta=functools.partial(self._on_delta, name)
            )
        self.refresh()

    def _on_delta(self, name, cq_name, delta, ts) -> None:
        if self.log is None:
            self.copies[name] = delta.apply_to(self.copies[name])
        else:
            with self.log.span("delta.apply"):
                self.copies[name] = delta.apply_to(self.copies[name])
        self.applied += 1

    def next_txn(self):
        return self.stream.next_txn()

    def commit(self, ops) -> int:
        db = self.router.db
        return commit_stock_txn(db, db.table("stocks"), self.tids, ops)

    def refresh(self) -> int:
        before = self.applied
        self.router.refresh()
        return self.applied - before

    def database(self):
        return self.router.db

    def copy(self, name):
        return self.copies[name]

    def wire_bytes(self) -> int:
        return self.pipe_bytes

    def counters(self) -> Dict[str, int]:
        stats = self.router.stats()
        out = dict(stats["router"])
        for name, value in stats["shard_totals"].items():
            out[name] = out.get(name, 0) + value
        return out

    def host_work(self) -> Dict[int, int]:
        """Per shard host: the evaluation work its stores reported."""
        return {
            host: sum(info["counters"].get(name, 0) for name in DRA_COUNTERS)
            for host, info in self.router.stats()["shards"].items()
        }

    def close(self) -> None:
        try:
            if self.router is not None:
                self.router.close()
        finally:
            (
                cluster_proc.encode_payload,
                cluster_proc.decode_payload,
                cluster_proc._shard_worker,
            ) = _PIPE_CODEC


# -- service-tcp -----------------------------------------------------------------


class ServiceTcp(_Workload):
    """A single-node fan-out ``CQService`` on loopback, two ``CQSession``
    clients with 500 DRA_DELTA push subscriptions each."""

    name = "service-tcp"
    CLIENTS = 2
    BASE_ROWS = 300
    SUBSCRIBERS = 1000

    def __init__(self, seed: int, workdir: str, shard_spans: Optional[str] = None):
        super().__init__(seed, workdir, shard_spans)
        self.loop = asyncio.new_event_loop()
        self.service: Optional[CQService] = None
        self.sessions: List[CQSession] = []
        self.owner: Dict[str, CQSession] = {}
        self.client_metrics = Metrics()

    def setup(self) -> None:
        self.db = db = Database()
        table = db.create_table(
            "stocks", [("sid", INT), ("name", STR), ("price", INT)],
            indexes=[("sid",)],
        )
        self.tids = populate_stocks(db, table, self.rng, self.BASE_ROWS, PRICES)
        self.stream = StockStream(
            self.rng, list(self.tids), self.ROWS_PER_TXN, PRICES
        )
        self.service = CQService(
            db, fanout=True, columnar=True, queue_limit=1 << 30
        )
        self.loop.run_until_complete(self._start())
        self.refresh()

    async def _start(self) -> None:
        host, port = await self.service.start()
        transport = TcpTransport(self.client_metrics)
        self.sessions = [
            CQSession(f"client{i}", host, port, transport=transport)
            for i in range(self.CLIENTS)
        ]
        for session in self.sessions:
            await session.connect()
        pending = []
        for i, (name, sql) in enumerate(fanout_population(self.rng, self.SUBSCRIBERS)):
            session = self.sessions[i % self.CLIENTS]
            self.sql[name] = sql
            self.owner[name] = session
            pending.append(session.register(name, sql))
        await asyncio.gather(*pending)

    def _applied_total(self) -> int:
        return sum(s.deltas_applied for s in self.sessions)

    async def _cycle(self) -> int:
        before = self._applied_total()
        sent = await self.service.refresh()
        target = before + sent
        deadline = self.loop.time() + DELIVERY_TIMEOUT_S
        while self._applied_total() < target:
            if self.loop.time() > deadline:
                raise DeliveryTimeout(
                    f"{target - self._applied_total()} of {sent} deltas unapplied"
                )
            await asyncio.sleep(0)
        return sent

    def next_txn(self):
        return self.stream.next_txn()

    def commit(self, ops) -> int:
        return commit_stock_txn(self.db, self.db.table("stocks"), self.tids, ops)

    def refresh(self) -> int:
        applied = self.loop.run_until_complete(self._cycle())
        self.applied += applied
        return applied

    def database(self):
        return self.db

    def copy(self, name):
        return self.owner[name].result(name)

    def client_faults(self) -> int:
        """Digest mismatches and unappliable deltas the clients saw."""
        return sum(s.digest_mismatches + s.stale_deltas for s in self.sessions)

    def wire_bytes(self) -> int:
        return self.service.metrics.get(Metrics.BYTES_ENCODED) + self.client_metrics.get(
            Metrics.BYTES_ENCODED
        )

    def counters(self) -> Dict[str, int]:
        return self.service.metrics.snapshot()

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self._stop())
        finally:
            self.loop.close()

    async def _stop(self) -> None:
        for session in self.sessions:
            await session.close()
        if self.service is not None:
            await self.service.stop()
        # Connection handlers and close waiters still pending on the
        # loop end here, so none outlives it.
        current = asyncio.current_task()
        while True:
            leftovers = [t for t in asyncio.all_tasks() if t is not current]
            if not leftovers:
                break
            for task in leftovers:
                task.cancel()
            await asyncio.gather(*leftovers, return_exceptions=True)


# -- join-wal --------------------------------------------------------------------


class JoinWal(_Workload):
    """Four-way star joins and grouped SUMs under modify-heavy
    transactions, journaled through a batch-fsync write-ahead log.

    Transactions are small (``ROWS_PER_TXN``) so the paced phase gets
    over 1000 commits at a rate the refresh keeps up with without
    batching; a saturated cycle batches 200 of them, 1000 rows per
    refresh.
    """

    name = "join-wal"
    ORDERS = 20_000
    JOINS = 8

    ROWS_PER_TXN = 5

    def __init__(self, seed: int, workdir: str, shard_spans: Optional[str] = None):
        super().__init__(seed, workdir, shard_spans)
        self.tmp: Optional[str] = None
        self.manager: Optional[CQManager] = None
        self.copies = {}

    def _order(self, oid: int) -> tuple:
        rng = self.rng
        return (
            oid,
            rng.randrange(2000),
            rng.randrange(500),
            rng.randrange(100),
            rng.randrange(1000),
        )

    def setup(self) -> None:
        rng = self.rng
        self.tmp = tempfile.mkdtemp(prefix="join-wal-", dir=self.workdir)
        self.db = db = Database()
        orders = db.create_table(
            "orders",
            [("oid", INT), ("cid", INT), ("pid", INT), ("sid", INT), ("amt", INT)],
        )
        customers = db.create_table("customers", [("cid", INT), ("seg", INT)])
        products = db.create_table("products", [("pid", INT), ("price", INT)])
        stores = db.create_table("stores", [("sid", INT), ("region", INT)])
        customers.insert_many([(c, rng.randrange(10)) for c in range(2000)])
        products.insert_many([(p, rng.randrange(1, 1000)) for p in range(500)])
        stores.insert_many([(s, rng.randrange(100)) for s in range(100)])
        rows = [self._order(oid) for oid in range(self.ORDERS)]
        self.tids = dict(zip(range(self.ORDERS), orders.insert_many(rows)))
        self.live = list(range(self.ORDERS))
        self.next_oid = self.ORDERS
        self.metrics = Metrics()
        self.wal = WriteAheadLog(
            os.path.join(self.tmp, "cq.wal"), fsync="batch", metrics=self.metrics
        )
        self.manager = manager = CQManager(
            db,
            strategy=EvaluationStrategy.PERIODIC,
            columnar=True,
            metrics=self.metrics,
            durability=self.wal,
        )
        # The seed permutes fixed selectivities over the CQs, so the
        # total evaluation work is the same for every seed.
        amounts = [100, 150, 200, 250, 300, 350, 400, 450]
        prices = [600, 650, 700, 750, 800, 850, 900, 950]
        regions = [60, 65, 70, 75, 80, 85, 90, 95]
        for seq in (amounts, prices, regions):
            rng.shuffle(seq)
        for i in range(self.JOINS):
            self.sql[f"join{i}"] = (
                "SELECT orders.oid, orders.amt, customers.seg, products.price, "
                "stores.region FROM orders, customers, products, stores "
                "WHERE orders.cid = customers.cid AND orders.pid = products.pid "
                f"AND orders.sid = stores.sid AND orders.amt > {amounts[i]} "
                f"AND products.price < {prices[i]} "
                f"AND stores.region < {regions[i]} "
                "AND customers.seg < products.price"
            )
        self.sql["sum_by_seg"] = (
            "SELECT customers.seg, SUM(orders.amt) AS total "
            "FROM orders, customers WHERE orders.cid = customers.cid "
            "AND orders.amt > 100 GROUP BY customers.seg"
        )
        self.sql["sum_by_region"] = (
            "SELECT stores.region, SUM(orders.amt) AS total "
            "FROM orders, stores WHERE orders.sid = stores.sid "
            "GROUP BY stores.region"
        )
        for name, sql in self.sql.items():
            cq = manager.register_sql(name, sql, on_notify=self._on_notify)
            self.copies[name] = cq.previous_result.copy()
        self.refresh()

    def _on_notify(self, note) -> None:
        if note.kind is not NotificationKind.REFRESH or note.delta is None:
            return
        if self.log is None:
            self.copies[note.cq_name] = note.delta.apply_to(self.copies[note.cq_name])
        else:
            with self.log.span("delta.apply"):
                self.copies[note.cq_name] = note.delta.apply_to(
                    self.copies[note.cq_name]
                )
        self.applied += 1

    def next_txn(self):
        """80% amount modifications, 10% inserts, 10% deletes."""
        rng = self.rng
        ops = []
        for __ in range(self.ROWS_PER_TXN):
            roll = rng.random()
            if roll < 0.1:
                ops.append(("ins", self._order(self.next_oid)))
                self.live.append(self.next_oid)
                self.next_oid += 1
            elif roll < 0.2:
                i = rng.randrange(len(self.live))
                self.live[i], self.live[-1] = self.live[-1], self.live[i]
                ops.append(("del", self.live.pop()))
            else:
                oid = self.live[rng.randrange(len(self.live))]
                ops.append(("mod", oid, rng.randrange(1000)))
        return ops

    def commit(self, ops) -> int:
        orders = self.db.table("orders")
        tids = self.tids
        with self.db.begin() as txn:
            for op in ops:
                if op[0] == "mod":
                    tid = tids[op[1]]
                    old = txn.read(orders, tid)
                    txn.modify_in(orders, tid, old[:4] + (op[2],))
                elif op[0] == "ins":
                    tids[op[1][0]] = txn.insert_into(orders, op[1])
                else:
                    txn.delete_from(orders, tids.pop(op[1]))
        return len(ops)

    def refresh(self) -> int:
        before = self.applied
        self.manager.poll()
        return self.applied - before

    def database(self):
        return self.db

    def copy(self, name):
        return self.copies[name]

    def wal_bytes(self) -> int:
        return os.path.getsize(self.wal.path)

    def counters(self) -> Dict[str, int]:
        return self.metrics.snapshot()

    def close(self) -> None:
        try:
            if self.manager is not None:
                self.wal.close()
        finally:
            if self.tmp is not None:
                shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ClusterFanout, ServiceTcp, JoinWal)}
