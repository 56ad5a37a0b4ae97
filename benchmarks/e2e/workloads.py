"""The four workloads: what is built, what runs, what is counted.

Each workload stresses different layers (``BENCHMARK.json`` says why
each is here; README.md has the prediction table):

``point_http``      the whole read path over loopback HTTP, with repeats
``broad_inproc``    hundreds of lanes and no expansion, caches bypassed
``mixed_rw``        WAL'd writes and reads by turns on one live store
``gather_sharded``  two forked shards behind the scatter-gather router

A workload object owns its generated inputs and the system under test.
``build`` is what ``setup_s`` times; ``timed`` is the untraced run the
end-to-end metrics come from; ``replay`` runs single operations one at
a time for the traced run.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import shutil
import threading
from time import perf_counter, sleep
from typing import Any, Dict, List, Optional, Sequence, Tuple

import queries
import verify
from stats import children_peak_rss_mb, median, percentile

#: Open-loop latency limit: a request slower than this (from its due
#: time), or failed, misses the SLO.
OPEN_SLO_S = 2.0


def _scaled(count: int, factor: float, floor: int) -> int:
    return max(floor, round(count * factor))


class Workload:
    """Shared skeleton; subclasses fill in the system and the ops."""

    name = ""
    #: Operations per replay pass at full scale.
    trace_ops = 40
    #: The shim span that covers one whole read at the entry point.
    entry_span = "cluster.query"
    #: Whether the replay holds writes (so the write path is traced too).
    has_writes = False
    #: Whether the read-time metrics are taken over the host slowdown
    #: (``stats.HostProbe``): true where the time is the interpreter's.
    probed = True

    def __init__(self, records, seed: int, factor: float, workdir: str,
                 nproc: int, probe):
        self.records = records
        self.rng = random.Random(seed)
        self.factor = factor
        self.workdir = workdir
        self.nproc = nproc
        #: The run's ``stats.HostProbe``, sampled before every read.
        self.probe = probe
        self.cluster: Any = None
        self.database: Any = None
        self.load_s: List[float] = []
        self.vocabulary = queries.Vocabulary(self.served_records())
        #: Queries used only to warm up (never timed, never verified).
        self.warm_queries: List[str] = []
        #: The timed reads, in issue order.
        self.reads: List[str] = []
        #: ``(sent, acked)`` of each write of the mixed phase (``mixed_rw`` only).
        self.write_intervals: List[Tuple[float, float]] = []

    # -- inputs -----------------------------------------------------------

    def served_records(self):
        """The records the built system holds when ``build`` returns."""
        return self.records

    def checked_queries(self) -> List[str]:
        """The 16 distinct queries verified against the oracle."""
        return list(dict.fromkeys(self.reads))[:16]

    # -- lifecycle --------------------------------------------------------

    def load(self):
        started = perf_counter()
        database = queries.load_database(self.served_records())
        self.load_s.append(perf_counter() - started)
        return database

    def build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None
        self.database = None

    def resolver(self):
        """Whatever resolves a query to its matching node sets."""
        return self.cluster.banks

    def guard(self) -> None:
        """The lane-budget guard: no generated query may resolve to more
        than ``LANE_BUDGET`` matching nodes, and every term must match."""
        resolver = self.resolver()
        for query in itertools.chain(self.warm_queries, set(self.reads)):
            sizes = [len(nodes) for nodes in resolver.resolve(query)]
            if not sizes or min(sizes) < 1 or sum(sizes) > queries.LANE_BUDGET:
                raise SystemExit(
                    f"{self.name}: query {query!r} resolves to {sizes} nodes "
                    f"(budget {queries.LANE_BUDGET}, every term must match)"
                )

    def prepare(self) -> Dict[str, float]:
        """Untimed work between ``build`` and warm-up (``mixed_rw``
        ingests here); returns measurements of it."""
        return {}

    def warm(self) -> None:
        for index, query in enumerate(self.warm_queries):
            self.read(query, streamed=index % 2 == 1)

    # -- operations -------------------------------------------------------

    def read(self, query: str, streamed: bool = False) -> Tuple[float, float, Any]:
        """One read through the workload's entry point: ``(latency s,
        time to first answer s, served signature)``."""
        raise NotImplementedError

    def timed(self) -> Dict[str, Any]:
        """The untraced measured phase: one caller, closed loop."""
        return self.closed_loop([(query, True) for query in self.reads])

    def closed_loop(self, requests: List[Tuple[str, bool]]) -> Dict[str, Any]:
        """Issue ``(query, streamed)`` requests one after the other.
        The host probes between them are not part of ``wall``."""
        latencies, ttfas, failed = [], [], 0
        mark = len(self.probe.samples)
        started = perf_counter()
        for query, streamed in requests:
            self.probe.sample()
            try:
                latency, ttfa, _served = self.read(query, streamed)
            except Exception:
                failed += 1
                continue
            latencies.append(latency)
            if streamed:
                ttfas.append(ttfa)
        wall = perf_counter() - started - sum(self.probe.samples[mark:])
        return {
            "latencies": latencies, "ttfas": ttfas, "failed": failed,
            "attempted": len(requests), "wall": wall,
        }

    def replay_reads(self) -> List[Tuple[str, bool]]:
        """``(query, streamed)`` of the traced replay: the first
        ``trace_ops`` timed reads."""
        count = min(len(self.reads), _scaled(self.trace_ops, self.factor, 6))
        return [(query, True) for query in self.reads[:count]]

    def replay_ops(self, number: int) -> List[Tuple[str, Any]]:
        """``(kind, callable)`` per operation of replay pass ``number``
        (0-3); kind is ``"read"``, ``"stream"`` (a read whose first
        answer is timed apart) or ``"write"``.  Every pass runs the same
        reads; a workload whose writes cannot be repeated uses its
        ``number``-th batch."""
        return [
            ("stream" if streamed else "read",
             functools.partial(self.read, query, streamed))
            for query, streamed in self.replay_reads()
        ]

    # -- the traced run's workload-specific parts -------------------------

    def extra_phases(self) -> Dict[str, float]:
        """Untraced phases only this workload has: their per-layer
        metrics, plus ``_attempted`` / ``_failed`` counts."""
        return {}

    def baseline(self, first_pass: List[tuple]) -> Dict[str, float]:
        """Metrics comparing the first (untraced) replay pass with
        another way of serving the same reads."""
        return {}

    def state_metrics(self) -> Dict[str, float]:
        """Metrics read off the system's state after the replay."""
        return {}

    def reset_caches(self) -> None:
        """Forget served results so a second replay of the same reads
        does the same work as the first."""
        invalidate = getattr(self.cluster.banks, "invalidate", None)
        if invalidate is not None:
            invalidate()

    # -- checks -----------------------------------------------------------

    def mismatches(self, oracle, cluster=None) -> int:
        """How many verification queries, served through the entry
        point, differ from the oracle's answers."""
        extra = {} if cluster is None else {"cluster": cluster}
        return sum(
            not verify.same(
                self.read(query, **extra)[2],
                verify.signature(oracle.search(query, max_results=queries.K)),
            )
            for query in self.checked_queries()
        )

    def check(self, crash: bool) -> Dict[str, float]:
        """The answer check: ``checked`` and ``failed`` counts, plus
        workload-specific findings.  ``crash`` asks a workload with a
        write path to crash, recover and check durability too."""
        return {
            "checked": len(self.checked_queries()),
            "failed": self.mismatches(verify.reference(self.database)),
        }


# -- point_http ------------------------------------------------------------


class PointHttp(Workload):
    name = "point_http"
    entry_span = "net.client"
    closed_requests = 220
    open_requests = 100
    open_rate = 10.0  # requests / s
    #: Every ``stream_every``-th request goes over /v1/query/stream
    #: (80 streamed requests under the ttfa median, not 40).
    stream_every = 2

    def __init__(self, *args):
        super().__init__(*args)
        authors = self.vocabulary.authors
        self.warm_queries = queries.point_queries(self.rng, authors, 8)
        self.reads = queries.request_stream(
            self.rng, authors, _scaled(self.closed_requests, self.factor, 16)
        )
        self.open_stream = queries.request_stream(
            self.rng, authors, _scaled(self.open_requests, self.factor, 10)
        )
        #: Open-phase connections (never more than the box has cores).
        self.connections = max(1, min(2, self.nproc))
        self.server: Any = None
        self.client: Any = None

    def build(self) -> None:
        from repro.cluster import Cluster, ClusterSpec
        from repro.net.client import BanksClient
        from repro.net.server import HttpServer, NetConfig

        self.database = self.load()
        self.cluster = Cluster(ClusterSpec(topology="single"), self.database)
        self.cluster.start()
        self.server = HttpServer(self.cluster, NetConfig()).start_background()
        self.client = BanksClient(self.server.url)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        super().close()

    def read(self, query, streamed=False, client=None):
        client = client or self.client
        started = perf_counter()
        if not streamed:
            document = client.query(query, k=queries.K)
            latency = perf_counter() - started
            return latency, latency, verify.wire_signature(document)
        first = None
        document = None
        for event, data in client.query_stream(query, k=queries.K):
            if event == "answer" and first is None:
                first = perf_counter() - started
            elif event == "result":
                document = data
            elif event == "error":
                raise RuntimeError(data.get("error", "stream error"))
        latency = perf_counter() - started
        if document is None:
            raise RuntimeError("stream ended without a result event")
        return latency, first if first is not None else latency, verify.wire_signature(document)

    def _streams(self, position: int) -> bool:
        return position % self.stream_every == self.stream_every - 1

    def replay_reads(self):
        # At least 16, so that a smoke run's replay holds repeats too.
        count = min(len(self.reads), _scaled(self.trace_ops, self.factor, 16))
        return [(q, self._streams(i)) for i, q in enumerate(self.reads[:count])]

    def timed(self):
        """Phase *closed*: one connection, each request sent when the
        previous reply is complete.  (Two closed-loop connections were
        tried: sharing one GIL, what a request costs then depends on
        what it happens to run beside, and ``query_p50_ms`` spread 18-20
        % across ten seeds against 8 % for one seed repeated.  Requests
        that overlap are the open phase's subject.)"""
        return self.closed_loop(
            [(q, self._streams(i)) for i, q in enumerate(self.reads)])

    def extra_phases(self) -> Dict[str, float]:
        """Phase *open*: request ``i`` is due at ``i / rate`` whatever the
        server does; latency runs from the due time, so a stall charges
        every request it delays."""
        total = len(self.open_stream)
        due = [index / self.open_rate for index in range(total)]
        sent: List[float] = [0.0] * total
        done: List[Optional[float]] = [None] * total
        positions = itertools.count()
        lock = threading.Lock()
        origin = perf_counter() + 0.05

        from repro.net.client import BanksClient

        def worker():
            client = BanksClient(self.server.url)
            while True:
                with lock:
                    position = next(positions)
                if position >= total:
                    return
                wait = origin + due[position] - perf_counter()
                if wait > 0:
                    sleep(wait)
                sent[position] = perf_counter() - origin
                try:
                    self.read(self.open_stream[position], False, client)
                except Exception:
                    continue
                done[position] = perf_counter() - origin

        threads = [
            threading.Thread(target=worker) for _ in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        latencies = [
            end - due[i] if end is not None else float("inf")
            for i, end in enumerate(done)
        ]
        finished = [value for value in latencies if value != float("inf")]
        backlog = max(
            sum(
                1 for j in range(total)
                if due[j] <= sent[i] and (done[j] is None or done[j] > sent[i])
            )
            for i in range(total)
        )
        return {
            "open_p50_ms": 1e3 * median(finished),
            "open_p90_ms": 1e3 * percentile(finished, 90),
            "net.open.late_p90_ms": 1e3 * percentile(
                [sent[i] - due[i] for i in range(total)], 90),
            "net.open.backlog_max": backlog,
            "net.open.slo_miss_share": sum(v > OPEN_SLO_S for v in latencies) / total,
            "_failed": total - len(finished), "_attempted": total,
        }


# -- broad_inproc ----------------------------------------------------------


class BroadInproc(Workload):
    name = "broad_inproc"
    entry_span = "cluster.stream"
    distinct_queries = 35
    trace_ops = 12
    # Its time goes to page faults on fresh per-lane arrays, which the
    # probe does not make: over the probe, ten seeds spread 0.11-0.23
    # (three sets of runs); wall-clock, 0.02-0.11.
    probed = False

    def __init__(self, *args):
        super().__init__(*args)
        names = self.vocabulary.names
        wanted = min(_scaled(self.distinct_queries, self.factor, 8), len(names) - 2)
        drawn = queries.solo_queries(self.rng, names, wanted + 2)
        self.warm_queries, self.reads = drawn[:2], drawn[2:]

    def build(self) -> None:
        from repro.cluster import Cluster, ClusterSpec

        self.database = self.load()
        # One caller, so one engine worker: each extra worker thread is
        # one more malloc arena that must first-touch ~1 GB of per-lane
        # arrays (3 s each in this sandbox) before timings settle, and
        # holds it afterwards (3.4 GB resident with the default four).
        self.cluster = Cluster(
            ClusterSpec(topology="single", workers=1), self.database
        )
        self.cluster.start()

    def read(self, query, streamed=False):
        from repro.cluster import QueryRequest

        started = perf_counter()
        first = result = None
        for kind, payload in self.cluster.query_stream(
            QueryRequest(query, k=queries.K)
        ):
            if kind == "answer" and first is None:
                first = perf_counter() - started
            elif kind == "result":
                result = payload
        latency = perf_counter() - started
        return latency, first if first is not None else latency, verify.signature(result.answers)


# -- gather_sharded --------------------------------------------------------


class GatherSharded(Workload):
    name = "gather_sharded"
    distinct_queries = 120
    shards = 2

    def __init__(self, *args):
        super().__init__(*args)
        authors = self.vocabulary.authors
        self.warm_queries = queries.point_queries(self.rng, authors, 4)
        self.reads = queries.point_queries(
            self.rng, authors, _scaled(self.distinct_queries, self.factor, 16)
        )
        self.last_result: Any = None
        #: The ``QueryResult`` of every read of the latest replay.
        self.replayed_results: List[Any] = []

    def replay_ops(self, number):
        self.replayed_results = []

        def run(query):
            value = self.read(query)
            self.replayed_results.append(self.last_result)
            return value

        return [
            ("read", functools.partial(run, query))
            for query, _streamed in self.replay_reads()
        ]

    def build(self) -> None:
        from repro.cluster import Cluster, ClusterSpec

        self.database = self.load()
        self.cluster = Cluster(
            ClusterSpec(
                topology="sharded", shards=self.shards, dispatch="gather",
                shard_backend="process",
            ),
            self.database,
        )
        self.cluster.start()

    def resolver(self):
        return self.cluster.backend

    def baseline(self, first_pass):
        """The same reads on one unsharded engine, to price the fan-out."""
        from repro.core.banks import BANKS
        from repro.obs import SearchProfile

        single = BANKS(self.database)
        ratios, single_pops, gather_pops = [], 0, 0
        for (query, _streamed), (_op, _kind, wall, _value), result in zip(
            self.replay_reads(), first_pass, self.replayed_results
        ):
            profile = SearchProfile()
            started = perf_counter()
            single.search(query, max_results=queries.K, profile=profile)
            ratios.append(wall / (perf_counter() - started))
            single_pops += profile.heap_pops
            gather_pops += result.profile.heap_pops
        return {
            "shard.wall_over_single_p50": median(ratios),
            "shard.fanout_pops_ratio": gather_pops / single_pops,
        }

    def state_metrics(self):
        return {"shard.child_rss_mb": children_peak_rss_mb()}

    def checked_queries(self):
        # Each costs a gather read, an oracle search and a tree-by-tree
        # validation; eight keep this workload's run inside its share
        # of the driver's time.
        return self.reads[:8]

    def read(self, query, streamed=False):
        from repro.cluster import QueryRequest

        started = perf_counter()
        self.last_result = self.cluster.query(QueryRequest(query, k=queries.K))
        latency = perf_counter() - started
        # Forked shard workers cannot stream across their pipes: every
        # answer arrives with the last one, so time to first answer is
        # the full latency by construction.
        return latency, latency, verify.signature(self.last_result.answers)

    def check(self, crash):
        oracle = verify.reference(self.database)
        failed = mismatched = missed = 0
        checked = self.checked_queries()
        for query in checked:
            _latency, _ttfa, served = self.read(query)
            answers = self.last_result.answers
            wanted = oracle.search(query, max_results=queries.K)
            failed += not verify.valid_answers(oracle, query, answers)
            mismatched += not verify.same(served, verify.signature(wanted))
            missed += verify.misses_better(wanted, answers, queries.K)
        return {
            "checked": len(checked), "failed": failed,
            "parity_mismatch": mismatched, "missed_better": missed,
        }


# -- mixed_rw --------------------------------------------------------------


class MixedRw(Workload):
    name = "mixed_rw"
    n_papers = 19500
    base_papers = 18500
    writes = 72
    #: Queries held back from the mixed phase and verified after it
    #: (each costs a read and an oracle search on top of the 5.5 s the
    #: oracle's own build takes; eight keep the run inside its share of
    #: the driver's time).
    verified = 8
    checkpoint_every = 25
    chunk_size = 1000
    trace_ops = 12  # per replay pass: alternating write, read
    has_writes = True

    def __init__(self, records, seed, factor, workdir, nproc, probe, base_count: int):
        self.base_count = base_count
        super().__init__(records, seed, factor, workdir, nproc, probe)
        authors = self.vocabulary.authors
        self.warm_queries = queries.point_queries(self.rng, authors, 8)
        write_count = _scaled(self.writes, factor, 10)
        batch = _scaled(self.trace_ops, factor, 8) // 2
        # Reads: the verified ones, then one per write of the mixed phase.
        self.reads = queries.point_queries(
            self.rng, authors, self.verified + write_count)
        self.ops = queries.write_ops(self.rng, self.records, write_count + 4 * batch)
        self.mixed_writes = range(write_count)
        #: One batch of writes per replay pass (writes cannot repeat).
        self.batches = [
            range(write_count + n * batch, write_count + (n + 1) * batch)
            for n in range(4)
        ]
        self.rids: Dict[int, Any] = {}
        self.acked: List[int] = []
        self.wal_path = ""
        self._builds = 0

    def served_records(self):
        return self.records[: self.base_count]

    def spec(self):
        from repro.cluster import ClusterSpec

        return ClusterSpec(
            topology="single", live=True, wal_path=self.wal_path,
            wal_fsync="always", checkpoint_every=self.checkpoint_every,
        )

    def build(self) -> None:
        from repro.cluster import Cluster

        self._builds += 1
        self.wal_path = os.path.join(self.workdir, f"wal-{self._builds}")
        self.database = self.load()
        self.cluster = Cluster(self.spec(), self.database)
        self.cluster.start()

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.wal_path, ignore_errors=True)

    def checked_queries(self):
        return self.reads[: self.verified]

    def prepare(self):
        """Phase *ingest*: the records past the base, through the
        chunked pipeline into the live store (one epoch per chunk)."""
        from repro.ingest.jobs import IngestJob, JobRegistry
        from repro.ingest.pipeline import IngestPipeline, StoreTarget
        from repro.ingest.sources import GeneratorSource

        rest = self.records[self.base_count:]
        registry = JobRegistry(os.path.join(self.wal_path, "jobs"))
        job = registry.create(
            IngestJob("bench", "bench:rest", "bench:base", chunk_size=self.chunk_size)
        )
        started = perf_counter()
        IngestPipeline(registry, StoreTarget(self.cluster.engine.snapshots)).run(
            job, GeneratorSource(lambda: rest, name="bench:rest")
        )
        wall = perf_counter() - started
        return {"ingest_records": len(rest), "ingest_wall": wall}

    def read(self, query, streamed=False, cluster=None):
        from repro.cluster import QueryRequest

        first: List[float] = []
        started = perf_counter()
        result = (cluster or self.cluster).query(
            QueryRequest(query, k=queries.K),
            on_answer=lambda _a: first or first.append(perf_counter() - started),
        )
        latency = perf_counter() - started
        return latency, first[0] if first else latency, verify.signature(result.answers)

    def write(self, position: int) -> None:
        verify.apply_write(self.cluster, self.ops[position], self.rids, position)
        self.acked.append(position)

    def timed(self):
        """Phase *mixed*: one caller, closed loop, a write then a read
        until the write list is done; ``wall`` holds the writes, so
        write cost comes out of ``throughput_qps``.  (A writer thread
        beside a reader thread was the first design: sharing one GIL,
        what a read costs then depends on how much of it the writer's
        fsyncs happen to free, and ``query_p50_ms`` spread 0.14-0.25
        across ten runs against 0.05-0.11 now; README.md, *mixed_rw:
        why one caller and not two threads*.)"""
        write_intervals: List[Tuple[float, float]] = []  # (sent, acked)
        latencies, ttfas, failed = [], [], 0
        mark = len(self.probe.samples)
        started = perf_counter()
        # The verified reads come first; start past them, so a recovered
        # store is checked on queries it never served.
        for position, query in zip(self.mixed_writes, self.reads[self.verified:]):
            sent = perf_counter()
            try:
                self.write(position)
            except Exception:
                failed += 1
            else:
                write_intervals.append((sent, perf_counter()))
            self.probe.sample()
            try:
                latency, ttfa, _ = self.read(query)
            except Exception:
                failed += 1
                continue
            latencies.append(latency)
            ttfas.append(ttfa)
        wall = perf_counter() - started - sum(self.probe.samples[mark:])
        self.write_intervals = write_intervals
        return {
            "latencies": latencies, "ttfas": ttfas, "failed": failed,
            "attempted": 2 * len(self.mixed_writes), "wall": wall,
        }

    def extra_phases(self):
        """Phase *mixed*, for the write latencies."""
        mixed = self.timed()
        writes = [acked - sent for sent, acked in self.write_intervals]
        return {
            "write_p50_ms": 1e3 * median(writes),
            "write_p80_ms": 1e3 * percentile(writes, 80),
            "_failed": mixed["failed"], "_attempted": mixed["attempted"],
        }

    def state_metrics(self):
        graph = self.cluster.engine.snapshots.current().facade.graph
        return {"graph.overlay_nodes_end": graph.overlay_nodes}

    def replay_reads(self):
        count = len(self.batches[0])
        return [(query, False)
                for query in self.reads[self.verified : self.verified + count]]

    def replay_ops(self, number):
        ops = []
        for position, (query, _streamed) in zip(
            self.batches[number], self.replay_reads()
        ):
            ops.append(("write", functools.partial(self.write, position)))
            ops.append(("read", functools.partial(self.read, query)))
        return ops

    def final_database(self):
        """The rows every acked operation leaves: base + ingested +
        acked writes, applied in ack order to a fresh database."""
        database = queries.load_database(self.records)
        rids: Dict[int, Any] = {}
        for position in self.acked:
            verify.apply_write(database, self.ops[position], rids, position)
        if rids != {p: self.rids[p] for p in rids}:
            raise SystemExit("mixed_rw: reference rows got different RIDs")
        return database

    def check(self, crash):
        """Answers against the oracle built from the final rows, and
        every acked write present.  Untraced runs check the live
        cluster.  Traced runs (``crash``) run phase *recover* first and
        check what comes back: the serving cluster is abandoned
        un-closed (kept referenced, so no finaliser flushes what an ack
        did not) and a new one is opened over the same WAL directory;
        ``recover_s`` runs from there to its first answer."""
        from repro.cluster import Cluster

        found: Dict[str, float] = {}
        served = self.cluster
        if crash:
            base = queries.load_database(self.served_records())
            started = perf_counter()
            served = Cluster(self.spec(), base)
            self.read(self.reads[0], cluster=served)
            found["recover_s"] = perf_counter() - started
            manager = served.engine.snapshots.checkpoints
            found["replayed_epochs"] = (
                served.recovered_epochs - manager.manifest_epoch())
        try:
            oracle = verify.reference(self.final_database())
            rows = served.engine.snapshots.current().facade.database
            failed = self.mismatches(oracle, served) + verify.lost_writes(
                rows, self.ops, self.acked, self.rids)
        finally:
            if crash:
                served.close()
        found.update(checked=self.verified + len(self.acked), failed=failed)
        return found


WORKLOADS = {
    cls.name: cls for cls in (PointHttp, BroadInproc, MixedRw, GatherSharded)
}
