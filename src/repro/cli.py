"""The ``banks`` command-line interface.

Point it at any database and get keyword search, statistics, the
Figure 5 parameter sweep, or the Web front end — the CLI packaging of
the paper's "can be run on any schema without any programming".

Database specifiers (the ``DB`` argument)::

    demo:bibliography      the DBLP-like generated dataset (default sizes)
    demo:thesis            the IITB-thesis-like dataset
    demo:tpcd              the mini TPC-D dataset
    demo:university        the department-hub example
    synth:N[:SEED]         the DBLP-scale synthetic bibliography with N
                           papers (synth:0 = the empty schema, the base
                           an ingest job streams into)
    sqlite:/path/to/db     any sqlite3 database file
    csv:/path/to/dir       a directory of CSV files (one per table)

Commands::

    banks stats DB                     graph/index statistics
    banks search DB QUERY... [-k N]    ranked connection trees
    banks trace DB QUERY... [-k N]     one traced query: the span tree
                                       across every serving layer plus
                                       the kernel's SearchProfile
    banks sweep DB                     the Figure 5 lambda x EdgeLog grid
    banks serve DB [--port P]          one HTTP server: the browse and
                                       search pages plus the versioned
                                       JSON API with SSE streaming
                                       (/v1/query, /v1/query/stream,
                                       /v1/health, /metrics)
    banks client URL QUERY...          query a serve process; --stream
                                       prints each answer as the remote
                                       kernel finds it
    banks recover DB --wal PATH        replay a durable epoch log onto DB
                                       (--checkpoints DIR starts from the
                                       newest checkpoint, tail-only replay)
    banks checkpoint DB --wal PATH     persist a checkpoint of the WAL's
                                       recovered state and re-base the log
    banks ingest DB SOURCE             bulk-load a record stream into DB
                                       through the chunked, resumable
                                       pipeline (--wal makes the load
                                       durable; --resume picks a killed
                                       or failed job back up from its
                                       registry cursor)
    banks jobs --jobs-dir DIR          list ingest jobs and their states

``banks serve`` stands the deployment up through the cluster layer
(:mod:`repro.cluster`): the flags translate into one declarative
:class:`~repro.cluster.spec.ClusterSpec`, every conflicting
combination fails through its single validation path, and the
:class:`~repro.cluster.api.Cluster` facade owns composition and
lifecycle.  One asyncio server (:mod:`repro.net`) serves the browse
pages and the JSON API; searches from either dispatch through the
concurrent serving engine (:mod:`repro.serve`): a worker pool with
admission control, single-flight deduplication and a result cache,
with metrics exposed at ``/metrics``.  ``--check`` binds a free port,
fetches ``/v1/health``, ``/metrics``, ``/`` and the topology's pages
over a real socket, runs one keyword query (a token of the served rows)
through ``/v1/query`` and ``/v1/query/stream``, and exits (1 on any
non-200, an empty answer list or streamed answers that differ from the
result document's).  Tuning knobs:

    --workers N        worker threads executing searches (default 4)
    --queue-bound N    admitted-but-not-running requests before load
                       shedding kicks in (default 64; 0 = unbounded)
    --deadline SECS    fail requests that wait longer than this in the
                       queue (default: no deadline)
    --live             serve an IncrementalBANKS facade so ``/mutate``
                       can apply inserts/deletes/updates; snapshots
                       publish as O(delta) forks, one epoch each
                       (:mod:`repro.store`)
    --shards N         partition the data graph into N shards and serve
                       searches through the scatter-gather ShardRouter
                       (:mod:`repro.shard`); shard stats at ``/shards``;
                       ``/mutate`` routes deltas to the owning shard
    --shard-backend B  auto (default; process where fork exists, else
                       thread), thread, or process (forked workers, one
                       per shard — CPU scaling)
    --dispatch P       gather (exact scatter-gather, default) or route
                       (whole queries to one worker each — the
                       throughput policy; see repro.shard.router)
    --wal PATH         with --live: append every published mutation
                       epoch to a durable segmented log at PATH
                       (repro.store.wal); on startup, any epochs
                       already there are replayed first, so restarting
                       after a crash recovers the pre-crash state
    --wal-fsync M      WAL durability: always (default; fsync each
                       epoch), rotate (fsync on segment close), never
    --checkpoint-every N  with --live --wal (or --replicas): persist a
                       facade checkpoint every N epochs
                       (repro.ops.checkpoint), so restart recovery and
                       replica heal replay only the WAL tail
    --checkpoint-path  checkpoint directory (default:
                       ``<wal>/checkpoints``)
    --follow           with --wal: serve a *read-only follower* that
                       tails another process's WAL and stays caught up
                       by epoch (replica_lag_epochs on /metrics);
                       /mutate is refused — the primary owns the state
    --replicas N       run a replica set in one process: a WAL-writing
                       primary plus N WAL-following replicas behind a
                       load-balancing front end (status at /replicas;
                       conflicts with --shards)
    --max-lag N        staleness bound in epochs before a replica is
                       excluded from balancing (default 8)
    --replica-backend  thread, process (forked workers — read QPS
                       scales with cores) or auto
    --trace-sample S   trace sampling: always (default), off, slow
                       (keep only slow queries), or a rate in (0, 1]
                       (0.1 = one trace in ten); sampled traces are
                       browsable at /trace and /trace/<id>
    --slow-query-ms T  slow-query threshold in milliseconds (default
                       500); slow queries are always kept, logged, and
                       served as JSON at /debug/slow
    --trace-buffer N   traces retained in the ring buffer (default 256)
    --token T          accepted bearer token for every route but
                       /v1/health (repeatable; none = open server)
    --rate-limit QPS   per-client token-bucket admission on every route
                       but /v1/health, in front of the engine's own load
                       shedding
    --spec FILE        load the whole deployment from a ClusterSpec
                       JSON file (ClusterSpec.to_json) instead of flags
    --remote-replica U balance reads over the remote ``banks serve``
                       replica at URL U (repeatable; the front end reads
                       each replica's applied epoch from /v1/health)
    --remote-token T   bearer token presented to --remote-replica
                       servers

A primary/follower pair on one database::

    banks serve demo:bibliography --live --wal /tmp/banks-wal
    banks serve demo:bibliography --follow --wal /tmp/banks-wal --port 8001

A three-replica set in one process::

    banks serve demo:bibliography --replicas 3

Two networked followers behind one replicated front end::

    banks serve demo:bibliography --follow --wal /wal --port 8001
    banks serve demo:bibliography --follow --wal /wal --port 8002
    banks serve demo:bibliography --wal /wal \\
        --remote-replica http://127.0.0.1:8001 \\
        --remote-replica http://127.0.0.1:8002

``banks recover DB --wal PATH`` rebuilds the pre-crash facade by
replaying the WAL onto the base database DB (the runbook lives in
``docs/OPERATIONS.md``); ``--checkpoints DIR`` starts from the newest
valid checkpoint instead of the base snapshot (O(tail) recovery), and
``--query`` options search the recovered facade as a spot check.

``banks checkpoint DB --wal PATH`` recovers the WAL's current state
(checkpoint-aware) and persists it as a new checkpoint, re-basing the
log: once the manifest records the checkpoint epoch, WAL retention may
prune segments below it and recovery starts from the checkpoint.

Exit status: 0 on success, 1 on a usage or data error (message on
stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.core.banks import BANKS
from repro.errors import ReproError
from repro.relational.database import Database

_DEMOS = ("bibliography", "thesis", "tpcd", "university")


def load_database(spec: str) -> Database:
    """Resolve a ``DB`` specifier to a loaded database."""
    scheme, _, rest = spec.partition(":")
    if scheme == "demo":
        if rest == "bibliography":
            from repro.datasets import generate_bibliography

            return generate_bibliography()[0]
        if rest == "thesis":
            from repro.datasets import generate_thesis_db

            return generate_thesis_db()[0]
        if rest == "tpcd":
            from repro.datasets import generate_tpcd

            return generate_tpcd()[0]
        if rest == "university":
            from repro.datasets import generate_university

            return generate_university()[0]
        raise ReproError(
            f"unknown demo dataset {rest!r} (choose from {', '.join(_DEMOS)})"
        )
    if scheme == "synth":
        from repro.datasets import synth_bibliography

        papers, _, seed_text = rest.partition(":")
        try:
            n_papers = int(papers)
            seed = int(seed_text) if seed_text else 7
        except ValueError:
            raise ReproError(
                f"bad synthetic specifier {spec!r} (use synth:N[:SEED])"
            ) from None
        return synth_bibliography(n_papers, seed=seed)[0]
    if scheme == "sqlite":
        from repro.relational.sqlite_adapter import load_sqlite

        return load_sqlite(rest)
    if scheme == "csv":
        from repro.relational.csvio import load_from_csv_dir

        return load_from_csv_dir(rest)
    raise ReproError(
        f"unknown database specifier {spec!r} "
        "(use demo:NAME, synth:N, sqlite:PATH or csv:DIR)"
    )


def _command_stats(args: argparse.Namespace, out) -> int:
    database = load_database(args.db)
    start = time.perf_counter()
    banks = BANKS(database)
    elapsed = time.perf_counter() - start
    print(f"database     : {database.name}", file=out)
    for table in database.tables():
        print(
            f"  table {table.schema.name:<20} {len(table):>8} rows", file=out
        )
    print(f"graph nodes  : {banks.stats.num_nodes}", file=out)
    print(f"graph edges  : {banks.stats.num_edges}", file=out)
    print(f"index terms  : {len(banks.index)}", file=out)
    print(f"build time   : {elapsed:.2f} s", file=out)
    return 0


def _command_search(args: argparse.Namespace, out) -> int:
    database = load_database(args.db)
    banks = BANKS(database)
    query = " ".join(args.query)
    start = time.perf_counter()
    answers = banks.search(query, max_results=args.max_results)
    elapsed = time.perf_counter() - start
    if not answers:
        print("no answers", file=out)
        return 0
    for answer in answers:
        print(f"#{answer.rank + 1} relevance={answer.relevance:.4f}", file=out)
        print(answer.render(), file=out)
        print(file=out)
    print(
        f"{len(answers)} answer(s) in {1000 * elapsed:.0f} ms", file=out
    )
    return 0


def _command_trace(args: argparse.Namespace, out) -> int:
    """Run one query with tracing forced on and print the span tree.

    The deployment shape mirrors ``banks serve``: bare engine by
    default, ``--shards`` / ``--replicas`` stand up the same router /
    replica-set topologies — so the trace shows exactly the layers a
    server with those flags would cross.
    """
    from repro.cluster import Cluster, ClusterSpec, QueryRequest

    if args.shards:
        topology = "sharded"
    elif args.replicas:
        topology = "replicated"
    else:
        topology = "single"
    spec = ClusterSpec(
        topology=topology,
        shards=args.shards,
        replicas=args.replicas,
        shard_backend="thread",
        replica_backend="thread",
        trace_sample="always",
        slow_query_ms=args.slow_ms,
    )
    database = load_database(args.db)
    query = " ".join(args.query)
    with Cluster(spec, database=database) as cluster:
        result = cluster.query(QueryRequest(query, k=args.max_results))
    record = result.trace
    if record is None:  # pragma: no cover - defensive; sample="always"
        print("no trace recorded", file=out)
        return 1
    print(record.render(), file=out)
    print(
        f"{len(result.answers)} answer(s) via {result.served_by} "
        f"({len(record.spans)} spans)",
        file=out,
    )
    return 0


def _command_sweep(args: argparse.Namespace, out) -> int:
    if not args.db.startswith("demo:bibliography"):
        raise ReproError(
            "sweep needs the ground-truth workload: use demo:bibliography"
        )
    from repro.datasets import generate_bibliography
    from repro.eval.sweep import figure5_sweep, format_figure5
    from repro.eval.workload import bibliography_workload

    database, anecdotes = generate_bibliography()
    banks = BANKS(database)
    workload = bibliography_workload(anecdotes)
    points = figure5_sweep(banks, workload)
    print(format_figure5(points), file=out)
    best = min(points, key=lambda p: p.scaled_error)
    print(f"best setting: {best.label()} (error {best.scaled_error:.1f})", file=out)
    return 0


def _serve_mode(cluster) -> str:
    """One human line describing the deployment, from the spec."""
    spec = cluster.spec
    if spec.topology == "sharded":
        return (
            f"{spec.shards} shards, {cluster.backend.backend} backend, "
            f"{spec.dispatch} dispatch"
        )
    if spec.replicated:
        return (
            f"{spec.replica_count}-replica set "
            f"({cluster.backend.backend} backend)"
        )
    if spec.follow:
        return f"read-only follower tailing {spec.wal_path}"
    mode = f"{spec.workers} workers, queue bound {spec.queue_bound}"
    if spec.wal_path:
        mode += f", WAL at {spec.wal_path} ({spec.wal_fsync} fsync)"
    return mode


def _probe_term(database: Database) -> str:
    """A keyword the served rows hold: the first token of the first
    indexed text value, so the query probes must find an answer."""
    from repro.text.inverted_index import _key_columns
    from repro.text.tokenizer import tokenize

    for table in database.tables():
        schema = table.schema
        keys = _key_columns(schema)
        positions = [
            schema.column_position(column.name)
            for column in schema.text_columns()
            if column.name not in keys
        ]
        for row in table.scan():
            for position in positions:
                tokens = tokenize(row.values[position] or "")
                if tokens:
                    return tokens[0]
    raise ReproError(f"{database.name} holds no indexed text to query")


def _self_check(server, cluster, token: Optional[str], out) -> int:
    """``banks serve --check``: fetch the API probes and the topology's
    pages from the bound server over a real socket, then run one keyword
    query through ``/v1/query`` and ``/v1/query/stream``; 1 on any
    non-200, a query without answers, or a stream whose answers are not
    the result document's."""
    from repro.core.oracle import same_up_to_ties
    from repro.errors import NetError
    from repro.net import BanksClient

    spec = cluster.spec
    probes = ["/v1/health", "/metrics", "/", "/trace", "/debug/slow"]
    if spec.topology == "sharded":
        probes.append("/shards")
    if spec.replicated:
        probes.append("/replicas")
    if not spec.read_only:
        probes.append("/mutate")
    client = BanksClient(server.url, token=token)
    for probe in probes:
        try:
            client.get(probe)
            status = 200
        except NetError as error:
            status = error.status or str(error)
        print(f"self-check: GET {probe} -> {status}", file=out)
        if status != 200:
            return 1
    term = _probe_term(cluster.database)

    def signature(answers):
        return [(tuple(a["root"]), a["relevance"]) for a in answers]

    try:
        document = client.query(term, k=5)
        events = list(client.query_stream(term, k=5))
    except NetError as error:
        status = error.status or str(error)
        print(f"self-check: POST query {term!r} -> {status}", file=out)
        return 1
    answers = signature(document["answers"])
    print(
        f"self-check: POST /v1/query {term!r} -> 200, "
        f"{len(answers)} answer(s)",
        file=out,
    )
    streamed = signature(data for name, data in events if name == "answer")
    results = [data for name, data in events if name == "result"]
    agrees = (
        len(results) == 1
        and same_up_to_ties(streamed, signature(results[0]["answers"]))
        and same_up_to_ties(streamed, answers)
    )
    print(
        f"self-check: POST /v1/query/stream {term!r} -> "
        f"{len(streamed)} answer event(s), "
        f"{'equal to' if agrees else 'DIFFERENT from'} the result",
        file=out,
    )
    return 0 if answers and agrees else 1


def _command_serve(args: argparse.Namespace, out) -> int:
    from repro.cluster import Cluster, ClusterSpec
    from repro.net import HttpServer, NetConfig

    # One validation path: every conflicting flag combination fails
    # here, with the same message a programmatic caller would get.
    if getattr(args, "spec", None):
        spec = ClusterSpec.from_json_file(args.spec)
        db_spec = args.db or spec.db
        if not db_spec:
            raise ReproError(
                f"spec file {args.spec!r} names no database; give the DB "
                "argument or put a 'db' specifier in the spec"
            )
    else:
        if not args.db:
            raise ReproError(
                "the DB argument is required without --spec FILE"
            )
        db_spec = args.db
        spec = ClusterSpec.from_serve_args(args)
    database = load_database(db_spec)
    cluster = Cluster(spec, database=database)
    try:
        if cluster.recovered_epochs:
            print(
                f"recovered {cluster.recovered_epochs} epoch(s) from "
                f"{spec.wal_path}",
                file=out,
            )
        if cluster.follower is not None:
            print(
                f"replica caught up: {cluster.follower.epochs_applied} "
                f"epoch(s) applied, lag {cluster.follower.lag_epochs()}",
                file=out,
            )
        tokens = tuple(args.tokens or ())
        config = NetConfig(
            host=args.host,
            port=0 if args.check else args.port,
            tokens=tokens,
            rate=args.rate_limit,
        )
        server = HttpServer(cluster, config)
        if args.check:
            server.start_background()
            try:
                token = tokens[0] if tokens else None
                return _self_check(server, cluster, token, out)
            finally:
                server.stop()
        cluster.start()
        admission = "token auth" if tokens else "open"
        if config.rate:
            admission += f", {config.rate:g} req/s per client"
        print(
            f"serving {database.name} on http://{args.host}:{args.port}/ "
            f"({_serve_mode(cluster)}; {admission})",
            file=out,
        )
        server.serve_forever()
        print("shutting down", file=out)
        return 0
    finally:
        cluster.close()


def _command_recover(args: argparse.Namespace, out) -> int:
    import os

    from repro.core.incremental import IncrementalBANKS
    from repro.ops.checkpoint import CheckpointManager

    if args.checkpoints and not os.path.isdir(args.checkpoints):
        # A mistyped path must not degrade silently to full replay.
        raise ReproError(f"no checkpoint directory at {args.checkpoints}")
    manager = CheckpointManager(args.checkpoints) if args.checkpoints else None
    database = load_database(args.db)
    start = time.perf_counter()
    facade = IncrementalBANKS.recover(database, args.wal, checkpoints=manager)
    elapsed = time.perf_counter() - start
    facade._refresh_stats()
    print(f"base database : {database.name} ({args.db})", file=out)
    print(f"wal           : {args.wal}", file=out)
    if manager is not None:
        print(
            f"checkpoints   : {args.checkpoints} "
            f"(manifest epoch {manager.manifest_epoch()})",
            file=out,
        )
        for path, reason in manager.skipped:
            print(f"skipped       : {path} ({reason})", file=out)
    print(f"recovered to  : epoch {facade.applied_epoch}", file=out)
    print(
        f"graph         : {facade.stats.num_nodes} nodes, "
        f"{facade.stats.num_edges} edges",
        file=out,
    )
    print(f"replay time   : {elapsed:.2f} s", file=out)
    for query in args.queries or ():
        answers = facade.search(query, max_results=args.max_results)
        if answers:
            best = answers[0]
            print(
                f"query {query!r}: {len(answers)} answer(s), best "
                f"{facade.node_label(best.tree.root)} "
                f"(relevance {best.relevance:.4f})",
                file=out,
            )
        else:
            print(f"query {query!r}: no answers", file=out)
    return 0


def _command_checkpoint(args: argparse.Namespace, out) -> int:
    from repro.core.incremental import IncrementalBANKS
    from repro.ops.checkpoint import CheckpointManager
    from repro.serve.snapshot import checkpoint_dir

    database = load_database(args.db)
    # One checkpoint now: the directory a store checkpointing every
    # epoch would use.
    manager = CheckpointManager(
        checkpoint_dir(args.wal, 1, args.checkpoints), keep=args.keep
    )
    start = time.perf_counter()
    facade = IncrementalBANKS.recover(
        database, args.wal, checkpoints=manager
    )
    recovered = time.perf_counter() - start
    if not facade.applied_epoch:
        print(f"wal {args.wal} holds no epochs; nothing to checkpoint",
              file=out)
        return 0
    previous = manager.manifest_epoch()
    if previous == facade.applied_epoch:
        print(
            f"checkpoint at epoch {previous} is already current "
            f"({manager.path})",
            file=out,
        )
        return 0
    record = manager.checkpoint(facade, epoch=facade.applied_epoch)
    print(f"wal           : {args.wal}", file=out)
    print(
        f"recovered to  : epoch {facade.applied_epoch} "
        f"({recovered:.2f} s)",
        file=out,
    )
    print(
        f"checkpoint    : {record.path} ({record.size_bytes} bytes, "
        f"{record.seconds * 1000.0:.1f} ms)",
        file=out,
    )
    print(
        f"log re-based  : retention may prune below epoch "
        f"{record.epoch}; kept epochs {manager.checkpoint_epochs()}",
        file=out,
    )
    return 0


def _command_ingest(args: argparse.Namespace, out) -> int:
    import os

    from repro.ingest import (
        IngestJob,
        IngestPipeline,
        JobRegistry,
        StoreTarget,
        open_source,
    )
    from repro.serve.snapshot import SnapshotStore

    if args.resume and not args.wal:
        raise ReproError(
            "--resume rebuilds the pre-crash state from the WAL the "
            "original run wrote: pass the same --wal"
        )
    source = open_source(args.source)
    jobs_dir = args.jobs_dir or (
        os.path.join(args.wal, "jobs") if args.wal else "ingest-jobs"
    )
    registry = JobRegistry(jobs_dir)
    if args.resume:
        job = registry.load(args.job_id)
        if job.source != source.name:
            raise ReproError(
                f"job {job.job_id!r} was started over {job.source!r}, "
                f"not {source.name!r}; resume must replay the same stream"
            )
    else:
        job = registry.create(
            IngestJob(
                args.job_id, source.name, args.db, chunk_size=args.chunk
            )
        )
    # Resumed or not, a run continues the state its WAL recovers to:
    # epochs derived from the bare base would be numbered after the
    # log's and make it unrecoverable.
    store = SnapshotStore.open(lambda: load_database(args.db), args.wal)
    pipeline = IngestPipeline(registry, StoreTarget(store))
    start = time.perf_counter()
    try:
        job = pipeline.run(job, source, resume=args.resume)
    finally:
        store.close()
    elapsed = time.perf_counter() - start
    current = store.current().facade
    current._refresh_stats()
    print(f"job           : {job.job_id} ({job.state})", file=out)
    print(f"source        : {job.source}", file=out)
    print(
        f"committed     : {job.records_committed} records in "
        f"{job.chunks_committed} chunk(s) of {job.chunk_size}",
        file=out,
    )
    print(
        f"this run      : {elapsed:.2f} s "
        f"({job.records_committed / max(elapsed, 1e-9):.0f} records/s "
        "cumulative)",
        file=out,
    )
    print(f"store epoch   : {store.epoch}", file=out)
    print(
        f"graph         : {current.stats.num_nodes} nodes, "
        f"{current.stats.num_edges} edges",
        file=out,
    )
    if args.wal:
        print(f"wal           : {args.wal}", file=out)
    print(f"job registry  : {jobs_dir}", file=out)
    return 0


def _command_jobs(args: argparse.Namespace, out) -> int:
    from repro.ingest import JobRegistry

    registry = JobRegistry(args.jobs_dir)
    jobs = registry.jobs()
    if not jobs:
        print(f"no jobs in {registry.path}", file=out)
        return 0
    for job in jobs:
        line = (
            f"{job.job_id:<24} {job.state:<8} "
            f"{job.records_committed:>10} records "
            f"{job.chunks_committed:>7} chunks  "
            f"base_epoch={job.base_epoch}"
        )
        if job.error:
            line += f"  error: {job.error}"
        print(line, file=out)
    return 0


def _command_client(args: argparse.Namespace, out) -> int:
    from repro.net import BanksClient

    client = BanksClient(args.url, token=args.token)
    query = " ".join(args.query)
    if args.stream:
        started = time.perf_counter()
        count = 0
        for event, data in client.query_stream(
            query,
            k=args.max_results,
            offset=args.offset,
            consistency=args.consistency,
            staleness_bound=args.staleness_bound,
            trace_id=args.trace_id,
        ):
            elapsed_ms = 1000 * (time.perf_counter() - started)
            if event == "answer":
                count += 1
                table, row = data["root"]
                print(
                    f"[{elapsed_ms:7.1f} ms] #{data['rank'] + 1} "
                    f"{table}:{row}  relevance {data['relevance']:.6f}",
                    file=out,
                )
            elif event == "error":
                print(f"error: {data['error']}", file=sys.stderr)
                return 1
            else:
                print(
                    f"[{elapsed_ms:7.1f} ms] done: {count} of "
                    f"{data['total']} answers via {data['served_by']} "
                    f"(epoch {data['epoch']}, "
                    f"server {data['latency_ms']:.1f} ms)",
                    file=out,
                )
        return 0
    document = client.query(
        query,
        k=args.max_results,
        offset=args.offset,
        consistency=args.consistency,
        staleness_bound=args.staleness_bound,
        trace_id=args.trace_id,
    )
    for answer in document["answers"]:
        table, row = answer["root"]
        print(
            f"#{answer['rank'] + 1} {table}:{row}  "
            f"relevance {answer['relevance']:.6f}",
            file=out,
        )
    print(
        f"{len(document['answers'])} of {document['total']} answers via "
        f"{document['served_by']} (epoch {document['epoch']}, "
        f"{document['latency_ms']:.1f} ms)",
        file=out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banks",
        description="BANKS: keyword searching and browsing in databases",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="graph and index statistics")
    stats.add_argument("db", help="database specifier (see module docs)")
    stats.set_defaults(run=_command_stats)

    search = commands.add_parser("search", help="keyword search")
    search.add_argument("db")
    search.add_argument("query", nargs="+", help="search keywords")
    search.add_argument(
        "-k", "--max-results", type=int, default=10, dest="max_results"
    )
    search.set_defaults(run=_command_search)

    trace = commands.add_parser(
        "trace",
        help="run one traced query and print its span tree + profile",
    )
    trace.add_argument("db")
    trace.add_argument("query", nargs="+", help="search keywords")
    trace.add_argument(
        "-k", "--max-results", type=int, default=10, dest="max_results"
    )
    trace.add_argument(
        "--shards",
        type=int,
        default=0,
        help="trace through a shard router (0 = unsharded)",
    )
    trace.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="trace through a replica set (0 = unreplicated)",
    )
    trace.add_argument(
        "--slow-ms",
        type=float,
        default=500.0,
        dest="slow_ms",
        help="slow-query threshold for the SLOW marker",
    )
    trace.set_defaults(run=_command_trace)

    sweep = commands.add_parser("sweep", help="Figure 5 parameter sweep")
    sweep.add_argument("db")
    sweep.set_defaults(run=_command_sweep)

    serve = commands.add_parser(
        "serve", help="run the HTTP server: browse pages + JSON API"
    )
    serve.add_argument(
        "db", nargs="?", default=None, help="database specifier (optional "
        "with --spec FILE naming one)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000)
    serve.add_argument(
        "--check",
        action="store_true",
        help="bind a free port, fetch /v1/health, /metrics, / and the "
        "topology's pages over a real socket, and exit (1 on any non-200)",
    )
    serve.add_argument(
        "--token",
        action="append",
        dest="tokens",
        metavar="TOKEN",
        help="accepted bearer token for every route but /v1/health "
        "(repeatable; none = open server)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        dest="rate_limit",
        metavar="QPS",
        help="per-client sustained requests/second on every route but "
        "/v1/health (0 = unlimited); engine admission control still "
        "applies",
    )
    serve.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="load the whole deployment from a ClusterSpec JSON file "
        "(written by ClusterSpec.to_json) instead of flags",
    )
    serve.add_argument(
        "--remote-replica",
        action="append",
        dest="remote_replicas",
        metavar="URL",
        help="balance reads over this remote 'banks serve' "
        "replica (repeatable; conflicts with --replicas)",
    )
    serve.add_argument(
        "--remote-token",
        default=None,
        dest="remote_token",
        metavar="TOKEN",
        help="bearer token the front end presents to --remote-replica "
        "servers",
    )
    serve.add_argument(
        "--workers", type=int, default=None, help="engine worker threads"
    )
    serve.add_argument(
        "--queue-bound",
        type=int,
        default=None,
        dest="queue_bound",
        help="request queue bound before shedding (0 = unbounded)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request queueing deadline in seconds",
    )
    serve.add_argument(
        "--live",
        action="store_true",
        default=None,
        help="serve a mutable facade: /mutate applies inserts, deletes "
        "and updates through the snapshot store",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=None,
        help="partition the data graph and serve through the shard "
        "router (0 = unsharded)",
    )
    serve.add_argument(
        "--shard-backend",
        choices=("thread", "process", "auto"),
        default=None,
        dest="shard_backend",
        help="shard worker backend (process = one forked worker per "
        "shard; needs fork)",
    )
    serve.add_argument(
        "--dispatch",
        choices=("gather", "route"),
        default=None,
        help="shard dispatch policy: exact scatter-gather, or whole "
        "queries routed to one worker each (throughput)",
    )
    serve.add_argument(
        "--wal",
        default=None,
        metavar="PATH",
        help="with --live: durable epoch-log directory (recovers any "
        "epochs already there on startup); with --follow: the "
        "primary's log to tail",
    )
    serve.add_argument(
        "--wal-fsync",
        choices=("always", "rotate", "never"),
        default=None,
        dest="wal_fsync",
        help="WAL durability policy (always = fsync each epoch)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        dest="checkpoint_every",
        metavar="N",
        help="with --live --wal (or --replicas): persist a facade "
        "checkpoint every N epochs so restart recovery and replica "
        "heal replay only the WAL tail (0 = off)",
    )
    serve.add_argument(
        "--checkpoint-path",
        default=None,
        dest="checkpoint_path",
        metavar="PATH",
        help="checkpoint directory (default: <wal>/checkpoints)",
    )
    serve.add_argument(
        "--follow",
        action="store_true",
        default=None,
        help="serve a read-only follower that tails --wal PATH (an "
        "external primary's log) and stays caught up by epoch",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=None,
        help="run a replica set: one WAL-writing primary plus N "
        "WAL-following replicas behind a load-balancing front end "
        "(status at /replicas; 0 = unreplicated)",
    )
    serve.add_argument(
        "--max-lag",
        type=int,
        default=None,
        dest="max_lag",
        help="staleness bound in epochs: a replica lagging the WAL by "
        "more is excluded from balancing until it catches up",
    )
    serve.add_argument(
        "--replica-backend",
        choices=("thread", "process", "auto"),
        default=None,
        dest="replica_backend",
        help="replica worker backend (process = one forked worker per "
        "replica — read QPS scales with cores; needs fork)",
    )
    serve.add_argument(
        "--trace-sample",
        default=None,
        dest="trace_sample",
        metavar="S",
        help="trace sampling: always (default), off, slow, or a rate "
        "in (0, 1]; traces are browsable at /trace",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        dest="slow_query_ms",
        metavar="T",
        help="slow-query threshold in ms (default 500); slow queries "
        "are always traced, logged, and served at /debug/slow",
    )
    serve.add_argument(
        "--trace-buffer",
        type=int,
        default=None,
        dest="trace_buffer",
        metavar="N",
        help="traces retained in the ring buffer (default 256)",
    )
    serve.set_defaults(run=_command_serve)

    recover = commands.add_parser(
        "recover",
        help="replay a durable epoch log onto the base database",
    )
    recover.add_argument("db", help="the base snapshot (pre-WAL state)")
    recover.add_argument(
        "--wal", required=True, metavar="PATH", help="epoch-log directory"
    )
    recover.add_argument(
        "--checkpoints",
        default=None,
        metavar="PATH",
        help="checkpoint directory: recovery starts from the newest "
        "valid checkpoint there and replays only the WAL tail",
    )
    recover.add_argument(
        "--query",
        action="append",
        dest="queries",
        metavar="QUERY",
        help="spot-check query against the recovered facade (repeatable)",
    )
    recover.add_argument(
        "-k", "--max-results", type=int, default=5, dest="max_results"
    )
    recover.set_defaults(run=_command_recover)

    checkpoint = commands.add_parser(
        "checkpoint",
        help="persist a checkpoint of a WAL's recovered state and "
        "re-base the log",
    )
    checkpoint.add_argument("db", help="the base snapshot (pre-WAL state)")
    checkpoint.add_argument(
        "--wal", required=True, metavar="PATH", help="epoch-log directory"
    )
    checkpoint.add_argument(
        "--checkpoints",
        default=None,
        metavar="PATH",
        help="checkpoint directory (default: <wal>/checkpoints)",
    )
    checkpoint.add_argument(
        "--keep",
        type=int,
        default=2,
        help="checkpoints retained on disk (older ones are pruned)",
    )
    checkpoint.set_defaults(run=_command_checkpoint)

    ingest = commands.add_parser(
        "ingest",
        help="bulk-load a record stream through the resumable pipeline",
    )
    ingest.add_argument("db", help="base database specifier (e.g. synth:0)")
    ingest.add_argument(
        "source",
        help="record source: jsonl:PATH, csv:PATH or synth:N[:SEED]",
    )
    ingest.add_argument(
        "--chunk", type=int, default=1000,
        help="records per committed chunk (default 1000; fixed per job)",
    )
    ingest.add_argument(
        "--job-id", default="ingest",
        help="job identifier in the registry (default: ingest)",
    )
    ingest.add_argument(
        "--jobs-dir", default=None,
        help="job registry directory (default: <wal>/jobs with --wal, "
        "else ./ingest-jobs)",
    )
    ingest.add_argument(
        "--wal", default=None,
        help="append every published chunk epoch to a durable WAL at "
        "this path (required for --resume)",
    )
    ingest.add_argument(
        "--resume", action="store_true",
        help="recover the pre-crash state from --wal and continue the "
        "job from its registry cursor",
    )
    ingest.set_defaults(run=_command_ingest)

    jobs = commands.add_parser(
        "jobs", help="list ingest jobs and their states"
    )
    jobs.add_argument(
        "--jobs-dir", default="ingest-jobs",
        help="job registry directory (default: ./ingest-jobs)",
    )
    jobs.set_defaults(run=_command_jobs)

    client = commands.add_parser(
        "client",
        help="query a 'banks serve' server (add --stream to "
        "watch answers arrive)",
    )
    client.add_argument("url", help="server base URL, e.g. http://127.0.0.1:8000")
    client.add_argument("query", nargs="+", help="keyword query")
    client.add_argument(
        "-k", "--max-results", type=int, default=5, dest="max_results"
    )
    client.add_argument("--offset", type=int, default=0)
    client.add_argument("--token", default=None, help="bearer token")
    client.add_argument(
        "--consistency",
        default="eventual",
        help="consistency level (eventual, read_your_writes, "
        "bounded_staleness, monotonic_reads, primary)",
    )
    client.add_argument(
        "--staleness-bound",
        type=int,
        default=None,
        dest="staleness_bound",
        metavar="EPOCHS",
        help="with --consistency bounded_staleness: per-request lag "
        "ceiling in epochs",
    )
    client.add_argument(
        "--stream",
        action="store_true",
        help="use /v1/query/stream: print each answer as the remote "
        "kernel finds it",
    )
    client.add_argument(
        "--trace-id",
        default=None,
        dest="trace_id",
        metavar="ID",
        help="correlation id to send as X-Trace-Id",
    )
    client.set_defaults(run=_command_client)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit status."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.run(args, out)
        out.flush()
        return status
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (``banks search ... | head``).  Point
        # stdout at /dev/null so the interpreter's final flush of what
        # is still buffered cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
