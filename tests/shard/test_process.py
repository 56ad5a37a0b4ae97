"""Forked shard-worker tests (skipped where fork is unavailable)."""

from __future__ import annotations

import pytest

from repro.core.oracle import same_up_to_ties
from repro.errors import ShardError
from repro.shard import ShardRouter, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)


@pytest.fixture(scope="module")
def university_db():
    from repro.datasets import generate_university

    database, _ = generate_university()
    return database


def test_process_backend_matches_thread_backend(university_db):
    queries = ("alice bob", "seminar rare")
    with ShardRouter(
        university_db, shards=3, backend="thread"
    ) as thread_router:
        expected = {q: thread_router.search(q, max_results=5) for q in queries}
    with ShardRouter(
        university_db, shards=3, backend="process"
    ) as process_router:
        assert process_router.backend == "process"
        for worker in process_router._workers:
            assert worker.alive
        for q in queries:
            assert same_up_to_ties(
                process_router.search(q, max_results=5), expected[q]
            )


def test_auto_backend_prefers_processes(university_db):
    with ShardRouter(university_db, shards=2, backend="auto") as router:
        assert router.backend == "process"
        assert router.search("alice bob", max_results=3)


def test_dead_worker_raises_shard_error(university_db):
    with ShardRouter(
        university_db, shards=2, backend="process"
    ) as router:
        victim = router._workers[0]
        victim._process.terminate()
        victim._process.join(5)
        with pytest.raises(ShardError) as excinfo:
            router.search("alice bob", max_results=3)
        # No chained pipe error: its frames would keep the pickled
        # request alive in the cycle the caught error forms.
        assert excinfo.value.__context__ is None


def test_stop_is_idempotent_and_kills_workers(university_db):
    router = ShardRouter(university_db, shards=2, backend="process")
    workers = list(router._workers)
    router.stop()
    router.stop()
    for worker in workers:
        assert not worker.alive


def test_failed_fork_stops_the_workers_already_forked(
    university_db, monkeypatch
):
    """If forking shard k fails, the workers of shards 0..k-1 are
    stopped before the error propagates: no router exists to own them."""
    import repro.shard.router as router_module

    forked = []

    class FailingSecondFork(router_module.ProcessShardWorker):
        def __init__(self, searcher):
            if forked:
                raise OSError(11, "Resource temporarily unavailable")
            super().__init__(searcher)
            forked.append(self)

    monkeypatch.setattr(router_module, "ProcessShardWorker", FailingSecondFork)
    with pytest.raises(OSError):
        ShardRouter(university_db, shards=3, backend="process")
    assert len(forked) == 1
    assert not forked[0]._process.is_alive()
