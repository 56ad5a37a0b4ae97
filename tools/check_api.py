"""Public-API surface gate: names must neither vanish nor leak.

The intended public surface of the serving stack — the ``__all__``
exports of ``repro.cluster``, ``repro.ops``, ``repro.serve``,
``repro.shard``, ``repro.store`` and friends — is snapshotted below.  CI fails when:

* a **public name disappears** — it is in the snapshot but missing
  from the module's ``__all__`` (or no longer resolves): a breaking
  change shipped without the deliberate snapshot edit that documents
  it;
* a **private name leaks** — ``__all__`` contains a name the snapshot
  does not (new surface must be added here on purpose, in the same
  commit), an underscore-prefixed name, or a name that does not
  actually exist on the module;
* a **public-looking definition is undeclared** — a class or function
  living in the package namespace, defined under ``repro`` and not
  underscore-prefixed, is absent from ``__all__`` (exports happen on
  purpose or not at all).

Growing the API is one edit in two places (the ``__init__.py`` and
this snapshot), which is exactly the point: the diff says "this PR
changes the public surface".

Usage::

    python tools/check_api.py

Exit status 0 when clean, 1 with one line per violation.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path
from typing import Dict, List, Tuple

#: The intended public surface, module by module.  Edit deliberately.
PUBLIC_API: Dict[str, Tuple[str, ...]] = {
    "repro.cluster": (
        "CONSISTENCY_LEVELS",
        "Cluster",
        "ClusterSpec",
        "QueryRequest",
        "QueryResult",
        "ReplicaAnswer",
        "ReplicaSet",
        "TOPOLOGIES",
    ),
    "repro.net": (
        "BanksClient",
        "HttpServer",
        "NetConfig",
        "RateLimiter",
        "RemoteReplica",
        "TokenAuth",
        "WIRE_VERSION",
        "WireQuery",
        "decode_request",
        "encode_answer",
        "encode_result",
        "serve_http",
        "sse_event",
        "tree_from_wire",
        "tree_to_wire",
    ),
    "repro.obs": (
        "EventLog",
        "Observability",
        "SearchProfile",
        "Span",
        "Trace",
        "TraceRecord",
        "TraceStore",
        "parse_sample",
        "render_trace_tree",
        "span_tree",
    ),
    "repro.ops": (
        "CHECKPOINT_STEPS",
        "CheckpointManager",
        "CheckpointRecord",
        "FaultInjected",
        "FaultInjector",
        "REBALANCE_STEPS",
        "RebalanceMove",
        "RebalancePlan",
        "drain_plan",
        "plan_rebalance",
    ),
    "repro.ingest": (
        "CsvSource",
        "GeneratorSource",
        "INGEST_STEPS",
        "IngestJob",
        "IngestPipeline",
        "JOB_STATES",
        "JobRegistry",
        "JsonLinesSource",
        "RouterTarget",
        "Source",
        "StoreTarget",
        "dump_jsonl",
        "open_source",
    ),
    "repro.graph.csr": (
        "CSRGraph",
        "CSROverlayGraph",
        "freeze_graph",
    ),
    "repro.serve": (
        "EngineConfig",
        "Histogram",
        "MetricsRegistry",
        "QueryEngine",
        "QueryOutcome",
        "SingleFlight",
        "Snapshot",
        "SnapshotStore",
        "WorkerPool",
    ),
    "repro.shard": (
        "GraphPartitioner",
        "Partition",
        "ProcessShardWorker",
        "ProcessWorkerProxy",
        "ShardAnswer",
        "ShardRouter",
        "ShardSearcher",
        "fork_available",
        "graphs_equal",
        "hash_strategy",
        "stats_of",
    ),
    "repro.store": (
        "Delta",
        "Epoch",
        "ReplicaFollower",
        "WalReader",
        "WalWriter",
        "apply_graph_delta",
        "checkpoint_floor",
        "derive_delete",
        "derive_insert",
        "derive_insert_dict",
        "derive_update",
        "replay_delta",
    ),
}


def _ensure_importable() -> None:
    """Put the repo's ``src`` on the path, wherever we're run from."""
    src = Path(__file__).resolve().parents[1] / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))


def check_module(name: str, expected: Tuple[str, ...]) -> List[str]:
    """Every surface violation in one module, as messages."""
    problems: List[str] = []
    try:
        module = importlib.import_module(name)
    except Exception as error:  # pragma: no cover - import crash
        return [f"{name}: import failed ({type(error).__name__}: {error})"]
    declared = getattr(module, "__all__", None)
    if declared is None:
        return [f"{name}: has no __all__ (the public surface is undeclared)"]
    declared_set = set(declared)

    for public in expected:
        if public not in declared_set:
            problems.append(
                f"{name}: public name {public!r} disappeared from __all__ "
                "(breaking change — update tools/check_api.py deliberately "
                "if intended)"
            )
        elif not hasattr(module, public):
            problems.append(
                f"{name}: __all__ exports {public!r} but the module does "
                "not define it"
            )
    for exported in sorted(declared_set - set(expected)):
        problems.append(
            f"{name}: {exported!r} leaked into __all__ without a "
            "tools/check_api.py snapshot update"
        )
    for exported in sorted(declared_set):
        if exported.startswith("_"):
            problems.append(
                f"{name}: private name {exported!r} is exported by __all__"
            )
        elif not hasattr(module, exported):
            problems.append(
                f"{name}: __all__ exports {exported!r} but the module does "
                "not define it"
            )

    # Public-looking definitions must be declared: a class/function in
    # the package namespace, defined under repro, not underscore-
    # prefixed, either rides __all__ or gets renamed/underscored.
    for attribute, value in vars(module).items():
        if attribute.startswith("_") or attribute in declared_set:
            continue
        if isinstance(value, types.ModuleType):
            continue  # submodules are navigation, not surface
        defined_in = getattr(value, "__module__", "")
        if isinstance(defined_in, str) and defined_in.startswith("repro"):
            if isinstance(value, type) or callable(value):
                problems.append(
                    f"{name}: {attribute!r} is public-looking "
                    f"(defined in {defined_in}) but not in __all__"
                )
    return problems


def main(argv=None) -> int:
    _ensure_importable()
    failures: List[str] = []
    for module_name, expected in sorted(PUBLIC_API.items()):
        failures.extend(check_module(module_name, expected))
    if failures:
        print("public API surface violations:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    total = sum(len(names) for names in PUBLIC_API.values())
    print(
        f"public API surface intact: {total} names across "
        f"{len(PUBLIC_API)} modules"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
