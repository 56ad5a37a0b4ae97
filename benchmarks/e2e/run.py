"""The end-to-end benchmark: one command, four workloads, every metric.

One run (what the driver calls)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

builds ``synth:19500`` (107,005 nodes), sets the workload's system up
three times (``setup_s`` is the median), warms it up, measures, checks
the answers, and prints one JSON object as the last line of stdout:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics (``BENCHMARK.json`` lists both).  ``--seconds``
sizes the operation counts (``run_seconds`` in ``BENCHMARK.json`` is the
calibrated default); a run executes a fixed, seed-generated operation
list, so two commits are measured on identical inputs.

A whole set (what a person calls)::

    python3 benchmarks/e2e/run.py --seed N [--workload W] [--rounds R] [--smoke] [--out FILE]

(no ``--trace``) runs every workload ``R`` times untraced and once traced, each run in
a fresh subprocess, prints the median and min-max of every metric and
writes the set to ``FILE`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SETUP_REPS = 3
#: A round whose before/after spin calibrations differ by more than
#: this is marked noisy (and repeated, at most twice, in set mode).
NOISE_LIMIT = 0.10


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spin_ms() -> float:
    """A fixed pure-Python loop: the host's speed right now."""
    started = perf_counter()
    total = 0
    for value in range(400_000):
        total += value * value % 7
    return 1e3 * (perf_counter() - started)


def make_workload(name: str, seed: int, seconds: float, smoke: bool, workdir: str,
                  probe):
    import queries
    from workloads import WORKLOADS, MixedRw

    factor = seconds / 10.0 * (0.1 if smoke else 1.0)
    n_papers = 400 if smoke else MixedRw.n_papers
    records = queries.synth_records(n_papers)
    args = [records, seed, factor, workdir, os.cpu_count() or 1, probe]
    if name == "mixed_rw":
        base_papers = n_papers * MixedRw.base_papers // MixedRw.n_papers
        args.append(len(queries.synth_records(base_papers)))
    return WORKLOADS[name](*args)


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """One workload, one process, one result line; returns the exit code."""
    import layers
    import stats
    import trace as tracing

    # Collector control: automatic cycle collection is off in this
    # process -- and in the shard workers forked from it, which inherit
    # the setting -- from here to the end; the run collects explicitly
    # between set-ups and before measuring.  With it on, collections
    # land on whichever operation is running: one point query in four
    # carries a 150 ms pass over the graph, one gather read in three a
    # 250 ms pass in a shard worker, and mixed_rw (on its first,
    # two-thread phase) read 96-161 ms p50 for one seed from run to run
    # (62-69 ms with it off).  README.md
    # records what the collector costs.
    gc.disable()
    began = perf_counter()
    declared = spec()
    workdir = os.path.join(ROOT, ".bench_build", f"e2e-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = tracing.Tracer()
    keep = tracing.install_background_shims(tracer) if trace else 0
    probe = stats.HostProbe()
    workload = make_workload(name, seed, seconds, smoke, workdir, probe)
    extra = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke}
    phases = extra["phase_s"] = {"inputs": perf_counter() - began}

    def phase(label: str) -> None:
        phases[label] = perf_counter() - began - sum(phases.values())

    try:
        spin_before = spin_ms()
        setups, graph_build, graph_freeze = [], [], []
        for rep in range(SETUP_REPS):
            mark = len(tracer.spans)
            started = perf_counter()
            workload.build()
            setups.append(perf_counter() - started)
            graph_build.append(tracing.span_of(tracer.spans[mark:], "graph.build"))
            graph_freeze.append(tracing.span_of(tracer.spans[mark:], "graph.freeze"))
            if rep < SETUP_REPS - 1:
                workload.close()
                gc.collect()
        rss_ready = stats.rss_now_mb()
        phase("setup")
        workload.guard()
        prepared = workload.prepare()
        workload.warm()
        gc.collect()
        phase("warm")

        if trace:
            metrics = layers.diagnose(workload, tracer, keep)
            attempted = metrics.pop("_attempted", 0)
            failed = metrics.pop("_failed", 0)
        else:
            timed = workload.timed()
            attempted, failed = timed["attempted"], timed["failed"]
        peak = stats.peak_rss_mb() + stats.children_peak_rss_mb()
        slowdown = probe.slowdown()
        applied = slowdown if workload.probed else 1.0
        phase("measure")

        checks = workload.check(crash=trace)
        phase("check")
        attempted += checks["checked"]
        failed += checks["failed"]
        spin_after = spin_ms()
        extra.update({
            "spin_ms_before": spin_before, "spin_ms_after": spin_after,
            "host_slowdown": slowdown, "slowdown_applied": applied,
        })

        if trace:
            metrics.update({
                "relational.load_s": statistics.median(workload.load_s[:SETUP_REPS]),
                "graph.build_s": statistics.median(graph_build),
                "graph.freeze_s": statistics.median(graph_freeze),
                "graph.rss_after_build_mb": rss_ready,
                "shard.parity_mismatch": checks.get("parity_mismatch", 0),
                "shard.missed_better": checks.get("missed_better", 0),
                "failed_share": failed / attempted,
                "host.spin_ms_before": spin_before,
                "host.spin_ms_after": spin_after,
                "host.slowdown": slowdown,
            })
            if "ingest_wall" in prepared:
                metrics["ingest_records_per_s"] = (
                    prepared["ingest_records"] / prepared["ingest_wall"])
            if "recover_s" in checks:
                metrics["recover_s"] = checks["recover_s"]
                replay_s = sum(tracer.durations("store.replay", ops_only=False))
                metrics["store.replay_epochs_per_s"] = (
                    checks["replayed_epochs"] / replay_s if replay_s else 0.0)
            tracer.dump(os.path.join(ROOT, ".bench_build", f"trace_{name}.jsonl"))
            wanted = declared["per_layer"]
        else:
            # Read times as on the quiet box: over the host slowdown
            # probed between the reads (``stats.HostProbe``), where the
            # workload's time is of the probe's kind.  A set-up is one
            # long call with nothing to probe between.
            latencies = timed["latencies"]
            metrics = {
                "setup_s": statistics.median(setups),
                "query_p50_ms": 1e3 * stats.median(latencies) / applied,
                "query_p75_ms": 1e3 * stats.percentile(latencies, 75) / applied,
                "throughput_qps": len(latencies) / timed["wall"] * applied,
                "ttfa_p50_ms": 1e3 * stats.median(timed["ttfas"]) / applied,
                "peak_rss_mb": peak,
            }
            extra.update({
                "reads": len(latencies), "wall_s": timed["wall"],
                "setup_reps_s": setups,
            })
            wanted = declared["end_to_end"]
        extra.update({k: v for k, v in checks.items() if k != "failed"})
    finally:
        tracer.uninstall()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    unknown = set(metrics) - {m["name"] for m in wanted}
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
            for m in wanted
        },
    }
    for metric, body in result["metrics"].items():
        print(f"{name:15s} {metric:32s} {body['value']:14.4f} {body['unit']}")
    print("EXTRA " + json.dumps(extra))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# -- a whole set -------------------------------------------------------------


def child(name: str, seed: int, seconds: float, trace: int, smoke: bool):
    """Run one workload in a fresh subprocess; returns (result, extra)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{name}: run exited with {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("EXTRA "):])


def run_set(seed: int, seconds: float, rounds: int, smoke: bool, out: str,
            only=None) -> int:
    declared = spec()
    names = [w["name"] for w in declared["workloads"] if not only or w["name"] == only]
    runs, incorrect = [], 0
    for name in names:
        for trace in (0, 1):
            for round_index in range(rounds if trace == 0 else 1):
                for attempt in range(3):
                    result, extra = child(name, seed, seconds, trace, smoke)
                    before, after = extra["spin_ms_before"], extra["spin_ms_after"]
                    noisy = abs(after - before) / before > NOISE_LIMIT
                    if not noisy:
                        break
                incorrect += not result["correct"]
                runs.append({
                    "workload": name, "trace": trace, "round": round_index,
                    "noisy": noisy, "result": result, "extra": extra,
                })
    summary: dict = {}
    for run in runs:
        for metric, body in run["result"]["metrics"].items():
            cell = summary.setdefault(run["workload"], {}).setdefault(
                metric, {"unit": body["unit"], "values": []})
            cell["values"].append(body["value"])
    print(f"{'workload':15s} {'metric':32s} {'median':>14s} {'min':>14s} {'max':>14s} unit")
    for name, cells in summary.items():
        for metric, cell in cells.items():
            values = cell["values"]
            cell["median"] = statistics.median(values)
            print(f"{name:15s} {metric:32s} {cell['median']:14.4f} "
                  f"{min(values):14.4f} {max(values):14.4f} {cell['unit']}")
    document = {
        "seed": seed, "seconds": seconds, "rounds": rounds, "smoke": smoke,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "summary": summary, "runs": runs,
    }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 1 if incorrect else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length that sizes the operation counts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="synth:400 and a tenth of the operations")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"run.py: no program to measure under {ROOT}/src\n")
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.workload and args.trace is not None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    return run_set(args.seed, seconds, args.rounds, args.smoke, args.out,
                   only=args.workload)


if __name__ == "__main__":
    sys.exit(main())
