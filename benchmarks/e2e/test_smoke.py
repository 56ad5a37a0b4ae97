"""Self-test of the benchmark on ``synth:400`` (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q``: the whole file takes
well under a minute.  It checks the output contract, that every emitted
metric is declared in ``BENCHMARK.json``, that the kernel's work counts
repeat exactly for one seed and move with another, and that
``compare.py`` reads what ``run.py`` writes.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def one(workload, seed, trace):
    done = run("--workload", workload, "--seed", str(seed), "--seconds", "10",
               "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_set(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("e2e") / "set.json")
    done = run("--seed", "1", "--smoke", "--rounds", "1", "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return out, json.load(handle)


def test_benchmark_json_meets_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_every_run_prints_the_declared_metrics(declared, smoke_set):
    _path, document = smoke_set
    wanted = {0: declared["end_to_end"], 1: declared["per_layer"]}
    seen = set()
    for entry in document["runs"]:
        result = entry["result"]
        seen.add((entry["workload"], entry["trace"]))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in wanted[entry["trace"]]]
        for metric in wanted[entry["trace"]]:
            body = result["metrics"][metric["name"]]
            assert set(body) == {"value", "unit"} and body["unit"] == metric["unit"]
            assert isinstance(body["value"], (int, float))
        if entry["trace"] == 0:
            assert all(body["value"] > 0 for body in result["metrics"].values())
    assert seen == {(w["name"], t) for w in declared["workloads"] for t in (0, 1)}


def test_layers_are_separated_as_designed(smoke_set):
    _path, document = smoke_set
    layer = {
        entry["workload"]: {k: v["value"] for k, v in entry["result"]["metrics"].items()}
        for entry in document["runs"] if entry["trace"] == 1
    }
    assert layer["point_http"]["core.cache.hit_share"] > 0
    assert layer["point_http"]["net.overhead_p50_ms"] > 0
    for bypassed in ("broad_inproc", "gather_sharded", "mixed_rw"):
        assert layer[bypassed]["core.cache.hit_share"] == 0
        assert layer[bypassed]["net.overhead_p50_ms"] == 0
    assert layer["mixed_rw"]["store.wal.fsync_count"] > 0
    assert layer["mixed_rw"]["recover_s"] > 0
    assert layer["point_http"]["store.wal.fsync_count"] == 0
    assert layer["gather_sharded"]["shard.fanout_pops_ratio"] > 1


def test_work_counts_repeat_for_a_seed_and_move_with_it():
    counts = ("core.kernel.heap_pops", "core.kernel.lanes", "core.kernel.edges_relaxed")
    first, again, other = (
        one("gather_sharded", seed, trace=1)["metrics"] for seed in (5, 5, 6))
    assert [first[c]["value"] for c in counts] == [again[c]["value"] for c in counts]
    assert first[counts[0]]["value"] != other[counts[0]]["value"]


def test_compare_reads_a_set(smoke_set):
    path, _document = smoke_set
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), path, path],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "0 regressed" in done.stdout and "regressed\n" in done.stdout
    assert "point_http" in done.stdout and "setup_s" in done.stdout


def test_no_result_where_there_is_no_program(tmp_path):
    """The driver also runs the command in a directory holding only
    BENCHMARK.json and the benchmark: that must fail without a result."""
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md", ".json")):
            (copy / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "point_http",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
