"""The demo data does not depend on the process.

``str`` hashing is salted per process (``PYTHONHASHSEED``), so a
generator that iterates a set of strings writes its rows in an order
that changes from run to run.  ``demo:bibliography`` is built here in
two processes under different hash seeds: the graphs they build must
be identical, arrays and node weights alike.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

BUILD = """
import hashlib
from repro.cli import load_database
from repro.core.model import build_data_graph

graph, stats = build_data_graph(load_database("demo:bibliography"))
digest = hashlib.sha256(repr(graph._ids).encode())
for name in ("_succ_off", "_succ_to", "_succ_w", "_pred_off", "_pred_to",
             "_pred_w", "_node_weights"):
    digest.update(getattr(graph, name).tobytes())
print(digest.hexdigest(), stats)
"""


def built_under(seed: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    return subprocess.run(
        [sys.executable, "-c", BUILD],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout


def test_demo_bibliography_builds_the_same_graph_under_any_hash_seed():
    assert built_under("1") == built_under("2")
