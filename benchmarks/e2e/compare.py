"""Compare two sets written by ``run.py --out``: ``compare.py A.json B.json``.

``A`` is the base (the parent commit), ``B`` the candidate.  For every
end-to-end metric on every workload -- each pairing its own row, never
an average across workloads -- one verdict, from the bounds that
``BENCHMARK.json`` fixes:

``unresolved``  either side's run-to-run spread (distance between the
                quartiles over the median) is wider than the bound, so
                the runs cannot tell a change that size from noise
``regressed``   B's median is worse than A's by more than the bound
``improved``    B wins at least nine tenths of the pairs (round ``i``
                of A against round ``i`` of B, ties for neither), there
                are at least ten pairs, and the medians differ by more
                than the distance between A's own quartiles
``unchanged``   none of the above: within the bound, no gain shown

Every ratio is printed with its base (A's median and unit).  Per-layer
metrics have no bound: their ratios are listed for the trace, without a
verdict.  Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartile_distance(values) -> float:
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return high - low


def values_of(document: dict, workload: str, metric: str, trace: int):
    return [
        run["result"]["metrics"][metric]["value"]
        for run in document["runs"]
        if run["workload"] == workload and run["trace"] == trace
        and metric in run["result"]["metrics"]
    ]


def verdict(base, candidate, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    candidate_median = statistics.median(candidate)
    if base_median == 0:
        return "unchanged" if candidate_median == 0 else "unresolved"
    spreads = [quartile_distance(v) / abs(statistics.median(v)) for v in (base, candidate)]
    if max(spreads) > bound:
        return "unresolved"
    if sign * (candidate_median - base_median) / abs(base_median) > bound:
        return "regressed"
    pairs = list(zip(base, candidate))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and abs(candidate_median - base_median) > quartile_distance(base)
    ):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        base_set = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        candidate_set = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)

    regressed = 0
    header = (f"{'workload':15s} {'metric':30s} {'A median (base)':>20s} "
              f"{'B median':>14s} {'B/A':>7s} {'spread A/B':>12s} {'bound':>6s}  verdict")
    print(header)
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            base = values_of(base_set, workload, metric["name"], 0)
            candidate = values_of(candidate_set, workload, metric["name"], 0)
            if not base or not candidate:
                continue
            a, b = statistics.median(base), statistics.median(candidate)
            outcome = verdict(base, candidate, metric["better"], metric["bound"])
            regressed += outcome == "regressed"
            spread = "/".join(
                f"{quartile_distance(v) / abs(statistics.median(v)):.3f}"
                if statistics.median(v) else "-" for v in (base, candidate))
            print(f"{workload:15s} {metric['name']:30s} {a:14.4f} {metric['unit']:>5s} "
                  f"{b:14.4f} {b / a if a else float('nan'):7.3f} {spread:>12s} "
                  f"{metric['bound']:6.2f}  {outcome}")
        for metric in declared["per_layer"]:
            base = values_of(base_set, workload, metric["name"], 1)
            candidate = values_of(candidate_set, workload, metric["name"], 1)
            if not base or not candidate:
                continue
            a, b = statistics.median(base), statistics.median(candidate)
            if a == 0 and b == 0:
                continue
            print(f"{workload:15s} {metric['name']:30s} {a:14.4f} {metric['unit']:>5s} "
                  f"{b:14.4f} {b / a if a else float('nan'):7.3f}")
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
