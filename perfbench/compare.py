#!/usr/bin/env python3
"""Compare two sets of benchmark results.

Each set is one or more files holding the standard output of
perfbench/run.py runs (any number of runs, workloads and seeds, one
after another). For every workload and metric the script prints the
median of each set and the change between them, judged against the
metric's bound in BENCHMARK.json: a change worse than the bound is
marked REGRESSION. Runs whose host fingerprints differ between the
two sets are not comparable, and the script says so first.

    python3 perfbench/compare.py base.log -- change.log
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A difference in the host's steal share beyond this moves the
# wall-clock metrics by more than their own run-to-run spread.
STEAL_NOTE = 0.02


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.startswith("perfbench-result "):
                    runs.append(json.loads(line[len("perfbench-result "):]))
    return runs


def main(argv):
    if "--" not in argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, change = load(argv[:cut]), load(argv[cut + 1:])
    if not base or not change:
        print("compare: a set holds no perfbench-result lines", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    status = 0
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base}
    prints_b = {json.dumps(r["fingerprint"], sort_keys=True) for r in change}
    if prints != prints_b or len(prints) > 1:
        status = 1
        print("FINGERPRINT MISMATCH: the two sets ran on different hosts or settings;"
              " their numbers are not comparable.")
        for name, fps in (("base", prints), ("change", prints_b)):
            for fp in sorted(fps):
                print("  %-6s %s" % (name, fp))

    for wl in sorted({(r["workload"], r["trace"]) for r in base + change}):
        a = [r for r in base if (r["workload"], r["trace"]) == wl]
        b = [r for r in change if (r["workload"], r["trace"]) == wl]
        print("%s%s: %d base runs, %d change runs" % (wl[0], " (traced)" if wl[1] else "", len(a), len(b)))
        if not a or not b:
            continue
        for name in sorted({k for r in a + b for k in r["metrics"]}):
            xa = [r["metrics"][name] for r in a if name in r["metrics"]]
            xb = [r["metrics"][name] for r in b if name in r["metrics"]]
            if not xa or not xb:
                continue
            ma, mb = statistics.median(xa), statistics.median(xb)
            rel = (mb - ma) / ma if ma else (0.0 if mb == ma else float("inf"))
            mark = ""
            m = metrics.get(name)
            if m and "bound" in m and ma:
                worse = rel if m["better"] == "lower" else -rel
                if worse > m["bound"]:
                    mark = "REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                    status = 1
            if name == "host_steal_share" and abs(mb - ma) > STEAL_NOTE:
                mark = "the host lent out different CPU shares: read wall-clock changes with care"
            print("  %-40s %14.6g -> %14.6g  %+7.1f%%  %s" % (name, ma, mb, 100 * rel, mark))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
