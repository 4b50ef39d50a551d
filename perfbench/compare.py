"""Compare two sets of perfbench result files.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are result files written by ``perfbench/run.py`` or
directories of them (default location ``.perfbench/``).  For every
workload run untraced on both sides, each end-to-end metric's median over
the runs is compared, and the metric is flagged when NEW is worse than OLD
by more than the metric's bound in ``BENCHMARK.json``.  For every run with
the same inputs (workload, seed, trace flag, dataset count) on both sides,
a change in any repeating count (``*.calls``, iterations, ratios of
counts, ``f1_mean``) is flagged: two traced runs of one commit and seed
must agree exactly.  Per-layer times are printed for information.  Each
ratio is printed with its base.  Exits 1 when anything is flagged.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def medians(records, trace):
    """{workload: {metric: (median, runs)}} over the runs with the given trace flag."""
    values = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["trace"] == trace:
            for name, m in r["result"]["metrics"].items():
                values[r["workload"]][name].append(m["value"])
    return {w: {k: (statistics.median(v), len(v)) for k, v in ms.items()}
            for w, ms in values.items()}


def worse_by(old, new, better):
    """Share of |old| by which new is worse (negative when it is better)."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def compare(old_records, new_records, bench):
    flags = []
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    for trace, spec, bounded in ((0, end_to_end, True), (1, per_layer, False)):
        old, new = medians(old_records, trace), medians(new_records, trace)
        for workload in sorted(set(old) & set(new)):
            print(f"== {workload} ({'end to end' if bounded else 'per layer, medians'})")
            for name, m in spec.items():
                if name not in old[workload] or name not in new[workload]:
                    continue
                (a, na), (b, nb) = old[workload][name], new[workload][name]
                worse = worse_by(a, b, m["better"])
                ratio = f"{b / a:.4f}" if a else "n/a"
                flag = ""
                if bounded and worse > m["bound"]:
                    flag = f"  WORSE than bound {m['bound']}"
                    flags.append(f"{workload} {name}")
                print(f"  {name:34s} {ratio:>8s} x  (base {a:.6g} {m['unit']}, "
                      f"new {b:.6g}; runs {na}/{nb}){flag}")

    # counts depend on the datasets, so only runs with the same inputs are compared
    def key(r):
        return r["workload"], r["seed"], r["trace"], r["datasets"]

    old_runs = {key(r): r for r in old_records}
    new_runs = {key(r): r for r in new_records}
    for k in sorted(set(old_runs) & set(new_runs)):
        a, b = old_runs[k]["counts"], new_runs[k]["counts"]
        commit = old_runs[k]["env"]["commit"]
        same_commit = commit != "unknown" and commit == new_runs[k]["env"]["commit"]
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                kind = "UNSTABLE (same commit)" if same_commit else "changed"
                print(f"  count {kind}: {k[0]} seed {k[1]} trace {k[2]} {name}: "
                      f"{a.get(name)} -> {b.get(name)}")
                flags.append(f"{k[0]} seed {k[1]} {name}")
    return flags


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    flags = compare(load(args.old), load(args.new), bench)
    print(f"{len(flags)} flagged" + ("".join(f"\n  {f}" for f in flags)))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
