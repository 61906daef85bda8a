"""Compare two result sets of the schurlie benchmark.

Usage: python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records that `perfbench/run.py --record FILE` appended.
For every workload the command prints each end-to-end metric of
BENCHMARK.json as median and quartiles over the runs of each side, and flags
a metric whose change median is worse than the base median by more than the
metric's bound.  Per-layer metrics from traced runs follow as medians.  It
also prints each side's failed/attempted instances and flags any seed whose
report digests differ between the sides.  Exit code 1 when anything is
flagged.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_values(records, name):
    return [statistics.median(r["samples"][name]) for r in records
            if not r["trace"] and r["samples"].get(name)]


def layer_values(records, name):
    return [r["layers"][name] for r in records if "layers" in r and name in r["layers"]]


def worse(base, change, better, bound):
    excess = (change - base) if better == "lower" else (base - change)
    return excess > bound * abs(base)


def fmt(value):
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def summary(values):
    q1, median, q3 = quartiles(values)
    return f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"


def compare(base, change, bench):
    flagged = False
    for workload in sorted(set(base) | set(change)):
        a, b = base.get(workload, []), change.get(workload, [])
        print(f"== {workload}: {len(a)} base runs, {len(b)} change runs")
        for side, records in (("base", a), ("change", b)):
            attempted = sum(r["attempted"] for r in records)
            failed = sum(r["failed"] for r in records)
            ratio = failed / attempted if attempted else 0.0
            print(f"  {side} failed/attempted instances: {failed}/{attempted} ({ratio:.4g})")
            flagged |= failed > 0
        print(f"  {'metric':30} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va, vb = run_values(a, name), run_values(b, name)
            if not va and not vb:
                continue
            if not va or not vb:
                print(f"  {name:30} missing on one side")
                continue
            bad = worse(statistics.median(va), statistics.median(vb),
                        metric["better"], metric["bound"])
            flagged |= bad
            note = f"  WORSE by more than {metric['bound']:.0%}" if bad else ""
            print(f"  {name:30} {summary(va):>30} {summary(vb):>30} {metric['unit']}{note}")
        for metric in bench["per_layer"]:
            name = metric["name"]
            va, vb = layer_values(a, name), layer_values(b, name)
            if va or vb:
                ma = fmt(statistics.median(va)) if va else "-"
                mb = fmt(statistics.median(vb)) if vb else "-"
                print(f"  {name:30} {ma:>30} {mb:>30} {metric['unit']}")
        digests = defaultdict(dict)  # child seed -> side -> report digests
        for side, records in (("base", a), ("change", b)):
            for r in records:
                for seed, got in r["digests"].items():
                    digests[int(seed)][side] = got
        for seed, sides in sorted(digests.items()):
            if len(sides) == 2 and sides["base"] != sides["change"]:
                flagged = True
                print(f"  seed {seed}: report digests differ between the sides")
    return flagged


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.exit(1 if compare(load(argv[0]), load(argv[1]), bench) else 0)


if __name__ == "__main__":
    main()
